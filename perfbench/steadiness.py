"""Steadiness report: run workloads repeatedly on one commit and give each
end-to-end metric's median and quartiles against the bound BENCHMARK.json
fixes for it.

    python3 perfbench/steadiness.py --seeds 10 [--first-seed 0]
        [--workload NAME ...] [--compare EARLIER_REPORT.json]

Each run uses the next seed. A metric is steady when the distance between
its first and third quartile (statistics.quantiles, n=4), as a share of its
median, is within its bound; the report flags spreads above a third of the
bound too. setup_s is exempt from the spread test. With --compare, every
median must also be no worse than the earlier report's by more than the
bound. The report goes to stdout and to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(bench: dict, workload: str, seed: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    took = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_s"] = took
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"),
            "values": values}


def worse_by(better: str, old: float, new: float) -> float:
    """How much worse new is than old, as a share of old (negative: better)."""
    return (new - old) / old if better == "lower" else (old - new) / old


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--compare", type=Path)
    args = ap.parse_args(argv)
    if args.seeds < 2:
        ap.error("--seeds must be at least 2 for quartiles")
    names = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    earlier = json.loads(args.compare.read_text()) if args.compare else {}

    report: dict = {"seeds": list(range(args.first_seed,
                                        args.first_seed + args.seeds)),
                    "workloads": {}}
    ok = True
    for name in names:
        runs = [run_once(bench, name, s) for s in report["seeds"]]
        if not all(r["correct"] for r in runs):
            ok = False
            print(f"{name}: a run failed its correctness gate")
        entry = {"run_s": [r["run_s"] for r in runs],
                 "attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs], "metrics": {}}
        print(f"\n{name}: {args.seeds} runs, {max(entry['run_s']):.1f} s "
              f"longest, {sum(entry['failed'])} failed operations")
        print(f"  {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for mname, spec in metrics.items():
            s = summarize([r["metrics"][mname]["value"] for r in runs])
            flag = ""
            if mname != "setup_s" and s["spread"] > spec["bound"]:
                flag, ok = "OVER BOUND", False
            elif mname != "setup_s" and s["spread"] > spec["bound"] / 3:
                flag = "over a third of the bound"
            old = earlier.get("workloads", {}).get(name, {}).get(
                "metrics", {}).get(mname)
            if old is not None:
                s["worse_than_earlier"] = worse_by(spec["better"],
                                                   old["median"], s["median"])
                if s["worse_than_earlier"] > spec["bound"]:
                    flag, ok = flag + " WORSE THAN EARLIER", False
            entry["metrics"][mname] = s
            print(f"  {mname:14s} {s['median']:12.6g} {s['q1']:12.6g} "
                  f"{s['q3']:12.6g} {s['spread']:8.4f} {spec['bound']:6.2f} "
                  f"{flag}")
        report["workloads"][name] = entry
    (HERE / "results").mkdir(exist_ok=True)
    out = HERE / "results" / f"steadiness-{int(time.time())}.json"
    out.write_text(json.dumps(report, indent=1))
    print(f"\nreport: {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
