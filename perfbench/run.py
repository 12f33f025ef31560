"""edgeideals benchmark: one workload, measured end to end or traced by layer.

    python3 perfbench/run.py --workload verify-n6 --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from `src/`, so
nothing needs installing. Workloads (see BENCHMARK.json for why each exists):

    verify-n6     verify_theorems(max_n=6, jobs=1), all 13 checks over GF(2);
                  one operation is one harness subject
    analyze-n12   analyze(g, GF2) on 12-vertex graphs, one caller, closed loop
    betti-fields  hochster_betti over GF(3) and Q on edge and cover ideals

Each timed pass runs in a fresh single-threaded child process, one at a
time, so every pass pays the cold caches a command-line run pays. Passes
repeat while the next one still fits in `--seconds` (at least one runs);
what a pass measures is averaged over the passes (see e2e_metrics). The
time from starting a child to the moment its inputs are ready is one set-up
sample; children that only set up top the samples up to `SETUP_SAMPLES`.

Times are in reference seconds. On a shared host the speed at which the same
Python code runs moves with other tenants' load, by up to 1.8x, in CPU time
as much as in wall time. So each child also times a fixed pure-Python
workload (workloads.reference_work): 15 times right after set-up and after
the pass, and once between operations at most every 50 ms. Its trimmed mean,
against `REFERENCE_S`, scales the pass's times to one fixed host speed; a
change to the program still moves them in full, since the reference work is
the benchmark's own. The result file keeps the measured seconds and the
reference times beside the metrics.

Every operation runs under `--deadline-s` (SIGALRM in the child). A cap
refusal (ValueError) or a timeout is a failed operation. The correctness
gate is checked after each pass, outside the timed phase; a failed gate
prints `"correct": false` and exits 1.

With `--trace 1`, untraced and traced passes alternate. Traced passes wrap
each layer's functions (spans.py) and report per-layer counts and times;
`trace.overhead_ratio` is the median traced wall time over the median
untraced one; per-layer times are in reference seconds too. The last
stdout line is the JSON result; a fuller record, with the machine and
build, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_SAMPLES = 5
DEADLINE_S = 3.0
# reference_work() samples taken right after set-up and again after the pass
CALIBRATION_REPS = 15
# Time of one workloads.reference_work() on a quiet 2-vCPU x86-64 VM under
# CPython 3.11; a reference second is a second of a host running at that
# speed. The constant only fixes the unit: every reported time scales by it.
REFERENCE_S = 0.0027

E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "op_p50_s": "s",
    "op_max_s": "s", "peak_rss_mb": "MB", "ok_share": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    return "count"


# --- child: one pass in this process ----------------------------------------

def _import_package():
    sys.path.insert(0, str(SRC))
    import edgeideals
    where = Path(edgeideals.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"edgeideals was imported from {where}, not {SRC}")
    return edgeideals


def child(args) -> int:
    _import_package()
    import spans
    import workloads

    variant = args.seed % workloads.VARIANTS
    prepare, run, check = workloads.WORKLOADS[args.workload]
    inputs = prepare(variant, args.size)
    print("READY", flush=True)
    probe = workloads.PROBE
    probe.sample(CALIBRATION_REPS)
    setup_reference_s = probe.reference_s()
    if args.setup_only:
        print(json.dumps({"setup_reference_s": setup_reference_s}), flush=True)
        return 0

    spent = probe.spent
    tracer = spans.Tracer() if args.traced else None
    if tracer:
        tracer.install()
        try:
            with tracer.root():
                res = run(inputs, args.deadline_s)
        finally:
            tracer.uninstall()
    else:
        res = run(inputs, args.deadline_s)
    # the probe's samples between operations fell inside the pass's wall time
    wall_s = res.wall_s - (probe.spent - spent)
    probe.sample(CALIBRATION_REPS)

    check(res)
    if args.size == "full":
        workloads.check_recorded(args.workload, res, variant)
    out = {
        "wall_s": wall_s,
        "reference_s": probe.reference_s(),
        "setup_reference_s": setup_reference_s,
        "probe_samples": len(probe.samples),
        "ops": [[op.label, op.seconds, op.status] for op in res.ops],
        "gate_errors": res.gate_errors,
        "digests": res.digests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": getattr(sys.modules.get("numpy"), "__version__", None),
        "traced": args.traced,
    }
    if tracer:
        total_self, root_s = spans.self_time_balance(tracer.spans)
        out["layers"] = spans.layer_metrics(tracer.spans)
        out["self_time_sum_s"] = total_self
        out["root_s"] = root_s
        out["unwrapped"] = tracer.missing
        out["spans_file"] = str(_write_spans(args, tracer.spans))
    print(json.dumps(out), flush=True)
    return 0


def _write_spans(args, span_list) -> Path:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / (f"spans-{args.workload}-seed{args.seed}"
                      f"-pass{args.pass_index}.json")
    names = sorted({s[0] for s in span_list})
    code = {n: i for i, n in enumerate(names)}
    doc = {"columns": ["name", "parent", "start", "end", "note"],
           "names": names,
           "spans": [[code[n], p, s, e, note] for n, p, s, e, note in span_list]}
    path.write_text(json.dumps(doc, separators=(",", ":")))
    return path.relative_to(ROOT)


# --- parent: schedule passes, aggregate, print -------------------------------

def _spawn(args, traced: bool, setup_only: bool, index: int, limit_s: float):
    """Run one child; returns (set-up seconds, parsed pass record or None)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--deadline-s", str(args.deadline_s),
           "--pass-index", str(index)]
    if traced:
        cmd.append("--traced")
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(limit_s, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if first.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"{args.workload} child exited with "
                           f"{proc.returncode} before finishing")
    rec = json.loads(rest.strip().splitlines()[-1])
    return (setup, rec["setup_reference_s"]), rec


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def scale(p: dict) -> float:
    """Factor that takes a pass's measured seconds to reference seconds."""
    return REFERENCE_S / p["reference_s"]


def scaled_wall(p: dict) -> float:
    """A pass's wall time in reference seconds. Time spent waiting out a
    deadline is the deadline's, not the host's, so it is not scaled."""
    waited = sum(secs for _, secs, status in p["ops"] if status == "timeout")
    return (p["wall_s"] - waited) * scale(p) + waited


def e2e_metrics(setups: list[tuple[float, float]],
                passes: list[dict]) -> dict[str, float]:
    """Times are in reference seconds (see the module docstring). Set-up is
    the median of its samples. Everything a pass measures is its mean over
    the passes, an operation's time too: a run holds 3 to 9 passes, and
    over ten runs the means spread less than the medians. A timed-out
    operation's time is the deadline, not the program's, so it counts only
    in ok_share."""
    per_op: dict[str, list[float]] = {}
    for p in passes:
        for label, secs, status in p["ops"]:
            if status != "timeout":
                per_op.setdefault(label, []).append(secs * scale(p))
    op_s = [statistics.fmean(ts) for ts in per_op.values()]
    ops = [op for p in passes for op in p["ops"]]
    ok = sum(1 for op in ops if op[2] == "ok")
    return {
        "setup_s": statistics.median(s * REFERENCE_S / ref
                                     for s, ref in setups),
        "wall_s": statistics.fmean(scaled_wall(p) for p in passes),
        "ops_per_s": statistics.fmean(
            sum(1 for op in p["ops"] if op[2] == "ok") / scaled_wall(p)
            for p in passes),
        "op_p50_s": statistics.median(op_s),
        "op_max_s": max(op_s),
        "peak_rss_mb": statistics.fmean(p["peak_rss_mb"] for p in passes),
        "ok_share": ok / len(ops),
    }


def parent(args) -> int:
    if not (SRC / "edgeideals" / "__init__.py").is_file():
        print(f"error: no edgeideals package under {SRC}", file=sys.stderr)
        return 2
    # a child that outlives its deadlines is killed rather than hang the run
    limit = 120.0
    untraced: list[dict] = []
    traced: list[dict] = []
    setups: list[tuple[float, float]] = []  # (seconds, reference_s)
    rounds: list[float] = []
    start = time.perf_counter()
    index = 0
    # a round is one pass, or an untraced and a traced pass when tracing
    while True:
        t0 = time.perf_counter()
        for is_traced in ([False, True] if args.trace else [False]):
            setup, rec = _spawn(args, is_traced, False, index, limit)
            index += 1
            setups.append(setup)
            (traced if is_traced else untraced).append(rec)
        rounds.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(rounds) > args.seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setup, _ = _spawn(args, False, True, index, limit)
        index += 1
        setups.append(setup)

    passes = untraced + traced
    errors = [e for p in passes for e in p["gate_errors"]]
    # an output completed in several passes, traced or not, must not change
    seen: dict[str, str] = {}
    for p in passes:
        for key, value in p["digests"].items():
            if seen.setdefault(key, value) != value:
                errors.append(f"{key}: output differs between passes")
    for p in traced:
        if abs(p["self_time_sum_s"] - p["root_s"]) > 1e-6 * max(p["root_s"], 1):
            errors.append("self times do not add up to the root span")

    if args.trace:
        metrics = {}
        for name in traced[0]["layers"]:
            per_unit = [scale(p) if layer_unit(name) == "s" else 1.0
                        for p in traced]
            metrics[name] = statistics.median(
                p["layers"][name] * k for p, k in zip(traced, per_unit))
        metrics["trace.overhead_ratio"] = (
            statistics.median(scaled_wall(p) for p in traced)
            / statistics.median(scaled_wall(p) for p in untraced))
        units = {name: layer_unit(name) for name in metrics}
        counted = passes
    else:
        metrics = e2e_metrics(setups, untraced)
        units = E2E_UNITS
        counted = untraced
    attempted = sum(len(p["ops"]) for p in counted)
    failed = sum(1 for p in counted for op in p["ops"] if op[2] != "ok")

    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": bool(args.trace), "seconds": args.seconds,
        "deadline_s": args.deadline_s,
        "machine": {"python": platform.python_version(),
                    "implementation": platform.python_implementation(),
                    "platform": platform.platform(),
                    "nproc": os.cpu_count(),
                    "numpy": untraced[0]["numpy"],
                    "commit": _git_commit()},
        "correct": not errors, "gate_errors": errors,
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "setup_samples": [{"s": s, "reference_s": ref} for s, ref in setups],
        "passes": [{key: p[key] for key in p if key != "digests"}
                   for p in passes],
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))

    for name, value in metrics.items():
        print(f"{name:48s} {value:14.6g} {units[name]}")
    for e in errors:
        print(f"gate: {e}")
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0 if not errors else 1


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--deadline-s", type=float, default=DEADLINE_S,
                    help="per-operation deadline in seconds")
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny keeps every code path; for the self-tests")
    # internal: one pass in a child process
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--pass-index", type=int, default=0, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1 or args.deadline_s <= 0:
        ap.error("--seed must be >= 0, --seconds >= 1, --deadline-s > 0")
    return child(args) if args.child else parent(args)


if __name__ == "__main__":
    sys.exit(main())
