"""Record the output digests the correctness gate compares against.

    python3 perfbench/record_digests.py [workload ...]

Runs every input variant of each named workload (default: all) once, in this
process and untimed, and stores the digests of its outputs in digests.json.
Run it only on a commit whose outputs are known to be right: the gate then
holds every later commit to exactly these outputs. A variant whose own checks
fail is not recorded.
"""

from __future__ import annotations

import json
import sys
import time

import run
import workloads


def record(name: str) -> dict:
    prepare, run_pass, check = workloads.WORKLOADS[name]
    variants = ["*"] if name in workloads.SEED_FREE else range(workloads.VARIANTS)
    out = {}
    for v in variants:
        t0 = time.perf_counter()
        res = run_pass(prepare(0 if v == "*" else v, "full"), run.DEADLINE_S)
        check(res)
        if res.gate_errors:
            raise SystemExit(f"{name} variant {v}: {res.gate_errors}")
        statuses = [op.status for op in res.ops]
        print(f"{name} variant {v}: wall {res.wall_s:.3f} s, "
              f"{statuses.count('ok')}/{len(statuses)} ok, "
              f"{time.perf_counter() - t0:.1f} s", flush=True)
        out[str(v)] = res.digests
    return out


def main(argv: list[str]) -> int:
    run._import_package()
    names = argv or list(workloads.WORKLOADS)
    table = (json.loads(workloads.DIGESTS.read_text())
             if workloads.DIGESTS.exists() else {})
    for name in names:
        table[name] = record(name)
        workloads.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True)
                                     + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
