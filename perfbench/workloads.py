"""The benchmark workloads: seeded inputs, one timed pass, and the
correctness gate checked after the pass.

Every workload calls edgeideals' public functions only, with one exception:
`verify-n6` rebinds `harness._run_payload`, the per-subject step of
`verify_theorems`, to time each subject and hold it to the deadline.

A workload seed picks one of `VARIANTS` input variants (seed mod VARIANTS).
`digests.json` holds, for every variant, digests of the outputs that
record_digests.py recorded, so the gate compares outputs exactly on any
seed. Workloads in `SEED_FREE` produce the same outputs for every variant
and have one record, under "*".
"""

from __future__ import annotations

import hashlib
import json
import random
import signal
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

VARIANTS = 16
SEED_FREE = ("verify-n6", "betti-fields")
DIGESTS = Path(__file__).resolve().parent / "digests.json"


class OpTimeout(BaseException):
    """Raised by SIGALRM when an operation passes its deadline. It derives
    from BaseException so that no handler in the program swallows it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


@dataclass
class Op:
    label: str
    seconds: float
    status: str  # ok | refused | timeout
    output: object = None


@dataclass
class PassResult:
    wall_s: float
    ops: list[Op]
    output: object = None  # what the workload's check reads besides ops
    gate_errors: list[str] = field(default_factory=list)
    digests: dict = field(default_factory=dict)


def reference_work() -> int:
    """A fixed slice of pure-Python work like the program's own: small-int
    bit arithmetic, tuples and a set. It never changes, so its time tells
    how fast the host runs Python at that moment."""
    seen = set()
    acc = 0
    for i in range(3000):
        x = (i * 40503) & 0xFFF
        acc += bin(x).count("1")
        seen.add((x & 0xFF, x >> 8))
    return acc + len(sorted(seen))


class SpeedProbe:
    """Samples reference_work() between operations, at most once per
    `every_s`, so that a pass's times can be scaled to one fixed host speed.

    On a shared host, other tenants' load changes how fast the same Python
    code runs, by up to 1.8x within seconds, and a pure-Python loop slows
    with it: process CPU time slows as much as wall time, so the host's
    speed itself varies. `spent` is the probe's own time, which the pass's
    wall time leaves out."""

    def __init__(self, every_s: float = 0.05) -> None:
        self.every_s = every_s
        self.samples: list[float] = []
        self.spent = 0.0
        self._last = float("-inf")

    def sample(self, reps: int = 1) -> None:
        start = time.perf_counter()
        t0 = start
        for _ in range(reps):
            reference_work()
            t1 = time.perf_counter()
            self.samples.append(t1 - t0)
            t0 = t1
        self.spent += t0 - start
        self._last = t0

    def between_ops(self) -> None:
        if time.perf_counter() - self._last >= self.every_s:
            self.sample()

    def reference_s(self) -> float:
        """Mean time of one reference_work() over the pass, without the
        fastest and slowest tenth of the samples (timer interrupts)."""
        xs = sorted(self.samples)
        cut = len(xs) // 10
        return statistics.fmean(xs[cut:len(xs) - cut])


PROBE = SpeedProbe()


def timed_op(label: str, deadline_s: float, fn) -> Op:
    """Run fn() once under a SIGALRM deadline in this process; a cap refusal
    (ValueError) or a timeout is a failed operation, not a failed run."""
    PROBE.between_ops()
    signal.signal(signal.SIGALRM, _on_alarm)
    t0 = time.perf_counter()
    try:
        # the alarm is disarmed inside the outer try, so it cannot fire
        # after the handlers below have been left
        signal.setitimer(signal.ITIMER_REAL, deadline_s)
        try:
            out = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except ValueError:
        return Op(label, time.perf_counter() - t0, "refused")
    except OpTimeout:
        return Op(label, time.perf_counter() - t0, "timeout")
    return Op(label, time.perf_counter() - t0, "ok", out)


# --- inputs ------------------------------------------------------------------
#
# "full" is the measured size; "tiny" keeps every code path of a workload and
# is what the benchmark's own tests run. Inputs are built before the timed
# pass, so their cost is part of set-up.

def _prepare_verify(variant: int, size: str):
    # the d-tree families keep one seed: drawn from the workload seed, their
    # shapes moved the slowest subject's time by up to 1.8x between seeds
    return {"max_n": 6 if size == "full" else 4, "seed": 0}


def relabel(g, rng):
    """g with its vertices renamed by a random permutation from rng."""
    from edgeideals import build_graph
    perm = list(range(g.n))
    rng.shuffle(perm)
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


# The seeded graphs are fixed d-tree shapes whose vertices the seed renames.
# Drawing a new shape per seed moved betti-fields' wall_s by 16 % (quartile
# spread over five seeds), because the homology cost depends on the shape;
# renaming keeps the isomorphism class, and with it the Betti tables and most
# of the cost, while every seed still sends the program different inputs.
SHAPE_SEED = 0


def _prepare_analyze(variant: int, size: str):
    """Labelled graphs, 12 vertices at full size. complete:12, the dense
    complements and the d = 3 d-tree reproduce the cap refusals and the
    unbounded linear-quotient search of ROADMAP item 4."""
    from edgeideals import complement, family
    rng = random.Random(variant)
    n = 12 if size == "full" else 7
    specs = [f"path:{n - 1}", f"cycle:{n}", f"pendant_cycle:{(n - 2) // 2}",
             f"capped_cycle:{(n - 2) // 2}", f"complete:{n}"]
    out = [(s, family(s)) for s in specs]
    for d in (1, 2, 3):
        spec = f"dtree:{d},{n - d - 1},{SHAPE_SEED}"
        g = relabel(family(spec), rng)
        out += [(spec, g), (f"co-{spec}", complement(g))]
    return out


def _prepare_betti(variant: int, size: str):
    """(spec, edge ideal, fields): relabelled d-trees, d = 1, 2, 3, on 9 and
    10 vertices, over GF(3) and, on 9 vertices, Q. A cover ideal takes about
    3.5 s on 10 vertices over Q and on 11 over GF(3) (35 s over Q), past the
    per-operation deadline, so those are left out. Betti tables do not
    depend on labels, so every seed has the same digests."""
    from edgeideals import GF3, Q, edge_ideal, family
    rng = random.Random(variant)
    sizes = ((9, (GF3, Q)), (10, (GF3,)))
    if size == "tiny":
        sizes = ((6, (GF3, Q)),)
    out = []
    for n, fields in sizes:
        for d in (1, 2, 3):
            spec = f"dtree:{d},{n - d - 1},{SHAPE_SEED}"
            out.append((spec, edge_ideal(relabel(family(spec), rng)), fields))
    return out


# --- timed passes and their checks -----------------------------------------
#
# A check runs after its pass, outside the timed phase and outside any trace;
# it fills gate_errors and the digests compared with digests.json.

def _run_verify(inputs, deadline_s: float) -> PassResult:
    from edgeideals import harness, verify_theorems
    ops: list[Op] = []
    run_payload = harness._run_payload

    def one_subject(payload):
        op = timed_op(f"subject{len(ops)}", deadline_s,
                      lambda: run_payload(payload))
        ops.append(op)
        rows = op.output if op.status == "ok" else []
        op.output = None
        return rows

    harness._run_payload = one_subject
    try:
        t0 = time.perf_counter()
        report = verify_theorems(jobs=1, **inputs)
        wall = time.perf_counter() - t0
    finally:
        harness._run_payload = run_payload
    return PassResult(wall, ops, output=report)


def _check_verify(res: PassResult) -> None:
    report = res.output
    if report["failures"]:
        res.gate_errors.append(f"{len(report['failures'])} failed checks")
    res.digests["results"] = digest(report["results"])


def _run_analyze(graphs, deadline_s: float) -> PassResult:
    from edgeideals import GF2, analyze
    t0 = time.perf_counter()
    ops = [timed_op(label, deadline_s, lambda g=g: analyze(g, GF2))
           for label, g in graphs]
    return PassResult(time.perf_counter() - t0, ops)


def _check_analyze(res: PassResult) -> None:
    for op in res.ops:
        if op.status != "ok":
            continue
        rep = op.output
        inv = rep.get("invariants")
        if inv is not None and "reg" in rep and not (
                inv["induced_matching"] <= rep["reg"] <= inv["matching"]):
            res.gate_errors.append(
                f"{op.label}: induced matching <= reg <= matching fails")
        res.digests[op.label] = digest(rep)


def _run_betti(ideals, deadline_s: float) -> PassResult:
    from edgeideals import dual_ideal, hochster_betti
    # one operation is one graph over one field: the Betti tables of its edge
    # ideal and of its cover ideal, which the check compares with each other
    jobs = [(f"{spec}/{f.tag}",
             lambda i=ideal, f=f: (hochster_betti(i, f),
                                   hochster_betti(dual_ideal(i), f)))
            for spec, ideal, fields in ideals for f in fields]
    t0 = time.perf_counter()
    ops = [timed_op(label, deadline_s, fn) for label, fn in jobs]
    return PassResult(time.perf_counter() - t0, ops)


def _check_betti(res: PassResult) -> None:
    for op in res.ops:
        if op.status != "ok":
            continue
        edge, cover = op.output
        res.digests[op.label] = digest([edge.triples(), cover.triples()])
        # Terai: pd of the cover ideal is reg(R/I) + 1 over the same field
        if edge.reg() != cover.pd() - 1:
            res.gate_errors.append(f"{op.label}: reg {edge.reg()} != "
                                   f"pd(cover) - 1 = {cover.pd() - 1}")


# name -> (build inputs, run the timed pass, check its outputs)
WORKLOADS = {
    "verify-n6": (_prepare_verify, _run_verify, _check_verify),
    "analyze-n12": (_prepare_analyze, _run_analyze, _check_analyze),
    "betti-fields": (_prepare_betti, _run_betti, _check_betti),
}


def recorded(workload: str, variant: int) -> dict | None:
    if not DIGESTS.exists():
        return None
    table = json.loads(DIGESTS.read_text()).get(workload, {})
    return table.get("*" if workload in SEED_FREE else str(variant))


def check_recorded(workload: str, res: PassResult, variant: int) -> None:
    """Compare the pass's digests with the recorded ones. An operation that
    was recorded as failed and now completes has no digest to meet; the
    workload's own checks still hold it."""
    want = recorded(workload, variant)
    if want is None:
        res.gate_errors.append(f"no digests recorded for {workload} "
                               f"variant {variant}")
        return
    for key, got in res.digests.items():
        expect = want.get(key)
        if expect is not None and expect != got:
            res.gate_errors.append(f"{key}: digest {got} != recorded {expect}")
