"""In-memory span tracing of edgeideals layers, done from outside the package.

`Tracer.install()` replaces each traced function with a wrapper in every
loaded `edgeideals` module that holds a reference to it (the defining module
and every module that imported the name, such as `harness`, `structure`,
`homology` and `complexes`), so calls between modules are seen as well as the
benchmark's own calls. `uninstall()` puts the originals back.

A span is `[name, parent, start, end, note]`: `parent` is the index of the
enclosing span (-1 for none) and `note` carries the one number or flag a
layer metric needs (subsets visited, transversals returned, search outcome).
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (span name, module, attribute, note) for every traced function. The note
# kind tells the wrapper what to record besides start and end.
TARGETS = (
    ("harness.verify_theorems", "harness", "verify_theorems", None),
    ("harness.analyze", "harness", "analyze", None),
    ("homology.hochster_betti", "homology", "hochster_betti", "subsets"),
    ("homology.reduced_homology_ranks", "homology", "reduced_homology_ranks",
     "field"),
    ("ideals.minimal_hitting_sets", "ideals", "minimal_hitting_sets", "size"),
    ("ideals.dual_ideal", "ideals", "dual_ideal", None),
    ("ideals.linear_quotient_search", "ideals", "linear_quotient_search",
     "found"),
    ("ideals.verify_dual_decomposition", "ideals",
     "verify_dual_decomposition", None),
    ("structure.reducing_vertex", "structure", "reducing_vertex", None),
    ("structure.vertex_decomposable", "structure", "vertex_decomposable",
     "found"),
    ("structure.shellable", "structure", "shellable", "found"),
    ("structure.shelling_bruteforce", "structure", "shelling_bruteforce", None),
    ("graphs.enumerate_graphs", "graphs", "enumerate_graphs", "generator"),
    # enumeration labels candidates through the private kernel, not through
    # canonical_form, so the kernel is what counts canonical labellings
    ("graphs.canonical_form", "graphs", "_canonical", None),
    ("graphs.maximal_independent_sets", "graphs", "maximal_independent_sets",
     None),
    ("graphs.recognize_d_tree", "graphs", "recognize_d_tree", None),
    ("complexes.independence_complex", "complexes", "independence_complex",
     None),
    ("invariants.compute_invariants", "invariants", "compute_invariants", None),
)

ROOT = "bench.pass"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # --- recording -----------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def root(self):
        """Context manager for the span that encloses one timed pass."""
        tracer = self

        class _Root:
            def __enter__(self):
                self.idx = tracer._open(ROOT)

            def __exit__(self, *exc):
                tracer._close(self.idx)
                return False

        return _Root()

    def _wrap(self, name: str, fn, note: str | None):
        tracer = self
        if note == "generator":
            def wrapper(*args, **kwargs):
                # the span covers draining the generator, which is where
                # enumeration does its work
                idx = tracer._open(name)
                try:
                    items = list(fn(*args, **kwargs))
                    tracer.spans[idx][4] = len(items)
                finally:
                    tracer._close(idx)
                yield from items
        else:
            def wrapper(*args, **kwargs):
                if note == "field":
                    field = args[1] if len(args) > 1 else kwargs.get("field")
                    label = f"{name}.{field.kind if field else 'gf2'}"
                else:
                    label = name
                idx = tracer._open(label)
                try:
                    out = fn(*args, **kwargs)
                except ValueError:
                    tracer.spans[idx][4] = "refused"
                    raise
                finally:
                    tracer._close(idx)
                if note == "subsets":
                    tracer.spans[idx][4] = 1 << args[0].nvars
                elif note == "size":
                    tracer.spans[idx][4] = len(out)
                elif note == "found":
                    tracer.spans[idx][4] = out is not None
                return out
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        mods = [m for key, m in list(sys.modules.items())
                if m is not None and (key == "edgeideals"
                                      or key.startswith("edgeideals."))]
        for name, modname, attr, note in TARGETS:
            home = sys.modules.get(f"edgeideals.{modname}")
            fn = getattr(home, attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, fn, note)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._saved.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._saved):
            setattr(mod, key, fn)
        self._saved.clear()


# --- arithmetic over finished spans ------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (children are clipped to the parent and merged)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_, _, start, end, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def _outermost(spans: list[list]) -> list[bool]:
    """True for spans with no ancestor of the same name, so inclusive times
    of a recursive or re-entered layer are counted once."""
    flags = []
    for name, parent, *_ in spans:
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][1]
        flags.append(p < 0)
    return flags


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and times named as in BENCHMARK.json's per_layer."""
    selfs = self_times(spans)
    outer = _outermost(spans)
    calls: dict[str, int] = defaultdict(int)
    incl: dict[str, float] = defaultdict(float)
    selft: dict[str, float] = defaultdict(float)
    notes: dict[str, list] = defaultdict(list)
    for (name, _, start, end, note), st, top in zip(spans, selfs, outer):
        calls[name] += 1
        selft[name] += st
        if top:
            incl[name] += end - start
        if note is not None:
            notes[name].append(note)

    def ratio(name: str) -> float:
        # every call is an attempt, including refused and interrupted ones
        found = sum(1 for n in notes[name] if n is True)
        return found / calls[name] if calls[name] else 0.0

    m: dict[str, float] = {}
    hb = "homology.hochster_betti"
    m[f"{hb}.calls"] = calls[hb]
    m[f"{hb}.self_s"] = selft[hb]
    m[f"{hb}.subsets"] = sum(n for n in notes[hb] if isinstance(n, int))
    for kind in ("gf2", "gfp", "q"):
        rh = f"homology.reduced_homology_ranks.{kind}"
        m[f"{rh}.calls"] = calls[rh]
        m[f"{rh}.s"] = incl[rh]
    mh = "ideals.minimal_hitting_sets"
    m[f"{mh}.calls"] = calls[mh]
    m[f"{mh}.s"] = incl[mh]
    m[f"{mh}.transversals"] = sum(n for n in notes[mh] if isinstance(n, int))
    m["ideals.dual_ideal.s"] = incl["ideals.dual_ideal"]
    lq = "ideals.linear_quotient_search"
    m[f"{lq}.calls"] = calls[lq]
    m[f"{lq}.s"] = incl[lq]
    m[f"{lq}.found_ratio"] = ratio(lq)
    m[f"{lq}.cap_errors"] = sum(1 for n in notes[lq] if n == "refused")
    m["ideals.verify_dual_decomposition.s"] = incl["ideals.verify_dual_decomposition"]
    rv = "structure.reducing_vertex"
    m[f"{rv}.calls"] = calls[rv]
    m[f"{rv}.s"] = incl[rv]
    for name in ("structure.vertex_decomposable", "structure.shellable"):
        m[f"{name}.s"] = incl[name]
        m[f"{name}.found_ratio"] = ratio(name)
    m["structure.shelling_bruteforce.s"] = incl["structure.shelling_bruteforce"]
    eg = "graphs.enumerate_graphs"
    m[f"{eg}.s"] = incl[eg]
    m[f"{eg}.classes"] = sum(n for n in notes[eg] if isinstance(n, int))
    for name in ("graphs.canonical_form", "graphs.maximal_independent_sets",
                 "graphs.recognize_d_tree", "invariants.compute_invariants"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.s"] = incl[name]
    m["complexes.independence_complex.s"] = incl["complexes.independence_complex"]
    m["harness.verify_theorems.self_s"] = selft["harness.verify_theorems"]
    m["harness.analyze.self_s"] = selft["harness.analyze"]
    return m


def self_time_balance(spans: list[list]) -> tuple[float, float]:
    """(sum of every span's self time, total duration of the root spans).
    The two agree when spans nest properly."""
    total_self = sum(self_times(spans))
    roots = sum(end - start for name, parent, start, end, _ in spans
                if parent < 0)
    return total_self, roots
