"""Batch verification of regularity bounds and structural claims over
exhaustive small-graph enumerations and seeded clique-tree families.

Every check states a hypothesis and a conclusion. A graph that fails the
hypothesis yields a skip (with the reason), never a silent pass; a failed
conclusion yields a fail record carrying both sides of the violated
(in)equality plus the graph itself. A check that relies on a witness, an
invariant's or the vertex decomposition's, replays it, and a witness that
does not replay fails the row with the reason.
"""

from __future__ import annotations

import os
from functools import cached_property

from .bitsets import bits
from .graphs import (Graph, adjacency_string, build_graph, canonical_form,
                     complement, enumerate_graphs, family, is_chordal,
                     recognize_d_tree, validate_d_tree_certificate)
from .complexes import _facet_complements, independence_complex
from .homology import (GF2, FieldChoice, Ranks, _betti_from_planes,
                       _restriction_planes, hochster_betti)
from .ideals import (_colon_sets, _dual_decomposition, betti_from_certificate,
                     edge_ideal, linear_quotient_search)
from .invariants import (compute_invariants, is_triangle_free,
                         validate_induced_matching_witness,
                         validate_matching_witness,
                         validate_path_packing_witness,
                         validate_whisker_witness)
from .limits import check, fits
from .structure import (_reducing_vertex, root_shedding_vertex, shellable,
                        shelling_bruteforce, validate_shelling,
                        validate_vertex_decomposition, vertex_decomposable)


class GraphWorkup:
    """Lazily computed per-graph facts, each derived once and shared by the
    checks of `verify` and the sections of `analyze`."""

    def __init__(self, g: Graph, field: FieldChoice, expected_d: int | None = None):
        self.g = g
        self.field = field
        self.expected_d = expected_d

    @cached_property
    def canonical(self) -> int:
        return canonical_form(self.g)

    @cached_property
    def chordal(self) -> bool:
        return is_chordal(self.g) is not None

    @cached_property
    def complement(self) -> Graph:
        return complement(self.g)

    @cached_property
    def complement_chordal(self) -> bool:
        return is_chordal(self.complement) is not None

    @cached_property
    def complement_triangle_free(self) -> bool:
        return is_triangle_free(self.complement)

    @cached_property
    def ideal(self):
        return edge_ideal(self.g)

    @cached_property
    def complex(self):
        return independence_complex(self.g)

    @cached_property
    def cover(self):
        """The cover ideal: the complements of Ind(G)'s facets."""
        return _facet_complements(self.complex)

    @cached_property
    def homology(self) -> dict[Ranks, int]:
        """The edge ideal's restriction pass, one plane of subsets per table
        of ranks, shared by the Betti table and the reducing-vertex check."""
        return _restriction_planes(self.ideal, self.field)

    @cached_property
    def betti(self):
        return _betti_from_planes(self.homology, self.g.n, self.field)

    @cached_property
    def reg(self) -> int:
        return self.betti.reg()

    @cached_property
    def pd(self) -> int:
        return self.betti.pd()

    @cached_property
    def inv(self):
        return compute_invariants(self.g)

    @cached_property
    def vd(self):
        return vertex_decomposable(self.g)

    @cached_property
    def shelling(self):
        return shellable(self.complex)

    @cached_property
    def edge_quotients(self):
        """A linear-quotient order of the edge ideal, or None. One exists iff
        the complement is chordal (Froberg; Herzog-Hibi-Zheng)."""
        return (linear_quotient_search(self.ideal)
                if self.complement_chordal else None)

    @cached_property
    def dtree(self):
        return recognize_d_tree(self.g)

    @cached_property
    def complement_dtree(self):
        return recognize_d_tree(self.complement)


def _verdict(ok: bool) -> str:
    return "pass" if ok else "fail"


# invariant -> (its witness in InvariantReport, the validator that replays it)
_WITNESSES = {
    "matching": ("matching_witness", validate_matching_witness),
    "induced_matching": ("induced_matching_witness",
                         validate_induced_matching_witness),
    "path_packing": ("path_packing_witness", validate_path_packing_witness),
    "whisker_number": ("whisker_witness", validate_whisker_witness),
}


def _replayed(w: GraphWorkup, ok: bool, data: dict, *facts: str):
    """The row of a check that holds iff ok, and that fails with a reason if
    a fact it relies on does not replay: "vd", the vertex decomposition, or
    an invariant, whose witness must pass its validator and have the
    invariant's size."""
    for fact in facts:
        if fact == "vd":
            if not validate_vertex_decomposition(w.g, w.vd):
                return "fail", "vertex decomposition does not replay", data
            continue
        name, validate = _WITNESSES[fact]
        witness = getattr(w.inv, name)
        if not validate(w.g, witness) or len(witness) != getattr(w.inv, fact):
            return "fail", f"{fact} witness does not replay", data
    return _verdict(ok), "", data


def _check_reg_le_path_packing(w: GraphWorkup):
    if w.vd is None:
        return "skip", "independence complex is not vertex decomposable", {}
    data = {"reg": w.reg, "path_packing": w.inv.path_packing}
    return _replayed(w, w.reg <= w.inv.path_packing, data, "vd", "path_packing")


def _check_reducing_vertex(w: GraphWorkup):
    if w.shelling is None:
        return "skip", "independence complex is not shellable", {}
    found = _reducing_vertex(w.g, w.homology)
    if found is None:
        return "fail", "no vertex reduces the regularity", {"reg": w.reg}
    x, reg_g, reg_h = found
    return "pass", "", {"vertex": x, "reg": reg_g, "reg_reduced": reg_h}


def _check_reg_le_whisker(w: GraphWorkup):
    if w.shelling is None:
        return "skip", "independence complex is not shellable", {}
    data = {"reg": w.reg, "whisker_number": w.inv.whisker_number}
    return _replayed(w, w.reg <= w.inv.whisker_number, data, "whisker_number")


def _check_reg_le_min(w: GraphWorkup):
    if w.vd is None:
        return "skip", "independence complex is not vertex decomposable", {}
    bound = min(w.inv.path_packing, w.inv.whisker_number)
    data = {"reg": w.reg, "path_packing": w.inv.path_packing,
            "whisker_number": w.inv.whisker_number}
    return _replayed(w, w.reg <= bound, data, "vd", "path_packing",
                     "whisker_number")


def _check_trianglefree_complement(w: GraphWorkup):
    if not w.complement_triangle_free:
        return "skip", "complement has a triangle", {}
    data = {"reg": w.reg, "complement_chordal": w.complement_chordal}
    ok = w.reg <= 2 and (w.complement_chordal or w.reg == 2)
    return _verdict(ok), "", data


def _check_dtree_min_degree(w: GraphWorkup):
    cert = w.dtree
    if cert is None:
        return "skip", "not a d-tree", {}
    mindeg = min(w.g.degree(v) for v in range(w.g.n))
    data = {"d": cert.d, "min_degree": mindeg}
    ok = validate_d_tree_certificate(w.g, cert) and mindeg >= cert.d
    if w.expected_d is not None:
        data["expected_d"] = w.expected_d
        ok = ok and cert.d == w.expected_d
    return _verdict(ok), "", data


def _check_dtree_pd_maxdeg(w: GraphWorkup):
    cert = w.complement_dtree
    if cert is None:
        return "skip", "complement is not a d-tree", {}
    g = w.g
    maxdeg = g.max_degree()
    data = {"d": cert.d, "max_degree": maxdeg, "pd_homology": w.pd}
    ok = w.pd == maxdeg
    if g.edge_count() == 0:
        # zero ideal: nothing to order, pd(R/I) = 0 = max degree
        return _verdict(ok), "", data
    lq = w.edge_quotients
    data["linear_quotients"] = lq is not None
    if lq is None:
        return "fail", "edge ideal admits no linear-quotient order", data
    table = betti_from_certificate(w.ideal, lq)
    data["pd_quotients"] = table.pd()
    ok = ok and table.pd() == maxdeg
    return _verdict(ok), "", data


def _check_shelling_quotients(w: GraphWorkup):
    c = w.complex
    if not fits("shelling_bruteforce", len(c.facets)):
        return "skip", "too many facets for the backtracking oracle", {}
    direct = shelling_bruteforce(c)
    data = {"via_quotients": w.shelling is not None,
            "via_backtracking": direct is not None}
    ok = (w.shelling is None) == (direct is None)
    if w.shelling is not None:
        ok = ok and validate_shelling(c, w.shelling)
    if direct is not None:
        ok = ok and validate_shelling(c, direct)
    return _verdict(ok), "", data


def _check_dual_pd_reg(w: GraphWorkup):
    if w.g.edge_count() == 0:
        return "skip", "no edges", {}
    pd_dual = hochster_betti(w.cover, w.field).pd() - 1
    data = {"reg": w.reg, "dual_ideal_pd": pd_dual}
    return _verdict(pd_dual == w.reg), "", data


def _check_reg_ge_induced_matching(w: GraphWorkup):
    data = {"reg": w.reg, "induced_matching": w.inv.induced_matching}
    return _replayed(w, w.reg >= w.inv.induced_matching, data,
                     "induced_matching")


def _check_reg_le_matching(w: GraphWorkup):
    data = {"reg": w.reg, "matching": w.inv.matching}
    return _replayed(w, w.reg <= w.inv.matching, data, "matching")


def _check_linear_resolution_chordal(w: GraphWorkup):
    if w.g.edge_count() == 0:
        return "skip", "no edges", {}
    data = {"reg": w.reg, "complement_chordal": w.complement_chordal}
    return _verdict((w.reg == 1) == w.complement_chordal), "", data


def _check_dual_decomposition(w: GraphWorkup):
    if w.vd is None:
        return "skip", "independence complex is not vertex decomposable", {}
    x = root_shedding_vertex(w.vd)
    if x is None:
        return "skip", "decomposition has no shedding vertex", {}
    rep = _dual_decomposition(w.g, x, w.cover.gens)
    data = {"vertex": x, "sum_identity": rep.sum_identity,
            "intersection_identity": rep.intersection_identity}
    return _replayed(w, rep.ok, data, "vd")


# id -> (callable, one-line statement of hypothesis -> conclusion)
CHECKS = {
    "reg-le-path-packing": (
        _check_reg_le_path_packing,
        "vertex decomposable: reg(R/I) is at most the short-path packing number"),
    "reducing-vertex": (
        _check_reducing_vertex,
        "shellable: some vertex x has reg(G) <= reg(G minus N[x]) + 1"),
    "reg-le-whisker": (
        _check_reg_le_whisker,
        "shellable: reg(R/I) is at most the whisker number"),
    "reg-le-min": (
        _check_reg_le_min,
        "vertex decomposable: reg(R/I) <= min(path packing, whisker number)"),
    "trianglefree-complement": (
        _check_trianglefree_complement,
        "triangle-free complement: reg <= 2, with equality if the complement "
        "is not chordal"),
    "dtree-min-degree": (
        _check_dtree_min_degree,
        "d-tree: every vertex has degree at least d"),
    "dtree-pd-maxdeg": (
        _check_dtree_pd_maxdeg,
        "complement is a d-tree: pd(R/I) equals the maximum vertex degree, "
        "via both the homology oracle and a linear-quotient resolution"),
    "shelling-quotients": (
        _check_shelling_quotients,
        "linear-quotient route and direct backtracking agree on shellability"),
    "dual-pd-reg": (
        _check_dual_pd_reg,
        "pd of the cover ideal equals reg(R/I), both sides via homology"),
    "reg-ge-induced-matching": (
        _check_reg_ge_induced_matching,
        "reg(R/I) is at least the induced matching number"),
    "reg-le-matching": (
        _check_reg_le_matching,
        "reg(R/I) is at most the matching number"),
    "linear-resolution-chordal": (
        _check_linear_resolution_chordal,
        "reg(R/I) = 1 exactly when the complement is chordal"),
    "dual-decomposition": (
        _check_dual_decomposition,
        "cover ideal splits as x*D(G-x) + m_x*D(G-N[x]) at the root shedding "
        "vertex"),
}

CHECK_ORDER = tuple(CHECKS)

# checks whose hypothesis is about d-trees; these also run on generated
# families, not just enumerated graphs
_FAMILY_CHECKS = ("dtree-min-degree", "dtree-pd-maxdeg")


def dtree_family_specs(seed: int = 0) -> list[str]:
    """54 seeded d-tree specs with d in {1,2,3}, 4..10 vertices each."""
    specs = []
    combo = 0
    for d in (1, 2, 3):
        for steps in range(2, 10 - d):
            for k in range(3):
                specs.append(f"dtree:{d},{steps},{seed + 3 * combo + k}")
            combo += 1
    return specs


def _run_payload(payload) -> list[dict]:
    """The rows of one subject.  An enumerated subject is its class's
    canonically labelled representative, so its canonical form is the
    adjacency string of its own labels; other subjects are labelled."""
    kind, n, edges, spec, expected_d, checks, field = payload
    g = build_graph(n, list(edges))
    w = GraphWorkup(g, field, expected_d)
    subject = {"kind": kind, "vertices": n,
               "edges": [list(e) for e in edges]}
    if spec is not None:
        subject["family"] = spec
    if fits("canonical", n):
        subject["canonical"] = (adjacency_string(g) if kind == "enumerated"
                                else w.canonical)
    out = []
    for cid in checks:
        status, reason, data = CHECKS[cid][0](w)
        row = {"check": cid, "subject": subject, "status": status}
        if reason:
            row["reason"] = reason
        if data:
            row["data"] = data
        out.append(row)
    return out


def verify_theorems(max_n: int = 6, connected_only: bool = True,
                    checks: list[str] | None = None,
                    field: FieldChoice = GF2, seed: int = 0,
                    jobs: int = 1, with_families: bool = True) -> dict:
    """Run the selected checks over every isomorphism class up to max_n
    vertices (plus generated d-tree families for the d-tree checks) and
    return a deterministic report dict."""
    if checks is None:
        wanted = list(CHECK_ORDER)
    else:
        unknown = sorted(set(checks) - set(CHECK_ORDER))
        if unknown:
            raise ValueError(f"unknown checks: {', '.join(unknown)}")
        wanted = [c for c in CHECK_ORDER if c in set(checks)]
    if not wanted:
        raise ValueError("no checks selected")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if max_n < 0:
        raise ValueError("max_n must be non-negative")
    check("canonical", max_n)

    tasks = []
    for n in range(1, max_n + 1):
        for g in enumerate_graphs(n, connected_only):
            tasks.append(("enumerated", g.n, tuple(g.edges()), None, None,
                          tuple(wanted), field))
    family_wanted = tuple(c for c in _FAMILY_CHECKS if c in wanted)
    specs = dtree_family_specs(seed) if (with_families and family_wanted) else []
    for spec in specs:
        t = family(spec)
        d = int(spec.split(":")[1].split(",")[0])
        if "dtree-min-degree" in family_wanted:
            tasks.append(("family", t.n, tuple(t.edges()), spec, d,
                          ("dtree-min-degree",), field))
        if "dtree-pd-maxdeg" in family_wanted:
            tc = complement(t)
            tasks.append(("family-complement", tc.n, tuple(tc.edges()), spec,
                          d, ("dtree-pd-maxdeg",), field))

    workers = min(jobs, os.cpu_count() or 1, len(tasks))
    if workers > 1:
        # imported here: most runs are serial, and the import costs every
        # start of the package milliseconds
        import multiprocessing
        with multiprocessing.Pool(workers) as pool:
            chunks = pool.map(_run_payload, tasks)
    else:
        chunks = [_run_payload(t) for t in tasks]
    results = [row for chunk in chunks for row in chunk]

    summary: dict[str, dict[str, int]] = {
        c: {"pass": 0, "fail": 0, "skip": 0} for c in wanted}
    for row in results:
        summary[row["check"]][row["status"]] += 1
    failures = [row for row in results if row["status"] == "fail"]
    return {
        "config": {"max_n": max_n, "connected_only": connected_only,
                   "checks": wanted, "field": field.tag, "seed": seed,
                   "family_specs": len(specs)},
        "results": results,
        "summary": summary,
        "failures": failures,
    }


def analyze(g: Graph, field: FieldChoice = GF2) -> dict:
    """Full single-graph report: invariants, Betti table, certificates,
    read off one GraphWorkup; a section past its cap is left out."""
    w = GraphWorkup(g, field)
    report: dict = {
        "vertices": g.n,
        "edges": [list(e) for e in g.edges()],
        "max_degree": g.max_degree(),
        "field": field.tag,
    }
    if fits("canonical", g.n):
        report["canonical"] = w.canonical

    if fits("invariants", g.n):
        inv = w.inv
        report["invariants"] = {
            "matching": inv.matching,
            "matching_witness": [list(e) for e in inv.matching_witness],
            "induced_matching": inv.induced_matching,
            "induced_matching_witness": [list(e) for e in inv.induced_matching_witness],
            "path_packing": inv.path_packing,
            "path_packing_witness": [list(p) for p in inv.path_packing_witness],
            "whisker_number": inv.whisker_number,
            "whisker_witness": [list(p) for p in inv.whisker_witness],
        }
    report["chordal"] = w.chordal
    report["complement_chordal"] = w.complement_chordal
    report["complement_triangle_free"] = w.complement_triangle_free

    if fits("subset_homology", g.n):
        report["betti"] = [list(t) for t in w.betti.triples()]
        report["reg"] = w.reg
        report["pd"] = w.pd
        report["cover_ideal"] = [sorted(bits(m)) for m in w.cover.gens]
        gens = w.ideal.gens
        if gens and fits("linear_quotients", len(gens)):
            lq = w.edge_quotients
            report["edge_ideal_linear_quotients"] = (
                None if lq is None else
                {"order": [sorted(bits(gens[i])) for i in lq.order],
                 "set_sizes": [s.bit_count() for s in
                               _colon_sets([gens[i] for i in lq.order])]})

    if fits("vertex_decomposition", g.n):
        report["vertex_decomposable"] = w.vd is not None
        if w.vd is not None:
            report["root_shedding_vertex"] = root_shedding_vertex(w.vd)
        if fits("shelling", len(w.complex.facets)):
            report["shellable"] = w.shelling is not None
            if w.shelling is not None:
                report["shelling"] = [sorted(bits(f)) for f in w.shelling.facets]

    report["dtree"] = None if w.dtree is None else w.dtree.d
    report["complement_dtree"] = (None if w.complement_dtree is None
                                  else w.complement_dtree.d)
    return report
