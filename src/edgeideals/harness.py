"""Batch verification of regularity bounds and structural claims over
exhaustive small-graph enumerations and seeded clique-tree families.

Every check states a hypothesis and a conclusion. A graph that fails the
hypothesis yields a skip (with the reason), never a silent pass; a failed
conclusion yields a fail record carrying both sides of the violated
(in)equality plus the graph itself.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field as dc_field
from functools import cached_property

from .betti import ideal_table_to_quotient
from .bitsets import bits
from .graphs import (Graph, build_graph, canonical_form, complement,
                     enumerate_graphs, family, is_chordal, recognize_d_tree,
                     validate_d_tree_certificate)
from .complexes import independence_complex
from .homology import GF2, FieldChoice, hochster_betti
from .ideals import (betti_from_certificate, dual_ideal, edge_ideal,
                     linear_quotient_search, verify_dual_decomposition)
from .invariants import compute_invariants
from .limits import check, fits
from .structure import (reducing_vertex, root_shedding_vertex, shellable,
                        shelling_bruteforce, validate_shelling,
                        vertex_decomposable)


class GraphWorkup:
    """Lazily computed per-graph facts shared by all checks."""

    def __init__(self, g: Graph, field: FieldChoice, expected_d: int | None = None):
        self.g = g
        self.field = field
        self.expected_d = expected_d

    @cached_property
    def betti(self):
        return hochster_betti(edge_ideal(self.g), self.field)

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
        return shellable(self.g)

    @cached_property
    def complement_graph(self) -> Graph:
        return complement(self.g)

    @cached_property
    def dtree(self):
        return recognize_d_tree(self.g)

    @cached_property
    def complement_dtree(self):
        return recognize_d_tree(self.complement_graph)


def _verdict(ok: bool) -> str:
    return "pass" if ok else "fail"


def _check_reg_le_path_packing(w: GraphWorkup):
    if w.vd is None:
        return "skip", "independence complex is not vertex decomposable", {}
    data = {"reg": w.reg, "path_packing": w.inv.path_packing}
    return _verdict(w.reg <= w.inv.path_packing), "", data


def _check_reducing_vertex(w: GraphWorkup):
    if w.shelling is None:
        return "skip", "independence complex is not shellable", {}
    found = reducing_vertex(w.g, w.field)
    if found is None:
        return "fail", "no vertex reduces the regularity", {"reg": w.reg}
    x, reg_g, reg_h = found
    return "pass", "", {"vertex": x, "reg": reg_g, "reg_reduced": reg_h}


def _check_reg_le_whisker(w: GraphWorkup):
    if w.shelling is None:
        return "skip", "independence complex is not shellable", {}
    data = {"reg": w.reg, "whisker_number": w.inv.whisker_number}
    return _verdict(w.reg <= w.inv.whisker_number), "", data


def _check_reg_le_min(w: GraphWorkup):
    if w.vd is None:
        return "skip", "independence complex is not vertex decomposable", {}
    bound = min(w.inv.path_packing, w.inv.whisker_number)
    data = {"reg": w.reg, "path_packing": w.inv.path_packing,
            "whisker_number": w.inv.whisker_number}
    return _verdict(w.reg <= bound), "", data


def _check_trianglefree_complement(w: GraphWorkup):
    if not w.inv.complement_triangle_free:
        return "skip", "complement has a triangle", {}
    data = {"reg": w.reg, "complement_chordal": w.inv.complement_chordal}
    ok = w.reg <= 2 and (w.inv.complement_chordal or w.reg == 2)
    return _verdict(ok), "", data


def _check_dtree_min_degree(w: GraphWorkup):
    cert = w.dtree
    if cert is None:
        return "skip", "not a d-tree", {}
    if w.g.n == 0:
        return "pass", "", {"d": cert.d}
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
    ideal = edge_ideal(g)
    lq = linear_quotient_search(ideal, degree_monotone=True)
    data["linear_quotients"] = lq is not None
    if lq is None:
        return "fail", "edge ideal admits no linear-quotient order", data
    table = ideal_table_to_quotient(
        betti_from_certificate(lq, [m.bit_count() for m in ideal.gens]))
    data["pd_quotients"] = table.pd()
    ok = ok and table.pd() == maxdeg
    return _verdict(ok), "", data


def _check_shelling_quotients(w: GraphWorkup):
    c = independence_complex(w.g)
    if not fits("shelling_bruteforce", len(c.effective_facets())):
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
    dual = dual_ideal(edge_ideal(w.g))
    pd_dual = hochster_betti(dual, w.field).pd() - 1
    data = {"reg": w.reg, "dual_ideal_pd": pd_dual}
    return _verdict(pd_dual == w.reg), "", data


def _check_reg_ge_induced_matching(w: GraphWorkup):
    data = {"reg": w.reg, "induced_matching": w.inv.induced_matching}
    return _verdict(w.reg >= w.inv.induced_matching), "", data


def _check_reg_le_matching(w: GraphWorkup):
    data = {"reg": w.reg, "matching": w.inv.matching}
    return _verdict(w.reg <= w.inv.matching), "", data


def _check_linear_resolution_chordal(w: GraphWorkup):
    if w.g.edge_count() == 0:
        return "skip", "no edges", {}
    data = {"reg": w.reg, "complement_chordal": w.inv.complement_chordal}
    return _verdict((w.reg == 1) == w.inv.complement_chordal), "", data


def _check_dual_decomposition(w: GraphWorkup):
    if w.vd is None:
        return "skip", "independence complex is not vertex decomposable", {}
    x = root_shedding_vertex(w.vd)
    if x is None or w.g.edge_count() == 0:
        return "skip", "decomposition has no shedding vertex", {}
    rep = verify_dual_decomposition(w.g, x)
    data = {"vertex": x, "sum_identity": rep.sum_identity,
            "intersection_identity": rep.intersection_identity}
    return _verdict(rep.ok), "", data


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


@dataclass
class CheckResult:
    check: str
    subject: dict
    status: str  # pass | fail | skip
    reason: str = ""
    data: dict = dc_field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {"check": self.check, "subject": self.subject, "status": self.status}
        if self.reason:
            out["reason"] = self.reason
        if self.data:
            out["data"] = self.data
        return out


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
    kind, n, edges, spec, expected_d, checks, field = payload
    g = build_graph(n, list(edges))
    w = GraphWorkup(g, field, expected_d)
    subject = {"kind": kind, "vertices": n,
               "edges": [list(e) for e in edges]}
    if spec is not None:
        subject["family"] = spec
    if fits("canonical", n):
        subject["canonical"] = canonical_form(g)
    out = []
    for cid in checks:
        status, reason, data = CHECKS[cid][0](w)
        out.append(CheckResult(cid, subject, status, reason, data).as_dict())
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

    if jobs > 1:
        with multiprocessing.Pool(jobs) as pool:
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
    """Full single-graph report: invariants, Betti table, certificates."""
    report: dict = {
        "vertices": g.n,
        "edges": [list(e) for e in g.edges()],
        "max_degree": g.max_degree(),
        "field": field.tag,
    }
    if fits("canonical", g.n):
        report["canonical"] = canonical_form(g)

    if fits("invariants", g.n):
        inv = compute_invariants(g)
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
        report["chordal"] = inv.chordal
        report["complement_chordal"] = inv.complement_chordal
        report["complement_triangle_free"] = inv.complement_triangle_free
    else:
        report["chordal"] = is_chordal(g) is not None

    if fits("subset_homology", g.n):
        table = hochster_betti(edge_ideal(g), field)
        report["betti"] = [list(t) for t in table.triples()]
        report["reg"] = table.reg()
        report["pd"] = table.pd()
        ideal = edge_ideal(g)
        dual = dual_ideal(ideal)
        report["cover_ideal"] = [sorted(bits(m)) for m in dual.gens]
        if ideal.gens and fits("linear_quotients", len(ideal.gens)):
            # an order exists iff the complement is chordal (Froberg; Herzog-Hibi-Zheng)
            lq = (linear_quotient_search(ideal, degree_monotone=True)
                  if report["complement_chordal"] else None)
            report["edge_ideal_linear_quotients"] = (
                None if lq is None else
                {"order": [sorted(bits(ideal.gens[i])) for i in lq.order],
                 "set_sizes": [s.bit_count() for s in lq.sets]})

    if fits("vertex_decomposition", g.n):
        cert = vertex_decomposable(g)
        report["vertex_decomposable"] = cert is not None
        if cert is not None:
            report["root_shedding_vertex"] = root_shedding_vertex(cert)
        c = independence_complex(g)
        if fits("shelling", len(c.effective_facets())):
            sh = shellable(c)
            report["shellable"] = sh is not None
            if sh is not None:
                report["shelling"] = [sorted(bits(f)) for f in sh.facets]

    dt = recognize_d_tree(g)
    report["dtree"] = None if dt is None else dt.d
    cdt = recognize_d_tree(complement(g))
    report["complement_dtree"] = None if cdt is None else cdt.d
    return report

