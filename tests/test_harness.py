import json
import sys

import pytest

from edgeideals import (CHECKS, GF2, VDLeaf, VDNode, analyze, build_graph,
                        canonical_form, complement,
                        dtree_family_specs, enumerate_graphs, family, ideals,
                        recognize_d_tree, root_shedding_vertex,
                        verify_dual_decomposition, verify_theorems)
from edgeideals.graphs import _canonical
from edgeideals.harness import GraphWorkup, _check_dual_decomposition, _verdict


def test_verify_theorems_small_run_has_no_failures():
    report = verify_theorems(max_n=4, with_families=False)
    assert report["failures"] == []
    graphs = 1 + 1 + 2 + 6
    assert len(report["results"]) == graphs * len(CHECKS)
    assert set(report["summary"]) == set(CHECKS)
    for counts in report["summary"].values():
        assert counts["fail"] == 0
        assert counts["pass"] + counts["skip"] == graphs
    assert report["config"]["max_n"] == 4
    assert report["config"]["field"] == "gf2"


def test_verify_theorems_is_deterministic():
    a = verify_theorems(max_n=3, seed=2)
    b = verify_theorems(max_n=3, seed=2)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_parallel_run_matches_serial():
    serial = verify_theorems(max_n=4, with_families=False, jobs=1)
    parallel = verify_theorems(max_n=4, with_families=False, jobs=2)
    assert json.dumps(serial, sort_keys=True) == \
        json.dumps(parallel, sort_keys=True)


class _RecordingPool:
    """Stands in for multiprocessing.Pool: records its size, maps serially."""

    sizes = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, func, items):
        return [func(item) for item in items]


@pytest.mark.parametrize("jobs, cpus, workers", [
    (4000, 8, [4]),     # 4 connected classes with at most 3 vertices
    (3, 8, [3]),
    (4000, 2, [2]),
    (4, None, []),      # unknown CPU count: serial
    (1, 8, []),
])
def test_verify_starts_at_most_cpus_and_subjects_workers(jobs, cpus, workers,
                                                         monkeypatch):
    import multiprocessing

    import edgeideals.harness as harness

    monkeypatch.setattr(multiprocessing, "Pool", _RecordingPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    report = verify_theorems(max_n=3, with_families=False, jobs=jobs)
    assert _RecordingPool.sizes == workers
    assert json.dumps(report, sort_keys=True) == json.dumps(
        verify_theorems(max_n=3, with_families=False), sort_keys=True)


@pytest.mark.parametrize("jobs", [0, -1])
def test_verify_rejects_fewer_than_one_job(jobs):
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        verify_theorems(max_n=3, jobs=jobs)


@pytest.mark.parametrize("max_n", [-1, -3])
def test_verify_rejects_a_negative_max_n(max_n, monkeypatch):
    import edgeideals.harness as harness

    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated graphs for a negative max_n")

    monkeypatch.setattr(harness, "enumerate_graphs", no_enumeration)
    with pytest.raises(ValueError, match="max_n must be non-negative"):
        verify_theorems(max_n=max_n)


def test_a_subject_builds_its_complex_once_and_runs_no_transversals(monkeypatch):
    import edgeideals.complexes as complexes
    import edgeideals.harness as harness
    import edgeideals.ideals as ideals

    calls = {"independence_complex": 0, "minimal_hitting_sets": 0}
    for home, name in ((complexes, "independence_complex"),
                       (ideals, "minimal_hitting_sets")):
        fn = getattr(home, name)

        def counted(*args, fn=fn, name=name, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        for key, mod in list(sys.modules.items()):
            if key.startswith("edgeideals") and vars(mod).get(name) is fn:
                monkeypatch.setattr(mod, name, counted)
    # an enumerated subject is its class's canonical representative
    g = _canonical(family("pendant_cycle:1"))[1]
    rows = harness._run_payload(("enumerated", g.n, tuple(g.edges()), None,
                                 None, harness.CHECK_ORDER, GF2))
    status = {row["check"]: row["status"] for row in rows}
    assert len(status) == len(CHECKS) and "fail" not in status.values()
    for cid in ("reducing-vertex", "shelling-quotients", "dual-pd-reg",
                "dual-decomposition"):
        assert status[cid] == "pass"
    assert calls == {"independence_complex": 1, "minimal_hitting_sets": 0}


def test_workup_holds_the_complement_facts():
    w = GraphWorkup(family("pendant_cycle:1"), GF2)
    assert w.g.max_degree() == 3
    assert w.chordal
    assert w.complement_chordal
    assert w.complement_triangle_free
    assert w.complement_dtree == recognize_d_tree(complement(w.g))


def test_complement_checks_run_no_invariant_search_and_share_the_froberg_gate(
        monkeypatch):
    import edgeideals.harness as harness

    calls = {"compute_invariants": 0, "linear_quotient_search": 0}
    for name in calls:
        fn = getattr(harness, name)

        def counted(*args, fn=fn, name=name, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(harness, name, counted)
    g = _canonical(family("cycle:5"))[1]
    rows = harness._run_payload(
        ("enumerated", g.n, tuple(g.edges()), None, None,
         ("trianglefree-complement", "linear-resolution-chordal"), GF2))
    assert [row["status"] for row in rows] == ["pass", "pass"]
    assert rows[0]["data"]["complement_chordal"] is False
    w = GraphWorkup(g, GF2)
    assert not w.complement_chordal and w.edge_quotients is None
    assert calls == {"compute_invariants": 0, "linear_quotient_search": 0}


def test_enumerated_subjects_carry_their_canonical_form_unlabelled(
        monkeypatch):
    from edgeideals.graphs import _canonical

    list(enumerate_graphs(6))  # the representatives, labelled beforehand
    labelled = []
    monkeypatch.setattr("edgeideals.graphs._canonical",
                        lambda g: labelled.append(g) or _canonical(g))
    report = verify_theorems(max_n=6)
    subjects = {id(row["subject"]): row["subject"] for row in report["results"]}
    assert len(subjects) == 143 + 108
    # one labelling per family subject within the cap, none per enumerated
    assert len(labelled) == sum(
        s["kind"] != "enumerated" and "canonical" in s
        for s in subjects.values())
    for subject in subjects.values():
        if subject["vertices"] <= 8:
            g = build_graph(subject["vertices"], subject["edges"])
            assert subject["canonical"] == canonical_form(g), subject


def test_unknown_check_is_rejected():
    with pytest.raises(ValueError):
        verify_theorems(max_n=2, checks=["no-such-check"])
    with pytest.raises(ValueError):
        verify_theorems(max_n=9)


def test_empty_check_selection_is_rejected_before_enumerating(monkeypatch):
    import edgeideals.harness as harness

    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated graphs for an empty selection")

    monkeypatch.setattr(harness, "enumerate_graphs", no_enumeration)
    with pytest.raises(ValueError, match="no checks selected"):
        verify_theorems(max_n=6, checks=[])


def test_check_subset_selection():
    report = verify_theorems(max_n=3, checks=["reg-le-matching"],
                             with_families=False)
    assert all(row["check"] == "reg-le-matching" for row in report["results"])
    assert list(report["summary"]) == ["reg-le-matching"]


def test_family_payloads_run_only_dtree_checks():
    report = verify_theorems(max_n=1, checks=["dtree-pd-maxdeg"], seed=1)
    kinds = {row["subject"]["kind"] for row in report["results"]}
    assert "family-complement" in kinds
    family_rows = [row for row in report["results"]
                   if row["subject"]["kind"] == "family-complement"]
    assert len(family_rows) == len(dtree_family_specs())
    assert all(row["check"] == "dtree-pd-maxdeg" for row in family_rows)
    assert all("family" in row["subject"] for row in family_rows)
    assert report["failures"] == []


def test_dtree_family_specs_cover_the_required_range():
    specs = dtree_family_specs()
    assert len(specs) == 54 >= 50
    assert len(set(specs)) == 54
    for spec in specs:
        d = int(spec.split(":")[1].split(",")[0])
        assert d in (1, 2, 3)
        g = family(spec)
        assert g.n <= 10
    assert dtree_family_specs(7) != specs


def test_check_descriptions_are_single_lines():
    for cid, (func, text) in CHECKS.items():
        assert callable(func)
        assert text and "\n" not in text


def test_check_rows_drop_empty_reason_and_data():
    rows = verify_theorems(max_n=2, checks=["dual-pd-reg"],
                           with_families=False)["results"]
    skip, passed = rows  # K1 has no edges; K2 passes
    assert skip == {"check": "dual-pd-reg", "subject": skip["subject"],
                    "status": "skip", "reason": "no edges"}
    assert passed == {"check": "dual-pd-reg", "subject": passed["subject"],
                      "status": "pass", "data": {"reg": 1, "dual_ideal_pd": 1}}


def test_analyze_pendant_triangle():
    report = analyze(family("pendant_cycle:1"))
    assert report["reg"] == 1
    assert report["pd"] == 3
    assert report["shellable"] is True
    assert report["vertex_decomposable"] is True
    assert report["invariants"]["matching"] == 2
    assert report["invariants"]["whisker_number"] == 1
    assert report["invariants"]["path_packing"] == 1
    assert report["chordal"] is True
    assert sorted(map(tuple, report["cover_ideal"])) == \
        [(0, 1), (0, 2), (1, 2, 3)]
    assert report["edge_ideal_linear_quotients"] is not None


def test_analyze_square():
    report = analyze(family("cycle:4"))
    assert report["reg"] == 1
    assert report["pd"] == 3
    assert report["shellable"] is False
    assert report["vertex_decomposable"] is False
    assert "root_shedding_vertex" not in report
    assert report["complement_chordal"] is True
    assert report["complement_dtree"] is None
    assert report["dtree"] is None
    assert report["edge_ideal_linear_quotients"]["set_sizes"] == [0, 1, 1, 2]
    assert report["betti"] == [[0, 0, 1], [1, 2, 4], [2, 3, 4], [3, 4, 1]]


def test_analyze_edgeless():
    report = analyze(family("edgeless:2"))
    assert report["reg"] == 0 and report["pd"] == 0
    assert report["dtree"] == 0
    assert report["invariants"]["matching"] == 0
    assert "edge_ideal_linear_quotients" not in report


def test_analyze_respects_field():
    from edgeideals import Q
    report = analyze(build_graph(2, [(0, 1)]), Q)
    assert report["field"] == "q"
    assert report["betti"] == [[0, 0, 1], [1, 2, 1]]


def test_dual_decomposition_check_reuses_the_workup_cover(monkeypatch):
    # the check searches G - x and G - N[x] only; the whole graph's maximal
    # independent sets are the workup's, and its rows are unchanged
    calls = []
    search = ideals.maximal_independent_sets

    def counting(g, within=None):
        calls.append(within)
        return search(g, within)

    checked = 0
    for g in [g for n in range(2, 7) for g in enumerate_graphs(n)]:
        w = GraphWorkup(g, GF2)
        if w.vd is None or root_shedding_vertex(w.vd) is None:
            continue
        w.cover
        monkeypatch.setattr(ideals, "maximal_independent_sets", counting)
        calls.clear()
        row = _check_dual_decomposition(w)
        assert len(calls) == 2
        monkeypatch.setattr(ideals, "maximal_independent_sets", search)
        rep = verify_dual_decomposition(g, row[2]["vertex"])
        assert row == (_verdict(rep.ok), "", {
            "vertex": row[2]["vertex"], "sum_identity": rep.sum_identity,
            "intersection_identity": rep.intersection_identity})
        checked += 1
    assert checked > 100



# fact -> the checks that replay its witness
REPLAYED_BY = {
    "matching": {"reg-le-matching"},
    "induced_matching": {"reg-ge-induced-matching"},
    "path_packing": {"reg-le-path-packing", "reg-le-min"},
    "whisker_number": {"reg-le-whisker", "reg-le-min"},
    "vd": {"reg-le-path-packing", "reg-le-min", "dual-decomposition"},
}


@pytest.mark.parametrize("fact, how", [
    (fact, how) for fact in REPLAYED_BY if fact != "vd"
    for how in ("short", "invalid")] + [("vd", "invalid")])
def test_a_witness_that_does_not_replay_fails_the_checks_relying_on_it(
        fact, how, monkeypatch):
    import edgeideals.harness as harness

    honest = verify_theorems(max_n=4, with_families=False)["results"]
    if fact == "vd":
        reason = "vertex decomposition does not replay"
        search = harness.vertex_decomposable

        def corrupt(g):
            cert = search(g)
            if isinstance(cert, VDNode):
                # the link leaves the root out, so no node of it is the root
                cert = VDNode(cert.vertex, cert.deletion,
                              VDNode(cert.vertex, VDLeaf(), VDLeaf()))
            return cert

        monkeypatch.setattr(harness, "vertex_decomposable", corrupt)
    else:
        reason = f"{fact} witness does not replay"
        name = harness._WITNESSES[fact][0]
        invariants = harness.compute_invariants

        def corrupt(g):
            rep = invariants(g)
            units = getattr(rep, name)
            if units:
                # one unit short of the number, or a unit on one vertex
                setattr(rep, name, units[1:] if how == "short"
                        else [(units[0][0],) * 2] + units[1:])
            return rep

        monkeypatch.setattr(harness, "compute_invariants", corrupt)
    report = verify_theorems(max_n=4, with_families=False)
    expected = []
    for row in honest:
        # an edgeless graph has empty witnesses and a leaf for a certificate,
        # which nothing corrupts
        if row["check"] in REPLAYED_BY[fact] and row["status"] == "pass" \
                and row["subject"]["edges"]:
            row = {**row, "status": "fail", "reason": reason}
        expected.append(row)
    assert report["results"] == expected
    # nine of the ten graphs have an edge, and each case fails some of them
    assert len(report["failures"]) >= 9
