"""End-to-end acceptance scenarios.

Each test prints one "ACCEPTANCE <k> <name>: PASS/FAIL (<seconds>)" line to
the real stdout so the result of every scenario is visible in the test log.
The exhaustive harness run is shared by the scenarios that consume it.
"""

import time
from contextlib import contextmanager

import pytest

from edgeideals import (GF2, GF3, Q, analyze, complement, edge_ideal, family,
                        hochster_betti, recognize_d_tree,
                        verify_theorems, vertex_decomposable,
                        validate_vertex_decomposition, matching_number,
                        path_packing_number, whisker_number, is_chordal)
from test_properties import (property_certificate_replays,
                             property_dual_involutions,
                             property_euler_poincare_restrictions,
                             property_invariant_chain, property_round_trips)


@contextmanager
def criterion(capsys, idx, name):
    start = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        verdict = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"ACCEPTANCE {idx:2d} {name}: {verdict} "
                  f"({time.perf_counter() - start:.2f}s)")


@pytest.fixture(scope="module")
def harness_run():
    start = time.perf_counter()
    report = verify_theorems(max_n=6, connected_only=True, field=GF2,
                             seed=0, jobs=1, with_families=True)
    return report, time.perf_counter() - start


def test_acceptance_01_single_graph_analysis(capsys):
    with criterion(capsys, 1, "single-graph analysis"):
        start = time.perf_counter()
        report = analyze(family("pendant_cycle:1"))
        elapsed = time.perf_counter() - start
        assert report["reg"] == 1
        assert report["invariants"]["matching"] == 2
        assert report["invariants"]["whisker_number"] == 1
        assert report["shellable"] is True
        assert elapsed < 1.0


def test_acceptance_02_pendant_odd_cycles(capsys):
    with criterion(capsys, 2, "pendant odd cycles"):
        start = time.perf_counter()
        for n in (1, 2, 3):
            g = family(f"pendant_cycle:{n}")
            assert matching_number(g)[0] == n + 1
            assert path_packing_number(g)[0] == n
            cert = vertex_decomposable(g)
            assert cert is not None
            assert validate_vertex_decomposition(g, cert)
            assert hochster_betti(edge_ideal(g)).reg() <= n
        assert time.perf_counter() - start < 30.0


def test_acceptance_03_capped_odd_cycles(capsys):
    with criterion(capsys, 3, "capped odd cycles"):
        start = time.perf_counter()
        for n in (1, 2):
            g = family(f"capped_cycle:{n}")
            cert = vertex_decomposable(g)
            assert cert is not None
            assert validate_vertex_decomposition(g, cert)
            wn = whisker_number(g)[0]
            assert matching_number(g)[0] == n + 1
            assert wn < n + 1
            assert hochster_betti(edge_ideal(g)).reg() <= wn
        assert time.perf_counter() - start < 30.0


def test_acceptance_04_path_and_complete_extremes(capsys):
    with criterion(capsys, 4, "path and complete extremes"):
        start = time.perf_counter()
        p4 = family("path:3")
        assert path_packing_number(p4)[0] == 1
        assert whisker_number(p4)[0] == 2
        k6 = family("complete:6")
        assert whisker_number(k6)[0] == 1
        assert path_packing_number(k6)[0] == 2
        assert time.perf_counter() - start < 1.0


def test_acceptance_05_square_complement(capsys):
    with criterion(capsys, 5, "square complement limits"):
        start = time.perf_counter()
        c4 = family("cycle:4")
        table = hochster_betti(edge_ideal(c4))
        assert (table.reg(), table.pd()) == (1, 3)
        assert c4.max_degree() == 2
        assert is_chordal(complement(c4)) is not None
        assert recognize_d_tree(complement(c4)) is None
        assert time.perf_counter() - start < 1.0


def test_acceptance_06_dtree_families(capsys, harness_run):
    report, elapsed = harness_run
    with criterion(capsys, 6, f"seeded d-tree families [harness {elapsed:.2f}s]"):
        rows = [r for r in report["results"]
                if r["check"] == "dtree-pd-maxdeg"
                and r["subject"]["kind"] == "family-complement"]
        assert len(rows) >= 50
        for row in rows:
            assert row["status"] == "pass"
            data = row["data"]
            assert data["linear_quotients"] is True
            assert data["pd_homology"] == data["max_degree"]
            assert data["pd_quotients"] == data["max_degree"]
        degree_rows = [r for r in report["results"]
                       if r["check"] == "dtree-min-degree"
                       and r["subject"]["kind"] == "family"]
        assert len(degree_rows) >= 50
        assert all(r["status"] == "pass" for r in degree_rows)
        assert elapsed < 600.0


def test_acceptance_07_connected_enumeration(capsys, harness_run):
    report, elapsed = harness_run
    with criterion(capsys, 7,
                   f"connected graphs through 6 vertices [harness {elapsed:.2f}s]"):
        wanted = ["reg-le-path-packing", "reducing-vertex", "reg-le-whisker",
                  "reg-le-min", "trianglefree-complement",
                  "shelling-quotients", "dual-pd-reg",
                  "reg-ge-induced-matching", "reg-le-matching",
                  "linear-resolution-chordal"]
        graphs = 1 + 1 + 2 + 6 + 21 + 112
        for cid in wanted:
            counts = report["summary"][cid]
            assert counts["fail"] == 0, cid
            assert counts["pass"] + counts["skip"] == graphs, cid
            assert counts["pass"] > 0, cid
        assert elapsed < 900.0


def test_acceptance_08_cross_field_tables(capsys, connected_through_6):
    with criterion(capsys, 8, "cross-field Betti agreement"):
        for g in connected_through_6:
            ideal = edge_ideal(g)
            t2 = hochster_betti(ideal, GF2)
            assert t2.entries == hochster_betti(ideal, GF3).entries
            assert t2.entries == hochster_betti(ideal, Q).entries


def test_acceptance_09_cover_ideal_decomposition(capsys, harness_run):
    report, _ = harness_run
    with criterion(capsys, 9, "cover ideal decomposition"):
        counts = report["summary"]["dual-decomposition"]
        assert counts["fail"] == 0
        assert counts["pass"] >= 100
        assert counts["pass"] + counts["skip"] == 1 + 1 + 2 + 6 + 21 + 112


def test_acceptance_10_property_suite(capsys, connected_through_6):
    with criterion(capsys, 10, "cross-cutting property suite"):
        property_certificate_replays(connected_through_6)
        property_dual_involutions(connected_through_6)
        property_round_trips(connected_through_6)
        property_invariant_chain(connected_through_6)
        property_euler_poincare_restrictions(connected_through_6)
