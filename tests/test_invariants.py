import random
import signal
from functools import partial

import pytest

import _oracles as oracle
from edgeideals import (GF2, VDLeaf, VDNode, analyze, build_graph,
                        complement, compute_invariants, enumerate_graphs, family,
                        induced_matching_number, invariants,
                        is_triangle_free,
                        matching_number, path_packing_number,
                        validate_vertex_decomposition, whisker_number)
from edgeideals.bitsets import mask_of
from edgeideals.invariants import (validate_induced_matching_witness,
                                   validate_matching_witness,
                                   validate_path_packing_witness,
                                   validate_whisker_witness)


@pytest.mark.parametrize("validate, witness", [
    (validate_vertex_decomposition, VDNode(-1, VDLeaf(), VDLeaf())),
    (validate_matching_witness, [(0, -1)]),
    (validate_induced_matching_witness, [(0, -1)]),
    (validate_path_packing_witness, [(0, 1, -2)]),
    (validate_whisker_witness, [(-1, 0)]),
    (validate_matching_witness, [(9, 0)]),
    (validate_path_packing_witness, [(9, 0)]),
    (validate_whisker_witness, [(9, 0)]),
    (validate_matching_witness, [(0,)]),
    (validate_induced_matching_witness, [(0,)]),
    (validate_whisker_witness, [(0,)]),
    (validate_matching_witness, [(0, 1, 2)]),
    (validate_induced_matching_witness, [(0, 1, 2)]),
    (validate_whisker_witness, [(0, 1, 2)]),
])
def test_validators_reject_vertices_outside_the_graph(validate, witness):
    assert not validate(family("path:3"), witness)


def test_induced_matching_pair_frozen():
    p4 = family("path:3")
    assert not validate_induced_matching_witness(p4, [(0, 1), (2, 3)])
    c6 = family("cycle:6")
    assert validate_induced_matching_witness(c6, [(0, 1), (3, 4)])
    assert not validate_induced_matching_witness(c6, [(0, 1), (2, 3)])


def test_induced_matching_pair_rejects_bad_edges():
    c6 = family("cycle:6")
    for pair in ([(0, 2), (3, 4)], [(0, 1), (1, 2)], [(0, 1), (0, 1)]):
        assert not validate_induced_matching_witness(c6, pair)


def test_invariant_table_frozen():
    table = {
        "path:3": (1, 1, 2, 2),
        "complete:6": (1, 2, 1, 3),
        "cycle:5": (1, 2, 2, 2),
        "cycle:4": (1, 1, 1, 2),
        "pendant_cycle:1": (1, 1, 1, 2),
    }
    for spec, (im, pp, wn, mt) in table.items():
        g = family(spec)
        assert induced_matching_number(g)[0] == im, spec
        assert path_packing_number(g)[0] == pp, spec
        assert whisker_number(g)[0] == wn, spec
        assert matching_number(g)[0] == mt, spec


def test_pendant_cycle_values():
    for n in (1, 2, 3):
        g = family(f"pendant_cycle:{n}")
        assert path_packing_number(g)[0] == n
        assert matching_number(g)[0] == n + 1


def test_capped_cycle_values():
    for n in (1, 2):
        g = family(f"capped_cycle:{n}")
        assert matching_number(g)[0] == n + 1
        assert whisker_number(g)[0] < n + 1


def test_induced_path_variant_is_stricter():
    k6 = family("complete:6")
    assert path_packing_number(k6)[0] == 2
    assert path_packing_number(k6, induced_paths=True)[0] == 1


def test_invariants_match_bruteforce(graphs_through_5):
    for g in graphs_through_5:
        assert matching_number(g)[0] == oracle.brute_matching(g)
        assert induced_matching_number(g)[0] == oracle.brute_induced_matching(g)
        assert path_packing_number(g)[0] == oracle.brute_path_packing(g)
        assert path_packing_number(g, induced_paths=True)[0] == \
            oracle.brute_path_packing(g, induced=True)
        assert whisker_number(g)[0] == oracle.brute_whisker(g)


def test_invariant_chain(graphs_through_5):
    for g in graphs_through_5:
        im = induced_matching_number(g)[0]
        pp = path_packing_number(g)[0]
        mt = matching_number(g)[0]
        assert im <= pp <= mt
        assert whisker_number(g)[0] <= g.n // 2


def test_witnesses_validate(graphs_through_5):
    for g in graphs_through_5:
        mt, mtw = matching_number(g)
        assert len(mtw) == mt and validate_matching_witness(g, mtw)
        im, imw = induced_matching_number(g)
        assert len(imw) == im and validate_induced_matching_witness(g, imw)
        pp, ppw = path_packing_number(g)
        assert len(ppw) == pp and validate_path_packing_witness(g, ppw)
        ip, ipw = path_packing_number(g, induced_paths=True)
        assert validate_path_packing_witness(g, ipw, induced_paths=True)
        wn, wnw = whisker_number(g)
        assert len(wnw) == wn and validate_whisker_witness(g, wnw)


def test_witness_validators_reject_tampering():
    p4 = family("path:3")
    assert not validate_matching_witness(p4, [(0, 1), (1, 2)])
    assert not validate_matching_witness(p4, [(0, 2)])
    assert not validate_induced_matching_witness(p4, [(0, 1), (2, 3)])
    assert not validate_path_packing_witness(p4, [(0,)])
    assert not validate_path_packing_witness(p4, [(0, 1), (2, 3)])
    assert validate_path_packing_witness(p4, [(0, 1, 2)])
    assert not validate_path_packing_witness(p4, [(0, 1, 3)])

    c5 = family("cycle:5")
    assert validate_whisker_witness(c5, [(0, 4), (1, 2)])
    assert not validate_whisker_witness(c5, [(0, 4), (2, 1)])
    assert not validate_whisker_witness(c5, [(0, 4), (0, 1)])
    assert not validate_whisker_witness(c5, [(0, 2)])


def test_induced_path_witness_has_nonadjacent_endpoints():
    k6 = family("complete:6")
    _, witness = path_packing_number(k6, induced_paths=True)
    for p in witness:
        if len(p) == 3:
            assert not k6.has_edge(p[0], p[2])


def test_triangle_free():
    assert is_triangle_free(family("cycle:5"))
    assert not is_triangle_free(family("complete:3"))
    assert is_triangle_free(family("edgeless:2"))


def test_invariant_search_cap():
    big = build_graph(17, [])
    with pytest.raises(ValueError):
        matching_number(big)
    with pytest.raises(ValueError):
        whisker_number(big)


def test_compute_invariants_report():
    report = compute_invariants(family("pendant_cycle:1"))
    assert report.induced_matching == 1
    assert report.path_packing == 1
    assert report.whisker_number == 1
    assert report.matching == 2
    assert validate_matching_witness(family("pendant_cycle:1"),
                                     report.matching_witness)


def _random_graph(n, tenths, seed):
    """G(n, tenths / 10) from random.Random(seed)."""
    rng = random.Random(seed)
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                           if rng.randrange(10) < tenths])


def _searched(g):
    return compute_invariants(g), path_packing_number(g, induced_paths=True)


def _pairwise(g):
    """The oracle pair predicate of each search `_searched(g)` runs, in call
    order: induced matching, path packing, whisker number and matching from
    compute_invariants, then the induced path packing."""
    induced = partial(oracle.induced_pair, g)
    return [induced, induced, partial(oracle.whisker_private, g),
            lambda e, f: True, induced]


def _assert_witnesses_valid(g, inv):
    assert len(inv.matching_witness) == inv.matching
    assert validate_matching_witness(g, inv.matching_witness)
    assert len(inv.induced_matching_witness) == inv.induced_matching
    assert validate_induced_matching_witness(g, inv.induced_matching_witness)
    assert len(inv.path_packing_witness) == inv.path_packing
    assert validate_path_packing_witness(g, inv.path_packing_witness)
    assert len(inv.whisker_witness) == inv.whisker_number
    assert validate_whisker_witness(g, inv.whisker_witness)
    _, induced = path_packing_number(g, induced_paths=True)
    assert validate_path_packing_witness(g, induced, induced_paths=True)


def test_bounded_search_matches_the_count_only_oracle(monkeypatch):
    subjects = [g for n in range(1, 8) for g in enumerate_graphs(n)]
    subjects += [_random_graph(n, tenths, seed) for seed, (n, tenths) in
                 enumerate([(8, 3), (8, 7), (9, 5), (9, 8), (10, 4), (10, 6)])]
    bounded = [_searched(g) for g in subjects]
    predicates = iter([p for g in subjects for p in _pairwise(g)])
    monkeypatch.setattr(invariants, "_best_compatible", lambda units, rows, free, two:
                        oracle.best_compatible_by_count(units, next(predicates)))
    for g, found in zip(subjects, bounded):
        assert _searched(g) == found, g.edges()


@pytest.mark.parametrize("g, values", [
    (family("edgeless:0"), (0, 0, 0, 0)),
    (family("edgeless:1"), (0, 0, 0, 0)),
    (family("edgeless:2"), (0, 0, 0, 0)),
    (family("edgeless:3"), (0, 0, 0, 0)),
    (family("path:1"), (1, 1, 1, 1)),
    # K_{1,6}: the centre is the second vertex of six whisker units
    (build_graph(7, [(0, v) for v in range(1, 7)]), (1, 1, 1, 1)),
])
def test_invariant_corner_cases(g, values):
    inv = compute_invariants(g)
    assert (inv.induced_matching, inv.path_packing, inv.whisker_number,
            inv.matching) == values
    _assert_witnesses_valid(g, inv)


def test_dense_sixteen_vertex_graphs_within_budget():
    def give_up(signum, frame):
        raise TimeoutError("dense 16-vertex invariant searches took more than 10 s")

    previous = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(10)
    try:
        k16 = family("complete:16")
        report = analyze(k16, GF2)
        full = compute_invariants(k16)
        dense = _random_graph(16, 8, 3)
        inv = compute_invariants(dense)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    _assert_witnesses_valid(k16, full)
    _assert_witnesses_valid(dense, inv)
    assert {k: v for k, v in report["invariants"].items()
            if not k.endswith("_witness")} == {
        "matching": 8, "induced_matching": 1, "path_packing": 5,
        "whisker_number": 1}
    assert inv.matching == 8
    assert inv.induced_matching <= inv.path_packing <= inv.matching


def test_compatibility_rows_match_pairwise_build(monkeypatch):
    # every search of `_searched` on the classes on 1-7 vertices, on the
    # 12-vertex graphs analyze is benchmarked on, on complete:16 and on 60
    # seeded G(n, p) on 8-16 vertices
    searches = []
    search = invariants._best_compatible

    def recording(units, rows, free, two):
        searches.append((list(units), rows, free, two))
        return search(units, rows, free, two)

    monkeypatch.setattr(invariants, "_best_compatible", recording)
    graphs = [g for n in range(1, 8) for g in enumerate_graphs(n, connected_only=False)]
    for spec in ("path:11", "cycle:12", "pendant_cycle:5", "capped_cycle:5",
                 "complete:12", "dtree:1,10,0", "dtree:2,9,0", "dtree:3,8,0"):
        graphs += [family(spec), complement(family(spec))]
    graphs.append(family("complete:16"))
    graphs += [_random_graph(8 + seed % 9, 1 + seed % 8, seed) for seed in range(60)]
    predicates = []
    for g in graphs:
        _searched(g)
        predicates += _pairwise(g)
    assert len(searches) == len(predicates) == 5 * len(graphs)
    for (units, rows, free, two), compatible in zip(searches, predicates):
        assert rows == oracle.compatible_rows_by_pairs(units, compatible), units
        assert two == mask_of(i for i, u in enumerate(units) if len(u) == 2), units
        assert free == mask_of(v for u in units for v in u).bit_count(), units


def _path_units(g, induced_paths, monkeypatch):
    """The units path_packing_number(g, induced_paths) hands its search."""
    searched = []
    monkeypatch.setattr(invariants, "_best_compatible",
                        lambda units, rows, free, two: searched.append(list(units)) or [])
    path_packing_number(g, induced_paths=induced_paths)
    monkeypatch.undo()
    return searched[0]


def test_two_edge_paths_match_the_vertex_set_dedup(monkeypatch):
    # every class on 1-7 vertices, and the complete graphs on 4-7 vertices,
    # whose every two-edge path lies in a triangle
    graphs = [g for n in range(1, 8) for g in enumerate_graphs(n, connected_only=False)]
    graphs += [family(f"complete:{n}") for n in range(4, 8)]
    for g in graphs:
        for induced in (False, True):
            assert (_path_units(g, induced, monkeypatch)
                    == oracle.path_units_by_vertex_sets(g, induced)), (g.edges(), induced)


def test_each_search_returns_its_compute_invariants_fields():
    # the searches called alone and in the reverse of compute_invariants'
    # order, so each reads the edge tables whatever ran before it
    graphs = [g for n in range(1, 7) for g in enumerate_graphs(n, connected_only=False)]
    graphs += [family("complete:16"), _random_graph(14, 3, 7)]
    for g in graphs:
        inv = compute_invariants(g)
        assert matching_number(g) == (inv.matching, inv.matching_witness)
        assert whisker_number(g) == (inv.whisker_number, inv.whisker_witness)
        assert path_packing_number(g) == (inv.path_packing, inv.path_packing_witness)
        assert induced_matching_number(g) == (inv.induced_matching,
                                              inv.induced_matching_witness)
