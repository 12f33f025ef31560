import itertools
import os
import pathlib
import random
import signal
import subprocess
import sys

import pytest

import _oracles as oracle
from edgeideals import (DTreeCertificate, build_graph, canonical_form,
                        complement, dtree_family_specs, enumerate_graphs,
                        family, is_chordal, is_connected,
                        maximal_independent_sets, recognize_d_tree,
                        validate_d_tree_certificate, whisker)
from edgeideals.bitsets import bits, mask_of
from edgeideals.graphs import _canonical, _iso_classes, adjacency_string


def test_build_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        build_graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        build_graph(3, [(0, 5)])
    with pytest.raises(ValueError):
        build_graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        build_graph(65, [])


def test_build_graph_symmetry():
    g = build_graph(3, [(0, 2)])
    g.validate()
    assert g.has_edge(0, 2) and g.has_edge(2, 0)
    assert not g.has_edge(0, 1)
    assert g.edges() == [(0, 2)]
    assert g.degree(1) == 0 and g.max_degree() == 1


def test_complement_is_involution(graphs_through_5):
    for g in graphs_through_5:
        assert complement(complement(g)) == g
        complement(g).validate()


def test_complement_of_square_is_two_disjoint_edges():
    c4 = family("cycle:4")
    assert sorted(complement(c4).edges()) == [(0, 2), (1, 3)]


def test_induced_subgraph_relabels():
    c5 = family("cycle:5")
    h, labels = oracle.induced_subgraph(c5, mask_of((0, 1, 3)))
    assert labels == (0, 1, 3)
    assert h.n == 3
    assert h.edges() == [(0, 1)]


def test_induced_subgraph_edge_set_matches_definition(graphs_through_5):
    for g in graphs_through_5:
        for sub in range(1 << g.n):
            h, labels = oracle.induced_subgraph(g, sub)
            expect = {(u, v) for u, v in g.edges()
                      if sub >> u & 1 and sub >> v & 1}
            got = {(labels[u], labels[v]) for u, v in h.edges()}
            assert got == expect


def test_induced_subgraph_rejects_stray_bits():
    with pytest.raises(ValueError):
        oracle.induced_subgraph(build_graph(2, [(0, 1)]), 0b100)


def test_whisker_attaches_pendants_in_order():
    p2 = family("path:2")
    w = whisker(p2, mask_of((0, 2)))
    assert w.n == 5
    assert w.has_edge(0, 3) and w.has_edge(2, 4)
    assert w.degree(3) == 1 and w.degree(4) == 1
    assert w.degree(1) == 2
    w.validate()
    assert whisker(p2, 0) == p2


def test_whisker_rejects_overflow():
    g = build_graph(60, [])
    with pytest.raises(ValueError):
        whisker(g, g.full)


def test_is_connected():
    assert is_connected(family("path:4"))
    assert is_connected(build_graph(1, []))
    assert not is_connected(family("edgeless:2"))
    assert not is_connected(build_graph(4, [(0, 1), (2, 3)]))


def test_maximal_independent_sets_against_bruteforce(graphs_through_5):
    for g in graphs_through_5:
        got = sorted(tuple(sorted(bits(m))) for m in maximal_independent_sets(g))
        assert got == oracle.maximal_independent_sets(g)


def test_maximal_independent_sets_within_subset(graphs_through_5):
    for g in graphs_through_5:
        assert maximal_independent_sets(g, 0) == [0]
        for within in range(1 << g.n):
            got = sorted(tuple(sorted(bits(m)))
                         for m in maximal_independent_sets(g, within))
            assert got == oracle.maximal_independent_sets(g, set(bits(within)))


def _is_perfect_elimination(g, order):
    for i, v in enumerate(order):
        later = mask_of(order[i + 1:])
        nb = [u for u in bits(g.adj[v] & later)]
        for a, b in itertools.combinations(nb, 2):
            if not g.has_edge(a, b):
                return False
    return True


def test_chordality_matches_bruteforce(graphs_through_5):
    for g in graphs_through_5:
        order = is_chordal(g)
        assert (order is not None) == oracle.is_chordal(g)
        if order is not None:
            assert sorted(order) == list(range(g.n))
            assert _is_perfect_elimination(g, order)


def test_chordal_examples():
    assert is_chordal(family("cycle:4")) is None
    assert is_chordal(family("cycle:6")) is None
    assert is_chordal(family("complete:5")) is not None
    assert is_chordal(family("path:5")) is not None


def test_recognize_d_tree_frozen_cases():
    k3 = family("complete:3")
    cert = recognize_d_tree(k3)
    assert cert == DTreeCertificate(2, (0, 1, 2))

    p3 = family("path:3")
    cert = recognize_d_tree(p3)
    assert cert is not None and cert.d == 1
    assert cert.order == (0, 1, 2, 3)
    assert validate_d_tree_certificate(p3, cert)

    assert recognize_d_tree(family("cycle:4")) is None
    assert recognize_d_tree(family("cycle:5")) is None

    edgeless = family("edgeless:4")
    cert = recognize_d_tree(edgeless)
    assert cert is not None and cert.d == 0
    assert validate_d_tree_certificate(edgeless, cert)


def test_recognize_d_tree_against_backtracking(graphs_through_5):
    for g in graphs_through_5:
        values = oracle.d_tree_values(g)
        assert len(values) <= 1
        cert = recognize_d_tree(g)
        if cert is None:
            assert not values
        else:
            assert values == {cert.d}
            assert validate_d_tree_certificate(g, cert)


def test_d_tree_certificate_rejects_tampering():
    g = family("path:3")
    cert = recognize_d_tree(g)
    order = cert.order
    assert validate_d_tree_certificate(g, cert)
    swapped = (order[1], order[0]) + order[2:]  # 1 first: two later neighbours
    for d, bad in [(cert.d + 1, order), (cert.d, ()), (cert.d, swapped),
                   (cert.d, (0, 1, 2, 2)), (cert.d, (0, 1, 2)),
                   (cert.d, (0, 1, 2, 3, 4)), (cert.d, (-1, 0, 1, 2)),
                   (-1, order)]:
        assert not validate_d_tree_certificate(g, DTreeCertificate(d, bad))
    assert not validate_d_tree_certificate(build_graph(0, []),
                                           DTreeCertificate(0, ()))


def _degree_peel_agrees(g):
    cert = recognize_d_tree(g)
    old = oracle.recognize_d_tree_by_degree_peel(g)
    assert (cert is None) == (old is None), g
    if cert is None:
        return False
    d, elimination = old
    assert cert.d == d, g
    assert cert.order[:g.n - d - 1] == elimination, g
    assert validate_d_tree_certificate(g, cert)
    return True


def test_recognize_d_tree_matches_the_degree_peel():
    graphs = [g for n in range(8) for g in enumerate_graphs(n)]
    graphs += [family(spec) for spec in dtree_family_specs(0)]
    rng = random.Random(12)
    for _ in range(300):
        d, steps = rng.randint(1, 5), rng.randint(0, 20)
        g = family(f"dtree:{d},{steps},{rng.randrange(1000)}")
        perm = list(range(g.n))
        rng.shuffle(perm)
        graphs.append(_relabelled(g, perm))
    found = sum(_degree_peel_agrees(h) for g in graphs for h in (g, complement(g)))
    assert found > 300 + len(dtree_family_specs(0))


def test_family_shapes():
    p = family("path:3")
    assert p.n == 4 and p.edge_count() == 3
    c = family("cycle:6")
    assert c.n == 6 and c.edge_count() == 6 and all(c.degree(v) == 2 for v in range(6))
    k = family("complete:5")
    assert k.edge_count() == 10
    e = family("edgeless:3")
    assert e.n == 3 and e.edge_count() == 0
    pc = family("pendant_cycle:2")
    assert pc.n == 6 and pc.edge_count() == 6 and pc.degree(5) == 1
    cc = family("capped_cycle:2")
    assert cc.n == 6 and cc.edge_count() == 7 and cc.degree(5) == 2
    assert cc.has_edge(0, 5) and cc.has_edge(1, 5) and cc.has_edge(0, 1)


def test_family_rejects_bad_specs():
    for spec in ["path", "cycle:2", "complete:0", "path:-1", "blob:3",
                 "pendant_cycle:0", "dtree:1,2", "path:x"]:
        with pytest.raises(ValueError):
            family(spec)


def test_random_d_tree_family_is_deterministic_and_recognized():
    a = family("dtree:2,4,7")
    b = family("dtree:2,4,7")
    assert a == b
    assert a.n == 3 + 4
    cert = recognize_d_tree(a)
    assert cert is not None and cert.d == 2
    other = family("dtree:2,4,8")
    assert recognize_d_tree(other).d == 2


def test_random_d_tree_matches_the_subset_scan():
    # the grid holds the benchmark's d-tree specs (d <= 3, seed 0, at most
    # 10 steps)
    specs = [(d, steps, seed) for d in range(1, 6) for steps in range(12)
             for seed in range(12)]
    specs += [tuple(int(x) for x in spec.split(":")[1].split(","))
              for spec in dtree_family_specs(0)]
    for d, steps, seed in specs:
        assert family(f"dtree:{d},{steps},{seed}") == \
            oracle.random_d_tree_by_subsets(d, steps, seed)


def test_random_d_tree_at_the_bitmask_cap_builds_quickly():
    def give_up(signum, frame):
        raise TimeoutError("dtree:30,33,0 took more than 10 s")

    old = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(10)
    try:
        g = family("dtree:30,33,0")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert g.n == 64
    assert recognize_d_tree(g).d == 30


def test_canonical_form_is_isomorphism_invariant():
    c5 = family("cycle:5")
    base = canonical_form(c5)
    for perm in itertools.permutations(range(5)):
        adj = [0] * 5
        for u, v in c5.edges():
            adj[perm[u]] |= 1 << perm[v]
            adj[perm[v]] |= 1 << perm[u]
        h = type(c5)(5, tuple(adj))
        assert canonical_form(h) == base
    assert canonical_form(_canonical(c5)[1]) == base


def _relabelled(g, perm):
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_canonical_form_is_the_least_string_over_all_relabellings():
    rng = random.Random(0)
    subjects = [(g, 3) for n in range(7) for g in enumerate_graphs(n)]
    cube = build_graph(8, [(u, u ^ b) for u in range(8) for b in (1, 2, 4)
                           if u < u ^ b])
    k44 = build_graph(8, [(i, j) for i in range(4) for j in range(4, 8)])
    subjects += [(family(spec), 1)
                 for spec in ("complete:8", "edgeless:8", "cycle:8")]
    subjects += [(cube, 1), (k44, 1)]
    for g, copies in subjects:
        value, least = oracle.canonical_form_by_permutations(g)
        for _ in range(copies):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = _relabelled(g, perm)
            assert canonical_form(h) == value
            assert _canonical(h)[1] == least


def test_enumeration_matches_the_networkx_graph_atlas():
    nx = pytest.importorskip("networkx")
    atlas = {}
    for h in nx.graph_atlas_g():
        index = {v: i for i, v in enumerate(h)}
        g = build_graph(len(index),
                        [(index[u], index[v]) for u, v in h.edges()])
        atlas.setdefault(g.n, []).append(canonical_form(g))
    assert sorted(atlas) == list(range(8))
    for n, forms in atlas.items():
        ours = [canonical_form(g) for g in enumerate_graphs(n)]
        assert len(forms) == len(ours)
        assert set(forms) == set(ours)


def test_import_does_not_load_numpy():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, edgeideals, edgeideals.cli; "
            "print('numpy' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert run.stdout.strip() == "False"


def test_enumeration_counts():
    assert [sum(1 for _ in enumerate_graphs(n)) for n in range(1, 8)] == \
        [1, 2, 4, 11, 34, 156, 1044]
    assert [sum(1 for _ in enumerate_graphs(n, connected_only=True))
            for n in range(1, 8)] == [1, 1, 2, 6, 21, 112, 853]


def test_enumeration_cap():
    with pytest.raises(ValueError):
        list(enumerate_graphs(9))


def test_enumeration_matches_the_full_scan_of_extensions():
    for n in range(8):
        assert _iso_classes(n) == oracle.iso_classes_by_full_scan(n), n


def test_enumeration_labels_only_maximum_degree_extensions(monkeypatch):
    # the full scan labels 1 + 2 + 8 + 32 + 176 + 1088 = 1,307 extensions
    levels = _iso_classes.cache_info().currsize
    _iso_classes.cache_clear()
    calls = []
    with monkeypatch.context() as m:
        m.setattr("edgeideals.graphs._canonical",
                  lambda g: calls.append(g) or _canonical(g))
        assert len(_iso_classes(6)) == 156
    assert len(calls) <= 500
    if levels:
        _iso_classes(levels - 1)


def test_enumerated_representatives_are_their_own_canonical_forms():
    for n in range(8):
        for g in enumerate_graphs(n):
            assert adjacency_string(g) == canonical_form(g), g


def test_enumeration_counts_at_the_canonical_cap_within_a_minute():
    def give_up(signum, frame):
        raise TimeoutError("enumerating 8-vertex graphs took more than 60 s")

    old = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(60)
    try:
        classes = list(enumerate_graphs(8))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    # OEIS A000088 and A001349
    assert len(classes) == 12346
    assert sum(map(is_connected, classes)) == 11117
