import random

import pytest

import _oracles as oracle
from edgeideals import (GF2, ShellingCertificate, VDLeaf, VDNode, build_graph,
                        complement, enumerate_graphs, family, independence_complex,
                        reducing_vertex, root_shedding_vertex, shellable,
                        shelling_bruteforce, simplicial_complex,
                        validate_shelling, validate_vertex_decomposition,
                        vertex_decomposable)
from edgeideals import structure
from edgeideals.bitsets import bits


def test_shedding_vertex_on_path():
    p4 = family("path:3")
    assert structure._sheds(p4, p4.full, 1)
    assert not structure._sheds(p4, p4.full, 0)
    k2 = family("complete:2")
    assert structure._sheds(k2, k2.full, 0) and structure._sheds(k2, k2.full, 1)


def test_vertex_decomposable_frozen():
    cert = vertex_decomposable(family("path:3"))
    assert isinstance(cert, VDNode)
    assert root_shedding_vertex(cert) == 1

    assert vertex_decomposable(family("cycle:4")) is None
    assert vertex_decomposable(family("cycle:5")) is not None
    assert vertex_decomposable(family("capped_cycle:1")) is not None

    leaf = vertex_decomposable(family("edgeless:3"))
    assert leaf == VDLeaf()
    assert root_shedding_vertex(leaf) is None
    assert vertex_decomposable(build_graph(0, [])) == VDLeaf()


def test_shedding_matches_the_facet_set_test_on_induced_subgraphs():
    pairs = 0
    for n in range(1, 7):
        for g in enumerate_graphs(n, connected_only=False):
            for sub in range(1 << n):
                labels = tuple(bits(sub))
                for x in labels:
                    assert structure._sheds(g, sub, x) == \
                        oracle.sheds_by_facet_sets(g, labels, x), (g, labels, x)
                    pairs += 1
    assert pairs == 33081


def test_vertex_decomposable_matches_the_face_set_oracle():
    for n in range(1, 7):
        for g in enumerate_graphs(n, connected_only=False):
            faces = oracle.independence_faces(g)
            assert (vertex_decomposable(g) is not None) == \
                oracle.vertex_decomposable_by_faces(faces), g


def _relabelled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_the_skeleton_cut_fires_only_on_subsets_that_are_not_vd():
    cut = 0
    for n in range(1, 7):
        for g in enumerate_graphs(n, connected_only=False):
            faces = oracle.independence_faces(g)
            memo = {}
            for sub in range(1 << n):
                if structure._edges_connected(g, sub):
                    continue
                inside = set(bits(sub))
                restricted = frozenset(f for f in faces if f <= inside)
                assert not oracle.vertex_decomposable_by_faces(restricted, memo), \
                    (g, sub)
                cut += 1
    assert cut == 228


def test_the_skeleton_cut_keeps_every_certificate(monkeypatch):
    rng = random.Random(3)
    graphs = [g for n in range(1, 7)
              for g in enumerate_graphs(n, connected_only=False)]
    for _ in range(40):
        n = rng.randint(8, 10)
        p = rng.choice((0.2, 0.5, 0.8))
        graphs.append(build_graph(n, [(u, v) for u in range(n)
                                      for v in range(u + 1, n) if rng.random() < p]))
    graphs += [complement(_relabelled(family(f"dtree:{d},{9 - d},0"), seed))
               for d in (1, 2) for seed in range(4)]
    cut = [vertex_decomposable(g) for g in graphs]
    monkeypatch.setattr(structure, "_edges_connected", lambda g, sub: True)
    assert cut == [vertex_decomposable(g) for g in graphs]


def test_vertex_decomposition_of_relabelled_co_trees_sheds_few(monkeypatch):
    # without the skeleton cut these labellings asked from 16 to 2,689
    # shedding questions; with it, from 16 to 35
    calls = []
    sheds = structure._sheds
    monkeypatch.setattr(structure, "_sheds",
                        lambda g, sub, x: calls.append(x) or sheds(g, sub, x))
    tree = family("dtree:1,10,0")
    for seed in range(16):
        g = complement(_relabelled(tree, seed))
        calls.clear()
        cert = vertex_decomposable(g)
        assert cert is not None and validate_vertex_decomposition(g, cert)
        assert len(calls) <= 60, (seed, len(calls))


def test_vertex_decomposition_cap():
    with pytest.raises(ValueError):
        vertex_decomposable(build_graph(17, []))


def test_vertex_decomposition_replay(graphs_through_5):
    for g in graphs_through_5:
        cert = vertex_decomposable(g)
        if cert is not None:
            assert validate_vertex_decomposition(g, cert)


def test_vertex_decomposition_rejects_tampering():
    p4 = family("path:3")
    cert = vertex_decomposable(p4)
    wrong_vertex = VDNode(0, cert.deletion, cert.link)
    assert not validate_vertex_decomposition(p4, wrong_vertex)
    swapped = VDNode(cert.vertex, cert.link, cert.deletion)
    assert not validate_vertex_decomposition(p4, swapped)
    assert not validate_vertex_decomposition(p4, VDLeaf())


def test_shellable_frozen():
    p4 = independence_complex(family("path:3"))
    cert = shellable(p4)
    assert cert is not None
    assert validate_shelling(p4, cert)

    c4 = independence_complex(family("cycle:4"))
    assert shellable(c4) is None
    assert shelling_bruteforce(c4) is None

    hollow = simplicial_complex(3, [0b011, 0b101, 0b110])
    cert = shellable(hollow)
    assert cert is not None and validate_shelling(hollow, cert)


def test_single_facet_complexes_are_shellable():
    point = independence_complex(build_graph(1, []))
    assert shellable(point) == ShellingCertificate((1,))
    empty = simplicial_complex(2, [0])
    assert shellable(empty) == ShellingCertificate((0,))


def test_shelling_validation_rejects_bad_orders():
    c4 = independence_complex(family("cycle:4"))
    assert not validate_shelling(c4, ShellingCertificate((0b0101, 0b1010)))
    assert not validate_shelling(c4, ShellingCertificate((0b0101,)))
    p4 = independence_complex(family("path:3"))
    cert = shellable(p4)
    assert not validate_shelling(p4, ShellingCertificate(cert.facets[:-1]))


def test_shellable_agrees_with_bruteforce_on_graphs(graphs_through_5):
    for g in graphs_through_5:
        c = independence_complex(g)
        via_quotients = shellable(c)
        via_orders = shelling_bruteforce(c)
        assert (via_quotients is None) == (via_orders is None)
        if via_quotients is not None:
            assert validate_shelling(c, via_quotients)
            assert validate_shelling(c, via_orders)


def test_shellable_agrees_with_bruteforce_on_random_complexes():
    rng = random.Random(11)
    for _ in range(60):
        ground = rng.randint(2, 5)
        raw = [rng.randrange(1, 1 << ground) for _ in range(rng.randint(1, 5))]
        c = simplicial_complex(ground, raw)
        via_quotients = shellable(c)
        via_orders = shelling_bruteforce(c)
        assert (via_quotients is None) == (via_orders is None)
        if via_quotients is not None:
            assert validate_shelling(c, via_quotients)
            assert validate_shelling(c, via_orders)
        perms = oracle.shellable_by_permutation(
            [set(bits(f)) for f in c.facets])
        assert perms == (via_quotients is not None)


def test_shelling_caps():
    too_many = simplicial_complex(25, [1 << v for v in range(25)])
    with pytest.raises(ValueError):
        shellable(too_many)
    dozen_plus = simplicial_complex(13, [1 << v for v in range(13)])
    with pytest.raises(ValueError):
        shelling_bruteforce(dozen_plus)


def test_reducing_vertex_frozen():
    assert reducing_vertex(family("cycle:5")) == (0, 2, 1)
    assert reducing_vertex(family("complete:2")) == (0, 1, 0)
    with pytest.raises(ValueError):
        reducing_vertex(build_graph(13, []))


def test_reducing_vertex_matches_subgraph_oracle():
    graphs = [g for n in range(1, 7) for g in enumerate_graphs(n, connected_only=False)]
    graphs += enumerate_graphs(7, connected_only=True)
    # the 12-vertex graphs analyze is benchmarked on, relabelled
    for seed, spec in enumerate(("path:11", "cycle:12", "pendant_cycle:5", "capped_cycle:5",
                                 "complete:12", "dtree:1,10,0", "dtree:2,9,0", "dtree:3,8,0")):
        g = _relabelled(family(spec), seed)
        graphs += [g] + ([complement(g)] if spec.startswith("dtree") else [])
    for g in graphs:
        assert reducing_vertex(g) == oracle.reducing_vertex_by_subgraphs(g, GF2), g
