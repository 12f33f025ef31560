import random

import pytest

import _oracles as oracle
from edgeideals import (GF2, LinearQuotientCertificate, betti_from_certificate,
                        build_graph, complement, dual_ideal, edge_ideal,
                        enumerate_graphs, family, hochster_betti,
                        independence_complex, is_chordal,
                        linear_quotient_search, minimal_hitting_sets,
                        shellable, squarefree_ideal,
                        validate_linear_quotients, verify_dual_decomposition)
from edgeideals.bitsets import bits, mask_of
from edgeideals.harness import GraphWorkup
from edgeideals.ideals import _colon_sets


def test_squarefree_ideal_reduces_to_antichain():
    ideal = squarefree_ideal(3, [0b011, 0b001, 0b111])
    assert ideal.gens == (0b001,)
    assert squarefree_ideal(3, []).is_zero
    assert squarefree_ideal(3, [0]).is_unit
    with pytest.raises(ValueError):
        squarefree_ideal(2, [0b100])


def test_edge_ideal_frozen():
    assert edge_ideal(family("cycle:4")).gens == (3, 6, 9, 12)
    assert edge_ideal(family("edgeless:3")).is_zero


def test_edge_ideal_equals_the_antichain_build():
    # every class on 1-7 vertices and the 12-vertex graphs analyze is
    # benchmarked on, with their complements
    graphs = [g for n in range(1, 8) for g in enumerate_graphs(n, connected_only=False)]
    for spec in ("path:11", "cycle:12", "pendant_cycle:5", "capped_cycle:5",
                 "complete:12", "dtree:1,10,0", "dtree:2,9,0", "dtree:3,8,0"):
        graphs += [family(spec), complement(family(spec))]
    for g in graphs:
        pairs = ((1 << u) | (1 << v) for u, v in g.edges())
        assert edge_ideal(g) == squarefree_ideal(g.n, pairs), g.edges()


def test_minimal_hitting_sets_edge_cases():
    assert minimal_hitting_sets([]) == [0]
    assert minimal_hitting_sets([0b10, 0]) == []
    assert minimal_hitting_sets([0b011, 0b110]) == [0b010, 0b101]


def test_minimal_hitting_sets_match_the_antichain_oracle():
    # the edge and cover ideals of every class on 1-7 vertices, and seeded
    # random families on at most 10 variables, not antichains, with repeated
    # members, the empty family and empty members among them
    families = []
    for n in range(1, 8):
        for g in enumerate_graphs(n, connected_only=False):
            edge = edge_ideal(g)
            families += [(n, edge.gens), (n, dual_ideal(edge).gens)]
    rng = random.Random(32)
    for _ in range(3000):
        n = rng.randint(1, 10)
        members = [mask_of(rng.sample(range(n), rng.randint(1, min(n, 5))))
                   for _ in range(rng.randint(0, 12))]
        if members:
            members.append(0 if rng.randrange(20) == 0 else rng.choice(members))
        families.append((n, members))
    for n, sets in families:
        expect = oracle.hitting_sets_by_antichain(sets)
        assert minimal_hitting_sets(sets) == expect, sets
        assert dual_ideal(squarefree_ideal(n, sets)) == squarefree_ideal(n, expect), sets
    assert any(not sets for _, sets in families)
    assert any(0 in sets for _, sets in families)


def test_minimal_vertex_covers_match_bruteforce(graphs_through_5):
    for g in graphs_through_5:
        got = sorted(tuple(sorted(bits(m)))
                     for m in GraphWorkup(g, GF2).cover.gens)
        assert got == oracle.minimal_vertex_covers(g)


def test_covers_are_facet_complements(graphs_through_5):
    for g in graphs_through_5:
        facets = independence_complex(g).facets
        assert sorted(g.full & ~f for f in facets) == \
            sorted(dual_ideal(edge_ideal(g)).gens)


def test_dual_ideal_frozen():
    dual = dual_ideal(edge_ideal(family("cycle:4")))
    assert dual.gens == (0b0101, 0b1010)
    covers = dual_ideal(edge_ideal(family("pendant_cycle:1")))
    assert covers.gens == (3, 5, 14)


def test_dual_ideal_swaps_zero_and_unit():
    zero = squarefree_ideal(3, [])
    unit = squarefree_ideal(3, [0])
    assert dual_ideal(zero) == unit
    assert dual_ideal(unit) == zero


def test_dual_ideal_is_involution(graphs_through_5):
    for g in graphs_through_5:
        ideal = edge_ideal(g)
        assert dual_ideal(dual_ideal(ideal)) == ideal
    mixed = squarefree_ideal(5, [0b00111, 0b11001, 0b01010])
    assert dual_ideal(dual_ideal(mixed)) == mixed


def test_linear_quotient_search_frozen():
    ideal = squarefree_ideal(4, [0b0011, 0b0101, 0b1110])
    cert = linear_quotient_search(ideal)
    assert cert == LinearQuotientCertificate((0, 1, 2))
    assert _colon_sets([ideal.gens[i] for i in cert.order]) == [0, 0b0010, 0b0001]
    assert validate_linear_quotients(ideal, cert)


def test_linear_quotient_search_failure():
    two_disjoint = squarefree_ideal(4, [0b0101, 0b1010])
    assert linear_quotient_search(two_disjoint) is None


def test_linear_quotient_single_generator():
    ideal = squarefree_ideal(3, [0b101])
    cert = linear_quotient_search(ideal)
    assert cert.order == (0,) and _colon_sets([0b101]) == [0]


def test_linear_quotient_search_rejects_degenerate_ideals():
    with pytest.raises(ValueError):
        linear_quotient_search(squarefree_ideal(2, []))
    with pytest.raises(ValueError):
        linear_quotient_search(squarefree_ideal(2, [0]))


def test_linear_quotient_order_is_lex_first():
    path = edge_ideal(family("path:2"))
    cert = linear_quotient_search(path)
    assert cert.order == (0, 1)


def test_cover_ideal_certificates_are_degree_increasing():
    # the search places generators by degree, so shellings come by
    # decreasing dimension; the shelling tests in test_structure compare
    # it with backtracking that has no degree rule
    found = 0
    for n in range(1, 7):
        for g in enumerate_graphs(n, connected_only=False):
            if g.edge_count() == 0:
                continue
            cover = GraphWorkup(g, GF2).cover
            cert = linear_quotient_search(cover)
            if cert is None:
                continue
            found += 1
            degs = [cover.gens[i].bit_count() for i in cert.order]
            assert degs == sorted(degs), g
            assert validate_linear_quotients(cover, cert)
            dims = [f.bit_count() for f in shellable(independence_complex(g)).facets]
            assert dims == sorted(dims, reverse=True), g
    assert found > 100


def test_colon_sets_match_the_antichain_oracle():
    rng = random.Random(19)
    linear = nonlinear = 0
    for _ in range(2000):
        nvars = rng.randint(1, 6)
        seq = [rng.randrange(1 << nvars) for _ in range(rng.randint(1, 7))]
        got = _colon_sets(seq)
        assert got == oracle.colon_sets_by_antichain(seq), seq
        linear += got is not None
        nonlinear += got is None
    assert linear > 200 and nonlinear > 200


def test_linear_quotient_search_matches_the_permutation_oracle(graphs_through_5):
    rng = random.Random(29)
    ideals = []
    for _ in range(400):
        nvars = rng.randint(1, 6)
        ideals.append(squarefree_ideal(
            nvars, [rng.randrange(1, 1 << nvars) for _ in range(rng.randint(1, 7))]))
    for g in graphs_through_5:
        if g.edge_count():
            ideals += [edge_ideal(g), GraphWorkup(g, GF2).cover]
    found = missing = 0
    for ideal in ideals:
        if len(ideal.gens) > 7:
            continue
        cert = linear_quotient_search(ideal)
        expect = oracle.linear_quotient_order_by_permutations(ideal.gens)
        assert (None if cert is None else cert.order) == expect, ideal
        found += expect is not None
        missing += expect is None
    assert found > 300 and missing > 20


def test_edge_ideal_has_linear_quotients_iff_complement_is_chordal():
    # Froberg; Herzog, Hibi and Zheng. analyze relies on this instead of a
    # search that can take forever to prove that no order exists.
    for n in range(1, 7):
        for g in enumerate_graphs(n, connected_only=False):
            if g.edge_count() == 0:
                continue
            found = linear_quotient_search(edge_ideal(g))
            assert (found is not None) == (is_chordal(complement(g)) is not None), g

def test_validate_linear_quotients_rejects_tampering():
    ideal = squarefree_ideal(4, [0b0011, 0b0101, 0b1110])
    assert validate_linear_quotients(ideal, linear_quotient_search(ideal))
    decreasing = LinearQuotientCertificate((2, 1, 0))
    assert not validate_linear_quotients(ideal, decreasing)
    short = LinearQuotientCertificate((0, 1))
    assert not validate_linear_quotients(ideal, short)
    path = edge_ideal(family("path:3"))  # 01, 12, 23
    assert validate_linear_quotients(path, LinearQuotientCertificate((0, 1, 2)))
    assert not validate_linear_quotients(path, LinearQuotientCertificate((0, 2, 1)))


def test_betti_from_certificate_frozen():
    ideal = squarefree_ideal(4, [0b0011, 0b0101, 0b1110])
    table = betti_from_certificate(ideal, LinearQuotientCertificate((0, 1, 2)))
    assert table.entries == {(0, 0): 1, (1, 2): 2, (1, 3): 1, (2, 3): 1, (2, 4): 1}
    assert table.totals() == {0: 1, 1: 3, 2: 2}
    assert table.pd() == 2


def test_betti_from_certificate_needs_monotone_order():
    ideal = squarefree_ideal(4, [0b0011, 0b0101, 0b1110])
    for order in ((2, 1, 0), (0, 2, 1), (0, 1)):
        with pytest.raises(ValueError):
            betti_from_certificate(ideal, LinearQuotientCertificate(order))
    path = edge_ideal(family("path:3"))
    with pytest.raises(ValueError):
        betti_from_certificate(path, LinearQuotientCertificate((0, 2, 1)))


def test_certificate_betti_agrees_with_homology(connected_through_6):
    for g in connected_through_6:
        if g.n > 5:
            continue
        ideal = edge_ideal(g)
        if ideal.is_zero:
            continue
        cert = linear_quotient_search(ideal)
        if cert is None:
            continue
        from_cert = betti_from_certificate(ideal, cert)
        assert from_cert.entries == hochster_betti(ideal).entries


def test_certificate_betti_agrees_with_homology_on_mixed_degrees():
    # edge ideals have all generators in degree 2; cover ideals mix degrees
    checked = mixed = 0
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            if g.edge_count() == 0:
                continue
            cover = GraphWorkup(g, GF2).cover
            cert = linear_quotient_search(cover)
            if cert is None:
                continue
            degrees = [m.bit_count() for m in cover.gens]
            assert betti_from_certificate(cover, cert).entries == \
                hochster_betti(cover, GF2).entries
            checked += 1
            mixed += len(set(degrees)) > 1
    assert (checked, mixed) == (171, 117)


def test_dual_decomposition_identities_hold_everywhere(graphs_through_5):
    for g in graphs_through_5:
        if g.edge_count() == 0:
            continue
        for x in range(g.n):
            assert verify_dual_decomposition(g, x).ok


def test_dual_decomposition_frozen_cases():
    assert verify_dual_decomposition(family("complete:2"), 0).ok
    assert verify_dual_decomposition(family("path:3"), 1).ok
    report = verify_dual_decomposition(family("pendant_cycle:1"), 3)
    assert report.sum_identity and report.intersection_identity


def test_dual_decomposition_rejects_bad_input():
    with pytest.raises(ValueError):
        verify_dual_decomposition(family("edgeless:3"), 0)
    with pytest.raises(ValueError):
        verify_dual_decomposition(family("complete:2"), 5)
