import pytest

import _oracles as oracle
from edgeideals import (LinearQuotientCertificate, betti_from_certificate,
                        build_graph, complement, dual_ideal, edge_ideal,
                        enumerate_graphs, family, hochster_betti,
                        ideal_table_to_quotient, independence_complex,
                        is_chordal, linear_quotient_search,
                        minimal_hitting_sets, minimal_vertex_covers,
                        squarefree_ideal, validate_linear_quotients,
                        verify_dual_decomposition)
from edgeideals.bitsets import bits


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


def test_minimal_hitting_sets_edge_cases():
    assert minimal_hitting_sets([]) == [0]
    assert minimal_hitting_sets([0b10, 0]) == []
    assert minimal_hitting_sets([0b011, 0b110]) == [0b010, 0b101]


def test_minimal_vertex_covers_match_bruteforce(graphs_through_5):
    for g in graphs_through_5:
        got = sorted(tuple(sorted(bits(m))) for m in minimal_vertex_covers(g))
        assert got == oracle.minimal_vertex_covers(g)


def test_covers_are_facet_complements(graphs_through_5):
    for g in graphs_through_5:
        facets = independence_complex(g).effective_facets()
        assert sorted(g.full & ~f for f in facets) == \
            sorted(minimal_vertex_covers(g))


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
    cert = linear_quotient_search(ideal, degree_monotone=True)
    assert cert is not None
    assert cert.order == (0, 1, 2)
    assert cert.sets == (0, 0b0010, 0b0001)
    assert cert.degree_monotone
    assert validate_linear_quotients(ideal, cert)


def test_linear_quotient_search_failure():
    two_disjoint = squarefree_ideal(4, [0b0101, 0b1010])
    assert linear_quotient_search(two_disjoint) is None


def test_linear_quotient_single_generator():
    ideal = squarefree_ideal(3, [0b101])
    cert = linear_quotient_search(ideal)
    assert cert.order == (0,) and cert.sets == (0,)


def test_linear_quotient_search_rejects_degenerate_ideals():
    with pytest.raises(ValueError):
        linear_quotient_search(squarefree_ideal(2, []))
    with pytest.raises(ValueError):
        linear_quotient_search(squarefree_ideal(2, [0]))


def test_linear_quotient_order_is_lex_first():
    path = edge_ideal(family("path:2"))
    cert = linear_quotient_search(path, degree_monotone=True)
    assert cert.order == (0, 1)


def test_monotone_implies_plain_linear_quotients(graphs_through_5):
    for g in graphs_through_5:
        ideal = dual_ideal(edge_ideal(g))
        if ideal.is_zero or ideal.is_unit:
            continue
        monotone = linear_quotient_search(ideal, degree_monotone=True)
        plain = linear_quotient_search(ideal)
        if monotone is not None:
            assert plain is not None
            assert validate_linear_quotients(ideal, monotone)
        if plain is not None:
            assert validate_linear_quotients(ideal, plain)



def test_edge_ideal_has_linear_quotients_iff_complement_is_chordal():
    # Froberg; Herzog, Hibi and Zheng. analyze relies on this instead of a
    # search that can take forever to prove that no order exists.
    for n in range(1, 7):
        for g in enumerate_graphs(n, connected_only=False):
            if g.edge_count() == 0:
                continue
            found = linear_quotient_search(edge_ideal(g), degree_monotone=True)
            assert (found is not None) == (is_chordal(complement(g)) is not None), g

def test_validate_linear_quotients_rejects_tampering():
    ideal = squarefree_ideal(4, [0b0011, 0b0101, 0b1110])
    cert = linear_quotient_search(ideal, degree_monotone=True)
    bad_sets = LinearQuotientCertificate(cert.order, (0, 0b0010, 0b0011),
                                         cert.degree_monotone)
    assert not validate_linear_quotients(ideal, bad_sets)
    bad_order = LinearQuotientCertificate((2, 1, 0), cert.sets, True)
    assert not validate_linear_quotients(ideal, bad_order)
    short = LinearQuotientCertificate((0, 1), cert.sets[:2], True)
    assert not validate_linear_quotients(ideal, short)


def test_betti_from_certificate_frozen():
    cert = LinearQuotientCertificate((0, 1, 2), (0, 0b0010, 0b0001), True)
    table = betti_from_certificate(cert, [2, 2, 3])
    assert table.entries == {(0, 2): 2, (0, 3): 1, (1, 3): 1, (1, 4): 1}
    assert table.totals() == {0: 3, 1: 2}
    assert table.pd() == 1


def test_betti_from_certificate_needs_monotone_order():
    cert = LinearQuotientCertificate((0,), (0,), False)
    with pytest.raises(ValueError):
        betti_from_certificate(cert, [2])


def test_certificate_betti_agrees_with_homology(connected_through_6):
    for g in connected_through_6:
        if g.n > 5:
            continue
        ideal = edge_ideal(g)
        if ideal.is_zero:
            continue
        cert = linear_quotient_search(ideal, degree_monotone=True)
        if cert is None:
            continue
        degrees = [m.bit_count() for m in ideal.gens]
        from_cert = ideal_table_to_quotient(betti_from_certificate(cert, degrees))
        assert from_cert.entries == hochster_betti(ideal).entries


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
