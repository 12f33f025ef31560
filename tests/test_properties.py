"""Cross-cutting identities checked over the full small-graph enumeration,
plus randomized spot checks. The property_* helpers are plain functions so
the acceptance suite can re-run them on its own corpus.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as oracle
from edgeideals import (GF2, alexander_dual, build_graph, canonical_form,
                        complement, complex_from_ideal, dual_ideal,
                        edge_ideal, hochster_betti, independence_complex,
                        induced_matching_number, linear_quotient_search,
                        matching_number, minimal_nonfaces, path_packing_number,
                        recognize_d_tree, reduced_homology_ranks, shellable,
                        simplicial_complex, squarefree_ideal,
                        validate_d_tree_certificate,
                        validate_linear_quotients, validate_shelling,
                        validate_vertex_decomposition, vertex_decomposable,
                        whisker, whisker_number)
from edgeideals.bitsets import bits, mask_of


def property_certificate_replays(graphs):
    for g in graphs:
        vd = vertex_decomposable(g)
        if vd is not None:
            assert validate_vertex_decomposition(g, vd)
        c = independence_complex(g)
        sh = shellable(c)
        if sh is not None:
            assert validate_shelling(c, sh)
        for h in (g, complement(g)):
            dt = recognize_d_tree(h)
            if dt is not None:
                assert validate_d_tree_certificate(h, dt)
        for ideal in (edge_ideal(g), dual_ideal(edge_ideal(g))):
            if ideal.is_zero or ideal.is_unit:
                continue
            cert = linear_quotient_search(ideal)
            if cert is not None:
                assert validate_linear_quotients(ideal, cert)


def property_dual_involutions(graphs):
    for g in graphs:
        ideal = edge_ideal(g)
        assert dual_ideal(dual_ideal(ideal)) == ideal
        c = independence_complex(g)
        assert alexander_dual(alexander_dual(c)) == c
        assert sorted(dual_ideal(ideal).gens) == sorted(g.full & ~f for f in c.facets)


def property_round_trips(graphs):
    for g in graphs:
        c = independence_complex(g)
        ideal = minimal_nonfaces(c)
        assert ideal == edge_ideal(g)
        assert complex_from_ideal(ideal) == c
        assert minimal_nonfaces(complex_from_ideal(ideal)) == ideal


def property_invariant_chain(graphs):
    for g in graphs:
        im = induced_matching_number(g)[0]
        pp = path_packing_number(g)[0]
        mt = matching_number(g)[0]
        assert im <= pp <= mt
        assert whisker_number(g)[0] <= g.n // 2


def property_euler_poincare_restrictions(graphs):
    for g in graphs:
        for sub in range(1 << g.n):
            h, _ = oracle.induced_subgraph(g, sub)
            c = independence_complex(h)
            # the empty face counts in dimension -1
            chi_faces = -sum((-1) ** f.bit_count() for f in c.faces())
            chi_ranks = sum((-1) ** d * r
                            for d, r in reduced_homology_ranks(c).items())
            assert chi_faces == chi_ranks


def test_certificate_replays(connected_through_6):
    property_certificate_replays(connected_through_6)


def test_dual_involutions(connected_through_6):
    property_dual_involutions(connected_through_6)


def test_round_trips(connected_through_6):
    property_round_trips(connected_through_6)


def test_invariant_chain(connected_through_6):
    property_invariant_chain(connected_through_6)


def test_euler_poincare_restrictions(connected_through_6):
    property_euler_poincare_restrictions(connected_through_6)


def test_regularity_bounds_share_one_table(connected_through_6):
    from edgeideals import is_chordal

    for g in connected_through_6:
        table = hochster_betti(edge_ideal(g))
        reg = table.reg()
        assert induced_matching_number(g)[0] <= reg
        assert reg <= matching_number(g)[0]
        complement_chordal = is_chordal(complement(g)) is not None
        assert (reg <= 1) == complement_chordal


def test_vertex_decomposable_implies_shellable(connected_through_6):
    for g in connected_through_6:
        if vertex_decomposable(g) is not None:
            assert shellable(independence_complex(g)) is not None


@st.composite
def random_graphs(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    return build_graph(n, [pairs[i] for i in range(len(pairs))
                           if mask >> i & 1])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(random_graphs())
def test_complement_involution_random(g):
    back = complement(complement(g))
    assert back == g
    complement(g).validate()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(random_graphs(max_n=6), st.randoms(use_true_random=False))
def test_canonical_form_permutation_invariant_random(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    adj = [0] * g.n
    for u, v in g.edges():
        adj[perm[u]] |= 1 << perm[v]
        adj[perm[v]] |= 1 << perm[u]
    h = type(g)(g.n, tuple(adj))
    assert canonical_form(h) == canonical_form(g)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(random_graphs(max_n=6), st.integers(0, 63))
def test_whisker_random(g, raw_mask):
    sub = raw_mask & g.full
    w = whisker(g, sub)
    w.validate()
    assert w.n == g.n + sub.bit_count()
    assert w.edge_count() == g.edge_count() + sub.bit_count()
    for i, v in enumerate(bits(sub)):
        assert w.degree(g.n + i) == 1
        assert w.has_edge(v, g.n + i)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(random_graphs(max_n=7), st.integers(0, 127))
def test_induced_subgraph_random(g, raw_mask):
    sub = raw_mask & g.full
    h, labels = oracle.induced_subgraph(g, sub)
    assert h.n == sub.bit_count()
    expect = {(u, v) for u, v in g.edges() if sub >> u & 1 and sub >> v & 1}
    assert {(labels[u], labels[v]) for u, v in h.edges()} == expect


@st.composite
def random_ideals(draw):
    nvars = draw(st.integers(1, 6))
    gens = draw(st.lists(st.integers(1, (1 << nvars) - 1),
                         min_size=1, max_size=5))
    return squarefree_ideal(nvars, gens)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(random_ideals())
def test_dual_ideal_involution_random(ideal):
    assert dual_ideal(dual_ideal(ideal)) == ideal


@st.composite
def random_complexes(draw):
    ground = draw(st.integers(1, 6))
    faces = draw(st.lists(st.integers(0, (1 << ground) - 1),
                          min_size=1, max_size=5))
    return simplicial_complex(ground, faces)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(random_complexes())
def test_dictionary_round_trip_random(c):
    assert complex_from_ideal(minimal_nonfaces(c)) == c
    assert alexander_dual(alexander_dual(c)) == c
