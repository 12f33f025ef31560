import random
import signal
import sys
import tracemalloc
import types
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

import _oracles as oracle
from edgeideals import (GF2, GF3, Q, FieldChoice, build_graph, complement,
                        dual_ideal, edge_ideal, enumerate_graphs, family,
                        hochster_betti, independence_complex,
                        minimal_nonfaces, parse_field, reduced_homology_ranks,
                        simplicial_complex, squarefree_ideal)
from edgeideals import homology
from edgeideals.bitsets import bits, mask_of, submasks, vertex_masks
from edgeideals.limits import CapExceeded


def test_homology_of_standard_complexes():
    hollow_triangle = simplicial_complex(3, [0b011, 0b101, 0b110])
    assert reduced_homology_ranks(hollow_triangle) == {-1: 0, 0: 0, 1: 1}

    two_points = simplicial_complex(2, [0b01, 0b10])
    assert reduced_homology_ranks(two_points) == {-1: 0, 0: 1}

    empty = simplicial_complex(3, [0])
    assert reduced_homology_ranks(empty) == {-1: 1}

    void = simplicial_complex(3, [])
    assert reduced_homology_ranks(void) == {}

    full = simplicial_complex(3, [0b111])
    assert reduced_homology_ranks(full) == {-1: 0, 0: 0, 1: 0, 2: 0}

    sphere = simplicial_complex(4, [0b0111, 0b1011, 0b1101, 0b1110])
    assert reduced_homology_ranks(sphere) == {-1: 0, 0: 0, 1: 0, 2: 1}
    assert reduced_homology_ranks(sphere, Q) == {-1: 0, 0: 0, 1: 0, 2: 1}


# Six-vertex triangulation of the real projective plane: its first and
# second homology vanish over the rationals and over GF(3) but not over
# GF(2), which pins down both the field plumbing and the boundary signs.
_PROJECTIVE_PLANE = [(0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
                     (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5)]


def test_projective_plane_triangulation_is_well_formed():
    assert len(_PROJECTIVE_PLANE) == 10
    edge_use = {}
    for tri in _PROJECTIVE_PLANE:
        for e in combinations(tri, 2):
            edge_use[e] = edge_use.get(e, 0) + 1
    assert len(edge_use) == 15
    assert all(count == 2 for count in edge_use.values())
    # Euler characteristic 6 - 15 + 10 = 1
    assert 6 - len(edge_use) + len(_PROJECTIVE_PLANE) == 1


def test_projective_plane_homology_depends_on_characteristic():
    c = simplicial_complex(6, [mask_of(t) for t in _PROJECTIVE_PLANE])
    assert reduced_homology_ranks(c, GF2) == {-1: 0, 0: 0, 1: 1, 2: 1}
    assert reduced_homology_ranks(c, Q) == {-1: 0, 0: 0, 1: 0, 2: 0}
    assert reduced_homology_ranks(c, GF3) == {-1: 0, 0: 0, 1: 0, 2: 0}


def test_projective_plane_betti_table_depends_on_characteristic():
    ideal = minimal_nonfaces(
        simplicial_complex(6, [mask_of(t) for t in _PROJECTIVE_PLANE]))
    assert hochster_betti(ideal, GF2).triples() == [
        (0, 0, 1), (1, 3, 10), (2, 4, 15), (3, 5, 6), (3, 6, 1), (4, 6, 1)]
    for field in (GF3, Q):
        assert hochster_betti(ideal, field).triples() == [
            (0, 0, 1), (1, 3, 10), (2, 4, 15), (3, 5, 6)]


def test_euler_poincare(graphs_through_5):
    for g in graphs_through_5:
        c = independence_complex(g)
        # the empty face counts in dimension -1
        chi_faces = -sum((-1) ** f.bit_count() for f in c.faces())
        for field in (GF2, Q):
            ranks = reduced_homology_ranks(c, field)
            chi_ranks = sum((-1) ** d * r for d, r in ranks.items())
            assert chi_faces == chi_ranks


def test_hochster_frozen_tables():
    k2 = hochster_betti(edge_ideal(family("complete:2")))
    assert k2.entries == {(0, 0): 1, (1, 2): 1}
    assert k2.field_tag == "gf2"

    c4 = hochster_betti(edge_ideal(family("cycle:4")))
    assert c4.entries == {(0, 0): 1, (1, 2): 4, (2, 3): 4, (3, 4): 1}
    assert c4.totals() == {0: 1, 1: 4, 2: 4, 3: 1}
    assert (c4.reg(), c4.pd()) == (1, 3)

    c5 = hochster_betti(edge_ideal(family("cycle:5")))
    assert c5.totals() == {0: 1, 1: 5, 2: 5, 3: 1}
    assert (c5.reg(), c5.pd()) == (2, 3)

    zero = hochster_betti(squarefree_ideal(3, []))
    assert zero.entries == {(0, 0): 1}
    assert (zero.reg(), zero.pd()) == (0, 0)


def test_hochster_rejects_bad_input():
    with pytest.raises(ValueError):
        hochster_betti(squarefree_ideal(2, [0]))
    with pytest.raises(ValueError):
        hochster_betti(squarefree_ideal(13, [0b11]))


def test_complete_graph_betti_closed_form():
    for n in range(3, 7):
        table = hochster_betti(edge_ideal(family(f"complete:{n}")))
        expect = {(0, 0): 1}
        for i in range(1, n):
            expect[(i, i + 1)] = i * comb(n, i + 1)
        assert table.entries == expect


def test_cross_field_agreement(graphs_through_5):
    for g in graphs_through_5:
        ideal = edge_ideal(g)
        t2 = hochster_betti(ideal, GF2)
        t3 = hochster_betti(ideal, GF3)
        tq = hochster_betti(ideal, Q)
        assert t2.entries == t3.entries == tq.entries


def test_large_prime_field_matches_rationals():
    ideal = edge_ideal(family("cycle:5"))
    big = parse_field("gf1009")
    assert hochster_betti(ideal, big).entries == hochster_betti(ideal, Q).entries


def test_parse_field():
    assert parse_field("gf2") == GF2
    assert parse_field("GF3") == GF3
    assert parse_field(" q ") == Q
    assert parse_field("rationals") == Q
    assert parse_field("gf7").tag == "gf7"
    assert parse_field("gf2147483647").tag == "gf2147483647"
    # 2^61 - 1 is prime: refused by its size, before any trial division
    for bad in ("gf4", "gf1", "gf0", "gf-3", "z5", "gfx", "gf2147483659",
                "gf2305843009213693951", "gf+3", "gf\u0663", "gf1_009"):
        with pytest.raises(ValueError):
            parse_field(bad)


def test_field_choice_rejects_non_fields():
    assert FieldChoice(5).tag == "gf5"
    assert FieldChoice(2147483647).tag == "gf2147483647"
    for p in (4, 1, 0, -3, 3.0, "3", 2147483659, 2 ** 61 - 1):
        with pytest.raises(ValueError):
            FieldChoice(p)


def test_a_field_is_its_characteristic():
    # one value per field: GF(2) has no second spelling
    assert FieldChoice(2) == GF2 == parse_field("gf2")
    assert FieldChoice() == Q
    assert [f.kind for f in (GF2, GF3, FieldChoice(1009), Q)] == ["gf2", "gfp", "gfp", "q"]
    for f in (GF2, GF3, Q, FieldChoice(1009)):
        assert parse_field(f.tag) == f


def test_reg_pd_frozen():
    for spec, reg_pd in (("cycle:4", (1, 3)), ("complete:2", (1, 1)),
                         ("cycle:5", (2, 3)), ("path:3", (1, 2)),
                         ("edgeless:3", (0, 0))):
        table = hochster_betti(edge_ideal(family(spec)))
        assert (table.reg(), table.pd()) == reg_pd


def test_submasks_ascend_through_every_subset():
    assert list(submasks(0)) == [0]
    assert list(submasks(0b1011)) == [0b0000, 0b0001, 0b0010, 0b0011,
                                       0b1000, 0b1001, 0b1010, 0b1011]


def test_bits_lists_the_set_positions_in_ascending_order():
    # every mask below 2^13 crosses the edge of the 2^12 table; then 0,
    # seeded masks below 2^64 and one 4096-bit plane, past it
    for mask in range(1 << 13):
        assert list(bits(mask)) == oracle.bit_positions(mask), mask
    rng = random.Random(30)
    wide = [rng.getrandbits(rng.randint(13, 64)) for _ in range(2000)]
    plane = rng.getrandbits(4096) | 1 << 4095
    for mask in [0, (1 << 64) - 1, 1 << 63, *wide, plane]:
        assert list(bits(mask)) == oracle.bit_positions(mask), mask
    # a sequence, not a one-shot iterator
    for mask in (0b1011, 1 << 40 | 5, plane):
        got = bits(mask)
        assert list(got) == list(got) == oracle.bit_positions(mask)


def test_rule_tables_match_the_face_shift_oracle():
    # the zero ideal, the edge and cover ideals of every class on 1-7
    # vertices, and seeded antichains on at most 9 variables with
    # generators of one to four variables
    ideals = [squarefree_ideal(n, []) for n in range(6)]
    for n in range(1, 8):
        for g in enumerate_graphs(n, connected_only=False):
            ideals.append(edge_ideal(g))
            if g.edge_count():
                ideals.append(dual_ideal(ideals[-1]))
    rng = random.Random(30)
    for _ in range(3000):
        n = rng.randint(1, 9)
        ideals.append(squarefree_ideal(n, [
            mask_of(rng.sample(range(n), min(n, rng.choice((1, 2, 2, 3, 3, 4)))))
            for _ in range(rng.randint(1, 12))]))
    degrees = set()
    for ideal in ideals:
        expect = oracle.rule_tables_by_face_shifts(ideal.gens, ideal.nvars)
        assert homology._rule_tables(ideal.gens, ideal.nvars) == expect, ideal
        degrees.update(m.bit_count() for m in ideal.gens)
    assert {1, 3, 4} <= degrees


def test_hochster_matches_transversal_oracle():
    # every class on at most 6 vertices, connected or not; the cover ideal
    # of an edgeless graph is the unit ideal and has no Betti table
    for n in range(1, 7):
        for g in enumerate_graphs(n, connected_only=False):
            ideals = [edge_ideal(g)]
            if g.edge_count():
                ideals.append(dual_ideal(ideals[0]))
            for ideal in ideals:
                for field in (GF2, GF3, Q):
                    expect = oracle.hochster_betti_by_transversals(ideal, field)
                    got = hochster_betti(ideal, field)
                    assert got.entries == expect.entries, (g, ideal, field)
                    assert got.field_tag == expect.field_tag


def _restriction_homology(ideal, field=GF2):
    """(S, {d: rank}) for every S, ascending, whose restriction has nonzero
    reduced homology, read off the planes of the restriction pass; equal
    tables share one dict."""
    found = []
    for table, plane in homology._restriction_planes(ideal, field).items():
        ranks = dict(table)
        found += [(s, ranks) for s in bits(plane)]
    found.sort(key=lambda x: x[0])
    return found


def _nonzero_entries(pass_):
    out = {}
    for s, ranks in pass_:
        nonzero = {d: r for d, r in ranks.items() if r}
        if nonzero:
            out[s] = nonzero
    return out


def _random_ideals(count, seed):
    # mixed generator degrees, some of them 1, so that the fold rule is not
    # the graph condition
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 8)
        yield squarefree_ideal(n, [
            mask_of(rng.sample(range(n), min(n, rng.choice((1, 2, 2, 3, 3, 4)))))
            for _ in range(rng.randint(1, 10))])


def test_restriction_pass_matches_unreduced_oracle():
    rp2 = minimal_nonfaces(
        simplicial_complex(6, [mask_of(t) for t in _PROJECTIVE_PLANE]))
    ideals = [rp2, squarefree_ideal(7, rp2.gens), *_random_ideals(60, 5)]
    # the isolated-point corners: generators that are variables, which are
    # no points; complete graphs, where every S with two or more vertices
    # has one
    ideals += [squarefree_ideal(2, [0b01, 0b10]), squarefree_ideal(3, [0b001, 0b110])]
    ideals += [edge_ideal(family(f"complete:{n}")) for n in range(1, 9)]
    # the edge and the cover ideal of every class on 1-6 vertices, connected
    # or not; an edgeless graph's cover ideal is the unit ideal
    for n in range(1, 7):
        for g in enumerate_graphs(n, connected_only=False):
            ideals.append(edge_ideal(g))
            if g.edge_count():
                ideals.append(dual_ideal(edge_ideal(g)))
    for ideal in ideals:
        for field in (GF2, GF3, Q):
            expect = _nonzero_entries(
                oracle.restriction_homology_unreduced(ideal, field))
            got = _restriction_homology(ideal, field)
            assert dict(got) == expect, (ideal, field)
            assert [s for s, _ in got] == sorted(expect)
    # the 12-vertex graphs that analyze is benchmarked on
    for spec in ("path:11", "cycle:12", "pendant_cycle:5", "capped_cycle:5",
                 "complete:12", "dtree:1,10,0", "dtree:2,9,0", "dtree:3,8,0",
                 "co-dtree:1,10,0", "co-dtree:2,9,0", "co-dtree:3,8,0"):
        g = family(spec.removeprefix("co-"))
        ideal = edge_ideal(complement(g) if spec.startswith("co-") else g)
        expect = _nonzero_entries(oracle.restriction_homology_unreduced(ideal, GF2))
        assert dict(_restriction_homology(ideal, GF2)) == expect, spec


def test_isolated_point_rule_corner_cases():
    # (x0, x1): both vertices are generators, not points, so S = {0, 1}
    # restricts to {emptyset}; (x0, x1x2): 1 and 2 are isolated points
    # beside the generator x0
    assert _restriction_homology(squarefree_ideal(2, [0b01, 0b10])) == [
        (0b00, {-1: 1}), (0b01, {-1: 1}), (0b10, {-1: 1}), (0b11, {-1: 1})]
    assert dict(_restriction_homology(squarefree_ideal(3, [0b001, 0b110]))) == {
        0b000: {-1: 1}, 0b001: {-1: 1}, 0b110: {0: 1}, 0b111: {0: 1}}
    # Ind(K_n) is n points
    for n in range(1, 9):
        assert dict(_restriction_homology(edge_ideal(family(f"complete:{n}")))) == {
            0: {-1: 1}, **{s: {0: s.bit_count() - 1} for s in range(1 << n)
                           if s.bit_count() >= 2}}


_ANALYZE_SPECS = ("path:11", "cycle:12", "pendant_cycle:5", "capped_cycle:5",
                  "complete:12", "dtree:1,10,0", "dtree:2,9,0", "dtree:3,8,0",
                  "co-dtree:1,10,0", "co-dtree:2,9,0", "co-dtree:3,8,0")


def _fold(homology_pass):
    """The Betti table of a per-subset pass: rank r of Htilde_d on a size-j
    subset counts in beta_{j-1-d,j}."""
    entries = {}
    for s, ranks in homology_pass:
        j = s.bit_count()
        for d, r in ranks.items():
            entries[j - 1 - d, j] = entries.get((j - 1 - d, j), 0) + r
    return entries


def test_betti_tables_are_the_fold_of_the_per_subset_pass():
    # the popcounts of the planes against the size levels, on the 12-vertex
    # graphs analyze is benchmarked on, relabelled
    rng = random.Random(22)
    for spec in _ANALYZE_SPECS:
        g = _relabel(family(spec.removeprefix("co-")), rng)
        ideal = edge_ideal(complement(g) if spec.startswith("co-") else g)
        for field in (GF2, GF3, Q):
            table = hochster_betti(ideal, field)
            assert table.entries == _fold(_restriction_homology(ideal, field))
            assert table.field_tag == field.tag


def _relabel(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _pass_and_kernel_inputs(pass_, ideal, field, monkeypatch):
    """The pass as a list, the positions of its first use of each ranks dict,
    the face lists it handed the rank kernel, in order, and the subsets it
    listed with `_oracles.submasks`, which the subset-rule oracle calls only
    to list the faces of a kernel subset."""
    seen, listed = [], []
    kernel = homology._ranks_from_faces

    def recording(faces, f):
        seen.append(list(faces))
        return kernel(faces, f)

    def listing(s):
        listed.append(s)
        return submasks(s)

    monkeypatch.setattr(homology, "_ranks_from_faces", recording)
    monkeypatch.setattr(oracle, "submasks", listing)
    got = list(pass_(ideal, field))
    monkeypatch.setattr(homology, "_ranks_from_faces", kernel)
    monkeypatch.setattr(oracle, "submasks", submasks)
    first: dict[int, int] = {}
    return got, [first.setdefault(id(r), i) for i, (_, r) in enumerate(got)], seen, listed


def _two_variable_stars(ideal):
    """{v: N[v]} for the vertices v that lie in some generator and whose
    generators all have two variables."""
    stars = {}
    for v in range(ideal.nvars):
        mine = [m for m in ideal.gens if m >> v & 1]
        if mine and all(m.bit_count() == 2 for m in mine):
            stars[v] = mask_of(u for m in mine for u in range(ideal.nvars) if m >> u & 1)
    return stars


def _dual_faces(s, faces):
    """The Alexander dual in S of the complex with these faces inside S, as
    the sets F inside S with S - F not a face, ascending."""
    held = set(faces)
    return [f for f in submasks(s) if s ^ f not in held]


def _nerve_faces(ideal, s):
    """The faces of the nerve of the generators inside S, as masks of their
    positions among those generators, ascending: the T whose union is not S."""
    inside = [m for m in ideal.gens if m & s == m]
    out = []
    for t in range(1 << len(inside)):
        union = 0
        for i, m in enumerate(inside):
            if t >> i & 1:
                union |= m
        if union != s:
            out.append(t)
    return out


def _same_as_subset_rules(ideal, field, monkeypatch):
    """Check the pass against the subset-rule oracle: the same (S, ranks)
    list with the same dicts shared, and the oracle's kernel face lists
    reordered by (|S|, S), less those of the generators, which the sphere
    plane settles, and of the S that a vertex-star split settles: some v in
    S with a two-variable star where no degree has homology on both S - v
    and S - N[v]. For each nonempty S whose Alexander dual in S is the
    shorter list, the kernel sees that dual in place of the oracle's faces,
    and the oracle's list otherwise. Returns the number of kernel calls and
    the number of those that got a dual."""
    expect, expect_first, oracle_faces, subsets = _pass_and_kernel_inputs(
        oracle.restriction_homology_by_subset_rules, ideal, field, monkeypatch)
    got, first, faces, _ = _pass_and_kernel_inputs(
        _restriction_homology, ideal, field, monkeypatch)
    assert (got, first) == (expect, expect_first), (ideal, field)
    assert len(subsets) == len(oracle_faces)
    ranks = dict(expect)
    stars = _two_variable_stars(ideal)

    def split(s):
        return any(s >> v & 1 and not ranks.get(s ^ 1 << v, {}).keys()
                   & ranks.get(s & ~near, {}).keys() for v, near in stars.items())

    def kernel_input(s, faces):
        dual = _dual_faces(s, faces) if s else faces
        return dual if len(dual) < len(faces) else faces

    gens = set(ideal.gens)
    ordered = sorted(zip(subsets, oracle_faces), key=lambda x: (x[0].bit_count(), x[0]))
    inputs = [(f, kernel_input(s, f)) for s, f in ordered if not split(s) and s not in gens]
    assert faces == [x for _, x in inputs], (ideal, field)
    return len(faces), sum(f is not x for f, x in inputs)


def test_restriction_pass_matches_subset_rule_oracle(monkeypatch):
    # the same (S, ranks) list and the same dicts shared as the pass that
    # tests each subset in turn, and its kernel face lists less the split
    # ones and the generators, with the Alexander dual in place of the faces
    # where the dual is the shorter list
    calls = duals = 0
    for n in range(1, 8):
        for g in enumerate_graphs(n, connected_only=False):
            ideals = [edge_ideal(g)] + ([dual_ideal(edge_ideal(g))] if g.edge_count() else [])
            for ideal in ideals:
                for field in (GF2, GF3, Q) if n <= 6 else (GF2,):
                    got = _same_as_subset_rules(ideal, field, monkeypatch)
                    calls, duals = calls + got[0], duals + got[1]
    assert (calls, duals) == (5357, 2002)
    # the 12-vertex graphs analyze is benchmarked on, under three
    # relabellings; of their 45,056 restrictions the oracle's kernel sees
    # 548, and the split leaves only S = {} of each graph to the kernel
    rng = random.Random(20)
    for _ in range(3):
        calls = 0
        for spec in _ANALYZE_SPECS:
            g = _relabel(family(spec.removeprefix("co-")), rng)
            ideal = edge_ideal(complement(g) if spec.startswith("co-") else g)
            calls += _same_as_subset_rules(ideal, GF2, monkeypatch)[0]
        assert calls == 11
    # the edge and cover ideals of the relabelled 9- and 10-vertex d-trees
    # that Betti tables over GF(3) and Q are benchmarked on
    for n, fields in ((9, (GF3, Q)), (10, (GF3,))):
        for d in (1, 2, 3):
            edge = edge_ideal(_relabel(family(f"dtree:{d},{n - d - 1},0"), rng))
            for ideal in (edge, dual_ideal(edge)):
                for field in fields:
                    _same_as_subset_rules(ideal, field, monkeypatch)


def test_vertex_star_split_matches_subset_rule_oracle_on_random_graphs(monkeypatch):
    # seeded G(n, p) on 8-12 vertices, where most kernel subsets split
    rng = random.Random(23)
    for n in range(8, 13):
        for tenths in (3, 5, 7):
            g = build_graph(n, [e for e in combinations(range(n), 2)
                                if rng.randrange(10) < tenths])
            for field in (GF2, GF3, Q):
                _same_as_subset_rules(edge_ideal(g), field, monkeypatch)


def _antichains(masks):
    """Every antichain of the given sets, each as a list."""
    if not masks:
        yield []
        return
    m, rest = masks[0], masks[1:]
    yield from _antichains(rest)
    for a in _antichains([x for x in rest if x & m != m and x & m != x]):
        yield [m, *a]


def test_restriction_pass_corner_cases(monkeypatch):
    # the zero ideal: every nonempty S is a cone over the full simplex
    for n in range(4):
        assert _restriction_homology(squarefree_ideal(n, [])) == [(0, {-1: 1})]
    # every squarefree ideal on at most four variables, generators of any
    # degree: a generator on three or more variables, with u folding w off
    # S only while that generator is not inside S, is the longer fold branch
    for n in range(5):
        for gens in _antichains(list(range(1, 1 << n))):
            ideal = squarefree_ideal(n, gens)
            for field in (GF2, Q):
                _same_as_subset_rules(ideal, field, monkeypatch)
    # {0, 1} and {1, 2, 3} are faces, so the generator {0, 2, 3} stops 0
    # from folding 1 off S only when S holds it, as on S = {0, ..., 4}
    ideal = squarefree_ideal(5, [0b01101, 0b10010])
    _same_as_subset_rules(ideal, GF2, monkeypatch)
    assert dict(_restriction_homology(ideal)) == _nonzero_entries(
        oracle.restriction_homology_unreduced(ideal, GF2))
    # Ind(K_n) is n points, and only S = {} reaches the kernel
    for n in range(1, 13):
        got, _, kernel, _ = _pass_and_kernel_inputs(
            _restriction_homology, edge_ideal(family(f"complete:{n}")), GF2,
            monkeypatch)
        assert dict(got) == {0: {-1: 1}, **{s: {0: s.bit_count() - 1} for s in range(1 << n)
                                            if s.bit_count() >= 2}}
        assert kernel == [[0]]


def _non_cone_restrictions():
    """(ideal, S, the generators inside S, the faces inside S, ascending)
    for every nonempty S that is no cone, each vertex of S in a generator
    inside S: every ideal on at most four variables, seeded random ones on
    at most eight, and dense ones, where many generators lie inside S."""
    ideals = [squarefree_ideal(n, gens) for n in range(5)
              for gens in _antichains(list(range(1, 1 << n)))]
    ideals += [ideal for ideal in _random_ideals(120, 24) if not ideal.is_unit]
    ideals.append(minimal_nonfaces(
        simplicial_complex(6, [mask_of(t) for t in _PROJECTIVE_PLANE])))
    ideals += [edge_ideal(family(f"complete:{n}")) for n in (4, 5)]
    ideals += [dual_ideal(edge_ideal(family(spec))) for spec in ("cycle:6", "path:7")]
    for ideal in ideals:
        for s in range(1, 1 << ideal.nvars):
            inside = [m for m in ideal.gens if m & s == m]
            if mask_of(v for m in inside for v in range(ideal.nvars) if m >> v & 1) == s:
                faces = [f for f in range(s + 1) if f & s == f
                         and not any(m & f == m for m in inside)]
                yield ideal, s, inside, faces


def test_alexander_dual_has_the_restrictions_homology_in_dual_degrees():
    # rank Htilde_d(restriction to S) = rank Htilde_{|S|-d-3}(its Alexander
    # dual in S, the F inside S with S - F a non-face), both from the dense
    # oracle kernel, with more, as many and fewer generators inside S than
    # vertices, and with the dual the shorter and the longer list
    seen, shorter = set(), set()
    for ideal, s, inside, faces in _non_cone_restrictions():
        k, size = len(inside), s.bit_count()
        seen.add((k > size) - (k < size))
        held = set(faces)
        dual = [f for f in range(s + 1) if f & s == f and s ^ f not in held]
        assert len(faces) + len(dual) == 1 << size
        shorter.add(len(dual) < len(faces))
        for field in (GF2, GF3, _GF5, Q):
            expect = {d: r for d, r in oracle.ranks_from_faces(faces, field).items() if r}
            got = {size - 3 - e: r for e, r in oracle.ranks_from_faces(dual, field).items() if r}
            assert got == expect, (ideal, s, field)
    assert seen == {-1, 0, 1} and shorter == {False, True}


def test_generator_nerve_has_the_restrictions_homology_in_dual_degrees():
    # rank Htilde_d(restriction to S) = rank Htilde_{|S|-d-3}(nerve of the
    # generators inside S), both from the dense oracle kernel, with more,
    # as many and fewer generators inside S than vertices
    seen = set()
    for ideal, s, inside, faces in _non_cone_restrictions():
        k, size = len(inside), s.bit_count()
        seen.add((k > size) - (k < size))
        nerve = oracle.generator_nerve(ideal.gens, s)
        assert sorted(nerve) == _nerve_faces(ideal, s), (ideal, s)
        for field in (GF2, GF3, _GF5, Q):
            expect = {d: r for d, r in oracle.ranks_from_faces(faces, field).items() if r}
            got = {size - 3 - e: r for e, r in oracle.ranks_from_faces(nerve, field).items()
                   if r}
            assert got == expect, (ideal, s, field)
    assert seen == {-1, 0, 1}


def test_sphere_plane_holds_each_generator_that_no_rule_takes():
    # every generator m restricts to the boundary of the simplex on m: one
    # rank in degree |m| - 2, from the dense oracle and from the pass. The
    # kernel plane holds no generator; the point rule takes those of two
    # variables and the sphere plane all others
    ideals = [squarefree_ideal(n, gens) for n in range(5)
              for gens in _antichains(list(range(1, 1 << n)))]
    ideals += [ideal for ideal in _random_ideals(300, 32) if not ideal.is_unit]
    for n in range(1, 7):
        for g in enumerate_graphs(n, connected_only=False):
            if g.edge_count():
                ideals += [edge_ideal(g), dual_ideal(edge_ideal(g))]
    degrees = set()
    for ideal in ideals:
        kernel, point, _, sphere, _, _ = homology._rule_tables(ideal.gens, ideal.nvars)
        planes = homology._restriction_planes(ideal, GF2)
        for m in ideal.gens:
            size = m.bit_count()
            degrees.add(size)
            assert not kernel >> m & 1, (ideal, m)
            assert sphere >> m & 1 == (size != 2), (ideal, m)
            assert any(x >> m & 1 for x in point) == (size == 2), (ideal, m)
            assert [t for t, x in planes.items() if x >> m & 1] == [((size - 2, 1),)]
            # the faces inside m are its proper subsets
            boundary = [f for f in submasks(m) if f != m]
            for field in (GF2, Q):
                ranks = oracle.ranks_from_faces(boundary, field)
                assert {d: r for d, r in ranks.items() if r} == {size - 2: 1}
    assert degrees == {1, 2, 3, 4, 5}


def test_vertex_masks_hold_the_subsets_of_each_vertex():
    for n in range(13):
        masks = vertex_masks(n)
        assert len(masks) == n
        for v, x in enumerate(masks):
            assert x == sum(1 << s for s in range(1 << n) if s >> v & 1), (n, v)


def test_levels_hold_the_subsets_of_each_size():
    for n in range(13):
        levels = homology._levels(n)
        assert len(levels) == n + 1
        for k, x in enumerate(levels):
            assert x == sum(1 << s for s in range(1 << n) if s.bit_count() == k), (n, k)


def test_restriction_pass_refuses_13_variables_before_any_table(monkeypatch):
    def no_tables(n):
        raise AssertionError("a table was built past the cap")

    monkeypatch.setattr(homology, "vertex_masks", no_tables)
    monkeypatch.setattr(homology, "_levels", no_tables)
    with pytest.raises(CapExceeded):
        _restriction_homology(squarefree_ideal(13, [0b11]))
    with pytest.raises(CapExceeded):
        hochster_betti(edge_ideal(family("path:12")))


def test_restriction_pass_runs_the_rank_kernel_on_few_subsets(monkeypatch):
    calls = []
    kernel = homology._ranks_from_faces

    def counting(faces, field):
        calls.append(1)
        return kernel(faces, field)

    monkeypatch.setattr(homology, "_ranks_from_faces", counting)
    table = hochster_betti(edge_ideal(family("path:11")))
    assert table.reg() == 4
    # 4096 subsets; the cones, isolated points, folds and vertex-star
    # splits leave only S = {}, here and on these two, where the first three
    # rules already do: Ind(K_12) restricts to points, and the complement of
    # a tree restricts to forests, whose leaves fold off
    assert len(calls) == 1
    for g in (family("complete:12"), complement(family("dtree:1,10,0"))):
        calls.clear()
        hochster_betti(edge_ideal(g))
        assert len(calls) <= 1


def test_clearing_matches_full_elimination_where_it_fires(monkeypatch):
    # every face list that reaches the kernel for the cover ideals of the
    # 7-vertex classes over GF(2), and of the benchmark's 9- and 10-vertex
    # d-trees over GF(3) and Q, where clearing leaves out most rows; the
    # pass hands it short duals there, so the faces of every restriction
    # that no rule settles are also fed to it directly, by the subset-rule
    # oracle, up to 973 faces, among them the 937 of S = all 10 variables
    # of dtree:2,7,0
    seen, sizes = [], []
    kernel = homology._ranks_from_faces

    def compare(faces, field):
        ranks = kernel(faces, field)
        assert ranks == oracle.ranks_without_clearing(faces, field), (faces, field)
        assert ranks == oracle.ranks_from_faces(faces, field), (faces, field)
        seen.append(field)
        sizes.append(len(faces))
        return ranks

    monkeypatch.setattr(homology, "_ranks_from_faces", compare)
    for g in enumerate_graphs(7, connected_only=False):
        if g.edges():
            hochster_betti(dual_ideal(edge_ideal(g)), GF2)
    for n, fields in ((9, (GF3, Q)), (10, (GF3,))):
        for d in (1, 2, 3):
            cover = dual_ideal(edge_ideal(family(f"dtree:{d},{n - d - 1},0")))
            for field in fields:
                hochster_betti(cover, field)
    assert (seen.count(GF2), seen.count(GF3), seen.count(Q)) == (2555, 12, 6)
    sizes.clear()
    for n, fields in ((9, (GF3, Q)), (10, (GF3,))):
        for d in (1, 2, 3):
            cover = dual_ideal(edge_ideal(family(f"dtree:{d},{n - d - 1},0")))
            for field in fields:
                list(oracle.restriction_homology_by_subset_rules(cover, field))
    assert len(sizes) == 112 and max(sizes) == 973 and 937 in sizes
    assert sum(size >= 246 for size in sizes) >= 14


def test_clearing_cuts_the_rows_of_the_sparse_kernel(monkeypatch):
    # full elimination hands 63 rows to the sparse loop here, on the three
    # lists the pass hands the kernel, 21 of them the rows of faces with at
    # least 3 vertices (2,857 and 2,481 on the faces of the 13 restrictions
    # that the subset-rule oracle hands it); a face's row has one entry per
    # vertex
    rows = []
    kernel = homology._rank_sparse

    def counting(r, p):
        rows.extend(map(len, r))
        return kernel(r, p)

    monkeypatch.setattr(homology, "_rank_sparse", counting)
    table = hochster_betti(dual_ideal(edge_ideal(family("dtree:3,6,0"))), GF3)
    # Terai: pd of the cover ideal is reg(R/I(G)) + 1 = 2 + 1
    assert table.pd() == 3
    assert sum(k >= 3 for k in rows) == 17
    assert len(rows) == 34


def test_alexander_duals_cut_the_faces_of_the_cover_kernel(monkeypatch):
    # the faces handed to the rank kernel over GF(3) for three 12-variable
    # cover ideals: 3,237, 14,175 and 7,714 when each restriction that no
    # rule settles lists its own faces; every such subset of path:11's cover
    # but S = {} is a generator, which the sphere plane settles, and S = {}
    # lists {emptyset}
    sizes = []
    kernel = homology._ranks_from_faces

    def counting(faces, field):
        sizes.append(len(faces))
        return kernel(faces, field)

    monkeypatch.setattr(homology, "_ranks_from_faces", counting)
    for spec, (reg, pd), calls, total in (("path:11", (7, 5), 1, 1),
                                          ("dtree:2,9,0", (9, 4), 6, 270),
                                          ("cycle:12", (7, 5), 2, 323)):
        sizes.clear()
        table = hochster_betti(dual_ideal(edge_ideal(family(spec))), GF3)
        assert (table.reg(), table.pd()) == (reg, pd), spec
        assert len(sizes) == calls and sum(sizes) == total, (spec, sizes)


def test_gf2_kernel_matches_dense_oracle_on_the_largest_cover_inputs(monkeypatch):
    # every face list the rank kernel gets for two 12-variable cover ideals
    # over GF(2), from the pass and from the subset-rule oracle, each
    # against the dense xor oracle; the largest are S = all 12 variables,
    # whose dual the pass lists and whose faces the oracle lists
    seen = []
    kernel = homology._ranks_from_faces

    def recording(faces, field):
        seen.append(list(faces))
        return kernel(faces, field)

    monkeypatch.setattr(homology, "_ranks_from_faces", recording)
    for spec, largest, direct in (("cycle:12", 322, 3774), ("dtree:2,9,0", 198, 3898)):
        cover = dual_ideal(edge_ideal(family(spec)))
        seen.clear()
        hochster_betti(cover, GF2)
        assert max(map(len, seen)) == largest, spec
        listed = seen[:]
        seen.clear()
        list(oracle.restriction_homology_by_subset_rules(cover, GF2))
        assert max(map(len, seen)) == direct, spec
        for faces in listed + seen:
            assert kernel(faces, GF2) == oracle.ranks_from_faces(faces, GF2), (spec, faces)


_GF5 = FieldChoice(5)
_GF1009 = FieldChoice(1009)


def _stanley_reisner_faces(ideal):
    return [f for f in range(1 << ideal.nvars)
            if not any(m & f == m for m in ideal.gens)]


def _kernel_inputs():
    rp2 = minimal_nonfaces(
        simplicial_complex(6, [mask_of(t) for t in _PROJECTIVE_PLANE]))
    for ideal in (rp2, squarefree_ideal(7, rp2.gens), *_random_ideals(60, 5)):
        if not ideal.is_unit:
            yield _stanley_reisner_faces(ideal)
    # complexes whose edges and vertices carry the homology: {emptyset},
    # isolated vertices, two disjoint edges, a path and an isolated vertex,
    # and two disjoint triangles, hollow and filled
    hollow = [mask_of(e) for e in combinations(range(3), 2)]
    for n, facets in ((3, [0]), (3, [0b001, 0b010, 0b100]), (4, [0b0011, 0b1100]),
                      (4, [0b0011, 0b0110, 0b1000]), (6, hollow + [e << 3 for e in hollow]),
                      (6, [0b000111, 0b111000])):
        yield simplicial_complex(n, facets).faces()


def test_sparse_kernel_matches_dense_oracle():
    # GF(2) runs the same sparse loop as the other fields, with every sign
    # 1; integer matrices with entries other than +-1 are driven by the
    # test below
    for faces in _kernel_inputs():
        for field in (GF3, _GF5, _GF1009, Q, GF2):
            assert (homology._ranks_from_faces(faces, field)
                    == oracle.ranks_from_faces(faces, field)), (faces, field)


def test_sparse_rank_matches_dense_oracle_on_integer_matrices():
    # entries other than +-1 reach the loop's Fraction pivots over Q. The
    # rows restricted to the pivot columns keep the full rank: clearing
    # relies on the pivot rows spanning every chain on those columns
    rng = random.Random(11)
    for _ in range(400):
        ncols = rng.randint(1, 8)
        dense = [[rng.choice((0, 0, 0, 1, -1, 2, -2, 3)) for _ in range(ncols)]
                 for _ in range(rng.randint(1, 8))]
        for p in (None, 2, 3, 5):
            reduced = [[x % p if p else x for x in row] for row in dense]
            expect = (oracle.rank_gfp(reduced, p) if p
                      else oracle.rank_bareiss(reduced))
            rows = [{c: x for c, x in enumerate(row) if x} for row in reduced]
            had = {c for row in rows for c in row}
            cols = homology._rank_sparse(rows, p)
            assert len(cols) == expect, (dense, p)
            assert len(set(cols)) == len(cols) and had.issuperset(cols), (dense, p)
            on_cols = [[row[c] for c in cols] for row in reduced]
            assert (oracle.rank_gfp(on_cols, p) if p
                    else oracle.rank_bareiss(on_cols)) == len(cols), (dense, p)


def test_rational_kernel_takes_a_fraction_pivot_only_on_a_residual(monkeypatch):
    # the kernel imports Fraction when it first needs a non-unit pivot, so a
    # stand-in fractions module counts those pivots
    pivots = []

    def counting(*args):
        pivots.append(args)
        return Fraction(*args)

    monkeypatch.setitem(sys.modules, "fractions",
                        types.SimpleNamespace(Fraction=counting))
    rp2 = simplicial_complex(6, [mask_of(t) for t in _PROJECTIVE_PLANE])
    # H_1(RP^2; Z) = Z/2: the boundary of the triangles has an invariant
    # factor 2, which no sequence of unit pivots can clear
    assert reduced_homology_ranks(rp2, Q) == {-1: 0, 0: 0, 1: 0, 2: 0}
    assert pivots and all(x not in (1, -1) for _, x in pivots)
    pivots.clear()
    for faces in _kernel_inputs():
        for field in (GF3, _GF5, _GF1009):
            homology._ranks_from_faces(faces, field)
    assert pivots == []
    # the first kernel input is that RP^2; every other one, and the Q
    # inputs of the betti-fields benchmark (edge and cover ideals of the
    # 9-vertex d-trees) and the cover of cycle:12, reduce each row to a
    # lowest entry +-1
    for faces in list(_kernel_inputs())[1:]:
        homology._ranks_from_faces(faces, Q)
    assert pivots == []
    for d in (1, 2, 3):
        edge = edge_ideal(family(f"dtree:{d},{9 - d - 1},0"))
        hochster_betti(edge, Q)
        hochster_betti(dual_ideal(edge), Q)
    hochster_betti(dual_ideal(edge_ideal(family("cycle:12"))), Q)
    assert pivots == []


def test_twelve_variable_cover_ideals_within_budget():
    # spec -> (reg, pd) of the cover ideal's quotient, reg of the edge
    # ideal's; the same over every field here
    frozen = {"cycle:12": ((7, 5), 4), "dtree:2,9,0": ((9, 4), 3)}

    def give_up(signum, frame):
        raise TimeoutError("12-variable cover ideals took more than 10 s")

    previous = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(10)
    try:
        tables = {}
        for spec in frozen:
            edge = edge_ideal(family(spec))
            cover = dual_ideal(edge)
            for field in (GF2, GF3, Q):
                tables[spec, field.tag] = (hochster_betti(cover, field),
                                           hochster_betti(edge, field))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    for (spec, tag), (cover, edge) in tables.items():
        (reg, pd), edge_reg = frozen[spec]
        assert (cover.reg(), cover.pd()) == (reg, pd), (spec, tag)
        assert edge.reg() == edge_reg, (spec, tag)
        # Terai: pd of the cover ideal is reg(R/I) + 1
        assert cover.pd() == edge.reg() + 1, (spec, tag)


def test_homology_on_high_ground_elements_within_budget():
    # Ind(C_20), 15,127 faces, on the ground elements 4..23 of the 24 the
    # homology cap allows: a sphere of dimension 6 (Kozlov), over any field.
    # A boundary row sized by its faces' masks would be 2^23 bits wide here
    ind = independence_complex(family("cycle:20"))
    c = simplicial_complex(24, [f << 4 for f in ind.facets])

    def give_up(signum, frame):
        raise TimeoutError("homology of Ind(C_20) took more than 20 s")

    previous = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(20)
    try:
        for field in (GF2, GF3, Q):
            tracemalloc.start()
            try:
                ranks = reduced_homology_ranks(c, field)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert {d: r for d, r in ranks.items() if r} == {6: 1}, field.tag
            assert peak < 32_000_000, (field.tag, peak)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _subdivide(triangles, edge, v):
    """Put the new vertex v on the edge {a, b}: each triangle {a, b, c}
    splits into {a, v, c} and {v, b, c}."""
    a, b = edge
    out = []
    for t in triangles:
        if a in t and b in t:
            (c,) = set(t) - {a, b}
            out += [tuple(sorted((a, v, c))), tuple(sorted((v, b, c)))]
        else:
            out.append(t)
    return out


def test_twelve_vertex_edge_ideal_betti_table_depends_on_characteristic():
    triangles = _PROJECTIVE_PLANE
    for v, edge in enumerate([(0, 1), (0, 2), (0, 3), (2, 4), (2, 3), (3, 5)], 6):
        triangles = _subdivide(triangles, edge, v)
    assert len(triangles) == 22
    skeleton = build_graph(12, {e for t in triangles for e in combinations(t, 2)})
    g = complement(skeleton)
    assert g.edge_count() == 33
    # flag: the triangulation is the clique complex of its 1-skeleton, so
    # it is the independence complex of g
    assert sorted(independence_complex(g).facets) == sorted(mask_of(t) for t in triangles)
    ideal = edge_ideal(g)
    two = hochster_betti(ideal, GF2)
    assert (two.reg(), two.pd()) == (3, 10)
    assert two.entries[(9, 12)] == two.entries[(10, 12)] == 1
    for field in (GF3, Q):
        table = hochster_betti(ideal, field)
        assert (table.reg(), table.pd()) == (2, 9)
        # the extra GF(2) entries are the top homology of the whole plane
        assert table.entries == {k: b for k, b in two.entries.items()
                                 if k not in ((9, 12), (10, 12))}
