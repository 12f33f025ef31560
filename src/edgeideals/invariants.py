"""Combinatorial graph invariants: matchings, induced matchings, packings of
short paths, and the largest induced subgraph that occurs fully whiskered.

All searches are exhaustive branch-and-bound over compatibility masks and
return a witness alongside the size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .bitsets import bits, mask_of
from .graphs import Graph
from .limits import check


def _pair_induced(g: Graph, e: tuple[int, int], f: tuple[int, int]) -> bool:
    # f's endpoints avoid N(a) | N(b), which holds a and b since e is an
    # edge, so a shared endpoint fails the test too
    (a, b), (c, d) = e, f
    return not (g.adj[a] | g.adj[b]) & ((1 << c) | (1 << d))


@lru_cache(maxsize=1)
def _edge_tables(g: Graph) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...],
                                    tuple[int, ...], int]:
    """(edges, touch, near, used) of g: its edges in `Graph.edges` order;
    touch[v], the indices of the edges holding v, as a bitmask; near[v],
    the OR of touch[w] over w in N(v), the edges with an end in N(v); and
    used, the number of vertices on some edge. `compute_invariants` runs
    its four searches on one graph in turn, so one entry serves them all."""
    edges = tuple(g.edges())
    touch = [0] * g.n
    for i, (a, b) in enumerate(edges):
        touch[a] |= 1 << i
        touch[b] |= 1 << i
    near = []
    for v in range(g.n):
        x = 0
        for w in bits(g.adj[v]):
            x |= touch[w]
        near.append(x)
    return edges, tuple(touch), tuple(near), sum(1 for x in g.adj if x)


def _best_compatible(units: Sequence[tuple[int, ...]], rows: list[int], free: int,
                     two: int) -> list[tuple[int, ...]]:
    """Largest set of units that pairwise go with each other (a max clique
    in the compatibility graph), with the first such set in lexicographic
    exploration order as witness. Row i is the bitmask of the units j > i
    that go with unit i: the search only adds units after the last one it
    took, so the rows hold no earlier ones. Units have two or three
    vertices, units that go together are disjoint, two is the mask of the
    two-vertex units and free the number of vertices on some unit.

    The search takes units in ascending index, first with and then without
    each one. Two bounds cap how many more units a branch can add to the
    chosen ones: the number of candidates left, and, tested only when that
    count does not cut, free // smin. Here free counts the unit vertices no
    chosen unit uses, and smin is the smallest unit size among the
    candidates; they fit in the free vertices, since they are pairwise
    disjoint and miss every chosen unit. A branch is cut only when it
    cannot strictly beat the best set found, so the witness is the one the
    search bounded by the candidate count alone finds in the same order.
    """
    best = 0
    best_set: list[int] = []
    chosen: list[int] = []

    def expand(cand: int, free: int) -> None:
        nonlocal best, best_set
        k = len(chosen)
        while cand:
            room = best - k
            if cand.bit_count() <= room or (
                    free >> 1 if cand & two else free // 3) <= room:
                return
            b = cand & -cand
            v = b.bit_length() - 1
            cand ^= b
            # a unit that leaves no candidates ends its branch: compared here
            # rather than in a call of its own
            after = cand & rows[v]
            if after:
                chosen.append(v)
                expand(after, free - (2 if two & b else 3))
                chosen.pop()
            elif k >= best:
                best, best_set = k + 1, chosen + [v]

    expand((1 << len(units)) - 1, free)
    # expand refers to itself through its closure; dropping the name breaks
    # that cycle, so the search's state is freed now, not by the cyclic GC
    del expand
    return [units[i] for i in best_set]


def matching_number(g: Graph) -> tuple[int, list[tuple[int, int]]]:
    """Maximum set of pairwise vertex-disjoint edges, found exhaustively."""
    check("invariants", g.n)
    edges, touch, _, used = _edge_tables(g)
    every = (1 << len(edges)) - 1
    rows = [every & -(2 << i) & ~(touch[a] | touch[b]) for i, (a, b) in enumerate(edges)]
    best = _best_compatible(edges, rows, used, every)
    return len(best), best


def induced_matching_number(g: Graph) -> tuple[int, list[tuple[int, int]]]:
    """Maximum matching whose edges pairwise induce no extra edge."""
    check("invariants", g.n)
    # `_pair_induced` as masks: a later edge misses N(a) | N(b), which holds
    # a and b, so it is disjoint from ab too
    edges, _, near, used = _edge_tables(g)
    every = (1 << len(edges)) - 1
    rows = [every & -(2 << i) & ~(near[a] | near[b]) for i, (a, b) in enumerate(edges)]
    best = _best_compatible(edges, rows, used, every)
    return len(best), best


def path_packing_number(g: Graph, induced_paths: bool = False
                        ) -> tuple[int, list[tuple[int, ...]]]:
    """Maximum number of vertex-disjoint paths with one or two edges such
    that the single-edge paths pairwise induce no extra edge.

    Two-edge paths are walks u-v-w on three distinct vertices; by default
    u and w may be adjacent, with induced_paths=True they must not be.
    """
    check("invariants", g.n)
    edges, _, near, used = _edge_tables(g)
    m = len(edges)
    # the walks u-v-w with u < w, by centre v; a triangle is listed once,
    # at its lowest vertex
    paths: list[tuple[int, ...]] = []
    for v in range(g.n):
        nb = bits(g.adj[v])
        for a, u in enumerate(nb):
            for w in nb[a + 1:]:
                if g.adj[u] >> w & 1 and (induced_paths or u < v):
                    continue
                paths.append((u, v, w))
    # on[v]: the paths holding v, as unit indices after the m edges
    on = [0] * g.n
    for j, p in enumerate(paths, m):
        for x in p:
            on[x] |= 1 << j
    every = (1 << (m + len(paths))) - 1
    # an edge goes with the later edges missing N(a) | N(b) and the paths
    # missing a and b; a path with the later paths it is disjoint from
    rows = [every & -(2 << i) & ~(near[a] | near[b] | on[a] | on[b])
            for i, (a, b) in enumerate(edges)]
    rows += [every & -(2 << j) & ~(on[u] | on[v] | on[w])
             for j, (u, v, w) in enumerate(paths, m)]
    best = _best_compatible(list(edges) + paths, rows, used, (1 << m) - 1)
    return len(best), best


def whisker_number(g: Graph) -> tuple[int, list[tuple[int, int]]]:
    """Largest r such that g contains disjoint vertex sets A = {a_1..a_r},
    B = {b_1..b_r} where each b_i is adjacent to a_i and to nothing else in
    A union B: the induced subgraph on A then occurs in g together with a
    private pendant on every one of its vertices.

    Witness pairs are (a_i, b_i).
    """
    check("invariants", g.n)
    edges, _, _, used = _edge_tables(g)
    # units 2i = (a, b) and 2i + 1 = (b, a) for the edge i = ab; hold[v]:
    # the units holding v, second[v]: those whose second vertex is v
    units: list[tuple[int, int]] = []
    hold = [0] * g.n
    second = [0] * g.n
    for i, (a, b) in enumerate(edges):
        units += [(a, b), (b, a)]
        hold[a] |= 3 << 2 * i
        hold[b] |= 3 << 2 * i
        second[b] |= 1 << 2 * i
        second[a] |= 2 << 2 * i
    nhold = [0] * g.n
    nsecond = [0] * g.n
    for v in range(g.n):
        for w in bits(g.adj[v]):
            nhold[v] |= hold[w]
            nsecond[v] |= second[w]
    # (a2, b2) goes with (a1, b1) iff b1 sees neither a2 nor b2 (no vertex
    # in N(b1)) and b2 does not see a1 (b2 not in N(a1)); the pairs are
    # disjoint too, and hold[a1] lies in nhold[b1] since a1 is in N(b1)
    every = (1 << len(units)) - 1
    rows = [every & -(2 << k) & ~(hold[b] | nhold[b] | nsecond[a])
            for k, (a, b) in enumerate(units)]
    best = _best_compatible(units, rows, used, every)
    return len(best), best


def is_triangle_free(g: Graph) -> bool:
    return all(not g.adj[u] & g.adj[v] for u, v in g.edges())


def _in_range(g: Graph, groups, sizes: tuple[int, ...] = (2,)) -> bool:
    """Every group has one of the sizes and only vertices of g."""
    return all(len(group) in sizes and all(0 <= v < g.n for v in group)
               for group in groups)


def validate_matching_witness(g: Graph, edges: list[tuple[int, int]]) -> bool:
    if not _in_range(g, edges):
        return False
    used = 0
    for u, v in edges:
        m = mask_of((u, v))
        if m.bit_count() != 2 or not g.has_edge(u, v) or used & m:
            return False
        used |= m
    return True


def validate_induced_matching_witness(g: Graph, edges: list[tuple[int, int]]) -> bool:
    if not validate_matching_witness(g, edges):
        return False
    return all(_pair_induced(g, edges[i], edges[j])
               for i in range(len(edges)) for j in range(i + 1, len(edges)))


def validate_path_packing_witness(g: Graph, paths: list[tuple[int, ...]],
                                  induced_paths: bool = False) -> bool:
    if not _in_range(g, paths, (2, 3)):
        return False
    used = 0
    for p in paths:
        m = mask_of(p)
        if m.bit_count() != len(p) or used & m or not g.has_edge(p[0], p[1]):
            return False
        used |= m
        if len(p) == 3 and (not g.has_edge(p[1], p[2])
                            or induced_paths and g.has_edge(p[0], p[2])):
            return False
    singles = [p for p in paths if len(p) == 2]
    return all(_pair_induced(g, singles[i], singles[j])
               for i in range(len(singles)) for j in range(i + 1, len(singles)))


def validate_whisker_witness(g: Graph, pairs: list[tuple[int, int]]) -> bool:
    if not _in_range(g, pairs):
        return False
    a_mask = mask_of(a for a, _ in pairs)
    b_list = [b for _, b in pairs]
    if a_mask.bit_count() != len(pairs) or len(set(b_list)) != len(pairs):
        return False
    if a_mask & mask_of(b_list):
        return False
    for a, b in pairs:
        if not g.has_edge(a, b):
            return False
        if g.adj[b] & (a_mask | mask_of(b_list)) != 1 << a:
            return False
    return True


@dataclass
class InvariantReport:
    induced_matching: int
    induced_matching_witness: list
    path_packing: int
    path_packing_witness: list
    whisker_number: int
    whisker_witness: list
    matching: int
    matching_witness: list


def compute_invariants(g: Graph) -> InvariantReport:
    im, imw = induced_matching_number(g)
    pp, ppw = path_packing_number(g)
    wn, wnw = whisker_number(g)
    mt, mtw = matching_number(g)
    return InvariantReport(
        induced_matching=im, induced_matching_witness=imw,
        path_packing=pp, path_packing_witness=ppw,
        whisker_number=wn, whisker_witness=wnw,
        matching=mt, matching_witness=mtw,
    )
