"""Combinatorial graph invariants: matchings, induced matchings, packings of
short paths, and the largest induced subgraph that occurs fully whiskered.

All searches are exhaustive branch-and-bound over compatibility masks and
return a witness alongside the size.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitsets import bits, mask_of
from .graphs import Graph
from .limits import check


def _pair_induced(g: Graph, e: tuple[int, int], f: tuple[int, int]) -> bool:
    # f's endpoints avoid N(a) | N(b), which holds a and b since e is an
    # edge, so a shared endpoint fails the test too
    (a, b), (c, d) = e, f
    return not (g.adj[a] | g.adj[b]) & ((1 << c) | (1 << d))


def _union(table: dict[int, int], mask: int) -> int:
    out = 0
    for v in bits(mask):
        out |= table.get(v, 0)
    return out


def _compatible_rows(units: list[tuple[int, ...]], near) -> list[int]:
    """Row i: the units j > i disjoint from unit i that go with it, as a
    bitmask of indices. The search only adds units after the last one it
    took, so the rows hold no earlier ones. A longer unit goes with every
    unit it is disjoint from. For a two-vertex unit u, near(u) gives two
    vertex masks (touch, second): a later two-vertex unit goes with u iff
    none of its vertices is in touch and its second vertex is not in second.

    Both tests are read off per-vertex unit masks: touching[v], the units
    holding v, and seconds[v], the two-vertex units whose second vertex is
    v. The units u rules out are the union of touching over touch and of
    seconds over second, which depends on the two masks alone."""
    touching: dict[int, int] = {}
    seconds: dict[int, int] = {}
    longer = 0
    for j, u in enumerate(units):
        for v in u:
            touching[v] = touching.get(v, 0) | 1 << j
        if len(u) > 2:
            longer |= 1 << j
        else:
            seconds[u[1]] = seconds.get(u[1], 0) | 1 << j
    every = (1 << len(units)) - 1
    # the units each touch and each second mask rules out, kept per mask:
    # a search's units share few neighbourhoods
    by_touch: dict[int, int] = {}
    by_second: dict[int, int] = {}
    rows = []
    for i, u in enumerate(units):
        free = every & -(2 << i)
        for v in u:
            free &= ~touching[v]
        if len(u) > 2:
            rows.append(free)
            continue
        touch, second = near(u)
        blocked = by_touch.get(touch)
        if blocked is None:
            blocked = by_touch[touch] = _union(touching, touch)
        other = by_second.get(second)
        if other is None:
            other = by_second[second] = _union(seconds, second)
        rows.append(free & (longer | ~(blocked | other)))
    return rows


def _best_compatible(units: list[tuple[int, ...]], near) -> list[tuple[int, ...]]:
    """Largest set of pairwise vertex-disjoint units in which every two
    two-vertex units go with each other by near's masks (a max clique in the
    compatibility graph of `_compatible_rows`), with the first such set in
    lexicographic exploration order as witness. A longer unit goes with
    every unit it is disjoint from.

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
    compat = _compatible_rows(units, near)
    of_size: dict[int, int] = {}
    used = 0
    for i, u in enumerate(units):
        of_size[len(u)] = of_size.get(len(u), 0) | 1 << i
        used |= mask_of(u)
    by_size = sorted(of_size.items())
    best = 0
    best_set: list[int] = []

    def expand(chosen: list[int], cand: int, free: int) -> None:
        nonlocal best, best_set
        if cand == 0:
            if len(chosen) > best:
                best, best_set = len(chosen), chosen[:]
            return
        while cand:
            room = best - len(chosen)
            if cand.bit_count() <= room:
                return
            for size, mask in by_size:
                if cand & mask:
                    break
            if free // size <= room:
                return
            b = cand & -cand
            v = b.bit_length() - 1
            cand ^= b
            expand(chosen + [v], cand & compat[v], free - len(units[v]))

    expand([], (1 << len(units)) - 1, used.bit_count())
    # expand refers to itself through its closure; dropping the name breaks
    # that cycle, so the search's state is freed now, not by the cyclic GC
    del expand
    return [units[i] for i in best_set]


def matching_number(g: Graph) -> tuple[int, list[tuple[int, int]]]:
    """Maximum set of pairwise vertex-disjoint edges, found exhaustively."""
    check("invariants", g.n)
    best = _best_compatible(g.edges(), lambda e: (0, 0))
    return len(best), best


def induced_matching_number(g: Graph) -> tuple[int, list[tuple[int, int]]]:
    """Maximum matching whose edges pairwise induce no extra edge."""
    check("invariants", g.n)
    # `_pair_induced` as masks: the later edge misses N(a) | N(b)
    best = _best_compatible(g.edges(), lambda e: (g.adj[e[0]] | g.adj[e[1]], 0))
    return len(best), best


def path_packing_number(g: Graph, induced_paths: bool = False
                        ) -> tuple[int, list[tuple[int, ...]]]:
    """Maximum number of vertex-disjoint paths with one or two edges such
    that the single-edge paths pairwise induce no extra edge.

    Two-edge paths are walks u-v-w on three distinct vertices; by default
    u and w may be adjacent, with induced_paths=True they must not be.
    """
    check("invariants", g.n)
    units: list[tuple[int, ...]] = list(g.edges())
    seen: set[int] = set()
    for v in range(g.n):
        nb = bits(g.adj[v])
        for a in range(len(nb)):
            for b in range(a + 1, len(nb)):
                u, w = nb[a], nb[b]
                if induced_paths and g.has_edge(u, w):
                    continue
                m = mask_of((u, v, w))
                if m in seen:
                    continue
                seen.add(m)
                units.append((u, v, w))
    best = _best_compatible(units, lambda e: (g.adj[e[0]] | g.adj[e[1]], 0))
    return len(best), best


def whisker_number(g: Graph) -> tuple[int, list[tuple[int, int]]]:
    """Largest r such that g contains disjoint vertex sets A = {a_1..a_r},
    B = {b_1..b_r} where each b_i is adjacent to a_i and to nothing else in
    A union B: the induced subgraph on A then occurs in g together with a
    private pendant on every one of its vertices.

    Witness pairs are (a_i, b_i).
    """
    check("invariants", g.n)
    units: list[tuple[int, int]] = []
    for u, v in g.edges():
        units.append((u, v))
        units.append((v, u))
    # (a2, b2) goes with (a1, b1) iff b1 sees neither a2 nor b2 (no vertex
    # in N(b1)) and b2 does not see a1 (b2 not in N(a1))
    best = _best_compatible(units, lambda ab: (g.adj[ab[1]], g.adj[ab[0]]))
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
