"""Combinatorial graph invariants: matchings, induced matchings, packings of
short paths, and the largest induced subgraph that occurs fully whiskered.

All searches are exhaustive branch-and-bound over compatibility masks and
return a witness alongside the size.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitsets import bits, mask_of
from .graphs import Graph, complement, is_chordal
from .limits import check


def _edges_within(g: Graph, mask: int) -> int:
    return sum((g.adj[v] & mask).bit_count() for v in bits(mask)) // 2


def is_induced_matching_pair(g: Graph, e: tuple[int, int], f: tuple[int, int]) -> bool:
    """True iff the disjoint edges e and f induce no third edge between
    their endpoints (the four endpoints induce exactly two edges)."""
    for u, v in (e, f):
        if not (0 <= u < g.n and 0 <= v < g.n) or not g.has_edge(u, v):
            raise ValueError(f"{(u, v)} is not an edge")
    span = mask_of(e) | mask_of(f)
    if span.bit_count() != 4:
        raise ValueError("edges share an endpoint")
    return _edges_within(g, span) == 2


def _pair_induced(g: Graph, e: tuple[int, int], f: tuple[int, int]) -> bool:
    span = mask_of(e) | mask_of(f)
    return span.bit_count() == 4 and _edges_within(g, span) == 2


def _best_compatible(count: int, compat: list[int]) -> tuple[int, list[int]]:
    """Largest pairwise-compatible subset of unit indices (max clique in the
    compatibility graph), with the first such subset in lexicographic
    exploration order as witness."""
    best = 0
    best_set: list[int] = []

    def expand(chosen: list[int], cand: int) -> None:
        nonlocal best, best_set
        if cand == 0:
            if len(chosen) > best:
                best, best_set = len(chosen), chosen[:]
            return
        if len(chosen) + cand.bit_count() <= best:
            return
        while cand:
            b = cand & -cand
            v = b.bit_length() - 1
            cand ^= b
            expand(chosen + [v], cand & compat[v])
            if len(chosen) + 1 + cand.bit_count() <= best:
                return

    expand([], (1 << count) - 1)
    return best, best_set


def matching_number(g: Graph) -> tuple[int, list[tuple[int, int]]]:
    """Maximum set of pairwise vertex-disjoint edges, found exhaustively."""
    check("invariants", g.n)
    e = g.edges()
    masks = [mask_of(x) for x in e]
    compat = [0] * len(e)
    for i in range(len(e)):
        for j in range(i + 1, len(e)):
            if not masks[i] & masks[j]:
                compat[i] |= 1 << j
                compat[j] |= 1 << i
    size, idx = _best_compatible(len(e), compat)
    return size, [e[i] for i in idx]


def induced_matching_number(g: Graph) -> tuple[int, list[tuple[int, int]]]:
    """Maximum matching whose edges pairwise induce no extra edge."""
    check("invariants", g.n)
    e = g.edges()
    compat = [0] * len(e)
    for i in range(len(e)):
        for j in range(i + 1, len(e)):
            if _pair_induced(g, e[i], e[j]):
                compat[i] |= 1 << j
                compat[j] |= 1 << i
    size, idx = _best_compatible(len(e), compat)
    return size, [e[i] for i in idx]


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
        nb = list(bits(g.adj[v]))
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
    masks = [mask_of(u) for u in units]
    compat = [0] * len(units)
    for i in range(len(units)):
        for j in range(i + 1, len(units)):
            if masks[i] & masks[j]:
                continue
            if len(units[i]) == 2 and len(units[j]) == 2 and \
                    not _pair_induced(g, units[i], units[j]):
                continue
            compat[i] |= 1 << j
            compat[j] |= 1 << i
    size, idx = _best_compatible(len(units), compat)
    return size, [units[i] for i in idx]


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
    compat = [0] * len(units)
    for i in range(len(units)):
        a1, b1 = units[i]
        for j in range(i + 1, len(units)):
            a2, b2 = units[j]
            if mask_of(units[i]) & mask_of(units[j]):
                continue
            if g.has_edge(b1, b2) or g.has_edge(b1, a2) or g.has_edge(b2, a1):
                continue
            compat[i] |= 1 << j
            compat[j] |= 1 << i
    size, idx = _best_compatible(len(units), compat)
    return size, [units[i] for i in idx]


def is_triangle_free(g: Graph) -> bool:
    return all(not g.adj[u] & g.adj[v] for u, v in g.edges())


def validate_matching_witness(g: Graph, edges: list[tuple[int, int]]) -> bool:
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
    used = 0
    for p in paths:
        m = mask_of(p)
        if m.bit_count() != len(p) or used & m:
            return False
        used |= m
        if len(p) == 2:
            if not g.has_edge(p[0], p[1]):
                return False
        elif len(p) == 3:
            if not (g.has_edge(p[0], p[1]) and g.has_edge(p[1], p[2])):
                return False
            if induced_paths and g.has_edge(p[0], p[2]):
                return False
        else:
            return False
    singles = [p for p in paths if len(p) == 2]
    return all(_pair_induced(g, singles[i], singles[j])
               for i in range(len(singles)) for j in range(i + 1, len(singles)))


def validate_whisker_witness(g: Graph, pairs: list[tuple[int, int]]) -> bool:
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
    max_degree: int
    chordal: bool
    complement_chordal: bool
    complement_triangle_free: bool


def compute_invariants(g: Graph) -> InvariantReport:
    im, imw = induced_matching_number(g)
    pp, ppw = path_packing_number(g)
    wn, wnw = whisker_number(g)
    mt, mtw = matching_number(g)
    gc = complement(g)
    return InvariantReport(
        induced_matching=im, induced_matching_witness=imw,
        path_packing=pp, path_packing_witness=ppw,
        whisker_number=wn, whisker_witness=wnw,
        matching=mt, matching_witness=mtw,
        max_degree=g.max_degree(),
        chordal=is_chordal(g) is not None,
        complement_chordal=is_chordal(gc) is not None,
        complement_triangle_free=is_triangle_free(gc),
    )
