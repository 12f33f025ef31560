"""Squarefree monomial ideals over bitmask supports: edge ideals, Alexander
dual ideals, linear-quotient order search, and the mapping-cone Betti count."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable

from .betti import BettiTable
from .bitsets import bits
from .graphs import Graph, maximal_independent_sets
from .limits import check


@dataclass(frozen=True)
class SquarefreeIdeal:
    """Monomial generators as variable bitmasks, kept as a minimal antichain
    sorted by (degree, mask).  () is the zero ideal; (0,) the unit ideal."""

    nvars: int
    gens: tuple[int, ...]

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return self.gens == (0,)


@dataclass(frozen=True)
class LinearQuotientCertificate:
    """Admissible generator order plus, per position, the variables that
    generate the colon ideal of the earlier generators."""

    order: tuple[int, ...]
    sets: tuple[int, ...]
    degree_monotone: bool


def _antichain(masks: Iterable[int]) -> list[int]:
    """Minimal elements under containment, sorted by (degree, mask)."""
    out: list[int] = []
    for m in sorted(set(masks), key=lambda x: (x.bit_count(), x)):
        if not any(k & m == k for k in out):
            out.append(m)
    return out


def squarefree_ideal(nvars: int, gens: Iterable[int]) -> SquarefreeIdeal:
    gens = list(gens)
    for m in gens:
        if m >> nvars:
            raise ValueError("generator uses a variable out of range")
    return SquarefreeIdeal(nvars, tuple(_antichain(gens)))


def edge_ideal(g: Graph) -> SquarefreeIdeal:
    return squarefree_ideal(g.n, ((1 << u) | (1 << v) for u, v in g.edges()))


def minimal_hitting_sets(sets: Iterable[int]) -> list[int]:
    """Minimal transversals of a family of bitmask sets (Berge's incremental
    construction).  Empty family -> [0]; any empty member -> no transversal."""
    hs = [0]
    for s in sorted(sets, key=lambda x: x.bit_count()):
        if s == 0:
            return []
        keep = [h for h in hs if h & s]
        grow = [h for h in hs if not h & s]
        new = keep + [h | (1 << b) for h in grow for b in bits(s)]
        hs = _antichain(new)
    return hs


def minimal_vertex_covers(g: Graph) -> list[int]:
    """Complements of the maximal independent sets; the edgeless graph has
    the single empty cover."""
    full = g.full
    return sorted(full & ~f for f in maximal_independent_sets(g))


def dual_ideal(ideal: SquarefreeIdeal) -> SquarefreeIdeal:
    """Alexander dual: generated by the minimal hitting sets of the
    generator supports.  Dual of zero is unit and vice versa, since the
    empty family has the one transversal 0 and the unit ideal has none."""
    return squarefree_ideal(ideal.nvars, minimal_hitting_sets(ideal.gens))


def linear_quotient_search(ideal: SquarefreeIdeal,
                           degree_monotone: bool = False
                           ) -> LinearQuotientCertificate | None:
    """Exhaustive search for a linear-quotient order of the generators.

    Tries generator indices in ascending order at every position, so the
    first order found is lexicographically first.  Failed placed-generator
    sets are memoised (admissibility of the next generator only depends on
    the set, not the order it was placed in).
    """
    if ideal.is_zero or ideal.is_unit:
        raise ValueError("linear quotients are undefined for the zero and unit ideals")
    gens = ideal.gens
    m = len(gens)
    check("linear_quotients", m)
    degs = [x.bit_count() for x in gens]
    diff = [[gens[j] & ~gens[i] for i in range(m)] for j in range(m)]
    single = [[diff[j][i].bit_count() == 1 for i in range(m)] for j in range(m)]
    failed: set[int] = set()
    order: list[int] = []
    sets: list[int] = []

    def admissible(i: int) -> int | None:
        singles = 0
        for j in order:
            if single[j][i]:
                singles |= diff[j][i]
        for j in order:
            if not diff[j][i] & singles:
                return None
        return singles

    def dfs(placed: int, maxdeg: int) -> bool:
        if len(order) == m:
            return True
        if placed in failed:
            return False
        for i in range(m):
            if placed >> i & 1:
                continue
            if degree_monotone and degs[i] < maxdeg:
                continue
            s = admissible(i)
            if s is None:
                continue
            order.append(i)
            sets.append(s)
            if dfs(placed | (1 << i), max(maxdeg, degs[i])):
                return True
            order.pop()
            sets.pop()
        failed.add(placed)
        return False

    if dfs(0, 0):
        return LinearQuotientCertificate(tuple(order), tuple(sets), degree_monotone)
    return None


def validate_linear_quotients(ideal: SquarefreeIdeal,
                              cert: LinearQuotientCertificate) -> bool:
    """Recompute every colon ideal from scratch and check the certificate."""
    gens = ideal.gens
    m = len(gens)
    if sorted(cert.order) != list(range(m)) or len(cert.sets) != m:
        return False
    if cert.degree_monotone:
        degs = [gens[i].bit_count() for i in cert.order]
        if any(a > b for a, b in zip(degs, degs[1:])):
            return False
    for pos in range(m):
        i = cert.order[pos]
        mins = _antichain(gens[j] & ~gens[i] for j in cert.order[:pos])
        if any(d.bit_count() != 1 for d in mins):
            return False
        union = 0
        for d in mins:
            union |= d
        if union != cert.sets[pos]:
            return False
    return True


def betti_from_certificate(cert: LinearQuotientCertificate,
                           degrees: Iterable[int]) -> BettiTable:
    """Graded Betti numbers of R/I for an ideal I with a degree-monotone
    linear-quotient order: the mapping-cone resolution is minimal, so
    beta_{0,0} = 1 and position p adds C(|sets[p]|, i) to
    beta_{i+1, deg(p)+i}."""
    if not cert.degree_monotone:
        raise ValueError("Betti counts need a degree-monotone certificate")
    degrees = list(degrees)
    entries = {(0, 0): 1}
    for pos, i in enumerate(cert.order):
        k = cert.sets[pos].bit_count()
        d = degrees[i]
        for s in range(k + 1):
            key = (s + 1, s + d)
            entries[key] = entries.get(key, 0) + comb(k, s)
    return BettiTable(entries)


@dataclass(frozen=True)
class DualDecompositionReport:
    sum_identity: bool
    intersection_identity: bool

    @property
    def ok(self) -> bool:
        return self.sum_identity and self.intersection_identity


def verify_dual_decomposition(g: Graph, x: int) -> DualDecompositionReport:
    """Check, at vertex x, the two cover-ideal identities

        dual(I(G))  =  x * dual(I(G - x))  +  prod(N(x)) * dual(I(G - N[x]))
        x * dual(I(G - x))  intersect  prod(N(x)) * dual(I(G - N[x]))
                    =  x * prod(N(x)) * dual(I(G - N[x]))

    with all ideals written in the variables of G.
    """
    if not 0 <= x < g.n:
        raise ValueError("vertex out of range")
    if g.edge_count() == 0:
        raise ValueError("graph needs at least one edge")
    xbit = 1 << x
    nbhd = g.adj[x]

    def covers(sub: int) -> list[int]:  # the cover ideal of G[sub]
        return [sub & ~f for f in maximal_independent_sets(g, sub)]

    left = [m | xbit for m in covers(g.full & ~xbit)]
    h2_dual = covers(g.full & ~xbit & ~nbhd)
    right = [m | nbhd for m in h2_dual]

    sum_ok = _antichain(left + right) == _antichain(covers(g.full))

    inter = _antichain(a | b for a in left for b in right)
    expect = _antichain(m | xbit | nbhd for m in h2_dual)
    return DualDecompositionReport(sum_ok, inter == expect)
