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
    """An order of the generators, as indices into the ideal's gens, along
    which degrees never decrease and every colon ideal is linear."""

    order: tuple[int, ...]


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
    # distinct 2-sets are already an antichain, all of one degree
    return SquarefreeIdeal(g.n, tuple(sorted((1 << u) | (1 << v) for u, v in g.edges())))


def minimal_hitting_sets(sets: Iterable[int]) -> list[int]:
    """Minimal transversals of a family of bitmask sets, sorted by (degree,
    mask), by Berge's incremental construction (C. Berge, Hypergraphs,
    1989, ch. 2).  Empty family -> [0]; any empty member -> no transversal.

    The members are added by ascending size. Adding s keeps the minimal
    transversals h so far that meet s, and replaces each other h by the
    h + b, b in s, that hold no kept one. That is the whole minimality
    test: the old transversals are an antichain, so no h + b lies inside a
    kept one or inside an h' + b' from another h'."""
    hs = [0]
    for s in sorted(sets, key=lambda x: x.bit_count()):
        if s == 0:
            return []
        kept = [h for h in hs if h & s]
        grow = [h for h in hs if not h & s]
        hs = kept + [c for b in bits(s) for c in (h | 1 << b for h in grow)
                     if not any(k & c == k for k in kept)]
    return sorted(hs, key=lambda x: (x.bit_count(), x))


def dual_ideal(ideal: SquarefreeIdeal) -> SquarefreeIdeal:
    """Alexander dual: generated by the minimal hitting sets of the
    generator supports, already an antichain sorted by (degree, mask).
    Dual of zero is unit and vice versa, since the empty family has the one
    transversal 0 and the unit ideal has none."""
    return SquarefreeIdeal(ideal.nvars, tuple(minimal_hitting_sets(ideal.gens)))


def _colon_set(earlier: list[int], m: int) -> int | None:
    """The variables that generate the colon ideal (earlier) : m, or None if
    that ideal is not linear.  It is generated by the earlier monomials with
    the variables of m removed, so it is linear iff each of them contains
    one that is a single variable."""
    singles = 0
    for q in earlier:
        d = q & ~m
        if d.bit_count() == 1:
            singles |= d
    for q in earlier:
        if not q & ~m & singles:
            return None
    return singles


def _colon_sets(monomials: list[int]) -> list[int] | None:
    """For each position p, the variables that generate the colon ideal
    (m_0, ..., m_{p-1}) : m_p, or None if some colon ideal is not linear."""
    sets = []
    for p, mp in enumerate(monomials):
        colon = _colon_set(monomials[:p], mp)
        if colon is None:
            return None
        sets.append(colon)
    return sets


def linear_quotient_search(ideal: SquarefreeIdeal) -> LinearQuotientCertificate | None:
    """Exhaustive search for a linear-quotient order of the generators along
    which degrees never decrease; an ideal with linear quotients has such an
    order (Jahan and Zheng, "Ideals with linear quotients", JCTA 117 (2010),
    Lemma 2.1).

    Generators are sorted by (degree, mask). One is tried only once all of
    lower degree are placed, in ascending index order, and is placed when
    `_colon_set` finds the colon ideal of the placed generators by it
    linear, so the first order found is lexicographically first. Failed
    placed-generator sets are memoised (whether a generator can be placed
    next only depends on the set).
    """
    if ideal.is_zero or ideal.is_unit:
        raise ValueError("linear quotients are undefined for the zero and unit ideals")
    gens = ideal.gens
    m = len(gens)
    check("linear_quotients", m)
    degs = [x.bit_count() for x in gens]
    failed: set[int] = set()
    order: list[int] = []

    def dfs(placed: int) -> bool:
        if len(order) == m:
            return True
        if placed in failed:
            return False
        earlier = [gens[j] for j in order]
        low = degs[(~placed & (placed + 1)).bit_length() - 1]  # first unplaced
        for i in range(m):
            if placed >> i & 1:
                continue
            if degs[i] > low:
                break
            if _colon_set(earlier, gens[i]) is None:
                continue
            order.append(i)
            if dfs(placed | (1 << i)):
                return True
            order.pop()
        failed.add(placed)
        return False

    if dfs(0):
        return LinearQuotientCertificate(tuple(order))
    return None


def _certified_colon_sets(ideal: SquarefreeIdeal,
                          cert: LinearQuotientCertificate) -> list[int] | None:
    """The colon sets along the certificate's order, or None if it does not
    validate."""
    if sorted(cert.order) != list(range(len(ideal.gens))):
        return None
    monomials = [ideal.gens[i] for i in cert.order]
    degs = [m.bit_count() for m in monomials]
    return _colon_sets(monomials) if degs == sorted(degs) else None


def validate_linear_quotients(ideal: SquarefreeIdeal,
                              cert: LinearQuotientCertificate) -> bool:
    """The order is a permutation of the generators, degrees never decrease
    along it, and every colon ideal is linear."""
    return _certified_colon_sets(ideal, cert) is not None


def betti_from_certificate(ideal: SquarefreeIdeal,
                           cert: LinearQuotientCertificate) -> BettiTable:
    """Graded Betti numbers of R/I read off a linear-quotient order of I:
    degrees never decrease along it, so the mapping-cone resolution is
    minimal, beta_{0,0} = 1 and a generator of degree d whose colon ideal
    has k generators adds C(k, s) to beta_{s+1, d+s}."""
    colons = _certified_colon_sets(ideal, cert)
    if colons is None:
        raise ValueError("not a degree-increasing linear-quotient order of the ideal")
    entries = {(0, 0): 1}
    for i, colon in zip(cert.order, colons):
        k, d = colon.bit_count(), ideal.gens[i].bit_count()
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
    return _dual_decomposition(g, x, _antichain(_covers(g, g.full)))


def _covers(g: Graph, sub: int) -> list[int]:
    """The minimal vertex covers of G[sub]: the cover ideal's generators."""
    return [sub & ~f for f in maximal_independent_sets(g, sub)]


def _dual_decomposition(g: Graph, x: int, cover_gens) -> DualDecompositionReport:
    """verify_dual_decomposition, given the cover ideal's generators sorted
    by (degree, mask)."""
    xbit = 1 << x
    nbhd = g.adj[x]
    left = [m | xbit for m in _covers(g, g.full & ~xbit)]
    h2_dual = _covers(g, g.full & ~xbit & ~nbhd)
    right = [m | nbhd for m in h2_dual]

    sum_ok = _antichain(left + right) == list(cover_gens)

    inter = _antichain(a | b for a in left for b in right)
    expect = _antichain(m | xbit | nbhd for m in h2_dual)
    return DualDecompositionReport(sum_ok, inter == expect)
