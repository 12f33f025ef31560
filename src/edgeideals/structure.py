"""Structural certificates for independence complexes: shedding vertices,
vertex decompositions, and shellings (found either through linear quotients
of the dual cover ideal, or by direct backtracking over facet orders)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .bitsets import bits
from .complexes import SimplicialComplex, independence_complex, minimal_nonfaces
from .graphs import Graph, maximal_independent_sets
from .homology import GF2, FieldChoice, restriction_homology
from .ideals import dual_ideal, edge_ideal, linear_quotient_search
from .limits import check


@dataclass(frozen=True)
class ShellingCertificate:
    facets: tuple[int, ...]  # facet bitmasks in shelling order


@dataclass(frozen=True)
class VDLeaf:
    kind: str  # "simplex" (no edges on the vertex set) or "empty" (no vertices)


@dataclass(frozen=True)
class VDNode:
    vertex: int
    deletion: "VDCert"
    link: "VDCert"


VDCert = Union[VDNode, VDLeaf]


def is_shedding_vertex(g: Graph, x: int) -> bool:
    """True iff every maximal independent set of g - x stays maximal in g."""
    if not 0 <= x < g.n:
        raise ValueError("vertex out of range")
    facets = set(maximal_independent_sets(g))
    return all(f in facets for f in maximal_independent_sets(g, g.full & ~(1 << x)))


def _edgeless_within(g: Graph, sub: int) -> bool:
    return all(not g.adj[v] & sub for v in bits(sub))


def vertex_decomposable(g: Graph) -> VDCert | None:
    """Recursive vertex-decomposition certificate for the independence
    complex of g, or None.

    Shedding candidates are tried in ascending vertex order; the deletion
    branch drops the vertex, the link branch drops its closed neighbourhood.
    Results are memoised on the vertex subset of the original graph.
    """
    check("vertex_decomposition", g.n)
    memo: dict[int, VDCert | None] = {}

    def rec(sub: int) -> VDCert | None:
        if sub in memo:
            return memo[sub]
        if sub == 0:
            cert: VDCert | None = VDLeaf("empty")
        elif _edgeless_within(g, sub):
            cert = VDLeaf("simplex")
        else:
            cert = None
            facets = set(maximal_independent_sets(g, sub))
            for x in bits(sub):
                smaller = sub & ~(1 << x)
                if not all(f in facets for f in maximal_independent_sets(g, smaller)):
                    continue
                del_cert = rec(smaller)
                if del_cert is None:
                    continue
                link_cert = rec(sub & ~(1 << x) & ~g.adj[x])
                if link_cert is None:
                    continue
                cert = VDNode(x, del_cert, link_cert)
                break
        memo[sub] = cert
        return cert

    return rec(g.full)


def validate_vertex_decomposition(g: Graph, cert: VDCert) -> bool:
    """Replay the certificate against g, re-checking every shedding claim."""

    def walk(node: VDCert, sub: int) -> bool:
        if isinstance(node, VDLeaf):
            if node.kind == "empty":
                return sub == 0
            if node.kind == "simplex":
                return _edgeless_within(g, sub)
            return False
        x = node.vertex
        if not sub >> x & 1:
            return False
        facets = set(maximal_independent_sets(g, sub))
        smaller = sub & ~(1 << x)
        if not all(f in facets for f in maximal_independent_sets(g, smaller)):
            return False
        return walk(node.deletion, smaller) and walk(node.link, smaller & ~g.adj[x])

    return walk(cert, g.full)


def root_shedding_vertex(cert: VDCert) -> int | None:
    return cert.vertex if isinstance(cert, VDNode) else None


def _shelling_condition(facets: tuple[int, ...]) -> bool:
    for j in range(1, len(facets)):
        singles = 0
        for l in range(j):
            d = facets[j] & ~facets[l]
            if d.bit_count() == 1:
                singles |= d
        for i in range(j):
            if not facets[j] & ~facets[i] & singles:
                return False
    return True


def validate_shelling(c: SimplicialComplex | Graph, cert: ShellingCertificate) -> bool:
    if isinstance(c, Graph):
        c = independence_complex(c)
    if sorted(cert.facets) != sorted(c.effective_facets()):
        return False
    return _shelling_condition(cert.facets)


def shellable(obj: Graph | SimplicialComplex) -> ShellingCertificate | None:
    """Shelling order for the (independence) complex or None.

    Found by transcribing a linear-quotient order of the Alexander dual of
    the Stanley-Reisner ideal: the generator complementary to a facet sits
    at the same position the facet takes in the shelling.
    """
    c = independence_complex(obj) if isinstance(obj, Graph) else obj
    eff = c.effective_facets()
    if len(eff) <= 1:
        return ShellingCertificate(eff)
    check("shelling", len(eff))
    ideal = dual_ideal(minimal_nonfaces(c))
    cert = linear_quotient_search(ideal)
    if cert is None:
        return None
    return ShellingCertificate(tuple(c.full & ~ideal.gens[i] for i in cert.order))


def shelling_bruteforce(c: SimplicialComplex | Graph) -> ShellingCertificate | None:
    """Independent shelling search: backtracking directly over facet orders,
    memoising failed prefix sets."""
    if isinstance(c, Graph):
        c = independence_complex(c)
    eff = c.effective_facets()
    if len(eff) <= 1:
        return ShellingCertificate(eff)
    m = len(eff)
    check("shelling_bruteforce", m)
    diff = [[eff[j] & ~eff[i] for i in range(m)] for j in range(m)]
    single = [[diff[j][i].bit_count() == 1 for i in range(m)] for j in range(m)]
    failed: set[int] = set()
    order: list[int] = []

    def dfs(used: int) -> bool:
        if len(order) == m:
            return True
        if used in failed:
            return False
        for j in range(m):
            if used >> j & 1:
                continue
            singles = 0
            for l in order:
                if single[j][l]:
                    singles |= diff[j][l]
            if all(diff[j][i] & singles for i in order):
                order.append(j)
                if dfs(used | (1 << j)):
                    return True
                order.pop()
        failed.add(used)
        return False

    if dfs(0):
        return ShellingCertificate(tuple(eff[j] for j in order))
    return None


def reducing_vertex(g: Graph, field: FieldChoice = GF2) -> tuple[int, int, int] | None:
    """Lowest vertex x with reg(R/I(g)) <= reg(R/I(g - N[x])) + 1, returned
    as (x, reg of g, reg of the reduced graph); None if no vertex works.
    Ind(g - N[x]) is Ind(g) restricted to V - N[x], so one restriction pass
    serves all: nonzero Htilde_d on S counts in row d + 1 of every W >= S."""
    kept = [g.full] + [g.full & ~(1 << x) & ~g.adj[x] for x in range(g.n)]
    reg = [0] * len(kept)
    for s, ranks in restriction_homology(edge_ideal(g), field):
        row = max((d + 1 for d, r in ranks.items() if r), default=0)
        for k, sub in enumerate(kept):
            if not s & ~sub:
                reg[k] = max(reg[k], row)
    return next(((x, reg[0], r) for x, r in enumerate(reg[1:]) if reg[0] <= r + 1), None)
