"""Structural certificates for independence complexes: shedding vertices,
vertex decompositions, and shellings (found either through linear quotients
of the dual cover ideal, or by direct backtracking over facet orders).

Shedding is Woodroofe's graph test: x sheds G[W] iff every maximal
independent set of G[W - x] meets N(x). A vertex-decomposition leaf is any
edgeless vertex set, the empty one included: its complex is a simplex."""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Union

from .bitsets import bits, vertex_masks
from .complexes import SimplicialComplex, _facet_complements
from .graphs import Graph, _independent_sets
from .homology import GF2, FieldChoice, Ranks, _restriction_planes
from .ideals import _colon_sets, edge_ideal, linear_quotient_search
from .limits import check


@dataclass(frozen=True)
class ShellingCertificate:
    facets: tuple[int, ...]  # facet bitmasks in shelling order


@dataclass(frozen=True)
class VDLeaf:
    """A vertex set with no edges: its independence complex is a simplex."""


@dataclass(frozen=True)
class VDNode:
    vertex: int
    deletion: "VDCert"
    link: "VDCert"


VDCert = Union[VDNode, VDLeaf]


def _sheds(g: Graph, sub: int, x: int) -> bool:
    """x sheds g[sub]: every maximal independent set of g[sub - x] meets
    N(x), so it stays maximal in g[sub].

    A set that misses N(x) is maximal in g[sub - x] iff it is maximal in
    g[sub - N[x]] and its neighbourhood holds N(x) within sub, so x sheds
    iff g[sub - N[x]] has no such set.  The search stops at the first one
    (the empty set counts), and its cut on N(x) makes a vertex that does not
    shed cost about one branch, not every maximal independent set."""
    near = g.adj[x] & sub
    return not _independent_sets(g.adj, near, 0, sub & ~near & ~(1 << x), 0,
                                 lambda f: True)


def _edgeless_within(g: Graph, sub: int) -> bool:
    return all(not g.adj[v] & sub for v in bits(sub))


def _edges_connected(g: Graph, sub: int) -> bool:
    """True iff the edges of Ind(g[sub]), its non-adjacent pairs, form one
    connected graph on the vertices they touch (vacuously if there are
    none): the pure 1-skeleton is then connected."""
    touched = 0
    for v in bits(sub):
        if sub & ~g.adj[v] & ~(1 << v):
            touched |= 1 << v
    reached = frontier = touched & -touched
    while frontier:
        grow = 0
        for v in bits(frontier):
            grow |= sub & ~g.adj[v]
        frontier = grow & ~reached
        reached |= frontier
    return reached == touched


def vertex_decomposable(g: Graph) -> VDCert | None:
    """Recursive vertex-decomposition certificate for the independence
    complex of g, or None.

    Shedding candidates are tried in ascending vertex order; the deletion
    branch drops the vertex, the link branch drops its closed neighbourhood.
    Results are memoised on the vertex subset of the original graph. A
    subset whose complex has a disconnected pure 1-skeleton fails without
    a search: a vertex-decomposable complex is sequentially Cohen-Macaulay,
    so its pure skeleta are Cohen-Macaulay (Duval) and, from dimension 1
    on, connected. This only cuts branches that fail anyway, so the
    certificate is the one the full search finds.
    """
    check("vertex_decomposition", g.n)
    memo: dict[int, VDCert | None] = {}

    def rec(sub: int) -> VDCert | None:
        if sub in memo:
            return memo[sub]
        if _edgeless_within(g, sub):
            cert: VDCert | None = VDLeaf()
        elif not _edges_connected(g, sub):
            cert = None
        else:
            cert = None
            for x in bits(sub):
                if not _sheds(g, sub, x):
                    continue
                smaller = sub & ~(1 << x)
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
            return _edgeless_within(g, sub)
        x = node.vertex
        if x < 0 or not sub >> x & 1 or not _sheds(g, sub, x):
            return False
        smaller = sub & ~(1 << x)
        return walk(node.deletion, smaller) and walk(node.link, smaller & ~g.adj[x])

    return walk(cert, g.full)


def root_shedding_vertex(cert: VDCert) -> int | None:
    return cert.vertex if isinstance(cert, VDNode) else None


def validate_shelling(c: SimplicialComplex, cert: ShellingCertificate) -> bool:
    """The facets in shelling order are a shelling iff their complements, in
    the same order, have linear quotients: F_j - F_l is the generator of
    the colon ideal of complement l by complement j."""
    if sorted(cert.facets) != sorted(c.facets):
        return False
    full = c.full
    return _colon_sets([full & ~f for f in cert.facets]) is not None


def shellable(c: SimplicialComplex) -> ShellingCertificate | None:
    """Shelling order for the complex or None.

    Found by transcribing a linear-quotient order of the Alexander dual of
    the Stanley-Reisner ideal, whose generators are the facet complements
    (for Ind(G), the cover ideal of G): the generator complementary to a
    facet sits at the same position the facet takes in the shelling. The
    search places generators by increasing degree, so facets come by
    decreasing dimension; any shelling can be rearranged so (Bjorner and
    Wachs, Trans. AMS 348 (1996), Rearrangement Lemma 2.6).
    """
    if len(c.facets) <= 1:
        return ShellingCertificate(c.facets)
    check("shelling", len(c.facets))
    ideal = _facet_complements(c)
    cert = linear_quotient_search(ideal)
    if cert is None:
        return None
    return ShellingCertificate(tuple(c.full & ~ideal.gens[i] for i in cert.order))


def shelling_bruteforce(c: SimplicialComplex) -> ShellingCertificate | None:
    """Independent shelling search: backtracking directly over facet orders,
    memoising failed prefix sets."""
    facets = c.facets
    m = len(facets)
    check("shelling_bruteforce", m)
    diff = [[facets[j] & ~facets[i] for i in range(m)] for j in range(m)]
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
        return ShellingCertificate(tuple(facets[j] for j in order))
    return None


def reducing_vertex(g: Graph, field: FieldChoice = GF2) -> tuple[int, int, int] | None:
    """Lowest vertex x with reg(R/I(g)) <= reg(R/I(g - N[x])) + 1, returned
    as (x, reg of g, reg of the reduced graph); None if no vertex works."""
    return _reducing_vertex(g, _restriction_planes(edge_ideal(g), field))


def _reducing_vertex(g: Graph, planes: dict[Ranks, int]) -> tuple[int, int, int] | None:
    """reducing_vertex read off the restriction pass of g's edge ideal.
    Ind(g - N[x]) is Ind(g) restricted to V - N[x], so one pass serves all:
    a table with top degree d puts row d + 1 into the regularity of every
    W holding a subset in its plane, and the subsets of V - N[x] are the
    bits outside the vertex masks of N[x]."""
    has = vertex_masks(g.n)
    rows = sorted(((table[-1][0] + 1, plane) for table, plane in planes.items()),
                  key=itemgetter(0), reverse=True)
    reg = rows[0][0] if rows else 0
    for x in range(g.n):
        near = 0
        for v in bits(g.adj[x] | 1 << x):
            near |= has[v]
        reg_h = next((row for row, plane in rows if plane & ~near), 0)
        if reg <= reg_h + 1:
            return x, reg, reg_h
    return None
