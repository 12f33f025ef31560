"""Bitmask graphs: construction, families, chordality, k-tree recognition,
and isomorph-free enumeration of small graphs.

Vertices are 0..n-1; adjacency is a tuple of int bitmasks, so everything
stays in single machine words up to n = 64.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bitsets import bits, mask_of
from .limits import CapExceeded, check


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; adj[v] is the neighbour bitmask of v."""

    n: int
    adj: tuple[int, ...]

    @property
    def full(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in bits(self.adj[u]) if u < v]

    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def max_degree(self) -> int:
        return max((a.bit_count() for a in self.adj), default=0)

    def validate(self) -> None:
        if self.n < 0 or len(self.adj) != self.n:
            raise ValueError("bad vertex count")
        check("bitmask", self.n)
        for v, a in enumerate(self.adj):
            if a >> self.n:
                raise ValueError(f"adjacency of {v} leaves the vertex range")
            if a >> v & 1:
                raise ValueError(f"loop at {v}")
            for u in bits(a):
                if not self.adj[u] >> v & 1:
                    raise ValueError(f"asymmetric edge {v}-{u}")


@dataclass(frozen=True)
class DTreeCertificate:
    """Elimination record for a k-tree: peeled simplicial vertices with the
    clique each one attached to, ending at a (d+1)-clique."""

    d: int
    elimination: tuple[tuple[int, int], ...]  # (vertex, attachment clique mask)


def build_graph(n: int, edges) -> Graph:
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    check("bitmask", n)
    adj = [0] * n
    seen = set()
    for e in edges:
        u, v = e
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge {e} endpoint out of range")
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"duplicate edge {key}")
        seen.add(key)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def complement(g: Graph) -> Graph:
    full = g.full
    return Graph(g.n, tuple(full & ~a & ~(1 << v) for v, a in enumerate(g.adj)))


def induced_subgraph(g: Graph, sub: int) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on the vertex bitmask sub, relabelled to 0..k-1 in
    ascending order.  Returns (graph, labels) with labels[new] = old."""
    if sub & ~g.full:
        raise ValueError("subset leaves the vertex range")
    labels = tuple(bits(sub))
    pos = {v: i for i, v in enumerate(labels)}
    adj = []
    for v in labels:
        m = 0
        for u in bits(g.adj[v] & sub):
            m |= 1 << pos[u]
        adj.append(m)
    return Graph(len(labels), tuple(adj)), labels


def whisker(g: Graph, sub: int) -> Graph:
    """Attach one new pendant vertex to each vertex in sub (ascending order);
    pendants get labels n, n+1, ..."""
    if sub & ~g.full:
        raise ValueError("subset leaves the vertex range")
    check("bitmask", g.n + sub.bit_count())
    adj = list(g.adj)
    nxt = g.n
    for v in bits(sub):
        adj[v] |= 1 << nxt
        adj.append(1 << v)
        nxt += 1
    return Graph(nxt, tuple(adj))


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        for v in bits(frontier):
            nxt |= g.adj[v]
        frontier = nxt & ~seen
        seen |= frontier
    return seen == g.full


def _is_clique(g: Graph, mask: int) -> bool:
    for v in bits(mask):
        if g.adj[v] & mask != mask & ~(1 << v):
            return False
    return True


def maximal_independent_sets(g: Graph, within: int | None = None) -> list[int]:
    """All maximal independent sets of the subgraph induced on `within`
    (default: all vertices), as bitmasks in the original labels.

    Bron-Kerbosch on the complement with a highest-degree pivot.
    """
    sub = g.full if within is None else within
    if sub & ~g.full:
        raise ValueError("subset leaves the vertex range")
    non = [~g.adj[v] & sub & ~(1 << v) for v in range(g.n)]
    out: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(r)
            return
        pivot, best = -1, -1
        for v in bits(p | x):
            c = (p & non[v]).bit_count()
            if c > best:
                pivot, best = v, c
        for v in bits(p & ~non[pivot]):
            b = 1 << v
            expand(r | b, p & non[v], x & non[v])
            p &= ~b
            x |= b

    expand(0, sub, 0)
    out.sort()
    return out


def is_chordal(g: Graph):
    """Perfect elimination ordering if g is chordal, else None.

    Greedy simplicial peel; at each step the lowest-indexed vertex whose
    remaining neighbourhood is a clique is removed.
    """
    remaining = g.full
    order = []
    while remaining:
        found = -1
        for v in bits(remaining):
            if _is_clique(g, g.adj[v] & remaining):
                found = v
                break
        if found < 0:
            return None
        order.append(found)
        remaining &= ~(1 << found)
    return order


def recognize_d_tree(g: Graph) -> DTreeCertificate | None:
    """Recognise g as a d-tree (K_{d+1}, or a d-tree plus a new vertex glued
    to a d-clique).  The only viable d is n-1 for complete graphs and the
    minimum degree otherwise; peel simplicial degree-d vertices, lowest
    index first, until a (d+1)-clique remains.
    """
    if g.n == 0:
        return None
    if _is_clique(g, g.full):
        return DTreeCertificate(g.n - 1, ())
    d = min(g.degree(v) for v in range(g.n))
    remaining = g.full
    elim = []
    while remaining.bit_count() > d + 1:
        found = -1
        for v in bits(remaining):
            nb = g.adj[v] & remaining
            if nb.bit_count() == d and _is_clique(g, nb):
                found = v
                break
        if found < 0:
            return None
        elim.append((found, g.adj[found] & remaining & ~(1 << found)))
        remaining &= ~(1 << found)
    if not _is_clique(g, remaining):
        return None
    return DTreeCertificate(d, tuple(elim))


def validate_d_tree_certificate(g: Graph, cert: DTreeCertificate) -> bool:
    """Replay: rebuild g from the base clique by re-attaching the eliminated
    vertices in reverse order, checking each attachment set exactly."""
    current = g.full
    for v, _ in cert.elimination:
        current &= ~(1 << v)
    if current.bit_count() != cert.d + 1 or not _is_clique(g, current):
        return False
    for v, clique in reversed(cert.elimination):
        if clique.bit_count() != cert.d or clique & ~current:
            return False
        if not _is_clique(g, clique):
            return False
        if g.adj[v] & current != clique:
            return False
        current |= 1 << v
    return current == g.full


def _path(k: int) -> Graph:
    # path with k edges on k+1 vertices
    return build_graph(k + 1, [(i, i + 1) for i in range(k)])


def _cycle(k: int) -> Graph:
    return build_graph(k, [(i, (i + 1) % k) for i in range(k)])


def _complete(k: int) -> Graph:
    return build_graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def _random_d_tree(d: int, steps: int, seed: int) -> Graph:
    if d < 1:
        raise ValueError("d must be at least 1")
    n = d + 1 + steps
    rng = random.Random(seed)
    edges = [(i, j) for i in range(d + 1) for j in range(i + 1, d + 1)]
    g = build_graph(n, edges)  # pads isolated vertices d+1..n-1
    adj = list(g.adj)
    for v in range(d + 1, n):
        present = list(range(v))
        cliques = [c for c in itertools.combinations(present, d)
                   if _is_clique(Graph(n, tuple(adj)), mask_of(c))]
        target = rng.choice(cliques)
        for u in target:
            adj[v] |= 1 << u
            adj[u] |= 1 << v
    return Graph(n, tuple(adj))


def family(spec: str) -> Graph:
    """Build a named graph family from a DSL string.

    path:k            path with k edges (k+1 vertices)
    cycle:k           k-cycle, k >= 3
    complete:k        complete graph
    edgeless:k        k isolated vertices
    pendant_cycle:n   odd cycle C_{2n+1} plus a pendant vertex attached to 0
    capped_cycle:n    odd cycle C_{2n+1} plus an apex adjacent to 0 and 1
    dtree:d,steps,seed   seeded random d-tree grown from K_{d+1}
    """
    name, sep, arg = spec.strip().partition(":")
    if not sep:
        raise ValueError(f"family spec {spec!r} has no ':'")
    name = name.strip().lower()
    try:
        if name == "dtree":
            d, steps, seed = (int(x) for x in arg.split(","))
            if steps < 0:
                raise ValueError("steps must be non-negative")
            return _random_d_tree(d, steps, seed)
        k = int(arg)
    except CapExceeded:
        raise
    except ValueError as exc:
        raise ValueError(f"bad family arguments in {spec!r}: {exc}") from None
    if name == "path":
        if k < 0:
            raise ValueError("path length must be non-negative")
        return _path(k)
    if name == "cycle":
        if k < 3:
            raise ValueError("cycle needs at least 3 vertices")
        return _cycle(k)
    if name == "complete":
        if k < 1:
            raise ValueError("complete graph needs at least 1 vertex")
        return _complete(k)
    if name == "edgeless":
        if k < 0:
            raise ValueError("vertex count must be non-negative")
        return build_graph(k, [])
    if name in ("pendant_cycle", "capped_cycle"):
        if k < 1:
            raise ValueError("cycle parameter must be at least 1")
        m = 2 * k + 1
        edges = [(i, (i + 1) % m) for i in range(m)]
        if name == "pendant_cycle":
            edges.append((0, m))
        else:
            edges.append((0, m))
            edges.append((1, m))
        return build_graph(m + 1, edges)
    raise ValueError(f"unknown family {name!r}")


# --- canonical forms and enumeration -------------------------------------

_PERM_TABLES: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}


def _perm_tables(n: int):
    cached = _PERM_TABLES.get(n)
    if cached is None:
        perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
        iu, ju = np.triu_indices(n, 1)
        w = (1 << np.arange(len(iu) - 1, -1, -1)).astype(np.int64)
        cached = _PERM_TABLES[n] = (perms, iu, ju, w)
    return cached


def _canonical(g: Graph) -> tuple[int, Graph]:
    n = g.n
    check("canonical", n)
    if n <= 1:
        return 0, g
    perms, iu, ju, w = _perm_tables(n)
    a = np.zeros((n, n), dtype=np.int64)
    for v in range(n):
        for u in bits(g.adj[v]):
            a[v, u] = 1
    permuted = a[perms[:, :, None], perms[:, None, :]]
    vals = permuted[:, iu, ju] @ w
    k = int(vals.argmin())
    perm = perms[k]
    adj = [0] * n
    for i in range(n):
        for j in range(n):
            if a[perm[i], perm[j]]:
                adj[i] |= 1 << j
    return int(vals[k]), Graph(n, tuple(adj))


def canonical_form(g: Graph) -> int:
    """Lexicographically minimal upper-triangular adjacency bitstring of g
    over all vertex permutations, packed into an int (first pair = highest bit)."""
    return _canonical(g)[0]


def canonical_graph(g: Graph) -> Graph:
    """The relabelling of g realising canonical_form(g)."""
    return _canonical(g)[1]


@lru_cache(maxsize=None)
def _iso_classes(n: int) -> tuple[Graph, ...]:
    if n == 0:
        return (Graph(0, ()),)
    if n == 1:
        return (Graph(1, (0,)),)
    found: dict[int, Graph] = {}
    for h in _iso_classes(n - 1):
        for s in range(1 << (n - 1)):
            adj = [h.adj[v] | ((s >> v & 1) << (n - 1)) for v in range(n - 1)]
            adj.append(s)
            val, cg = _canonical(Graph(n, tuple(adj)))
            if val not in found:
                found[val] = cg
    return tuple(found[k] for k in sorted(found))


def enumerate_graphs(n: int, connected_only: bool = False):
    """Yield one canonically labelled representative of every isomorphism
    class of n-vertex graphs, in increasing canonical form."""
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    check("canonical", n)
    for g in _iso_classes(n):
        if connected_only and not is_connected(g):
            continue
        yield g
