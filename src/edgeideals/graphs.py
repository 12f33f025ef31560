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

from .bitsets import bits, mask_of
from .limits import CapExceeded, check


def read_ints(text: str, count: int, error: str, sep: str | None = None) -> list[int]:
    """Read exactly count integers from text split at sep (at whitespace by
    default). Each is an optional '-' and ASCII digits, with surrounding
    whitespace allowed: no '+', underscores or other digits. Anything else,
    or a number too long for int() to convert, raises ValueError(error)."""
    parts = [t.strip() for t in text.split(sep)]
    digits = [t.removeprefix("-") for t in parts]
    if len(parts) != count or not all(d.isascii() and d.isdigit() for d in digits):
        raise ValueError(error)
    try:
        return [int(t) for t in parts]
    except ValueError:
        raise ValueError(error) from None


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
    """A d-tree's elimination order: each vertex has exactly min(d, number
    of later vertices) later neighbours, and they form a clique."""

    d: int
    order: tuple[int, ...]


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


def _independent_sets(adj: tuple[int, ...], near: int, r: int, p: int, q: int,
                      emit) -> bool:
    """Bron-Kerbosch on the complement with a highest-degree pivot: calls
    emit(F) on each maximal independent set F with r within F within r + p,
    no vertex of q addable, and a neighbourhood that holds near.  Returns
    True as soon as emit does.  A nonzero near cuts a branch once the
    neighbourhood of r + p misses a vertex of it."""
    if near:
        reach = 0
        for v in bits(r | p):
            reach |= adj[v]
        if near & ~reach:
            return False
    if not p:
        return not q and bool(emit(r))
    pivot, best = -1, -1
    for v in bits(p | q):
        c = (p & ~adj[v]).bit_count()
        if c > best:
            pivot, best = v, c
    for v in bits(p & (adj[pivot] | 1 << pivot)):
        b = 1 << v
        if _independent_sets(adj, near, r | b, p & ~adj[v] & ~b, q & ~adj[v], emit):
            return True
        p &= ~b
        q |= b
    return False


def maximal_independent_sets(g: Graph, within: int | None = None) -> list[int]:
    """All maximal independent sets of the subgraph induced on `within`
    (default: all vertices), as sorted bitmasks in the original labels."""
    sub = g.full if within is None else within
    if sub & ~g.full:
        raise ValueError("subset leaves the vertex range")
    out: list[int] = []
    _independent_sets(g.adj, 0, 0, sub, 0, out.append)
    return sorted(out)


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
    to a d-clique) and certify it by an elimination order.

    A d-tree on n vertices has minimum degree d and d*n - d(d+1)/2 edges.
    In a d-tree with more than d+1 vertices every simplicial vertex has
    degree d, and removing one leaves a d-tree (Rose, Discrete Math. 7,
    1974), so the simplicial peel of is_chordal is a d-tree's elimination
    order; the validator replays it.
    """
    if g.n == 0:
        return None
    d = min(g.degree(v) for v in range(g.n))
    if g.edge_count() != d * g.n - d * (d + 1) // 2:
        return None
    order = is_chordal(g)
    if order is None:
        return None
    cert = DTreeCertificate(d, tuple(order))
    return cert if validate_d_tree_certificate(g, cert) else None


def validate_d_tree_certificate(g: Graph, cert: DTreeCertificate) -> bool:
    """Replay: the order is a permutation of the vertices, 0 <= d < n, and
    every vertex keeps the rule of DTreeCertificate."""
    n, order = g.n, cert.order
    if not 0 <= cert.d < n or sorted(order) != list(range(n)):
        return False
    later = g.full
    for i, v in enumerate(order):
        later &= ~(1 << v)
        nb = g.adj[v] & later
        if nb.bit_count() != min(cert.d, n - 1 - i) or not _is_clique(g, nb):
            return False
    return True


def _random_d_tree(d: int, steps: int, seed: int) -> Graph:
    if d < 1:
        raise ValueError("d must be at least 1")
    n = d + 1 + steps
    check("bitmask", n)
    rng = random.Random(seed)
    edges = [(i, j) for i in range(d + 1) for j in range(i + 1, d + 1)]
    adj = list(build_graph(n, edges).adj)  # pads isolated vertices d+1..n-1
    # every d-clique so far, sorted: K_{d+1}'s, then K - u + v per glued v
    cliques = list(itertools.combinations(range(d + 1), d))
    for v in range(d + 1, n):
        target = rng.choice(cliques)
        for u in target:
            adj[v] |= 1 << u
            adj[u] |= 1 << v
        cliques += [tuple(w for w in target if w != u) + (v,) for u in target]
        cliques.sort()
    return Graph(n, tuple(adj))


def _cycle_edges(k: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % k) for i in range(k)]


# name: (least argument, refusal below it, vertex count, edge list) of k
_FAMILIES = {
    "path": (0, "path length must be non-negative", lambda k: k + 1,
             lambda k: [(i, i + 1) for i in range(k)]),
    "cycle": (3, "cycle needs at least 3 vertices", lambda k: k, _cycle_edges),
    "complete": (1, "complete graph needs at least 1 vertex", lambda k: k,
                 lambda k: [(i, j) for i in range(k) for j in range(i + 1, k)]),
    "edgeless": (0, "vertex count must be non-negative", lambda k: k,
                 lambda k: []),
    "pendant_cycle": (1, "cycle parameter must be at least 1", lambda k: 2 * k + 2,
                      lambda k: _cycle_edges(2 * k + 1) + [(0, 2 * k + 1)]),
    "capped_cycle": (1, "cycle parameter must be at least 1", lambda k: 2 * k + 2,
                     lambda k: _cycle_edges(2 * k + 1) + [(0, 2 * k + 1),
                                                          (1, 2 * k + 1)]),
}


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
    if name not in _FAMILIES and name != "dtree":
        raise ValueError(f"unknown family {name!r}")
    try:
        if name == "dtree":
            d, steps, seed = read_ints(arg, 3, "dtree takes d,steps,seed", ",")
            if steps < 0:
                raise ValueError("steps must be non-negative")
            return _random_d_tree(d, steps, seed)
        (k,) = read_ints(arg, 1, f"{name} takes one integer")
    except CapExceeded:
        raise
    except ValueError as exc:
        raise ValueError(f"bad family arguments in {spec!r}: {exc}") from None
    least, refusal, vertices, edges = _FAMILIES[name]
    if k < least:
        raise ValueError(refusal)
    check("bitmask", vertices(k))  # refuse past the cap before listing any edge
    return build_graph(vertices(k), edges(k))


# --- canonical forms and enumeration -------------------------------------

def _canonical(g: Graph) -> tuple[int, Graph]:
    """Exact search for the least string of canonical_form.  Positions are
    filled in order; the unplaced vertices sit in ordered cells, each owning
    a run of consecutive positions.  Placing v from the first cell fixes the
    next row: each cell splits into v's non-neighbours, then its neighbours.
    Only first-cell vertices with the least row are tried, one per twin pair
    (swapping twins fixes the state), and prefixes above the best are cut."""
    n = g.n
    check("canonical", n)
    adj = g.adj
    twins = [sum(1 << w for w in range(n)
                 if w != v and adj[v] & ~(1 << w) == adj[w] & ~(1 << v))
             for v in range(n)]
    best = [1 << n * (n - 1) // 2, ()]  # above every string: (value, order)

    def search(cells: list[int], order: tuple[int, ...], prefix: int) -> None:
        if len(order) == n:
            best[:] = min(best, [prefix, order])
            return
        options = []
        for v in bits(cells[0]):
            row, split = 0, []
            for c in cells:
                c &= ~(1 << v)
                row = row << c.bit_count() | (1 << (c & adj[v]).bit_count()) - 1
                split += [s for s in (c & ~adj[v], c & adj[v]) if s]
            options.append((row, v, split))
        width = n - 1 - len(order)
        least = min(options)[0]
        prefix = prefix << width | least
        if prefix > best[0] >> width * (width - 1) // 2:
            return
        tried = 0
        for row, v, split in options:
            if row == least and not twins[v] & tried:
                tried |= 1 << v
                search(split, order + (v,), prefix)

    search([g.full], (), 0)
    value, order = best
    pos = {v: i for i, v in enumerate(order)}
    return value, Graph(n, tuple(mask_of(pos[u] for u in bits(adj[v]))
                                 for v in order))


def canonical_form(g: Graph) -> int:
    """Lexicographically minimal upper-triangular adjacency bitstring of g
    over all vertex permutations, packed into an int (first pair = highest bit)."""
    return _canonical(g)[0]


def adjacency_string(g: Graph) -> int:
    """The upper-triangular adjacency string of g's own labelling, packed as
    in canonical_form.  It equals canonical_form(g) exactly when g is
    canonically labelled, as every representative of enumerate_graphs is."""
    value = 0
    for u in range(g.n):
        for v in range(u + 1, g.n):
            value = value << 1 | g.adj[u] >> v & 1
    return value


@lru_cache(maxsize=None)
def _iso_classes(n: int) -> tuple[Graph, ...]:
    """The canonically labelled representatives of the n-vertex classes, in
    increasing canonical form.

    Every class G has a vertex v of maximum degree, and G - v is a class on
    n - 1 vertices, so G is the representative h of that class plus a new
    vertex joined to some k = Delta(G) vertices s.  Only such extensions are
    labelled: Delta(h) <= k <= n - 1, and s holds only vertices of h-degree
    below k, so that no old vertex ends with a degree above k.  Extensions
    that give the same class meet in `found`, keyed on canonical form."""
    if n == 0:
        return (Graph(0, ()),)
    found: dict[int, Graph] = {}
    new = 1 << (n - 1)
    for h in _iso_classes(n - 1):
        degree = [a.bit_count() for a in h.adj]
        for k in range(max(degree, default=0), n):
            pool = [v for v in range(n - 1) if degree[v] < k]
            for s in itertools.combinations(pool, k):
                adj = list(h.adj)
                for v in s:
                    adj[v] |= new
                adj.append(mask_of(s))
                val, cg = _canonical(Graph(n, tuple(adj)))
                found.setdefault(val, cg)
    return tuple(found[k] for k in sorted(found))


def enumerate_graphs(n: int, connected_only: bool = False):
    """Yield one canonically labelled representative of every isomorphism
    class of n-vertex graphs, in increasing canonical form, so that
    adjacency_string of each is its canonical form.

    The classes on n vertices are grown from those on n - 1 by adding a
    vertex of maximum degree (see _iso_classes).  That reaches every class
    and labels 29,755 of the 133,632 extensions at n = 8."""
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    check("canonical", n)
    for g in _iso_classes(n):
        if connected_only and not is_connected(g):
            continue
        yield g
