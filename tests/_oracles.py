"""Brute-force reference implementations used to cross-check the library.

Everything here works on plain sets and itertools enumeration, on purpose:
no bitmask tricks, no pruning, no shared code with the package under test.
Only viable at very small sizes. The one helper on bitmasks, near the top,
is `induced_subgraph`, which relabels the subgraph on a vertex mask for the
tests and the reducing-vertex reference. `colon_sets_by_antichain` is the
reference for `ideals._colon_sets`, and
`linear_quotient_order_by_permutations`, which tries every generator order,
for the lex-first order of `ideals.linear_quotient_search`.

The exception is at the end: the per-subset Hochster computation, which
rebuilds each restricted complex from Berge transversals, and the
reducing-vertex search that reruns it on every G - N[x]. They reuse the
package's transversal and complex code, but none of its restriction pass,
and serve as the reference for that pass. Last is the restriction pass
without homotopy reductions, which computes every non-face restriction; it
is the reference for the pass that skips cones and folds. Both take their
ranks from the dense kernels here, not from the package's sparse ones.
Next is the invariant search bounded only by its candidate count, the
reference for the package's search with the vertex-capacity bound, and the
pair-by-pair build of its compatibility rows; both ask a pair predicate
(`induced_pair`, `whisker_private`) where the package reads neighbourhood
masks. The
last is the degree-d simplicial peel that recognised d-trees before the
chordal peel did, the reference for `recognize_d_tree`. The very last is the
isomorph-free enumeration that canonically labels every extension of every
smaller class, the reference for the maximum-degree filter of
`enumerate_graphs`; it labels with the package's `_canonical`, which is
checked against every relabelling on its own. After it comes the boundary-rank
loop that eliminates every boundary map in full, bottom-up, the reference
for the clearing in `homology._ranks_from_faces`; it runs the package's own
kernels on every row. The very end is the restriction pass that tests its
three rules on each subset in turn, the reference for the pass that reads
them off whole-table bitsets. After it, the generator nerve of a
restriction, listed from plain sets, a third route to the homology of a
restriction beside its faces and the Alexander dual that the pass hands the
kernel in place of them where the dual is the shorter list. Last come the bit
positions of a mask found one test per bit, the reference for the table that
`bitsets.bits` reads, and the pass's rule tables built by shifting the face
plane once per face test, the reference for the per-vertex masks of
`homology._rule_tables`. After them, the Berge construction that cuts every
step's candidates back to an antichain, the reference for
`ideals.minimal_hitting_sets`.
"""

import random
from array import array
from functools import lru_cache
from itertools import combinations, permutations

from edgeideals import (BettiTable, Graph, build_graph, edge_ideal, homology,
                        minimal_hitting_sets, simplicial_complex)
from edgeideals.bitsets import bits, mask_of, submasks, vertex_masks
from edgeideals.graphs import _canonical
from edgeideals.homology import _boundary_rank
from edgeideals.limits import check


def edge_set(g):
    return {frozenset((u, v)) for u, v in g.edges()}


def induced_subgraph(g, sub):
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


def canonical_form_by_permutations(g):
    """Least upper-triangular adjacency string over all n! relabellings, as
    a number (first pair = highest bit), and the graph that realises it."""
    edges = edge_set(g)
    a = [[int(frozenset((u, v)) in edges) for v in range(g.n)]
         for u in range(g.n)]
    pairs = list(combinations(range(g.n), 2))
    string = min(tuple(a[p[i]][p[j]] for i, j in pairs)
                 for p in permutations(range(g.n)))
    value = int("".join(map(str, string)) or "0", 2)
    return value, build_graph(g.n, [e for e, bit in zip(pairs, string) if bit])


def is_independent(g, vs):
    vs = set(vs)
    return all(not (u in vs and v in vs) for u, v in g.edges())


def maximal_independent_sets(g, within=None):
    verts = sorted(within) if within is not None else list(range(g.n))
    sets = []
    for r in range(len(verts) + 1):
        for combo in combinations(verts, r):
            if is_independent(g, combo):
                sets.append(set(combo))
    return sorted(tuple(sorted(s)) for s in sets
                  if not any(s < t for t in sets))


def minimal_vertex_covers(g):
    edges = edge_set(g)
    covers = []
    for r in range(g.n + 1):
        for combo in combinations(range(g.n), r):
            if all(e & set(combo) for e in edges):
                covers.append(set(combo))
    return sorted(tuple(sorted(c)) for c in covers
                  if not any(d < c for d in covers))


def complex_faces(c):
    """All faces of a SimplicialComplex, as a set of frozensets."""
    if c.is_void:
        return set()
    out = {frozenset()}
    for f in c.facets:
        members = [v for v in range(c.ground) if f >> v & 1]
        for r in range(len(members) + 1):
            out.update(frozenset(s) for s in combinations(members, r))
    return out


def ideal_faces(nvars, gens):
    """Faces of the complex of a squarefree ideal: the subsets of the
    variables that contain no generator's support."""
    supports = [{v for v in range(nvars) if m >> v & 1} for m in gens]
    return {frozenset(s)
            for r in range(nvars + 1)
            for s in combinations(range(nvars), r)
            if not any(t <= set(s) for t in supports)}


def alexander_dual_faces(c):
    ground = set(range(c.ground))
    faces = complex_faces(c)
    return {frozenset(s)
            for r in range(c.ground + 1)
            for s in combinations(sorted(ground), r)
            if frozenset(ground - set(s)) not in faces}


def maximal_sets(family):
    family = [set(s) for s in family]
    return sorted(tuple(sorted(s)) for s in family
                  if not any(s < t for t in family))


def minimal_nonfaces(c):
    faces = complex_faces(c)
    non = [set(s) for r in range(c.ground + 1)
           for s in combinations(range(c.ground), r)
           if frozenset(s) not in faces]
    return sorted(tuple(sorted(s)) for s in non
                  if not any(t < s for t in non))


def colon_sets_by_antichain(monomials):
    """For each position p of a sequence of squarefree monomials (variable
    bitmasks), the union of the minimal generators of the colon ideal
    (m_0, ..., m_{p-1}) : m_p, found by reducing the m_q / gcd(m_q, m_p) to
    their minimal elements; None if one of those is not a single variable."""
    width = max((m.bit_length() for m in monomials), default=0)
    sets = [frozenset(v for v in range(width) if m >> v & 1) for m in monomials]
    out = []
    for p, mp in enumerate(sets):
        quotients = {mq - mp for mq in sets[:p]}
        mins = [q for q in quotients if not any(r < q for r in quotients)]
        if any(len(q) != 1 for q in mins):
            return None
        out.append(sum(1 << v for q in mins for v in q))
    return out


def linear_quotient_order_by_permutations(gens):
    """The lexicographically first order of gens (indices into the list)
    along which degrees never decrease and every colon ideal is linear, by
    trying every permutation in turn; None if there is none."""
    for order in permutations(range(len(gens))):
        seq = [gens[i] for i in order]
        degs = [m.bit_count() for m in seq]
        if degs == sorted(degs) and colon_sets_by_antichain(seq) is not None:
            return order
    return None


def is_chordal(g):
    """No induced cycle of length four or more."""
    for r in range(4, g.n + 1):
        for combo in combinations(range(g.n), r):
            inside = {frozenset((u, v)) for u, v in g.edges()
                      if u in combo and v in combo}
            if len(inside) != r:
                continue
            deg = {v: 0 for v in combo}
            for e in inside:
                for v in e:
                    deg[v] += 1
            if all(d == 2 for d in deg.values()) and _connected_on(combo, inside):
                return False
    return True


def _connected_on(verts, edges):
    verts = set(verts)
    if not verts:
        return True
    seen = {next(iter(verts))}
    grew = True
    while grew:
        grew = False
        for e in edges:
            u, v = tuple(e)
            if (u in seen) != (v in seen):
                seen.update(e)
                grew = True
    return seen == verts


def d_tree_values(g):
    """All d for which g can be built per the recursive clique-tree rule,
    found by backtracking over every elimination choice."""
    out = set()
    edges = edge_set(g)

    def neighbors(v, alive):
        return {u for u in alive if frozenset((u, v)) in edges and u != v}

    def is_clique(vs):
        return all(frozenset((u, v)) in edges
                   for u, v in combinations(sorted(vs), 2))

    def peelable(alive, d):
        if len(alive) == d + 1 and is_clique(alive):
            return True
        for v in sorted(alive):
            nb = neighbors(v, alive)
            if len(nb) == d and is_clique(nb):
                if peelable(alive - {v}, d):
                    return True
        return False

    for d in range(0, max(g.n, 1)):
        if g.n >= d + 1 and peelable(set(range(g.n)), d):
            out.add(d)
    return out


def random_d_tree_by_subsets(d, steps, seed):
    """family("dtree:d,steps,seed") drawn by scanning subsets: each new
    vertex v is glued to rng.choice of every d-subset of 0..v-1 that is a
    clique, in lexicographic order, with rng = random.Random(seed)."""
    rng = random.Random(seed)
    edges = set(combinations(range(d + 1), 2))
    for v in range(d + 1, d + 1 + steps):
        cliques = [c for c in combinations(range(v), d)
                   if all(e in edges for e in combinations(c, 2))]
        edges.update((u, v) for u in rng.choice(cliques))
    return build_graph(d + 1 + steps, sorted(edges))


@lru_cache(maxsize=None)
def _facets_within(g, within):
    return maximal_independent_sets(g, within)


def sheds_by_facet_sets(g, within, x):
    """x sheds G[W]: every maximal independent set of G[W - x] is also a
    maximal independent set of G[W], compared as sets of facets."""
    within = frozenset(within)
    facets = set(_facets_within(g, within))
    return all(f in facets for f in _facets_within(g, within - {x}))


def independence_faces(g):
    """Faces of Ind(G): every independent vertex set, as frozensets."""
    return frozenset(frozenset(s) for r in range(g.n + 1)
                     for s in combinations(range(g.n), r)
                     if is_independent(g, s))


def vertex_decomposable_by_faces(faces, memo=None):
    """Bjorner-Wachs on a complex given as its set of faces: vertex
    decomposable if it has one facet, or if some vertex v has a vertex
    decomposable link and deletion and no facet of del(v) is a face of
    lk(v)."""
    memo = {} if memo is None else memo
    if faces in memo:
        return memo[faces]
    facets = [f for f in faces if not any(f < h for h in faces)]
    found = len(facets) == 1
    for v in sorted(set().union(*faces)):
        if found:
            break
        deletion = frozenset(f for f in faces if v not in f)
        link = frozenset(f - {v} for f in faces if v in f)
        sheds = not any(f in link for f in deletion
                        if not any(f < h for h in deletion))
        found = (sheds and vertex_decomposable_by_faces(link, memo)
                 and vertex_decomposable_by_faces(deletion, memo))
    memo[faces] = found
    return found


def shellable_by_permutation(facets):
    """Direct Definition check over every facet order. Facets are given as
    sets; returns True iff some order satisfies the one-vertex-step rule."""
    facets = [set(f) for f in facets]
    if len(facets) <= 1:
        return True
    for perm in permutations(facets):
        if _order_is_shelling(perm):
            return True
    return False


def _order_is_shelling(order):
    for j in range(1, len(order)):
        for i in range(j):
            if not any(len(order[j] - order[l]) == 1
                       and next(iter(order[j] - order[l])) in order[j] - order[i]
                       for l in range(j)):
                return False
    return True


def _disjoint(units):
    seen = set()
    for u in units:
        if seen & set(u):
            return False
        seen.update(u)
    return True


def induced_pair(g, e, f):
    """The disjoint edges e and f induce exactly two edges: the pair
    predicate of the induced matching and path packing searches."""
    span = set(e) | set(f)
    return sum(g.has_edge(x, y) for x, y in combinations(span, 2)) == 2


def brute_matching(g):
    edges = g.edges()
    best = 0
    for r in range(len(edges), 0, -1):
        for combo in combinations(edges, r):
            if _disjoint(combo):
                return r
    return best


def brute_induced_matching(g):
    edges = g.edges()
    for r in range(len(edges), 0, -1):
        for combo in combinations(edges, r):
            if _disjoint(combo) and all(
                    induced_pair(g, a, b) for a, b in combinations(combo, 2)):
                return r
    return 0


def path_units_by_vertex_sets(g, induced):
    """The units of `invariants.path_packing_number`: the edges, then the
    walks a-v-b with a < b by centre v, each vertex set kept once (a
    triangle has three centres), with a and b not adjacent if induced. It
    is the reference for that search's lowest-centre triangle rule."""
    units = [tuple(e) for e in g.edges()]
    seen = set()
    for v in range(g.n):
        nb = [u for u in range(g.n) if g.has_edge(u, v)]
        for a, b in combinations(nb, 2):
            if induced and g.has_edge(a, b):
                continue
            key = frozenset((a, v, b))
            if key not in seen:
                seen.add(key)
                units.append((a, v, b))
    return units


def brute_path_packing(g, induced=False):
    units = path_units_by_vertex_sets(g, induced)
    for r in range(min(len(units), g.n // 2 + 1), 0, -1):
        for combo in combinations(units, r):
            if not _disjoint(combo):
                continue
            singles = [u for u in combo if len(u) == 2]
            if all(induced_pair(g, a, b) for a, b in combinations(singles, 2)):
                return r
    return 0


def whisker_private(g, x, y):
    """Whisker pairs x = (a1, b1) and y = (a2, b2) go together: b1 is
    adjacent to neither a2 nor b2, and b2 not to a1, so each b keeps its a
    as its only neighbour among the four."""
    (a1, b1), (a2, b2) = x, y
    return not (g.has_edge(b1, b2) or g.has_edge(b1, a2) or g.has_edge(b2, a1))


def brute_whisker(g):
    pairs = [(a, b) for a, b in g.edges()] + [(b, a) for a, b in g.edges()]
    for r in range(g.n // 2, 0, -1):
        for combo in combinations(pairs, r):
            cells = [x for p in combo for x in p]
            if len(set(cells)) != 2 * r:
                continue
            used = set(cells)
            ok = True
            for a, b in combo:
                touching = {u for u in used if g.has_edge(b, u)}
                if touching != {a}:
                    ok = False
                    break
            if ok:
                return r
    return 0


def ranks_from_faces(faces, field):
    """Reduced homology ranks {d: rank}, d = -1..dim, of the complex whose
    faces (bitmasks, the empty face included) are given, from dense boundary
    matrices: xor elimination over GF(2), Gaussian elimination mod p over GF(p),
    Bareiss fraction-free elimination over Q."""
    by_dim = {}
    for f in faces:
        by_dim.setdefault(f.bit_count() - 1, []).append(f)
    top = max(by_dim)
    rank = {}
    for d in range(top + 1):
        index = {f: i for i, f in enumerate(by_dim[d - 1])}
        # the i-th facet of f, dropping its i-th smallest vertex, has sign (-1)^i
        facets = [[index[f ^ v] for v in _singletons(f)] for f in by_dim[d]]
        if field.kind == "gf2":
            rank[d] = _rank_gf2_xor([sum(1 << j for j in cols) for cols in facets])
            continue
        rows = []
        for cols in facets:
            row = [0] * len(index)
            for i, j in enumerate(cols):
                row[j] = (-1) ** i
            rows.append(row)
        rank[d] = rank_gfp(rows, field.p) if field.kind == "gfp" else rank_bareiss(rows)
    return {d: len(by_dim[d]) - rank.get(d, 0) - rank.get(d + 1, 0)
            for d in range(-1, top + 1)}


def _singletons(f):
    """The one-bit masks inside f, ascending."""
    while f:
        low = f & -f
        yield low
        f ^= low


def _rank_gf2_xor(vectors):
    low = {}  # lowest set bit -> the basis vector that has it lowest
    for v in vectors:
        while v:
            b = v & -v
            if b not in low:
                low[b] = v
                break
            v ^= low[b]
    return len(low)


def rank_gfp(rows, p):
    pivots = []
    for row in rows:
        row = [x % p for x in row]
        for col, prow in pivots:
            f = row[col]
            if f:
                row = [(a - f * b) % p for a, b in zip(row, prow)]
        piv = next((idx for idx, x in enumerate(row) if x), None)
        if piv is not None:
            inv = pow(row[piv], p - 2, p)
            pivots.append((piv, [(x * inv) % p for x in row]))
    return len(pivots)


def rank_bareiss(rows):
    m = [row[:] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    r = 0
    prev = 1
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                m[i][j] = (m[i][j] * m[r][c] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        if r == nrows:
            break
    return r


def positions(sub):
    """{2^v: 2^i} for the i-th smallest element v of sub: the renumbering
    of sub's bits to 0..|sub|-1, in sub's order."""
    kept = [v for v in range(sub.bit_length()) if sub >> v & 1]
    return {1 << v: 1 << i for i, v in enumerate(kept)}


def compress(mask, pos):
    """Renumber the bits of mask by the position map pos of a set holding
    them."""
    out = 0
    while mask:
        b = mask & -mask
        mask ^= b
        out |= pos[b]
    return out


def hochster_betti_by_transversals(ideal, field):
    """Betti table of R/I from a restricted complex built afresh for every
    variable subset S: compress the generators inside S, take their minimal
    transversals, and complement them into facets. The ranks of each
    restriction are memoised by its generators in its own labels, so equal
    restrictions, within one ideal or across ideals, are ranked once."""
    entries = {}
    for s in range(1 << ideal.nvars):
        inside = [g for g in ideal.gens if not g & ~s]
        if not inside:
            if s == 0:
                entries[(0, 0)] = entries.get((0, 0), 0) + 1
            continue
        j = s.bit_count()
        pos = positions(s)
        for d, r in _transversal_ranks(tuple(sorted(compress(g, pos) for g in inside)), j, field):
            if r:
                key = (j - 1 - d, j)
                entries[key] = entries.get(key, 0) + r
    return BettiTable(entries, field.tag)


@lru_cache(maxsize=None)
def _transversal_ranks(rel, j, field):
    """The (d, rank) pairs of the complex on j vertices whose minimal
    nonfaces are rel: the complements of its minimal transversals are its
    facets."""
    full = (1 << j) - 1
    facets = [full & ~h for h in minimal_hitting_sets(rel)]
    faces = [sum(1 << v for v in face)
             for face in complex_faces(simplicial_complex(j, facets))]
    return tuple(ranks_from_faces(faces, field).items())


def reducing_vertex_by_subgraphs(g, field):
    """Lowest x with reg(G) <= reg(G - N[x]) + 1, each regularity from its
    own Betti table of a relabelled induced subgraph."""
    reg_g = hochster_betti_by_transversals(edge_ideal(g), field).reg()
    for x in range(g.n):
        h, _ = induced_subgraph(g, g.full & ~(1 << x) & ~g.adj[x])
        reg_h = hochster_betti_by_transversals(edge_ideal(h), field).reg()
        if reg_g <= reg_h + 1:
            return x, reg_g, reg_h
    return None


def restriction_homology_unreduced(ideal, field):
    """Yield (S, reduced homology ranks of the restriction to S) for S = 0
    and every non-face S, ascending, each from the rank kernel; faces are
    the sets containing no generator. A face S restricts to an acyclic full
    simplex."""
    if ideal.is_unit:
        raise ValueError("Betti numbers of the unit quotient are undefined")
    check("subset_homology", ideal.nvars)
    gens = set(ideal.gens)
    nonface = bytearray(1 << ideal.nvars)
    for s in range(len(nonface)):
        nonface[s] = s in gens or any(nonface[s ^ (1 << b)] for b in bits(s))
        if nonface[s] or not s:
            yield s, ranks_from_faces([f for f in submasks(s) if not nonface[f]], field)


def best_compatible_by_count(units, compatible):
    """The search of `invariants._best_compatible` bounded only by the
    number of candidates left: the same exploration order (ascending unit
    index, each unit first taken, then deleted), so the same first maximum
    as witness. It asks the pair predicate compatible only about two
    two-vertex units, where that search reads rows built from per-vertex
    edge tables; a longer unit goes with every unit it is disjoint from."""
    masks = [mask_of(u) for u in units]
    compat = [0] * len(units)
    for i in range(len(units)):
        for j in range(i + 1, len(units)):
            if not masks[i] & masks[j] and (
                    len(units[i]) > 2 or len(units[j]) > 2
                    or compatible(units[i], units[j])):
                compat[i] |= 1 << j
                compat[j] |= 1 << i
    best = 0
    best_set = []

    def expand(chosen, cand):
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

    expand([], (1 << len(units)) - 1)
    return [units[i] for i in best_set]


def compatible_rows_by_pairs(units, compatible):
    """The rows each search of `invariants` hands `_best_compatible`, from
    testing every later unit for disjointness in turn: row i holds the
    units j > i disjoint from unit i that go with it."""
    masks = [mask_of(u) for u in units]
    rows = []
    for i, u in enumerate(units):
        row = 0
        for j in range(i + 1, len(units)):
            if not masks[i] & masks[j] and (len(u) > 2 or len(units[j]) > 2
                                            or compatible(u, units[j])):
                row |= 1 << j
        rows.append(row)
    return rows


def recognize_d_tree_by_degree_peel(g):
    """(d, eliminated vertices) if g is a d-tree, else None: d is n - 1 for a
    complete graph and the minimum degree otherwise; simplicial vertices of
    degree d are peeled, lowest index first, until a (d+1)-clique remains."""

    def is_clique(mask):
        return all(g.adj[v] & mask == mask & ~(1 << v) for v in bits(mask))

    if g.n == 0:
        return None
    if is_clique(g.full):
        return g.n - 1, ()
    d = min(g.degree(v) for v in range(g.n))
    remaining = g.full
    elim = []
    while remaining.bit_count() > d + 1:
        found = -1
        for v in bits(remaining):
            nb = g.adj[v] & remaining
            if nb.bit_count() == d and is_clique(nb):
                found = v
                break
        if found < 0:
            return None
        elim.append(found)
        remaining &= ~(1 << found)
    if not is_clique(remaining):
        return None
    return d, tuple(elim)


@lru_cache(maxsize=None)
def iso_classes_by_full_scan(n):
    """The canonical representatives of the n-vertex classes, in increasing
    canonical form, from labelling all 2^(n-1) extensions of every class on
    n - 1 vertices."""
    if n == 0:
        return (Graph(0, ()),)
    found = {}
    for h in iso_classes_by_full_scan(n - 1):
        for s in range(1 << (n - 1)):
            adj = [h.adj[v] | (s >> v & 1) << (n - 1) for v in range(n - 1)]
            value, cg = _canonical(Graph(n, tuple(adj) + (s,)))
            found.setdefault(value, cg)
    return tuple(found[k] for k in sorted(found))


def ranks_without_clearing(faces, field):
    """Reduced homology ranks {d: rank}, d = -1..dim, of the complex whose
    faces (the empty face included) are given, from the rank of every
    boundary map taken on all its rows, dimension by dimension upwards."""
    by_dim = {}
    for f in faces:
        by_dim.setdefault(f.bit_count() - 1, []).append(f)
    top = max(by_dim, default=-2)
    brank = {d: len(_boundary_rank(by_dim[d], field))
             for d in range(0, top + 1)}
    out = {}
    for d in range(-1, top + 1):
        nullity = len(by_dim[d]) - brank.get(d, 0)
        out[d] = nullity - brank.get(d + 1, 0)
    return out


def _unions_inside(gens, n):
    """Entry S: the union of the sets in gens inside S, for S below 2^n. An
    OR-zeta transform: each pass ORs the lower half into the upper (top bit)
    and interleaves the halves, which rotates the index bits left, so after
    n passes every bit has been the top one once."""
    table = array("Q", bytes(8 << n))
    for m in gens:
        table[m] = m
    half = len(table) >> 1
    for _ in range(n):
        low, high = table[:half], table[half:]
        table[0::2] = low
        table[1::2] = array("Q", [a | b for a, b in zip(low, high)])
    return table


def restriction_homology_by_subset_rules(ideal, field):
    """The restriction pass that tests its rules subset by subset: a cone
    from the OR-zeta table of the unions of the generators inside each S,
    an isolated point from a doubling table of the points alone against
    every vertex of S, and a fold by trying every face {u, w} with u in S,
    in label order. It is the reference for the pass
    `homology._restriction_planes`, which decides each rule for every S at
    once. Read off in ascending S, with one dict per table, the planes give
    the same (S, ranks) sequence, with the same dicts shared. The face
    lists this hands the package's kernel `homology._ranks_from_faces`,
    ordered by (|S|, S), are those the pass hands it, less the generators,
    which its sphere plane settles, and the subsets a vertex-star split
    settles, and with the Alexander dual in S in place of the faces where
    the dual is the shorter list."""
    if ideal.is_unit:
        raise ValueError("Betti numbers of the unit quotient are undefined")
    n = ideal.nvars
    check("subset_homology", n)
    # covered[S]: the union of the generators inside S; S is a face iff 0.
    # The 2^n-entry tables are machine-word arrays, which hold no int objects
    covered = _unions_inside(ideal.gens, n)
    # lonely[S]: the points w ({w} a face) with {w, v} a non-face for every
    # v in S other than w, so those in S are isolated points of S; built by
    # doubling, lonely[S + v] = lonely[S] & alone[v]
    points = mask_of(w for w in range(n) if not covered[1 << w])
    alone = [points & mask_of(w for w in range(n) if w == v or covered[(1 << w) | (1 << v)])
             for v in range(n)]
    lonely = array("Q", [points])
    for v in range(n):
        lonely += array("Q", [x & alone[v] for x in lonely])
    # fold[u]: (u + w + near, u + w, longer) per face {u, w}, from the
    # generators m that stop u from coning off the link of w: near is the
    # union of their one-vertex remainders m - u, longer lists the others
    # (none for an edge ideal), so u folds w off S iff S & (u + w + near)
    # == u + w and no generator in longer lies inside S
    fold: list[list[tuple[int, int, list[int]]]] = [[] for _ in range(n)]
    for u in range(n):
        mine = [m for m in ideal.gens if m >> u & 1]
        for w in range(n):
            pair = (1 << u) | (1 << w)
            if w != u and not covered[pair]:
                near, longer = 0, []
                for m in mine:
                    r = m ^ (1 << u)
                    if not covered[r | (1 << w)]:
                        if r & (r - 1):
                            longer.append(m)
                        else:
                            near |= r
                fold[u].append((pair | near, pair, longer))
    # found[S]: the nonzero ranks of S, for the rules of later subsets; one
    # dict per distinct table, since a pass repeats a few tables many times.
    # point: by the id of such a table (None for zero), that table plus a
    # point; tables holds every table, so no id is reused during the pass
    found: list[dict[int, int] | None] = [None] * len(covered)
    tables: dict[tuple[tuple[int, int], ...], dict[int, int]] = {}
    point: dict[int, dict[int, int]] = {}
    for s in range(len(covered)):
        if covered[s] != s:
            continue
        w = s & lonely[s]
        if w:
            below = found[s ^ (w & -w)]
            ranks = point.get(id(below))
            if ranks is None:
                ranks = dict(below or {})
                ranks[0] = ranks.get(0, 0) + 1
                key = tuple(sorted(ranks.items()))
                ranks = point[id(below)] = tables.setdefault(key, dict(key))
        else:
            for u in bits(s):
                for keep, pair, longer in fold[u]:
                    if s & keep == pair and all(m & ~s for m in longer):
                        w = pair ^ (1 << u)
                        break
                if w:
                    break
            if w:
                ranks = found[s ^ w]
            else:
                ranks = homology._ranks_from_faces([f for f in submasks(s) if not covered[f]], field)
                nonzero = tuple((d, r) for d, r in ranks.items() if r)
                ranks = tables.setdefault(nonzero, dict(nonzero))
        if ranks:
            found[s] = ranks
            yield s, ranks


def generator_nerve(gens, s):
    """The nerve of the generators inside S: the sets T of them whose union
    is not S, each as the bitmask of its positions among those generators
    (in the order of gens). Every T is tried, from plain sets."""
    target = {v for v in range(s.bit_length()) if s >> v & 1}
    inside = [g for g in ({v for v in range(m.bit_length()) if m >> v & 1} for m in gens)
              if g <= target]
    return [mask_of(t) for r in range(len(inside) + 1)
            for t in combinations(range(len(inside)), r)
            if set().union(*(inside[i] for i in t)) != target]


def bit_positions(mask):
    """The set bit positions of a mask >= 0, ascending, one test per bit:
    the reference for `bitsets.bits`."""
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def rule_tables_by_face_shifts(gens, n):
    """(kernel, point, fold, sphere, faces, face) of the restriction pass,
    built as the pass once did: each face test shifts the 2^n-bit face
    plane, each pair and each generator through u is tried against every
    w, and the subsets meeting a vertex set are ORed afresh each time; the
    sphere plane holds each generator that no rule took. It is the
    reference for `homology._rule_tables`, which reads the same tests off
    per-vertex masks and a byte image of the faces. Positions come from
    `bit_positions`; the vertex planes and the byte image are the package's
    `vertex_masks` and `homology._spread`, each checked on its own."""
    size = 1 << n
    full = (1 << size) - 1
    has = vertex_masks(n)

    def any_of(vs):  # the subsets meeting vs
        out = 0
        for v in bit_positions(vs):
            out |= has[v]
        return out

    inside = {}
    through = [0] * n
    nonfaces = 0
    for m in gens:
        x = full
        for v in bit_positions(m):
            x &= has[v]
        inside[m] = x
        nonfaces |= x
        for v in bit_positions(m):
            through[v] |= x
    faces = full & ~nonfaces
    cone = 0
    for v in range(n):
        cone |= has[v] & ~through[v]
    point = [0] * n
    for w in range(n):
        if faces >> (1 << w) & 1:
            others = mask_of(v for v in range(n) if v != w and faces >> ((1 << w) | (1 << v)) & 1)
            point[w] = has[w] & ~any_of(others)
    fold = [0] * n
    for u in range(n):
        rest = [(m ^ (1 << u), m) for m in gens if m >> u & 1]
        for w in range(n):
            if w == u or not faces >> ((1 << u) | (1 << w)) & 1:
                continue
            off, block = 0, has[u] & has[w]
            for r, m in rest:
                if faces >> (r | (1 << w)) & 1:
                    if r & (r - 1):
                        block &= ~inside[m]
                    else:
                        off |= r
            fold[w] |= block & ~any_of(off)
    taken = cone
    for rule in (point, fold):
        for w, x in enumerate(rule):
            rule[w] = x & ~taken
            taken |= x
    sphere = sum(1 << m for m in gens if not taken >> m & 1)
    return full & ~taken & ~sphere, point, fold, sphere, faces, homology._spread(faces, size)


def hitting_sets_by_antichain(sets):
    """Minimal transversals of a family of bitmask sets, sorted by (degree,
    mask), by Berge's incremental construction as `ideals.minimal_hitting_sets`
    once ran it: each member, by ascending size, keeps the transversals that
    meet it and extends the others by each of its elements, and the
    candidates are cut back to their minimal elements by testing each
    against every one kept before it. The reference for the step that tests
    each extension against the kept transversals alone. Empty family ->
    [0]; any empty member -> no transversal."""
    hs = [0]
    for s in sorted(sets, key=lambda x: x.bit_count()):
        if s == 0:
            return []
        keep = [h for h in hs if h & s]
        grow = [h for h in hs if not h & s]
        new = keep + [h | (1 << b) for h in grow for b in bit_positions(s)]
        hs = []
        for m in sorted(set(new), key=lambda x: (x.bit_count(), x)):
            if not any(k & m == k for k in hs):
                hs.append(m)
    return hs
