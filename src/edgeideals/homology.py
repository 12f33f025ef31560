"""Exact simplicial homology ranks and the subset-homology (Hochster)
computation of graded Betti numbers, over GF(2), GF(p), or the rationals.

A field is its characteristic: FieldChoice(p) for a prime p, FieldChoice()
for Q. Every field's ranks come from one sparse elimination loop with one
pivot rule: each row is reduced at its lowest column, against the pivot
rows found before it, until that column has no pivot, and then pivots
there. Over GF(p), GF(2) included, the row is scaled by an inverse mod p;
over Q by +-1, which keeps the rows integers, or else by an exact
Fraction. There is no floating point anywhere.

The boundary maps of a complex are eliminated from the top dimension down
to the vertices, with clearing: the boundary of the d-faces leaves out the
rows of the d-faces that the elimination one dimension up pivoted on, since
those rows would all reduce to zero. The edges and the vertices go through
the same loop as every other dimension.

Hochster's restriction pass (`_restriction_planes`) settles most variable
subsets S by exact rules, on 2^n-bit planes: cones, isolated points, folds,
vertex-star splits, and the generators, each the boundary of a simplex. The
rest reach the rank loop as the shorter of two lists with the homology of
the restriction to S: its faces, or its Alexander dual in S.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress

from .betti import BettiTable
from .bitsets import bits, vertex_masks
from .complexes import SimplicialComplex
from .graphs import read_ints
from .ideals import SquarefreeIdeal
from .limits import check

# a table of nonzero reduced homology ranks: (d, rank) pairs by ascending d
Ranks = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class FieldChoice:
    """A coefficient field by its characteristic: GF(p) for a prime p below
    2^31, or the rationals when p is None. Anything else raises ValueError."""
    p: int | None = None

    def __post_init__(self) -> None:
        if self.p is not None and not (isinstance(self.p, int) and 2 <= self.p < 1 << 31
                                       and _is_prime(self.p)):
            raise ValueError(f"field characteristic must be a prime below 2^31, got {self.p!r}")

    @property
    def kind(self) -> str:
        """The field family that benchmark counters are labelled by: "gf2",
        "gfp" or "q"."""
        return self.tag if self.p in (None, 2) else "gfp"

    @property
    def tag(self) -> str:
        return "q" if self.p is None else f"gf{self.p}"


def _is_prime(p: int) -> bool:
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


GF2 = FieldChoice(2)
GF3 = FieldChoice(3)
Q = FieldChoice()


def parse_field(text: str) -> FieldChoice:
    t = text.strip().lower()
    if t in ("q", "rational", "rationals"):
        return Q
    if t.startswith("gf"):
        (p,) = read_ints(t[2:], 1, f"bad field {text!r}")
        return FieldChoice(p)
    raise ValueError(f"bad field {text!r}")


def _boundary_rank(faces: list[int], field: FieldChoice) -> set[int]:
    """The faces one dimension lower that the elimination of the boundary
    map of these faces, all of one dimension, pivoted on: one per unit of
    rank."""
    # the face f loses its k-th smallest vertex with sign (-1)^k; a row's
    # columns are the masks of the faces in its boundary
    minus = field.p - 1 if field.p else -1
    rows = []
    for f in faces:
        row, x, sign = {}, f, 1
        while x:
            b = x & -x
            x ^= b
            row[f ^ b] = sign
            sign = minus if sign == 1 else 1
        rows.append(row)
    return set(_rank_sparse(rows, field.p))


def _rank_sparse(rows: list[dict[int, int]], p: int | None) -> list[int]:
    """The pivot columns, one per unit of rank, of the rows {column: entry},
    which it consumes: over GF(p) with entries in 0..p-1, or over Q (p is
    None) with integer entries. Each row is reduced at its lowest column:
    while that column has a pivot row, the row subtracts it, and a row still
    nonzero then pivots on its lowest column, scaled to a 1 there. Over Q an
    entry +-1 keeps the rows integers; any other scales by a Fraction."""
    # pivots[c]: the rest of the row that pivots on column c, scaled to a 1
    # there; every column in it is above c
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        while row:
            c = min(row)
            rest = pivots.get(c)
            if rest is None:
                break
            x = row.pop(c)
            for c2, v in rest.items():
                y = row.get(c2, 0)
                z = (y - x * v) % p if p else y - x * v
                if z:
                    row[c2] = z
                elif y:
                    del row[c2]
        if not row:
            continue
        x = row.pop(c)
        if p:
            scale = pow(x, -1, p)
        elif x in (1, -1):
            scale = x
        else:
            # imported here, not at the top: fractions also loads decimal,
            # which adds milliseconds to every start of the package, and
            # most runs never reach this branch
            from fractions import Fraction
            scale = Fraction(1, x)
        pivots[c] = {c2: v * scale % p if p else v * scale for c2, v in row.items()}
    return list(pivots)


def _ranks_from_faces(faces: list[int], field: FieldChoice) -> dict[int, int]:
    """Reduced homology ranks {d: rank}, d = -1..dim, of the complex whose
    faces (the empty face included) are given. The boundary maps are
    eliminated from the top dimension down to the vertices, and the rows of
    the d-faces that the elimination of the boundary of the (d+1)-faces
    pivoted on are left out of the boundary of the d-faces (clearing): each
    reduced pivot row is a boundary, so the boundary of the d-faces maps it
    to zero, and it is zero below its pivot column, so on the pivoted faces
    these rows are triangular with unit diagonal, so with the other d-faces
    they span every d-chain, and the left-out rows add nothing to the
    image."""
    # by_size[k]: the faces with k vertices, of dimension k - 1
    by_size: list[list[int]] = [[] for _ in range(max(map(int.bit_count, faces), default=-1) + 1)]
    for f in faces:
        by_size[f.bit_count()].append(f)
    top = len(by_size) - 1
    # rank[k]: the rank of the boundary of the faces with k vertices
    rank = [0] * (top + 2)
    cleared: set[int] = set()
    for k in range(top, 0, -1):
        cleared = _boundary_rank([f for f in by_size[k] if f not in cleared], field)
        rank[k] = len(cleared)
    return {k - 1: len(by_size[k]) - rank[k] - rank[k + 1] for k in range(top + 1)}


def reduced_homology_ranks(c: SimplicialComplex, field: FieldChoice = GF2) -> dict[int, int]:
    """Ranks of the reduced homology groups in dimensions -1..dim.

    The empty complex {emptyset} has rank 1 in dimension -1; the void
    complex has no faces and an empty rank table.
    """
    check("homology", c.ground)
    return _ranks_from_faces(c.faces(), field)


_BIT_BYTE = bytes.maketrans(b"01", b"\0\1")


def _spread(x: int, size: int) -> bytes:
    """The bytes whose byte S is bit S of x, 0 or 1, for S below size."""
    return format(x, f"0{size}b").encode().translate(_BIT_BYTE)[::-1]


@lru_cache(maxsize=None)
def _levels(n: int) -> tuple[int, ...]:
    """Per size k = 0..n, the 2^n-bit int whose bit S is set iff S has k
    elements: adding vertex v keeps the level-k subsets and shifts the
    level-(k-1) ones by 2^v."""
    levels = [1]
    for v in range(n):
        levels = [lo | hi << (1 << v) for lo, hi in zip(levels + [0], [0] + levels)]
    return tuple(levels)


def _rule_tables(gens: tuple[int, ...], n: int
                 ) -> tuple[int, list[int], list[int], int, int, bytes]:
    """(kernel, point, fold, sphere, faces, face) for the restriction pass
    over the ideal with these generators in n variables. Each rule is
    decided for every S at once, on 2^n-bit ints whose bit S stands for S:
    point[w] and fold[w] hold the subsets whose first rule takes w off, as
    an isolated point or by a fold, sphere the generators that no rule
    takes, and kernel the non-cone subsets that no rule settles. The rules
    take priority in that order, cones first, then points, then folds, each
    by w, then spheres, so these planes are disjoint. Bit S of faces, and
    byte S of face, is 1 iff S is a face.

    One sweep over the generators records three vertex masks per vertex,
    and the point and fold rules are read off them: partner[w], the v != w
    with {v, w} a face (no generator inside {v, w}); single[u], the
    one-vertex remainders m - u of the generators m through u; and
    longer[u], the other (m - u, m) pairs (none for an edge ideal), the only
    ones whose face test reads the byte image."""
    size = 1 << n
    full = (1 << size) - 1
    has = vertex_masks(n)
    meets: dict[int, int] = {}

    def any_of(vs: int) -> int:  # the subsets meeting vs, memoised by vs alone
        x = meets.get(vs)
        if x is None:
            x = 0
            for v in bits(vs):
                x |= has[v]
            meets[vs] = x
        return x

    # inside[m]: the subsets holding the generator m; through[v]: those
    # holding a generator through v; S is a face iff it holds none, and a
    # cone iff it holds a vertex that no generator inside S goes through
    inside = {}
    through = [0] * n
    nonfaces = 0
    partner = [((1 << n) - 1) ^ (1 << w) for w in range(n)]
    single = [0] * n
    longer: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for m in gens:
        x = full
        for v in bits(m):
            x &= has[v]
        inside[m] = x
        nonfaces |= x
        if m & (m - 1) == 0:  # a variable: no pair holding it is a face
            partner = [p & ~m for p in partner]
            partner[m.bit_length() - 1] = 0
        for u in bits(m):
            through[u] |= x
            r = m ^ (1 << u)
            if r & (r - 1):
                longer[u].append((r, m))
            else:
                single[u] |= r
                partner[u] &= ~r
    faces = full & ~nonfaces
    face = _spread(faces, size)
    cone = 0
    for v in range(n):
        cone |= has[v] & ~through[v]
    # an isolated point w is alone in S if S meets none of its partners; u
    # folds w off S if S holds both and none of the generators that keep u
    # from coning off the link of w: those m through u with (m - u) + w a
    # face, single[u] & partner[w] where m - u is one vertex
    point = [has[w] & ~any_of(partner[w]) if face[1 << w] else 0 for w in range(n)]
    fold = [0] * n
    for u in range(n):
        for w in bits(partner[u]):
            block = has[u] & has[w]
            for r, m in longer[u]:
                if face[r | 1 << w]:
                    block &= ~inside[m]
            fold[w] |= block & ~any_of(single[u] & partner[w])
    taken = cone
    for rule in (point, fold):
        for w, x in enumerate(rule):
            rule[w] = x & ~taken
            taken |= x
    # the restriction to a generator m is the boundary of the simplex on m:
    # the generators are an antichain, so m is the only one inside m
    sphere = 0
    for m in gens:
        sphere |= 1 << m
    sphere &= ~taken
    return full & ~taken & ~sphere, point, fold, sphere, faces, face


def _two_variable_stars(gens: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    """(2^v, N[v]) for each vertex v, ascending, that lies in some generator
    and whose generators all have two variables; N[v] is v and its partners
    in them (for an edge ideal, every non-isolated vertex and its closed
    neighbourhood)."""
    near = [0] * n
    other = 0  # the vertices of the generators that do not have two variables
    for m in gens:
        for v in bits(m):
            near[v] |= m
        if m.bit_count() != 2:
            other |= m
    return [(1 << v, x) for v, x in enumerate(near) if x and not other >> v & 1]


def _split(below: Ranks, link: Ranks) -> Ranks | None:
    """The table of S split at the star of v, from the tables of S - v and
    of the link S - N[v]: the one of S - v plus the link's shifted up one
    degree; None if some degree is nonzero in both, where Mayer-Vietoris
    leaves the connecting maps undecided."""
    ranks = dict(below)
    if any(d in ranks for d, _ in link):
        return None
    for d, r in link:
        ranks[d + 1] = ranks.get(d + 1, 0) + r
    return tuple(sorted(ranks.items()))


def _restriction_planes(ideal: SquarefreeIdeal, field: FieldChoice) -> dict[Ranks, int]:
    """Hochster's restriction pass: {table: plane} for each distinct nonzero
    table of reduced homology ranks, plane the 2^n-bit int whose bit S is
    set iff the restriction to S has that table. Faces of the ideal's
    complex are the sets containing no generator, and the faces of the
    restriction to S are the faces inside S.

    Three exact homotopy rules skip most restrictions. If some vertex of S
    lies in no generator inside S, the restriction is a cone (for an edge
    ideal: G[S] has an isolated vertex). If S holds w with {w} a face and
    {w, v} a non-face for every other v in S, w is an isolated point, so
    the restriction to S is the one to S - w plus a point: one more rank in
    degree 0 (for an edge ideal: w is adjacent to the rest of S). S - w is
    never the complex {emptyset}, since S is no cone and w lies in a
    generator {w, v} inside S. If S holds u != w with {u, w} a face and no
    generator m inside S with u in m and (m - u) + w a face, the link of w
    is a cone over u, so the restriction to S is homotopy equivalent to the
    one to S - w (for an edge ideal: u, w non-adjacent and N(u) within S
    inside N(w), Engstrom's fold lemma).

    A fourth rule, a vertex-star split, settles most of the rest from two
    smaller subsets. Let v in S lie in some generator, all of whose
    generators have two variables, and let N[v] be v and its partners in
    them (for an edge ideal: any non-isolated v and its closed
    neighbourhood). Then the link of v in the restriction to S is the
    restriction to S - N[v], and the restriction to S is the one to S - v
    with the cone over that link glued on. The cone has no homology, so
    Mayer-Vietoris gives the exact sequence
    ... -> H_d(S - N[v]) -> H_d(S - v) -> H_d(S) -> H_{d-1}(S - N[v]) -> ...
    and where no degree d has both H_d(S - N[v]) and H_d(S - v) nonzero,
    every map of the first kind is zero: the ranks of S are those of S - v
    plus those of S - N[v] shifted up one degree, over every field. (This
    is the homology form of Adamaszek's splitting of independence
    complexes, JCTA 119, 2012; the point rule is the case S - N[v] empty.)
    The lowest such v where the degrees do not meet is taken. Only the
    rest reach a rank kernel: on the 12-vertex graphs `analyze` is
    benchmarked on, 11 of their 45,056 restrictions, S empty on each
    graph. An ideal with no two-variable star (most cover ideals) hands
    the kernel every subset that the first three rules and the spheres
    leave.

    A generator m that no rule takes restricts to the boundary of the
    simplex on m, since the generators are an antichain and m is the only
    one inside m: one rank in degree |m| - 2. (No generator is a cone or
    folds, and the point rule takes every generator of two variables.)

    The kernel sees the smaller of two complexes with the homology of the
    restriction to a nonempty S: its faces, or its Alexander dual in S,
    the F inside S with S - F a non-face. F -> S - F pairs off the subsets
    of S, so the two lists have 2^|S| faces together. The faces inside S
    are counted first, as the popcount of the face plane masked to the
    subsets of S, and only the smaller list is made, the faces on a tie.
    Combinatorial Alexander duality (Bjorner and Tancer, DCG 42, 2009)
    gives rank Htilde_d of the restriction = rank Htilde_{|S|-d-3} of the
    dual, over every field. S empty gets its own faces, {emptyset}.

    The pass settles the subsets one size k = 0..n at a time. First the
    size-k subsets that a fold or a point takes w off are read off the
    size-(k-1) planes shifted left by 2^w, masked by the rule's plane: a
    fold keeps the table of S - w, a point adds one rank in degree 0 to it;
    the size-(k-1) subsets in no plane have zero homology. The rule planes
    need no masking by size: shifting a size-(k-1) T left by 2^w lands on
    T + w when T misses w, and on a set without w when the carry clears
    bit w, and every subset in a rule's plane for w holds w, so each bit
    that survives the mask is some T + w, of size k. The size-k generators
    of the sphere plane join the table ((k - 2, 1),). Then each size-k
    kernel subset, ascending, is split at the star of its lowest vertex that
    allows it, or else handed to the rank kernel as its own faces or as its
    dual, whichever list is shorter. A split reads the tables
    of S - v and S - N[v] off byte images of the planes, taken once per
    size, so the size-k results join the planes after the whole size.
    Betti tables and `reducing_vertex` read the planes directly. Which rule
    applies is a property of S, so the cost does not depend on the labels."""
    if ideal.is_unit:
        raise ValueError("Betti numbers of the unit quotient are undefined")
    n = ideal.nvars
    check("subset_homology", n)
    kernel, point, fold, sphere, faces, face = _rule_tables(ideal.gens, n)
    stars = _two_variable_stars(ideal.gens, n)
    levels = _levels(n)
    size = 1 << n
    width = (size + 7) >> 3
    has = vertex_masks(n)
    by_size: list[list[int]] = [[] for _ in range(n + 1)]
    for s in compress(range(size), _spread(kernel, size)):
        by_size[s.bit_count()].append(s)
    planes: dict[Ranks, int] = {}
    images: list[tuple[Ranks, bytes]] = []
    splits: dict[tuple[Ranks, Ranks], Ranks | None] = {}

    def table_at(t: int) -> Ranks:
        i, b = t >> 3, 1 << (t & 7)
        return next((table for table, image in images if image[i] & b), ())

    rules = [(1 << w, f, p) for w, (f, p) in enumerate(zip(fold, point)) if f | p]
    for k in range(n + 1):
        if k:
            below = [(table, plane & levels[k - 1]) for table, plane in planes.items()
                     if plane & levels[k - 1]]
            zero = levels[k - 1]
            for _, x in below:
                zero &= ~x
            for table, x in below + [((), zero)]:
                folded = pointed = 0
                for shift, f, p in rules:
                    y = x << shift
                    folded |= y & f
                    pointed |= y & p
                if folded and table:
                    planes[table] |= folded
                if pointed:
                    ranks = dict(table)
                    ranks[0] = ranks.get(0, 0) + 1
                    up = tuple(sorted(ranks.items()))
                    planes[up] = planes.get(up, 0) | pointed
        spheres = sphere & levels[k]
        if spheres:
            planes[((k - 2, 1),)] = planes.get(((k - 2, 1),), 0) | spheres
        if not by_size[k]:
            continue
        # cleared first, so the last size's images are freed before these
        images.clear()
        images += [(table, plane.to_bytes(width, "little")) for table, plane in planes.items()]
        found: dict[Ranks, bytearray] = {}
        for s in by_size[k]:
            table = None
            for v, near in stars:
                if s & v:
                    key = (table_at(s ^ v), table_at(s & ~near))
                    if key not in splits:
                        splits[key] = _split(*key)
                    table = splits[key]
                    if table is not None:
                        break
            if table is None:
                # the faces inside S: those holding no vertex outside S
                within = faces
                for v in bits((size - 1) ^ s):
                    within &= ~has[v]
                # the faces inside S, or its dual, ascending: both are closed
                # under subsets, so each member is a listed one extended by
                # its highest vertex
                dual = s and 2 * within.bit_count() > 1 << k
                listed, rest = [0], s
                while rest:
                    b = rest & -rest
                    rest ^= b
                    if dual:
                        listed += [f | b for f in listed if not face[s ^ f ^ b]]
                    else:
                        listed += [f | b for f in listed if face[f | b]]
                ranks = _ranks_from_faces(listed, field)
                if dual:
                    table = tuple(sorted((k - 3 - e, r) for e, r in ranks.items() if r))
                else:
                    table = tuple((d, r) for d, r in ranks.items() if r)
            if table:
                if table not in found:
                    found[table] = bytearray(width)
                found[table][s >> 3] |= 1 << (s & 7)
        while found:
            table, image = found.popitem()
            planes[table] = planes.get(table, 0) | int.from_bytes(image, "little")
    return planes


def _betti_from_planes(planes: dict[Ranks, int], n: int, field: FieldChoice) -> BettiTable:
    """The Betti table of the pass `_restriction_planes` over n variables:
    beta_{i,j} sums, over the tables, the number of size-j subsets in the
    table's plane times its rank in degree j - i - 1."""
    entries: dict[tuple[int, int], int] = {}
    for table, plane in planes.items():
        for j, level in enumerate(_levels(n)):
            count = (plane & level).bit_count()
            if count:
                for d, r in table:
                    key = (j - 1 - d, j)
                    entries[key] = entries.get(key, 0) + count * r
    return BettiTable(entries, field.tag)


def hochster_betti(ideal: SquarefreeIdeal, field: FieldChoice = GF2) -> BettiTable:
    """Graded Betti numbers of R/I for a squarefree monomial ideal I, by
    summing reduced homology ranks of the restrictions of the associated
    complex to every variable subset S:

        beta_{i,j}(R/I) = sum over |S| = j of rank Htilde_{j-i-1}(complex|_S)
    """
    return _betti_from_planes(_restriction_planes(ideal, field), ideal.nvars, field)
