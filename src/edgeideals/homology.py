"""Exact simplicial homology ranks and the subset-homology (Hochster)
computation of graded Betti numbers, over GF(2), GF(p), or the rationals.

GF(2) ranks use bitpacked Gaussian elimination; rational ranks use Bareiss
fraction-free elimination on arbitrary-precision integers, so there is no
floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .betti import BettiTable
from .bitsets import bits, submasks
from .complexes import SimplicialComplex
from .graphs import Graph
from .ideals import SquarefreeIdeal, edge_ideal
from .limits import check


@dataclass(frozen=True)
class FieldChoice:
    kind: str  # "gf2" | "gfp" | "q"
    p: int | None = None

    @property
    def tag(self) -> str:
        if self.kind == "gfp":
            return f"gf{self.p}"
        return self.kind


GF2 = FieldChoice("gf2")
GF3 = FieldChoice("gfp", 3)
Q = FieldChoice("q")


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def parse_field(text: str) -> FieldChoice:
    t = text.strip().lower()
    if t in ("q", "rational", "rationals"):
        return Q
    if t.startswith("gf"):
        try:
            p = int(t[2:])
        except ValueError:
            raise ValueError(f"bad field {text!r}") from None
        if p == 2:
            return GF2
        if not _is_prime(p) or p >= 1 << 31:
            raise ValueError(f"field characteristic must be a prime below 2^31, got {p}")
        return FieldChoice("gfp", p)
    raise ValueError(f"bad field {text!r}")


def _rank_gf2(vectors: list[int]) -> int:
    lead: dict[int, int] = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top in lead:
                v ^= lead[top]
            else:
                lead[top] = v
                break
    return len(lead)


def _rank_gfp(rows: list[list[int]], p: int) -> int:
    pivots: list[tuple[int, list[int]]] = []
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


def _rank_bareiss(rows: list[list[int]]) -> int:
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


def _boundary_rank(prev_faces: list[int], cur_faces: list[int], field: FieldChoice) -> int:
    if not prev_faces or not cur_faces:
        return 0
    index = {f: i for i, f in enumerate(prev_faces)}
    if field.kind == "gf2":
        vecs = []
        for f in cur_faces:
            v = 0
            for b in bits(f):
                v |= 1 << index[f ^ (1 << b)]
            vecs.append(v)
        return _rank_gf2(vecs)
    rows = []
    for f in cur_faces:
        row = [0] * len(prev_faces)
        for k, b in enumerate(bits(f)):
            row[index[f ^ (1 << b)]] = 1 if k % 2 == 0 else -1
        rows.append(row)
    if field.kind == "gfp":
        return _rank_gfp(rows, field.p)
    if field.kind == "q":
        return _rank_bareiss(rows)
    raise ValueError(f"unknown field kind {field.kind!r}")


def face_counts(c: SimplicialComplex) -> dict[int, int]:
    """Number of faces in each dimension, including the empty face at -1."""
    if c.is_void:
        return {}
    out: dict[int, int] = {}
    for f in c.faces():
        d = f.bit_count() - 1
        out[d] = out.get(d, 0) + 1
    return out


def _ranks_from_faces(faces: list[int], field: FieldChoice) -> dict[int, int]:
    by_dim: dict[int, list[int]] = {}
    for f in faces:
        by_dim.setdefault(f.bit_count() - 1, []).append(f)
    top = max(by_dim)
    brank = {d: _boundary_rank(by_dim[d - 1], by_dim[d], field)
             for d in range(0, top + 1)}
    out = {}
    for d in range(-1, top + 1):
        nullity = len(by_dim[d]) - brank.get(d, 0)
        out[d] = nullity - brank.get(d + 1, 0)
    return out


def reduced_homology_ranks(c: SimplicialComplex, field: FieldChoice = GF2) -> dict[int, int]:
    """Ranks of the reduced homology groups in dimensions -1..dim.

    The empty complex {emptyset} has rank 1 in dimension -1; the void
    complex has no faces and an empty rank table.
    """
    check("homology", c.ground)
    if c.is_void:
        return {}
    return _ranks_from_faces(c.faces(), field)


def restriction_homology(ideal: SquarefreeIdeal,
                         field: FieldChoice = GF2) -> Iterator[tuple[int, dict[int, int]]]:
    """Yield (S, reduced homology ranks of the ideal's complex restricted to
    S) for S = 0 and every non-face S, ascending; faces of that complex are
    the sets containing no generator, and the faces of the restriction to S
    are the faces inside S. A face S restricts to an acyclic full simplex."""
    if ideal.is_unit:
        raise ValueError("Betti numbers of the unit quotient are undefined")
    check("subset_homology", ideal.nvars)
    gens = set(ideal.gens)
    nonface = bytearray(1 << ideal.nvars)
    for s in range(len(nonface)):
        nonface[s] = s in gens or any(nonface[s ^ (1 << b)] for b in bits(s))
        if nonface[s] or not s:
            yield s, _ranks_from_faces([f for f in submasks(s) if not nonface[f]], field)


def hochster_betti(ideal: SquarefreeIdeal, field: FieldChoice = GF2) -> BettiTable:
    """Graded Betti numbers of R/I for a squarefree monomial ideal I, by
    summing reduced homology ranks of the restrictions of the associated
    complex to every variable subset S:

        beta_{i,j}(R/I) = sum over |S| = j of rank Htilde_{j-i-1}(complex|_S)
    """
    entries: dict[tuple[int, int], int] = {}
    for s, ranks in restriction_homology(ideal, field):
        j = s.bit_count()
        for d, r in ranks.items():
            if r:
                key = (j - 1 - d, j)
                entries[key] = entries.get(key, 0) + r
    return BettiTable(entries, field.tag)


def reg_pd(g: Graph, field: FieldChoice = GF2) -> tuple[int, int]:
    """(regularity, projective dimension) of R/I(g) over the given field."""
    table = hochster_betti(edge_ideal(g), field)
    return table.reg(), table.pd()
