"""Graded Betti tables as sparse {(i, j): rank} maps."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class BettiTable:
    """entries[(i, j)] = beta_{i,j}(R/I), so beta_{0,0} = 1 for any proper
    ideal I; zero ranks are dropped on construction.

    field_tag records which coefficient field produced the table ("gf2",
    "gf3", "q", ...); None for characteristic-free tables derived from a
    combinatorial certificate.
    """

    entries: dict[tuple[int, int], int]
    field_tag: str | None = None

    def __post_init__(self):
        self.entries = {k: v for k, v in self.entries.items() if v}

    def reg(self) -> int:
        return max((j - i for i, j in self.entries), default=0)

    def pd(self) -> int:
        return max((i for i, _ in self.entries), default=0)

    def totals(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for (i, _), r in self.entries.items():
            out[i] = out.get(i, 0) + r
        return out

    def triples(self) -> list[tuple[int, int, int]]:
        return sorted((i, j, r) for (i, j), r in self.entries.items())

