"""Search caps: the input sizes past which an exhaustive computation
refuses to run, in one table.

A cap marks where exhaustive answers stop being cheap. Raising one is a
code change, not an option, so that every published number stays an
exhaustively verified one.
"""

from __future__ import annotations

# name -> (cap, what it counts, what it bounds)
CAPS: dict[str, tuple[int, str, str]] = {
    "bitmask": (64, "vertices", "graphs and complexes held as one-word bitmasks"),
    "canonical": (8, "vertices", "canonical forms and isomorph-free enumeration"),
    "invariants": (16, "vertices",
                   "matching, induced-matching, path-packing and whisker searches"),
    "vertex_decomposition": (16, "vertices", "vertex-decomposition search"),
    "subset_homology": (12, "variables", "Hochster's formula over every variable subset"),
    "homology": (24, "ground elements", "reduced homology of one complex"),
    "shelling": (24, "facets", "shelling search through linear quotients"),
    "shelling_bruteforce": (12, "facets", "backtracking over facet orders"),
    # proving that no order exists can visit 2^m placed-generator sets
    "linear_quotients": (40, "generators", "linear-quotient order search"),
}


class CapExceeded(ValueError):
    """An input past a search cap; carries the cap's name, limit and the value."""

    def __init__(self, name: str, value: int):
        cap, counts, bounds = CAPS[name]
        self.name, self.cap, self.value = name, cap, value
        super().__init__(f"{value} {counts} exceed the {name} cap of {cap} ({bounds})")


def fits(name: str, value: int) -> bool:
    return value <= CAPS[name][0]


def check(name: str, value: int) -> None:
    if not fits(name, value):
        raise CapExceeded(name, value)
