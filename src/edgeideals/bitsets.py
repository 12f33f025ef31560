"""Helpers for sets of non-negative integers encoded as Python ints: vertex
subsets of {0..63}, and the 2^n-bit planes whose bit S stands for the
vertex subset S."""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator


def _positions_below(width: int) -> tuple[tuple[int, ...], ...]:
    """Entry mask: the ascending set bit positions of mask, for every mask
    below 2^width. Built by doubling: the masks below 2^(v+1) are those
    below 2^v, then each of them with v added."""
    table: list[tuple[int, ...]] = [()]
    for v in range(width):
        table += [t + (v,) for t in table]
    return tuple(table)


# every vertex mask up to the subset_homology cap of 12 variables
_LOW = _positions_below(12)


def bits(mask: int) -> tuple[int, ...]:
    """The set bit positions of mask >= 0 in ascending order: read off one
    table below 2^12, found one bit at a time above it."""
    if mask < 4096:
        return _LOW[mask]
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return tuple(out)


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def submasks(mask: int) -> Iterator[int]:
    """Yield every subset of mask in ascending order, from 0 to mask."""
    s = 0
    while True:
        yield s
        if s == mask:
            return
        s = (s - mask) & mask


@lru_cache(maxsize=None)
def vertex_masks(n: int) -> tuple[int, ...]:
    """Per vertex v below n, the 2^n-bit int whose bit S is set iff v is in
    S: runs of 2^v clear and 2^v set bits, repeated. Built once per n."""
    out = []
    for v in range(n):
        run = 1 << v
        x, width = ((1 << run) - 1) << run, 2 * run
        while width < 1 << n:
            x |= x << width
            width *= 2
        out.append(x)
    return tuple(out)
