"""Helpers for subsets of {0..63} encoded as Python ints."""

from __future__ import annotations

from typing import Iterable, Iterator


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


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


def vertex_masks(n: int) -> list[int]:
    """Per vertex v below n, the 2^n-bit int whose bit S is set iff v is in
    S: runs of 2^v clear and 2^v set bits, repeated."""
    out = []
    for v in range(n):
        run = 1 << v
        x, width = ((1 << run) - 1) << run, 2 * run
        while width < 1 << n:
            x |= x << width
            width *= 2
        out.append(x)
    return out
