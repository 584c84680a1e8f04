"""Tiny helpers for int-as-bitset manipulation.

A mask is a plain non-negative Python ``int``; bit ``i`` set means "element
``i`` of the owning :class:`~repro.core.vocabulary.Vocabulary` is in the
set".  Python ints are arbitrary-precision, so the same code covers
hypergraphs of any size; below ~64 elements every operation is a single
machine-word instruction.
"""

from __future__ import annotations

from typing import Iterator


def bit_count(mask: int) -> int:
    """``|S|`` for a mask (popcount)."""
    return mask.bit_count()


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bits of ``mask`` as single-bit masks, lowest first."""
    while mask:
        bit = mask & -mask
        yield bit
        mask ^= bit
