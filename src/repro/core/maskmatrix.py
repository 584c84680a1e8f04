"""Batched bitmask algebra: N arbitrary-width masks as an N×W uint64 matrix.

The decomposition search plane (candidates-graph construction) runs three
set tests per inner loop -- *does the row intersect S*, *is the row a subset
of S*, *does the row cover S* -- over the
``Ψ = Σ_{i≤k} C(n,i)`` k-vertices and their components.  The scalar core
(:mod:`repro.core.bitset_hypergraph`) performs them one ``&`` at a time on
Python big-ints; a :class:`MaskMatrix` stores the same masks as an ``N×W``
``uint64`` numpy array (``W = ceil(num_bits/64)`` words per row, a flat 1-D
array in the common ``W == 1`` case) so each test becomes one broadcasted
array expression over all N rows at once.

All query methods return numpy boolean vectors; combine them with ``&`` and
turn them into index vectors with ``numpy.flatnonzero``.

The scalar decomposition engine (``vectorized=False``) performs the same
tests with big-int loops and is this module's oracle.
"""

from __future__ import annotations

from typing import Iterable, Tuple

try:  # pragma: no cover - numpy is present in the supported environments
    import numpy as np
except ImportError:  # pragma: no cover - exercised only without numpy
    np = None  # type: ignore[assignment]

#: Bits per matrix word.
WORD_BITS = 64

_WORD_MASK = (1 << WORD_BITS) - 1


def _word_count(num_bits: int) -> int:
    return max(1, (num_bits + WORD_BITS - 1) // WORD_BITS)


def _split_words(mask: int, width: int) -> Tuple[int, ...]:
    """The ``width`` little-endian 64-bit words of ``mask``."""
    return tuple((mask >> (WORD_BITS * w)) & _WORD_MASK for w in range(width))


class MaskMatrix:
    """N bitmasks of up to ``num_bits`` bits, stored row-wise as uint64 words.

    Rows keep their construction order, so a row index is an index into the
    list of Python ints the matrix was built from (callers gather masks from
    that list; the matrix only answers set tests).
    """

    __slots__ = ("num_bits", "width", "_words")

    def __init__(self, masks: Iterable[int], num_bits: int) -> None:
        if np is None:
            raise RuntimeError("MaskMatrix requires numpy")
        self.num_bits = num_bits
        self.width = _word_count(num_bits)
        mask_list = masks if isinstance(masks, list) else list(masks)
        if self.width == 1:
            self._words = np.fromiter(
                mask_list, dtype=np.uint64, count=len(mask_list)
            )
        else:
            words = np.empty((len(mask_list), self.width), dtype=np.uint64)
            for row, mask in enumerate(mask_list):
                words[row, :] = _split_words(mask, self.width)
            self._words = words

    def __len__(self) -> int:
        return int(self._words.shape[0])

    # ------------------------------------------------------------------
    def intersects(self, mask: int):
        """Boolean vector: ``row & mask != 0`` per row."""
        words = self._words
        if self.width == 1:
            return (words & np.uint64(mask & _WORD_MASK)) != 0
        out = np.zeros(words.shape[0], dtype=bool)
        for w, word in enumerate(_split_words(mask, self.width)):
            if word:
                out |= (words[:, w] & np.uint64(word)) != 0
        return out

    def subset_of(self, mask: int):
        """Boolean vector: ``row ⊆ mask`` (``row & ~mask == 0``) per row."""
        words = self._words
        if self.width == 1:
            forbidden = np.uint64(~mask & _WORD_MASK)
            return (words & forbidden) == 0
        out = np.ones(words.shape[0], dtype=bool)
        for w, word in enumerate(_split_words(mask, self.width)):
            forbidden = ~word & _WORD_MASK
            if forbidden:
                out &= (words[:, w] & np.uint64(forbidden)) == 0
        return out

    def covers(self, mask: int):
        """Boolean vector: ``row ⊇ mask`` (``mask & ~row == 0``) per row."""
        words = self._words
        if self.width == 1:
            wanted = np.uint64(mask & _WORD_MASK)
            return (words & wanted) == wanted
        out = np.ones(words.shape[0], dtype=bool)
        for w, word in enumerate(_split_words(mask, self.width)):
            if word:
                wanted = np.uint64(word)
                out &= (words[:, w] & wanted) == wanted
        return out

    def __repr__(self) -> str:
        return f"MaskMatrix({len(self)} rows × {self.width} words)"
