"""Batched bitmask algebra: N arbitrary-width masks as uint64 word vectors.

The decomposition search plane (candidates-graph construction) runs three
set tests -- *does the row intersect the probe*, *is the row a subset of the
probe*, *does the row cover the probe* -- over every pair of the
``Ψ = Σ_{i≤k} C(n,i)`` k-vertices and the components.  The scalar core
(:mod:`repro.core.bitset_hypergraph`) performs them one ``&`` at a time on
Python big-ints; a :class:`MaskMatrix` stores the same masks as ``W =
ceil(num_bits/64)`` contiguous ``uint64`` vectors of length N (one per
64-bit word), so a test becomes one broadcasted array expression per word:

* :meth:`MaskMatrix.block` tests every row against a block of probe rows
  (a 2-D boolean ``probes × rows`` result);
* :meth:`MaskMatrix.pairs` tests gathered rows against gathered probe rows
  pairwise (a boolean vector).

A matrix only answers set tests: callers gather the masks themselves, as
Python ints, from the list the matrix was built from.  This module is the
one place where ints become words.  The scalar decomposition engine
(``vectorized=False``) performs the same tests with big-int loops and is
this module's oracle.
"""

from __future__ import annotations

import operator
from typing import Sequence

try:  # pragma: no cover - numpy is present in the supported environments
    import numpy as np
except ImportError:  # pragma: no cover - exercised only without numpy
    np = None  # type: ignore[assignment]

#: Bits per matrix word.
WORD_BITS = 64

_WORD_MASK = (1 << WORD_BITS) - 1

#: Each set test of a row against a probe: its test on one word of both,
#: and how the per-word verdicts combine (in place) into the whole mask's.
_TESTS = {
    "intersects": (lambda row, probe: (row & probe) != 0, operator.ior),
    "subset_of": (lambda row, probe: (row & ~probe) == 0, operator.iand),
    "covers": (lambda row, probe: (row & probe) == probe, operator.iand),
}


class MaskMatrix:
    """N bitmasks of up to ``num_bits`` bits, stored as one uint64 vector
    per 64-bit word (little-endian).

    Rows keep their construction order, so a row index is an index into the
    sequence of Python ints the matrix was built from.  ``test`` names one
    of ``"intersects"`` (``row & probe != 0``), ``"subset_of"`` (``row ⊆
    probe``) and ``"covers"`` (``row ⊇ probe``); the probes are the rows of
    a second matrix of the same width.
    """

    __slots__ = ("num_bits", "width", "_words")

    def __init__(self, masks: Sequence[int], num_bits: int) -> None:
        if np is None:
            raise RuntimeError("MaskMatrix requires numpy")
        self.num_bits = num_bits
        self.width = max(1, -(-num_bits // WORD_BITS))
        count = len(masks)
        self._words = [np.fromiter(masks, dtype=np.uint64, count=count)] if (
            self.width == 1
        ) else [
            np.fromiter(
                ((mask >> shift) & _WORD_MASK for mask in masks),
                dtype=np.uint64,
                count=count,
            )
            for shift in range(0, WORD_BITS * self.width, WORD_BITS)
        ]

    def __len__(self) -> int:
        return len(self._words[0])

    def block(self, test: str, probes: "MaskMatrix", lo: int, hi: int):
        """Boolean ``(hi - lo) × len(self)`` matrix: cell ``[i, j]`` is
        ``test`` of row ``j`` against probe row ``lo + i``."""
        return _combine(
            test,
            [words[None, :] for words in self._words],
            [words[lo:hi, None] for words in probes._words],
        )

    def pairs(self, test: str, rows, probes: "MaskMatrix", probe_rows):
        """Boolean vector: entry ``a`` is ``test`` of row ``rows[a]``
        against probe row ``probe_rows[a]`` (two equal-length index
        arrays)."""
        return _combine(
            test,
            [words[rows] for words in self._words],
            [words[probe_rows] for words in probes._words],
        )

    def __repr__(self) -> str:
        return f"MaskMatrix({len(self)} rows × {self.width} words)"


def _combine(test: str, row_words, probe_words):
    """Run ``test`` word by word over broadcastable word arrays."""
    word_test, combine = _TESTS[test]
    verdict = word_test(row_words[0], probe_words[0])
    for row, probe in zip(row_words[1:], probe_words[1:]):
        verdict = combine(verdict, word_test(row, probe))
    return verdict
