"""Bitset-backed core of the decomposition machinery.

The decomposition algorithms (minimal-k-decomp, threshold-k-decomp,
cost-k-decomp) spend essentially all of their time on set algebra over the
``Ψ = Σ_{i≤k} C(n,i)`` k-vertices and their ``[V]``-components.  Representing
those sets as ``frozenset`` objects of vertex/edge *names* makes every
subset or intersection test re-hash strings.  This package interns names to
dense integer ids once (:class:`Vocabulary`) and represents every vertex set
and edge set as a plain Python ``int`` bitmask (:class:`BitsetHypergraph`),
so the inner loops reduce to ``&``/``|``/``~`` on machine integers.

The string-at-the-boundary invariant: everything user-visible --
:class:`~repro.hypergraph.hypergraph.Hypergraph`,
:class:`~repro.decomposition.hypertree.HypertreeDecomposition`, λ/χ labels,
the public surface of
:class:`~repro.decomposition.candidates.CandidatesGraph` -- keeps exposing
names; masks never leak out of the algorithms, and translation happens
exactly once per distinct mask (the translated frozensets are interned too).
"""

from repro.core.bitset import bit_count, iter_bits
from repro.core.bitset_hypergraph import BitsetHypergraph
from repro.core.maskmatrix import MaskMatrix
from repro.core.vocabulary import Vocabulary

__all__ = [
    "BitsetHypergraph",
    "MaskMatrix",
    "Vocabulary",
    "bit_count",
    "iter_bits",
]
