"""Semirings for tree aggregation functions.

Definition 4.1 of the paper evaluates decompositions over a semiring
``⟨R+, ⊕, min, ⊥, ∞⟩``: ``⊕`` is a commutative, associative, closed binary
operator whose neutral element is ``⊥``, ``⊥`` is absorbing for ``min``, and
``min`` distributes over ``⊕``.  The two instances the paper uses are

* the *tropical* / summation semiring ``⟨R+, +, min, 0, ∞⟩`` (vertex
  aggregation functions, the query-cost TAF), and
* the *bottleneck* semiring ``⟨R+, max, min, 0, ∞⟩`` (the width TAF
  ``F^{max, v^w, ⊥}`` of Example 4.2).

:class:`Semiring` packages the operator together with its neutral element and
offers :meth:`verify` which property-based tests use to check the laws on
sampled values.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.exceptions import WeightingError

Number = float

INFINITY: Number = math.inf


@dataclass(frozen=True)
class Semiring:
    """A ``⟨R+, ⊕, min, ⊥, ∞⟩`` structure.

    Attributes
    ----------
    name:
        Human-readable identifier (used in reports).
    combine:
        The ``⊕`` operator.
    neutral:
        The neutral element ``⊥`` of ``⊕`` (also absorbing for ``min``).
    """

    name: str
    combine: Callable[[Number, Number], Number]
    neutral: Number

    # ------------------------------------------------------------------
    def combine_all(self, values: Iterable[Number]) -> Number:
        """Fold ``⊕`` over ``values`` starting from the neutral element."""
        result = self.neutral
        for value in values:
            result = self.combine(result, value)
        return result

    def select(self, values: Iterable[Number]) -> Number:
        """The selection operator ``min`` (``∞`` if ``values`` is empty)."""
        best = INFINITY
        for value in values:
            if value < best:
                best = value
        return best

    # ------------------------------------------------------------------
    def verify(self, samples: Sequence[Number], tolerance: float = 1e-9) -> None:
        """Check the semiring laws on a sample of values.

        Raises :class:`WeightingError` on the first violated law.  Used by
        the test suite (with hypothesis-generated samples) and by
        :class:`repro.weights.taf.TreeAggregationFunction` when asked to
        validate a user-supplied semiring.
        """

        def close(a: Number, b: Number) -> bool:
            if math.isinf(a) or math.isinf(b):
                return a == b
            return abs(a - b) <= tolerance * max(1.0, abs(a), abs(b))

        for a in samples:
            if not close(self.combine(a, self.neutral), a):
                raise WeightingError(
                    f"{self.name}: neutral element violated for {a}"
                )
            if not close(min(a, INFINITY), a):
                raise WeightingError(f"{self.name}: ∞ must absorb min")
            for b in samples:
                if not close(self.combine(a, b), self.combine(b, a)):
                    raise WeightingError(
                        f"{self.name}: ⊕ not commutative on ({a}, {b})"
                    )
                for c in samples:
                    left = self.combine(a, self.combine(b, c))
                    right = self.combine(self.combine(a, b), c)
                    if not close(left, right):
                        raise WeightingError(
                            f"{self.name}: ⊕ not associative on ({a}, {b}, {c})"
                        )
                    # min distributes over ⊕:
                    # min(a ⊕ b, a ⊕ c) == a ⊕ min(b, c)
                    dist_left = min(self.combine(a, b), self.combine(a, c))
                    dist_right = self.combine(a, min(b, c))
                    if not close(dist_left, dist_right):
                        raise WeightingError(
                            f"{self.name}: min does not distribute over ⊕ "
                            f"on ({a}, {b}, {c})"
                        )


def _max(a: Number, b: Number) -> Number:
    return a if a >= b else b


#: ``⟨R+, +, min, 0, ∞⟩`` -- total-cost aggregation (vertex aggregation
#: functions, the query-cost TAF of Example 4.3).  ``⊕`` is the builtin
#: ``operator.add`` (the same IEEE ``+``, without a Python frame per call:
#: the evaluation fold calls it once per solver and per dependent).
SUM_MIN = Semiring(name="sum-min", combine=operator.add, neutral=0.0)

#: ``⟨R+, max, min, 0, ∞⟩`` -- bottleneck aggregation (the width TAF of
#: Example 4.2 and the separator-size TAF).
MAX_MIN = Semiring(name="max-min", combine=_max, neutral=0.0)


def named_semiring(name: str) -> Semiring:
    """Look up one of the built-in semirings by name."""
    table = {"sum-min": SUM_MIN, "sum": SUM_MIN, "max-min": MAX_MIN, "max": MAX_MIN}
    try:
        return table[name]
    except KeyError as exc:
        raise WeightingError(
            f"unknown semiring {name!r}; available: {sorted(set(table))}"
        ) from exc
