"""Textbook cardinality estimation and the cost model behind ``cost_H(Q)``.

Example 4.3 of the paper defines the query-cost TAF through two estimates:

* ``v*(p)`` -- the estimated cost of evaluating
  ``E(p) = Π_{χ(p)} ⋈_{h ∈ λ(p)} rel(h)``, and
* ``e*(p, p')`` -- the estimated cost of the semijoin ``E(p) ⋉ E(p')``.

The paper adopts "the standard techniques described in [12, 25]"
(Garcia-Molina/Ullman/Widom and Ioannidis), i.e. cardinality estimation from
relation sizes and attribute selectivities (distinct-value counts):

* the size of a natural join is the product of the input sizes divided, for
  every shared attribute, by all but the smallest of the attribute's
  distinct-value counts;
* a projection keeps at most the product of its attributes' distinct-value
  counts;
* the cost of an operator is the number of tuples it reads plus the number it
  emits (the same work measure the executor reports), so estimated and
  measured work are directly comparable.

The estimates only require a :class:`~repro.db.statistics.CatalogStatistics`,
never the data itself, exactly like a DBMS optimiser.  The estimator reads
them once, at construction, into one record per atom -- its cardinality and
its ``(variable, selectivity)`` pairs in the atom's variable order -- which
the planner's hot path (:meth:`CardinalityEstimator.join_cardinality`,
:meth:`CardinalityEstimator.lambda_terms`) reads directly.  Every
cardinality and selectivity is at least 1, so every estimate is at least one
tuple (:func:`capped_size`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.db.statistics import CatalogStatistics
from repro.exceptions import DatabaseError
from repro.query.atoms import Atom
from repro.query.conjunctive import ConjunctiveQuery


@dataclass(frozen=True)
class AtomProfile:
    """The statistics of one query atom: its relation's cardinality and the
    distinct-value count of every variable position."""

    atom_name: str
    cardinality: float
    variable_selectivity: Mapping[str, float]

    def selectivity(self, variable: str) -> float:
        return float(self.variable_selectivity.get(variable, max(self.cardinality, 1.0)))


#: ``(base, join size, domain size per variable)`` of one λ set
#: (:meth:`CardinalityEstimator.lambda_terms`).
LambdaTerms = Tuple[float, float, Dict[str, float]]

#: ``(cardinality, ((variable, selectivity), ...))`` of one atom.
AtomRecord = Tuple[float, Tuple[Tuple[str, float], ...]]


def capped_size(join_size: float, domain_sizes: Iterable[float]) -> float:
    """``|Π_χ(⋈ λ)|``: the join size capped by the product of χ's domain
    sizes (multiplied in the given order), and at least one tuple.

    With the estimator's inputs the one-tuple floor never binds:
    :meth:`CardinalityEstimator.join_cardinality` returns at least 1.0, and
    every domain size is a selectivity, which the estimator floors at 1
    (as it does every cardinality), so the cap is a product of factors
    ``>= 1`` and ``min(join, cap) >= 1`` already.  The floor is kept for a
    caller that passes sizes below one.  ``QueryCostTAF``'s batched
    weighing computes the same ``max(min(join, cap), 1.0)`` and inherits
    the argument."""
    cap = 1.0
    for size in domain_sizes:
        cap *= size
    return max(min(join_size, cap), 1.0)


class CardinalityEstimator:
    """Estimates sizes and costs of joins, projections and semijoins over a
    set of query atoms, given catalog statistics."""

    def __init__(self, query: ConjunctiveQuery, statistics: CatalogStatistics) -> None:
        self.query = query
        self.statistics = statistics
        self._profiles: Dict[str, AtomProfile] = {}
        #: Per atom, ``(cardinality, ((variable, selectivity), ...))`` in
        #: ``atom.variables`` order (a repeated variable repeats): what the
        #: estimation loops read, without a profile or atom lookup.
        self._atom_records: Dict[str, AtomRecord] = {}
        for atom in query.atoms:
            profile = self._profiles[atom.name] = self._profile(atom)
            self._atom_records[atom.name] = (
                profile.cardinality,
                tuple((v, profile.selectivity(v)) for v in atom.variables),
            )
        # Estimation is called very heavily by the planner (once per distinct
        # label of the candidates graph and per tree edge), so memoise every
        # purely statistics-driven quantity.
        self._join_cache: Dict[Tuple[str, ...], float] = {}
        self._projection_cache: Dict[Tuple[Tuple[str, ...], Tuple[str, ...]], float] = {}
        self._node_cost_cache: Dict[Tuple[Tuple[str, ...], Tuple[str, ...]], float] = {}
        #: The χ-independent terms of ``v*`` and ``|E(p)|`` per λ set
        #: (:meth:`lambda_terms`): distinct λ sets are far fewer than
        #: distinct (λ, χ) pairs, so a pair re-pays only its projection cap.
        self._lambda_terms: Dict[Tuple[str, ...], LambdaTerms] = {}

    # ------------------------------------------------------------------
    def _profile(self, atom: Atom) -> AtomProfile:
        if not self.statistics.has_table(atom.predicate):
            raise DatabaseError(
                f"no statistics for relation {atom.predicate!r} used by atom {atom.name!r}"
            )
        table = self.statistics.table(atom.predicate)
        cardinality = float(max(table.cardinality, 1))
        selectivities: Dict[str, float] = {}
        for position, variable in enumerate(atom.variables):
            # The attribute bound to this variable: by convention the stored
            # relation's attribute at the same position, when it was analysed;
            # otherwise the declared per-attribute numbers are keyed by the
            # variable name itself (how Fig. 5 presents them).
            candidates = [variable]
            attribute_names = list(table.attributes())
            if position < len(attribute_names):
                candidates.append(attribute_names[position])
            value = None
            for key in candidates:
                if key in table.distinct_counts:
                    value = table.distinct_counts[key]
                    break
            if value is None:
                value = table.cardinality
            selectivities[variable] = float(max(int(value), 1))
        return AtomProfile(
            atom_name=atom.name,
            cardinality=cardinality,
            variable_selectivity=selectivities,
        )

    def profile(self, atom_name: str) -> AtomProfile:
        try:
            return self._profiles[atom_name]
        except KeyError as exc:
            raise DatabaseError(f"unknown atom {atom_name!r}") from exc

    def _records(self, atom_names: Sequence[str]) -> List[AtomRecord]:
        """The atoms' records, in the given order."""
        records = self._atom_records
        try:
            return [records[name] for name in atom_names]
        except KeyError as exc:
            raise DatabaseError(f"unknown atom {exc.args[0]!r}") from exc

    # ------------------------------------------------------------------
    def join_cardinality(self, atom_names: Sequence[str]) -> float:
        """Estimated size of the natural join of the given atoms.

        ``Π_i |R_i|`` divided, for every variable occurring in ``m > 1``
        atoms, by the product of its ``m - 1`` largest distinct-value counts
        (the classical containment-of-value-sets rule).
        """
        key = tuple(sorted(atom_names))
        cached = self._join_cache.get(key)
        if cached is not None:
            return cached
        records = self._records(atom_names)
        if not records:
            return 1.0
        size = 1.0
        variable_occurrences: Dict[str, list] = {}
        for cardinality, selectivities in records:
            size *= cardinality
            for variable, selectivity in selectivities:
                variable_occurrences.setdefault(variable, []).append(selectivity)
        for counts in variable_occurrences.values():
            if len(counts) <= 1:
                continue
            counts_sorted = sorted(counts)
            for count in counts_sorted[1:]:
                size /= max(count, 1.0)
        size = max(size, 1.0)
        self._join_cache[key] = size
        return size

    def domain_size(self, variable: str, atom_names: Optional[Sequence[str]] = None) -> float:
        """An upper bound on the number of distinct values ``variable`` can
        take in the join of the given atoms (the smallest distinct count over
        the atoms that contain it; 1 when none does)."""
        if atom_names is None:
            atom_names = [atom.name for atom in self.query.atoms]
        return self.lambda_terms(atom_names)[2].get(variable, 1.0)

    def lambda_terms(self, atom_names: Sequence[str]) -> LambdaTerms:
        """The χ-independent terms of a node with ``λ = atom_names``:
        ``(base, join size, domain sizes)``.

        ``base`` is the part of ``v*`` that does not depend on χ -- the input
        cardinalities plus the estimated sizes of the intermediate results of
        a smallest-first left-deep join (ties broken by atom name); ``join
        size`` is ``|⋈ λ|``; ``domain sizes`` maps every variable of the
        atoms to :meth:`domain_size`.  Memoised per atom set.  The prefix
        joins are estimated before the full join, so every join the
        estimator memoises on a node's behalf is computed in that
        cardinality order whichever of ``v*`` and ``|E(p)|`` is asked first.
        """
        key = tuple(sorted(atom_names))
        terms = self._lambda_terms.get(key)
        if terms is not None:
            return terms
        records = self._records(key)
        # Smallest first; the sort is stable, so ties keep name order.
        order = sorted(range(len(key)), key=lambda i: records[i][0])
        names = [key[i] for i in order]
        base = sum([records[i][0] for i in order])
        for prefix_length in range(2, len(names) + 1):
            base += self.join_cardinality(names[:prefix_length])
        domains: Dict[str, float] = {}
        for _, selectivities in records:
            for variable, count in selectivities:
                known = domains.get(variable)
                if known is None or count < known:
                    domains[variable] = count
        terms = self._lambda_terms[key] = (base, self.join_cardinality(key), domains)
        return terms

    def projection_cardinality(
        self, atom_names: Sequence[str], variables: Iterable[str]
    ) -> float:
        """Estimated size of ``Π_variables`` of the join of the atoms: the
        join size capped by the product of the variables' domain sizes."""
        variables = tuple(variables)
        key = (tuple(sorted(atom_names)), tuple(sorted(variables)))
        cached = self._projection_cache.get(key)
        if cached is not None:
            return cached
        _, join_size, domains = self.lambda_terms(atom_names)
        result = capped_size(join_size, [domains.get(v, 1.0) for v in variables])
        self._projection_cache[key] = result
        return result

    # ------------------------------------------------------------------
    def node_expression_cost(
        self, atom_names: Sequence[str], projection: Iterable[str]
    ) -> float:
        """``v*``: estimated cost of evaluating ``E(p)``.

        Sum of (i) the input cardinalities, (ii) the estimated sizes of the
        intermediate results of a smallest-first left-deep join over the λ
        atoms -- together :meth:`lambda_terms`' base -- and (iii) the size
        of the projected output.

        Memoised on ``(λ atoms, projection)``: distinct candidates of the
        candidates graph frequently share both labels.
        """
        # Materialise both iterables once: ``projection`` may be a one-shot
        # iterator, and it is consumed again below.
        sorted_names = tuple(sorted(atom_names))
        projection = tuple(sorted(projection))
        key = (sorted_names, projection)
        cached = self._node_cost_cache.get(key)
        if cached is not None:
            return cached
        if not sorted_names:
            return 0.0
        base = self.lambda_terms(sorted_names)[0]
        cost = base + self.projection_cardinality(sorted_names, projection)
        self._node_cost_cache[key] = cost
        return cost

    def semijoin_cost(
        self,
        parent_atoms: Sequence[str],
        parent_projection: Iterable[str],
        child_atoms: Sequence[str],
        child_projection: Iterable[str],
    ) -> float:
        """``e*``: estimated cost of ``E(p) ⋉ E(p')`` -- scan both sides
        (hash semijoin), emit at most the left side."""
        left = self.projection_cardinality(parent_atoms, parent_projection)
        right = self.projection_cardinality(child_atoms, child_projection)
        return left + right
