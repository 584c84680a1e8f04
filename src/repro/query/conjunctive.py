"""Conjunctive queries and their hypergraphs.

A :class:`ConjunctiveQuery` is a datalog rule

``ans(Y1, ..., Ym) ← s1(X̄1) ∧ ... ∧ sn(X̄n)``

with a (possibly empty) tuple of output variables -- a Boolean conjunctive
query (BCQ) when the head is variable-free.  The class also provides the
query hypergraph ``H(Q)`` (Section 1.1): one vertex per variable, one
hyperedge ``var(A)`` per body atom, keyed by the atom's name so that distinct
atoms with identical variable sets remain distinguishable.

A small datalog-ish parser is included (:func:`parse_query`) so queries can
be written exactly as they appear in the paper::

    parse_query("ans(X) <- r(X, Y), s(Y, Z), t(Z, X).")
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, List, Mapping, Sequence, Tuple

from repro.exceptions import QueryError
from repro.hypergraph.hypergraph import Hypergraph
from repro.query.atoms import Atom, is_variable, make_atom


@dataclass(frozen=True)
class ConjunctiveQuery:
    """An (optionally Boolean) conjunctive query.

    Parameters
    ----------
    atoms:
        The body atoms.  Atom names must be unique within the query.
    output_variables:
        The head variables (empty for a Boolean query).  Every head variable
        must occur in the body (safety).
    name:
        Optional query identifier, used in reports.
    """

    atoms: Tuple[Atom, ...]
    output_variables: Tuple[str, ...] = ()
    name: str = "Q"

    def __post_init__(self) -> None:
        if not self.atoms:
            raise QueryError("a conjunctive query needs at least one body atom")
        names = [a.name for a in self.atoms]
        if len(set(names)) != len(names):
            raise QueryError(f"duplicate atom names in query: {sorted(names)}")
        body_vars = self.variables
        for var in self.output_variables:
            if var not in body_vars:
                raise QueryError(
                    f"unsafe query: head variable {var!r} does not occur in the body"
                )

    # ------------------------------------------------------------------
    @property
    def variables(self) -> FrozenSet[str]:
        """All variables occurring in the body."""
        result: set = set()
        for atom in self.atoms:
            result.update(atom.variables)
        return frozenset(result)

    @property
    def is_boolean(self) -> bool:
        return not self.output_variables

    @property
    def predicates(self) -> Tuple[str, ...]:
        return tuple(sorted({a.predicate for a in self.atoms}))

    def atom_by_name(self, name: str) -> Atom:
        for atom in self.atoms:
            if atom.name == name:
                return atom
        raise QueryError(f"query {self.name!r} has no atom named {name!r}")

    def atoms_with_variable(self, variable: str) -> Tuple[Atom, ...]:
        return tuple(a for a in self.atoms if variable in a.variables)

    # ------------------------------------------------------------------
    def hypergraph(self) -> Hypergraph:
        """The query hypergraph ``H(Q)``: vertices are the body variables,
        and each atom ``A`` contributes the hyperedge ``var(A)`` named after
        the atom.

        Built once per query: the query and the hypergraph are immutable,
        so every plan of one query refers to the same hypergraph (and its
        cached bitset view).  The memo is not a dataclass field, so eq,
        hash and repr ignore it."""
        return self._hypergraph

    @cached_property
    def _hypergraph(self) -> Hypergraph:
        edges: Dict[str, Tuple[str, ...]] = {}
        for atom in self.atoms:
            if not atom.variables:
                # Atoms with only constants do not constrain the structure;
                # they still need to be represented for completeness, so give
                # them a private dummy vertex.
                edges[atom.name] = (f"_const_{atom.name}",)
            else:
                edges[atom.name] = atom.variables
        return Hypergraph(edges)

    def with_fresh_head_variables(self) -> "ConjunctiveQuery":
        """A variant of the query where every atom receives a fresh private
        variable.

        Section 6 of the paper uses this trick to force the decomposition
        algorithm to produce *complete* decompositions: adding a fresh
        variable to each atom means every atom must be strongly covered by
        some decomposition node.  The fresh variables are filtered out again
        by the planner when the plan is emitted.
        """
        new_atoms = []
        for atom in self.atoms:
            fresh = fresh_variable_for(atom.name)
            new_atoms.append(
                Atom(
                    name=atom.name,
                    predicate=atom.predicate,
                    terms=atom.terms + (fresh,),
                )
            )
        return ConjunctiveQuery(
            atoms=tuple(new_atoms),
            output_variables=self.output_variables,
            name=self.name + "_complete",
        )

    def rename_variables(self, mapping: Mapping[str, str]) -> "ConjunctiveQuery":
        new_atoms = tuple(a.rename(dict(mapping)) for a in self.atoms)
        new_outputs = tuple(mapping.get(v, v) for v in self.output_variables)
        return ConjunctiveQuery(atoms=new_atoms, output_variables=new_outputs, name=self.name)

    # ------------------------------------------------------------------
    def __str__(self) -> str:
        head = f"ans({', '.join(self.output_variables)})" if self.output_variables else "ans"
        body = " ∧ ".join(str(a) for a in self.atoms)
        return f"{head} ← {body}"

    def describe(self) -> str:
        return (
            f"Query {self.name}: {len(self.atoms)} atoms, "
            f"{len(self.variables)} variables, "
            f"{len(self.output_variables)} output variables\n  {self}"
        )


def fresh_variable_for(atom_name: str) -> str:
    """The reserved fresh-variable name used by
    :meth:`ConjunctiveQuery.with_fresh_head_variables`."""
    return f"_Fresh_{atom_name}"


def is_fresh_variable(variable: str) -> bool:
    """True for variables introduced by the completeness transformation."""
    return variable.startswith("_Fresh_")


# ----------------------------------------------------------------------
# Construction helpers
# ----------------------------------------------------------------------
def build_query(
    body: Sequence[Tuple[str, Sequence[str]]],
    output_variables: Sequence[str] = (),
    name: str = "Q",
) -> ConjunctiveQuery:
    """Build a query from ``[(predicate, [terms...]), ...]``.

    Atom names are derived from the predicate, suffixed with ``#i`` when a
    predicate occurs more than once (self-joins).
    """
    counts: Dict[str, int] = {}
    atoms: List[Atom] = []
    occurrences: Dict[str, int] = {}
    for predicate, _ in body:
        counts[predicate] = counts.get(predicate, 0) + 1
    for predicate, terms in body:
        if counts[predicate] > 1:
            occurrences[predicate] = occurrences.get(predicate, 0) + 1
            atom_name = f"{predicate}#{occurrences[predicate]}"
        else:
            atom_name = predicate
        atoms.append(make_atom(predicate, terms, name=atom_name))
    return ConjunctiveQuery(
        atoms=tuple(atoms),
        output_variables=tuple(output_variables),
        name=name,
    )


_ATOM_RE = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)\s*\(([^()]*)\)")


def parse_query(text: str, name: str = "Q") -> ConjunctiveQuery:
    """Parse a datalog-style rule into a :class:`ConjunctiveQuery`.

    Accepted syntax (whitespace insensitive)::

        ans(X, Y) <- r(X, Z), s(Z, Y), t(Y, X).
        ans :- r(X, Z) & s(Z, Y).
        r(X, Z), s(Z, Y)              # headless: Boolean query

    ``<-``, ``:-`` and ``←`` all separate head from body; ``,``, ``&`` and
    ``∧`` all separate body atoms; a trailing ``.`` is optional.
    """
    cleaned = text.strip().rstrip(".")
    if not cleaned:
        raise QueryError("empty query text")
    for arrow in ("<-", ":-", "←"):
        if arrow in cleaned:
            head_text, body_text = cleaned.split(arrow, 1)
            break
    else:
        head_text, body_text = "", cleaned

    output_variables: Tuple[str, ...] = ()
    head_text = head_text.strip()
    if head_text:
        match = _ATOM_RE.fullmatch(head_text)
        if match:
            args = [a.strip() for a in match.group(2).split(",") if a.strip()]
            output_variables = tuple(a for a in args if is_variable(a))
        elif head_text not in {"ans", "answer"}:
            raise QueryError(f"cannot parse query head: {head_text!r}")

    body: List[Tuple[str, List[str]]] = []
    matches = list(_ATOM_RE.finditer(body_text))
    if not matches:
        raise QueryError(f"cannot find any body atom in: {body_text!r}")
    for match in matches:
        predicate = match.group(1)
        args = [a.strip() for a in match.group(2).split(",") if a.strip()]
        if not args:
            raise QueryError(f"atom {predicate!r} has no arguments")
        body.append((predicate, args))
    return build_query(body, output_variables=output_variables, name=name)
