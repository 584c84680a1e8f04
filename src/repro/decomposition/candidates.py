"""The candidates graph of minimal-k-decomp (Fig. 2 of the paper).

The algorithm maintains a weighted directed bipartite graph ``CG`` whose
nodes are split into

* **subproblems** ``N_sub``: pairs ``(R, C)`` where ``R`` is a *k-vertex*
  (a set of at most ``k`` hyperedges) and ``C`` is a ``[var(R)]``-component,
  plus the special root subproblem ``(∅, var(H))`` standing for the whole
  hypergraph; and
* **candidates** ``N_sol``: pairs ``(S, C')`` where ``S`` is a k-vertex that
  could become the root of a normal-form decomposition of the sub-hypergraph
  induced by ``var(edges(C'))``, i.e. ``var(S) ∩ C' ≠ ∅`` and every
  ``h ∈ S`` meets ``var(edges(C'))`` -- and that solves the subproblems
  of ``C'`` (below).  Only these *live* candidates are built.

Arcs encode "solves" and "is a subproblem of":

* a candidate ``(S, C)`` points to every subproblem ``(R, C)`` with
  ``var(edges(C)) ∩ var(R) ⊆ var(S)`` (it can be the child of ``R``
  decomposing ``C`` without breaking connectedness);
* every subproblem ``(S, C'')`` with ``C''`` a ``[var(S)]``-component
  contained in ``C`` points to the candidate ``(S, C)`` (it must be solved
  below it).

**One boundary per component.**  Every edge that meets a
``[var(R)]``-component ``C`` lies inside ``C ∪ var(R)`` (a vertex of it
outside ``var(R)`` is ``[var(R)]``-adjacent to ``C``, hence in ``C``), so a
subproblem's arc condition reads ``var(edges(C)) ∩ var(R) = var(edges(C)) ∖
C``: the *boundary* of ``C``, the same for every subproblem ``(R, C)`` (and
empty for the root).  A candidate ``(S, C)`` therefore solves every
subproblem of ``C`` or none.

**Why N_sol holds only the live candidates.**  A candidate reaches the
evaluation only as a member of some ``incoming(q)``: its weight is folded
into a dependent, its survival is recorded and it can be selected only as a
solver.  A pair that passes the two tests above but whose ``var(S)`` misses
part of ``C``'s boundary is in no ``incoming(q)``, so its weight is never
read and its removal (if one of its own subproblems is unsolvable) removes
nothing else; building it could not change a weight, a survivor or the
selected decomposition.  Admission therefore also asks that ``var(S)``
cover the boundary, and every admitted candidate of ``C`` solves every
subproblem of ``C``.  On the planner's benchmark cases this keeps 6-38 %
of the pairs, and every solver arc.

The same graph drives the unweighted ``k-decomp`` (Definition 7.2), the
weighted ``minimal-k-decomp`` and the planner's ``cost-k-decomp``; they only
differ in how they pick among a subproblem's surviving candidates.

Node χ/λ labels follow the paper: for a candidate ``p = (S, C)``,
``λ(p) = S`` and ``χ(p) = var(edges(C)) ∩ var(S)``.

**Representation.**  Construction and the algorithms run entirely on the
bitset core (:mod:`repro.core`): a k-vertex is an *edge mask* ``int``, a
component is a *vertex mask* ``int``, and a node's identity is its
``(edge mask, vertex mask)`` pair.  Nodes are additionally interned to dense
integer ids (``N_sub`` and ``N_sol`` separately), so the graph is stored as
parallel arrays indexed by those ids -- ``cand_lambda[i]`` / ``cand_chi[i]``
/ ``cand_subs[i]`` for candidate ``i``, ``sub_solvers[q]`` /
``sub_dependents[q]`` for subproblem ``q``.  Distinct ``(λ, χ)`` pairs are
interned once more, lazily, to dense *label* ids (``cand_label[i]``,
``label_lambda[l]``, ``label_chi[l]``): a TAF sees a node only through its
labels, so the evaluation weighs each label once.

**One build driver, two filter-kernel engines.**  ``_build`` is the only
construction path; the two hot filters of the build phase -- candidate
admission (``var(S) ∩ C ≠ 0`` ∧ ``var(edges(C)) ∖ C ⊆ var(S)`` ∧ ``S ⊆
edges(var(edges(C)))``) and subproblem containment (``C'' ⊆ C``) -- run
under it either as scalar big-int loops or as whole-array
:class:`~repro.core.maskmatrix.MaskMatrix` kernels (one broadcasted test per
component).  The solver arcs need no filter of their own: ``sub_solvers[q]``
is the candidate range of ``q``'s component.  ``vectorized=None``
picks the matrix engine when numpy is available and ``Ψ`` is big enough to
amortise the array overhead.  Both engines fill the same containers and
produce **byte-identical** graphs (same node and arc ids, in the same
canonical order), which the property tests pin, so the scalar engine is the
equivalence oracle and the numpy-free fallback.

Names appear only at the boundary: :meth:`CandidatesGraph.public_candidate`
/ :meth:`~CandidatesGraph.public_subproblem` translate one node id to its
``(edge names, vertex names)`` pair and :meth:`~CandidatesGraph.node_view`
to a labelled :class:`DecompositionNode`.
"""

from __future__ import annotations

from array import array
from itertools import combinations, repeat
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

try:  # The matrix engine needs numpy; the scalar engine is the fallback.
    import numpy as np
except ImportError:  # pragma: no cover - exercised only without numpy
    np = None  # type: ignore[assignment]

from repro.core.maskmatrix import MaskMatrix
from repro.decomposition.hypertree import DecompositionNode
from repro.exceptions import DecompositionError
from repro.hypergraph.hypergraph import EdgeName, Hypergraph, Vertex

KVertex = FrozenSet[EdgeName]
Component = FrozenSet[Vertex]

#: A subproblem node ``(R, C)`` of ``N_sub``.
Subproblem = Tuple[KVertex, Component]
#: A candidate node ``(S, C)`` of ``N_sol``.
Candidate = Tuple[KVertex, Component]

#: Mask-space node keys: ``(edge mask, vertex mask)`` pairs.
MaskSubproblem = Tuple[int, int]
MaskCandidate = Tuple[int, int]

#: Below this many k-vertices the per-component numpy dispatch overhead
#: outweighs the loop it replaces, so ``vectorized=None`` stays scalar.
#: Set from a paired sweep of both engines (2-CPU x86-64, CPython 3.11,
#: numpy 2.4): the scalar engine built every graph with Ψ < 250 faster, by
#: 1.3-2.8x (q1 k = 3, cycle12 k = 2, chain16 k = 2, ...); the matrix
#: engine won from Ψ = 381 (q1 k = 5, 1.3x) up to 2.3x at Ψ = 2,516; at
#: Ψ = 255-469 the two are within 15% of each other.
_VECTORIZE_MIN_K_VERTICES = 300


def k_vertices(hypergraph: Hypergraph, k: int) -> Tuple[KVertex, ...]:
    """All k-vertices: non-empty sets of at most ``k`` hyperedges.

    The count of these is the quantity ``Ψ = Σ_{i=1..k} C(n, i)`` the paper
    contrasts with the crude ``n^k`` bound after Theorem 4.5.
    """
    bitset_view = _require_positive_k(hypergraph, k)
    edge_names = bitset_view.edge_names
    return tuple(edge_names(mask) for mask in k_vertex_masks(hypergraph, k))


def k_vertex_masks(hypergraph: Hypergraph, k: int) -> Tuple[int, ...]:
    """All k-vertices as edge masks, in the canonical (size, lexicographic)
    enumeration order of :func:`k_vertices`.

    The order is *nested in k*: the masks for bound ``k`` are a prefix of
    the masks for any bound ``k' > k``.
    """
    bitset_view = _require_positive_k(hypergraph, k)
    num_edges = len(bitset_view.edges)
    result: List[int] = []
    for size in range(1, min(k, num_edges) + 1):
        for combo in combinations(range(num_edges), size):
            mask = 0
            for index in combo:
                mask |= 1 << index
            result.append(mask)
    return tuple(result)


def _require_positive_k(hypergraph: Hypergraph, k: int):
    if k < 1:
        raise DecompositionError("the width bound k must be at least 1")
    return hypergraph.bitset()


def count_k_vertices(num_edges: int, k: int) -> int:
    """``Ψ`` computed arithmetically (for the Section 4.2 comparison table)."""
    from math import comb

    return sum(comb(num_edges, i) for i in range(1, k + 1))


class CandidatesGraph:
    """The bipartite candidates graph for a hypergraph and width bound ``k``.

    Construction performs the whole *Build the Candidates Graph* phase of
    Fig. 2 on integer masks; the evaluation phase belongs to the algorithms
    that use the graph (:mod:`repro.decomposition.minimal`).  ``N_sol`` is
    built with its live candidates only, those that solve the subproblems
    of their component: the others are in no ``sub_solvers[q]``, so no
    weight, survivor or selection could depend on them (see the module
    docstring).  Every subproblem and every solver arc is kept.

    Parameters
    ----------
    hypergraph, k:
        The hypergraph and the width bound.
    vectorized:
        ``True`` forces the :class:`~repro.core.maskmatrix.MaskMatrix`
        construction kernels (requires numpy), ``False`` the scalar big-int
        loops; ``None`` (default) picks the matrix engine when numpy is
        available and ``Ψ`` is large enough to amortise it.  Both engines
        build byte-identical graphs.

    Dense-id arrays (the algorithms' surface; ``q`` ranges over subproblem
    ids, ``i`` over candidate ids):

    ``sub_keys[q]``
        the ``(edge mask, vertex mask)`` identity of subproblem ``q``; the
        root subproblem ``(∅, var(H))`` is always id 0.
    ``sub_solvers[q]`` / ``sub_dependents[q]``
        candidate-id tuples: ``incoming(q)`` (all candidates of ``q``'s
        component) / ``outcoming(q)``.
    ``sub_order``
        subproblem ids by increasing component size -- the Fig. 2 extraction
        order (a subproblem is processed only after everything below it).
    ``cand_keys[i]`` / ``cand_lambda[i]`` / ``cand_var[i]`` /
    ``cand_chi[i]`` / ``cand_comp[i]`` / ``cand_subs[i]``
        per-candidate identity, ``λ`` edge mask, ``var(λ)`` vertex mask,
        ``χ`` vertex mask, component vertex mask, and subproblem-id tuple.
    ``cand_label[i]`` / ``label_lambda[l]`` / ``label_chi[l]``
        per-candidate label id, and per label its ``λ`` edge mask and ``χ``
        vertex mask: one label per distinct ``(λ, χ)`` pair, numbered by
        first occurrence over candidate ids (the order of
        ``dict.fromkeys(zip(cand_lambda, cand_chi))``).  Derived lazily, on
        first use, from arrays that are byte-identical whichever engine
        built the graph, so the labels are too.
    """

    def __init__(
        self,
        hypergraph: Hypergraph,
        k: int,
        vectorized: Optional[bool] = None,
    ) -> None:
        if hypergraph.num_edges() == 0:
            raise DecompositionError("cannot decompose a hypergraph with no edges")
        self.hypergraph = hypergraph
        self.k = k
        bitset = hypergraph.bitset()
        self.bitset = bitset
        all_vertices = bitset.all_vertices
        self.root_subproblem: Subproblem = (
            frozenset(),
            bitset.vertex_names(all_vertices),
        )
        self.vectorized = _resolve_vectorized(
            vectorized, hypergraph.num_edges(), k
        )

        #: Flattened subproblem arcs as (sub id array, cand id array) piece
        #: pairs, filled by the vectorised engine; ``None`` on the scalar
        #: engine.
        self._arc_pieces: Optional[List[Tuple[object, object]]] = None
        self._build()

        # --- arcs: subproblem -> candidates that depend on it -------------
        # (the reverse of ``cand_subs``; the evaluation phase walks this
        # index, so build it once here).  The vectorised engine groups its
        # flattened arc arrays with one lexsort; the scalar engine walks
        # ``cand_subs``.
        if self._arc_pieces is not None:
            self.sub_dependents = self._dependents_from_arcs()
        else:
            dependents_lists: List[List[int]] = [[] for _ in self.sub_keys]
            for cand_id, subs in enumerate(self.cand_subs):
                for sub_id in subs:
                    dependents_lists[sub_id].append(cand_id)
            self.sub_dependents: List[Tuple[int, ...]] = [
                tuple(cands) for cands in dependents_lists
            ]

        # Processing order (increasing component size; ties broken by the
        # canonical masks, which are deterministic per hypergraph).
        sub_keys = self.sub_keys
        self.sub_order: List[int] = sorted(
            range(len(sub_keys)),
            key=lambda sub_id: (
                sub_keys[sub_id][1].bit_count(),
                sub_keys[sub_id][1],
                sub_keys[sub_id][0],
            ),
        )

        # Lazily built candidate views derived from the k-vertex index (no
        # algorithm consumes these; they serve the name boundary and tests).
        self._cand_keys: Optional[List[MaskCandidate]] = None
        self._cand_var: Optional[List[int]] = None
        # Lazily interned (λ, χ) labels (see ``cand_label``).
        self._labels: Optional[Tuple[List[int], List[int], List[int]]] = None

    # ------------------------------------------------------------------
    # Construction (the Build phase of Fig. 2)
    # ------------------------------------------------------------------
    def _build(self) -> None:
        """Build this bound-``k`` graph from the empty graph."""
        self._kv_masks: Tuple[int, ...] = k_vertex_masks(self.hypergraph, self.k)
        all_vertices = self.bitset.all_vertices
        # --- N_sub: the root subproblem gets id 0 -------------------------
        self._kv_vars: List[int] = []
        self._mvar_of: Dict[int, int] = {}
        self.sub_keys: List[MaskSubproblem] = [(0, all_vertices)]
        self._kv_sub_bounds: List[int] = [1]
        component_rows = self._profile_components(self._enumerate_subproblems())

        # --- N_sol: admit the live k-vertices, component block by block ---
        # Candidates are appended component-block by component-block (in
        # interning order, k-vertices in canonical order within each), so a
        # component's ids are one contiguous ``range``.
        self.cand_lambda: List[int] = []
        self.cand_chi: List[int] = []
        self.cand_comp: List[int] = []
        self.cand_subs: List[Tuple[int, ...]] = []
        #: candidate id -> index of its λ in the k-vertex enumeration (a
        #: flat int64 buffer: appendable without numpy, viewable by it)
        self._cand_kv_index = array("q")
        self._by_component: Dict[int, range] = {}
        cand_lambda = self.cand_lambda
        admit = (
            self._vectorized_admitter() if self.vectorized else self._scalar_admitter()
        )
        for row in component_rows:
            start = len(cand_lambda)
            admit(row)
            self._by_component[row[0]] = range(start, len(cand_lambda))
        self._build_solver_arcs()

    def _enumerate_subproblems(self) -> Iterable[int]:
        """Append the subproblem block of every k-vertex to ``sub_keys``:
        one subproblem per ``[var(S)]``-component, ids assigned in k-vertex
        order, so k-vertex ``i`` owns the contiguous id block
        ``range(bounds[i], bounds[i+1])``.  Returns the distinct components
        (the root's first), in interning order."""
        bitset = self.bitset
        components_of = bitset.components
        var_of_edges = bitset.var_of_edges
        kv_masks = self._kv_masks
        kv_vars = self._kv_vars
        var_of = self._mvar_of
        sub_keys = self.sub_keys
        kv_sub_bounds = self._kv_sub_bounds
        # dict-as-ordered-set: deterministic iteration over components
        seen_components: Dict[int, None] = {bitset.all_vertices: None}
        for kv in kv_masks:
            variables = var_of_edges(kv)
            kv_vars.append(variables)
            var_of[kv] = variables
            for component in components_of(variables):
                sub_keys.append((kv, component))
                seen_components[component] = None
            kv_sub_bounds.append(len(sub_keys))
        return seen_components

    def _profile_components(
        self, components: Iterable[int]
    ) -> List[Tuple[int, int, int, int]]:
        """Cache ``edges(C)`` and ``var(edges(C))`` for every component and
        return its ``(C, var(edges(C)), allowed edges, boundary)`` row, in
        order.  The boundary ``var(edges(C)) ∖ C`` is every subproblem
        ``(R, C)``'s ``var(edges(C)) ∩ var(R)`` (see the module docstring)."""
        bitset = self.bitset
        edges_touching = bitset.edges_touching
        var_of_edges = bitset.var_of_edges
        frontier_of = self._mfrontier_of = {}
        component_edges = self._mcomponent_edges = {}
        rows: List[Tuple[int, int, int, int]] = []
        for component in components:
            edges = edges_touching(component)
            component_edges[component] = edges
            frontier = var_of_edges(edges)
            frontier_of[component] = frontier
            rows.append(
                (component, frontier, edges_touching(frontier), frontier & ~component)
            )
        return rows

    # ------------------------------------------------------------------
    # Candidate admission: ``admit(row)`` appends, for one component row,
    # every live candidate to the parallel arrays, in canonical k-vertex
    # order: a k-vertex ``S`` that meets ``C``, whose ``var`` covers ``C``'s
    # boundary and whose edges all lie in ``edges(var(edges(C)))``.  The
    # factory shape lets the matrix engine build its mask matrices once per
    # construction.
    # ------------------------------------------------------------------
    def _scalar_admitter(self):
        """Pure mask algebra: membership, covering and subset tests are all
        single ``&``/``~`` operations on ints; candidates are appended to the
        parallel arrays, so the loop performs no hashing."""
        kv_masks = self._kv_masks
        kv_vars = self._kv_vars
        bounds = self._kv_sub_bounds
        sub_keys = self.sub_keys
        cand_lambda = self.cand_lambda
        kv_index = self._cand_kv_index
        num_kvs = len(kv_masks)

        def admit(row: Tuple[int, int, int, int]) -> None:
            component, frontier, allowed_edges, boundary = row
            for index in range(num_kvs):
                variables = kv_vars[index]
                if boundary & ~variables or not variables & component:
                    continue
                if kv_masks[index] & ~allowed_edges:
                    continue
                cand_lambda.append(kv_masks[index])
                kv_index.append(index)
                self.cand_chi.append(frontier & variables)
                self.cand_comp.append(component)
                self.cand_subs.append(
                    tuple(
                        sub_id
                        for sub_id in range(bounds[index], bounds[index + 1])
                        if not sub_keys[sub_id][1] & ~component
                    )
                )

        return admit

    def _vectorized_admitter(self):
        """The admission loop as whole-array kernels: per component, one
        broadcasted intersection + covering + subset test over every
        k-vertex at once and one containment test over every subproblem at
        once (folded into per-k-vertex id slices by ``searchsorted`` over
        the contiguous subproblem blocks).  An admitted row's λ is gathered from the
        k-vertex list and its χ is ``frontier & var(λ)`` on the k-vertex's
        variable mask, both plain ints whatever the mask width; the only
        other Python-level loop runs over the admitted candidates that
        actually have subproblems."""
        vertex_bits = len(self.bitset.vertices)
        edge_bits = len(self.bitset.edges)
        kv_var_matrix = MaskMatrix(self._kv_vars, vertex_bits)
        kv_edge_matrix = MaskMatrix(list(self._kv_masks), edge_bits)
        sub_comp_matrix = MaskMatrix(
            [component for _, component in self.sub_keys], vertex_bits
        )
        kv_masks = self._kv_masks
        kv_vars = self._kv_vars
        bounds = np.asarray(self._kv_sub_bounds, dtype=np.int64)
        cand_lambda = self.cand_lambda
        cand_subs = self.cand_subs
        kv_index = self._cand_kv_index
        arc_pieces = self._arc_pieces = []

        def admit(row: Tuple[int, int, int, int]) -> None:
            component, frontier, allowed_edges, boundary = row
            admitted_flags = kv_var_matrix.intersects(component)
            admitted_flags &= kv_var_matrix.covers(boundary)
            admitted_flags &= kv_edge_matrix.subset_of(allowed_edges)
            admitted = np.flatnonzero(admitted_flags)
            if not admitted.size:
                return
            base_id = len(cand_lambda)
            kv_index.frombytes(admitted.astype(np.int64, copy=False).tobytes())
            # λ and χ are gathered from the k-vertex lists as Python ints
            # (a matrix row would have to be rebuilt word by word).
            admitted_list = admitted.tolist()
            cand_lambda.extend(map(kv_masks.__getitem__, admitted_list))
            self.cand_chi.extend([frontier & kv_vars[i] for i in admitted_list])
            self.cand_comp.extend(repeat(component, admitted.size))
            # Subproblem ids are contiguous per k-vertex, so the ids of the
            # contained subproblems of k-vertex ``i`` are one slice of the
            # component's contained-id vector, located by searchsorted over
            # the block bounds.
            contained_ids = np.flatnonzero(sub_comp_matrix.subset_of(component))
            if not contained_ids.size:
                cand_subs.extend(repeat((), admitted.size))
                return
            positions = np.searchsorted(contained_ids, bounds)
            lows = positions[admitted]
            highs = positions[admitted + 1]
            counts = highs - lows
            occupied = np.flatnonzero(counts)
            if not occupied.size:
                cand_subs.extend(repeat((), admitted.size))
                return
            block: List[Tuple[int, ...]] = [()] * admitted.size
            contained_list = contained_ids.tolist()
            lows_list = lows.tolist()
            highs_list = highs.tolist()
            for j in occupied.tolist():
                block[j] = tuple(contained_list[lows_list[j]:highs_list[j]])
            cand_subs.extend(block)
            # Flattened (sub id, cand id) arc arrays: expand every [lo, hi)
            # slice arithmetically (dependents are grouped from these by one
            # lexsort at the end of construction).
            total = int(counts.sum())
            starts = np.repeat(lows, counts)
            within = np.arange(total, dtype=np.int64) - np.repeat(
                np.cumsum(counts) - counts, counts
            )
            arc_pieces.append(
                (
                    contained_ids[starts + within],
                    np.repeat(base_id + np.arange(admitted.size), counts),
                )
            )

        return admit

    def _dependents_from_arcs(self) -> List[Tuple[int, ...]]:
        """Group the flattened arc arrays into per-subproblem dependent
        tuples (ascending candidate id, matching the scalar walk)."""
        num_subs = len(self.sub_keys)
        pieces = self._arc_pieces or []
        if not pieces:
            return [()] * num_subs
        if len(pieces) == 1:
            subs, cands = pieces[0]
        else:
            subs = np.concatenate([piece[0] for piece in pieces])
            cands = np.concatenate([piece[1] for piece in pieces])
        order = np.lexsort((cands, subs))
        sorted_subs = subs[order]
        sorted_cands = cands[order].tolist()
        boundaries = np.searchsorted(
            sorted_subs, np.arange(num_subs + 1, dtype=np.int64)
        ).tolist()
        return [
            tuple(sorted_cands[boundaries[q]:boundaries[q + 1]])
            for q in range(num_subs)
        ]

    # ------------------------------------------------------------------
    # Solver arcs: candidate -> subproblems it can solve
    # ------------------------------------------------------------------
    def _build_solver_arcs(self) -> None:
        """``sub_solvers[q]``: every candidate of ``q``'s component, one
        tuple per component shared by its subproblems.  The arc condition
        ``var(edges(C)) ∩ var(R) ⊆ var(S)`` is the same for every
        subproblem ``(R, C)`` of one component, and admission already
        required it."""
        solvers_of = {
            component: tuple(ids) for component, ids in self._by_component.items()
        }
        self.sub_solvers: List[Tuple[int, ...]] = [
            solvers_of[component] for _, component in self.sub_keys
        ]

    # ------------------------------------------------------------------
    # Dense-id accessors (the algorithms' hot path)
    # ------------------------------------------------------------------
    @property
    def num_candidates(self) -> int:
        return len(self.cand_lambda)

    @property
    def cand_keys(self) -> List[MaskCandidate]:
        """Per-candidate ``(λ edge mask, component mask)`` identities.

        Derived (lazily, once) from ``cand_lambda``/``cand_comp``: no
        algorithm consumes the pairs, only the translation accessors do."""
        if self._cand_keys is None:
            self._cand_keys = list(zip(self.cand_lambda, self.cand_comp))
        return self._cand_keys

    @property
    def cand_var(self) -> List[int]:
        """Per-candidate ``var(λ)`` vertex masks, gathered (lazily, once)
        from the k-vertex table through the candidates' k-vertex index."""
        if self._cand_var is None:
            kv_vars = self._kv_vars
            self._cand_var = [kv_vars[i] for i in self._cand_kv_index]
        return self._cand_var

    def _label_arrays(self) -> Tuple[List[int], List[int], List[int]]:
        """``(cand_label, label_lambda, label_chi)``, derived once: each
        distinct ``(λ, χ)`` pair gets the next id at its first occurrence
        over candidate ids (the order of ``dict.fromkeys(zip(cand_lambda,
        cand_chi))``), so the labels are as byte-identical across engines
        as the arrays they come from."""
        if self._labels is None:
            ids: Dict[Tuple[int, int], int] = {}
            cand_label = [
                ids.setdefault(pair, len(ids))
                for pair in zip(self.cand_lambda, self.cand_chi)
            ]
            self._labels = (
                cand_label,
                [lambda_mask for lambda_mask, _ in ids],
                [chi_mask for _, chi_mask in ids],
            )
        return self._labels

    @property
    def cand_label(self) -> List[int]:
        """Per-candidate label id (an index into ``label_lambda`` /
        ``label_chi``)."""
        return self._label_arrays()[0]

    @property
    def label_lambda(self) -> List[int]:
        """Per-label ``λ`` edge mask."""
        return self._label_arrays()[1]

    @property
    def label_chi(self) -> List[int]:
        """Per-label ``χ`` vertex mask."""
        return self._label_arrays()[2]

    @property
    def num_subproblems(self) -> int:
        return len(self.sub_keys)

    #: The root subproblem ``(∅, var(H))`` always receives id 0.
    ROOT_SUBPROBLEM_ID = 0

    def node_view(self, cand_id: int, node_id: int) -> DecompositionNode:
        """The string-labelled :class:`DecompositionNode` of a candidate id
        (the translation boundary for TAFs and emitted decompositions)."""
        bitset = self.bitset
        return DecompositionNode(
            node_id=node_id,
            lambda_edges=bitset.edge_names(self.cand_lambda[cand_id]),
            chi=bitset.vertex_names(self.cand_chi[cand_id]),
            component=bitset.vertex_names(self.cand_comp[cand_id]),
        )

    # ------------------------------------------------------------------
    # Mask ↔ name translation of node keys
    # ------------------------------------------------------------------
    def to_subproblem(self, subproblem: MaskSubproblem) -> Subproblem:
        kv, component = subproblem
        return (self.bitset.edge_names(kv), self.bitset.vertex_names(component))

    #: Candidates and subproblems share the ``(edge set, vertex set)`` shape.
    to_candidate = to_subproblem

    def public_candidate(self, cand_id: int) -> Candidate:
        return self.to_candidate(self.cand_keys[cand_id])

    def public_subproblem(self, sub_id: int) -> Subproblem:
        return self.to_subproblem(self.sub_keys[sub_id])

    # ------------------------------------------------------------------
    # Accessors used by tests and by presentation code
    # ------------------------------------------------------------------
    def all_k_vertices(self) -> Tuple[KVertex, ...]:
        edge_names = self.bitset.edge_names
        return tuple(edge_names(mask) for mask in self._kv_masks)

    def var_of(self, kvertex: KVertex) -> FrozenSet[Vertex]:
        if not kvertex:
            return frozenset()
        bitset = self.bitset
        return bitset.vertex_names(self._mvar_of[bitset.edge_mask(kvertex)])

    def component_frontier(self, component: Component) -> FrozenSet[Vertex]:
        """``var(edges(C))`` for a component that appears in the graph."""
        bitset = self.bitset
        return bitset.vertex_names(
            self._mfrontier_of[bitset.vertex_mask(component, strict=True)]
        )

    def component_edges(self, component: Component) -> FrozenSet[EdgeName]:
        bitset = self.bitset
        return bitset.edge_names(
            self._mcomponent_edges[bitset.vertex_mask(component, strict=True)]
        )

    # ------------------------------------------------------------------
    def size_report(self) -> Dict[str, int]:
        """Node/arc counts, matching the quantities in the Theorem 4.5
        complexity discussion."""
        solver_arcs = sum(len(v) for v in self.sub_solvers)
        subproblem_arcs = sum(len(subs) for subs in self.cand_subs)
        return {
            "k_vertices": len(self._kv_masks),
            "subproblems": len(self.sub_keys),
            "candidates": len(self.cand_lambda),
            "labels": len(self.label_lambda),
            "solver_arcs": solver_arcs,
            "subproblem_arcs": subproblem_arcs,
        }

    def __repr__(self) -> str:
        report = self.size_report()
        return (
            f"CandidatesGraph(k={self.k}, |N_sub|={report['subproblems']}, "
            f"|N_sol|={report['candidates']})"
        )


def _resolve_vectorized(
    vectorized: Optional[bool], num_edges: int, k: int
) -> bool:
    if vectorized is None:
        return np is not None and count_k_vertices(num_edges, k) >= (
            _VECTORIZE_MIN_K_VERTICES
        )
    if vectorized and np is None:
        raise DecompositionError(
            "vectorized candidates-graph construction requires numpy; "
            "pass vectorized=False (or None) for the scalar engine"
        )
    return bool(vectorized)
