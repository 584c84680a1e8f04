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
  ``h ∈ S`` meets ``var(edges(C'))``.

Arcs encode "solves" and "is a subproblem of":

* a candidate ``(S, C)`` points to every subproblem ``(R, C)`` with
  ``var(edges(C)) ∩ var(R) ⊆ var(S)`` (it can be the child of ``R``
  decomposing ``C`` without breaking connectedness);
* every subproblem ``(S, C'')`` with ``C''`` a ``[var(S)]``-component
  contained in ``C`` points to the candidate ``(S, C)`` (it must be solved
  below it).

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
``sub_dependents[q]`` for subproblem ``q``.

**One build driver, two filter-kernel engines.**  ``_build`` is the only
construction path; the three hot filters of the build phase -- candidate
admission (``var(S) ∩ C ≠ 0`` ∧ ``S ⊆ edges(var(edges(C)))``), subproblem
containment (``C'' ⊆ C``) and the solver-arc covering test (``boundary ⊆
var(S)``) -- run under it either as scalar big-int loops or as whole-array
:class:`~repro.core.maskmatrix.MaskMatrix` kernels (one broadcasted test per
component / per distinct ``(component, boundary)`` pair).  ``vectorized=None``
picks the matrix engine when numpy is available and ``Ψ`` is big enough to
amortise the array overhead.  Both engines fill the same containers and
produce **byte-identical** graphs (same node and arc ids, in the same
canonical order), which the property tests pin, so the scalar engine is the
equivalence oracle and the numpy-free fallback.

**k-incremental construction.**  The canonical k-vertex enumeration is by
size then lexicographic rank, so the k-vertices of bound ``k`` are a prefix
of those of ``k' > k`` -- and with them the per-k-vertex subproblem blocks,
the interned components and their frontiers.  The driver therefore takes an
optional smaller-bound *base* graph (:meth:`CandidatesGraph.extend_to`) and
re-uses every admission/containment/covering decision that involves only
prefix k-vertices and old components, testing just the new k-vertices (and
the components they expose); a fresh construction is the extension of the
empty graph.  The result is byte-identical whatever the base.
:class:`CandidatesGraphFamily` wraps this into a per-``k`` cache for sweeps
(the Fig. 8(A) ``k = 2..5`` sweep, repeated planner calls).

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
_VECTORIZE_MIN_K_VERTICES = 64


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
    the masks for any bound ``k' > k``, which is what makes the candidates
    graph incrementally extensible across a k-sweep.
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
    that use the graph (:mod:`repro.decomposition.minimal`).

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
        candidate-id tuples: ``incoming(q)`` / ``outcoming(q)``.
    ``sub_order``
        subproblem ids by increasing component size -- the Fig. 2 extraction
        order (a subproblem is processed only after everything below it).
    ``cand_keys[i]`` / ``cand_lambda[i]`` / ``cand_var[i]`` /
    ``cand_chi[i]`` / ``cand_comp[i]`` / ``cand_subs[i]``
        per-candidate identity, ``λ`` edge mask, ``var(λ)`` vertex mask,
        ``χ`` vertex mask, component vertex mask, and subproblem-id tuple.
    """

    def __init__(
        self,
        hypergraph: Hypergraph,
        k: int,
        vectorized: Optional[bool] = None,
        _base: Optional["CandidatesGraph"] = None,
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
        #: pairs, filled by the vectorised engine (and concatenated into
        #: ``_arc_subs`` / ``_arc_cands`` for reuse by extensions); ``None``
        #: on the scalar engine.
        self._arc_pieces: Optional[List[Tuple[object, object]]] = None
        self._arc_subs = None
        self._arc_cands = None
        self._build(_base)

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

    # ------------------------------------------------------------------
    # Construction (the Build phase of Fig. 2)
    # ------------------------------------------------------------------
    def _build(self, base: Optional["CandidatesGraph"]) -> None:
        """Build this bound-``k`` graph, from ``base`` (bound ``< k``) when
        given; a fresh construction is the extension of the empty graph.

        Everything decided by prefix k-vertices against old components is
        copied (with candidate ids renumbered into the new per-component
        order); only the new k-vertices -- and, for the components they
        expose, the full k-vertex range -- are tested.  The result is
        byte-identical whatever the base (and whichever engine built it).
        """
        self._kv_masks: Tuple[int, ...] = k_vertex_masks(self.hypergraph, self.k)
        all_vertices = self.bitset.all_vertices
        if base is None:
            # --- N_sub: the root subproblem gets id 0 ---------------------
            self._kv_vars: List[int] = []
            self._mvar_of: Dict[int, int] = {}
            self.sub_keys: List[MaskSubproblem] = [(0, all_vertices)]
            self._kv_sub_bounds: List[int] = [1]
            # dict-as-ordered-set: deterministic iteration over components
            self._seen_components: Dict[int, None] = {all_vertices: None}
            self._mfrontier_of: Dict[int, int] = {}
            self._mcomponent_edges: Dict[int, int] = {}
            self._component_rows: List[Tuple[int, int, int]] = []
            old_num_kvs = 0
            old_by_component: Dict[int, range] = {}
            new_id_of_old: List[int] = []
        else:
            if base.hypergraph != self.hypergraph:
                raise DecompositionError(
                    "cannot extend a candidates graph built for a different hypergraph"
                )
            if base.k >= self.k:
                raise DecompositionError(
                    f"extend_to requires a larger width bound (have k={base.k}, "
                    f"requested k={self.k})"
                )
            # --- N_sub: prefix blocks are shared verbatim -----------------
            self._kv_vars = list(base._kv_vars)
            self._mvar_of = dict(base._mvar_of)
            self.sub_keys = list(base.sub_keys)
            self._kv_sub_bounds = list(base._kv_sub_bounds)
            self._seen_components = dict(base._seen_components)
            self._mfrontier_of = dict(base._mfrontier_of)
            self._mcomponent_edges = dict(base._mcomponent_edges)
            self._component_rows = list(base._component_rows)
            old_num_kvs = len(base._kv_masks)
            old_by_component = base._by_component
            #: old candidate id -> new candidate id (monotone per component).
            new_id_of_old = [0] * base.num_candidates
        self._enumerate_subproblems(range(old_num_kvs, len(self._kv_masks)))
        self._complete_component_rows()

        # --- N_sol: copy old per-component blocks, admit new k-vertices ---
        # Candidates are appended component-block by component-block (in
        # interning order, k-vertices in canonical order within each), so a
        # component's ids are one contiguous ``range`` in the old and the
        # new graph -- the copy and the old→new renumbering are slice
        # arithmetic, no per-candidate loop.
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
        for row in self._component_rows:
            component = row[0]
            start = len(cand_lambda)
            old_ids = old_by_component.get(component)
            if old_ids is None:
                # A component first exposed by a new k-vertex: full range.
                admit(row, 0)
            else:
                lo, hi = old_ids.start, old_ids.stop
                new_id_of_old[lo:hi] = range(start, start + hi - lo)
                cand_lambda.extend(base.cand_lambda[lo:hi])
                self.cand_chi.extend(base.cand_chi[lo:hi])
                self.cand_comp.extend(repeat(component, hi - lo))
                self._cand_kv_index.extend(base._cand_kv_index[lo:hi])
                # Prefix k-vertex subproblem ids are unchanged, so the
                # containment decisions carry over verbatim.
                self.cand_subs.extend(base.cand_subs[lo:hi])
                # Only the new k-vertices remain to be tested here.
                admit(row, old_num_kvs)
            self._by_component[component] = range(start, len(cand_lambda))

        if self.vectorized and base is not None:
            self._inherit_arc_pieces(base, new_id_of_old)
        self._build_solver_arcs(base, new_id_of_old)

    def _enumerate_subproblems(self, kv_indices: Iterable[int]) -> None:
        """Append the subproblem block of every k-vertex in ``kv_indices``
        to ``sub_keys``: one subproblem per ``[var(S)]``-component, ids
        assigned in k-vertex order, so k-vertex ``i`` owns the contiguous id
        block ``range(bounds[i], bounds[i+1])``."""
        bitset = self.bitset
        components_of = bitset.components
        var_of_edges = bitset.var_of_edges
        kv_masks = self._kv_masks
        kv_vars = self._kv_vars
        var_of = self._mvar_of
        sub_keys = self.sub_keys
        kv_sub_bounds = self._kv_sub_bounds
        seen_components = self._seen_components
        for index in kv_indices:
            kv = kv_masks[index]
            variables = var_of_edges(kv)
            kv_vars.append(variables)
            var_of[kv] = variables
            for component in components_of(variables):
                sub_keys.append((kv, component))
                seen_components[component] = None
            kv_sub_bounds.append(len(sub_keys))

    def _complete_component_rows(self) -> None:
        """Cache ``edges(C)``, ``var(edges(C))`` and the allowed-edge mask
        for every distinct component not yet profiled, in interning order."""
        bitset = self.bitset
        edges_touching = bitset.edges_touching
        var_of_edges = bitset.var_of_edges
        frontier_of = self._mfrontier_of
        component_edges = self._mcomponent_edges
        component_rows = self._component_rows
        for component in self._seen_components:
            if component in frontier_of:
                continue
            edges = edges_touching(component)
            component_edges[component] = edges
            frontier = var_of_edges(edges)
            frontier_of[component] = frontier
            component_rows.append((component, frontier, edges_touching(frontier)))

    # ------------------------------------------------------------------
    # Candidate admission: ``admit(row, kv_start)`` appends, for one
    # component row, every candidate whose k-vertex index is ``≥ kv_start``
    # to the parallel arrays, in canonical k-vertex order.  The factory
    # shape lets the matrix engine build its mask matrices once per
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

        def admit(row: Tuple[int, int, int], kv_start: int) -> None:
            component, frontier, allowed_edges = row
            for index in range(kv_start, num_kvs):
                variables = kv_vars[index]
                if not variables & component:
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
        broadcasted intersection + subset test over every k-vertex at once
        and one containment test over every subproblem at once (folded into
        per-k-vertex id slices by ``searchsorted`` over the contiguous
        subproblem blocks); admitted rows are materialised by C-level
        gathers, so the only Python-level loop left runs over the admitted
        candidates that actually have subproblems."""
        vertex_bits = len(self.bitset.vertices)
        edge_bits = len(self.bitset.edges)
        kv_var_matrix = MaskMatrix(self._kv_vars, vertex_bits)
        kv_edge_matrix = MaskMatrix(list(self._kv_masks), edge_bits)
        sub_comp_matrix = MaskMatrix(
            [component for _, component in self.sub_keys], vertex_bits
        )
        self._kv_var_matrix = kv_var_matrix
        bounds = np.asarray(self._kv_sub_bounds, dtype=np.int64)
        cand_lambda = self.cand_lambda
        cand_subs = self.cand_subs
        kv_index = self._cand_kv_index
        arc_pieces = self._arc_pieces = []

        def admit(row: Tuple[int, int, int], kv_start: int) -> None:
            component, frontier, allowed_edges = row
            admitted_flags = kv_var_matrix.intersects(component)
            admitted_flags &= kv_edge_matrix.subset_of(allowed_edges)
            if kv_start:
                admitted_flags = admitted_flags[kv_start:]
            admitted = np.flatnonzero(admitted_flags)
            if kv_start:
                admitted += kv_start
            if not admitted.size:
                return
            base_id = len(cand_lambda)
            kv_index.frombytes(admitted.astype(np.int64, copy=False).tobytes())
            cand_lambda.extend(kv_edge_matrix.tolist(admitted))
            self.cand_chi.extend(kv_var_matrix.intersections(frontier, admitted))
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

    def _inherit_arc_pieces(
        self, base: "CandidatesGraph", new_id_of_old: List[int]
    ) -> None:
        """The copied candidates' arcs, renumbered into the new id space
        (prefix subproblem ids are unchanged), join the arc pieces the
        matrix admitter collected for the new candidates."""
        if base._arc_subs is not None:
            base_arc_subs, base_arc_cands = base._arc_subs, base._arc_cands
        else:  # scalar-built base: flatten its cand_subs once
            flat_subs: List[int] = []
            flat_cands: List[int] = []
            for cand_id, subs in enumerate(base.cand_subs):
                if subs:
                    flat_subs.extend(subs)
                    flat_cands.extend(repeat(cand_id, len(subs)))
            base_arc_subs = np.asarray(flat_subs, dtype=np.int64)
            base_arc_cands = np.asarray(flat_cands, dtype=np.int64)
        if base_arc_subs.size:
            remap = np.asarray(new_id_of_old, dtype=np.int64)
            self._arc_pieces.append((base_arc_subs, remap[base_arc_cands]))

    def _dependents_from_arcs(self) -> List[Tuple[int, ...]]:
        """Group the flattened arc arrays into per-subproblem dependent
        tuples (ascending candidate id, matching the scalar walk)."""
        num_subs = len(self.sub_keys)
        pieces = self._arc_pieces or []
        if not pieces:
            self._arc_subs = np.empty(0, dtype=np.int64)
            self._arc_cands = np.empty(0, dtype=np.int64)
            return [()] * num_subs
        if len(pieces) == 1:
            subs, cands = pieces[0]
        else:
            subs = np.concatenate([piece[0] for piece in pieces])
            cands = np.concatenate([piece[1] for piece in pieces])
        self._arc_subs = subs
        self._arc_cands = cands
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
    def _build_solver_arcs(
        self, base: Optional["CandidatesGraph"], new_id_of_old: List[int]
    ) -> None:
        """``sub_solvers[q]``: the candidates of ``q``'s component whose
        ``var(λ)`` covers ``q``'s boundary, memoised per distinct
        ``(component, boundary)`` pair (many subproblems of one component
        share their boundary; equal pairs share one tuple object).

        The engines differ only in the covering filter ``covered(boundary,
        ids)`` over a contiguous id range: a big-int loop, or one
        broadcasted test on the k-vertex variable matrix through the
        candidates' k-vertex index."""
        kv_index = self._cand_kv_index
        if self.vectorized:
            kv_var_matrix = self._kv_var_matrix
            kv_rows = np.frombuffer(kv_index, dtype=np.int64)

            def covered(boundary: int, ids: range) -> List[int]:
                flags = kv_var_matrix.covers(boundary, kv_rows[ids.start:ids.stop])
                return (np.flatnonzero(flags) + ids.start).tolist()

        else:
            kv_vars = self._kv_vars

            def covered(boundary: int, ids: range) -> List[int]:
                return [c for c in ids if not boundary & ~kv_vars[kv_index[c]]]

        frontier_of = self._mfrontier_of
        var_of = self._mvar_of
        by_component = self._by_component
        old_num_subs = 0 if base is None else len(base.sub_keys)
        cache: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        sub_solvers: List[Tuple[int, ...]] = []
        for sub_id, (r_mask, component) in enumerate(self.sub_keys):
            boundary = frontier_of[component] & (var_of[r_mask] if r_mask else 0)
            key = (component, boundary)
            solvers = cache.get(key)
            if solvers is None:
                ids = by_component[component]
                kept: List[int] = []
                if sub_id < old_num_subs:
                    # Old subproblem (its component is old too): keep the old
                    # decisions, test only the candidates this extension
                    # added (old candidates precede new ones per component).
                    kept = [new_id_of_old[c] for c in base.sub_solvers[sub_id]]
                    ids = ids[len(base._by_component[component]):]
                if boundary and ids:
                    kept += covered(boundary, ids)
                else:
                    kept += ids
                solvers = cache[key] = tuple(kept)
            sub_solvers.append(solvers)
        self.sub_solvers = sub_solvers

    # ------------------------------------------------------------------
    def extend_to(
        self, k: int, vectorized: Optional[bool] = None
    ) -> "CandidatesGraph":
        """The candidates graph of the same hypergraph at a larger bound
        ``k``, built incrementally from this one (see the class docstring);
        byte-identical to ``CandidatesGraph(hypergraph, k)``.  Returns
        ``self`` when ``k`` equals this graph's bound.  ``vectorized``
        selects the engine for the *new* work (default: inherit this
        graph's engine)."""
        if k == self.k:
            return self
        if vectorized is None:
            vectorized = self.vectorized
        return CandidatesGraph(self.hypergraph, k, vectorized=vectorized, _base=self)

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
    @property
    def num_k_vertices(self) -> int:
        return len(self._kv_masks)

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


class CandidatesGraphFamily:
    """A per-``k`` cache of candidates graphs over one hypergraph.

    ``graph(k)`` returns the cached graph for ``k``, building it via
    :meth:`CandidatesGraph.extend_to` from the largest already-built smaller
    bound (so an ascending sweep ``k = 2..5`` pays for each k-vertex,
    component and arc decision exactly once) and from scratch otherwise.
    All graphs share the hypergraph's bitset view, its component memo and
    the interned label frozensets.
    """

    __slots__ = ("hypergraph", "vectorized", "_graphs")

    def __init__(
        self, hypergraph: Hypergraph, vectorized: Optional[bool] = None
    ) -> None:
        self.hypergraph = hypergraph
        self.vectorized = vectorized
        self._graphs: Dict[int, CandidatesGraph] = {}

    def graph(self, k: int) -> CandidatesGraph:
        built = self._graphs.get(k)
        if built is not None:
            return built
        # The engine is re-resolved per bound (``vectorized=None`` may pick
        # scalar at small k and the matrix engine once Ψ has grown).
        engine = _resolve_vectorized(
            self.vectorized, self.hypergraph.num_edges(), k
        )
        smaller = [bound for bound in self._graphs if bound < k]
        if smaller:
            built = self._graphs[max(smaller)].extend_to(k, vectorized=engine)
        else:
            built = CandidatesGraph(self.hypergraph, k, vectorized=engine)
        self._graphs[k] = built
        return built

    def __repr__(self) -> str:
        return (
            f"CandidatesGraphFamily(bounds={sorted(self._graphs)}, "
            f"hypergraph={self.hypergraph!r})"
        )

