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
under it either as scalar big-int loops, one component at a time, or as one
whole-graph :class:`~repro.core.maskmatrix.MaskMatrix` block kernel: every
component row × every k-vertex in 2-D broadcasts, a block of rows at a
time (``_BLOCK_CELLS`` bounds the transient arrays), then one gathered
containment test per subproblem arc.  The solver arcs need no filter of
their own: ``sub_solvers[q]`` is the candidate range of ``q``'s component.
``vectorized=None`` picks the matrix engine whenever numpy is importable.
Both engines fill the same containers and produce **byte-identical** graphs
(same node and arc ids, in the same canonical order), which the property
tests pin, so the scalar engine is the equivalence oracle and the
numpy-free fallback.

Names appear only at the boundary: :meth:`CandidatesGraph.public_candidate`
/ :meth:`~CandidatesGraph.public_subproblem` translate one node id to its
``(edge names, vertex names)`` pair and :meth:`~CandidatesGraph.node_view`
to a labelled :class:`DecompositionNode`.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from itertools import combinations
from operator import and_
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

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

#: The most ``component row × k-vertex × word`` cells one admission block
#: tests at once (a block holds at least one row): the block kernel's
#: transient arrays take a few bytes per cell.
_BLOCK_CELLS = 1 << 18


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
        block kernel (requires numpy), ``False`` the scalar big-int loops;
        ``None`` (default) picks the block kernel when numpy is importable.
        Both engines build byte-identical graphs.

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
        ``cand_keys``, ``cand_var`` and ``cand_comp`` are derived lazily
        (the evaluation reads none of them); the block kernel's
        ``cand_subs`` slices each tuple from its arc array on access.
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
        self.vectorized = _resolve_vectorized(vectorized)
        self._build()

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
        self._cand_comp: Optional[List[int]] = None
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

        # --- N_sol: admit the live k-vertices ------------------------------
        # Candidates are numbered component block by component block (in
        # interning order, k-vertices in canonical order within each), so a
        # component's ids are one contiguous ``range``; each engine also
        # fills ``sub_dependents``, the reverse of ``cand_subs``.
        if self.vectorized:
            self._admit_blocks(component_rows)
        else:
            self._admit_scalar(component_rows)
        self._build_solver_arcs()

    def _enumerate_subproblems(self) -> Iterable[int]:
        """Append the subproblem block of every k-vertex to ``sub_keys``:
        one subproblem per ``[var(S)]``-component, ids assigned in k-vertex
        order, so k-vertex ``i`` owns the contiguous id block
        ``range(bounds[i], bounds[i+1])``.  Returns the distinct components
        (the root's first), in interning order."""
        bitset = self.bitset
        components_of = bitset.components
        edge_masks = bitset.edge_masks
        kv_masks = self._kv_masks
        kv_vars = self._kv_vars
        var_of = self._mvar_of
        sub_keys = self.sub_keys
        kv_sub_bounds = self._kv_sub_bounds
        # dict-as-ordered-set: deterministic iteration over components
        seen_components: Dict[int, None] = {bitset.all_vertices: None}
        for kv in kv_masks:
            # var(S) = var(S minus its lowest edge) ∪ that edge: the smaller
            # k-vertex comes earlier in the (size, lexicographic) order.
            lowest = kv & -kv
            variables = var_of.get(kv ^ lowest, 0) | edge_masks[lowest.bit_length() - 1]
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
        order.  The allowed edges ``edges(var(edges(C)))`` are the union of
        the edges sharing a vertex with some edge of ``C``, so one walk
        over ``edges(C)`` yields both unions.  The boundary ``var(edges(C))
        ∖ C`` is every subproblem ``(R, C)``'s ``var(edges(C)) ∩ var(R)``
        (see the module docstring)."""
        bitset = self.bitset
        edges_touching = bitset.edges_touching
        edge_masks = bitset.edge_masks
        neighbours = [edges_touching(mask) for mask in edge_masks]
        frontier_of = self._mfrontier_of = {}
        component_edges = self._mcomponent_edges = {}
        rows: List[Tuple[int, int, int, int]] = []
        for component in components:
            edges = rest = edges_touching(component)
            frontier = allowed = 0
            while rest:
                bit = rest & -rest
                index = bit.bit_length() - 1
                frontier |= edge_masks[index]
                allowed |= neighbours[index]
                rest ^= bit
            component_edges[component] = edges
            frontier_of[component] = frontier
            rows.append((component, frontier, allowed, frontier & ~component))
        return rows

    # ------------------------------------------------------------------
    # Candidate admission: for every component row, every live candidate,
    # in canonical k-vertex order: a k-vertex ``S`` that meets ``C``, whose
    # ``var`` covers ``C``'s boundary and whose edges all lie in
    # ``edges(var(edges(C)))``.  Both engines fill the same arrays.
    # ------------------------------------------------------------------
    def _admit_scalar(self, component_rows: List[Tuple[int, int, int, int]]) -> None:
        """Pure mask algebra: membership, covering and subset tests are all
        single ``&``/``~`` operations on ints; candidates are appended to the
        parallel arrays, so the loop performs no hashing."""
        kv_masks = self._kv_masks
        kv_vars = self._kv_vars
        bounds = self._kv_sub_bounds
        sub_keys = self.sub_keys
        self.cand_lambda = cand_lambda = []
        self.cand_chi = cand_chi = []
        self.cand_subs = cand_subs = []
        #: candidate id -> index of its λ in the k-vertex enumeration (a
        #: flat int64 buffer: appendable without numpy, viewable by it)
        self._cand_kv_index = kv_index = array("q")
        self._by_component = {}
        for component, frontier, allowed_edges, boundary in component_rows:
            start = len(cand_lambda)
            for index, variables in enumerate(kv_vars):
                if boundary & ~variables or not variables & component:
                    continue
                if kv_masks[index] & ~allowed_edges:
                    continue
                cand_lambda.append(kv_masks[index])
                kv_index.append(index)
                cand_chi.append(frontier & variables)
                cand_subs.append(
                    tuple(
                        sub_id
                        for sub_id in range(bounds[index], bounds[index + 1])
                        if not sub_keys[sub_id][1] & ~component
                    )
                )
            self._by_component[component] = range(start, len(cand_lambda))
        dependents: List[List[int]] = [[] for _ in sub_keys]
        for cand_id, subs in enumerate(cand_subs):
            for sub_id in subs:
                dependents[sub_id].append(cand_id)
        self.sub_dependents = list(map(tuple, dependents))

    def _admit_blocks(self, component_rows: List[Tuple[int, int, int, int]]) -> None:
        """The admission as one block kernel over every component row × every
        k-vertex: the three tests run as 2-D :class:`MaskMatrix` broadcasts,
        a block of rows at a time (at most ``_BLOCK_CELLS`` cells), and
        ``np.nonzero`` lists the admitted ``(row, k-vertex)`` pairs in
        row-major order -- the scalar engine's candidate-id order.  A
        pair's subproblem arcs are its k-vertex's subproblem block, kept
        where the subproblem's component lies in the pair's (one gathered
        test per arc, never a components × components matrix);
        ``cand_subs`` and ``sub_dependents`` are grouped from the one arc
        array.  λ and χ are gathered as Python ints, so wide masks are
        never rebuilt from words."""
        bitset = self.bitset
        vertex_bits, edge_bits = len(bitset.vertices), len(bitset.edges)
        components, frontiers, allowed, boundaries = zip(*component_rows)
        kv_masks, kv_vars = self._kv_masks, self._kv_vars
        kv_var_matrix = MaskMatrix(kv_vars, vertex_bits)
        kv_edge_matrix = MaskMatrix(kv_masks, edge_bits)
        comp_matrix = MaskMatrix(components, vertex_bits)
        boundary_matrix = MaskMatrix(boundaries, vertex_bits)
        allowed_matrix = MaskMatrix(allowed, edge_bits)
        row_of = {component: row for row, component in enumerate(components)}
        sub_rows = np.fromiter(
            (row_of[component] for _, component in self.sub_keys),
            dtype=np.int64,
            count=len(self.sub_keys),
        )
        bounds = np.asarray(self._kv_sub_bounds, dtype=np.int64)
        num_rows = len(components)
        widest = max(kv_var_matrix.width, kv_edge_matrix.width)
        step = max(1, _BLOCK_CELLS // (len(kv_masks) * widest))
        pair_rows, pair_kvs, arc_subs, arc_cands = [], [], [], []
        num_cands = 0
        for lo in range(0, num_rows, step):
            hi = min(lo + step, num_rows)
            admitted = kv_var_matrix.block("intersects", comp_matrix, lo, hi)
            admitted &= kv_var_matrix.block("covers", boundary_matrix, lo, hi)
            admitted &= kv_edge_matrix.block("subset_of", allowed_matrix, lo, hi)
            rows, kvs = np.nonzero(admitted)
            rows += lo
            # Expand every pair's [bounds[kv], bounds[kv + 1]) subproblem
            # block into flat (candidate, subproblem) arc arrays.
            counts = bounds[kvs + 1] - bounds[kvs]
            cands = np.repeat(np.arange(kvs.size), counts)
            subs = np.arange(cands.size) + np.repeat(
                bounds[kvs] - (np.cumsum(counts) - counts), counts
            )
            inside = comp_matrix.pairs(
                "subset_of", sub_rows[subs], comp_matrix, rows[cands]
            )
            arc_subs.append(subs[inside])
            arc_cands.append(cands[inside] + num_cands)
            pair_rows.append(rows)
            pair_kvs.append(kvs)
            num_cands += kvs.size
        rows, kvs = np.concatenate(pair_rows), np.concatenate(pair_kvs)
        subs, cands = np.concatenate(arc_subs), np.concatenate(arc_cands)
        row_list, kv_list = rows.tolist(), kvs.tolist()
        self.cand_lambda = list(map(kv_masks.__getitem__, kv_list))
        self.cand_chi = list(
            map(
                and_,
                map(frontiers.__getitem__, row_list),
                map(kv_vars.__getitem__, kv_list),
            )
        )
        self._cand_kv_index = array("q", kvs.astype(np.int64).tobytes())
        row_ends = np.cumsum(np.bincount(rows, minlength=num_rows)).tolist()
        self._by_component = dict(
            zip(components, map(range, [0, *row_ends], row_ends))
        )
        # The arcs run in candidate order; a stable sort by subproblem keeps
        # each subproblem's dependents ascending, as the scalar walk does.
        self.cand_subs = _Groups(subs, cands, num_cands)
        order = np.argsort(subs, kind="stable")
        self.sub_dependents = list(
            _Groups(cands[order], subs[order], len(self.sub_keys))
        )

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
    def cand_comp(self) -> List[int]:
        """Per-candidate component vertex masks, expanded (lazily, once)
        from the components' candidate ranges."""
        if self._cand_comp is None:
            self._cand_comp = [
                component
                for component, ids in self._by_component.items()
                for _ in ids
            ]
        return self._cand_comp

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


class _Groups(Sequence):
    """A flat id array split into tuples: group ``i`` is the ``values``
    whose ``groups`` entry is ``i`` (``values`` ordered by ascending
    ``groups``), sliced as a tuple of Python ints on access."""

    __slots__ = ("_flat", "_ends")

    def __init__(self, values, groups, num_groups: int) -> None:
        ends = np.cumsum(np.bincount(groups, minlength=num_groups)).tolist()
        self._ends = [0, *ends]
        self._flat = tuple(values.tolist())

    def __len__(self) -> int:
        return len(self._ends) - 1

    def __getitem__(self, index: int) -> Tuple[int, ...]:
        index = range(len(self._ends) - 1)[index]  # negative and range checks
        return self._flat[self._ends[index]:self._ends[index + 1]]

    def __iter__(self) -> Iterator[Tuple[int, ...]]:
        flat, ends = self._flat, self._ends
        for start, end in zip(ends, ends[1:]):
            yield flat[start:end]


def _resolve_vectorized(vectorized: Optional[bool]) -> bool:
    if vectorized is None:
        return np is not None
    if vectorized and np is None:
        raise DecompositionError(
            "vectorized candidates-graph construction requires numpy; "
            "pass vectorized=False (or None) for the scalar engine"
        )
    return bool(vectorized)
