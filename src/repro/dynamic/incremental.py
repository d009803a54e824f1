"""Incremental recompute: repair results from the affected set.

The paper's frontier/operator decomposition makes "start from the dirty
vertices" a first-class operation (Gunrock's framing): repair runs the
static algorithms' own min-relax superstep — only the initial frontier
changes, from ``{source}`` (or all vertices) to the set of vertices a
mutation batch can actually affect.  Under the vectorized policies
(``par_vector``, ``par_proc``) the repair loop calls the shared push
kernel :func:`~repro.operators.relax.min_relax_push` directly — the
function the fused SSSP/CC supersteps and the ``par_proc`` workers run —
and every other policy runs ``neighbors_expand`` under the enactor.  The
structural gathers use :func:`~repro.graph.segments.segment_edges` and
the CC deletion certificate :func:`~repro.graph.segments.reach_mask`,
the same raw-array kernels as the rest of the package.  Each function
returns the static algorithm's result type, so callers swap
``sssp(...)`` for ``incremental_sssp(...)`` without touching anything
downstream.

The repair recipes:

* **SSSP** — inserted edges are relaxed directly (monotone improvement
  propagates forward); deletions invalidate the *least* fixpoint of
  lost tight support (a vertex with a surviving tight in-edge from a
  strictly closer valid vertex keeps its distance), the invalidated
  region resets to ``INF``, and the boundary (finite-distance
  in-neighbors of the invalidated set) re-relaxes it.
* **BFS** — the same with unit weights, plus the parent tree: deleted
  parent edges start a level-ordered invalidation wave that a vertex
  escapes by having *any* surviving in-edge from a valid vertex one
  level up; repaired (and rescued-but-orphaned) vertices pick any
  tight in-edge as the new parent (the conformance comparator is
  tie-tolerant, as any valid parent is a valid BFS tree).
* **CC** — a deleted edge matters only if it disconnects its
  endpoints, so deletions are settled by one exact certificate: an
  undirected BFS from the root of every component that lost an edge
  (one traversal of the affected components, however many deletions
  the batch carries); unreached members are genuine split-offs and are
  relabelled in place.  Insertions merge at the label level (a tiny
  union-find over component labels).
* **PageRank / PPR** — warm restart: power iteration from the previous
  rank vector converges to the same fixed point (it is a contraction),
  typically in a small fraction of the cold-start iterations after a
  small mutation batch.

Every repair records a ``dynamic:repair`` span with the invalidated /
seed counts, and ``dynamic.*`` counters through the ambient Probe.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.algorithms.bfs import BFSResult, UNREACHED
from repro.algorithms.cc import CCResult
from repro.algorithms.pagerank import PageRankResult, pagerank
from repro.algorithms.ppr import PPRResult, personalized_pagerank
from repro.algorithms.sssp import SSSPResult
from repro.dynamic.dynamic_graph import DynamicGraph, MutationBatch
from repro.errors import GraphFormatError
from repro.execution.atomics import AtomicArray
from repro.execution.policy import (
    ExecutionPolicy,
    VectorPolicy,
    par_vector,
    resolve_policy,
)
from repro.frontier.sparse import SparseFrontier
from repro.graph.graph import Graph
from repro.graph.segments import reach_mask, segment_edges
from repro.loop.enactor import Enactor
from repro.observability.probe import active_probe
from repro.operators.advance import neighbors_expand
from repro.operators.conditions import scalar_condition
from repro.operators.relax import min_relax_push
from repro.operators.uniquify import uniquify
from repro.resilience.deadline import active_token
from repro.types import (
    INF,
    INVALID_VERTEX,
    VALUE_DTYPE,
    VERTEX_DTYPE,
)
from repro.utils.counters import IterationStats, RunStats

GraphLike = Union[Graph, DynamicGraph]


def _resolve(graph: GraphLike, batch: Optional[MutationBatch], since_epoch):
    """Normalize the (graph, batch) pair every incremental entry takes.

    A :class:`DynamicGraph` supplies both the merged snapshot and (via
    its mutation log) the batch; a plain :class:`Graph` must come with
    an explicit batch.
    """
    if isinstance(graph, DynamicGraph):
        merged = graph.graph()
        if batch is None:
            batch = graph.mutations_since(
                0 if since_epoch is None else since_epoch
            )
        return merged, batch
    if batch is None:
        raise GraphFormatError(
            "incremental recompute on a plain Graph needs an explicit "
            "MutationBatch (pass batch=, or pass the DynamicGraph)"
        )
    return graph, batch


def _min_relax_fixpoint(
    graph: Graph,
    values: np.ndarray,
    seed_ids: np.ndarray,
    policy,
    *,
    unit: bool,
    state_name: str,
    resilience=None,
) -> RunStats:
    """Run the label-correcting relax loop from ``seed_ids`` to empty
    under the scalar policies (``seq``, ``par``, ``par_nosync``).

    This is :func:`repro.algorithms.sssp.sssp`'s scalar superstep — an
    atomic min per edge under the enactor — so repair inherits those
    policies' schedules and resilience for free.  ``unit=True`` relaxes
    hop counts (BFS) instead of edge weights.
    """
    n = graph.n_vertices
    if seed_ids.size == 0:
        stats = RunStats()
        stats.converged = True
        return stats

    atomic = AtomicArray(values)

    @scalar_condition
    def condition(src, dst, edge, weight):
        new_v = values[src] + (1.0 if unit else weight)
        curr = atomic.min_at(dst, new_v)
        return new_v < curr

    enactor = Enactor(graph)

    def step(f, state):
        out = neighbors_expand(
            policy, graph, f, condition, workspace=enactor.workspace
        )
        return uniquify(policy, out, workspace=enactor.workspace)

    frontier = SparseFrontier.from_indices(
        seed_ids.astype(VERTEX_DTYPE, copy=False), n
    )
    return enactor.run(
        frontier,
        step,
        resilience=resilience,
        state_arrays={state_name: values},
    )


def _relax_push(
    merged: Graph,
    dist: np.ndarray,
    seeds: np.ndarray,
    *,
    unit: bool,
) -> RunStats:
    """The ``par_vector`` fast path of :func:`_min_relax_fixpoint`.

    Same label-correcting fixpoint, with nothing between the kernels:
    each superstep is one call of the shared push kernel
    (:func:`~repro.operators.relax.min_relax_push`, the one the fused
    SSSP/CC supersteps and the ``par_proc`` workers run), an
    ``np.minimum.at`` fold of its proposals, and ``np.unique`` of the
    improved destinations as the next frontier.  Repair frontiers are
    batch-sized, not graph-sized, so the enactor's per-superstep
    machinery (workspaces, frontier objects, bitmap dedup) would
    dominate the runtime.  ``unit=True`` relaxes hop counts (BFS)
    through a zero-stride unit-weight view.  Polls the ambient cancel
    token once per superstep, as :meth:`Enactor.run` does.
    """
    stats = RunStats()
    csr = merged.csr()
    ro = csr.row_offsets
    weights = (
        np.broadcast_to(np.ones(1, dtype=dist.dtype), csr.values.shape)
        if unit
        else csr.values
    )
    token = active_token()
    frontier = np.unique(seeds)
    iteration = 0
    while frontier.size:
        if token is not None:
            token.check(f"superstep:{iteration}")
        edges = int((ro.take(frontier + 1) - ro.take(frontier)).sum())
        if edges == 0:
            break
        stats.record(IterationStats(iteration, int(frontier.size), edges, 0.0))
        iteration += 1
        dsts, cand = min_relax_push(
            ro, csr.column_indices, weights, dist, frontier
        )
        if not dsts.size:
            break
        np.minimum.at(dist, dsts, cand)
        frontier = np.unique(dsts)
    stats.converged = True
    return stats


def _pull_refill(
    merged: Graph,
    dist: np.ndarray,
    invalid: np.ndarray,
    *,
    unit: bool,
) -> np.ndarray:
    """One pull step: refill each invalidated vertex from its in-edges.

    The CSC stores a vertex's in-edges contiguously, so one gather plus
    a segmented ``minimum.reduceat`` recomputes every invalidated
    vertex's best supported value in a handful of kernels — far cheaper
    than seeding the push loop with the whole region boundary and
    expanding *all* of the boundary's out-edges.  Invalid sources hold
    the INF sentinel, so they never vouch for a neighbor.  Returns the
    vertices that ended up with a finite value — the push loop's
    starting frontier; vertices supported only through other invalid
    vertices get their value when those push.
    """
    inv = np.nonzero(invalid)[0]
    if inv.size == 0:
        return inv
    csc = merged.csc()
    idx, cnts = segment_edges(csc.col_offsets, inv)
    nz = cnts > 0
    inv, cnts = inv[nz], cnts[nz]
    if inv.size == 0:
        return inv
    srcs = csc.row_indices[idx]
    cand = dist[srcs] + 1.0 if unit else dist[srcs] + csc.values[idx]
    seg0 = np.cumsum(cnts) - cnts
    refilled = np.minimum(dist[inv], np.minimum.reduceat(cand, seg0))
    dist[inv] = refilled
    return inv[refilled < INF]


def _tight_invalidate(
    merged: Graph,
    old: np.ndarray,
    dirty: np.ndarray,
    *,
    protect: int,
) -> np.ndarray:
    """Least fixpoint of "invalid iff no surviving tight support".

    A vertex's old distance survives a deletion batch iff it still has
    a *tight in-edge* (``old[src] + w == old[dst]``) from a vertex that
    itself survives.  Starting from the heads of deleted supporting
    edges, each candidate is first given the chance to be **rescued**
    by an alternative tight in-edge from a strictly-closer valid vertex
    (strictness keeps zero-weight cycles from vouching for themselves);
    only unrescued candidates are invalidated, and their tight
    out-neighbors re-examined — a supporter falling later re-queues
    anyone it had previously rescued.  Tight support strictly decreases
    distance along the chain, so the dependency order is acyclic and
    the iteration terminates with the *minimal* invalid set — the whole
    point, since repair cost scales with it.

    Returns a boolean mask; ``protect`` (the source) is never marked.
    """
    csr = merged.csr()
    csc = merged.csc()
    n = old.shape[0]
    invalid = np.zeros(n, dtype=bool)
    wave = np.unique(dirty[dirty != protect]).astype(VERTEX_DTYPE)
    while wave.size:
        srcs, dsts, _, wts = csc.gather_in_edges(wave)
        rescued = np.zeros(n, dtype=bool)
        if srcs.size:
            support = (
                (old[srcs] < old[dsts])
                & ~invalid[srcs]
                & (old[srcs] + wts == old[dsts])
            )
            rescued[dsts[support]] = True
        newly = wave[~rescued[wave] & ~invalid[wave]]
        if newly.size == 0:
            break
        invalid[newly] = True
        s2, d2, _, w2 = csr.expand_vertices(newly)
        dependents = (
            (old[d2] < INF)
            & (old[s2] + w2 == old[d2])
            & ~invalid[d2]
            & (d2 != protect)
        )
        wave = np.unique(d2[dependents]).astype(VERTEX_DTYPE)
    return invalid


def _boundary_seeds(graph: Graph, values: np.ndarray, invalid: np.ndarray):
    """Finite-valued in-neighbors of the invalidated set — the frontier
    from which the region is re-derived."""
    inv_ids = np.nonzero(invalid)[0].astype(VERTEX_DTYPE)
    if inv_ids.size == 0:
        return np.empty(0, dtype=VERTEX_DTYPE)
    srcs, _, _, _ = graph.csc().gather_in_edges(inv_ids)
    if srcs.size == 0:
        return np.empty(0, dtype=VERTEX_DTYPE)
    return np.unique(srcs[values[srcs] < INF]).astype(VERTEX_DTYPE)


def incremental_sssp(
    graph: GraphLike,
    prev: SSSPResult,
    *,
    batch: Optional[MutationBatch] = None,
    since_epoch: Optional[int] = None,
    policy: Union[str, ExecutionPolicy] = par_vector,
    resilience=None,
) -> SSSPResult:
    """Repair a previous SSSP result after a mutation batch.

    ``graph`` is the mutated graph (a :class:`DynamicGraph`, or a plain
    merged :class:`Graph` with ``batch`` given explicitly); ``prev`` is
    the result computed before the batch.  Distances equal a full
    recompute's exactly — the metamorphic oracle in ``repro verify``
    holds this to account across the policy matrix.
    """
    policy = resolve_policy(policy)
    merged, batch = _resolve(graph, batch, since_epoch)
    source = prev.source
    old = prev.distances
    dist = old.astype(VALUE_DTYPE, copy=True)
    probe = active_probe()
    with probe.span(
        "dynamic:repair", algorithm="sssp", batch=batch.size
    ) as span:
        invalid = np.zeros(merged.n_vertices, dtype=bool)
        if batch.n_removed:
            rs, rd, rw = (
                batch.removed_src.astype(np.int64),
                batch.removed_dst.astype(np.int64),
                batch.removed_w.astype(VALUE_DTYPE),
            )
            supported = (old[rs] < INF) & (old[rs] + rw == old[rd])
            invalid = _tight_invalidate(
                merged, old, rd[supported].astype(VERTEX_DTYPE), protect=source
            )
            dist[invalid] = INF
        vector = isinstance(policy, VectorPolicy)
        seeds = []
        if batch.n_inserted:
            is_, id_ = (
                batch.inserted_src.astype(np.int64),
                batch.inserted_dst.astype(np.int64),
            )
            cand = (dist[is_] + batch.inserted_w.astype(VALUE_DTYPE)).astype(
                VALUE_DTYPE
            )
            before = dist[id_].copy()
            np.minimum.at(dist, id_, cand)
            seeds.append(
                np.unique(id_[dist[id_] < before]).astype(VERTEX_DTYPE)
            )
        if vector:
            seeds.append(
                _pull_refill(merged, dist, invalid, unit=False).astype(
                    VERTEX_DTYPE
                )
            )
        else:
            seeds.append(_boundary_seeds(merged, dist, invalid))
        seed_ids = np.unique(np.concatenate(seeds)).astype(VERTEX_DTYPE)
        n_invalid = int(np.count_nonzero(invalid))
        span.set("invalidated", n_invalid)
        span.set("seeds", int(seed_ids.size))
        probe.counter("dynamic.invalidated", n_invalid)
        probe.counter("dynamic.repair_seeds", int(seed_ids.size))
        if vector:
            stats = _relax_push(merged, dist, seed_ids, unit=False)
        else:
            stats = _min_relax_fixpoint(
                merged,
                dist,
                seed_ids,
                policy,
                unit=False,
                state_name="dist",
                resilience=resilience,
            )
    return SSSPResult(distances=dist, source=source, stats=stats)


def incremental_bfs(
    graph: GraphLike,
    prev: BFSResult,
    *,
    batch: Optional[MutationBatch] = None,
    since_epoch: Optional[int] = None,
    policy: Union[str, ExecutionPolicy] = par_vector,
    resilience=None,
) -> BFSResult:
    """Repair BFS levels and parents after a mutation batch.

    Deleted parent-tree edges start an invalidation wave processed in
    increasing level order: a candidate with a surviving in-edge from a
    still-valid vertex one level up is *rescued* (its level is still
    achievable — only its parent pointer may need re-picking), and
    invalidation cascades only through vertices with no alternate
    support.  Repair then runs the unit-weight min-relax from the
    region boundary and re-derives parents for every vertex whose
    level changed or whose recorded parent edge is gone.
    """
    policy = resolve_policy(policy)
    merged, batch = _resolve(graph, batch, since_epoch)
    n = merged.n_vertices
    source = prev.source
    old_levels = prev.levels
    levels = old_levels.copy()
    parents = prev.parents.copy()
    probe = active_probe()
    with probe.span(
        "dynamic:repair", algorithm="bfs", batch=batch.size
    ) as span:
        # 1. Invalidate exactly the vertices that lost all level
        #    support.  Candidates are processed in increasing old-level
        #    order (supporters live one level up, so they are already
        #    decided): a candidate with a surviving in-edge from a
        #    still-valid vertex at ``level - 1`` keeps its level — only
        #    its parent pointer may need repair — and invalidation
        #    cascades only through vertices with no such alternate.
        invalid = np.zeros(n, dtype=bool)
        broken_roots = np.empty(0, dtype=np.int64)
        if batch.n_removed:
            csc = merged.csc()
            rs = batch.removed_src.astype(np.int64)
            rd = batch.removed_dst.astype(np.int64)
            broken = (
                (levels[rd] > 0)
                & (parents[rd] == rs.astype(parents.dtype))
                & (rd != source)
            )
            broken_roots = np.unique(rd[broken])
            pending = broken_roots
            while pending.size:
                level = int(old_levels[pending].min())
                at_level = old_levels[pending] == level
                now = pending[at_level]
                rest = pending[~at_level]
                eids, cnts = segment_edges(csc.col_offsets, now)
                srcs, dsts = csc.row_indices.take(eids), now.repeat(cnts)
                rescued = np.zeros(n, dtype=bool)
                if srcs.size:
                    support = ~invalid[srcs] & (
                        old_levels[srcs] == level - 1
                    )
                    rescued[dsts[support]] = True
                newly = now[~rescued[now]]
                invalid[newly] = True
                kids = np.empty(0, dtype=np.int64)
                if newly.size:
                    csr = merged.csr()
                    eids, _ = segment_edges(csr.row_offsets, newly)
                    d2 = csr.column_indices.take(eids)
                    kids = np.unique(
                        d2[
                            (old_levels[d2] == level + 1)
                            & ~invalid[d2]
                            & (d2 != source)
                        ]
                    )
                pending = np.union1d(rest, kids)
        # 2. Levels as float distances; invalid region reset.
        #    _boundary_seeds/_min_relax compare against float32 INF;
        #    use a float64 array with INF as the sentinel.
        dist = np.where(
            (levels < 0) | invalid, INF, levels.astype(np.float64)
        )
        vector = isinstance(policy, VectorPolicy)
        seeds = []
        if batch.n_inserted:
            is_ = batch.inserted_src.astype(np.int64)
            id_ = batch.inserted_dst.astype(np.int64)
            cand = dist[is_] + 1.0
            before = dist[id_].copy()
            np.minimum.at(dist, id_, cand)
            seeds.append(
                np.unique(id_[dist[id_] < before]).astype(VERTEX_DTYPE)
            )
        if vector:
            seeds.append(
                _pull_refill(merged, dist, invalid, unit=True).astype(
                    VERTEX_DTYPE
                )
            )
        else:
            seeds.append(_boundary_seeds(merged, dist, invalid))
        seed_ids = np.unique(np.concatenate(seeds)).astype(VERTEX_DTYPE)
        n_invalid = int(np.count_nonzero(invalid))
        span.set("invalidated", n_invalid)
        span.set("seeds", int(seed_ids.size))
        probe.counter("dynamic.invalidated", n_invalid)
        probe.counter("dynamic.repair_seeds", int(seed_ids.size))
        if vector:
            stats = _relax_push(merged, dist, seed_ids, unit=True)
        else:
            stats = _min_relax_fixpoint(
                merged,
                dist,
                seed_ids,
                policy,
                unit=True,
                state_name="levels",
                resilience=resilience,
            )
        # 3. Back to integer levels; fix parents where needed.  Three
        #    ways a parent pointer goes stale: the vertex itself was
        #    repaired; it was a rescued broken root (level kept, but
        #    the recorded edge is gone); or its recorded parent was
        #    repaired to a different level out from under it.
        new_levels = np.where(dist < INF, dist, UNREACHED).astype(np.int64)
        new_levels[source] = 0
        changed = (new_levels != old_levels) | invalid
        changed[broken_roots] = True
        pclamp = np.where(parents >= 0, parents, 0).astype(np.int64)
        changed |= (
            (new_levels > 0)
            & (parents >= 0)
            & (new_levels[pclamp] != new_levels - 1)
        )
        changed[source] = False
        parents[changed] = INVALID_VERTEX
        fix = np.nonzero(changed & (new_levels >= 0))[0]
        if fix.size:
            csc = merged.csc()
            eids, cnts = segment_edges(csc.col_offsets, fix)
            srcs, dsts = csc.row_indices.take(eids), fix.repeat(cnts)
            tight = (new_levels[srcs] >= 0) & (
                new_levels[srcs] + 1 == new_levels[dsts]
            )
            # Any tight in-edge is a valid parent; last write wins.
            parents[dsts[tight]] = srcs[tight]
    levels = new_levels
    return BFSResult(levels=levels, parents=parents, source=source, stats=stats)


def _deletion_structure(merged: Graph, batch: MutationBatch):
    """Cached underlying-undirected adjacency ``(offsets, neighbors)``
    of the merged snapshot *minus the batch's inserted arcs*.

    Deletion certificates must run on exactly "yesterday's structure
    after the deletions": traversing an inserted edge would let one
    component's BFS wander into another and mark a genuinely split-off
    piece as reached, silently re-gluing it to a component it no longer
    belongs to when the insert union-find later merges labels.  Every
    insert-induced reconnection instead goes through that union-find.

    Each vertex's neighbor list is its surviving out-neighbors (CSR)
    followed by its surviving in-neighbors (CSC), so every arc appears
    in both endpoints' lists.  Built with vectorized scatters off the
    cached views and memoized on the snapshot (keyed by the inserted
    arcs) — rebuilt only when the overlay produces a new merged graph.
    """
    ins_src = batch.inserted_src
    ins_dst = batch.inserted_dst
    cached = merged.__dict__.get("_dynamic_und")
    if cached is not None:
        c_src, c_dst, offs, nbrs = cached
        if np.array_equal(c_src, ins_src) and np.array_equal(c_dst, ins_dst):
            return offs, nbrs
    csr = merged.csr()
    csc = merged.csc()
    n = merged.n_vertices
    ro = csr.row_offsets.astype(np.int64, copy=False)
    co = csc.col_offsets.astype(np.int64, copy=False)
    owner_out = np.repeat(np.arange(n, dtype=np.int64), np.diff(ro))
    owner_in = np.repeat(np.arange(n, dtype=np.int64), np.diff(co))
    out_nb = csr.column_indices
    in_nb = csc.row_indices
    if batch.n_inserted:
        nn = np.int64(n)
        inserted = np.sort(
            ins_src.astype(np.int64) * nn + ins_dst.astype(np.int64)
        )

        def survives(srcs, dsts):
            keys = srcs * nn + dsts
            pos = np.searchsorted(inserted, keys)
            clip = np.minimum(pos, inserted.size - 1)
            return ~((pos < inserted.size) & (inserted[clip] == keys))

        keep = survives(owner_out, out_nb.astype(np.int64))
        owner_out, out_nb = owner_out[keep], out_nb[keep]
        keep = survives(in_nb.astype(np.int64), owner_in)
        owner_in, in_nb = owner_in[keep], in_nb[keep]
    out_cnt = np.bincount(owner_out, minlength=n)
    in_cnt = np.bincount(owner_in, minlength=n)
    offs = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(out_cnt + in_cnt, out=offs[1:])
    # VERTEX_DTYPE neighbors: the traversal is gather-bound, and the
    # narrower lanes halve its memory traffic.
    nbrs = np.empty(int(offs[-1]), dtype=VERTEX_DTYPE)
    # Both owner arrays are owner-sorted, so each element's slot within
    # its owner's block is its global index minus the block start.
    blk0 = np.cumsum(out_cnt) - out_cnt
    nbrs[
        offs[owner_out] + (np.arange(owner_out.size) - blk0[owner_out])
    ] = out_nb
    blk0 = np.cumsum(in_cnt) - in_cnt
    nbrs[
        offs[owner_in]
        + out_cnt[owner_in]
        + (np.arange(owner_in.size) - blk0[owner_in])
    ] = in_nb
    merged.__dict__["_dynamic_und"] = (
        ins_src.copy(),
        ins_dst.copy(),
        offs,
        nbrs,
    )
    return offs, nbrs


def _certified_reach(
    merged: Graph, batch: MutationBatch, roots: np.ndarray
) -> np.ndarray:
    """Vertices reachable from ``roots`` over the underlying undirected
    deletion-only structure — the exact certificate deletions need.

    One :func:`~repro.graph.segments.reach_mask` sweep over
    :func:`_deletion_structure`; every edge of the roots' components is
    touched once, so the cost is proportional to the components that
    actually lost an edge, not to the graph.
    """
    offs, nbrs = _deletion_structure(merged, batch)
    return reach_mask(offs, nbrs, roots)


def _relabel_split(
    merged: Graph,
    batch: MutationBatch,
    labels: np.ndarray,
    cut: np.ndarray,
) -> int:
    """Relabel the split-off vertices ``cut`` to per-component minima.

    Every surviving non-inserted edge out of a cut vertex leads to
    another cut vertex (anything still tied to the old root was
    reached by the certificate BFS; old edges never cross old
    components), so a min-label hook-and-shortcut loop restricted to
    the cut's own deletion-structure edges settles the new labels in
    :math:`O(\\log)` rounds.  Inserted edges that tie a cut piece to
    anything — another piece, its old component, a different component
    — are deliberately left to the caller's label-level union-find.
    """
    cut_ids = np.nonzero(cut)[0]
    if cut_ids.size == 0:
        return 0
    labels[cut_ids] = cut_ids.astype(labels.dtype)
    offs, nbrs = _deletion_structure(merged, batch)
    idx, cnts = segment_edges(offs, cut_ids)
    if idx.size:
        srcs = np.repeat(cut_ids, cnts)
        dsts = nbrs[idx]
        keep = cut[dsts]
        srcs, dsts = srcs[keep], dsts[keep]
        while True:
            before = labels[cut_ids].copy()
            np.minimum.at(labels, dsts, labels[srcs])
            labels[cut_ids] = labels[labels[cut_ids].astype(np.int64)]
            if np.array_equal(labels[cut_ids], before):
                break
    return int(cut_ids.size)


def incremental_cc(
    graph: GraphLike,
    prev: CCResult,
    *,
    batch: Optional[MutationBatch] = None,
    since_epoch: Optional[int] = None,
    policy: Union[str, ExecutionPolicy] = par_vector,
    resilience=None,
) -> CCResult:
    """Repair connected components after a mutation batch.

    A deleted edge changes nothing unless it actually disconnects its
    endpoints, so deletions are settled by one exact *reachability
    certificate*: an undirected BFS from the root (minimum-id) vertex
    of every component that lost an edge.  Members the BFS still
    reaches keep their label; the rest are genuine split-offs and are
    relabelled by a hook-and-shortcut min-label pass restricted to
    their own edges.  The certificate costs one traversal of the
    affected components — independent of how many deletions the batch
    carries.  Insertions then merge at the *label* level — a tiny
    union-find over component labels, no propagation — which also
    stitches split-offs (and their old components) back together when
    an inserted edge bridges them.
    """
    policy = resolve_policy(policy)
    merged, batch = _resolve(graph, batch, since_epoch)
    n = merged.n_vertices
    labels = prev.labels.copy()
    probe = active_probe()
    with probe.span(
        "dynamic:repair", algorithm="cc", batch=batch.size
    ) as span:
        stats = RunStats()
        stats.converged = True
        n_relabelled = 0
        n_roots = 0
        if batch.n_removed and n:
            rs = batch.removed_src.astype(np.int64)
            rd = batch.removed_dst.astype(np.int64)
            real = rs != rd  # self-loops never carry connectivity
            if np.any(real):
                ends = np.concatenate([rs[real], rd[real]])
                # Labels are component-minimum vertex ids, so a label
                # value doubles as the component's root vertex.
                roots = np.unique(labels[ends]).astype(np.int64)
                n_roots = int(roots.size)
                seen = _certified_reach(merged, batch, roots)
                pos = np.searchsorted(roots, labels)
                clip = np.minimum(pos, roots.size - 1)
                members = roots[clip] == labels
                cut = members & ~seen
                n_relabelled = _relabel_split(merged, batch, labels, cut)
        if batch.n_inserted:
            # Merge at the label level: a min-label hook-and-shortcut
            # loop over the label graph the inserted edges induce, then
            # one remap pass over the vertex labels.  Labels are
            # component-minimum vertex ids, so the smaller label wins
            # and stays the merged component's minimum.
            la = labels[batch.inserted_src.astype(np.int64)]
            lb = labels[batch.inserted_dst.astype(np.int64)]
            diff = la != lb
            if np.any(diff):
                hooks = np.concatenate([la[diff], lb[diff]])
                peers = np.concatenate([lb[diff], la[diff]])
                involved = np.unique(hooks)
                hi = np.searchsorted(involved, hooks)
                pi = np.searchsorted(involved, peers)
                root = involved.copy()
                while True:
                    before = root.copy()
                    np.minimum.at(root, hi, root[pi])
                    root = root[np.searchsorted(involved, root)]
                    if np.array_equal(root, before):
                        break
                pos = np.searchsorted(involved, labels)
                clip = np.minimum(pos, involved.size - 1)
                hit = involved[clip] == labels
                labels[hit] = root[clip[hit]]
        span.set("invalidated", n_relabelled)
        span.set("seeds", n_roots)
        probe.counter("dynamic.invalidated", n_relabelled)
        probe.counter("dynamic.repair_seeds", n_roots)
    # Labels are component minima, so exactly the roots satisfy
    # ``labels[v] == v`` — counting them is one vectorized pass.
    n_components = int(
        np.count_nonzero(labels == np.arange(n, dtype=labels.dtype))
    )
    return CCResult(labels=labels, n_components=n_components, stats=stats)


def incremental_pagerank(
    graph: GraphLike,
    prev: PageRankResult,
    *,
    batch: Optional[MutationBatch] = None,
    since_epoch: Optional[int] = None,
    policy: Union[str, ExecutionPolicy] = par_vector,
    damping: float = 0.85,
    tolerance: float = 1e-6,
    max_iterations: int = 100,
) -> PageRankResult:
    """PageRank warm-restarted from the previous rank vector.

    Power iteration is a contraction toward a unique fixed point, so
    starting near it (the pre-mutation ranks, for a small batch) needs
    far fewer iterations than the uniform cold start — same result
    type, same tolerance semantics.
    """
    merged, _ = _resolve(graph, batch, since_epoch or 0)
    probe = active_probe()
    with probe.span(
        "dynamic:repair", algorithm="pagerank", warm=True
    ):
        result = pagerank(
            merged,
            damping=damping,
            tolerance=tolerance,
            max_iterations=max_iterations,
            policy=policy,
            initial_ranks=prev.ranks,
        )
        probe.counter("dynamic.warm_iterations", result.iterations)
    return result


def incremental_ppr(
    graph: GraphLike,
    prev: PPRResult,
    *,
    batch: Optional[MutationBatch] = None,
    since_epoch: Optional[int] = None,
    policy: Union[str, ExecutionPolicy] = par_vector,
    damping: float = 0.85,
    tolerance: float = 1e-8,
    max_iterations: int = 200,
) -> PPRResult:
    """Personalized PageRank warm-restarted from the previous ranks."""
    merged, _ = _resolve(graph, batch, since_epoch or 0)
    probe = active_probe()
    with probe.span("dynamic:repair", algorithm="ppr", warm=True):
        result = personalized_pagerank(
            merged,
            prev.seeds,
            damping=damping,
            tolerance=tolerance,
            max_iterations=max_iterations,
            policy=policy,
            initial_ranks=prev.ranks,
        )
        probe.counter("dynamic.warm_iterations", result.iterations)
    return result
