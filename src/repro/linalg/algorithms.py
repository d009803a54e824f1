"""The eight algorithms as linear-algebra iterations.

Each driver here reproduces one native-graph algorithm as a loop of
masked SpMV / SpMSpV products (§IV-A: "the duality of graphs and sparse
matrices"), returning the *same result type* as the native entry point
so callers, oracles, and the CLI cannot tell the backends apart — which
is exactly what the conformance matrix then proves mechanically:

====================  =========================  =======================
algorithm             semiring                   kernel shape
====================  =========================  =======================
bfs                   (or, and)                  push SpMSpV / pull
                                                 masked SpMV, visited
                                                 complement mask
sssp                  (min, +)                   push SpMSpV over the
                                                 improved frontier
cc                    (min, select)              SpMSpV label push over
                                                 both orientations
pagerank / ppr        (+, ×)                     dense SpMV (Aᵀ·share)
hits                  (+, ×)                     Aᵀ·hub then A·auth
spmv                  (+, ×)                     A·x
spgemm                (+, ×)                     A·B (scipy or COO
                                                 expand/collapse)
====================  =========================  =======================

The drivers reuse the native direction optimizer's thresholds: push
(SpMSpV) while the frontier is small, pull (masked SpMV) when it covers
more than ``pull_threshold`` of the graph — the Beamer heuristic
re-expressed as a choice between matrix kernels.

Execution is bulk by construction (one NumPy/scipy product per
superstep), so the execution-policy axis is accepted for interface
parity but does not change the schedule — the conformance matrix
crosses ``backend="linalg"`` against the default policy instead.
"""

from __future__ import annotations

import time as _time
from typing import Optional, Sequence, Union

import numpy as np

from repro.algorithms.bfs import BFSResult, UNREACHED
from repro.algorithms.cc import CCResult
from repro.algorithms.hits import HITSResult
from repro.algorithms.pagerank import PageRankResult
from repro.algorithms.ppr import PPRResult
from repro.algorithms.sssp import SSSPResult
from repro.graph.graph import Graph
from repro.graph.segments import segment_edges
from repro.linalg.kernels import scipy_adjacency, spmspv, spmv
from repro.linalg.semiring import (
    MIN_PLUS,
    OR_AND,
    PLUS_TIMES,
    Semiring,
)
from repro.resilience.deadline import active_token
from repro.types import INF, INVALID_VERTEX, VALUE_DTYPE, VERTEX_DTYPE, WEIGHT_DTYPE
from repro.utils.counters import IterationStats, RunStats
from repro.utils.validation import check_vertex_in_range

#: Label propagation's algebra: ⊕ = min, ⊗ = "carry the source value"
#: (edges are structural, their weights don't enter the label order).
MIN_SELECT = Semiring(
    name="min_select",
    add=np.minimum,
    multiply=lambda x, w: x,
    add_identity=np.inf,
)


def _record(stats: RunStats, i: int, frontier: int, edges: int, t0: float):
    stats.record(
        IterationStats(
            iteration=i,
            frontier_size=frontier,
            edges_touched=edges,
            seconds=_time.perf_counter() - t0,
        )
    )


# -- bfs ----------------------------------------------------------------------


def linalg_bfs(
    graph: Graph,
    source: int,
    *,
    direction: str = "push",
    pull_threshold: float = 0.05,
    push_back_threshold: float = 0.01,
) -> BFSResult:
    """BFS as boolean matrix products over the (or, and) semiring.

    Push supersteps are SpMSpV over the frontier with the visited set as
    a structural-complement output mask; pull supersteps are a masked
    SpMV over the CSC restricted to unvisited rows.  ``"auto"`` switches
    between them on the frontier's active fraction, same thresholds as
    the native direction optimizer.
    """
    if direction not in ("push", "pull", "auto"):
        raise ValueError(
            f"direction must be 'push', 'pull', or 'auto', got {direction!r}"
        )
    n = graph.n_vertices
    source = check_vertex_in_range(source, n)
    levels = np.full(n, UNREACHED, dtype=np.int64)
    parents = np.full(n, INVALID_VERTEX, dtype=VERTEX_DTYPE)
    levels[source] = 0
    parents[source] = source
    result = BFSResult(levels=levels, parents=parents, source=source)
    visited = np.zeros(n, dtype=bool)
    visited[source] = True
    frontier = np.asarray([source], dtype=np.int64)
    out_deg = graph.out_degrees()
    indicator = np.zeros(n, dtype=bool)
    level = 0
    stats = RunStats()
    last_pull = False
    token = active_token()
    while frontier.shape[0]:
        if token is not None:
            token.check(f"superstep:{level}")
        t0 = _time.perf_counter()
        level += 1
        if direction == "auto":
            frac = frontier.shape[0] / max(n, 1)
            use_pull = frac >= pull_threshold or (
                last_pull and frac > push_back_threshold
            )
            result.directions.append("pull" if use_pull else "push")
        else:
            use_pull = direction == "pull"
        last_pull = use_pull
        if use_pull:
            # Pull: every unvisited vertex asks "does any in-neighbor
            # hold the frontier bit?" — masked SpMV over the CSC with
            # the visited set's structural complement.
            indicator[:] = False
            indicator[frontier] = True
            y = spmv(
                graph,
                indicator,
                semiring=OR_AND,
                transpose=True,
                mask=visited,
                complement=True,
            )
            discovered = np.nonzero(y)[0]
            edges = int(np.count_nonzero(~visited))  # rows scanned
        else:
            # Push: SpMSpV over the frontier, visited-complement mask.
            _, discovered = spmspv(
                graph,
                frontier,
                np.ones(n, dtype=bool),
                semiring=OR_AND,
                mask=visited,
                complement=True,
            )
            edges = int(out_deg[frontier].sum())
        levels[discovered] = level
        visited[discovered] = True
        _record(stats, level - 1, int(frontier.shape[0]), edges, t0)
        frontier = discovered
    stats.converged = True
    result.stats = stats
    _fill_parents(graph, levels, parents)
    return result


def _fill_parents(
    graph: Graph, levels: np.ndarray, parents: np.ndarray
) -> None:
    """Assign each reached vertex an in-neighbor one level closer.

    The boolean products discard which source set each bit; parents are
    recovered in one CSC pass at the end — any in-neighbor at
    ``level - 1`` is a valid BFS parent (same benign-race contract as
    the native push claim).
    """
    csc = graph.csc()
    reached = np.nonzero(levels > 0)[0]
    if reached.shape[0] == 0:
        return
    flat, lengths = segment_edges(csc.col_offsets, reached)
    if flat.size == 0:
        return
    srcs = csc.row_indices[flat].astype(np.int64)
    dsts = np.repeat(reached, lengths)
    good = levels[srcs] == levels[dsts] - 1
    # First qualifying in-edge per destination wins (np.unique keeps
    # the first occurrence index of each sorted key).
    uniq, first = np.unique(dsts[good], return_index=True)
    parents[uniq] = srcs[np.nonzero(good)[0][first]].astype(VERTEX_DTYPE)


# -- sssp ---------------------------------------------------------------------


def linalg_sssp(
    graph: Graph,
    source: int,
    *,
    direction: str = "push",
    pull_threshold: float = 0.05,
    max_iterations: Optional[int] = None,
) -> SSSPResult:
    """Label-correcting SSSP as (min, +) matrix products.

    Push supersteps relax the improved frontier's out-edges via SpMSpV;
    pull supersteps recompute every vertex's best in-edge bound via the
    transposed SpMV (converging to the same fixed point, Listing 4's
    invariant).  The next frontier is exactly the vertices whose
    distance dropped.
    """
    if direction not in ("push", "pull", "auto"):
        raise ValueError(
            f"direction must be 'push', 'pull', or 'auto', got {direction!r}"
        )
    n = graph.n_vertices
    source = check_vertex_in_range(source, n)
    dist = np.full(n, np.inf, dtype=np.float64)
    dist[source] = 0.0
    frontier = np.asarray([source], dtype=np.int64)
    out_deg = graph.out_degrees()
    cap = max_iterations if max_iterations is not None else 4 * max(n, 1) + 8
    stats = RunStats()
    i = 0
    token = active_token()
    while frontier.shape[0] and i < cap:
        if token is not None:
            token.check(f"superstep:{i}")
        t0 = _time.perf_counter()
        use_pull = direction == "pull" or (
            direction == "auto"
            and frontier.shape[0] / max(n, 1) >= pull_threshold
        )
        if use_pull:
            candidate = spmv(
                graph, dist, semiring=MIN_PLUS, transpose=True
            )
            improved = np.nonzero(candidate < dist)[0]
            edges = graph.n_edges
        else:
            candidate, touched = spmspv(
                graph, frontier, dist, semiring=MIN_PLUS
            )
            improved = touched[candidate[touched] < dist[touched]]
            edges = int(out_deg[frontier].sum())
        dist[improved] = candidate[improved]
        _record(stats, i, int(frontier.shape[0]), edges, t0)
        frontier = improved
        i += 1
    stats.converged = frontier.shape[0] == 0
    distances = np.where(np.isinf(dist), np.float64(INF), dist).astype(
        VALUE_DTYPE
    )
    return SSSPResult(distances=distances, source=source, stats=stats)


# -- cc -----------------------------------------------------------------------


def linalg_cc(graph: Graph) -> CCResult:
    """Weakly connected components as (min, select) label products.

    Every changed vertex pushes its label along out-edges, and (for
    directed graphs) along in-edges of the reversed adjacency, until
    the min-label fixed point — the same convergence as native label
    propagation, as matrix products.
    """
    n = graph.n_vertices
    labels = np.arange(n, dtype=np.float64)
    reverse = (
        graph.derived("linalg.reverse", graph.reverse)
        if graph.properties.directed
        else None
    )
    frontier = np.arange(n, dtype=np.int64)
    stats = RunStats()
    i = 0
    token = active_token()
    while frontier.shape[0]:
        if token is not None:
            token.check(f"superstep:{i}")
        t0 = _time.perf_counter()
        candidate, touched = spmspv(
            graph, frontier, labels, semiring=MIN_SELECT
        )
        if reverse is not None:
            cand_r, touched_r = spmspv(
                reverse, frontier, labels, semiring=MIN_SELECT
            )
            np.minimum(candidate, cand_r, out=candidate)
            touched = np.union1d(touched, touched_r)
        improved = touched[candidate[touched] < labels[touched]]
        labels[improved] = candidate[improved]
        _record(stats, i, int(frontier.shape[0]), int(touched.shape[0]), t0)
        frontier = improved
        i += 1
    stats.converged = True
    out = labels.astype(np.int64)
    return CCResult(
        labels=out,
        n_components=int(np.unique(out).shape[0]) if n else 0,
        stats=stats,
    )


# -- rank family --------------------------------------------------------------


def _out_weight(graph: Graph) -> np.ndarray:
    """Per-vertex total outgoing edge weight (the rank-share divisor)."""
    n = graph.n_vertices
    return spmv(graph, np.ones(n, dtype=np.float64), semiring=PLUS_TIMES)


def linalg_pagerank(
    graph: Graph,
    *,
    damping: float = 0.85,
    tolerance: float = 1e-6,
    max_iterations: int = 100,
    initial_ranks: Optional[np.ndarray] = None,
) -> PageRankResult:
    """Damped PageRank as dense (+, ×) products: ``incoming = Aᵀ·share``.

    Numerically the same update as the native vectorized superstep
    (dangling mass redistributed uniformly); the product routes through
    scipy's C matvec when available, the bulk-workload crossover the
    benchmark entry records.
    """
    if not (0.0 <= damping <= 1.0):
        raise ValueError(f"damping must be in [0, 1], got {damping}")
    n = graph.n_vertices
    if n == 0:
        return PageRankResult(
            ranks=np.empty(0), iterations=0, delta=0.0, converged=True
        )
    out_weight = _out_weight(graph)
    dangling = out_weight == 0
    if initial_ranks is not None:
        if initial_ranks.shape != (n,):
            raise ValueError(
                f"initial_ranks must have shape ({n},), "
                f"got {initial_ranks.shape}"
            )
        ranks = initial_ranks.astype(np.float64, copy=True)
        total = float(ranks.sum())
        if total > 0:
            ranks /= total
    else:
        ranks = np.full(n, 1.0 / n, dtype=np.float64)
    delta = np.inf
    iterations = 0
    stats = RunStats()
    token = active_token()
    for iterations in range(1, max_iterations + 1):
        if token is not None and token.should_stop():
            # Anytime semantics, as native pagerank: the last completed
            # iterate comes back as an unconverged partial result.
            iterations -= 1
            break
        t0 = _time.perf_counter()
        share = np.where(
            dangling, 0.0, ranks / np.maximum(out_weight, 1e-300)
        )
        incoming = spmv(graph, share, semiring=PLUS_TIMES, transpose=True)
        dangling_mass = float(ranks[dangling].sum()) / n
        new_ranks = (1.0 - damping) / n + damping * (
            incoming + dangling_mass
        )
        delta = float(np.abs(new_ranks - ranks).sum())
        ranks = new_ranks
        _record(stats, iterations - 1, n, graph.n_edges, t0)
        if delta <= tolerance:
            break
    converged = delta <= tolerance
    stats.converged = converged
    return PageRankResult(
        ranks=ranks,
        iterations=iterations,
        delta=delta,
        converged=converged,
        stats=stats,
    )


def linalg_ppr(
    graph: Graph,
    seeds: Union[int, Sequence[int]],
    *,
    damping: float = 0.85,
    tolerance: float = 1e-8,
    max_iterations: int = 200,
    initial_ranks: Optional[np.ndarray] = None,
) -> PPRResult:
    """Personalized PageRank as dense (+, ×) products (teleport to seeds)."""
    damping = float(damping)
    if not (0.0 <= damping <= 1.0):
        raise ValueError(f"damping must be in [0, 1], got {damping}")
    n = graph.n_vertices
    seeds = np.atleast_1d(np.asarray(seeds, dtype=np.int64))
    if seeds.size == 0:
        raise ValueError("at least one seed vertex is required")
    if int(seeds.min()) < 0 or int(seeds.max()) >= n:
        raise ValueError(f"seed ids must lie in [0, {n})")
    out_weight = _out_weight(graph)
    dangling = out_weight == 0
    teleport = np.zeros(n, dtype=np.float64)
    teleport[seeds] = 1.0 / seeds.size
    if initial_ranks is not None:
        if initial_ranks.shape != (n,):
            raise ValueError(
                f"initial_ranks must have shape ({n},), "
                f"got {initial_ranks.shape}"
            )
        ranks = initial_ranks.astype(np.float64, copy=True)
        total = float(ranks.sum())
        if total > 0:
            ranks /= total
    else:
        ranks = teleport.copy()
    converged = False
    iterations = 0
    token = active_token()
    for iterations in range(1, max_iterations + 1):
        if token is not None and token.should_stop():
            iterations -= 1
            break
        share = np.where(
            dangling, 0.0, ranks / np.maximum(out_weight, 1e-300)
        )
        incoming = spmv(graph, share, semiring=PLUS_TIMES, transpose=True)
        dangling_mass = float(ranks[dangling].sum())
        new_ranks = (1.0 - damping) * teleport + damping * (
            incoming + dangling_mass * teleport
        )
        delta = float(np.abs(new_ranks - ranks).sum())
        ranks = new_ranks
        if delta <= tolerance:
            converged = True
            break
    stats = RunStats()
    stats.converged = converged
    return PPRResult(
        ranks=ranks,
        seeds=seeds,
        iterations=iterations,
        converged=converged,
        stats=stats,
    )


def linalg_hits(
    graph: Graph,
    *,
    max_iterations: int = 100,
    tolerance: float = 1e-8,
) -> HITSResult:
    """HITS as the push/pull product pair: ``auth = Aᵀ·hub``, ``hub = A·auth``."""
    n = graph.n_vertices
    if n == 0:
        empty = np.empty(0)
        return HITSResult(empty, empty, 0, True)
    hubs = np.full(n, 1.0 / np.sqrt(n), dtype=np.float64)
    auth = hubs.copy()
    converged = False
    iterations = 0
    token = active_token()
    for iterations in range(1, max_iterations + 1):
        if token is not None and token.should_stop():
            iterations -= 1
            break
        new_auth = spmv(graph, hubs, semiring=PLUS_TIMES, transpose=True)
        norm = np.linalg.norm(new_auth)
        if norm > 0:
            new_auth /= norm
        new_hubs = spmv(graph, new_auth, semiring=PLUS_TIMES)
        norm = np.linalg.norm(new_hubs)
        if norm > 0:
            new_hubs /= norm
        delta = max(
            float(np.abs(new_auth - auth).max(initial=0.0)),
            float(np.abs(new_hubs - hubs).max(initial=0.0)),
        )
        auth, hubs = new_auth, new_hubs
        if delta <= tolerance:
            converged = True
            break
    stats = RunStats()
    stats.converged = converged
    return HITSResult(
        hubs=hubs,
        authorities=auth,
        iterations=iterations,
        converged=converged,
        stats=stats,
    )


# -- spmv / spgemm ------------------------------------------------------------


def linalg_spmv(graph: Graph, x: np.ndarray) -> np.ndarray:
    """``y = A·x`` through the kernel layer (out-edge gather)."""
    n = graph.n_vertices
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.shape[0] != n:
        raise ValueError(
            f"x must have one entry per vertex ({n}), got {x.shape[0]}"
        )
    return spmv(graph, x, semiring=PLUS_TIMES)


def linalg_spgemm(a: Graph, b: Graph) -> Graph:
    """``C = A·B`` over (+, ×); the product comes back as a graph.

    scipy's C SpGEMM when available; otherwise a COO expand/collapse
    (each A-nonzero (i,k,w) fans out over B's row k, duplicate (i,j)
    pairs fold by summation — Gustavson's algorithm written as array
    ops).  Structural zeros are kept out, same contract as native.
    """
    from repro.errors import GraphFormatError
    from repro.graph.coo import COOMatrix
    from repro.graph.csr import CSRMatrix

    if a.n_vertices != b.n_vertices:
        raise GraphFormatError(
            f"operand vertex counts differ: {a.n_vertices} vs {b.n_vertices}"
        )
    n = a.n_vertices
    probe_rows: np.ndarray
    sp_a = scipy_adjacency(a)
    if sp_a is not None:
        sp_b = scipy_adjacency(b)
        c = (sp_a @ sp_b).tocoo()
        # scipy keeps explicit zeros out of @-products already, but a
        # cancellation can leave stored zeros; drop them structurally.
        keep = c.data != 0
        rows = c.row[keep].astype(VERTEX_DTYPE)
        cols = c.col[keep].astype(VERTEX_DTYPE)
        vals = c.data[keep].astype(WEIGHT_DTYPE)
    else:
        a_coo = a.coo()
        b_csr = b.csr()
        # Fan each A-nonzero (i, k, w_ik) out over B's row k.
        k_mid = a_coo.cols.astype(np.int64)
        flat, lengths = segment_edges(b_csr.row_offsets, k_mid)
        if flat.size:
            i_rep = np.repeat(a_coo.rows.astype(np.int64), lengths)
            w_rep = np.repeat(a_coo.vals.astype(np.float64), lengths)
            j_dst = b_csr.column_indices[flat].astype(np.int64)
            contrib = w_rep * b_csr.values[flat].astype(np.float64)
            keys = i_rep * n + j_dst
            uniq, inverse = np.unique(keys, return_inverse=True)
            summed = np.bincount(
                inverse, weights=contrib, minlength=uniq.shape[0]
            )
            rows = (uniq // n).astype(VERTEX_DTYPE)
            cols = (uniq % n).astype(VERTEX_DTYPE)
            vals = summed.astype(WEIGHT_DTYPE)
        else:
            rows = np.empty(0, dtype=VERTEX_DTYPE)
            cols = np.empty(0, dtype=VERTEX_DTYPE)
            vals = np.empty(0, dtype=WEIGHT_DTYPE)
    coo = COOMatrix(n, n, rows, cols, vals)
    ro, ci, v = coo.to_csr_arrays()
    return Graph(
        {"csr": CSRMatrix(n, n, ro, ci, v), "coo": coo},
        a.properties.with_(weighted=True),
    )
