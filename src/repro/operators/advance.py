"""Neighbor-expand (advance): the traversal operator of Listing 3.

``neighbors_expand(policy, graph, frontier, condition)`` visits every
edge incident to the frontier and builds the output frontier from the
edges whose user ``condition(src, dst, edge, weight)`` returns true —
the same contract for every execution policy:

========== ===================================================================
policy      implementation selected (the "overload")
========== ===================================================================
seq         Python loop in the invoking thread, scalar condition
par         frontier chunked over the thread pool (vertex- or edge-balanced),
            each chunk a vectorized mini-expand, barrier before returning
par_nosync  same chunks as tasks on a queue; results stream into an
            AsyncQueueFrontier as each task retires — chunks are never
            barriered against each other (callers typically hand that queue
            straight to the async enactor; see loop/async_enactor.py for the
            fully barrier-free loop)
par_vector  one bulk NumPy gather + mask over the whole frontier
========== ===================================================================

Direction (§III-C): ``push`` walks out-edges of active sources via the
CSR view; ``pull`` walks in-edges of *candidate* vertices via the CSC
view and asks whether any active in-neighbor satisfies the condition.
Pull hands the condition CSC edge positions (documented, since edge ids
then index the transposed layout).  ``direction="auto"`` picks per call
via the Beamer alpha/beta heuristic; ``output_representation="auto"``
picks sparse vs dense from the input frontier's density (both in
:mod:`repro.operators.fused`).

Conditions built by the fused factories
(:func:`~repro.operators.fused.min_relax_condition`,
:func:`~repro.operators.fused.claim_levels_condition`) carry a
single-pass kernel; under the vectorized policy ``neighbors_expand``
routes through it — same signature, same results, one pass instead of
gather → condition → scatter.  The optional ``workspace=`` reuses
scratch buffers across calls (see
:mod:`repro.execution.workspace`).
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Union

import numpy as np

from repro.errors import ExecutionPolicyError, FrontierError
from repro.frontier.base import Frontier, FrontierKind
from repro.frontier.dense import DenseFrontier
from repro.frontier.edge import EdgeFrontier
from repro.frontier.queue import AsyncQueueFrontier
from repro.frontier.sparse import SparseFrontier
from repro.graph.graph import Graph
from repro.graph.segments import segment_edges
from repro.operators.conditions import apply_edge_condition, call_condition_scalar
from repro.operators.fused import (
    choose_direction,
    choose_representation,
    dedup_ids,
    fused_kernel_of,
    pull_inputs,
)
from repro.operators.load_balance import make_chunks
from repro.execution.policy import (
    ExecutionPolicy,
    ParallelNoSyncPolicy,
    ParallelPolicy,
    ProcPolicy,
    SequencedPolicy,
    VectorPolicy,
    resolve_policy,
)
from repro.execution.thread_pool import get_pool
from repro.observability.probe import active_probe


def _frontier_vertices(frontier: Frontier) -> np.ndarray:
    if frontier.kind is not FrontierKind.VERTEX:
        raise FrontierError(
            "neighbors_expand requires a vertex frontier; convert edge "
            "frontiers with EdgeFrontier.resolve first"
        )
    if isinstance(frontier, SparseFrontier):
        return frontier.indices_view()
    return frontier.to_indices()


def _make_output(
    representation: str, capacity: int
) -> Union[SparseFrontier, DenseFrontier, AsyncQueueFrontier]:
    if representation == "sparse":
        return SparseFrontier(capacity)
    if representation == "dense":
        return DenseFrontier(capacity)
    if representation == "queue":
        return AsyncQueueFrontier(capacity)
    raise FrontierError(
        f"unknown output representation {representation!r}; expected "
        f"'sparse', 'dense', or 'queue'"
    )


# -- push implementations ------------------------------------------------------


def _push_seq(graph, vertices, condition, output):
    csr = graph.csr()
    for v in vertices:
        v = int(v)
        for e in csr.get_edges(v):
            n = csr.get_dest_vertex(e)
            w = csr.get_edge_weight(e)
            if call_condition_scalar(condition, v, n, e, w):
                output.add(n)
    return output


def _push_vector(graph, vertices, condition, output, workspace=None):
    csr = graph.csr()
    if workspace is None:
        sources, dests, edges, weights = csr.expand_vertices(vertices)
        if dests.size == 0:
            return output
    else:
        edges, counts = segment_edges(
            csr.row_offsets, vertices, workspace.arange
        )
        if not edges.size:
            return output
        sources = np.repeat(vertices, counts)
        dests = workspace.take("advance.dsts", csr.column_indices, edges)
        weights = workspace.take("advance.wts", csr.values, edges)
    mask = apply_edge_condition(condition, sources, dests, edges, weights)
    passed = dests[mask]
    # Destinations come from the graph's own column_indices: in range by
    # construction, so the sparse output can skip re-validation.
    if isinstance(output, SparseFrontier):
        output.add_many_trusted(passed)
    else:
        output.add_many(passed)
    return output


def _push_threaded(policy, graph, vertices, condition, output, *, ordered_merge):
    """Shared body of the ``par`` and ``par_nosync`` overloads.

    Each chunk runs the vectorized mini-expand; ``ordered_merge`` selects
    whether results are merged after the barrier in chunk order (par) or
    pushed into the (thread-safe) output as each chunk retires
    (par_nosync).
    """
    csr = graph.csr()
    pool = get_pool(policy.num_workers)
    degrees = csr.degrees_of(vertices) if vertices.size else np.empty(0, np.int64)
    n_chunks = policy.num_workers or pool.num_workers
    if policy.chunk_size is not None and vertices.size:
        n_chunks = max(1, -(-vertices.size // policy.chunk_size))
    chunks = make_chunks(degrees, n_chunks, policy.load_balance)
    if not chunks:
        return output
    lock = threading.Lock()

    if ordered_merge:
        def body(start, stop):
            srcs, dsts, eids, wts = csr.expand_vertices(vertices[start:stop])
            mask = apply_edge_condition(condition, srcs, dsts, eids, wts)
            return dsts[mask]

        results = pool.run_tasks(
            [lambda s=s, e=e: body(s, e) for s, e in chunks]
        )
        for dsts in results:
            output.add_many(dsts)
    else:
        def body_stream(start, stop):
            srcs, dsts, eids, wts = csr.expand_vertices(vertices[start:stop])
            mask = apply_edge_condition(condition, srcs, dsts, eids, wts)
            passed = dsts[mask]
            if isinstance(output, AsyncQueueFrontier):
                output.add_many(passed)  # queue is internally synchronized
            else:
                with lock:
                    output.add_many(passed)

        pool.run_tasks(
            [lambda s=s, e=e: body_stream(s, e) for s, e in chunks]
        )
    return output


# -- pull implementation ----------------------------------------------------------


def _pull(graph, frontier, condition, output, candidates, policy, workspace=None):
    """Pull advance: for each candidate, scan in-edges from active sources.

    A candidate joins the output if **any** of its in-edges from an
    active vertex satisfies the condition.  Vectorized for all policies
    except ``seq`` (there is no per-vertex ordering to preserve — pull is
    inherently a bulk membership question).
    """
    csc, active, cand = pull_inputs(graph, frontier, candidates, workspace)
    if cand.size == 0:
        return output
    if isinstance(policy, SequencedPolicy):
        for v in cand:
            v = int(v)
            # Evaluate EVERY live in-edge, as the bulk overloads do —
            # conditions may carry side effects (SSSP pull relaxes the
            # distance inside the condition), so short-circuiting after
            # the first hit would skip relaxations the other policies
            # perform and break cross-policy equivalence.
            hit = False
            for e in csc.get_in_edges(v):
                u = csc.get_source_vertex(e)
                if active[u] and call_condition_scalar(
                    condition, u, v, e, csc.get_edge_weight(e)
                ):
                    hit = True
            if hit:
                output.add(v)
        return output
    srcs, dsts, eids, wts = csc.gather_in_edges(cand)
    live = active[srcs]
    if not np.any(live):
        return output
    srcs, dsts, eids, wts = srcs[live], dsts[live], eids[live], wts[live]
    mask = apply_edge_condition(condition, srcs, dsts, eids, wts)
    winners = dedup_ids(dsts[mask], graph.n_vertices, workspace)
    output.add_many(winners)
    return output


# -- public operator ------------------------------------------------------------------


def neighbors_expand(
    policy: Union[str, ExecutionPolicy],
    graph: Graph,
    frontier: Frontier,
    condition: Callable,
    *,
    direction: str = "push",
    output_representation: str = "sparse",
    candidates: Optional[np.ndarray] = None,
    workspace=None,
) -> Frontier:
    """Expand ``frontier`` along graph edges, keeping edges that satisfy
    ``condition`` (Listing 3).

    Parameters
    ----------
    policy:
        Execution policy object or name; selects the overload (see module
        docstring).
    graph:
        The graph; push uses its CSR view, pull its CSC view.
    frontier:
        Active vertex set (any vertex representation).
    condition:
        ``cond(src, dst, edge, weight) -> bool`` — scalar, bulk, or both
        (see :mod:`repro.operators.conditions`).
    direction:
        ``"push"`` (expand out-edges of active vertices), ``"pull"``
        (test in-edges of ``candidates`` against the active set), or
        ``"auto"`` (Beamer alpha/beta heuristic picks per call from
        frontier size × average degree).
    output_representation:
        ``"sparse"`` | ``"dense"`` | ``"queue"`` for the output frontier,
        or ``"auto"`` (dense once the input frontier passes the density
        threshold).  ``par_nosync`` defaults to (and is most useful
        with) ``"queue"``.
    candidates:
        Pull only: vertex ids to consider (default: every vertex).
    workspace:
        Optional :class:`~repro.execution.workspace.Workspace` whose
        pooled buffers the vectorized/pull/fused paths reuse across
        calls.  ``None`` falls back to plain allocation.  Must not be
        shared with the threaded policies' chunk bodies.

    Returns
    -------
    Frontier
        The output frontier.  Push with a sparse output may contain
        duplicates (several parents discovering one child), matching the
        paper's semantics; apply :func:`~repro.operators.uniquify.uniquify`
        or use a dense output for set semantics.
    """
    policy = resolve_policy(policy)
    if direction == "auto":
        direction = choose_direction(graph, frontier)
    if direction not in ("push", "pull"):
        raise ValueError(
            f"direction must be 'push', 'pull', or 'auto', got {direction!r}"
        )
    if output_representation == "auto":
        output_representation = choose_representation(frontier)
    if isinstance(policy, ParallelNoSyncPolicy) and output_representation == "sparse":
        # The natural pairing for the asynchronous overload.
        output_representation = "queue"
    output = _make_output(output_representation, graph.n_vertices)

    # Fused single-pass routing: only the vectorized overload, and only
    # when the condition carries a kernel that supports the direction
    # (edge-masked kernels are push-only — CSC edge ids index the
    # transposed layout).
    kernel = None
    if isinstance(policy, VectorPolicy):
        kernel = fused_kernel_of(condition)
        if kernel is not None and direction == "pull" and not kernel.supports_pull:
            kernel = None

    probe = active_probe()
    if not probe.enabled:
        return _expand_dispatch(
            policy, graph, frontier, condition, output, direction, candidates,
            kernel, workspace,
        )
    with probe.span(
        "operator:advance",
        direction=direction,
        policy=policy.name,
        frontier_size=len(frontier),
        fused=kernel is not None,
        representation=output_representation,
    ) as span:
        result = _expand_dispatch(
            policy, graph, frontier, condition, output, direction, candidates,
            kernel, workspace,
        )
        span.set("output_size", len(result))
        return result


def _expand_dispatch(
    policy, graph, frontier, condition, output, direction, candidates,
    kernel=None, workspace=None,
):
    """Overload selection shared by the traced and untraced paths."""
    if kernel is not None and isinstance(policy, ProcPolicy):
        # Multiprocess sharded round (lazy import: spawning the worker
        # pool and shm machinery is par_proc-only).  ``None`` means the
        # round cannot run here (inside a worker process) — fall through
        # to the in-process vectorized overloads below.
        from repro.execution.proc_engine import proc_expand

        result = proc_expand(
            policy, graph, frontier, kernel, output, direction, candidates
        )
        if result is not None:
            return result
    if direction == "pull":
        if kernel is not None:
            return kernel.pull(graph, frontier, candidates, output, workspace)
        return _pull(graph, frontier, condition, output, candidates, policy, workspace)

    vertices = _frontier_vertices(frontier)
    if vertices.size == 0:
        return output
    if kernel is not None:
        return kernel.push(graph, vertices, output, workspace)
    if isinstance(policy, SequencedPolicy):
        return _push_seq(graph, vertices, condition, output)
    if isinstance(policy, VectorPolicy):
        return _push_vector(graph, vertices, condition, output, workspace)
    if isinstance(policy, ParallelPolicy):
        return _push_threaded(
            policy, graph, vertices, condition, output, ordered_merge=True
        )
    if isinstance(policy, ParallelNoSyncPolicy):
        return _push_threaded(
            policy, graph, vertices, condition, output, ordered_merge=False
        )
    raise ExecutionPolicyError(
        f"neighbors_expand has no overload for policy {policy!r}"
    )


def expand_to_edges(
    policy: Union[str, ExecutionPolicy],
    graph: Graph,
    frontier: Frontier,
    condition: Callable,
) -> EdgeFrontier:
    """Advance variant producing an *edge* frontier: the CSR edge ids
    (not destinations) of edges that satisfied the condition.

    The building block for edge-centric programs (§III-C): a vertex
    frontier in, an edge frontier out.
    """
    policy = resolve_policy(policy)
    vertices = _frontier_vertices(frontier)
    output = EdgeFrontier(graph.n_edges)
    if vertices.size == 0:
        return output
    csr = graph.csr()
    if isinstance(policy, SequencedPolicy):
        for v in vertices:
            v = int(v)
            for e in csr.get_edges(v):
                if call_condition_scalar(
                    condition, v, csr.get_dest_vertex(e), e, csr.get_edge_weight(e)
                ):
                    output.add(e)
        return output
    sources, dests, edges, weights = csr.expand_vertices(vertices)
    mask = apply_edge_condition(condition, sources, dests, edges, weights)
    output.add_many(edges[mask])
    return output
