"""PageRank under the BSP loop with a fixed-point convergence condition.

PageRank is the canonical "iterate until values settle" workload: the
frontier is all vertices every superstep, so convergence comes from
:class:`~repro.loop.convergence.ValuesConverged` (or an iteration cap)
rather than frontier emptiness — demonstrating that the loop structure's
convergence conditions are pluggable, not hard-wired to traversal.

The rank update is the standard damped power iteration with dangling-
vertex mass redistributed uniformly; the vectorized policy computes each
superstep as one scatter-add over the edge list, the threaded/sequential
policies via per-edge accumulation through the operator layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from repro.errors import CancellationError
from repro.frontier.sparse import SparseFrontier
from repro.graph.graph import Graph
from repro.loop.convergence import AnyOf, MaxIterations, ValuesConverged
from repro.loop.enactor import Enactor
from repro.execution.policy import (
    ExecutionPolicy,
    ProcPolicy,
    SequencedPolicy,
    VectorPolicy,
    par_vector,
    resolve_policy,
)
from repro.execution.thread_pool import even_chunks, get_pool
from repro.operators.fused import segmented_sum
from repro.utils.counters import RunStats


@dataclass
class PageRankResult:
    """Final ranks (summing to 1), iteration count, convergence delta."""

    ranks: np.ndarray
    iterations: int
    delta: float
    converged: bool
    stats: RunStats = field(default_factory=RunStats)


def pagerank(
    graph: Graph,
    *,
    damping: float = 0.85,
    tolerance: float = 1e-6,
    max_iterations: int = 100,
    policy: Union[str, ExecutionPolicy] = par_vector,
    initial_ranks: Optional[np.ndarray] = None,
    backend: str = "native",
) -> PageRankResult:
    """Damped PageRank to an L1 fixed point.

    ``tolerance`` is the L1 movement between successive rank vectors at
    which iteration stops; ``max_iterations`` caps it (both conditions
    are composed with :class:`~repro.loop.convergence.AnyOf`).
    ``initial_ranks`` warm-starts the iteration (e.g. from a
    pre-mutation result); the fixed point is unique, so the start only
    affects how many iterations convergence takes.
    ``backend="linalg"`` runs the power iteration as (+, ×) matrix
    products (scipy's C matvec when importable).
    """
    from repro.execution.backend import resolve_backend

    if resolve_backend(backend, "pagerank", policy=policy) == "linalg":
        from repro.linalg.algorithms import linalg_pagerank

        return linalg_pagerank(
            graph,
            damping=damping,
            tolerance=tolerance,
            max_iterations=max_iterations,
            initial_ranks=initial_ranks,
        )
    policy = resolve_policy(policy)
    if not (0.0 <= damping <= 1.0):
        raise ValueError(f"damping must be in [0, 1], got {damping}")
    n = graph.n_vertices
    if n == 0:
        return PageRankResult(
            ranks=np.empty(0), iterations=0, delta=0.0, converged=True
        )
    csr = graph.csr()
    coo = graph.coo()
    # Rank mass flows along edges in proportion to edge weight (degrees
    # for unit weights) — the same convention as networkx, so oracles
    # compare directly on weighted graphs.
    out_weight = segmented_sum(coo.rows, coo.vals.astype(np.float64), n)
    dangling = out_weight == 0
    if initial_ranks is not None:
        if initial_ranks.shape != (n,):
            raise ValueError(
                f"initial_ranks must have shape ({n},), "
                f"got {initial_ranks.shape}"
            )
        ranks = initial_ranks.astype(np.float64, copy=True)
        total = float(ranks.sum())
        if total > 0:  # renormalize: a stale vector still sums to ~1
            ranks /= total
    else:
        ranks = np.full(n, 1.0 / n, dtype=np.float64)

    state_box = {"ranks": ranks, "delta": np.inf, "iterations": 0}

    def superstep_vector() -> None:
        r = state_box["ranks"]
        share = np.where(dangling, 0.0, r / np.maximum(out_weight, 1e-300))
        incoming = segmented_sum(
            coo.cols, coo.vals.astype(np.float64) * share[coo.rows], n
        )
        dangling_mass = float(r[dangling].sum()) / n
        new_ranks = (1.0 - damping) / n + damping * (incoming + dangling_mass)
        state_box["delta"] = float(np.abs(new_ranks - r).sum())
        state_box["ranks"] = new_ranks

    def superstep_proc() -> bool:
        """Sharded superstep: worker processes each scatter-add a
        contiguous CSC column range into a shared ``incoming`` vector.
        Per-vertex sums match the vectorized superstep up to float64
        summation order (the conformance tolerance for ranks).  Returns
        False when sharding is unavailable here (inside a worker) so the
        caller falls back to the vectorized form."""
        from repro.execution.proc_engine import get_engine, proc_available

        if not proc_available():
            return False
        r = state_box["ranks"]
        incoming = get_engine().pagerank_incoming(policy, graph, r, out_weight)
        dangling_mass = float(r[dangling].sum()) / n
        new_ranks = (1.0 - damping) / n + damping * (incoming + dangling_mass)
        state_box["delta"] = float(np.abs(new_ranks - r).sum())
        state_box["ranks"] = new_ranks
        return True

    def superstep_scalar(parallel: bool) -> None:
        r = state_box["ranks"]
        incoming = np.zeros(n, dtype=np.float64)

        def accumulate(start: int, stop: int) -> np.ndarray:
            local = np.zeros(n, dtype=np.float64)
            for v in range(start, stop):
                total = out_weight[v]
                if total == 0:
                    continue
                share = r[v] / total
                for e in csr.get_edges(v):
                    local[csr.get_dest_vertex(e)] += share * float(
                        csr.values[e]
                    )
            return local

        if parallel:
            pool = get_pool(policy.num_workers)
            partials = pool.run_tasks(
                [
                    (lambda s=s, e=e: accumulate(s, e))
                    for s, e in even_chunks(n, policy.num_workers or pool.num_workers)
                ]
            )
            for p in partials:
                incoming += p
        else:
            incoming = accumulate(0, n)
        dangling_mass = float(r[dangling].sum()) / n
        new_ranks = (1.0 - damping) / n + damping * (incoming + dangling_mass)
        state_box["delta"] = float(np.abs(new_ranks - r).sum())
        state_box["ranks"] = new_ranks

    def step(frontier, state):
        if isinstance(policy, ProcPolicy) and superstep_proc():
            pass
        elif isinstance(policy, VectorPolicy):
            superstep_vector()
        elif isinstance(policy, SequencedPolicy):
            superstep_scalar(parallel=False)
        else:
            superstep_scalar(parallel=True)
        state.context["delta"] = state_box["delta"]
        state_box["iterations"] += 1
        return frontier  # all-vertices frontier is static

    convergence = AnyOf(
        [
            MaxIterations(max_iterations),
            ValuesConverged(
                lambda s: state_box["ranks"], tolerance=tolerance, norm="l1"
            ),
        ]
    )
    all_vertices = SparseFrontier.from_indices(np.arange(n), n)
    enactor = Enactor(graph, convergence=convergence, max_iterations=max_iterations + 1)
    try:
        stats = enactor.run(all_vertices, step)
    except CancellationError:
        # Deadline/cancel fired between supersteps: every completed
        # superstep left a coherent rank vector in the state box, so the
        # best answer under the budget is the current iterate, surfaced
        # as an explicitly unconverged partial result rather than an
        # error — power iteration's anytime property.
        partial = RunStats()
        partial.converged = False
        return PageRankResult(
            ranks=state_box["ranks"],
            iterations=state_box["iterations"],
            delta=float(state_box["delta"]),
            converged=False,
            stats=partial,
        )

    ranks = state_box["ranks"]
    delta = float(state_box["delta"])
    return PageRankResult(
        ranks=ranks,
        iterations=stats.num_iterations,
        delta=delta,
        converged=delta <= tolerance,
        stats=stats,
    )
