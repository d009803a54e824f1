"""Connected components: frontier-driven label propagation, plus a
pointer-jumping (Shiloach–Vishkin style) variant.

Label propagation is the abstraction-native formulation: every vertex
holds a component label (initially its own id); active vertices push
their label to neighbors via the advance condition "my label is smaller
than yours", and exactly the vertices whose labels dropped form the next
frontier — converging when the frontier empties, like SSSP.

The pointer-jumping variant (``method="hooking"``) is the classic
parallel CC: alternate hooking (adopt the smaller neighboring root) and
shortcutting (halve trees by ``label[v] = label[label[v]]``), with every
round a bulk vectorized step.  Both agree with the union-find baseline
on every input (tests).

For directed graphs both methods compute *weakly* connected components
(edges are treated as undirected by consulting CSR and CSC).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from repro.frontier.sparse import SparseFrontier
from repro.graph.graph import Graph
from repro.loop.enactor import Enactor
from repro.operators.advance import neighbors_expand
from repro.operators.fused import dedup_ids, min_relax_condition
from repro.execution.policy import (
    ExecutionPolicy,
    par_vector,
    resolve_policy,
)
from repro.types import VERTEX_DTYPE
from repro.utils.counters import RunStats


@dataclass
class CCResult:
    """Component labels (root vertex id per component) and counts."""

    labels: np.ndarray
    n_components: int
    stats: RunStats = field(default_factory=RunStats)

    def component_sizes(self) -> np.ndarray:
        """Size of each component, indexed by compacted component id."""
        _, counts = np.unique(self.labels, return_counts=True)
        return counts


def _undirected_edges(graph: Graph):
    """Both arc directions of every edge (for weak connectivity)."""
    coo = graph.coo()
    if graph.properties.directed:
        rows = np.concatenate([coo.rows, coo.cols])
        cols = np.concatenate([coo.cols, coo.rows])
        return rows, cols
    return coo.rows, coo.cols


def connected_components(
    graph: Graph,
    *,
    method: str = "label_propagation",
    policy: Union[str, ExecutionPolicy] = par_vector,
    resilience=None,
    backend: str = "native",
) -> CCResult:
    """Weakly connected components.

    ``method`` is ``"label_propagation"`` (frontier/operator formulation)
    or ``"hooking"`` (pointer-jumping bulk formulation).  ``resilience``
    (label propagation only — hooking has no enactor loop to protect)
    adds superstep retry under chaos and label-array checkpointing.
    ``backend="linalg"`` runs min-label propagation as semiring matrix
    products instead of the frontier enactor.
    """
    from repro.execution.backend import resolve_backend

    if resolve_backend(
        backend, "cc", policy=policy, resilience=resilience, method=method
    ) == "linalg":
        from repro.linalg.algorithms import linalg_cc

        return linalg_cc(graph)
    policy = resolve_policy(policy)
    if method == "label_propagation":
        return _cc_label_propagation(graph, policy, resilience=resilience)
    if method == "hooking":
        return _cc_hooking(graph)
    raise ValueError(
        f"method must be 'label_propagation' or 'hooking', got {method!r}"
    )


def _cc_label_propagation(graph: Graph, policy, *, resilience=None) -> CCResult:
    n = graph.n_vertices
    labels = np.arange(n, dtype=np.int64)
    # Weak connectivity on directed graphs needs reverse edges too; the
    # reverse graph shares the same labels array.
    reverse = graph.reverse() if graph.properties.directed else None

    # Unweighted min-relax on the label array — the CC propagation is the
    # same condition shape as SSSP's, so it rides the same fused kernel.
    propagate = min_relax_condition(labels, weighted=False)

    enactor = Enactor(graph)

    def step(frontier, state):
        out = neighbors_expand(
            policy, graph, frontier, propagate, workspace=enactor.workspace
        )
        merged = out.to_indices()
        if reverse is not None:
            out_r = neighbors_expand(
                policy, reverse, frontier, propagate, workspace=enactor.workspace
            )
            merged = np.concatenate([merged, out_r.to_indices()])
        nxt = SparseFrontier(n)
        nxt.add_many_trusted(dedup_ids(merged, n, enactor.workspace))
        return nxt

    frontier = SparseFrontier.from_indices(np.arange(n, dtype=VERTEX_DTYPE), n)
    stats = enactor.run(
        frontier, step, resilience=resilience, state_arrays={"labels": labels}
    )
    # Labels have converged to the component minimum (a fixed point of
    # min-propagation over connected neighbors).
    n_components = int(np.unique(labels).shape[0])
    return CCResult(labels=labels, n_components=n_components, stats=stats)


def _cc_hooking(graph: Graph) -> CCResult:
    n = graph.n_vertices
    labels = np.arange(n, dtype=np.int64)
    rows, cols = _undirected_edges(graph)
    stats = RunStats()
    import time as _time
    from repro.utils.counters import IterationStats

    iteration = 0
    while True:
        t0 = _time.perf_counter()
        changed = False
        # Hooking: every edge tries to lower the root of its endpoint's
        # current root — grafting trees onto smaller-labeled ones.
        lu = labels[rows]
        lv = labels[cols]
        smaller = np.minimum(lu, lv)
        larger = np.maximum(lu, lv)
        mask = lu != lv
        if np.any(mask):
            old = labels[larger[mask]].copy()
            np.minimum.at(labels, larger[mask], smaller[mask])
            changed = bool(np.any(labels[larger[mask]] < old))
        # Shortcutting: pointer jumping until all trees are stars.
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels[:] = jumped
            changed = True
        stats.record(
            IterationStats(
                iteration=iteration,
                frontier_size=int(np.count_nonzero(mask)),
                edges_touched=int(rows.shape[0]),
                seconds=_time.perf_counter() - t0,
            )
        )
        iteration += 1
        if not changed:
            break
    stats.converged = True
    n_components = int(np.unique(labels).shape[0])
    return CCResult(labels=labels, n_components=n_components, stats=stats)
