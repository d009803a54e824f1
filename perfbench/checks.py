"""Correctness certificates, run outside every timed region.

Each check returns ``None`` when the output is right and a one-line
reason otherwise; the workloads count a reason as a failed operation.
The traversal certificates follow Graph500's validation: O(m) vectorized
passes over the edge list, no reference traversal.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

import numpy as np

#: Distance and rank comparisons.  SSSP distances are float32 sums, so a
#: tight edge may differ from ``dist[u] + w`` by float32 rounding.
DIST_RTOL = 1e-5
#: PageRank: L1 residual of one more power step, as a multiple of the
#: solver tolerance (the iterate is within ``delta * d / (1 - d)`` of the
#: fixed point).
RESIDUAL_FACTOR = 10.0
#: L1 distance allowed between the native and linalg PageRank vectors.
BACKEND_AGREEMENT = 1e-4


class Edges:
    """A graph's edge list in the forms the checks read, built once per
    graph and shared by every check of its results."""

    def __init__(self, graph) -> None:
        coo = graph.coo()
        self.n = graph.n_vertices
        self.u = coo.rows.astype(np.int64)
        self.v = coo.cols.astype(np.int64)
        self.w = coo.vals.astype(np.float64)

    @cached_property
    def incoming(self):
        """``A^T`` with edge weights, for the PageRank residual."""
        from scipy.sparse import csr_matrix

        return csr_matrix((self.w, (self.v, self.u)), shape=(self.n, self.n))

    @cached_property
    def out_weight(self) -> np.ndarray:
        return np.bincount(self.u, weights=self.w, minlength=self.n)


def bfs_certificate(e: Edges, source: int, levels: np.ndarray, parents: np.ndarray) -> Optional[str]:
    """Levels satisfy ``level[v] <= level[u] + 1`` on every edge out of a
    reached ``u``, and every reached ``v`` other than the source has a
    tight parent: an edge ``(parent[v], v)`` one level up."""
    n = e.n
    if levels.shape != (n,) or parents.shape != (n,):
        return "bfs: result arrays have the wrong length"
    if levels[source] != 0 or parents[source] != source:
        return f"bfs: source {source} has level {levels[source]}, parent {parents[source]}"
    u, v = e.u, e.v
    reached_u = levels[u] >= 0
    bad = reached_u & ((levels[v] < 0) | (levels[v] > levels[u] + 1))
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        return f"bfs: edge ({u[i]}, {v[i]}) violates level[v] <= level[u] + 1"
    tight = reached_u & (parents[v] == u) & (levels[v] == levels[u] + 1)
    has_parent = np.zeros(n, dtype=bool)
    has_parent[v[tight]] = True
    has_parent[source] = True
    orphan = (levels >= 0) & ~has_parent
    if orphan.any():
        return f"bfs: reached vertex {int(np.flatnonzero(orphan)[0])} has no tight parent edge"
    return None


def sssp_certificate(e: Edges, source: int, dist: np.ndarray) -> Optional[str]:
    """``dist[v] <= dist[u] + w`` on every edge out of a reached ``u``,
    and every reached ``v`` other than the source has a tight in-edge."""
    n = e.n
    if dist.shape != (n,):
        return "sssp: distance array has the wrong length"
    if dist[source] != 0:
        return f"sssp: source {source} has distance {dist[source]}"
    inf = np.finfo(np.float32).max
    u, v = e.u, e.v
    du = dist[u].astype(np.float64)
    dv = dist[v].astype(np.float64)
    reached_u = dist[u] < inf
    cand = du + e.w
    slack = DIST_RTOL * np.maximum(1.0, cand)
    bad = reached_u & (dv > cand + slack)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        return f"sssp: edge ({u[i]}, {v[i]}) violates dist[v] <= dist[u] + w"
    tight = reached_u & (np.abs(dv - cand) <= slack)
    has_parent = np.zeros(n, dtype=bool)
    has_parent[v[tight]] = True
    has_parent[source] = True
    orphan = (dist < inf) & ~has_parent
    if orphan.any():
        return f"sssp: reached vertex {int(np.flatnonzero(orphan)[0])} has no tight in-edge"
    return None


def component_labels(graph, connection: str):
    """``(count, labels)`` of the weak or strong components, from
    ``scipy.sparse.csgraph``."""
    from scipy.sparse.csgraph import connected_components

    return connected_components(graph.csr().to_scipy(), directed=True, connection=connection)


def cc_check(e: Edges, labels: np.ndarray, n_components: int, expected: int) -> Optional[str]:
    """Labels agree across every edge, and the label count, the reported
    count and scipy's weak component count are one number."""
    u, v = e.u, e.v
    split = labels[u] != labels[v]
    if split.any():
        i = int(np.flatnonzero(split)[0])
        return f"cc: edge ({u[i]}, {v[i]}) joins labels {labels[u[i]]} and {labels[v[i]]}"
    distinct = int(np.unique(labels).shape[0])
    if not (distinct == n_components == expected):
        return f"cc: {distinct} labels, {n_components} reported, scipy counts {expected}"
    return None


def pagerank_residual(e: Edges, ranks: np.ndarray, damping: float = 0.85) -> float:
    """L1 distance between ``ranks`` and one more damped power step
    (edge-weighted shares, dangling mass spread uniformly)."""
    dangling = e.out_weight == 0
    share = np.where(dangling, 0.0, ranks / np.maximum(e.out_weight, 1e-300))
    step = (1.0 - damping) / e.n + damping * (e.incoming @ share + ranks[dangling].sum() / e.n)
    return float(np.abs(step - ranks).sum())


def pagerank_check(e: Edges, ranks: np.ndarray, tolerance: float = 1e-6) -> Optional[str]:
    """Ranks sum to one and are a fixed point to within the residual bar."""
    if ranks.shape != (e.n,):
        return "pagerank: rank vector has the wrong length"
    total = float(ranks.sum())
    if abs(total - 1.0) > 1e-6:
        return f"pagerank: ranks sum to {total}"
    residual = pagerank_residual(e, ranks)
    if residual > RESIDUAL_FACTOR * tolerance:
        return f"pagerank: residual {residual:.3g} exceeds {RESIDUAL_FACTOR * tolerance:.3g}"
    return None


def backends_agree(native: np.ndarray, linalg: np.ndarray) -> Optional[str]:
    """Native and linalg PageRank vectors agree in L1."""
    gap = float(np.abs(native - linalg).sum())
    if gap > BACKEND_AGREEMENT:
        return f"pagerank: native and linalg ranks differ by {gap:.3g} (L1)"
    return None


def giant_scc(graph) -> np.ndarray:
    """Vertices of the largest strongly connected component.  Every one
    reaches the same out-component, so traversal roots drawn from it do
    equal work up to the graph's shape."""
    _, labels = component_labels(graph, "strong")
    return np.flatnonzero(labels == np.bincount(labels).argmax())
