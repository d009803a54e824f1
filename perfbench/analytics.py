"""The two static analytics workloads: one caller, closed loop.

Both call the public algorithm entry points on the default policy and
backend (``linalg`` only where the workload names it) and check every
result with the certificates in :mod:`perfbench.checks`.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

import repro.algorithms as alg
from repro.graph import generators as gen

from perfbench import checks
from perfbench.harness import OpResult, Outcome, Workload


def _reached_edges(graph, reached: np.ndarray) -> float:
    """Input edges of the traversed component: out-edges of every reached
    vertex, independent of how many supersteps the traversal took."""
    return float(graph.out_degrees()[reached].sum())


class _Analytics(Workload):
    """Shared run/check logic; subclasses build the graph and the stream
    of operations."""

    graph = None
    #: Traversal sources, chosen once by ``choose_inputs``.
    sources: Optional[List[int]] = None
    #: Query kinds of the mix, each warmed up once per set-up.
    kinds: Tuple[str, ...] = ()

    def release(self) -> None:
        self.graph = None
        self._edges = None
        self._n_components = None
        #: Last verified output per kind.  An output equal to it is
        #: verified already (CC and PageRank repeat every round).
        self._verified: Dict[str, np.ndarray] = {}

    def sizes(self) -> Dict[str, Any]:
        g = self.graph
        return {"n_vertices": g.n_vertices, "n_edges": g.n_edges}

    def warm_up(self) -> None:
        """One call of every query kind on the fresh graph."""
        source = self.sources[0]
        for kind in self.kinds:
            self.run_op((kind, source))

    def run_op(self, op) -> OpResult:
        kind, source = op
        g = self.graph
        m = float(g.n_edges)
        if kind == "bfs":
            t0 = time.perf_counter()
            r = alg.bfs(g, source, direction=self.bfs_direction)
            dt = time.perf_counter() - t0
            return OpResult(kind, dt, _reached_edges(g, r.levels >= 0), r)
        if kind == "sssp":
            t0 = time.perf_counter()
            r = alg.sssp(g, source)
            dt = time.perf_counter() - t0
            return OpResult(kind, dt, _reached_edges(g, r.reached()), r)
        if kind == "cc":
            t0 = time.perf_counter()
            r = alg.connected_components(g)
            return OpResult(kind, time.perf_counter() - t0, m, r)
        if kind == "pagerank":
            t0 = time.perf_counter()
            r = alg.pagerank(g)
            return OpResult(kind, time.perf_counter() - t0, m, r)
        if kind == "pagerank_linalg":
            t0 = time.perf_counter()
            r = alg.pagerank(g, backend="linalg")
            return OpResult(kind, time.perf_counter() - t0, m, r)
        raise ValueError(f"unknown operation {kind!r}")

    def check(self, op, result: OpResult) -> Optional[str]:
        kind, source = op
        r = result.payload
        if self._edges is None:
            self._edges = checks.Edges(self.graph)
            self._n_components = int(checks.component_labels(self.graph, "weak")[0])
        e = self._edges
        if kind == "bfs":
            return checks.bfs_certificate(e, source, r.levels, r.parents)
        if kind == "sssp":
            return checks.sssp_certificate(e, source, r.distances)
        out = r.labels if kind == "cc" else r.ranks
        seen = self._verified.get(kind)
        if seen is not None and np.array_equal(seen, out):
            return None
        if kind == "cc":
            error = checks.cc_check(e, r.labels, r.n_components, self._n_components)
        else:
            error = checks.pagerank_check(e, r.ranks)
            native = self._verified.get("pagerank")
            if error is None and kind == "pagerank_linalg" and native is not None:
                error = checks.backends_agree(native, r.ranks)
        if error is None:
            self._verified[kind] = out
        return error

    def finish(self, outcome: Outcome) -> None:
        if outcome.busy_s:
            outcome.extras["mteps"] = outcome.edges / outcome.busy_s / 1e6


class GridTraverse(_Analytics):
    """``grid-traverse``: a weighted 256x256 grid.  High diameter means
    ~515 supersteps per query on frontiers of a few hundred vertices, so
    per-superstep cost in ``loop``, ``frontier`` and small ``operators``
    calls dominates -- a regime R-MAT barely registers."""

    bfs_direction = "push"
    kinds = ("bfs", "sssp", "cc")
    #: Queries per round: BFS and SSSP from this many sources, then CC.
    per_round = 8

    @property
    def side(self) -> int:
        return 32 if self.tiny else 256

    def build(self) -> None:
        self.release()
        self.graph = gen.grid_2d(self.side, self.side, weighted=True, seed=self.seed)
        self.graph.csr()
        self.graph.coo()

    def choose_inputs(self) -> None:
        """Stratified seeded sources: one per block of an 8x8 tiling, so
        every seed sees the same spread of eccentricities."""
        if self.sources is not None:
            return
        side = self.side
        rng = np.random.default_rng([self.seed, 1])
        block = side // 8
        rows = np.repeat(np.arange(8), 8) * block + rng.integers(0, block, 64)
        cols = np.tile(np.arange(8), 8) * block + rng.integers(0, block, 64)
        self.sources = [int(s) for s in rng.permutation(rows * side + cols)]

    def rounds(self) -> Iterator[List[Any]]:
        i = 0
        while True:
            ops: List[Any] = []
            for _ in range(self.per_round):
                s = self.sources[i % len(self.sources)]
                i += 1
                ops += [("bfs", s), ("sssp", s)]
            yield ops + [("cc", None)]


class RmatAnalytics(_Analytics):
    """``rmat-analytics``: R-MAT scale 18, edge factor 16, weighted.  The
    scale-free bulk regime: a few supersteps over ~4M edges, where large
    gathers in ``operators`` and ``linalg`` dominate; the ``par_proc``
    decision is stated at this scale.  Roots come from the giant strongly
    connected component, so every root reaches the same vertices."""

    bfs_direction = "auto"
    kinds = ("bfs", "sssp", "cc", "pagerank", "pagerank_linalg")
    #: Roots per round: BFS and SSSP are the cheap kinds, so a round runs
    #: them from several roots before CC and the two PageRanks.
    per_round = 4

    def build(self) -> None:
        scale = 10 if self.tiny else 18
        self.release()
        self.graph = gen.rmat(scale, 16, weighted=True, seed=self.seed)
        self.graph.csr()
        self.graph.csc()
        self.graph.coo()

    def choose_inputs(self) -> None:
        if self.sources is not None:
            return
        rng = np.random.default_rng([self.seed, 2])
        candidates = checks.giant_scc(self.graph)
        self.sources = [int(s) for s in rng.choice(candidates, min(64, len(candidates)), replace=False)]

    def rounds(self) -> Iterator[List[Any]]:
        i = 0
        while True:
            ops: List[Any] = []
            for _ in range(self.per_round):
                s = self.sources[i % len(self.sources)]
                i += 1
                ops += [("bfs", s), ("sssp", s)]
            yield ops + [("cc", None), ("pagerank", None), ("pagerank_linalg", None)]
