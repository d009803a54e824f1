"""``dynamic-stream``: writes beside reads on an evolving graph.

A scale-14 R-MAT :class:`~repro.dynamic.EdgeStream` is replayed in
windows of about 1% of the live edges through ``DynamicGraph.apply``;
after each window the maintained BFS, SSSP and CC answers are repaired
with ``incremental_*``.  This is the only workload that exercises the
``dynamic`` layer and rebuilds ``graph`` views once per epoch; both
static workloads bypass them.  Compactions land in the tail.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterator, List, Optional

import numpy as np

import repro.algorithms as alg
import repro.dynamic as dyn
from repro.dynamic import EdgeStream, StreamDriver
from repro.dynamic.stream import DELETE, INSERT

from perfbench import checks
from perfbench.harness import OpResult, Outcome, Workload

#: Window size as a share of the live edge count.
WINDOW_SHARE = 0.01
KINDS = ("bfs", "sssp", "cc")


def window_events(stream: EdgeStream) -> int:
    """Events per window: :data:`WINDOW_SHARE` of the mean live edge
    count over the stream (the base plus half the net inserts)."""
    net = int(np.count_nonzero(stream.ops == INSERT)) - int(np.count_nonzero(stream.ops == DELETE))
    return max(1, round(WINDOW_SHARE * (stream.base.n_edges + net / 2)))


class DynamicStream(Workload):
    """One operation is one window: apply, snapshot, repair all three.

    The windows are ``EdgeStream.windows`` ranges, folded into net
    insert and remove lists by the program's own ``StreamDriver`` rules
    (outside the timer).  ``StreamDriver.run`` itself is not driven: it
    has no time budget, recomputes every query inside its loop, and
    cannot resume a stream it has partly replayed."""

    source: Optional[int] = None

    def build(self) -> None:
        scale = 9 if self.tiny else 14
        self.stream = EdgeStream.rmat(scale, 8, seed=self.seed)

    def choose_inputs(self) -> None:
        self.windows = list(self.stream.windows(window_events(self.stream)))
        if self.source is None:
            rng = np.random.default_rng([self.seed, 3])
            self.source = int(rng.choice(checks.giant_scc(self.stream.base)))

    def warm_up(self) -> None:
        self.begin_phase()

    def release(self) -> None:
        self.stream = self.windows = self.driver = self.answers = None

    def begin_phase(self) -> None:
        self.recompute_s = dict.fromkeys(KINDS, 0.0)
        self.repair_s = dict.fromkeys(KINDS, 0.0)
        self._start_pass()

    @property
    def dynamic(self):
        return self.driver.dynamic

    def _start_pass(self) -> None:
        """Fresh dynamic graph on the base snapshot, cold answers."""
        self.driver = StreamDriver(self.stream, algorithms=KINDS, source=self.source, compare_full=False)
        g = self.dynamic.graph()
        self.answers = {
            "bfs": alg.bfs(g, self.source),
            "sssp": alg.sssp(g, self.source),
            "cc": alg.connected_components(g),
        }

    def sizes(self) -> Dict[str, Any]:
        return {
            "n_vertices": self.stream.base.n_vertices,
            "base_edges": self.stream.base.n_edges,
            "events": self.stream.n_events,
            "windows_per_pass": len(self.windows),
        }

    def rounds(self) -> Iterator[List[Any]]:
        k = 0
        while True:
            yield [k % len(self.windows)]
            k += 1

    def run_op(self, op) -> OpResult:
        inserts, removes = self.driver._net_window(*self.windows[op])
        prev = self.answers
        t0 = time.perf_counter()
        batch = self.dynamic.apply(insert=inserts, remove=removes)
        self.dynamic.graph()
        t1 = time.perf_counter()
        bfs = dyn.incremental_bfs(self.dynamic, prev["bfs"], batch=batch)
        t2 = time.perf_counter()
        sssp = dyn.incremental_sssp(self.dynamic, prev["sssp"], batch=batch)
        t3 = time.perf_counter()
        cc = dyn.incremental_cc(self.dynamic, prev["cc"], batch=batch)
        t4 = time.perf_counter()
        self.answers = {"bfs": bfs, "sssp": sssp, "cc": cc}
        parts = {"bfs": t2 - t1, "sssp": t3 - t2, "cc": t4 - t3}
        for kind, seconds in parts.items():
            self.repair_s[kind] += seconds
        return OpResult("refresh", t4 - t0, float(3 * self.dynamic.n_edges), parts=parts)

    def check(self, op, result: OpResult) -> Optional[str]:
        g = self.dynamic.graph()
        t0 = time.perf_counter()
        full_bfs = alg.bfs(g, self.source)
        t1 = time.perf_counter()
        full_sssp = alg.sssp(g, self.source)
        t2 = time.perf_counter()
        full_cc = alg.connected_components(g)
        t3 = time.perf_counter()
        for kind, seconds in zip(KINDS, (t1 - t0, t2 - t1, t3 - t2)):
            self.recompute_s[kind] += seconds
        a = self.answers
        if op == len(self.windows) - 1:
            self._start_pass()  # the stream is used up: replay it from the base
        if not np.array_equal(a["bfs"].levels, full_bfs.levels):
            return f"window {op}: repaired BFS levels differ from a recompute"
        if not np.array_equal(a["sssp"].distances, full_sssp.distances):
            return f"window {op}: repaired SSSP distances differ from a recompute"
        if not np.array_equal(a["cc"].labels, full_cc.labels):
            return f"window {op}: repaired CC labels differ from a recompute"
        return None

    def finish(self, outcome: Outcome) -> None:
        """Repair time over full-recompute time, in all and per kind."""
        recompute = sum(self.recompute_s.values())
        if recompute:
            outcome.extras["repair_over_recompute"] = sum(self.repair_s.values()) / recompute
            outcome.info["repair_over_recompute"] = {
                k: self.repair_s[k] / self.recompute_s[k] for k in KINDS
            }
