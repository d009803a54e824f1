"""What every workload shares: the timed loop, outcomes and layer figures."""

from __future__ import annotations

import gc
import os
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence

from perfbench import stats
from perfbench.tracer import Summary, Tracer, import_layers

#: Set-ups per untraced run: at least ``SETUP_MIN``, and more while they
#: have taken less than ``SETUP_BUDGET_S`` in all, up to ``SETUP_MAX``.
#: ``setup_s`` is their median.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 7, 2.0


@dataclass
class OpResult:
    """One timed operation: its kind, busy seconds and input edges."""

    kind: str
    seconds: float
    edges: float = 0.0
    payload: Any = None
    #: Seconds of named sub-steps, each also sampled as its own kind.
    parts: Dict[str, float] = field(default_factory=dict)


@dataclass
class Outcome:
    """Everything one measured phase produced."""

    samples: Dict[str, List[float]] = field(default_factory=dict)  # kind -> ms
    ops_ms: List[float] = field(default_factory=list)  # every operation, ms
    busy_s: float = 0.0
    edges: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    ops: List[Any] = field(default_factory=list)  # what ran, for a replay
    extras: Dict[str, float] = field(default_factory=dict)
    info: Dict[str, Any] = field(default_factory=dict)

    def record(self, result: OpResult, error: Optional[str]) -> None:
        ms = result.seconds * 1e3
        self.samples.setdefault(result.kind, []).append(ms)
        for kind, seconds in result.parts.items():
            self.samples.setdefault(kind, []).append(seconds * 1e3)
        self.ops_ms.append(ms)
        self.busy_s += result.seconds
        self.edges += result.edges
        self.attempted += 1
        if error is not None:
            self.fail(error)

    def fail(self, error: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(error)


class Workload:
    """Base for the in-process workloads: a seeded operation stream run
    closed-loop by one caller, each result checked outside the timer."""

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny

    # Subclasses provide these.  A set-up is ``build`` (timed: graph
    # build and views), ``choose_inputs`` (untimed: the benchmark's own
    # choices such as traversal roots, made once) and ``warm_up`` (timed:
    # one untimed-in-the-run call of each query kind).
    def build(self) -> None:
        raise NotImplementedError

    def choose_inputs(self) -> None:
        """Pick the benchmark's inputs on the built graph, once."""

    def warm_up(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        self.build()
        self.choose_inputs()
        self.warm_up()

    def release(self) -> None:
        """Drop what :meth:`setup` built, before the next set-up."""

    def close(self) -> None:
        self.release()

    def rounds(self) -> Iterator[List[Any]]:
        """The seeded operation stream, in rounds of the workload's fixed
        mix; a phase ends only between rounds, so every phase runs whole
        mixes."""
        raise NotImplementedError

    def run_op(self, op: Any) -> OpResult:
        raise NotImplementedError

    def check(self, op: Any, result: OpResult) -> Optional[str]:
        raise NotImplementedError

    def begin_phase(self) -> None:
        """Reset per-phase state (untimed) before a measured phase."""

    def sizes(self) -> Dict[str, Any]:
        return {}

    def finish(self, outcome: Outcome) -> None:
        """Fill workload-specific extras once a phase ends."""

    # The shared closed loop.
    def measure(
        self,
        seconds: float,
        *,
        replay: Optional[Sequence[Any]] = None,
        tracer: Optional[Tracer] = None,
    ) -> Outcome:
        """Run rounds until ``seconds`` of wall time pass (or replay
        exactly the operations ``replay``); every result is checked with
        the tracer paused and the check's cost outside the timer.

        The first round's checks wait until the round ends, and
        ``extras["peak_rss_mb"]`` is the process's peak resident set
        read just before them: the peak since the last set-up began
        (see :func:`timed_setups`) over the program's own work, before
        the checks build their edge lists and matrices."""
        self.begin_phase()
        out = Outcome()
        if replay is not None:
            rounds: Iterator[List[Any]] = iter([list(replay)])
        else:
            rounds = self._until(time.perf_counter() + seconds)
        pending: Optional[List[Any]] = [] if replay is None else None
        for ops in rounds:
            for op in ops:
                if tracer is not None:
                    tracer.set_qid(f"op{len(out.ops)}")
                out.ops.append(op)
                try:
                    result = self.run_op(op)
                except Exception as exc:  # noqa: BLE001 - a failed operation is data
                    out.attempted += 1
                    out.fail(f"{op!r}: {type(exc).__name__}: {exc}")
                    continue
                if pending is not None:
                    pending.append((op, result))
                else:
                    self._check(out, op, result, tracer)
            if pending is not None:
                out.extras["peak_rss_mb"] = peak_rss_mb()
                for op, result in pending:
                    self._check(out, op, result, tracer)
                pending = None
        self.finish(out)
        return out

    def _check(self, out: Outcome, op: Any, result: OpResult, tracer: Optional[Tracer]) -> None:
        if tracer is None:
            error = self.check(op, result)
        else:
            with tracer.paused():
                error = self.check(op, result)
        out.record(result, error)

    def traced(self, seconds: float):
        """Half of ``seconds`` untraced, then the same operations again
        with every layer wrapped; returns ``(untraced, traced, span
        records, extras, missed bindings)``."""
        untraced = self.measure(seconds / 2)
        import_layers()
        tracer = Tracer()
        tracer.install()
        try:
            missed = tracer.check_coverage()
            traced = self.measure(0, replay=untraced.ops, tracer=tracer)
        finally:
            tracer.uninstall()
        extras = dict(untraced.extras)
        extras["trace_overhead"] = traced.busy_s / untraced.busy_s if untraced.busy_s else 0.0
        return untraced, traced, tracer.records(), extras, missed

    def _until(self, deadline: float) -> Iterator[List[Any]]:
        for ops in self.rounds():
            if time.perf_counter() >= deadline:
                return
            yield ops


def timed_setups(workload) -> List[float]:
    """Set the workload up several times; returns each duration: build
    plus warm-up, leaving out ``choose_inputs``.  The last set-up stays
    live for the measured phase, and this process's peak resident set is
    reset before each, so the measured peak starts with the last one."""
    times: List[float] = []
    while len(times) < SETUP_MIN or (sum(times) < SETUP_BUDGET_S and len(times) < SETUP_MAX):
        if times:
            workload.release()
            gc.collect()
        reset_peak_rss()
        t0 = time.perf_counter()
        workload.build()
        t1 = time.perf_counter()
        workload.choose_inputs()
        t2 = time.perf_counter()
        workload.warm_up()
        times.append(t1 - t0 + time.perf_counter() - t2)
    return times


def reset_peak_rss() -> None:
    """Reset this process's peak resident set (``VmHWM``) to its current
    resident set; a no-op where ``/proc/self/clear_refs`` is missing."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Peak resident set of this process since the last
    :func:`reset_peak_rss`, MiB (since start without ``/proc``)."""
    peak = process_peak_rss_mb("self")
    if peak is None:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return peak


def process_peak_rss_mb(pid) -> Optional[float]:
    """Peak resident set of a running process from ``/proc``, MiB."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


# -- end-to-end metrics --------------------------------------------------------------

#: Units of the gated metrics, in BENCHMARK.json order.
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "throughput_ops_s": "1/s",
}


def end_to_end(outcome: Outcome, setup_times: Sequence[float], rss_mb: float) -> Dict[str, float]:
    """The gated metrics, defined on every workload (see README.md)."""
    ops = outcome.ops_ms
    return {
        "setup_s": stats.median(setup_times),
        "peak_rss_mb": rss_mb,
        "throughput_ops_s": outcome.extras.get(
            "throughput_ops_s", len(ops) / outcome.busy_s if outcome.busy_s else 0.0
        ),
    }


# -- per-layer metrics ---------------------------------------------------------------


LAYER_UNITS = {
    "graph.transpose_calls": "count",
    "graph.transpose_s": "s",
    "dynamic.apply_s": "s",
    "dynamic.snapshot_s": "s",
    "dynamic.repair_s.bfs": "s",
    "dynamic.repair_s.sssp": "s",
    "dynamic.repair_s.cc": "s",
    "dynamic.compactions": "count",
    "dynamic.repair_over_recompute": "ratio",
    "operators.calls": "count",
    "operators.self_s": "s",
    "operators.us_per_call": "us",
    "operators.edges_gathered": "count",
    "operators.edges_per_s": "1/s",
    "frontier.convert_calls": "count",
    "frontier.convert_s": "s",
    "loop.supersteps": "count",
    "loop.self_s": "s",
    "loop.self_us_per_superstep": "us",
    "linalg.spmv_calls": "count",
    "linalg.spmspv_calls": "count",
    "linalg.kernel_s": "s",
    "linalg.bytes_moved": "bytes",
    "execution.pool_tasks": "count",
    "execution.proc_dispatches": "count",
    "comm.messages": "count",
    "service.admission_wait_s": "s",
    "service.cache_hit_ratio": "ratio",
    "service.cache_invalidated": "count",
    "service.execute_s": "s",
    "service.mutate_s": "s",
    "service.snapshot_s": "s",
    "service.journal_s": "s",
    "service.codec_s": "s",
    "observability.ledger_append_s": "s",
    "observability.ledger_bytes_per_query": "bytes",
    "trace_overhead": "ratio",
}


def _sum(summary: Summary, prefix: str, attr: str) -> float:
    return sum(getattr(s, attr) for n, s in summary.names.items() if n.startswith(prefix))


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(summary: Summary, extras: Dict[str, float]) -> Dict[str, float]:
    """Per-layer figures from one traced phase.  Times are self time
    unless the name says otherwise (service phases are inclusive: time
    spent inside the public call)."""
    g = summary.get
    op_calls = _sum(summary, "operators:", "calls")
    op_self = _sum(summary, "operators:", "self_s")
    edges = g("operators:neighbors_expand").count
    steps = g("loop:Enactor.run").count
    loop_self = _sum(summary, "loop:", "self_s")
    lookups = g("service:ResultCache.get_fresh").calls
    return {
        "graph.transpose_calls": _sum(summary, "graph:", "top_calls"),
        "graph.transpose_s": _sum(summary, "graph:", "self_s"),
        "dynamic.apply_s": g("dynamic:DynamicGraph.apply").self_s,
        "dynamic.snapshot_s": g("dynamic:DynamicGraph.graph").self_s,
        "dynamic.repair_s.bfs": g("dynamic:incremental_bfs").self_s,
        "dynamic.repair_s.sssp": g("dynamic:incremental_sssp").self_s,
        "dynamic.repair_s.cc": g("dynamic:incremental_cc").self_s,
        "dynamic.compactions": g("dynamic:DynamicGraph.compact").calls,
        "dynamic.repair_over_recompute": extras.get("repair_over_recompute", 0.0),
        "operators.calls": op_calls,
        "operators.self_s": op_self,
        "operators.us_per_call": _ratio(op_self, op_calls) * 1e6,
        "operators.edges_gathered": edges,
        "operators.edges_per_s": _ratio(edges, op_self),
        "frontier.convert_calls": _sum(summary, "frontier:", "calls"),
        "frontier.convert_s": _sum(summary, "frontier:", "self_s"),
        "loop.supersteps": steps,
        "loop.self_s": loop_self,
        "loop.self_us_per_superstep": _ratio(loop_self, steps) * 1e6,
        "linalg.spmv_calls": g("linalg:spmv").calls,
        "linalg.spmspv_calls": g("linalg:spmspv").calls,
        "linalg.kernel_s": _sum(summary, "linalg:", "self_s"),
        "linalg.bytes_moved": _sum(summary, "linalg:", "count"),
        "execution.pool_tasks": g("execution:ThreadPool.run_tasks").count
        + g("execution:ThreadPool.parallel_for").calls,
        "execution.proc_dispatches": g("execution:proc_expand").calls
        + g("execution:ProcEngine.pagerank_incoming").calls,
        "comm.messages": g("comm:MailboxRouter.send").count,
        "service.admission_wait_s": g("service:AdmissionController.acquire").total_s,
        "service.cache_hit_ratio": _ratio(g("service:ResultCache.get_fresh").count, lookups),
        "service.cache_invalidated": g("service:ResultCache.invalidate_graph").count,
        "service.execute_s": g("service:execute_query").total_s,
        "service.mutate_s": g("service:GraphCatalog.mutate").total_s,
        "service.snapshot_s": g("service:GraphCatalog.get").total_s,
        "service.journal_s": g("service:QueryJournal.begin").total_s
        + g("service:QueryJournal.end").total_s,
        "service.codec_s": g("service:encode").total_s + g("service:decode").total_s,
        "observability.ledger_append_s": g("observability:RunLedger.append").total_s,
        "observability.ledger_bytes_per_query": extras.get("ledger_bytes_per_query", 0.0),
        "trace_overhead": extras.get("trace_overhead", 0.0),
    }


#: Layers each workload must exercise in a traced run (the "heavy on"
#: column of README.md's layer table); zero calls fail the run.
HEAVY = {
    "grid-traverse": ("operators", "loop"),
    "rmat-analytics": ("operators", "frontier", "linalg"),
    "dynamic-stream": ("graph", "dynamic"),
    "service-mixed": ("service", "observability", "loop"),
}


def coverage_failures(workload: str, summary: Summary) -> List[str]:
    return [
        f"traced run recorded no {layer} calls on {workload}"
        for layer in HEAVY.get(workload, ())
        if summary.layer_calls(layer) == 0
    ]


def cpu_count() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
