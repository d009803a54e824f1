"""Spans recorded from outside the program: wrappers on layer entry points.

The benchmark never edits ``src/``.  A traced run instead replaces each
public entry point of a layer module (``repro.graph``, ``repro.frontier``,
``repro.operators``, ...) with a wrapper that records one span per call:
name, start, end, parent span and query id, kept in memory and written
out when the run ends.  Untraced runs install nothing.

Python binds ``from module import name`` at import time, so patching the
defining module alone would miss callers that already hold the original
object (``repro.algorithms.bfs`` looks up its own ``neighbors_expand``).
:meth:`Tracer.install` therefore rebinds the name in *every* loaded
``repro`` module and class that holds the original object, and
:meth:`Tracer.check_coverage` fails if any binding was missed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Fields of a span record ``[name, start, end, parent, qid, count]``
#: that the wrapper fills in after creating it.
START, END, COUNT = 1, 2, 5

#: Bytes per stored element used by the computed ``linalg.bytes_moved``:
#: float64 values and vectors, int64 indices and offsets.
VALUE_BYTES = 8
INDEX_BYTES = 8


@dataclass(frozen=True)
class Target:
    """One wrapped entry point.

    ``path`` is ``"module:attr"`` or ``"module:Class.attr"``.  ``count``
    computes the span's work count from the call's arguments and result
    (``count(args, kwargs, result) -> number``); ``when`` restricts
    recording to calls for which it returns true (cached view lookups are
    not builds).
    """

    layer: str
    path: str
    count: Optional[Callable[[tuple, dict, Any], float]] = None
    when: Optional[Callable[[tuple, dict], bool]] = None

    @property
    def name(self) -> str:
        return f"{self.layer}:{self.path.split(':', 1)[1]}"


# -- work counts computed at the call boundary ----------------------------------------


def _arg(args: tuple, kwargs: dict, index: int, key: str):
    return args[index] if len(args) > index else kwargs.get(key)


def _expand_edges(args, kwargs, result) -> float:
    """Edges an advance gathers: out-degrees of the frontier (push) or
    in-degrees of the candidates (pull; every vertex when unspecified)."""
    graph = _arg(args, kwargs, 1, "graph")
    frontier = _arg(args, kwargs, 2, "frontier")
    if kwargs.get("direction") == "pull":
        csc = graph.csc()
        candidates = kwargs.get("candidates")
        if candidates is None:
            return float(csc.get_num_edges())
        offsets = csc.col_offsets
        return float((offsets[candidates + 1] - offsets[candidates]).sum())
    ids = frontier.to_indices()
    return float(graph.csr().degrees_of(ids).sum()) if ids.size else 0.0


def _spmv_bytes(args, kwargs, result) -> float:
    """Computed bytes an SpMV moves: every stored edge (index + value),
    the offsets, the input vector and the output vector."""
    graph = _arg(args, kwargs, 0, "graph")
    n, m = graph.n_vertices, graph.n_edges
    mask = kwargs.get("mask")
    if mask is not None:
        # Masked rows touch only their own segments; charge the
        # selected share of the edges.
        share = float(mask.mean()) if not kwargs.get("complement") else float(1 - mask.mean())
        m = m * share
    return m * (INDEX_BYTES + VALUE_BYTES) + (n + 1) * INDEX_BYTES + 2 * n * VALUE_BYTES


def _spmspv_bytes(args, kwargs, result) -> float:
    """Computed bytes an SpMSpV moves: the frontier's out-edges (index +
    value + source value), their offsets, and the dense output."""
    graph = _arg(args, kwargs, 0, "graph")
    ids = _arg(args, kwargs, 1, "frontier_ids")
    csr = graph.csr()
    gathered = float(csr.degrees_of(ids).sum()) if len(ids) else 0.0
    return (
        gathered * (INDEX_BYTES + 2 * VALUE_BYTES)
        + 2 * len(ids) * INDEX_BYTES
        + graph.n_vertices * VALUE_BYTES
    )


def _supersteps(args, kwargs, result) -> float:
    return float(result.num_iterations)


def _n_tasks(args, kwargs, result) -> float:
    return float(len(_arg(args, kwargs, 1, "tasks")))


def _n_messages(args, kwargs, result) -> float:
    dst = _arg(args, kwargs, 1, "destinations")
    return float(len(dst)) if dst is not None else 0.0


def _cache_hit(args, kwargs, result) -> float:
    return 0.0 if result is None else 1.0


def _returned_count(args, kwargs, result) -> float:
    return float(result or 0)


def _view_build(args, kwargs) -> bool:
    graph, name = args[0], _arg(args, kwargs, 1, "name")
    return not graph.has_view(name)


#: Every wrapped entry point, by layer.  The algorithm entry points are
#: what the workloads call, so they are not a layer of their own.
TARGETS: Tuple[Target, ...] = (
    Target("graph", "repro.graph.transpose:transpose_csr"),
    Target("graph", "repro.graph.transpose:csc_to_csr"),
    Target("graph", "repro.graph.graph:Graph.view", when=_view_build),
    Target("graph", "repro.graph.graph:Graph.reverse"),
    Target("frontier", "repro.frontier.convert:convert"),
    Target("frontier", "repro.frontier.convert:auto_select"),
    Target("frontier", "repro.frontier.convert:make_frontier"),
    Target("frontier", "repro.frontier.sparse:SparseFrontier.from_indices"),
    Target("frontier", "repro.frontier.sparse:SparseFrontier.to_indices"),
    Target("frontier", "repro.frontier.dense:DenseFrontier.from_indices"),
    Target("frontier", "repro.frontier.dense:DenseFrontier.from_flags"),
    Target("frontier", "repro.frontier.dense:DenseFrontier.to_indices"),
    Target("operators", "repro.operators.advance:neighbors_expand", count=_expand_edges),
    Target("operators", "repro.operators.advance:expand_to_edges"),
    Target("operators", "repro.operators.filter:filter_frontier"),
    Target("operators", "repro.operators.foreach:for_each"),
    Target("operators", "repro.operators.reduce:reduce_values"),
    Target("operators", "repro.operators.reduce:argreduce"),
    Target("operators", "repro.operators.uniquify:uniquify"),
    Target("operators", "repro.operators.intersection:segmented_intersection_counts"),
    Target("operators", "repro.operators.segmented:segmented_neighbor_reduce"),
    Target("operators", "repro.operators.fused:dedup_ids"),
    Target("operators", "repro.operators.fused:segmented_sum"),
    Target("loop", "repro.loop.enactor:Enactor.run", count=_supersteps),
    Target("loop", "repro.loop.async_enactor:AsyncEnactor.run"),
    Target("linalg", "repro.linalg.kernels:spmv", count=_spmv_bytes),
    Target("linalg", "repro.linalg.kernels:spmspv", count=_spmspv_bytes),
    Target("execution", "repro.execution.thread_pool:ThreadPool.run_tasks", count=_n_tasks),
    Target("execution", "repro.execution.thread_pool:ThreadPool.parallel_for"),
    Target("execution", "repro.execution.proc_engine:proc_expand"),
    Target("execution", "repro.execution.proc_engine:ProcEngine.pagerank_incoming"),
    Target("comm", "repro.comm.mailbox:MailboxRouter.send", count=_n_messages),
    Target("dynamic", "repro.dynamic.dynamic_graph:DynamicGraph.apply"),
    Target("dynamic", "repro.dynamic.dynamic_graph:DynamicGraph.graph"),
    Target("dynamic", "repro.dynamic.dynamic_graph:DynamicGraph.compact"),
    Target("dynamic", "repro.dynamic.incremental:incremental_bfs"),
    Target("dynamic", "repro.dynamic.incremental:incremental_sssp"),
    Target("dynamic", "repro.dynamic.incremental:incremental_cc"),
    Target("service", "repro.service.server:QueryService.handle"),
    Target("service", "repro.service.admission:AdmissionController.acquire"),
    Target("service", "repro.service.cache:ResultCache.get_fresh", count=_cache_hit),
    Target("service", "repro.service.cache:ResultCache.invalidate_graph", count=_returned_count),
    Target("service", "repro.service.queries:execute_query"),
    Target("service", "repro.service.catalog:GraphCatalog.mutate"),
    Target("service", "repro.service.catalog:GraphCatalog.get"),
    Target("service", "repro.service.journal:QueryJournal.begin"),
    Target("service", "repro.service.journal:QueryJournal.end"),
    Target("service", "repro.service.protocol:encode"),
    Target("service", "repro.service.protocol:decode"),
    Target("observability", "repro.observability.ledger:RunLedger.append"),
)

#: Layers in report order.
LAYERS = (
    "graph", "frontier", "operators", "loop", "linalg", "execution",
    "comm", "dynamic", "service", "observability",
)


def _resolve(path: str):
    """The raw attribute behind ``module:attr`` or ``module:Class.attr``:
    a function, or a classmethod/staticmethod object for class-level
    factories."""
    module_name, _, qual = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    *outer, attr = qual.split(".")
    for part in outer:
        owner = getattr(owner, part)
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if raw is None:
        raise LookupError(f"traced entry point {path} does not exist")
    return raw


def _function_of(raw):
    return raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw


class Tracer:
    """In-memory span recorder plus the wrappers that feed it.

    Each record is ``[name, start, end, parent_id, qid, count]`` keyed by
    a span id; ``parent_id`` is the innermost wrapped call open on the
    same thread when the span started (``-1`` at the top).  Recording
    can be paused, so correctness checks that call the program do not
    land in the layer figures.
    """

    def __init__(self) -> None:
        self.spans: Dict[int, list] = {}
        self.active = False
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []
        self._originals: Dict[str, Any] = {}

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (checks that call the program)."""
        active, self.active = self.active, False
        try:
            yield
        finally:
            self.active = active

    # -- query ids ---------------------------------------------------------------------

    def set_qid(self, qid: Optional[str]) -> None:
        """Tag every span this thread opens from now on with ``qid``."""
        self._local.qid = qid

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- wrapping ----------------------------------------------------------------------

    def wrap(self, fn: Callable, target: Target) -> Callable:
        """A wrapper recording one span per call of ``fn``."""
        tracer = self
        name = target.name
        count, when = target.count, target.when
        is_handle = target.path.endswith("QueryService.handle")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active or (when is not None and not when(args, kwargs)):
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if is_handle and not stack:
                tracer.set_qid(f"r{next(tracer._ids)}")
            span_id = next(tracer._ids)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1,
                      getattr(tracer._local, "qid", None), 0.0]
            tracer.spans[span_id] = record
            stack.append(span_id)
            record[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = time.perf_counter()
                stack.pop()
            if count is not None:
                record[COUNT] = count(args, kwargs, result)
            return result

        wrapper.__wrapped_target__ = target  # type: ignore[attr-defined]
        return wrapper

    def install(self, targets: Sequence[Target] = TARGETS) -> None:
        """Wrap every target wherever a loaded ``repro`` module or class
        binds it, then start recording."""
        for target in targets:
            raw = _resolve(target.path)
            original = _function_of(raw)
            wrapped = self.wrap(original, target)
            self._originals[target.path] = original
            for holder, name, value in _bindings(original):
                self._patches.append((holder, name, value))
                if isinstance(value, (classmethod, staticmethod)):
                    setattr(holder, name, type(value)(wrapped))
                else:
                    setattr(holder, name, wrapped)
        self.active = True

    def uninstall(self) -> None:
        """Restore every original binding (idempotent)."""
        self.active = False
        for holder, name, value in reversed(self._patches):
            setattr(holder, name, value)
        self._patches.clear()

    def check_coverage(self) -> List[str]:
        """Names of entry points some loaded module still binds unwrapped
        (empty when every call site sees the wrapper)."""
        return [
            path
            for path, original in self._originals.items()
            if any(True for _ in _bindings(original))
        ]

    # -- reporting ---------------------------------------------------------------------

    def records(self) -> List[list]:
        """Finished span records ``[id, name, start, end, parent, qid, count]``."""
        return [[sid, *rec] for sid, rec in sorted(self.spans.items())]


def _bindings(original) -> Iterable[Tuple[Any, str, Any]]:
    """Every ``(holder, name, raw)`` in a loaded ``repro`` module or one of
    its classes whose value is ``original`` (or wraps it as a
    classmethod/staticmethod)."""
    seen = set()
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                yield module, name, value
            elif isinstance(value, type) and value.__module__.startswith("repro") and id(value) not in seen:
                seen.add(id(value))
                for cname, cvalue in list(value.__dict__.items()):
                    if cvalue is original or (
                        isinstance(cvalue, (classmethod, staticmethod))
                        and cvalue.__func__ is original
                    ):
                        yield value, cname, cvalue


def import_layers() -> None:
    """Import every module a target lives in, plus the algorithm and
    service modules that bind targets by name, so installation can find
    every binding before any call happens."""
    for target in TARGETS:
        importlib.import_module(target.path.partition(":")[0])
    for module in ("repro", "repro.algorithms", "repro.dynamic", "repro.service",
                   "repro.service.server", "repro.linalg.algorithms", "repro.cli"):
        importlib.import_module(module)


# -- self time and per-layer aggregation ----------------------------------------------


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(records: Sequence[Sequence]) -> Dict[int, float]:
    """Span id -> self time: its duration minus the part of it that its
    child spans cover.  ``records`` rows are ``[id, name, start, end,
    parent, ...]`` as :meth:`Tracer.records` returns them."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for row in records:
        children.setdefault(row[4], []).append((row[2], row[3]))
    return {
        row[0]: (row[3] - row[2]) - _covered(children.get(row[0], []), row[2], row[3])
        for row in records
    }


@dataclass
class NameStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    count: float = 0.0
    top_calls: int = 0  # calls not nested in a span of the same layer


@dataclass
class Summary:
    """Per-span-name totals of one traced run."""

    names: Dict[str, NameStats] = field(default_factory=dict)

    def layer_calls(self, layer: str) -> int:
        return sum(s.calls for n, s in self.names.items() if n.startswith(layer + ":"))

    def get(self, name: str) -> NameStats:
        return self.names.get(name, NameStats())


def summarize_spans(records: Sequence[Sequence]) -> Summary:
    """Fold span records into per-name calls, total, self time and counts."""
    selfs = self_times(records)
    by_id = {row[0]: row for row in records}
    out = Summary()
    for row in records:
        stats = out.names.setdefault(row[1], NameStats())
        stats.calls += 1
        stats.total_s += row[3] - row[2]
        stats.self_s += selfs[row[0]]
        stats.count += row[6] if len(row) > 6 else 0.0
        parent = by_id.get(row[4])
        layer = row[1].split(":", 1)[0]
        if parent is None or parent[1].split(":", 1)[0] != layer:
            stats.top_calls += 1
    return out
