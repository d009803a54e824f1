"""``service-mixed``: ``repro serve`` under an open-loop request mix.

The server runs in a subprocess with its default configuration (ledger
and journal on, observe off).  Its catalog holds ``road=grid:14``, which
is only read, and ``social=rmat:14``, which also takes mutations.
Requests arrive open loop, Poisson at 40 qps over two connections, and
each is timed from its due time, so a stall also charges the requests
queued behind it.  The mix is BFS, SSSP, PPR, PageRank and CC with
Zipf-skewed sources, so some work is shared and the result cache hits;
about 10% of requests are small ``mutate`` batches on ``social``, which
invalidate its cache entries and force snapshot and view rebuilds.  This
is the only workload that runs the ``service`` and ``observability``
layers.
"""

from __future__ import annotations

import copy
import json
import math
import os
import selectors
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.graph import generators as gen
from repro.service.client import ServiceClient
from repro.service.queries import execute_query

from perfbench import checks, stats
from perfbench.harness import OpResult, Outcome, process_peak_rss_mb

# The rate, the connection count, Zipf sources, the ~10% mutation share
# and the five query kinds are the workload's definition.  The figures
# marked "assumed" are not taken from any measured query mix; README.md
# ("Traffic assumptions") lists them with how much ``throughput_ops_s``
# moves when they change.
RATE_QPS = 40.0
CONNECTIONS = 2
MUTATE_SHARE = 0.10
MUTATE_EDGES = 2  # assumed: inserts and removes per mutate batch, each
#: Assumed: share of queries sent to ``social``, the mutated graph.
SOCIAL_SHARE = 0.6
ALGORITHMS = ("bfs", "sssp", "ppr", "pagerank", "cc")
ALGORITHM_WEIGHTS = (0.3, 0.25, 0.1, 0.1, 0.25)  # assumed
SOURCED = ("bfs", "sssp", "ppr")
ZIPF_S = 1.1  # assumed
ZIPF_SUPPORT = 2048  # assumed
#: ``sustained_qps`` is the highest offered rate whose tail latency
#: stays within this limit with no growing backlog.
LATENCY_LIMIT_MS = 250.0
#: Shares of ``--seconds``: the nominal rate, then the closed-loop
#: capacity phase.  The rate ladder runs after them and takes what it
#: takes: every rung sends :data:`LADDER_REQUESTS` requests, and the
#: ladder stops at the first rung that is not sustained.
MAIN_SHARE = 0.3
CAPACITY_SHARE = 0.7
#: The capacity phase sends on one connection.  Two connections back to
#: back keep the server and the client busy on both cores of a 2-core
#: host, so any other process on the host took its time straight out of
#: the figure (-20% beside one busy-looping process); one connection
#: leaves a core free and did not move beside it.
CAPACITY_CONNECTIONS = 1
LADDER_QPS = (80.0, 113.0, 160.0, 226.0)
LADDER_REQUESTS = 200
#: Ceiling on the pre-generated closed-loop requests, per second of the
#: capacity phase; the phase ends early if a server answers faster.
CAPACITY_MAX_QPS = 1000
#: A rung's backlog grows when its last quarter starts this much later
#: than its first quarter, on average.
BACKLOG_GROWTH_MS = 50.0
BANNER_TIMEOUT_S = 120.0


class Server:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, root: str, data_dir: str, specs: List[str], trace_out: Optional[str] = None) -> None:
        self.root, self.data_dir, self.specs, self.trace_out = root, data_dir, specs, trace_out
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> None:
        shutil.rmtree(self.data_dir, ignore_errors=True)
        os.makedirs(self.data_dir)
        cmd = [sys.executable, os.path.join(self.root, "perfbench", "serve_launcher.py")]
        if self.trace_out:
            cmd += ["--trace-out", self.trace_out]
        cmd += ["--", "serve", "--port", "0", "--data-dir", self.data_dir]
        for spec in self.specs:
            cmd += ["--graph", spec]
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        env.pop("REPRO_LEDGER", None)
        env.pop("REPRO_LEDGER_DIR", None)
        self._log = open(os.path.join(self.data_dir, "server.log"), "w")
        self.proc = subprocess.Popen(
            cmd, cwd=self.root, env=env, stdout=subprocess.PIPE, stderr=self._log, text=True
        )
        line = self._read_banner()
        # "serving ['road', 'social'] on 127.0.0.1:PORT (pid N, ...)"
        self.port = int(line.split(" on ", 1)[1].split()[0].rsplit(":", 1)[1])

    def _read_banner(self) -> str:
        sel = selectors.DefaultSelector()
        sel.register(self.proc.stdout, selectors.EVENT_READ)
        try:
            if not sel.select(timeout=BANNER_TIMEOUT_S):
                raise RuntimeError("repro serve printed no banner")
            line = self.proc.stdout.readline()
        finally:
            sel.close()
        if not line.startswith("serving "):
            raise RuntimeError(f"repro serve did not start: {line!r} (see {self._log.name})")
        return line

    def client(self) -> ServiceClient:
        return ServiceClient("127.0.0.1", self.port, timeout=60.0)

    def peak_rss_mb(self) -> Optional[float]:
        return process_peak_rss_mb(self.proc.pid) if self.proc else None

    def ledger_bytes(self) -> int:
        path = os.path.join(self.data_dir, "runs", "ledger.jsonl")
        return os.path.getsize(path) if os.path.exists(path) else 0

    def stop(self) -> None:
        """Ask for shutdown, wait; kill only if it does not exit."""
        if self.proc is None:
            return
        try:
            if self.proc.poll() is None:
                with self.client() as c:
                    c.shutdown()
            self.proc.wait(timeout=60)
        except Exception:  # noqa: BLE001 - never leave the server behind
            self.proc.kill()
            self.proc.wait(timeout=60)
        finally:
            self.proc.stdout.close()
            self._log.close()
            self.proc = None

    def remove_data(self) -> None:
        shutil.rmtree(self.data_dir, ignore_errors=True)


@dataclass
class Request:
    due: float  # seconds after the phase start
    kind: str  # an algorithm, or "mutate"
    body: Dict[str, Any]


@dataclass
class Sent:
    request: Request
    due: float
    sent: float
    done: float
    response: Optional[Dict[str, Any]]
    error: Optional[str]

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3

    @property
    def lateness_ms(self) -> float:
        return (self.sent - self.due) * 1e3


#: Seed of the request *shape*: arrival times, kinds, target graphs and
#: Zipf ranks.  It is the same for every ``--seed``, so every run offers
#: the same sequence of hits, misses and mutations and its figures
#: differ by the system's own variation and the seeded data: graphs,
#: the vertex behind each Zipf rank, and the mutated edges.
SHAPE_SEED = 20221


class Mix:
    """Request generator: Poisson arrivals, Zipf sources, and mutation
    batches that succeed in any order (removes draw from the original
    edges, inserts from pairs that were never edges)."""

    def __init__(self, seed: int, road, social) -> None:
        self.shape = np.random.default_rng(SHAPE_SEED)
        self.rng = np.random.default_rng([seed, 4])
        self.n_road, self.n_social = road.n_vertices, social.n_vertices
        self.road_sources = self.rng.permutation(road.n_vertices)
        self.social_sources = self.rng.permutation(checks.giant_scc(social))
        coo = social.coo()
        self.removable = [(int(u), int(v)) for u, v in zip(coo.rows, coo.cols)]
        order = self.rng.permutation(len(self.removable))
        self.removable = [self.removable[i] for i in order]
        self.taken = set(self.removable)
        self.warm_insert = self._fresh_pair()
        support = min(ZIPF_SUPPORT, len(self.social_sources), len(self.road_sources))
        weights = 1.0 / np.arange(1, support + 1) ** ZIPF_S
        self.zipf = weights / weights.sum()
        # Warm-up sources lie outside the Zipf support: warming the
        # server must not pre-answer queries of the measured mix.
        self.warm_sources = {
            "road": int(self.road_sources[-1]),
            "social": int(self.social_sources[-1]),
        }

    def _fresh_pair(self) -> Tuple[int, int]:
        while True:
            u, v = (int(x) for x in self.rng.integers(0, self.n_social, 2))
            if u != v and (u, v) not in self.taken:
                self.taken.add((u, v))
                return u, v

    def fresh(self) -> "Mix":
        """A copy in the state construction left it in, so each phase
        set starts the same request and edge streams."""
        other = copy.copy(self)
        other.shape = copy.deepcopy(self.shape)
        other.rng = copy.deepcopy(self.rng)
        other.removable = list(self.removable)
        other.taken = set(self.taken)
        return other

    def mutate_body(self, inserts, removes) -> Dict[str, Any]:
        return {
            "op": "mutate",
            "graph": "social",
            "insert": [[u, v, w] for u, v, w in inserts],
            "remove": [[u, v] for u, v in removes],
        }

    def requests(self, rate: float, count: int) -> List[Request]:
        shape = self.shape
        due = np.cumsum(shape.exponential(1.0 / rate, count)).tolist()
        mutate = (shape.random(count) < MUTATE_SHARE).tolist()
        social = (shape.random(count) < SOCIAL_SHARE).tolist()
        algos = shape.choice(len(ALGORITHMS), size=count, p=ALGORITHM_WEIGHTS).tolist()
        ranks = shape.choice(len(self.zipf), size=count, p=self.zipf).tolist()
        out = []
        for t, m, to_social, a, rank in zip(due, mutate, social, algos, ranks):
            if m:
                inserts = [(*self._fresh_pair(), round(float(self.rng.uniform(1, 10)), 3))
                           for _ in range(MUTATE_EDGES)]
                removes = [self.removable.pop() for _ in range(MUTATE_EDGES)]
                out.append(Request(t, "mutate", self.mutate_body(inserts, removes)))
                continue
            graph = "social" if to_social else "road"
            algo = ALGORITHMS[a]
            pool = self.social_sources if to_social else self.road_sources
            params = {"source": int(pool[rank])} if algo in SOURCED else {}
            body = {"op": "query", "graph": graph, "algorithm": algo, "params": params}
            out.append(Request(t, algo, body))
        return out

    def warm_up(self) -> List[Dict[str, Any]]:
        bodies = []
        for graph in ("road", "social"):
            for algo in ALGORITHMS:
                params = {"source": self.warm_sources[graph]} if algo in SOURCED else {}
                bodies.append({"op": "query", "graph": graph, "algorithm": algo, "params": params})
        u, v = self.warm_insert
        bodies.append(self.mutate_body([(u, v, 1.0)], []))
        return bodies


def drive(
    port: int,
    requests: List[Request],
    stop_after: Optional[float] = None,
    connections: int = CONNECTIONS,
) -> List[Sent]:
    """Send ``requests`` open loop over ``connections`` connections:
    each free connection takes the next request in due order and sends
    it at its due time (or at once, when already late).  With every due
    time 0 this is a closed loop; ``stop_after`` seconds then ends it."""
    results: List[Optional[Sent]] = [None] * len(requests)
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter() + 0.05

    def worker(client: ServiceClient) -> None:
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= len(requests) or (
                stop_after is not None and time.perf_counter() - start > stop_after
            ):
                return
            req = requests[i]
            due = start + req.due
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            try:
                response, error = client.request(dict(req.body)), None
            except Exception as exc:  # noqa: BLE001 - a failed request is data
                response, error = None, f"{type(exc).__name__}: {exc}"
            results[i] = Sent(req, due, sent, time.perf_counter(), response, error)

    clients = [ServiceClient("127.0.0.1", port, timeout=60.0) for _ in range(connections)]
    try:
        helpers = [threading.Thread(target=worker, args=(c,)) for c in clients[1:]]
        for t in helpers:
            t.start()
        worker(clients[0])
        for t in helpers:
            t.join()
    finally:
        for c in clients:
            c.close()
    return [r for r in results if r is not None]


def supported_tail(latencies: List[float]) -> Tuple[float, float]:
    """``(percentile, value)``: p99, or the highest percentile below it
    with at least ten samples beyond it when the sample is too small."""
    pct, value = stats.tail(latencies)
    if pct is None:
        raise ValueError(f"a rung of {len(latencies)} requests supports no tail")
    if pct >= 99.0:
        return 99.0, stats.quantile(latencies, 0.99)
    return pct, value


def rung_load(sent: List[Sent]) -> Tuple[float, float, float]:
    """``(load, tail percentile, tail ms)`` for one offered rate.
    ``load`` is the larger of the supported tail (see
    :func:`supported_tail`) over the latency limit and the backlog
    growth (how much later the last quarter starts than the first, on
    average) over :data:`BACKLOG_GROWTH_MS`; the rate is sustained while
    it is <= 1."""
    pct, tail_ms = supported_tail([s.latency_ms for s in sent])
    q = max(1, len(sent) // 4)
    growth = float(np.mean([s.lateness_ms for s in sent[-q:]]) - np.mean([s.lateness_ms for s in sent[:q]]))
    return max(tail_ms / LATENCY_LIMIT_MS, growth / BACKLOG_GROWTH_MS), pct, tail_ms


def sustained_rate(rungs: List[Tuple[float, float, float, float]]) -> Tuple[float, bool]:
    """``(rate, lower_bound)``: the highest sustained offered rate from
    ``(rate, load, tail pct, tail ms)`` rungs in increasing rate order,
    where log load crosses zero, interpolated in log rate between the
    last sustained and the first unsustained rung.  Below an unsustained
    first rung the rate is scaled by ``1 / load``.  With no unsustained
    rung it is the highest rate offered and ``lower_bound`` is true."""
    prev: Optional[Tuple[float, float]] = None
    for rate, load, _, _ in rungs:
        if load <= 1.0:
            prev = (rate, load)
            continue
        if prev is None:
            return rate / load, False
        lo_rate, lo_load = prev
        frac = math.log(1.0 / lo_load) / math.log(load / lo_load)
        return math.exp(math.log(lo_rate) + frac * math.log(rate / lo_rate)), False
    return rungs[-1][0], True


class ServiceMixed:
    """The workload: set-up starts and warms a server; a measured phase
    drives it (see the module docstring)."""

    def __init__(self, seed: int, tiny: bool = False, *, root: str, run_dir: str) -> None:
        self.seed, self.tiny, self.root, self.run_dir = seed, tiny, root, run_dir
        self.scale = 8 if tiny else 14
        self.specs = [
            f"road=grid:{self.scale}:seed={seed}",
            f"social=rmat:{self.scale}:seed={seed}",
        ]
        # The benchmark's own copies of the served graphs, and the
        # request generator built on them: made once, outside set-up.
        side = int(np.sqrt(1 << self.scale))
        self.road = gen.grid_2d(side, side, weighted=True, seed=seed)
        self.social = gen.rmat(self.scale, 8, weighted=True, seed=seed)
        self.mix = Mix(seed, self.road, self.social)
        self.server: Optional[Server] = None
        self._starts = 0

    def sizes(self) -> Dict[str, Any]:
        return {
            "road_vertices": self.road.n_vertices,
            "road_edges": self.road.n_edges,
            "social_vertices": self.social.n_vertices,
            "social_edges": self.social.n_edges,
        }

    def build(self, trace_out: Optional[str] = None) -> None:
        """Start a server and wait for its banner."""
        self._starts += 1
        data_dir = os.path.join(self.run_dir, f"serve-{os.getpid()}-{self._starts}")
        self.server = Server(self.root, data_dir, self.specs, trace_out)
        self.server.start()

    def choose_inputs(self) -> None:
        """The request generator is built once, in ``__init__``."""

    def warm_up(self) -> None:
        """One request of each query kind on each graph, and a mutation."""
        with self.server.client() as c:
            for body in self.mix.warm_up():
                reply = c.request(body)
                if reply.get("code") != 200:
                    raise RuntimeError(f"warm-up request {body} answered {reply}")

    def setup(self, trace_out: Optional[str] = None) -> None:
        self.build(trace_out)
        self.warm_up()

    def release(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server.remove_data()
            self.server = None

    close = release

    def _record(self, out: Outcome, sent: List[Sent], checksums: Dict, *, sample: bool = False) -> None:
        """Count and check replies; with ``sample``, also sample each
        request's latency from its due time (kind ``request``) and its
        kind's send-to-reply time."""
        for s in sent:
            code = s.response.get("code") if s.response else None
            error = None
            if code != 200:
                error = f"{s.request.kind} on {s.request.body['graph']}: " + (
                    s.error or f"code {code}: {s.response.get('error')}"
                )
            elif s.request.body["op"] == "query" and s.request.body["graph"] == "road":
                key = (s.request.kind, json.dumps(s.request.body["params"], sort_keys=True))
                checksums.setdefault(key, set()).add(s.response["result"]["checksum"])
            if not sample:
                out.attempted += 1
                if error is not None:
                    out.fail(error)
                continue
            # Cache hits, road answers and social answers are three modes
            # of one kind's time, so kinds are sampled apart; a kind on
            # social without suffix is a computed answer on the mutated
            # graph.
            kind = s.request.kind
            if s.request.body["graph"] == "road":
                kind += "_road"
            if s.response and s.response.get("server", {}).get("cached"):
                kind += "_hit"
            result = OpResult("request", s.latency_ms / 1e3, parts={kind: s.done - s.sent})
            out.record(result, error)
            out.info.setdefault("lateness_ms", []).append(s.lateness_ms)

    def _verify_road(self, out: Outcome, checksums: Dict) -> None:
        """Every road answer equals an in-process ``execute_query``."""
        for (algo, params), seen in sorted(checksums.items()):
            want = execute_query(self.road, algo, json.loads(params))["checksum"]
            for got in seen:
                if not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9):
                    out.fail(f"road {algo} {params}: checksum {got} != in-process {want}")

    def _main_count(self, seconds: float) -> int:
        return max(20, int(RATE_QPS * seconds))

    def measure(self, seconds: float) -> Outcome:
        out = Outcome()
        checksums: Dict = {}
        # Every request is generated before the first is sent.
        mix = self.mix.fresh()
        main = mix.requests(RATE_QPS, self._main_count(MAIN_SHARE * seconds))
        capacity_s = CAPACITY_SHARE * seconds
        closed = mix.requests(RATE_QPS, max(20, int(CAPACITY_MAX_QPS * capacity_s)))
        for r in closed:
            r.due = 0.0
        ladder = [(rate, mix.requests(rate, LADDER_REQUESTS)) for rate in LADDER_QPS]

        sent = drive(self.server.port, main)
        self._record(out, sent, checksums, sample=True)
        load, pct, tail_ms = rung_load(sent)
        rungs = [(RATE_QPS, load, pct, tail_ms)]
        # Closed loop: completed requests per second with one
        # connection sending back to back.
        sent = drive(self.server.port, closed, stop_after=capacity_s, connections=CAPACITY_CONNECTIONS)
        self._record(out, sent, checksums)
        out.extras["throughput_ops_s"] = len(sent) / (max(s.done for s in sent) - min(s.sent for s in sent))
        for rate, requests in ladder:
            if load > 1.0:
                break
            sent = drive(self.server.port, requests)
            self._record(out, sent, checksums)
            load, pct, tail_ms = rung_load(sent)
            rungs.append((rate, load, pct, tail_ms))
        out.extras["sustained_qps"], out.info["sustained_lower_bound"] = sustained_rate(rungs)
        out.info["rungs"] = rungs
        out.extras["peak_rss_mb"] = self.server.peak_rss_mb() or 0.0
        self._verify_road(out, checksums)
        return out

    def traced(self, seconds: float):
        """Untraced then traced server, one schedule each; returns
        ``(untraced, traced, span records, extras, missed bindings)``."""
        count = self._main_count(seconds / 2)
        untraced = Outcome()
        checksums: Dict = {}
        sent_a = drive(self.server.port, self.mix.fresh().requests(RATE_QPS, count))
        self._record(untraced, sent_a, checksums, sample=True)
        self.release()
        trace_file = os.path.join(self.run_dir, f"serve-spans-{os.getpid()}.json")
        self.setup(trace_out=trace_file)
        traced = Outcome()
        requests = self.mix.fresh().requests(RATE_QPS, count)
        load_start = time.perf_counter()
        sent_b = drive(self.server.port, requests)
        self._record(traced, sent_b, checksums, sample=True)
        ledger_bytes = self.server.ledger_bytes()
        self.release()
        with open(trace_file) as fh:
            dumped = json.load(fh)
        os.remove(trace_file)
        records = dumped["records"]
        appends = sum(1 for r in records if r[1] == "observability:RunLedger.append")
        extras = {
            "ledger_bytes_per_query": ledger_bytes / appends if appends else 0.0,
            "trace_overhead": sum(s.latency_ms for s in sent_b) / sum(s.latency_ms for s in sent_a),
        }
        self._verify_road(traced, checksums)
        measured = [r for r in records if r[2] >= load_start]
        return untraced, traced, measured, extras, dumped["missed"]
