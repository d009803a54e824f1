"""Human-readable report lines and the detail block of a result file."""

from __future__ import annotations

from typing import Dict, List, Tuple

from perfbench import stats
from perfbench.harness import E2E_UNITS, LAYER_UNITS, Outcome
from perfbench.tracer import LAYERS, Summary

#: The end-to-end metrics each workload reports under the names of the
#: benchmark's definition (README.md), including the ones that apply to
#: only some workloads and so are printed, not gated.
NAMED = {
    "grid-traverse": ("setup_s", "peak_rss_mb", "failed_ratio", "mteps",
                      "bfs_p50_ms", "sssp_p50_ms", "cc_p50_ms"),
    "rmat-analytics": ("setup_s", "peak_rss_mb", "failed_ratio", "mteps",
                       "bfs_p50_ms", "sssp_p50_ms", "cc_p50_ms",
                       "pagerank_p50_ms", "pagerank_linalg_p50_ms"),
    "dynamic-stream": ("setup_s", "peak_rss_mb", "failed_ratio",
                       "refresh_p50_ms", "refresh_tail_ms"),
    "service-mixed": ("setup_s", "peak_rss_mb", "failed_ratio",
                      "latency_p50_ms", "latency_p99_ms", "sustained_qps"),
}

NAMED_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MiB", "failed_ratio": "ratio", "mteps": "MTEPS",
    "bfs_p50_ms": "ms", "sssp_p50_ms": "ms", "cc_p50_ms": "ms",
    "pagerank_p50_ms": "ms", "pagerank_linalg_p50_ms": "ms",
    "refresh_p50_ms": "ms", "refresh_tail_ms": "ms",
    "latency_p50_ms": "ms", "latency_p99_ms": "ms", "sustained_qps": "1/s",
}


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def timing_line(label: str, values_ms: List[float]) -> Tuple[str, Dict]:
    """``label  n=..  p50=.. ms  pXX=.. ms``: the median and the highest
    percentile with at least ten samples beyond it."""
    s = stats.summarize(values_ms)
    tail = (f"p{s['tail_pct']:.1f}={_fmt(s['tail'])} ms" if s["tail"] is not None
            else "tail: fewer than 11 samples")
    return f"{label:<18} n={s['n']:<5} p50={_fmt(s['p50'])} ms  {tail}", s


def named_metrics(workload: str, out: Outcome, gated: Dict[str, float]) -> Dict[str, float]:
    """The definition's metric names for this workload."""
    samples = out.samples
    refresh = samples.get("refresh", [])
    main = out.ops_ms
    values = {
        "setup_s": gated["setup_s"],
        "peak_rss_mb": gated["peak_rss_mb"],
        "failed_ratio": out.failed / out.attempted if out.attempted else 1.0,
        "mteps": out.extras.get("mteps"),
        "bfs_p50_ms": stats.median(samples["bfs"]) if samples.get("bfs") else None,
        "sssp_p50_ms": stats.median(samples["sssp"]) if samples.get("sssp") else None,
        "cc_p50_ms": stats.median(samples["cc"]) if samples.get("cc") else None,
        "pagerank_p50_ms": stats.median(samples["pagerank"]) if samples.get("pagerank") else None,
        "pagerank_linalg_p50_ms": (stats.median(samples["pagerank_linalg"])
                                   if samples.get("pagerank_linalg") else None),
        "refresh_p50_ms": stats.median(refresh) if refresh else None,
        "refresh_tail_ms": stats.tail(refresh)[1] if refresh else None,
        "latency_p50_ms": stats.median(main) if main else None,
        "latency_p99_ms": stats.quantile(main, 0.99) if main else None,
        "sustained_qps": out.extras.get("sustained_qps"),
    }
    return {name: values[name] for name in NAMED[workload]}


def untraced_report(workload: str, out: Outcome, gated: Dict[str, float], setup_times) -> Tuple[List[str], Dict]:
    lines = ["timings (ms; median and the highest percentile with >= 10 samples beyond):"]
    detail: Dict = {"timings": {}, "setup_times_s": list(setup_times)}
    for kind in sorted(out.samples):
        line, s = timing_line(kind, out.samples[kind])
        lines.append("  " + line)
        detail["timings"][kind] = s
    line, s = timing_line("all operations", out.ops_ms)
    lines.append("  " + line)
    detail["timings"]["all"] = s
    if "lateness_ms" in out.info:
        line, s = timing_line("generator lateness", out.info["lateness_ms"])
        lines.append("  " + line)
        detail["timings"]["lateness"] = s
    if "rungs" in out.info:
        detail["rungs"] = out.info["rungs"]
        detail["sustained_lower_bound"] = out.info["sustained_lower_bound"]
        lines.append("rate ladder (offered qps: load, supported tail; sustained while load <= 1): "
                     + ", ".join(f"{r:g}: {load:.2f}, p{pct:.1f}={tail_ms:.0f} ms"
                                 for r, load, pct, tail_ms in out.info["rungs"]))
        if out.info["sustained_lower_bound"]:
            lines.append("note: every rung was sustained; sustained_qps is a lower bound")
    if "repair_over_recompute" in out.info:
        ratios = out.info["repair_over_recompute"]
        detail["repair_over_recompute"] = ratios
        lines.append("repair time over full recompute time: " + ", ".join(
            f"{k} {v:.2f}" for k, v in ratios.items()))
    named = named_metrics(workload, out, gated)
    detail["named"] = named
    if workload == "service-mixed" and stats.tail_rank(len(out.ops_ms)) is not None:
        beyond = len(out.ops_ms) - int(0.99 * len(out.ops_ms))
        if beyond < stats.TAIL_BEYOND:
            lines.append(f"note: latency_p99_ms rests on {beyond} samples beyond it; "
                         f"the request line shows the supported tail")
    lines.append("metrics of the definition (README.md):")
    lines += [f"  {k:<24} {_fmt(v)} {NAMED_UNITS[k]}" for k, v in named.items()]
    lines.append(f"  attempted={out.attempted} failed={out.failed}")
    lines.append("gated metrics (BENCHMARK.json):")
    lines += [f"  {k:<24} {_fmt(v)} {E2E_UNITS[k]}" for k, v in gated.items()]
    return lines, detail


def traced_report(workload: str, summary: Summary, metrics: Dict[str, float], n_spans: int) -> Tuple[List[str], Dict]:
    lines = [f"traced phase: {n_spans} spans; calls and self time per layer:"]
    for layer in LAYERS:
        names = {n: s for n, s in summary.names.items() if n.startswith(layer + ":")}
        calls = sum(s.calls for s in names.values())
        self_s = sum(s.self_s for s in names.values())
        lines.append(f"  {layer:<14} calls={calls:<8} self={self_s:.4f} s")
    lines.append("per-layer metrics:")
    lines += [f"  {k:<38} {_fmt(v)} {LAYER_UNITS[k]}" for k, v in metrics.items()]
    detail = {
        "spans": {
            n: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s, "count": s.count}
            for n, s in sorted(summary.names.items())
        }
    }
    return lines, detail
