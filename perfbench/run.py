"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with nothing wrapped; ``--trace 1`` is a separate run of the same
workload and seed that wraps each layer's public calls and reports the
per-layer metrics.  Every output is checked; a wrong one makes the run
exit 1.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller result
file with provenance goes to ``.bench_run/results/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_DIR = os.path.join(ROOT, ".bench_run")

#: The workload table.  Each entry says why the workload is in the set.
WORKLOADS = {
    # High diameter: ~515 supersteps per query with small frontiers, so
    # per-superstep cost in loop, frontier and small operator calls rules.
    "grid-traverse": "perfbench.analytics:GridTraverse",
    # Scale-free bulk regime at R-MAT scale 18: a few supersteps over ~4M
    # edges; large operator and linalg gathers rule.
    "rmat-analytics": "perfbench.analytics:RmatAnalytics",
    # Writes beside reads: the only workload that runs the dynamic layer
    # and rebuilds graph views per epoch.
    "dynamic-stream": "perfbench.stream:DynamicStream",
    # The only workload that runs service and observability: admission,
    # cache, breaker, journal, ledger, under open-loop load.
    "service-mixed": "perfbench.service_mixed:ServiceMixed",
}

#: A second seed for confirming a claim on inputs not used while the
#: change was written; recorded in every result file.
HELD_OUT_OFFSET = 1_000_003


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small inputs, for the smoke tests")
    return p


def _git_revision() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _provenance(args, sizes) -> dict:
    import numpy
    import scipy

    from perfbench.harness import cpu_count

    return {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": args.seed + HELD_OUT_OFFSET,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "cores": cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": _git_revision(),
        "sizes": sizes,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _make(name: str, seed: int, tiny: bool):
    import importlib

    module, _, cls = WORKLOADS[name].partition(":")
    klass = getattr(importlib.import_module(module), cls)
    if name == "service-mixed":
        return klass(seed, tiny, root=ROOT, run_dir=RUN_DIR)
    return klass(seed, tiny)


def untraced(args):
    from perfbench import harness, report

    w = _make(args.workload, args.seed, args.tiny)
    try:
        setup_times = harness.timed_setups(w)
        sizes = w.sizes()
        out = w.measure(args.seconds)
    finally:
        w.close()
    rss = out.extras.get("peak_rss_mb") or harness.peak_rss_mb()
    metrics = harness.end_to_end(out, setup_times, rss)
    lines, detail = report.untraced_report(args.workload, out, metrics, setup_times)
    return out.attempted, out.failed, out.failures, metrics, harness.E2E_UNITS, lines, detail, sizes


def traced(args):
    from perfbench import harness, report
    from perfbench.tracer import summarize_spans

    w = _make(args.workload, args.seed, args.tiny)
    try:
        w.setup()
        sizes = w.sizes()
        a, b, records, extras, missed = w.traced(args.seconds)
    finally:
        w.close()
    spans_path = os.path.join(RUN_DIR, "results", f"{args.workload}-seed{args.seed}-spans.json")
    with open(spans_path, "w") as fh:
        # One row per span: [id, name, start, end, parent id, query id, count].
        json.dump(records, fh)
    summary = summarize_spans(records)
    failures = [f"wrapper missed a binding of {path}" for path in missed]
    failures += harness.coverage_failures(args.workload, summary)
    metrics = harness.layer_metrics(summary, extras)
    attempted = a.attempted + b.attempted
    failed = a.failed + b.failed + len(failures)
    lines, detail = report.traced_report(args.workload, summary, metrics, len(records))
    return attempted, failed, a.failures + b.failures + failures, metrics, harness.LAYER_UNITS, lines, detail, sizes


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"benchmark: no program source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    for path in (ROOT, os.path.join(ROOT, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    os.makedirs(os.path.join(RUN_DIR, "results"), exist_ok=True)

    run = traced if args.trace else untraced
    attempted, failed, failures, metrics, units, lines, detail, sizes = run(args)
    correct = failed == 0

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    provenance = _provenance(args, sizes)
    path = os.path.join(RUN_DIR, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"provenance": provenance, "result": result, "detail": detail,
                   "failures": failures}, fh, indent=1, default=float)

    print(f"== {args.workload}  seed {args.seed} (held-out {provenance['held_out_seed']})  "
          f"trace {args.trace}  {provenance['cores']} cores  rev {provenance['git_revision'][:12]}")
    print("   sizes: " + ", ".join(f"{k}={v}" for k, v in sizes.items()))
    for line in lines:
        print("   " + line)
    for failure in failures:
        print(f"   FAILED: {failure}")
    print(f"   result file: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
