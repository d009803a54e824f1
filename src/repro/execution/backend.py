"""Backend dispatch — native-graph vs. linear-algebra execution.

The paper frames graph frameworks as either *native-graph* (frontiers,
advance/filter operators — Gunrock's model, everything this repo built
through PR 9) or *linear-algebra based* (masked matrix products over
semirings — GraphBLAST's model, :mod:`repro.linalg`).  This module is
the seam that lets one algorithm entry point serve both: callers pass
``backend="native" | "linalg" | "auto"`` and the entry point routes to
the frontier enactor or the semiring drivers.

Capability probing mirrors the policy layer's graceful degradation:
asking for ``linalg`` on an algorithm without a matrix formulation
falls back to native (with a ``backend:fallback`` probe event, so
traces show the substitution) rather than erroring — same contract as
``par_proc`` degrading to ``par_vector``.  The converse substitution is
reported the same way: a native-only option (``policy``,
``resilience``, ...) set on a call that routes to linalg emits a
``backend:ignored_option`` event instead of vanishing silently.
"""

from __future__ import annotations

from typing import Optional

from repro.execution.policy import resolve_policy
from repro.observability.probe import active_probe

#: Backend names accepted by algorithm entry points and the CLI.
BACKENDS = ("native", "linalg", "auto")

#: Algorithms with a linear-algebra formulation (a driver in
#: :mod:`repro.linalg.algorithms`).  Everything else is native-only.
LINALG_ALGORITHMS = frozenset(
    {"bfs", "sssp", "cc", "pagerank", "ppr", "hits", "spmv", "spgemm"}
)

#: What ``backend="auto"`` sends to linalg: the (+, ×) family.  The
#: traversals stay native, measured 1.3-5.4x faster than their linalg
#: drivers on grid and R-MAT inputs (docs/performance_notes.md).
AUTO_LINALG_ALGORITHMS = frozenset({"pagerank", "ppr", "hits", "spmv", "spgemm"})

#: Native-only entry-point options and their defaults; the linalg
#: drivers take none of them.
NATIVE_ONLY_OPTIONS = {
    "policy": "par_vector",
    "resilience": None,
    "output_representation": "sparse",
    "deduplicate_frontier": True,
    "method": "label_propagation",
}


def supports(backend: str, algorithm: str) -> bool:
    """Whether ``algorithm`` can execute on ``backend`` directly."""
    if backend in ("native", "auto"):
        return True
    return algorithm in LINALG_ALGORITHMS


def resolve_backend(
    backend: Optional[str], algorithm: str, **native_options
) -> str:
    """Pick the concrete backend for one algorithm invocation.

    ``None``/``"native"`` → native.  ``"linalg"`` → linalg when the
    algorithm has a matrix formulation, else native with a
    ``backend:fallback`` probe event.  ``"auto"`` → linalg for the
    (+, ×) family (:data:`AUTO_LINALG_ALGORITHMS`), silently native
    otherwise (auto *is* the probe).

    ``native_options`` are the caller's :data:`NATIVE_ONLY_OPTIONS`;
    routed to linalg, each non-default one emits a
    ``backend:ignored_option`` event and bumps
    ``backend.ignored_options``.  Only an unknown policy raises; a valid
    one does not, as the conformance sweep crosses linalg with every
    policy.
    """
    if backend is None or backend == "native":
        return "native"
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    routed = (
        AUTO_LINALG_ALGORITHMS if backend == "auto" else LINALG_ALGORITHMS
    )
    probe = active_probe()
    if algorithm in routed:
        if "policy" in native_options:
            # An unknown policy is an error on every backend.
            resolve_policy(native_options["policy"])
        if probe.enabled:
            for name, value in native_options.items():
                shown = getattr(value, "name", value)
                if shown != NATIVE_ONLY_OPTIONS[name]:
                    probe.event(
                        "backend:ignored_option",
                        algorithm=algorithm,
                        option=name,
                        value=str(shown),
                    )
                    probe.counter("backend.ignored_options")
        return "linalg"
    if backend == "linalg" and probe.enabled:
        probe.event(
            "backend:fallback",
            algorithm=algorithm,
            requested="linalg",
            used="native",
        )
        probe.counter("backend.fallbacks")
    return "native"
