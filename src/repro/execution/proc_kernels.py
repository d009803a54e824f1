"""Worker-side superstep kernels for the ``par_proc`` policy.

Each registered kernel is one partition's share of one bulk-synchronous
round, run against **raw arrays** (shared-memory views of the graph
plus a pre-round mirror of the algorithm state).  The advance rounds
run the shared relax/claim proposal kernels of
:mod:`repro.operators.relax` — the same functions the in-process fused
kernels and incremental repair call — and two rules make the
multiprocess rounds exactly reproduce the in-process ones without
cross-process races:

1. **Workers never mutate shared state.**  A concurrent
   ``np.minimum.at`` from several processes can permanently lose the
   smaller of two racing candidates (unlike the in-thread kernels,
   whose races are serialized by the GIL at ufunc granularity).  So a
   worker only *proposes*: it returns compact ``(destination,
   candidate)`` buffers in their native dtypes, pre-filtered against
   the pre-round mirror.
2. **The parent merges deterministically.**  Proposals route through
   the mailbox (float64 messages) with a min-combiner; folding the
   per-destination minimum and comparing it against the pre-round
   value yields exactly the improved set the single-pass kernel
   computes, in one place, with no ordering sensitivity.

Dropping a proposal whose candidate is not below the pre-round value
never changes the fold (the filter is monotone), which is what makes
the per-worker pre-filter safe bandwidth reduction rather than a
semantic choice.  :func:`pagerank_range` is the one kernel that writes
shared memory (disjoint row ranges).
"""

from __future__ import annotations

import numpy as np

from repro.operators.relax import (
    claim_pull,
    claim_push,
    min_relax_pull,
    min_relax_push,
)


def pagerank_range(
    col_offsets: np.ndarray,
    row_indices: np.ndarray,
    edge_weights: np.ndarray,
    ranks: np.ndarray,
    out_weight: np.ndarray,
    incoming: np.ndarray,
    lo: int,
    hi: int,
) -> int:
    """Incoming rank mass for the vertex range ``[lo, hi)`` (CSC slice).

    The one kernel that *writes* shared memory: ``incoming`` rows are
    partitioned contiguously across workers, so writes are disjoint and
    re-running the range after a worker crash is idempotent.  Returns
    the edge count processed (the round's work accounting).
    """
    e0 = int(col_offsets[lo])
    e1 = int(col_offsets[hi])
    if e1 == e0:
        incoming[lo:hi] = 0.0
        return 0
    srcs = row_indices[e0:e1]
    ow = out_weight.take(srcs)
    share = ranks.take(srcs) / np.maximum(ow, 1e-300)
    np.copyto(share, 0.0, where=ow == 0)
    contrib = edge_weights[e0:e1].astype(np.float64) * share
    cols = np.repeat(
        np.arange(lo, hi, dtype=np.int64) - lo,
        np.diff(col_offsets[lo : hi + 1]),
    )
    incoming[lo:hi] = np.bincount(cols, weights=contrib, minlength=hi - lo)
    return e1 - e0


#: Worker-side kernel registry (names cross the pipe, functions do not).
KERNELS = {
    "min_relax_push": min_relax_push,
    "min_relax_pull": min_relax_pull,
    "claim_push": claim_push,
    "claim_pull": claim_pull,
    "pagerank_range": pagerank_range,
}
