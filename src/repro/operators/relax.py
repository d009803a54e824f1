"""The relax/claim proposal kernels: the one gather-and-relax layer.

Every min-relax and BFS-claim superstep in the package is one of four
shapes (push or pull × min-relax or claim), computed here and nowhere
else.  A kernel gathers its segments with
:func:`~repro.graph.segments.segment_edges`, tests each edge against
the **pre-round** state, and returns proposal buffers in their native
dtypes without mutating anything: ``(dsts, cand)`` for edges whose
candidate beats ``values[dst]``, ``(claimed, srcs)`` for edges into an
unreached destination.

The callers fold the proposals: the fused kernels in place
(:mod:`repro.operators.fused`), the ``par_proc`` parent across workers
through the mailbox (:mod:`repro.execution.proc_engine`), and
incremental repair once per superstep (:mod:`repro.dynamic.incremental`).
Filtering before the fold is exact — a candidate that does not beat the
pre-round value cannot lower the folded minimum — so folding only the
survivors gives the same values and improved set as folding every edge.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.graph.segments import segment_edges

Proposals = Tuple[np.ndarray, np.ndarray]


def _gather(offsets, indices, ids, workspace):
    """Edge ids, per-id counts and far endpoints of ``ids``' segments."""
    if workspace is None:
        edge_ids, counts = segment_edges(offsets, ids)
        return edge_ids, counts, indices.take(edge_ids)
    edge_ids, counts = segment_edges(offsets, ids, workspace.arange)
    return edge_ids, counts, workspace.take("relax.ends", indices, edge_ids)


def _pull_live(col_offsets, row_indices, active, candidates, workspace):
    """Candidates' in-edges from the active set: ``(live, edge_ids,
    srcs, dsts)`` — the live mask over the gathered edges, their ids,
    and the live edges' endpoints — or ``None`` when none is live."""
    edge_ids, counts, srcs = _gather(
        col_offsets, row_indices, candidates, workspace
    )
    if not edge_ids.size:
        return None
    live = active.take(srcs)
    if not live.any():
        return None
    dsts = candidates.repeat(counts).compress(live)
    return live, edge_ids, srcs.compress(live), dsts


def min_relax_push(
    row_offsets: np.ndarray,
    column_indices: np.ndarray,
    edge_weights: np.ndarray,
    values: np.ndarray,
    vertices: np.ndarray,
    *,
    weighted: bool = True,
    edge_mask: Optional[np.ndarray] = None,
    workspace=None,
) -> Proposals:
    """Push min-relax (SSSP / CC / repair shape) over ``vertices``'
    out-edges.

    ``cand = values[src] (+ weight)``; ``edge_mask`` restricts the
    round to a fixed CSR edge subset (delta stepping's light/heavy
    split).  Returns ``(dsts, cand)`` of the edges whose candidate beats
    ``values[dst]``.
    """
    edge_ids, counts, dsts = _gather(
        row_offsets, column_indices, vertices, workspace
    )
    if not edge_ids.size:
        return column_indices[:0], values[:0]
    # Gather per-vertex then repeat: k reads + one repeat instead of a
    # length-E fancy gather through a repeated source array.
    cand = values.take(vertices).repeat(counts)
    if weighted:
        cand += edge_weights.take(edge_ids)
    if edge_mask is not None:
        live = edge_mask.take(edge_ids)
        dsts = dsts.compress(live)
        cand = cand.compress(live)
    keep = cand < values.take(dsts)
    return dsts.compress(keep), cand.compress(keep)


def min_relax_pull(
    col_offsets: np.ndarray,
    row_indices: np.ndarray,
    edge_weights: np.ndarray,
    values: np.ndarray,
    active: np.ndarray,
    candidates: np.ndarray,
    *,
    weighted: bool = True,
    workspace=None,
) -> Proposals:
    """Pull min-relax: ``candidates``' in-edges from sources flagged in
    ``active``, filtered like the push side."""
    gathered = _pull_live(
        col_offsets, row_indices, active, candidates, workspace
    )
    if gathered is None:
        return candidates[:0], values[:0]
    live, edge_ids, srcs, dsts = gathered
    cand = values.take(srcs)
    if weighted:
        cand += edge_weights.take(edge_ids.compress(live))
    keep = cand < values.take(dsts)
    return dsts.compress(keep), cand.compress(keep)


def claim_push(
    row_offsets: np.ndarray,
    column_indices: np.ndarray,
    levels: np.ndarray,
    vertices: np.ndarray,
    *,
    unreached: int = -1,
    workspace=None,
) -> Proposals:
    """Push BFS discovery: ``(claimed, srcs)`` for every out-edge of
    ``vertices`` into a destination unreached in the pre-round levels.

    A destination appears once per discovering edge; any of its sources
    is a valid BFS parent (the fused fold keeps the last write, the
    ``par_proc`` merge the minimum source).
    """
    edge_ids, counts, dsts = _gather(
        row_offsets, column_indices, vertices, workspace
    )
    if not edge_ids.size:
        return column_indices[:0], vertices[:0]
    fresh = levels.take(dsts) == unreached
    if not fresh.any():
        return column_indices[:0], vertices[:0]
    return dsts.compress(fresh), vertices.repeat(counts).compress(fresh)


def claim_pull(
    col_offsets: np.ndarray,
    row_indices: np.ndarray,
    levels: np.ndarray,
    active: np.ndarray,
    candidates: np.ndarray,
    *,
    unreached: int = -1,
    workspace=None,
) -> Proposals:
    """Pull BFS discovery: unreached ``candidates`` scan their in-edges
    for an active parent."""
    gathered = _pull_live(
        col_offsets, row_indices, active, candidates, workspace
    )
    if gathered is None:
        return candidates[:0], row_indices[:0]
    _, _, srcs, dsts = gathered
    fresh = levels.take(dsts) == unreached
    if not fresh.any():
        return candidates[:0], row_indices[:0]
    return dsts.compress(fresh), srcs.compress(fresh)
