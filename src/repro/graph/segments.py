"""Raw-array segment kernels shared by every gather-and-relax path.

The paper's advance step starts with one bulk query: the edge positions
of every vertex in a frontier, read off a compressed offsets array
(CSR row offsets for push, CSC column offsets for pull).
:func:`segment_edges` is that query, the only implementation of the
multi-range gather in the package — the fused kernels, the ``par_proc``
workers, incremental repair, the linalg kernels and the format classes'
bulk gathers all call it.  :func:`reach_mask` is the level-synchronous
visited-set sweep built on it (SCC's forward/backward reachability and
the dynamic CC deletion certificate).

Both take bare NumPy arrays and import nothing from the package, so the
graph format modules and the spawn-started ``par_proc`` workers can use
them without an import cycle.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np


def segment_edges(
    offsets: np.ndarray,
    ids: np.ndarray,
    arange: Optional[Callable[[int], np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Flat edge positions of every segment ``ids`` names.

    Returns ``(edge_ids, counts)``: ``edge_ids`` concatenates
    ``offsets[v] .. offsets[v + 1] - 1`` for each ``v`` in ``ids``, in
    order (duplicates repeat their segment), and ``counts[i]`` is the
    length of ``ids[i]``'s segment.  ``edge_ids`` has ``offsets``'
    dtype; it is empty when every segment is.

    ``arange`` optionally supplies the ``0..total-1`` ramp (a pooled
    one, e.g. :meth:`~repro.execution.workspace.Workspace.arange`), so
    the steady state allocates only the ``repeat`` output.  Written in
    method/``out=`` form (``.take``, ``.repeat``, in-place arithmetic
    into just-produced temporaries): on superstep-sized frontiers every
    avoided Python-level ufunc dispatch is a visible fraction of the
    kernel.
    """
    starts = offsets.take(ids)
    ends = offsets.take(ids + 1)
    counts = np.subtract(ends, starts, out=starts)  # starts dies here
    cum = counts.cumsum()
    total = int(cum[-1]) if counts.size else 0
    if total == 0:
        return np.empty(0, dtype=offsets.dtype), counts
    # Segment base of each edge slot: ends - cum == starts - (cum - counts).
    base = np.subtract(ends, cum, out=ends)  # ends dies here
    edge_ids = base.repeat(counts)
    ramp = (
        arange(total)
        if arange is not None
        else np.arange(total, dtype=edge_ids.dtype)
    )
    np.add(ramp, edge_ids, out=edge_ids)
    return edge_ids, counts


def reach_mask(
    offsets: np.ndarray,
    targets: np.ndarray,
    roots: np.ndarray,
    active: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Vertices reachable from ``roots`` over an offsets/targets pair.

    Level-synchronous visited-set sweep; with ``active`` the walk only
    enters (and the result only holds, roots aside) vertices whose flag
    is set.  Returns the boolean visited mask.

    Scatter-first: each level dumps every gathered neighbor into a fresh
    mask and subtracts ``seen`` afterwards, which beats filtering the
    gather (a second full-length gather) on the heavy middle levels of
    a scale-free component.
    """
    n = offsets.shape[0] - 1
    seen = np.zeros(n, dtype=bool)
    seen[roots] = True
    frontier = np.atleast_1d(roots)
    while frontier.size:
        edge_ids, _ = segment_edges(offsets, frontier)
        if edge_ids.size == 0:
            break
        mask = np.zeros(n, dtype=bool)
        mask[targets.take(edge_ids)] = True
        mask &= ~seen
        if active is not None:
            mask &= active
        seen |= mask
        frontier = np.nonzero(mask)[0]
    return seen
