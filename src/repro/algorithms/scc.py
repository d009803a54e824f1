"""Strongly connected components — parallel FW-BW-Trim.

The Fleischer–Hendrickson–Pinar algorithm, the standard parallel SCC
(weak connectivity's directed sibling): repeatedly

1. **Trim** trivial SCCs (vertices with zero in- or out-degree inside
   the remaining subgraph) — a filter fixed point;
2. pick a pivot and compute its **forward** reachable set (BFS on the
   CSR) and **backward** reachable set (BFS on the CSC) within the
   remaining vertices;
3. their intersection is one SCC; the three disjoint remainders
   (forward-only, backward-only, unreached) contain no SCC spanning
   them, so each recurses independently.

Both reachability sweeps are :func:`~repro.graph.segments.reach_mask`
over the CSR (forward) or CSC (backward), restricted to the remaining
vertices; the recursion is managed with an explicit worklist.
Validated against Tarjan (:func:`tarjan_scc`) and networkx.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.graph.graph import Graph
from repro.graph.segments import reach_mask
from repro.utils.counters import IterationStats, RunStats


@dataclass
class SCCResult:
    """Component labels (smallest member id per SCC) and counts."""

    labels: np.ndarray
    n_components: int
    stats: RunStats = field(default_factory=RunStats)

    def component_sizes(self) -> np.ndarray:
        """Size of each SCC, over compacted component ids."""
        _, counts = np.unique(self.labels, return_counts=True)
        return counts


def strongly_connected_components(graph: Graph) -> SCCResult:
    """FW-BW-Trim SCC labeling of a directed graph."""
    n = graph.n_vertices
    csr = graph.csr()
    csc = graph.csc()
    fwd_offsets = csr.row_offsets.astype(np.int64)
    fwd_targets = csr.column_indices.astype(np.int64)
    bwd_offsets = csc.col_offsets.astype(np.int64)
    bwd_targets = csc.row_indices.astype(np.int64)

    labels = np.full(n, -1, dtype=np.int64)
    stats = RunStats()
    import time as _time

    worklist: List[np.ndarray] = []
    if n:
        worklist.append(np.arange(n, dtype=np.int64))
    iteration = 0
    while worklist:
        vertices = worklist.pop()
        if vertices.size == 0:
            continue
        t0 = _time.perf_counter()
        active = np.zeros(n, dtype=bool)
        active[vertices] = True

        # Trim: peel vertices with no in- or out-neighbor inside the
        # active set — each is a singleton SCC.
        while True:
            verts = np.nonzero(active)[0]
            if verts.size == 0:
                break
            has_out = np.zeros(n, dtype=bool)
            has_in = np.zeros(n, dtype=bool)
            for v in verts:
                v = int(v)
                outs = fwd_targets[fwd_offsets[v] : fwd_offsets[v + 1]]
                if np.any(active[outs] & (outs != v)):
                    has_out[v] = True
                ins = bwd_targets[bwd_offsets[v] : bwd_offsets[v + 1]]
                if np.any(active[ins] & (ins != v)):
                    has_in[v] = True
            trivial = verts[~(has_out[verts] & has_in[verts])]
            if trivial.size == 0:
                break
            labels[trivial] = trivial  # singleton SCCs
            active[trivial] = False
        remaining = np.nonzero(active)[0]
        if remaining.size == 0:
            stats.record(
                IterationStats(iteration, int(vertices.size), 0,
                               _time.perf_counter() - t0)
            )
            iteration += 1
            continue

        pivot = int(remaining[0])
        fwd = reach_mask(fwd_offsets, fwd_targets, pivot, active)
        bwd = reach_mask(bwd_offsets, bwd_targets, pivot, active)
        scc_mask = fwd & bwd & active
        members = np.nonzero(scc_mask)[0]
        labels[members] = int(members.min())

        for sub_mask in (
            fwd & ~scc_mask & active,
            bwd & ~scc_mask & active,
            active & ~fwd & ~bwd,
        ):
            sub = np.nonzero(sub_mask)[0]
            if sub.size:
                worklist.append(sub.astype(np.int64))
        stats.record(
            IterationStats(
                iteration,
                int(vertices.size),
                0,
                _time.perf_counter() - t0,
            )
        )
        iteration += 1
    stats.converged = True
    n_components = int(np.unique(labels).shape[0]) if n else 0
    return SCCResult(labels=labels, n_components=n_components, stats=stats)


def tarjan_scc(graph: Graph) -> np.ndarray:
    """Iterative Tarjan SCC — the sequential textbook oracle.

    Returns labels canonicalized to the smallest member id, directly
    comparable to :func:`strongly_connected_components`.
    """
    n = graph.n_vertices
    csr = graph.csr()
    index = np.full(n, -1, dtype=np.int64)
    lowlink = np.zeros(n, dtype=np.int64)
    on_stack = np.zeros(n, dtype=bool)
    comp = np.full(n, -1, dtype=np.int64)
    stack: List[int] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        # Iterative DFS: (vertex, next-edge-position) frames.
        frames = [(root, int(csr.row_offsets[root]))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while frames:
            v, pos = frames[-1]
            if pos < int(csr.row_offsets[v + 1]):
                frames[-1] = (v, pos + 1)
                w = int(csr.column_indices[pos])
                if index[w] == -1:
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    frames.append((w, int(csr.row_offsets[w])))
                elif on_stack[w]:
                    lowlink[v] = min(lowlink[v], index[w])
            else:
                frames.pop()
                if frames:
                    parent = frames[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[v])
                if lowlink[v] == index[v]:
                    members = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        members.append(w)
                        if w == v:
                            break
                    label = min(members)
                    for w in members:
                        comp[w] = label
    return comp
