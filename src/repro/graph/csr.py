"""Compressed-sparse-row graph representation (Listing 1).

CSR is the canonical *push*-traversal layout: the out-neighborhood of a
vertex is the contiguous slice
``column_indices[row_offsets[v] : row_offsets[v + 1]]``.  Every scalar
query from the paper's native-graph API is provided, plus the vectorized
bulk queries the data-parallel operators are built on
(:meth:`CSRMatrix.expand_vertices` is the heart of neighbor-expand).
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.segments import segment_edges
from repro.types import (
    EDGE_DTYPE,
    VERTEX_DTYPE,
    WEIGHT_DTYPE,
    as_vertex_array,
)


class CSRMatrix:
    """A graph stored as a compressed-sparse-row matrix.

    Parameters
    ----------
    n_rows, n_cols:
        Matrix shape; for a graph both equal the vertex count.
    row_offsets:
        ``int64`` array of length ``n_rows + 1``; monotonically
        non-decreasing, ``row_offsets[0] == 0`` and
        ``row_offsets[-1] == n_edges``.
    column_indices:
        ``int32`` array of destination vertices, length ``n_edges``.
    values:
        ``float32`` edge weights, length ``n_edges``.
    """

    __slots__ = ("n_rows", "n_cols", "row_offsets", "column_indices", "values")

    def __init__(
        self,
        n_rows: int,
        n_cols: int,
        row_offsets: np.ndarray,
        column_indices: np.ndarray,
        values: np.ndarray,
    ) -> None:
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.row_offsets = np.ascontiguousarray(row_offsets, dtype=EDGE_DTYPE)
        self.column_indices = np.ascontiguousarray(column_indices, dtype=VERTEX_DTYPE)
        self.values = np.ascontiguousarray(values, dtype=WEIGHT_DTYPE)
        if self.row_offsets.shape != (self.n_rows + 1,):
            raise GraphFormatError(
                f"row_offsets must have length n_rows + 1 = {self.n_rows + 1}, "
                f"got {self.row_offsets.shape[0]}"
            )
        n_edges = int(self.row_offsets[-1]) if self.n_rows >= 0 else 0
        if self.column_indices.shape[0] != n_edges:
            raise GraphFormatError(
                f"column_indices length {self.column_indices.shape[0]} does not "
                f"match row_offsets[-1] = {n_edges}"
            )
        if self.values.shape[0] != n_edges:
            raise GraphFormatError(
                f"values length {self.values.shape[0]} does not match edge "
                f"count {n_edges}"
            )

    # -- scalar native-graph API (Listing 1) ---------------------------------

    def get_num_vertices(self) -> int:
        """Number of vertices (rows)."""
        return self.n_rows

    def get_num_edges(self) -> int:
        """Number of directed edges (stored nonzeros)."""
        return int(self.row_offsets[-1])

    def get_edges(self, v: int) -> range:
        """Edge ids incident to (out of) vertex ``v`` as a ``range``."""
        return range(int(self.row_offsets[v]), int(self.row_offsets[v + 1]))

    def get_dest_vertex(self, e: int) -> int:
        """Destination vertex of edge ``e``."""
        return int(self.column_indices[e])

    def get_edge_weight(self, e: int) -> float:
        """Weight of edge ``e``."""
        return float(self.values[e])

    def get_num_neighbors(self, v: int) -> int:
        """Out-degree of vertex ``v``."""
        return int(self.row_offsets[v + 1] - self.row_offsets[v])

    def get_neighbors(self, v: int) -> np.ndarray:
        """View of the out-neighbor ids of vertex ``v`` (no copy)."""
        return self.column_indices[self.row_offsets[v] : self.row_offsets[v + 1]]

    def get_neighbor_weights(self, v: int) -> np.ndarray:
        """View of the out-edge weights of vertex ``v`` (no copy)."""
        return self.values[self.row_offsets[v] : self.row_offsets[v + 1]]

    def iter_edges(self) -> Iterator[Tuple[int, int, int, float]]:
        """Yield ``(src, dst, edge_id, weight)`` for every stored edge."""
        for v in range(self.n_rows):
            for e in self.get_edges(v):
                yield v, int(self.column_indices[e]), e, float(self.values[e])

    # -- bulk (vectorized) queries ---------------------------------------------

    def degrees(self) -> np.ndarray:
        """Out-degree of every vertex as an ``int64`` array."""
        return np.diff(self.row_offsets)

    def degrees_of(self, vertices: np.ndarray) -> np.ndarray:
        """Out-degrees of the given vertices."""
        vertices = as_vertex_array(vertices)
        return self.row_offsets[vertices + 1] - self.row_offsets[vertices]

    def source_of_edges(self, edge_ids: np.ndarray) -> np.ndarray:
        """Source vertex of each edge id (inverse of the offsets array).

        Computed with a binary search over ``row_offsets``; used to recover
        ``src`` for edge-centric frontiers.
        """
        edge_ids = np.asarray(edge_ids, dtype=EDGE_DTYPE)
        return (
            np.searchsorted(self.row_offsets, edge_ids, side="right") - 1
        ).astype(VERTEX_DTYPE)

    def expand_vertices(
        self, vertices: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Gather every out-edge of every vertex in ``vertices``.

        This is the bulk form of the neighbor-expand loop body in
        Listing 3: for the concatenated neighborhoods it returns the tuple
        of arrays ``(sources, destinations, edge_ids, weights)``, with
        sources repeated per neighbor.  All four arrays have length equal
        to the total degree of ``vertices``.
        """
        vertices = as_vertex_array(vertices)
        edge_ids, counts = segment_edges(self.row_offsets, vertices)
        sources = np.repeat(vertices, counts)
        return sources, self.column_indices[edge_ids], edge_ids, self.values[edge_ids]

    def neighbor_segments(
        self, vertices: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(starts, counts)`` of the CSR slices for ``vertices``."""
        vertices = as_vertex_array(vertices)
        starts = self.row_offsets[vertices]
        counts = self.row_offsets[vertices + 1] - starts
        return starts, counts

    def has_edge(self, u: int, v: int, *, assume_sorted: bool = False) -> bool:
        """Whether the directed edge ``(u, v)`` is stored.

        With ``assume_sorted`` the neighbor slice is binary-searched
        (O(log d)); otherwise scanned linearly.
        """
        nbrs = self.get_neighbors(u)
        if assume_sorted:
            i = int(np.searchsorted(nbrs, v))
            return i < nbrs.shape[0] and int(nbrs[i]) == v
        return bool(np.any(nbrs == v))

    def sort_neighbors(self) -> "CSRMatrix":
        """Return a copy whose per-vertex neighbor lists are sorted by id.

        Weights are permuted consistently.  Required before segmented
        intersection (triangle counting) and binary-searched queries.
        """
        cols = self.column_indices.copy()
        vals = self.values.copy()
        for v in range(self.n_rows):
            s, e = int(self.row_offsets[v]), int(self.row_offsets[v + 1])
            if e - s > 1:
                order = np.argsort(cols[s:e], kind="stable")
                cols[s:e] = cols[s:e][order]
                vals[s:e] = vals[s:e][order]
        return CSRMatrix(self.n_rows, self.n_cols, self.row_offsets.copy(), cols, vals)

    # -- conversions ------------------------------------------------------------

    def to_scipy(self):
        """Convert to :class:`scipy.sparse.csr_matrix` (weights as data)."""
        import scipy.sparse as sp

        return sp.csr_matrix(
            (self.values, self.column_indices, self.row_offsets),
            shape=(self.n_rows, self.n_cols),
        )

    def copy(self) -> "CSRMatrix":
        """Deep copy (independent arrays)."""
        return CSRMatrix(
            self.n_rows,
            self.n_cols,
            self.row_offsets.copy(),
            self.column_indices.copy(),
            self.values.copy(),
        )

    def __repr__(self) -> str:
        return (
            f"CSRMatrix(n_rows={self.n_rows}, n_cols={self.n_cols}, "
            f"n_edges={self.get_num_edges()})"
        )
