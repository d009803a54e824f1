"""Compressed-sparse-column graph representation.

CSC is the *pull*-traversal layout (§III-C): the in-neighborhood of a
vertex is contiguous, so a pull advance iterates each destination's
incoming edges.  Structurally it is the CSR of the transposed graph; we
keep it a distinct type so operator overloads can dispatch on traversal
direction, exactly as the paper stores "the original representation ...
for push traversals and the transposed representation for pull".
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.segments import segment_edges
from repro.types import EDGE_DTYPE, VERTEX_DTYPE, WEIGHT_DTYPE, as_vertex_array


class CSCMatrix:
    """A graph stored as a compressed-sparse-column matrix.

    ``col_offsets`` has length ``n_cols + 1``; ``row_indices[k]`` is the
    *source* vertex of the k-th stored edge when edges are grouped by
    destination.
    """

    __slots__ = ("n_rows", "n_cols", "col_offsets", "row_indices", "values")

    def __init__(
        self,
        n_rows: int,
        n_cols: int,
        col_offsets: np.ndarray,
        row_indices: np.ndarray,
        values: np.ndarray,
    ) -> None:
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.col_offsets = np.ascontiguousarray(col_offsets, dtype=EDGE_DTYPE)
        self.row_indices = np.ascontiguousarray(row_indices, dtype=VERTEX_DTYPE)
        self.values = np.ascontiguousarray(values, dtype=WEIGHT_DTYPE)
        if self.col_offsets.shape != (self.n_cols + 1,):
            raise GraphFormatError(
                f"col_offsets must have length n_cols + 1 = {self.n_cols + 1}, "
                f"got {self.col_offsets.shape[0]}"
            )
        n_edges = int(self.col_offsets[-1])
        if self.row_indices.shape[0] != n_edges:
            raise GraphFormatError(
                f"row_indices length {self.row_indices.shape[0]} does not match "
                f"col_offsets[-1] = {n_edges}"
            )
        if self.values.shape[0] != n_edges:
            raise GraphFormatError(
                f"values length {self.values.shape[0]} does not match edge "
                f"count {n_edges}"
            )

    # -- scalar native-graph API (pull orientation) ----------------------------

    def get_num_vertices(self) -> int:
        """Number of vertices (columns)."""
        return self.n_cols

    def get_num_edges(self) -> int:
        """Number of stored edges."""
        return int(self.col_offsets[-1])

    def get_in_edges(self, v: int) -> range:
        """Edge ids *into* vertex ``v`` (positions in CSC order)."""
        return range(int(self.col_offsets[v]), int(self.col_offsets[v + 1]))

    def get_source_vertex(self, e: int) -> int:
        """Source vertex of CSC-ordered edge ``e``."""
        return int(self.row_indices[e])

    def get_edge_weight(self, e: int) -> float:
        """Weight of CSC-ordered edge ``e``."""
        return float(self.values[e])

    def get_num_in_neighbors(self, v: int) -> int:
        """In-degree of vertex ``v``."""
        return int(self.col_offsets[v + 1] - self.col_offsets[v])

    def get_in_neighbors(self, v: int) -> np.ndarray:
        """View of the in-neighbor (source) ids of vertex ``v``."""
        return self.row_indices[self.col_offsets[v] : self.col_offsets[v + 1]]

    def get_in_neighbor_weights(self, v: int) -> np.ndarray:
        """View of the in-edge weights of vertex ``v`` (no copy)."""
        return self.values[self.col_offsets[v] : self.col_offsets[v + 1]]

    # -- bulk queries ------------------------------------------------------------

    def in_degrees(self) -> np.ndarray:
        """In-degree of every vertex."""
        return np.diff(self.col_offsets)

    def gather_in_edges(
        self, vertices: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Bulk pull gather: every in-edge of every vertex in ``vertices``.

        Returns ``(sources, destinations, csc_edge_ids, weights)`` where
        destinations are the input vertices repeated per in-neighbor —
        the mirror image of :meth:`CSRMatrix.expand_vertices`.
        """
        vertices = as_vertex_array(vertices)
        edge_ids, counts = segment_edges(self.col_offsets, vertices)
        destinations = np.repeat(vertices, counts)
        return self.row_indices[edge_ids], destinations, edge_ids, self.values[edge_ids]

    def to_scipy(self):
        """Convert to :class:`scipy.sparse.csc_matrix`."""
        import scipy.sparse as sp

        return sp.csc_matrix(
            (self.values, self.row_indices, self.col_offsets),
            shape=(self.n_rows, self.n_cols),
        )

    def copy(self) -> "CSCMatrix":
        """Deep copy (independent arrays)."""
        return CSCMatrix(
            self.n_rows,
            self.n_cols,
            self.col_offsets.copy(),
            self.row_indices.copy(),
            self.values.copy(),
        )

    def __repr__(self) -> str:
        return (
            f"CSCMatrix(n_rows={self.n_rows}, n_cols={self.n_cols}, "
            f"n_edges={self.get_num_edges()})"
        )
