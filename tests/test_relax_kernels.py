"""The gather-and-relax kernel layer against naive per-edge loops.

:func:`~repro.graph.segments.segment_edges` is the package's only
multi-range gather and the four proposal kernels of
:mod:`repro.operators.relax` are its only relax/claim code (the fused
kernels, the ``par_proc`` workers and incremental repair all call
them), so each is held here to the plain Python loop it replaces:
exact proposals, in order, in their native dtypes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execution.workspace import Workspace
from repro.graph.generators import rmat
from repro.graph.segments import reach_mask, segment_edges
from repro.operators import relax


@settings(max_examples=200, deadline=None)
@given(
    degrees=st.lists(st.integers(0, 4), min_size=1, max_size=24),
    data=st.data(),
    offset_dtype=st.sampled_from([np.int32, np.int64]),
    id_dtype=st.sampled_from([np.int32, np.int64]),
    pooled=st.booleans(),
)
def test_segment_edges_matches_naive_concatenation(
    degrees, data, offset_dtype, id_dtype, pooled
):
    offsets = np.concatenate([[0], np.cumsum(degrees)]).astype(offset_dtype)
    n = len(degrees)
    # Zero-degree vertices come from the degree list; duplicate and
    # empty id lists from the draw.
    ids = np.asarray(
        data.draw(st.lists(st.integers(0, n - 1), max_size=40)), dtype=id_dtype
    )
    arange = Workspace().arange if pooled else None

    edge_ids, counts = segment_edges(offsets, ids, arange)

    expected = [
        e for v in ids.tolist() for e in range(offsets[v], offsets[v + 1])
    ]
    assert edge_ids.tolist() == expected
    assert counts.tolist() == [degrees[v] for v in ids.tolist()]
    assert edge_ids.dtype == offsets.dtype


@settings(max_examples=100, deadline=None)
@given(
    degrees=st.lists(st.integers(0, 3), min_size=1, max_size=16),
    data=st.data(),
)
def test_reach_mask_matches_naive_bfs(degrees, data):
    n = len(degrees)
    offsets = np.concatenate([[0], np.cumsum(degrees)]).astype(np.int64)
    targets = np.asarray(
        data.draw(
            st.lists(
                st.integers(0, n - 1),
                min_size=int(offsets[-1]),
                max_size=int(offsets[-1]),
            )
        ),
        dtype=np.int32,
    )
    roots = np.asarray(
        data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)),
        dtype=np.int64,
    )
    active = np.asarray(
        data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    )

    seen = set(roots.tolist())
    stack = list(seen)
    while stack:
        u = stack.pop()
        for v in targets[offsets[u] : offsets[u + 1]].tolist():
            if active[v] and v not in seen:
                seen.add(v)
                stack.append(v)
    expected = np.zeros(n, dtype=bool)
    expected[list(seen)] = True

    np.testing.assert_array_equal(
        reach_mask(offsets, targets, roots, active), expected
    )


# -- the four relax/claim kernels ------------------------------------------------


@pytest.fixture(scope="module")
def graph():
    return rmat(9, 8, weighted=True, seed=7)


def _state(n, *, weighted):
    """Pre-round state: float32 distances (weighted) or int64 labels."""
    rng = np.random.default_rng(0)
    if weighted:
        values = np.full(n, np.float32(np.finfo(np.float32).max))
        values[rng.choice(n, size=n // 2, replace=False)] = rng.random(
            n // 2, dtype=np.float32
        )
        return values
    return rng.permutation(n).astype(np.int64)


def _levels(n):
    levels = np.full(n, -1, dtype=np.int64)
    levels[np.random.default_rng(1).choice(n, size=n // 3, replace=False)] = 2
    return levels


CASES = [
    ("min_relax", "push", True, False),
    ("min_relax", "push", False, False),
    ("min_relax", "push", True, True),
    ("min_relax", "pull", True, False),
    ("min_relax", "pull", False, False),
    ("claim", "push", False, False),
    ("claim", "pull", False, False),
]


@pytest.mark.parametrize(
    "shape, direction, weighted, masked",
    CASES,
    ids=[
        f"{s}-{d}" + ("-weighted" if w else "") + ("-edge_mask" if m else "")
        for s, d, w, m in CASES
    ],
)
def test_relax_claim_kernels_match_naive_loop(
    graph, shape, direction, weighted, masked
):
    n = graph.n_vertices
    rng = np.random.default_rng(2)
    if direction == "push":
        view = graph.csr()
        offsets, indices = view.row_offsets, view.column_indices
        # A duplicate frontier entry proposes its edges twice.
        ids = np.sort(rng.choice(n, size=40, replace=False)).astype(np.int32)
        ids = np.concatenate([ids, ids[:1]])
        active = None
    else:
        view = graph.csc()
        offsets, indices = view.col_offsets, view.row_indices
        ids = np.arange(n, dtype=np.int32)
        active = rng.random(n) < 0.2
    weights = view.values
    edge_mask = rng.random(weights.shape[0]) < 0.5 if masked else None

    # Every (owner, far endpoint, edge id) the naive loop visits, in
    # segment order; push reads src -> dst, pull dst <- src.
    edges = []
    for v in ids.tolist():
        for e in range(offsets[v], offsets[v + 1]):
            u = int(indices[e])
            if direction == "push":
                if edge_mask is None or edge_mask[e]:
                    edges.append((v, u, e))
            elif active[u]:
                edges.append((u, v, e))

    if shape == "min_relax":
        values = _state(n, weighted=weighted)
        before = values.copy()
        expected = []
        for src, dst, e in edges:
            cand = values[src] + weights[e] if weighted else values[src]
            if cand < values[dst]:
                expected.append((dst, cand))
        if direction == "push":
            got = relax.min_relax_push(
                offsets, indices, weights, values, ids,
                weighted=weighted, edge_mask=edge_mask,
            )
        else:
            got = relax.min_relax_pull(
                offsets, indices, weights, values, active, ids,
                weighted=weighted,
            )
        assert got[1].dtype == values.dtype
    else:
        levels = _levels(n)
        before = levels.copy()
        expected = [(dst, src) for src, dst, _ in edges if levels[dst] == -1]
        if direction == "push":
            got = relax.claim_push(offsets, indices, levels, ids)
        else:
            got = relax.claim_pull(offsets, indices, levels, active, ids)
        values = levels
    dsts, proposed = got
    assert dsts.dtype == indices.dtype
    assert expected, "the case must exercise at least one proposal"
    np.testing.assert_array_equal(dsts, [d for d, _ in expected])
    np.testing.assert_array_equal(
        proposed, np.asarray([p for _, p in expected], dtype=proposed.dtype)
    )
    # Proposing never mutates the pre-round state.
    np.testing.assert_array_equal(values, before)


def test_kernels_pooled_workspace_gives_same_proposals(graph):
    csr = graph.csr()
    values = _state(graph.n_vertices, weighted=True)
    ids = np.arange(0, graph.n_vertices, 3, dtype=np.int32)
    plain = relax.min_relax_push(
        csr.row_offsets, csr.column_indices, csr.values, values, ids
    )
    ws = Workspace()
    for _ in range(2):  # second call reuses the pooled buffers
        pooled = relax.min_relax_push(
            csr.row_offsets, csr.column_indices, csr.values, values, ids,
            workspace=ws,
        )
        for a, b in zip(plain, pooled):
            np.testing.assert_array_equal(a, b)
