"""Self-time arithmetic, the tail rule, and wrapper installation."""

import numpy as np
import pytest

from perfbench import stats
from perfbench.tracer import TARGETS, Tracer, import_layers, self_times, summarize_spans


def row(span_id, name, start, end, parent=-1, count=0.0):
    return [span_id, name, start, end, parent, None, count]


def test_self_time_subtracts_the_union_of_children():
    records = [
        row(0, "loop:run", 0.0, 10.0),
        row(1, "operators:a", 1.0, 3.0, parent=0),
        row(2, "operators:b", 2.0, 4.0, parent=0),  # overlaps its sibling
        row(3, "frontier:c", 5.0, 6.0, parent=0),
        row(4, "graph:d", 5.5, 5.8, parent=3),  # grandchild: not the root's child
    ]
    selfs = self_times(records)
    assert selfs[0] == pytest.approx(10.0 - 3.0 - 1.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(1.0 - 0.3)
    assert selfs[4] == pytest.approx(0.3)
    # Self times of a tree of disjoint children add up to the root span.
    tree = [r for r in records if r[0] != 2]
    assert sum(self_times(tree).values()) == pytest.approx(10.0)


def test_child_time_outside_the_parent_is_clipped():
    records = [row(0, "a:x", 0.0, 1.0), row(1, "b:y", 0.5, 2.0, parent=0)]
    assert self_times(records)[0] == pytest.approx(0.5)


def test_summary_counts_top_level_calls_per_layer():
    records = [
        row(0, "graph:view", 0.0, 2.0),
        row(1, "graph:transpose", 0.5, 1.5, parent=0, count=7.0),
        row(2, "graph:transpose", 3.0, 4.0, count=1.0),
    ]
    s = summarize_spans(records)
    assert s.get("graph:transpose").calls == 2
    assert s.get("graph:transpose").count == 8.0
    assert s.get("graph:transpose").top_calls == 1
    assert s.get("graph:view").self_s == pytest.approx(1.0)
    assert s.layer_calls("graph") == 3


@pytest.mark.parametrize("n, rank", [(1, None), (10, None), (11, 1), (25, 15), (100, 90)])
def test_tail_rank_leaves_ten_samples_beyond(n, rank):
    assert stats.tail_rank(n) == rank


def test_tail_value_and_percentile():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    pct, value = stats.tail(values)
    assert (pct, value) == (90.0, 90)
    assert sum(v > value for v in values) == 10
    assert stats.tail(list(range(10))) == (None, None)
    s = stats.summarize([3.0, 1.0, 2.0])
    assert s == {"n": 3, "p50": 2.0, "tail_pct": None, "tail": None}


def test_wrappers_patch_every_binding_and_restore_them():
    import sys

    import repro
    from repro.operators import advance

    # ``repro.algorithms.bfs`` is the function; the module is in sys.modules.
    bfs_module = sys.modules["repro.algorithms.bfs"]

    import_layers()
    original = advance.neighbors_expand
    tracer = Tracer()
    tracer.install(TARGETS)
    try:
        assert tracer.check_coverage() == []
        # The algorithm module looks the operator up under its own name.
        assert bfs_module.neighbors_expand is not original
        g = repro.generators.grid_2d(8, 8, weighted=True, seed=1)
        tracer.set_qid("q1")
        result = repro.bfs(g, 0)
    finally:
        tracer.uninstall()
    assert bfs_module.neighbors_expand is original
    assert advance.neighbors_expand is original
    records = tracer.records()
    by_name = summarize_spans(records)
    expands = by_name.get("operators:neighbors_expand")
    assert expands.calls == result.stats.num_iterations
    assert by_name.get("loop:Enactor.run").count == result.stats.num_iterations
    # Every edge out of the reached vertices is gathered once.
    assert expands.count == pytest.approx(float(g.out_degrees().sum()))
    ids = {r[0]: r for r in records}
    for r in records:
        assert r[5] == "q1"
        if r[1] == "operators:neighbors_expand":
            assert ids[r[4]][1] == "loop:Enactor.run"
    assert np.all(result.levels >= 0)
