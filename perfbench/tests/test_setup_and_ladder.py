"""What set-up timing, the peak resident set and the rate ladder count."""

import time

import numpy as np
import pytest

from perfbench import harness
from perfbench.harness import OpResult, Workload
from perfbench.service_mixed import supported_tail, sustained_rate


class Fake(Workload):
    """One round of two operations; a check that holds on to memory."""

    chosen = 0

    def build(self):
        time.sleep(0.01)

    def choose_inputs(self):
        if not self.chosen:
            time.sleep(0.3)
        self.chosen += 1

    def warm_up(self):
        time.sleep(0.01)

    def rounds(self):
        yield ["a", "b"]

    def run_op(self, op):
        return OpResult(op, 0.001)

    def check(self, op, result):
        # A checker building a large structure of its own.
        self.held = getattr(self, "held", []) + [np.ones(64 << 20 >> 3)]
        return None


def test_set_up_time_leaves_out_the_benchmarks_own_choices():
    w = Fake(seed=1)
    times = harness.timed_setups(w)
    assert len(times) >= harness.SETUP_MIN
    assert w.chosen == len(times)
    assert max(times) < 0.2  # the 0.3 s choice is not in any of them


def test_peak_rss_is_read_before_the_first_check_allocates():
    w = Fake(seed=1)
    harness.reset_peak_rss()
    out = w.measure(10.0)
    assert out.attempted == 2 and out.failed == 0
    held_mb = 64 * len(w.held)
    # The checks' memory is resident now but not in the measured peak.
    assert harness.peak_rss_mb() - out.extras["peak_rss_mb"] > 0.9 * held_mb


@pytest.mark.parametrize("n, pct", [(200, 95.0), (320, 96.875), (1000, 99.0), (5000, 99.0)])
def test_ladder_tail_is_p99_or_the_highest_supported_percentile(n, pct):
    got_pct, _ = supported_tail(list(range(n)))
    assert got_pct == pytest.approx(pct)
    with pytest.raises(ValueError):
        supported_tail(list(range(10)))


def test_sustained_rate_interpolates_and_flags_a_lower_bound():
    # Every rung sustained: the top rate, flagged as a lower bound.
    assert sustained_rate([(40, 0.3, 95, 75), (80, 0.5, 95, 125)]) == (80, True)
    # Load crosses 1 halfway (in log) between 80 and 160 qps.
    rate, bounded = sustained_rate([(40, 0.3, 95, 0), (80, 0.5, 95, 0), (160, 2.0, 95, 0)])
    assert not bounded and rate == pytest.approx(80 * 2 ** 0.5)
    # An unsustained first rung is scaled by 1 / load.
    assert sustained_rate([(40, 2.0, 95, 0)]) == (20.0, False)
