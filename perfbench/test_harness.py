"""Tests of the benchmark's own helpers.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import math
import sys
import threading
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import harness  # noqa: E402
from harness import (  # noqa: E402
    StepClock,
    Trace,
    due_time_latencies,
    kernel_class,
    tail_percentile,
    within_limit,
)


class TestTailPercentile:
    @pytest.mark.parametrize("n", [11, 12, 50, 100, 333, 999, 1000, 1001, 5000])
    def test_at_least_ten_samples_beyond(self, n):
        samples = [float(k) for k in range(n)]
        value, pct, count = tail_percentile(samples)
        beyond = sum(1 for x in samples if x > value)
        assert count == n
        assert beyond >= 10
        assert pct <= 99.0
        assert pct == pytest.approx(100.0 * (n - beyond) / n)

    def test_highest_such_percentile(self):
        # 100 samples: p90 has exactly ten beyond; p91 would have nine.
        value, pct, _ = tail_percentile(list(range(100)))
        assert (value, pct) == (89, 90.0)

    def test_caps_at_p99_for_large_samples(self):
        value, pct, n = tail_percentile(list(range(2000)))
        assert pct == 99.0
        assert value == 1979  # twenty samples beyond it
        assert n == 2000

    def test_order_does_not_matter(self):
        xs = [float((7 * k) % 101) for k in range(101)]
        assert tail_percentile(xs) == tail_percentile(sorted(xs))

    def test_too_few_samples_raise(self):
        with pytest.raises(ValueError):
            tail_percentile([1.0] * 10)


class TestDueTimeLatency:
    def test_latency_counts_from_due_time(self):
        # Sent 30 ms late behind a generator stall, answered 10 ms after
        # sending: the request waited 40 ms from when it was due.
        rec = {"due": 100.0, "sent": 100.03, "end": 100.04, "ok": True}
        (lat,) = due_time_latencies([rec])
        assert lat == pytest.approx(0.04)

    def test_failed_request_misses_every_limit(self):
        records = [
            {"due": 0.0, "end": 0.010, "ok": True},
            {"due": 0.0, "end": 0.001, "ok": False},  # fast refusal
            {"due": 0.0, "end": 0.300, "ok": True},
        ]
        lat = due_time_latencies(records)
        assert lat[1] == math.inf
        assert within_limit(lat, 0.25) == 1
        assert within_limit(lat, 1e9) == 2

    def test_failures_rank_in_the_tail(self):
        records = [{"due": 0.0, "end": 0.01, "ok": True}] * 100
        records += [{"due": 0.0, "end": 0.0, "ok": False}] * 10
        value, _, _ = tail_percentile(due_time_latencies(records))
        assert value == pytest.approx(0.01)
        records += [{"due": 0.0, "end": 0.0, "ok": False}]
        value, _, _ = tail_percentile(due_time_latencies(records))
        assert value == math.inf


class TestKernelClasses:
    def test_every_kernel_is_classified(self):
        from repro.autodiff.kernels import KERNELS

        unmapped = sorted(set(KERNELS) - set(harness.KERNEL_CLASSES))
        assert not unmapped, f"classify these kernels in KERNEL_CLASSES: {unmapped}"
        for name in KERNELS:
            assert kernel_class(name) in (
                harness.CONTRACTION, harness.SCATTER_GATHER, harness.ELEMENTWISE
            )

    def test_split_named_in_the_benchmark(self):
        assert {k for k, c in harness.KERNEL_CLASSES.items()
                if c == harness.CONTRACTION} == {"matmul", "einsum"}
        assert {k for k, c in harness.KERNEL_CLASSES.items()
                if c == harness.SCATTER_GATHER} == {
            "gather", "scatter_add", "put_at", "getitem", "slice"}

    def test_unclassified_kernel_fails(self):
        with pytest.raises(KeyError, match="no class"):
            kernel_class("brand_new_kernel")


class _Layer:
    @staticmethod
    def leaf(dt):
        time.sleep(dt)
        return "leaf"

    def outer(self, dt):
        self.leaf(dt)
        self.leaf(dt)
        return "outer"


class _Sub(_Layer):
    pass


class TestTrace:
    def test_self_times_add_up_to_traced_time(self):
        trace = Trace()
        trace.patch(_Layer, "leaf", "leaf")
        trace.patch(_Layer, "outer", "outer")
        try:
            assert _Layer().outer(0.01) == "outer"
        finally:
            trace.restore()
        assert trace.calls["leaf"] == 2 and trace.calls["outer"] == 1
        assert trace.total["leaf"] >= 0.02
        assert trace.self_time["outer"] == pytest.approx(
            trace.total["outer"] - trace.total["leaf"]
        )
        assert trace.covered([threading.current_thread().name]) == pytest.approx(
            trace.total["outer"]
        )

    def test_restore_puts_back_originals(self):
        leaf = _Layer.__dict__["leaf"]
        outer = _Layer.__dict__["outer"]
        trace = Trace()
        trace.patch(_Layer, "leaf", "leaf")
        trace.patch(_Layer, "outer", "outer")
        trace.patch(_Sub, "outer", "sub")  # inherited: must be removed again
        table = {"k": len}
        trace.patch_item(table, "k", "k")
        assert table["k"]("abc") == 3
        trace.restore()
        assert _Layer.__dict__["leaf"] is leaf
        assert _Layer.__dict__["outer"] is outer
        assert "outer" not in _Sub.__dict__
        assert table["k"] is len

    def test_threads_keep_separate_stacks(self):
        trace = Trace()
        trace.patch(_Layer, "leaf", "leaf")
        try:
            threads = [
                threading.Thread(target=_Layer.leaf, args=(0.02,), name=f"w{k}")
                for k in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=5)
            assert not any(t.is_alive() for t in threads)
        finally:
            trace.restore()
        assert trace.covered(["w0"]) >= 0.02 and trace.covered(["w1"]) >= 0.02
        assert trace.self_time["leaf"] == pytest.approx(trace.covered(["w0", "w1"]))

    def test_after_hook_sees_return_value(self):
        trace = Trace()
        seen = []
        trace.patch(_Layer, "leaf", "leaf", after=seen.append)
        try:
            _Layer.leaf(0.0)
        finally:
            trace.restore()
        assert seen == ["leaf"]


def test_step_clock_durations():
    class Thermostat:
        def apply(self):
            time.sleep(0.005)

    thermo = Thermostat()
    clock = StepClock(thermo, "apply")
    thermo.apply()
    t_start = time.perf_counter()
    for _ in range(3):
        thermo.apply()
    durations = clock.durations(t_start)
    assert len(durations) == 3
    assert all(d >= 0.005 for d in durations)
    assert sum(durations) == pytest.approx(clock.stamps[-1] - t_start)


def test_result_line_shape():
    import json

    line = harness.result_line(True, 3, 0, {"setup_s": (0.5, "s")})
    assert json.loads(line) == {
        "correct": True,
        "attempted": 3,
        "failed": 0,
        "metrics": {"setup_s": {"value": 0.5, "unit": "s"}},
    }


class TestOpenLoopSchedule:
    def test_seeded_and_fixed_count_per_step(self):
        import numpy as np
        from workload_serve import SCHEDULE, arrivals

        a = arrivals(np.random.default_rng(7), 20.0)
        b = arrivals(np.random.default_rng(7), 20.0)
        c = arrivals(np.random.default_rng(8), 20.0)
        assert a == b and a != c
        for rate, share in SCHEDULE:
            assert sum(1 for x in a if x[1] == rate) == round(rate * share * 20.0)
            assert sum(1 for x in c if x[1] == rate) == round(rate * share * 20.0)
        dues = [x[0] for x in a]
        assert dues == sorted(dues) and 0.0 <= dues[0] and dues[-1] <= 20.0

    def test_short_runs_keep_a_tail_per_step(self):
        import numpy as np
        from workload_serve import SCHEDULE, arrivals

        a = arrivals(np.random.default_rng(7), 1.0)
        for rate, _ in SCHEDULE:
            assert sum(1 for x in a if x[1] == rate) >= harness.TAIL_BEYOND + 1

    def test_step_summary_counts_refusals_against_the_limit(self):
        from workload_serve import LIMIT_S, step_summary

        ok = [{"due": 0.1 * k, "end": 0.1 * k + 0.02, "ok": True, "kind": "ok"}
              for k in range(20)]
        shed = {"due": 0.5, "end": 0.5, "ok": False, "kind": "shed"}
        s = step_summary(ok, 30, 0.0, 2.0)
        assert s["meets"] and s["within"] == 20 and s["shed"] == 0
        s = step_summary(ok + [shed], 30, 0.0, 2.0)
        assert s["shed"] == 1 and s["within"] == 20 and s["sent"] == 21
        assert not s["meets"]  # 20/21 succeeded: below 99%
        slow = [dict(r, end=r["due"] + 2 * LIMIT_S) for r in ok]
        assert not step_summary(slow, 30, 0.0, 2.0)["meets"]
