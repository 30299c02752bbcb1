"""Tests of the benchmark harness's own arithmetic and bookkeeping.

    python3 -m pytest perfbench/tests -q
"""
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from benchlib import stats  # noqa: E402
from benchlib.dfl import expected_counts  # noqa: E402
from benchlib.layers import layer_metric_names  # noqa: E402
from benchlib.spec import BENCHMARKED, END_TO_END  # noqa: E402
from benchlib.trace import Span, Tracer, self_times, union_length, unit_times  # noqa: E402


def make_spans(rows):
    """rows: (name, start, end, parent)."""
    spans = []
    for name, start, end, parent in rows:
        s = Span(name, start, parent)
        s.end = end
        spans.append(s)
    return spans


class TestSelfTime:
    def test_span_minus_children(self):
        spans = make_spans([("root", 0.0, 10.0, -1),
                            ("a", 1.0, 3.0, 0),
                            ("b", 5.0, 9.0, 0),
                            ("a.x", 1.5, 2.0, 1)])
        assert self_times(spans) == pytest.approx([4.0, 1.5, 4.0, 0.5])

    def test_overlapping_children_count_once(self):
        spans = make_spans([("root", 0.0, 10.0, -1),
                            ("a", 1.0, 6.0, 0),
                            ("b", 4.0, 8.0, 0)])
        assert self_times(spans)[0] == pytest.approx(3.0)

    def test_children_clipped_to_parent(self):
        assert union_length([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(3.0)
        assert union_length([], 0.0, 10.0) == 0.0

    def test_self_times_sum_to_root_duration(self):
        spans = make_spans([("root", 0.0, 7.0, -1), ("a", 0.5, 2.0, 0),
                            ("b", 2.0, 6.5, 0), ("b.x", 3.0, 4.0, 2)])
        assert sum(self_times(spans)) == pytest.approx(7.0)


class TestUnitTimes:
    def test_epochs_start_at_every_kth_solve_and_end_with_the_call(self):
        spans = make_spans([("train", 0.0, 10.0, -1)]
                           + [("solve", t, t + 0.5, 0) for t in (1, 2, 4, 5, 7, 8)]
                           + [("solve", 11.0, 11.5, -1)])
        assert unit_times(spans, "train", "solve", 2) == pytest.approx([3.0, 3.0, 3.0])

    def test_every_outer_call_contributes(self):
        spans = make_spans([("eval", 0.0, 4.0, -1), ("solve", 1.0, 2.0, 0),
                            ("eval", 5.0, 9.0, -1), ("solve", 5.5, 6.0, 2),
                            ("solve", 7.0, 8.0, 2)])
        assert unit_times(spans, "eval", "solve", 1) == pytest.approx([3.0, 1.5, 2.0])


class TestTailPercentile:
    def test_too_few_samples(self):
        assert stats.tail_percentile(range(10)) is None

    def test_eleven_samples_give_the_median_rank_only_if_ten_beyond(self):
        # p50 of 11 samples is rank 6, leaving 5 beyond: not enough
        assert stats.tail_percentile(range(11)) is None
        # p50 of 20 samples is rank 10, leaving 10 beyond
        assert stats.tail_percentile(range(20)) == (50.0, 9.0)

    def test_highest_qualifying_percentile(self):
        values = list(range(1, 401))
        # p99 leaves 4 beyond, p95 leaves 20
        assert stats.tail_percentile(values) == (95.0, 380.0)
        assert stats.tail_percentile(list(range(1, 1001))) == (99.0, 990.0)
        assert stats.tail_percentile(list(range(1, 10001))) == (99.9, 9990.0)

    def test_order_does_not_matter(self):
        values = [5.0, 1.0, 4.0] * 10
        assert stats.tail_percentile(values) == stats.tail_percentile(sorted(values))

    def test_timing_summary(self):
        doc = stats.timing_summary([1.0, 2.0, 3.0])
        assert doc == {"n": 3, "p50": 2.0}


class TestExpectedCounts:
    def test_formula(self):
        # E epochs: 20E + 40 solves per evaluation round, 10E backwards
        counts = expected_counts(k=10, epochs=3, setups=1, rounds=1,
                                 skipped=0, val_dropped=0, eval_failed=0)
        assert counts == {"qp.solve": 100, "qp.backward": 30,
                          "plant.simulate_day": 100,
                          "plant.warmup_initial_tau": 40}

    def test_rounds_and_setups(self):
        counts = expected_counts(k=10, epochs=3, setups=2, rounds=4,
                                 skipped=0, val_dropped=0, eval_failed=0)
        assert counts["qp.solve"] == 60 + 4 * 40
        assert counts["qp.backward"] == 30
        assert counts["plant.warmup_initial_tau"] == 80

    def test_failures_are_netted(self):
        counts = expected_counts(k=10, epochs=2, setups=1, rounds=2,
                                 skipped=2, val_dropped=3, eval_failed=1)
        assert counts["qp.solve"] == 40 + 2 * 40
        assert counts["qp.backward"] == 20 - 2
        assert counts["plant.simulate_day"] == 120 - 2 - 3 - 1


class TestRebinding:
    def test_direct_imports_are_rebound_and_restored(self):
        from dflsched import learning, reporting

        original = learning.summarize
        tracer = Tracer()
        with tracer.rebind({"learning.summarize": (learning, "summarize")}):
            assert reporting.summarize is learning.summarize
            assert reporting.summarize is not original
        assert learning.summarize is original
        assert reporting.summarize is original

    def test_spans_nest_and_record_parents(self):
        tracer = Tracer()
        inner = tracer.wrap("inner", lambda: 1)
        with tracer.span("outer"):
            inner()
        assert [(s.name, s.parent) for s in tracer.spans] == [("outer", -1), ("inner", 0)]


def test_benchmark_json_names_match_the_harness():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == layer_metric_names()
    assert tuple(w["name"] for w in doc["workloads"]) == BENCHMARKED
