"""The benchmark's own arithmetic: self time, the tail rule, ratio bases."""

import pytest

from perfbench import hostspeed, layers
from perfbench.spans import Span, Tracer, covered_length, self_times
from perfbench.stats import beyond, percentile, ratio, tail_percentile


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(1, "op", 0.0, 10.0, None, "op0"),
        Span(2, "a", 1.0, 5.0, 1, "op0"),
        Span(3, "b", 4.0, 6.0, 1, "op0"),  # overlaps a
        Span(4, "c", 2.0, 3.0, 2, "op0", inner=0.25),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0)  # children cover [1, 6]
    assert own[2] == pytest.approx(4.0 - 1.0)
    assert own[3] == pytest.approx(2.0)
    assert own[4] == pytest.approx(1.0 - 0.25)


def test_work_on_another_thread_is_counted_once():
    # The caller waits in "wait" (polling in "poll") while a server thread
    # runs "job" from inside "push" until after the first poll.
    spans = [
        Span(1, "op", 0.0, 10.0, None, "op0"),
        Span(2, "push", 0.0, 2.0, 1, "op0"),
        Span(3, "wait", 2.0, 10.0, 1, "op0"),
        Span(4, "poll", 4.0, 5.0, 3, "op0"),
        Span(5, "job", 1.0, 6.0, 2, "op0", lane=1),
        Span(6, "compose", 1.0, 2.0, 5, "op0", lane=1),
    ]
    own = self_times(spans)
    assert own[2] == pytest.approx(1.0)  # the job covers [1, 2] of the push
    assert own[3] == pytest.approx(8.0 - 4.0)  # the job and the poll cover [2, 6]
    assert own[4] == pytest.approx(0.0)
    assert own[5] == pytest.approx(4.0)
    assert own[6] == pytest.approx(1.0)
    assert own[1] == pytest.approx(0.0)
    assert sum(own.values()) == pytest.approx(10.0)


def test_worker_thread_span_hangs_off_the_callers_innermost_span():
    import threading

    class Server:
        def job(self):
            return 1

    class Client:
        def wait(self):
            worker = threading.Thread(target=Server().job)
            worker.start()
            worker.join()

    tracer = Tracer()
    tracer.wrap(Server, "job", "job")
    tracer.wrap(Client, "wait", "wait")
    frame = tracer.begin_op("op0")
    Client().wait()
    tracer.end_op(frame)
    Server().job()  # outside an operation: no parent
    tracer.uninstall()
    spans = tracer.records()
    wait = next(span for span in spans if span.name == "wait")
    inside, outside = [span for span in spans if span.name == "job"]
    assert (inside.parent, inside.lane, inside.op) == (wait.id, 1, "op0")
    assert (outside.parent, outside.lane, outside.op) == (None, 0, None)
    own = self_times(spans)
    assert own[wait.id] == pytest.approx(wait.duration - inside.duration)


def test_covered_length_clips_to_the_parent():
    assert covered_length([(-1.0, 2.0), (1.5, 3.0), (8.0, 12.0)], 0.0, 10.0) == pytest.approx(5.0)


def test_tracer_nests_spans_and_timers():
    class Layer:
        def outer(self):
            return self.inner()

        def inner(self):
            return self.per_state() + 1

        def per_state(self):
            return 1

    tracer = Tracer()
    tracer.wrap(Layer, "outer", "outer")
    assert hasattr(vars(Layer)["outer"], "__wrapped__")
    tracer.wrap(Layer, "inner", "inner")
    tracer.time(Layer, "per_state", "state")
    frame = tracer.begin_op("op0")
    assert Layer().outer() == 2
    tracer.end_op(frame)
    tracer.uninstall()
    spans = {span.name: span for span in tracer.records()}
    assert spans["inner"].parent == spans["outer"].id
    assert spans["outer"].parent == spans["op"].id
    assert spans["inner"].inner > 0.0 and spans["outer"].inner == 0.0
    assert tracer.timers[("op0", "state")][0] == 1
    assert not hasattr(vars(Layer)["outer"], "__wrapped__")


def test_span_metrics_are_per_op_means():
    spans = [
        Span(1, "op", 0.0, 4.0, None, "op0"),
        Span(2, "ospf.compute", 0.0, 3.0, 1, "op0"),
        Span(3, "op", 10.0, 12.0, None, "op1"),
        Span(4, "ospf.compute", 10.0, 11.0, 3, "op1"),
    ]
    metrics = layers.span_metrics(spans, {}, ["op0", "op1"])
    assert metrics["ospf.compute_s"] == pytest.approx(2.0)
    assert metrics["ospf.compute_calls"] == pytest.approx(1.0)
    assert metrics["trace.unattributed_ratio"] == pytest.approx(2.0 / 6.0)


def test_tail_rule_needs_ten_samples_beyond():
    assert tail_percentile(list(range(19))) is None
    assert tail_percentile(list(range(20)))[0] == 50.0
    p, value, count = tail_percentile([float(i) for i in range(1, 101)])
    assert (p, value, count) == (90.0, 90.0, 100)
    assert beyond(100, 90) == 10 and beyond(1000, 99) == 10
    assert tail_percentile([float(i) for i in range(1000)])[0] == 99.0


def test_percentile_is_nearest_rank():
    assert percentile([5.0, 1.0, 3.0], 50) == 3.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 90) == 4.0


def test_ratios_are_reported_with_their_bases():
    records = [
        {"op": "op0", "stats": {"pecs_total": 8, "pecs_recomputed": 1, "cache_lookups": 7,
                                "pecs_from_cache": 7, "transitions_enabled": 100,
                                "transitions_expanded": 30, "policy_outcomes": 10,
                                "policy_suppressed": 4}},
        {"op": "op1", "stats": {"pecs_total": 8, "pecs_recomputed": 8, "cache_lookups": 0,
                                "pecs_from_cache": 0, "transitions_enabled": 60,
                                "transitions_expanded": 30, "policy_outcomes": 6,
                                "policy_suppressed": 0}},
    ]
    metrics = layers.program_metrics(records, {}, {})
    assert metrics["incremental.dirty_pec_ratio"] == pytest.approx(9 / 16)
    assert metrics["incremental.pecs_total"] == pytest.approx(8)
    assert metrics["incremental.cache_hit_ratio"] == pytest.approx(1.0)
    assert metrics["incremental.cache_lookups"] == pytest.approx(3.5)
    assert metrics["por.expanded_ratio"] == pytest.approx(60 / 160)
    assert metrics["por.transitions_enabled"] == pytest.approx(80)
    assert metrics["policies.pruned_ratio"] == pytest.approx(4 / 16)
    assert metrics["policies.outcomes"] == pytest.approx(8)


def test_empty_base_reports_zero_with_its_base():
    assert ratio(0, 0) == {"value": 0.0, "base": 0}
    assert ratio(3, 4) == {"value": 0.75, "base": 4}


def test_scaling_to_reference_seconds_uses_the_median_loop_time():
    slow = 2 * hostspeed.REFERENCE_S
    assert hostspeed.scale(3.0, [slow, slow, 100.0]) == pytest.approx(1.5)
    assert hostspeed.scale(3.0, [hostspeed.REFERENCE_S]) == pytest.approx(3.0)


def test_loop_is_timed_during_an_op():
    import time

    with hostspeed.DuringOp() as during:
        start = time.perf_counter()
        while time.perf_counter() - start < 3 * hostspeed.PERIOD_S:
            pass
        end = time.perf_counter()
    assert len(during.within(start, end)) >= 2
    assert during.within(end, end + 10.0) == []
