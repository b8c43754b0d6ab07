"""Tests of the benchmark's own arithmetic and of its tracer binding.

    PYTHONPATH=src python3 -m pytest bench -q
"""

import json
from pathlib import Path

import pytest

from stats import Tally, percentile, samples_beyond, self_times, tail_percentile
from tracing import Tracer, per_layer_units

ROOT = Path(__file__).resolve().parent.parent


# -- self time --------------------------------------------------------------------------

def test_self_time_of_nested_spans():
    # request [0, 10] > outer [1, 8] > inner [2, 5]; outer also calls [6, 7]
    parents = [-1, 0, 1, 1]
    starts = [0.0, 1.0, 2.0, 6.0]
    ends = [10.0, 8.0, 5.0, 7.0]
    assert self_times(parents, starts, ends) == pytest.approx([3.0, 3.0, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    parents = [-1, 0, 0]
    starts = [0.0, 1.0, 3.0]
    ends = [10.0, 4.0, 6.0]
    assert self_times(parents, starts, ends)[0] == pytest.approx(5.0)


def test_self_time_of_traced_nested_call():
    tracer = Tracer(spans=())
    with tracer.request_span():
        with tracer.request_span():
            pass
    own = self_times(tracer.parent, tracer.start, tracer.end)
    assert list(tracer.parent) == [-1, 0]
    assert own[0] == pytest.approx((tracer.end[0] - tracer.start[0]) - (tracer.end[1] - tracer.start[1]))
    assert own[1] == pytest.approx(tracer.end[1] - tracer.start[1])
    assert all(t >= 0.0 for t in own)


# -- percentiles ------------------------------------------------------------------------

@pytest.mark.parametrize("n, p", [
    (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (64, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (1200, 99.0),
])
def test_tail_percentile_is_highest_with_ten_samples_beyond(n, p):
    assert tail_percentile(n) == p
    if p is not None:
        assert samples_beyond(n, p) >= 10


def test_percentile_interpolates_between_ranks():
    assert percentile([4.0, 1.0, 3.0, 2.0], 50.0) == pytest.approx(2.5)
    assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 75.0) == pytest.approx(4.0)
    assert percentile([7.0], 99.0) == 7.0


# -- failure counting -------------------------------------------------------------------

def test_failed_ratio_counts_every_failure_against_attempts():
    tally = Tally()
    for reason in (None, "not-found", None, "oracle-mismatch", "not-found"):
        tally.record(reason)
    assert tally.attempted == 5
    assert tally.failed == 3
    assert tally.failed_ratio == pytest.approx(0.6)
    assert tally.reasons == {"not-found": 2, "oracle-mismatch": 1}


def test_failed_ratio_needs_an_attempt():
    with pytest.raises(ValueError):
        Tally().failed_ratio


# -- tracer binding ---------------------------------------------------------------------

def test_tracer_binds_every_import_and_restores_it():
    from sublorentz import existence, liealg3, longarc

    from child import BindingError, check_spans
    from workloads import SolveCover, VerdictSweep

    original = liealg3.from_case
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.stale_bindings() == []
        assert existence.from_case is longarc.from_case is liealg3.from_case
        w = VerdictSweep()
        inputs = w.make_inputs(seed=5)
        cases = [next(c for c in inputs if c.case_id == cid) for cid in ("1", "10", "14")]
        for case in cases:
            with tracer.request_span():
                w.check(case, w.request(case))
    finally:
        tracer.uninstall()
    assert existence.from_case is original and liealg3.from_case is original
    layers = tracer.layers()
    check_spans(w, layers, len(cases))
    with pytest.raises(BindingError, match="push_forward"):
        check_spans(SolveCover(), layers, len(cases))
    with pytest.raises(BindingError, match="one call per request"):
        check_spans(w, layers, len(cases) + 1)


# -- the declared benchmark -------------------------------------------------------------

def test_benchmark_json_declares_what_the_runner_reports():
    from run import END_TO_END_UNITS, WORKLOAD_NAMES
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES) == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()


# -- reference time ---------------------------------------------------------------------

def test_reference_time_scales_by_nearby_kernel_samples_and_drops_those_inside():
    from calibration import INTERVAL_S, REFERENCE_KERNEL_S, ReferenceClock

    clock = ReferenceClock(timer=lambda: 0.0)
    k = REFERENCE_KERNEL_S
    # samples every interval; the host runs at half speed from t = 1.0 on
    clock.starts = [0.5, 0.5 + INTERVAL_S, 1.0, 1.0 + INTERVAL_S, 1.0 + 2 * INTERVAL_S]
    clock.durations = [k, k, 2 * k, 2 * k, 2 * k]
    # a short request between the first two samples runs at full speed
    assert clock.reference(0.5 + k, 0.5 + k + 0.001) == pytest.approx(0.001)
    # a request holding the fourth sample: that sample is not its time, and
    # its neighbours all ran at half speed
    t0, t1 = 1.0 + INTERVAL_S / 2, 1.0 + 1.5 * INTERVAL_S
    assert clock.reference(t0, t1) == pytest.approx((t1 - t0 - 2 * k) / 2)
    # far from every sample: the nearest one decides
    assert clock.reference(9.0, 9.001) == pytest.approx(0.0005)
