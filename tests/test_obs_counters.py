"""Counter-correctness tests: obs counters vs ground-truth work counts.

The instrumentation is only useful if its numbers are exact, so each
test pins a counter against an independently observable quantity: the
context's memoisation counters against ``evaluated_points`` (every
distinct design point is a miss exactly once, every repeat a hit), the
batch engine's batched/fallback split against a batch with a known
mix, and the replay/tuner counters against the work the call visibly
performed.
"""

import dataclasses

import pytest

from repro import obs
from repro.core.config import default_server
from repro.dvfs import GovernorSimulator, LoadTrace
from repro.dvfs.governors import PerformanceGovernor
from repro.fleet import Autoscaler, FleetSimulator
from repro.kernels import BatchReplayRunner, ReplaySpec
from repro.opt import GridSearch, ParamSpace, PolicyConfig, PolicyTuner
from repro.sweep.context import ModelContext
from repro.technology.a57_model import BodyBiasPolicy
from repro.technology.process import FDSOI_28NM_FBB
from repro.workloads.banking_vm import VMS_LOW_MEM, virtualized_workloads
from repro.workloads.cloudsuite import WEB_SEARCH, scale_out_workloads


@pytest.fixture(autouse=True)
def _clean_registry():
    obs.reset()
    yield
    assert not obs.is_enabled(), "a test leaked an open capture/enable"
    obs.reset()


# -- context memoisation ---------------------------------------------------------------


def test_memo_misses_match_evaluated_points_exactly_once():
    """Each distinct point is a miss exactly once; repeats are hits."""
    context = ModelContext(default_server())
    grid = context.configuration.frequency_grid
    with obs.capture() as cap:
        for frequency_hz in grid:
            context.evaluate(WEB_SEARCH, frequency_hz)
        for frequency_hz in grid:
            context.evaluate(WEB_SEARCH, frequency_hz)
    deltas = cap.counter_deltas()
    assert deltas["context.memo_misses"] == len(grid)
    assert deltas["context.memo_hits"] == len(grid)
    assert context.evaluated_points == len(grid)
    assert deltas["context.memo_misses"] == context.evaluated_points


def test_vdd_solves_once_per_reachable_frequency_and_feasible_bias():
    """The body-bias scan is activity-free: six workloads share one solve.

    The six paper workloads span five activity factors, yet each
    (reachable frequency, feasible bias) pair is bisected exactly once.
    A second fresh context repeats the full count: the scan lives on the
    context's own core model, never in a global memo.
    """
    workloads = [*scale_out_workloads().values(), *virtualized_workloads().values()]
    assert len({workload.activity_factor for workload in workloads}) == 5
    configuration = default_server().with_technology(
        FDSOI_28NM_FBB, bias_policy=BodyBiasPolicy.OPTIMAL
    )
    grid = tuple(configuration.frequency_grid) + (4.5e9, 6e9)

    reference = configuration.core_power_model()
    usable = reference.body_bias_model.usable_forward_bias
    limits = [
        reference.vf_model.max_frequency(FDSOI_28NM_FBB.nominal_vdd, usable * i / 32)
        for i in range(33)
    ]
    feasible = [sum(f <= limit for limit in limits) for f in grid]
    expected = sum(feasible)
    assert 0 in feasible and len(set(feasible)) > 2  # edges are exercised

    solves = []
    for _ in range(2):
        context = ModelContext(configuration)
        with obs.capture() as cap:
            for workload in workloads:
                context.evaluate_workload(workload, grid)
        assert context.evaluated_points == 6 * sum(n > 0 for n in feasible)
        solves.append(cap.counter_deltas()["technology.vdd_solves"])
    assert solves == [expected, expected]


def test_memo_counters_key_by_workload_and_frequency():
    context = ModelContext(default_server())
    frequency_hz = context.configuration.frequency_grid[0]
    with obs.capture() as cap:
        context.evaluate(WEB_SEARCH, frequency_hz)
        context.evaluate(VMS_LOW_MEM, frequency_hz)  # new point: same f
        context.evaluate(WEB_SEARCH, frequency_hz)  # repeat: a hit
    deltas = cap.counter_deltas()
    assert deltas["context.memo_misses"] == 2 == context.evaluated_points
    assert deltas["context.memo_hits"] == 1


def test_frequency_table_built_once_then_cache_hits():
    context = ModelContext(default_server())
    with obs.capture() as cap:
        context.frequency_table(WEB_SEARCH)
        context.frequency_table(WEB_SEARCH)
        context.frequency_table(WEB_SEARCH)
    deltas = cap.counter_deltas()
    assert deltas["context.table_builds"] == 1
    assert deltas["context.table_cache_hits"] == 2
    (span,) = [s for s in cap.spans if s.name == "context.table_build"]
    assert span.attributes["workload"] == WEB_SEARCH.name
    assert span.attributes["grid_points"] == len(
        context.configuration.frequency_grid
    )


# -- batched vs fallback ---------------------------------------------------------------


def test_mixed_batch_counts_batched_and_fallback_exactly(default_context):
    """A known 2-kernel/1-fallback batch splits the counters exactly."""

    @dataclasses.dataclass(frozen=True)
    class FloorGovernor(PerformanceGovernor):
        def select(self, observation, platform):
            return platform.frequencies[0]

    trace = LoadTrace.constant(utilization=0.5, steps=8)
    specs = [
        ReplaySpec(workload=WEB_SEARCH, trace=trace, governor=FloorGovernor()),
        ReplaySpec(workload=WEB_SEARCH, trace=trace, governor="performance"),
        ReplaySpec(workload=VMS_LOW_MEM, trace=trace, governor="ondemand"),
    ]
    with obs.capture() as cap:
        result = BatchReplayRunner(default_context).run(specs)
    assert result.batched_count == 2 and result.fallback_count == 1
    deltas = cap.counter_deltas()
    assert deltas["batch.batched_replays"] == 2
    assert deltas["batch.fallback_replays"] == 1
    (span,) = [s for s in cap.spans if s.name == "batch.run"]
    assert span.attributes == {"batch_size": 3, "batched": 2, "fallback": 1}


def test_all_kernel_batch_counts_no_fallbacks(default_context):
    trace = LoadTrace.constant(utilization=0.4, steps=6)
    specs = [
        ReplaySpec(workload=WEB_SEARCH, trace=trace, governor=name)
        for name in ("performance", "ondemand", "powersave")
    ]
    with obs.capture() as cap:
        result = BatchReplayRunner(default_context).run(specs)
    assert result.batched_count == 3
    deltas = cap.counter_deltas()
    assert deltas["batch.batched_replays"] == 3
    assert "batch.fallback_replays" not in deltas


# -- work below batch.run ---------------------------------------------------------------


def test_month_replay_pins_groups_and_timeline_steps(default_context):
    """A month-long 8-node diurnal replay: exact group and step counts.

    Two fleet routings of one fleet size form one tensor group (policy
    is per-row data) beside a single-server replay, so two groups run.
    Their rows share one autoscaler timeline: one computed (a cache
    miss), one reused (a hit).
    The timeline runs its one-step body only where a fleet's state can
    change -- 564 of the month's 8,640 five-minute steps.
    """
    trace = LoadTrace.diurnal(
        steps=30 * 288, step_seconds=300.0, periods=30.0, name="month"
    )
    specs = [
        ReplaySpec(
            workload=WEB_SEARCH,
            trace=trace,
            governor="ondemand",
            fleet_size=8,
            routing=routing,
            autoscaler=Autoscaler(),
        )
        for routing in ("pack", "spread")
    ]
    specs.append(ReplaySpec(workload=WEB_SEARCH, trace=trace))
    with obs.capture() as cap:
        BatchReplayRunner(default_context).run(specs)
    deltas = cap.counter_deltas()
    assert deltas["batch.groups"] == 2
    assert deltas["batch.group_rows"] == 3
    assert deltas["batch.timeline_cache_misses"] == 1
    assert deltas["batch.timeline_cache_hits"] == 1
    assert deltas["batch.timeline_steps"] == 564
    assert deltas["batch.timeline_steps"] < len(trace) // 4
    # The fleet chunk retains 11 bytes per (row, node, step) cell --
    # int8 states, bool wakes, uint8 grid indices, float64 shares --
    # plus its (row, step) fleet columns: six float64, six one-byte
    # node counts and three bool flags.
    cells = 2 * 8 * len(trace)
    assert deltas["batch.peak_group_bytes"] == (
        11 * cells + 2 * len(trace) * (6 * 8 + 6 + 3)
    )


def test_tuner_rung_runs_one_group_per_fleet_size(default_context):
    """Governor, routing and band vary per row, never per group."""
    space = ParamSpace(
        fleet_sizes=(5, 2, 3, 4),
        governors=("qos_tracker", "conservative"),
        routings=("pack", "least_loaded"),
        bands=(None, (0.3, 0.7)),
    )
    trace = LoadTrace.diurnal(steps=48, step_seconds=1800.0)
    with obs.capture() as cap:
        result = PolicyTuner(default_context, WEB_SEARCH, trace).tune(
            space, GridSearch()
        )
    deltas = cap.counter_deltas()
    assert len(result.trials) == len(space.configs()) == 32
    assert deltas["batch.groups"] == 4
    assert deltas["batch.group_rows"] == 32
    # The largest batch is the first one built: eight 5-node rows.
    assert deltas["batch.peak_group_bytes"] == (
        11 * 8 * 5 * len(trace) + 8 * len(trace) * (6 * 8 + 6 + 3)
    )


def test_peak_group_bytes_reads_the_same_in_repeated_captures(default_context):
    """A gauge is a level, not a delta: an identical rerun reports it again."""
    trace = LoadTrace.bursty(steps=40, seed=2)
    specs = [
        ReplaySpec(
            workload=WEB_SEARCH,
            trace=trace,
            governor="ondemand",
            fleet_size=4,
            routing="pack",
            autoscaler=Autoscaler(),
        )
    ]
    peaks = []
    for _ in range(2):
        with obs.capture() as cap:
            BatchReplayRunner(default_context).run(specs)
        peaks.append(cap.counter_deltas()["batch.peak_group_bytes"])
    assert peaks[0] == peaks[1] == (
        11 * 4 * len(trace) + len(trace) * (6 * 8 + 6 + 3)
    )


def test_fleet_groups_record_spans_below_batch_run(default_context):
    """A fleet group splits into timeline/routing/selection/tails/reduce.

    Both routings share one fleet size, so they run as one group (one
    chunk) with routing and governor as per-row data.
    """
    trace = LoadTrace.bursty(steps=40, seed=2)
    specs = [
        ReplaySpec(
            workload=WEB_SEARCH,
            trace=trace,
            governor="conservative",
            fleet_size=3,
            routing=routing,
            autoscaler=Autoscaler(),
        )
        for routing in ("pack", "least_loaded")
    ]
    with obs.capture() as cap:
        BatchReplayRunner(default_context).run(specs).summaries()
    names = [span.name for span in cap.spans]
    assert names.count("batch.timeline") == 1
    # least_loaded routes inside the selection pass; pack gets the
    # group's one routing span.
    assert names.count("batch.routing") == 1
    assert names.count("batch.selection") == 1
    assert names.count("batch.tails") == 1
    # One reduce span for the group build, one for its summaries.
    assert names.count("batch.reduce") == 2
    (run,) = [s for s in cap.spans if s.name == "batch.run"]
    for span in cap.spans:
        if span.name in ("batch.timeline", "batch.routing"):
            assert span.parent_id == run.span_id


# -- replay paths ----------------------------------------------------------------------


def test_dvfs_counters_distinguish_kernel_and_reference(default_context):
    simulator = GovernorSimulator(default_context, WEB_SEARCH)
    trace = LoadTrace.bursty(steps=30, seed=3)
    with obs.capture() as cap:
        simulator.replay(trace, "ondemand")
        simulator.replay(trace, "ondemand", reference=True)
    deltas = cap.counter_deltas()
    assert deltas["dvfs.kernel_replays"] == 1
    assert deltas["dvfs.reference_replays"] == 1
    spans = [s for s in cap.spans if s.name == "dvfs.replay"]
    assert [s.attributes["kernel"] for s in spans] == [True, False]
    assert all(s.attributes["governor"] == "ondemand" for s in spans)


def test_fleet_replay_span_and_tail_dedup_counters(default_context):
    simulator = FleetSimulator(default_context, WEB_SEARCH, fleet_size=2)
    trace = LoadTrace.bursty(steps=20, seed=4)
    with obs.capture() as cap:
        simulator.run(trace, "pack")
    deltas = cap.counter_deltas()
    assert deltas["fleet.kernel_replays"] == 1
    # The queueing-tail dedup only ever shrinks the pair set.
    assert deltas["fleet.tail_pairs"] >= deltas["fleet.tail_unique_pairs"] > 0
    (span,) = [s for s in cap.spans if s.name == "fleet.replay"]
    assert span.attributes["routing"] == "pack"
    assert span.attributes["fleet_size"] == 2
    assert span.attributes["steps"] == len(trace)
    assert span.attributes["kernel"] is True
    assert span.attributes["disturbed"] is False


def test_tuner_rung_span_counts_evaluations_and_duplicates(default_context):
    config = PolicyConfig(
        governor="qos_tracker",
        routing="pack",
        fleet_size=2,
        fill_fraction=0.75,
        band=None,
        wake_steps=1,
    )
    tuner = PolicyTuner(default_context, WEB_SEARCH, LoadTrace.diurnal())
    with obs.capture() as cap:
        tuner.evaluate([config, config])
    deltas = cap.counter_deltas()
    assert deltas["opt.evaluations"] == 1  # the duplicate deduplicates
    assert deltas["opt.duplicate_trials"] == 1
    (span,) = [s for s in cap.spans if s.name == "opt.rung"]
    assert span.attributes["configs"] == 2
    assert span.attributes["evaluations"] == 1
    assert span.attributes["duplicates"] == 1


def test_counters_stay_silent_while_disabled(default_context):
    trace = LoadTrace.constant(utilization=0.5, steps=6)
    BatchReplayRunner(default_context).run(
        [ReplaySpec(workload=WEB_SEARCH, trace=trace)]
    )
    assert obs.counters_snapshot() == {}
