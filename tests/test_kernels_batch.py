"""Property tests for the batched replay engine.

The tentpole claim, pinned with ``np.array_equal`` and exact ``==`` --
no tolerances anywhere: a :class:`BatchReplayRunner` run over B specs
is **bit for bit** the same as B independent single-replay kernel
calls (and, via the simulators, the object-based reference path):

* every column of every replay, across all governors, routings,
  autoscale on/off and ragged trace lengths (so the (B, T) padding and
  masking must be exact, not approximately right);
* every scalar summary dict, against ``GovernorSimulator.replay`` /
  ``FleetSimulator.run`` summaries (float-sensitive derived ratios
  included);
* hypothesis-sampled batch shapes: random row counts, random lengths,
  mixed governors in one batch;
* hundreds-of-steps fleet replays under every routing and autoscaler
  edge case (instant, slow and never-finishing wakes, a floor equal to
  the fleet, a narrow band, events at the first and last steps), so
  the event-driven autoscaler timeline actually jumps;
* specs whose policy types have no kernel fall back to the per-replay
  simulator path inside the same batch;
* one submission mixing every governor x routing, the autoscaler edge
  cases, two off-powers, two fleet sizes and ragged traces runs as one
  group per fleet size and matches per-spec runs (and, on a sample,
  the reference path) whole and cut into many chunks;
* a row too large for memory is refused before anything is allocated.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.dvfs import GOVERNORS, GovernorSimulator, LoadTrace
from repro.dvfs.governors import PerformanceGovernor, governor_by_name
from repro.fleet import ROUTERS, Autoscaler, FleetSimulator
from repro.fleet.result import FLEET_COLUMNS, NODE_COLUMNS
from repro.fleet.routing import RoundRobinRouting, router_by_name
from repro.kernels import batch as batch_module
from repro.kernels import (
    BatchReplayRunner,
    ReplaySpec,
    fleet_replay_columns,
    governor_replay_columns,
)
from repro.resilience import SpecError
from repro.workloads.banking_vm import VMS_LOW_MEM
from repro.workloads.cloudsuite import WEB_SEARCH

utilizations = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    min_size=1,
    max_size=12,
)

ragged_batches = st.lists(utilizations, min_size=1, max_size=5)


def make_trace(values, step_seconds=60.0, name="sampled") -> LoadTrace:
    return LoadTrace(
        name=name, step_seconds=step_seconds, utilization=tuple(values)
    )


def assert_columns_equal(got, ref, label):
    assert set(got) == set(ref), label
    for name, reference in ref.items():
        column = got[name]
        assert column.dtype == reference.dtype, f"{label}/{name}"
        assert np.array_equal(
            column, reference, equal_nan=column.dtype.kind == "f"
        ), f"{label}/{name}"


# -- single-server batches vs looped kernel calls ---------------------------------------


@settings(max_examples=15, deadline=None)
@given(batch=ragged_batches, governor=st.sampled_from(sorted(GOVERNORS)))
def test_batched_replay_equals_looped_kernel_calls(
    batch, governor, default_context
):
    """(B, T) stacking with ragged lengths never changes a single bit."""
    traces = [make_trace(values, name=f"row{i}") for i, values in enumerate(batch)]
    runner = BatchReplayRunner(default_context)
    specs = [
        ReplaySpec(workload=WEB_SEARCH, trace=trace, governor=governor)
        for trace in traces
    ]
    result = runner.run(specs)
    assert result.batched_count == len(traces)
    assert result.fallback_count == 0
    table = default_context.frequency_table(WEB_SEARCH)
    for row, trace in enumerate(traces):
        reference = governor_replay_columns(
            table, governor_by_name(governor), trace
        )
        replay = result.result(row)
        got = {name: replay.column(name) for name in reference}
        assert_columns_equal(got, reference, f"{governor}/row{row}")


@settings(max_examples=10, deadline=None)
@given(batch=ragged_batches)
def test_mixed_governor_batch_matches_simulator_summaries(
    batch, default_context, websearch_simulator
):
    """Mixed-policy batches reproduce simulator summaries exactly."""
    governors = sorted(GOVERNORS)
    specs = []
    for index, values in enumerate(batch):
        specs.append(
            ReplaySpec(
                workload=WEB_SEARCH,
                trace=make_trace(values, name=f"row{index}"),
                governor=governors[index % len(governors)],
            )
        )
    result = BatchReplayRunner(default_context).run(specs)
    summaries = result.summaries()
    for index, spec in enumerate(specs):
        reference = websearch_simulator.replay(spec.trace, spec.governor)
        assert summaries[index] == reference.summary()


# -- fleet batches vs looped kernel calls -----------------------------------------------


@pytest.mark.parametrize("routing", sorted(ROUTERS))
@pytest.mark.parametrize("governor", sorted(GOVERNORS))
@settings(max_examples=6, deadline=None)
@given(
    batch=st.lists(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=1,
            max_size=10,
        ),
        min_size=1,
        max_size=4,
    ),
    autoscale=st.booleans(),
)
def test_batched_fleet_equals_looped_kernel_calls(
    routing, governor, batch, autoscale, default_context
):
    """(B, N, T) stacking is exact for every routing x governor trio."""
    autoscaler = Autoscaler() if autoscale else None
    traces = [make_trace(values, name=f"row{i}") for i, values in enumerate(batch)]
    specs = [
        ReplaySpec(
            workload=WEB_SEARCH,
            trace=trace,
            governor=governor,
            fleet_size=3,
            routing=routing,
            autoscaler=autoscaler,
            off_power_w=7.0,
        )
        for trace in traces
    ]
    result = BatchReplayRunner(default_context).run(specs)
    assert result.fallback_count == 0
    table = default_context.frequency_table(WEB_SEARCH)
    for row, trace in enumerate(traces):
        fleet_ref, node_ref = fleet_replay_columns(
            table,
            WEB_SEARCH,
            3,
            governor_by_name(governor),
            router_by_name(routing),
            autoscaler,
            7.0,
            trace,
            True,
        )
        replay = result.result(row)
        got = {name: replay.column(name) for name in fleet_ref}
        assert_columns_equal(got, fleet_ref, f"{routing}/{governor}/row{row}")
        for node, reference in node_ref.items():
            got = {
                name: replay.node_column(node, name) for name in reference
            }
            assert_columns_equal(
                got, reference, f"{routing}/{governor}/row{row}/node{node}"
            )


@pytest.mark.parametrize("routing", sorted(ROUTERS))
def test_batched_fleet_summaries_match_simulator(routing, default_context):
    """Summary dicts equal FleetSimulator's exactly, per routing."""
    traces = [
        LoadTrace.bursty(steps=40, seed=3).head(31),
        LoadTrace.diurnal(steps=24, step_seconds=600.0),
        LoadTrace.constant(utilization=0.8, steps=7),
    ]
    specs = [
        ReplaySpec(
            workload=WEB_SEARCH,
            trace=trace,
            governor="conservative",
            fleet_size=4,
            routing=routing,
            autoscaler=Autoscaler(),
        )
        for trace in traces
    ]
    summaries = BatchReplayRunner(default_context).run(specs).summaries()
    simulator = FleetSimulator(
        default_context,
        WEB_SEARCH,
        fleet_size=4,
        governor="conservative",
        autoscaler=Autoscaler(),
    )
    for index, trace in enumerate(traces):
        assert summaries[index] == simulator.run(trace, routing).summary()


# -- long traces: the event-driven timeline's jumps -------------------------------------

# The batched autoscaler timeline runs its one-step body only at event
# steps and jumps over quiet stretches.  Short traces never leave a
# stretch long enough to jump, so these replays are hundreds of steps:
# piecewise-constant plateaus (long quiet runs between sharp scale
# events), phase-shifted diurnal curves (rows whose events interleave)
# and a trace whose load jumps right after the first step and again at
# the last one.  Rows differ in length, so the padded tail of a short
# row (zero load) adds park events of its own.

LONG_FLEET = 4


def _piecewise(levels, run, name):
    return make_trace(np.repeat(levels, run).tolist(), name=name)


def _long_traces():
    edges = [0.1] + [0.9] * 248 + [0.1]
    return [
        _piecewise([0.2, 0.7, 0.05, 1.0, 0.4, 0.0, 0.6], 60, "plateaus"),
        LoadTrace.diurnal(steps=576, step_seconds=300.0, periods=2.0),
        LoadTrace.diurnal(
            steps=333, step_seconds=300.0, periods=3.0, seed=7, name="d3"
        ),
        make_trace(edges, name="edges"),
        _piecewise([0.9, 0.1], 100, "step-down"),
    ]


LONG_AUTOSCALERS = {
    "wake0": Autoscaler(wake_steps=0),
    "wake1": Autoscaler(wake_steps=1),
    "wake3": Autoscaler(wake_steps=3),
    "wake_beyond_trace": Autoscaler(wake_steps=1000),
    "min_is_fleet": Autoscaler(min_servers=LONG_FLEET),
    "narrow_band": Autoscaler(low=0.5, high=0.52, wake_steps=2),
}


@pytest.mark.parametrize("routing", sorted(ROUTERS))
@pytest.mark.parametrize("scaler", sorted(LONG_AUTOSCALERS))
def test_long_trace_fleet_batch_matches_kernel_and_reference(
    routing, scaler, default_context
):
    """Every column and summary survives the timeline's jumps exactly."""
    autoscaler = LONG_AUTOSCALERS[scaler]
    traces = _long_traces()
    specs = [
        ReplaySpec(
            workload=WEB_SEARCH,
            trace=trace,
            governor="conservative",
            fleet_size=LONG_FLEET,
            routing=routing,
            autoscaler=autoscaler,
            off_power_w=2.0,
        )
        for trace in traces
    ]
    result = BatchReplayRunner(default_context).run(specs)
    assert result.batched_count == len(traces)
    summaries = result.summaries()
    table = default_context.frequency_table(WEB_SEARCH)
    simulator = FleetSimulator(
        default_context,
        WEB_SEARCH,
        fleet_size=LONG_FLEET,
        governor="conservative",
        autoscaler=autoscaler,
        off_power_w=2.0,
    )
    for row, trace in enumerate(traces):
        label = f"{routing}/{scaler}/{trace.name}"
        fleet_ref, node_ref = fleet_replay_columns(
            table,
            WEB_SEARCH,
            LONG_FLEET,
            governor_by_name("conservative"),
            router_by_name(routing),
            autoscaler,
            2.0,
            trace,
            True,
        )
        replay = result.result(row)
        got = {name: replay.column(name) for name in fleet_ref}
        assert_columns_equal(got, fleet_ref, label)
        for node, reference in node_ref.items():
            got = {
                name: replay.node_column(node, name) for name in reference
            }
            assert_columns_equal(got, reference, f"{label}/node{node}")
        reference = simulator.run(trace, routing, reference=True)
        assert summaries[row] == reference.summary(), label


def test_long_traces_scale_at_the_edges_and_skip_most_steps(
    default_context,
):
    """The fixtures above really jump, and really scale at the edges."""
    traces = _long_traces()
    specs = [
        ReplaySpec(
            workload=WEB_SEARCH,
            trace=trace,
            governor="ondemand",
            fleet_size=LONG_FLEET,
            routing="pack",
            autoscaler=LONG_AUTOSCALERS["wake0"],
        )
        for trace in traces
    ]
    with obs.capture() as cap:
        alone = BatchReplayRunner(default_context).run(specs[3:4])
        BatchReplayRunner(default_context).run(specs)
    active = alone.result(0).column("active_servers")
    # The load jumps at step 1 and drops at the last step: both scale.
    assert active[1] > active[0]
    assert active[-1] < active[-2]
    assert alone.result(0).column("wake_events")[1] > 0
    # The lone edges replay runs exactly two one-step bodies: the wake
    # at step 1 and the park at the last step.  The five-row batch runs
    # one body per step on which any row's fleet can change (the padded
    # tails of the short rows park too), still a small share of its
    # 576 steps.
    deltas = cap.counter_deltas()
    assert deltas["batch.timeline_steps"] == 2 + 50


# -- mixed batches, fallbacks and edge specs --------------------------------------------


def test_mixed_single_and_fleet_batch(default_context, websearch_simulator):
    """Single-server and fleet specs coexist in one submission order."""
    trace = LoadTrace.bursty(steps=50, seed=5)
    specs = [
        ReplaySpec(workload=WEB_SEARCH, trace=trace, governor="ondemand"),
        ReplaySpec(
            workload=WEB_SEARCH,
            trace=trace.head(20),
            governor="qos_tracker",
            fleet_size=2,
            routing="pack",
        ),
        ReplaySpec(workload=VMS_LOW_MEM, trace=trace, governor="powersave"),
    ]
    result = BatchReplayRunner(default_context).run(specs)
    assert len(result) == 3
    assert result.batched_count == 3
    summaries = result.summaries()
    assert summaries[0]["governor"] == "ondemand"
    assert summaries[1]["routing"] == "pack"
    assert summaries[2]["workload"] == VMS_LOW_MEM.name
    # VM workloads replay without queueing columns: all-NaN tails.
    vm_fleet = ReplaySpec(
        workload=VMS_LOW_MEM,
        trace=trace.head(10),
        governor="performance",
        fleet_size=2,
        routing="round_robin",
    )
    vm_result = BatchReplayRunner(default_context).run([vm_fleet])
    tails = vm_result.result(0).column("tail_latency_s")
    assert np.isnan(tails).all()
    assert vm_result.summaries()[0]["queue_violation_count"] == 0
    reference = websearch_simulator.replay(trace, "ondemand")
    assert summaries[0] == reference.summary()


def test_custom_policy_specs_fall_back_to_simulators(default_context):
    """Subclassed policies run object-path but stay in the batch."""

    @dataclasses.dataclass(frozen=True)
    class FloorGovernor(PerformanceGovernor):
        def select(self, observation, platform):
            return platform.frequencies[0]

    @dataclasses.dataclass(frozen=True)
    class NoisyRoundRobin(RoundRobinRouting):
        pass

    trace = LoadTrace.constant(utilization=0.5, steps=8)
    specs = [
        ReplaySpec(workload=WEB_SEARCH, trace=trace, governor=FloorGovernor()),
        ReplaySpec(workload=WEB_SEARCH, trace=trace, governor="performance"),
        ReplaySpec(
            workload=WEB_SEARCH,
            trace=trace,
            governor="performance",
            fleet_size=2,
            routing=NoisyRoundRobin(),
        ),
    ]
    result = BatchReplayRunner(default_context).run(specs)
    assert result.batched_count == 1
    assert result.fallback_count == 2
    summaries = result.summaries()
    # The fallback governor floors the frequency; the kernel one tops it.
    assert summaries[0]["mean_frequency_hz"] < summaries[1]["mean_frequency_hz"]
    reference = GovernorSimulator(default_context, WEB_SEARCH).replay(
        trace, FloorGovernor()
    )
    assert summaries[0] == reference.summary()
    fleet_reference = FleetSimulator(
        default_context, WEB_SEARCH, fleet_size=2, governor="performance"
    ).run(trace, NoisyRoundRobin())
    assert summaries[2] == fleet_reference.summary()


def test_replay_spec_validation():
    trace = LoadTrace.constant(steps=4)
    with pytest.raises(ValueError, match="routing policy needs a fleet_size"):
        ReplaySpec(workload=WEB_SEARCH, trace=trace, routing="pack")
    with pytest.raises(ValueError, match="autoscaler needs a fleet_size"):
        ReplaySpec(
            workload=WEB_SEARCH, trace=trace, autoscaler=Autoscaler()
        )
    with pytest.raises(ValueError, match="off_power_w needs a fleet_size"):
        ReplaySpec(workload=WEB_SEARCH, trace=trace, off_power_w=3.0)
    with pytest.raises(ValueError, match="needs a routing policy"):
        ReplaySpec(workload=WEB_SEARCH, trace=trace, fleet_size=2)
    with pytest.raises(ValueError, match="fleet_size must be >= 1"):
        ReplaySpec(
            workload=WEB_SEARCH,
            trace=trace,
            fleet_size=0,
            routing="pack",
        )
    # Floats (even integral ones) and bools used to reach NumPy and
    # fail there with a bare TypeError; the spec boundary names them.
    for size, kind in ((2.5, "float"), (3.0, "float"), (True, "bool")):
        with pytest.raises(
            SpecError, match=rf"fleet_size must be an int .*\({kind}\)"
        ):
            ReplaySpec(
                workload=WEB_SEARCH,
                trace=trace,
                fleet_size=size,
                routing="pack",
            )
    with pytest.raises(ValueError, match="min_servers"):
        ReplaySpec(
            workload=WEB_SEARCH,
            trace=trace,
            fleet_size=1,
            routing="pack",
            autoscaler=Autoscaler(min_servers=2),
        )
    with pytest.raises(TypeError, match="ReplaySpec items"):
        BatchReplayRunner(None).run(["not a spec"])
    # A size from a NumPy sweep is a size (stored as int); a queueing
    # flag must be a bool (the string "no" is true); True is not 1 W.
    spec = ReplaySpec(
        workload=WEB_SEARCH,
        trace=trace,
        fleet_size=np.int64(2),
        routing="pack",
        queueing=np.bool_(True),
    )
    assert type(spec.fleet_size) is int and type(spec.queueing) is bool
    assert spec == ReplaySpec(
        workload=WEB_SEARCH, trace=trace, fleet_size=2, routing="pack"
    )
    with pytest.raises(SpecError, match=r"queueing must be a bool, .*\(str\)"):
        ReplaySpec(
            workload=WEB_SEARCH,
            trace=trace,
            fleet_size=2,
            routing="pack",
            queueing="no",
        )
    for fleet in ({}, {"fleet_size": 2, "routing": "pack"}):
        with pytest.raises(
            SpecError, match=r"off_power_w must be a real number, .*\(bool\)"
        ):
            ReplaySpec(
                workload=WEB_SEARCH, trace=trace, off_power_w=True, **fleet
            )


def test_results_materialize_in_submission_order(default_context):
    trace = LoadTrace.diurnal()
    specs = [
        ReplaySpec(workload=WEB_SEARCH, trace=trace.head(n), governor=g)
        for n, g in ((12, "ondemand"), (48, "powersave"), (30, "ondemand"))
    ]
    result = BatchReplayRunner(default_context).run(specs)
    results = result.results()
    assert [len(r.column("step")) for r in results] == [12, 48, 30]
    assert [r.governor_name for r in results] == [
        "ondemand",
        "powersave",
        "ondemand",
    ]
    # summaries() is cached and stable across calls.
    assert result.summaries() == result.summaries()


def test_row_that_cannot_fit_is_refused_before_allocating(default_context):
    """A 10**9-node row fails at the spec boundary, not in NumPy."""
    trace = LoadTrace.constant(steps=2)
    fine = ReplaySpec(
        workload=WEB_SEARCH, trace=trace, fleet_size=2, routing="pack"
    )
    huge = dataclasses.replace(fine, fleet_size=10**9)
    tracemalloc.start()
    try:
        with pytest.raises(
            SpecError,
            match=r"replay 1 .*1000000000 nodes x 2 steps needs about "
            r"\d+ bytes .*more than the \d+ bytes of physical memory",
        ):
            BatchReplayRunner(default_context).run([fine, huge])
        result = BatchReplayRunner(
            default_context, on_error="quarantine"
        ).run([fine, huge, fine])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert result.quarantined_count == 1
    assert [index for index, _ in result.quarantined()] == [1]
    summaries = result.summaries()
    alone = BatchReplayRunner(default_context).run([fine]).summaries()[0]
    assert summaries[0] == alone and summaries[2] == alone


# -- one group per fleet size: policy as per-row data -----------------------------------

MIXED_AUTOSCALERS = (
    None,
    Autoscaler(),
    Autoscaler(low=0.5, high=0.52, wake_steps=2),
    Autoscaler(wake_steps=0),
    Autoscaler(wake_steps=3),
    Autoscaler(min_servers=3),
)


def _mixed_specs():
    """Every governor x routing, the autoscaler edge cases, two fleet
    sizes, two off-powers and ragged traces, in one submission."""
    traces = [
        make_trace([0.9], name="one-step"),
        LoadTrace.bursty(steps=40, seed=4).head(29),
        LoadTrace.diurnal(steps=150, step_seconds=300.0, periods=2.0),
        _piecewise([0.1, 0.95, 0.0, 0.6], 25, "plateaus"),
        make_trace([1.0] * 12 + [0.0] * 9, name="full-then-idle"),
    ]
    specs = []
    for index, (governor, routing) in enumerate(
        (governor, routing)
        for governor in sorted(GOVERNORS)
        for routing in sorted(ROUTERS)
    ):
        for shift, fleet_size in enumerate((3, 4)):
            specs.append(
                ReplaySpec(
                    workload=WEB_SEARCH,
                    trace=traces[(2 * index + shift) % len(traces)],
                    governor=governor,
                    fleet_size=fleet_size,
                    routing=routing,
                    autoscaler=MIXED_AUTOSCALERS[
                        (index + shift) % len(MIXED_AUTOSCALERS)
                    ],
                    off_power_w=(0.0, 5.0)[(index + shift) % 2],
                )
            )
    return specs


def _assert_fleet_results_equal(got, ref, label):
    assert got.summary() == ref.summary(), label
    assert (got.routing_name, got.governor_name, got.autoscaled) == (
        ref.routing_name,
        ref.governor_name,
        ref.autoscaled,
    ), label
    assert_columns_equal(
        {name: got.column(name) for name in FLEET_COLUMNS},
        {name: ref.column(name) for name in FLEET_COLUMNS},
        label,
    )
    for node in range(ref.fleet_size):
        assert_columns_equal(
            {name: got.node_column(node, name) for name in NODE_COLUMNS},
            {name: ref.node_column(node, name) for name in NODE_COLUMNS},
            f"{label}/node{node}",
        )


def test_mixed_policy_batch_matches_per_spec_runs_and_reference(
    default_context,
):
    """One run over mixed policies equals each spec run on its own."""
    specs = _mixed_specs()
    with obs.capture() as cap:
        result = BatchReplayRunner(default_context).run(specs)
    # One group per fleet size, whatever the policies.
    assert cap.counter_deltas()["batch.groups"] == 2
    assert result.batched_count == len(specs)
    summaries = result.summaries()
    for index, spec in enumerate(specs):
        label = f"spec{index}"
        alone = BatchReplayRunner(default_context).run([spec])
        assert summaries[index] == alone.summaries()[0], label
        _assert_fleet_results_equal(
            result.result(index), alone.result(0), label
        )
        if index % 5 == 0:
            reference = FleetSimulator(
                default_context,
                WEB_SEARCH,
                fleet_size=spec.fleet_size,
                governor=spec.governor,
                autoscaler=spec.autoscaler,
                off_power_w=spec.off_power_w,
            ).run(spec.trace, spec.routing, reference=True)
            _assert_fleet_results_equal(
                result.result(index), reference, f"{label}/reference"
            )


def test_chunked_group_matches_the_unsplit_run(default_context, monkeypatch):
    """Cutting a group into many chunks never changes a bit."""
    specs = _mixed_specs()
    # Rows that share a timeline but sort into other chunks.
    specs += [
        dataclasses.replace(spec, off_power_w=1.5) for spec in specs[::3]
    ]
    whole = BatchReplayRunner(default_context).run(specs)
    monkeypatch.setattr(batch_module, "_GROUP_CELLS", 3 * 4 * 150)
    with obs.capture() as cap:
        chunked = BatchReplayRunner(default_context).run(specs)
    deltas = cap.counter_deltas()
    assert deltas["batch.groups"] > 2
    assert deltas["batch.group_rows"] == len(specs)
    # The groups' timelines are still resolved once for all chunks:
    # one per distinct (fleet size, trace, autoscaler) triple.
    distinct = {(s.fleet_size, s.trace, s.autoscaler) for s in specs}
    assert deltas["batch.timeline_cache_misses"] == len(distinct)
    assert deltas["batch.timeline_cache_hits"] == len(specs) - len(distinct)
    assert chunked.summaries() == whole.summaries()
    for index in range(len(specs)):
        _assert_fleet_results_equal(
            chunked.result(index), whole.result(index), f"spec{index}"
        )
