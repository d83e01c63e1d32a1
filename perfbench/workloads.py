"""The benchmark's four workloads: seeded inputs, one pass, an oracle.

Every workload is built from a ``seed`` alone: the generators below
derive traces, frequency grids, configuration samples, policy spaces
and disturbance placements from ``numpy.random.default_rng([seed,
stream])``, and the program under test receives only the generated
objects.  A workload then offers three things to the driver in
``worker.py``:

* ``warm()`` -- the set-up the replay workloads pay once per process
  (model context, reachable grid, frequency table);
* ``run_pass()`` -- one closed-loop unit of work through the public
  entry points, returning its throughput count and one fingerprint per
  checked operation (scenario, DSE summary, trial, replay, claim);
* ``oracle_failures(raw)`` -- the operations of a pass whose outputs
  disagree with an independent oracle: the ``reference=True`` object
  path for replays and trials, the per-point efficiency and QoS
  analyzers for DSE summaries, and ``validate_paper_claims`` for the
  paper's shape claims.

The benchmark's own ``obs.trace`` spans mark each public call, so a
traced pass splits into layers without instrumenting the program.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro import obs
from repro.analysis import validate_paper_claims
from repro.core.config import default_server
from repro.core.efficiency import EfficiencyAnalyzer, EfficiencyScope
from repro.core.qos import QosAnalyzer
from repro.dvfs import GovernorSimulator, LoadTrace
from repro.fleet import (
    Autoscaler,
    CostModel,
    DisturbanceSchedule,
    FleetSimulator,
    node_crash,
    node_restore,
    thermal_cap,
)
from repro.kernels import BatchReplayRunner, ReplaySpec
from repro.opt import GridSearch, ParamSpace, PolicyTuner
from repro.power.dram_power import DRAM_CHIPS
from repro.scenarios import ScenarioRunner, get_scenario
from repro.sweep import DseSummary, ModelContext, SweepRunner
from repro.technology.a57_model import BodyBiasPolicy
from repro.technology.process import TECHNOLOGIES
from repro.workloads.banking_vm import (
    DEGRADATION_LIMIT_RELAXED,
    virtualized_workloads,
)
from repro.workloads.cloudsuite import scale_out_workloads

# Independent random streams per input kind, so resizing one input
# never shifts another's draws.
_GRID, _CONFIGS, _TRACE, _SPACE, _DISTURB, _ORACLE = range(6)


def rng_for(seed: int, stream: int) -> np.random.Generator:
    """The generator of one input kind for one benchmark seed."""
    return np.random.default_rng([seed, stream])


def fingerprint(value: object) -> str:
    """A short exact fingerprint of a value's ``repr`` (floats in full)."""
    return hashlib.blake2b(repr(value).encode(), digest_size=12).hexdigest()


def same_summary(left: Dict[str, object], right: Dict[str, object]) -> bool:
    """Bit-for-bit equality of two scalar dicts (NaN equals NaN)."""
    if left.keys() != right.keys():
        return False
    for key, value in left.items():
        other = right[key]
        if (
            isinstance(value, float)
            and isinstance(other, float)
            and math.isnan(value)
            and math.isnan(other)
        ):
            continue
        if type(value) is not type(other) or value != other:
            return False
    return True


# -- seeded input generators ----------------------------------------------------------


def diurnal_trace(
    rng: np.random.Generator, days: int, steps_per_day: int, name: str
) -> LoadTrace:
    """Day/night load with a per-day peak and Gaussian noise."""
    steps = days * steps_per_day
    low = rng.uniform(0.10, 0.20)
    peaks = rng.uniform(0.80, 0.92, size=days).repeat(steps_per_day)
    phase = 2.0 * math.pi * (np.arange(steps) + 0.5) / steps_per_day
    base = low + (peaks - low) * 0.5 * (1.0 - np.cos(phase))
    values = np.clip(base + rng.normal(0.0, 0.03, steps), 0.0, 1.0)
    return LoadTrace(
        name=name,
        step_seconds=86400.0 / steps_per_day,
        utilization=tuple(map(float, values)),
    )


def bursty_trace(rng: np.random.Generator, steps: int, name: str) -> LoadTrace:
    """Two-state Markov load: a quiet base with flash-crowd bursts."""
    base = rng.uniform(0.15, 0.25)
    burst = rng.uniform(0.85, 0.95)
    draws = rng.random(steps)
    noise = rng.normal(0.0, 0.02, steps)
    values = np.empty(steps)
    in_burst = False
    for index in range(steps):
        if in_burst:
            in_burst = draws[index] >= 0.35
        else:
            in_burst = draws[index] < 0.08
        values[index] = (burst if in_burst else base) + noise[index]
    return LoadTrace(
        name=name,
        step_seconds=300.0,
        utilization=tuple(map(float, np.clip(values, 0.0, 1.0))),
    )


@dataclass
class PassOutput:
    """One pass: its throughput count, checked operations and raw data.

    ``items`` maps an operation's identity to the fingerprint of its
    output; ``raw`` is what :meth:`oracle_failures` needs to re-derive
    the outputs independently.
    """

    ops: int
    items: Dict[str, str]
    raw: object


class Workload:
    """Base class: seeded inputs, set-up, one pass, oracle."""

    name = ""
    op_unit = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def warm(self) -> Dict[str, float]:
        """Per-process set-up; returns its phase times in seconds."""
        return {}

    def inputs_digest(self) -> str:
        """Fingerprint of every generated input (seed self-test)."""
        raise NotImplementedError

    def run_pass(self) -> PassOutput:
        raise NotImplementedError

    def oracle_failures(self, raw: object) -> set:
        """Operation identities whose outputs disagree with the oracle."""
        raise NotImplementedError

    def layer_metrics(self, report, deltas: Dict[str, float]) -> Dict[str, float]:
        """Per-layer numbers of one traced pass."""
        return {}

    def probes(self) -> Dict[str, float]:
        """One-off traced-run measurements taken outside the passes."""
        return {}

    def extra_rates(self, pass_s: float) -> Dict[str, Tuple[float, str]]:
        """Rates besides the operation rate, for the printout.

        ``pass_s`` is the mean time of a timed pass.
        """
        return {}


# -- paper_dse ------------------------------------------------------------------------

PAPER_SCENARIOS = (
    "fig2_qos",
    "fig3_scaleout",
    "fig4_virtualized",
    "table1_ddr4",
    "ablation_body_bias",
    "ablation_cluster_size",
    "ablation_memory_tech",
    "consolidation_oversubscribe",
    "colocation_mixed",
)
GRID_DRAWS = 191
CLUSTER_ORGANIZATIONS = ((9, 4), (6, 6), (3, 12), (12, 3), (4, 9))
# Configurations sampled per body-bias policy.  Fixed per-policy counts
# keep the work mix (the optimal policy's bias scan costs ~10x a fixed
# bias) the same on every seed.
CONFIGS_PER_POLICY = {
    BodyBiasPolicy.NONE: 2,
    BodyBiasPolicy.FIXED: 2,
    BodyBiasPolicy.OPTIMAL: 1,
}


class PaperDse(Workload):
    """The paper itself: nine scenarios plus a sampled configuration DSE."""

    name = "paper_dse"
    op_unit = "design_points"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = rng_for(seed, _GRID)
        draws = np.round(rng.uniform(100e6, 2e9, GRID_DRAWS), -6)
        self.grid = tuple(sorted({float(value) for value in draws}))
        self.scenarios = [
            get_scenario(name).with_overrides(frequency_grid_hz=self.grid)
            for name in PAPER_SCENARIOS
        ]
        self.workloads = {**scale_out_workloads(), **virtualized_workloads()}
        self.configurations = self._sample_configurations(rng_for(seed, _CONFIGS))

    def _sample_configurations(self, rng: np.random.Generator) -> list:
        """Seeded technology x bias x cluster x DRAM sample, reachable only."""
        base = default_server()
        chosen = []
        for policy, count in CONFIGS_PER_POLICY.items():
            candidates = []
            for technology in TECHNOLOGIES.values():
                configuration = base.with_technology(technology, bias_policy=policy)
                context = ModelContext(configuration)
                if not any(context.is_reachable(f) for f in self.grid):
                    continue
                for chip in DRAM_CHIPS.values():
                    for clusters, cores in CLUSTER_ORGANIZATIONS:
                        candidates.append(
                            configuration.with_memory_chip(
                                chip
                            ).with_cluster_organization(clusters, cores)
                        )
            picks = rng.choice(len(candidates), size=count, replace=False)
            chosen.extend(candidates[index] for index in sorted(picks))
        return chosen

    def inputs_digest(self) -> str:
        return fingerprint((self.grid, self.configurations))

    def run_pass(self) -> PassOutput:
        items: Dict[str, str] = {}
        points = 0
        scenario_raw = []
        runner = ScenarioRunner()
        for spec in self.scenarios:
            result = runner.run(spec)
            points += result.context.evaluated_points
            items[f"scenario:{spec.name}"] = fingerprint(
                (result.summaries, result.key_scalars())
            )
            scenario_raw.append((spec, result.summaries))
        dse_raw = []
        workloads = list(self.workloads.values())
        for index, configuration in enumerate(self.configurations):
            with obs.trace("sweep.context_build"):
                context = ModelContext(configuration)
                grid = context.reachable_frequencies(self.grid)
            with obs.trace("technology.operating_point"):
                for workload in workloads:
                    for frequency in grid:
                        context.operating_point(frequency, workload.activity_factor)
            with obs.trace("core.performance"):
                for workload in workloads:
                    for frequency in grid:
                        context.performance(workload, frequency)
            with obs.trace("sweep.evaluate"):
                for workload in workloads:
                    for frequency in grid:
                        context.evaluate(workload, frequency)
            with obs.trace("sweep.summarize"):
                summaries = SweepRunner(context=context).summarize(
                    workloads, self.grid
                )
            points += context.evaluated_points
            for summary in summaries:
                items[dse_key(index, summary)] = fingerprint(summary)
            dse_raw.append((configuration, summaries))
        with obs.trace("analysis.validate"):
            claims = validate_paper_claims()
        for index, claim in enumerate(claims):
            items[f"claim:{index}"] = fingerprint((claim.claim, claim.passed))
        return PassOutput(points, items, (scenario_raw, dse_raw, claims))

    def oracle_summary(
        self, configuration, workload, bound: float
    ) -> DseSummary:
        """A DseSummary rebuilt through the per-point analyzers."""
        efficiency = EfficiencyAnalyzer(configuration)
        curves = {
            scope: efficiency.curve(workload, scope, self.grid)
            for scope in EfficiencyScope
        }
        qos = QosAnalyzer(configuration)
        if workload.is_scale_out:
            meets = [
                point.meets_qos
                for point in qos.latency_curve(workload, self.grid).points
            ]
        else:
            degradations = qos.degradation_curve(workload, self.grid).degradations
            meets = [value <= bound + 1e-9 for value in degradations]
        server = curves[EfficiencyScope.SERVER]
        feasible = [point for point, ok in zip(server, meets) if ok]
        best = max(feasible, key=lambda p: p.efficiency) if feasible else None
        return DseSummary(
            workload_name=workload.name,
            qos_floor_hz=feasible[0].frequency_hz if feasible else None,
            optimal_frequency_by_scope={
                scope.value: max(curve, key=lambda p: p.efficiency).frequency_hz
                for scope, curve in curves.items()
            },
            best_qos_respecting_frequency=best.frequency_hz if best else None,
            best_qos_respecting_efficiency=best.efficiency if best else None,
        )

    def oracle_failures(self, raw) -> set:
        scenario_raw, dse_raw, claims = raw
        failed = set()
        for spec, summaries in scenario_raw:
            configuration = spec.configuration()
            workloads = spec.workloads()
            for summary in summaries:
                expected = self.oracle_summary(
                    configuration,
                    workloads[summary.workload_name],
                    spec.degradation_bound,
                )
                if summary != expected:
                    failed.add(f"scenario:{spec.name}")
        # The optimal-bias analyzer path costs seconds per workload, so
        # the sampled optimal configuration checks one seeded workload;
        # every other configuration is checked in full.
        rng = rng_for(self.seed, _ORACLE)
        for index, (configuration, summaries) in enumerate(dse_raw):
            if configuration.bias_policy is BodyBiasPolicy.OPTIMAL:
                summaries = [summaries[int(rng.integers(len(summaries)))]]
            for summary in summaries:
                expected = self.oracle_summary(
                    configuration,
                    self.workloads[summary.workload_name],
                    DEGRADATION_LIMIT_RELAXED,
                )
                if summary != expected:
                    failed.add(dse_key(index, summary))
        for index, claim in enumerate(claims):
            if not claim.passed:
                failed.add(f"claim:{index}")
        return failed

    def layer_metrics(self, report, deltas):
        totals = span_totals(report)
        hits = deltas.get("context.memo_hits", 0)
        misses = deltas.get("context.memo_misses", 0)
        return {
            "sweep.context_build_s": totals.get("sweep.context_build", 0.0),
            "technology.operating_point_s": totals.get(
                "technology.operating_point", 0.0
            ),
            "core.performance_s": totals.get("core.performance", 0.0),
            "sweep.evaluate_s": totals.get("sweep.evaluate", 0.0),
            "sweep.summarize_s": totals.get("sweep.summarize", 0.0),
            "scenarios.analysis_s": totals.get("scenario.analysis", 0.0),
            "analysis.validate_s": totals.get("analysis.validate", 0.0),
            "context.memo_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        }


# -- replay workloads -----------------------------------------------------------------


class ReplayWorkload(Workload):
    """Shared set-up: one Web Search context with a warm frequency table."""

    op_unit = "server_steps"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.workload = scale_out_workloads()["Web Search"]

    def warm(self) -> Dict[str, float]:
        started = time.perf_counter()
        self.context = ModelContext(default_server())
        self.context.reachable_frequencies()
        built = time.perf_counter()
        self.context.frequency_table(self.workload)
        return {
            "dvfs.trace_gen_s": self.trace_gen_s,
            "sweep.context_build_s": built - started,
            "kernels.table_build_s": time.perf_counter() - built,
        }

    def reference(self, spec: ReplaySpec):
        """One replay spec through the object path (the oracle)."""
        if spec.is_fleet:
            simulator = FleetSimulator(
                self.context,
                spec.workload,
                fleet_size=spec.fleet_size,
                governor=spec.governor,
                autoscaler=spec.autoscaler,
                off_power_w=spec.off_power_w,
                queueing=spec.queueing,
            )
            return simulator.run(
                spec.trace,
                spec.routing,
                reference=True,
                disturbances=spec.disturbances,
            )
        simulator = GovernorSimulator(self.context, spec.workload)
        return simulator.replay(spec.trace, spec.governor, reference=True)

    def reference_failures(self, specs, summaries, indices) -> set:
        """Checked replays whose summary differs from the object path's."""
        return {
            f"replay:{index}"
            for index in sorted(indices)
            if not same_summary(
                summaries[index], self.reference(specs[index]).summary()
            )
        }

    @staticmethod
    def server_steps(specs) -> int:
        return sum((spec.fleet_size or 1) * len(spec.trace) for spec in specs)


class TuneFleet(ReplayWorkload):
    """One grid-search tune over ~150 distinct fleet policies."""

    name = "tune_fleet"
    op_unit = "trials"
    FLEET_SIZES = (6, 8, 10, 12)
    GOVERNORS = ("qos_tracker", "ondemand", "conservative")
    ROUTINGS = ("pack", "spread", "least_loaded", "round_robin")
    ORACLE_SAMPLE = 10

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        started = time.perf_counter()
        self.trace = diurnal_trace(rng_for(seed, _TRACE), 1, 288, "diurnal-day")
        self.trace_gen_s = time.perf_counter() - started
        rng = rng_for(seed, _SPACE)
        lows = np.round(rng.uniform(0.25, 0.40, 2), 2)
        highs = np.round(rng.uniform(0.70, 0.85, 2), 2)
        self.space = ParamSpace(
            fleet_sizes=self.FLEET_SIZES,
            governors=self.GOVERNORS,
            routings=self.ROUTINGS,
            fill_fractions=(float(np.round(rng.uniform(0.7, 0.9), 2)),),
            bands=(None,)
            + tuple((float(low), float(high)) for low, high in zip(lows, highs)),
            wake_steps=(int(rng.integers(1, 4)),),
        )

    def inputs_digest(self) -> str:
        return fingerprint((self.trace, self.space))

    def run_pass(self) -> PassOutput:
        with obs.trace("opt.configs"):
            configs = self.space.configs()
        tuner = PolicyTuner(self.context, self.workload, self.trace)
        with obs.trace("opt.tune", configs=len(configs)):
            result = tuner.tune(self.space, GridSearch())
        with obs.trace("opt.frontier"):
            frontier = (result.frontier(), result.as_dict())
        items = {
            f"trial:{trial.config.label()}": fingerprint(
                (trial.summary, trial.economics, trial.objective, trial.feasible)
            )
            for trial in result.trials
        }
        items["optimum"] = fingerprint(frontier)
        return PassOutput(len(result.trials), items, result)

    def oracle_failures(self, result) -> set:
        failed = set()
        if len(result.trials) != len(self.space.configs()):
            failed.add("optimum")
        rng = rng_for(self.seed, _ORACLE)
        picks = rng.choice(len(result.trials), size=self.ORACLE_SAMPLE, replace=False)
        cost_model = CostModel()
        for index in sorted(picks):
            trial = result.trials[int(index)]
            config = trial.config
            reference = self.reference(config.replay_spec(self.workload, self.trace))
            if not (
                same_summary(trial.summary, reference.summary())
                and same_summary(trial.economics, cost_model.rollup(reference))
            ):
                failed.add(f"trial:{config.label()}")
        return failed

    def layer_metrics(self, report, deltas):
        totals = span_totals(report)
        selfs = span_self_times(report)
        return {
            "opt.configs_s": totals.get("opt.configs", 0.0),
            "opt.rung_self_s": selfs.get("opt.rung", 0.0),
            "batch.run_s": totals.get("batch.run", 0.0),
            "opt.duplicate_trials": deltas.get("opt.duplicate_trials", 0),
            "opt.frontier_s": totals.get("opt.frontier", 0.0),
        }

    def probes(self) -> Dict[str, float]:
        """The tuner's batch as a direct call: summaries and grouping."""
        specs = [
            config.replay_spec(self.workload, self.trace)
            for config in self.space.configs()
        ]
        result = BatchReplayRunner(self.context).run(specs)
        started = time.perf_counter()
        result.summaries()
        summaries_s = time.perf_counter() - started
        probes = {"batch.summaries_s": summaries_s}
        groups = batch_group_count(result)
        if groups:
            probes["batch.groups"] = groups
            probes["batch.rows_per_group"] = result.batched_count / groups
        return probes

    def extra_rates(self, pass_s: float):
        configs = self.space.configs()
        steps = sum(c.fleet_size for c in configs) * len(self.trace)
        return {"server_steps_per_s": (steps / pass_s, "1/s")}


class MonthFleet(ReplayWorkload):
    """One month of load through four autoscaled fleets and two servers."""

    name = "month_fleet"
    DAYS = 30
    STEPS_PER_DAY = 288
    ROUTINGS = ("pack", "least_loaded", "spread", "round_robin")
    SINGLE_GOVERNORS = ("conservative", "ondemand")
    ORACLE_FLEETS = 2

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        started = time.perf_counter()
        self.trace = diurnal_trace(
            rng_for(seed, _TRACE), self.DAYS, self.STEPS_PER_DAY, "diurnal-month"
        )
        self.trace_gen_s = time.perf_counter() - started
        self.fleet_specs = [
            ReplaySpec(
                self.workload,
                self.trace,
                "qos_tracker",
                fleet_size=8,
                routing=routing,
                autoscaler=Autoscaler(),
            )
            for routing in self.ROUTINGS
        ]
        self.single_specs = [
            ReplaySpec(self.workload, self.trace, governor)
            for governor in self.SINGLE_GOVERNORS
        ]

    def inputs_digest(self) -> str:
        return fingerprint(self.trace)

    def run_pass(self) -> PassOutput:
        runner = BatchReplayRunner(self.context)
        with obs.trace("batch.fleet_run"):
            fleet = runner.run(self.fleet_specs).summaries()
        with obs.trace("batch.single_run"):
            single = runner.run(self.single_specs).summaries()
        specs = self.fleet_specs + self.single_specs
        summaries = fleet + single
        items = {
            f"replay:{index}": fingerprint(summary)
            for index, summary in enumerate(summaries)
        }
        return PassOutput(self.server_steps(specs), items, summaries)

    def oracle_failures(self, summaries) -> set:
        # The object path is ~16x slower than the batch engine on a
        # month-long trace, so each run checks a seeded pair of the
        # fleet rows and both single-server rows.
        rng = rng_for(self.seed, _ORACLE)
        fleets = rng.choice(len(self.fleet_specs), self.ORACLE_FLEETS, replace=False)
        checked = sorted(int(i) for i in fleets) + [
            len(self.fleet_specs) + i for i in range(len(self.single_specs))
        ]
        specs = self.fleet_specs + self.single_specs
        return self.reference_failures(specs, summaries, checked)

    def layer_metrics(self, report, deltas):
        totals = span_totals(report)
        hits = deltas.get("batch.timeline_cache_hits", 0)
        misses = deltas.get("batch.timeline_cache_misses", 0)
        pairs = deltas.get("fleet.tail_pairs", 0)
        return {
            "batch.fleet_run_s": totals.get("batch.fleet_run", 0.0),
            "batch.single_run_s": totals.get("batch.single_run", 0.0),
            "batch.timeline_cache_hit_ratio": (
                hits / (hits + misses) if hits + misses else 0.0
            ),
            "fleet.tail_dedup_ratio": (
                deltas.get("fleet.tail_unique_pairs", 0) / pairs if pairs else 0.0
            ),
        }


class WideBatch(ReplayWorkload):
    """~1,000 short 16-node fleet replays plus a disturbed slice."""

    name = "wide_batch"
    TRACES = 100
    STEPS = 288
    FLEET_SIZE = 16
    GOVERNORS = ("performance", "powersave", "ondemand", "conservative", "qos_tracker")
    ROUTINGS = ("spread", "pack")
    CRASHED = 20
    CAPPED = 3
    ORACLE_CLEAN = 8
    ORACLE_CRASHED = 2
    ORACLE_CAPPED = 1

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        started = time.perf_counter()
        rng = rng_for(seed, _TRACE)
        self.traces = [
            bursty_trace(rng, self.STEPS, f"bursty-{index}")
            for index in range(self.TRACES)
        ]
        self.trace_gen_s = time.perf_counter() - started
        self.clean_specs = [
            ReplaySpec(
                self.workload,
                trace,
                governor,
                fleet_size=self.FLEET_SIZE,
                routing=routing,
                autoscaler=Autoscaler(),
            )
            for governor in self.GOVERNORS
            for routing in self.ROUTINGS
            for trace in self.traces
        ]
        self._disturb_rng = rng_for(seed, _DISTURB)
        self.disturbed_specs: List[ReplaySpec] = []

    def warm(self) -> Dict[str, float]:
        phases = super().warm()
        # Thermal caps pick their ceiling from the reachable grid, so the
        # disturbed slice is placed once the context exists.
        grid = self.context.reachable_frequencies()
        rng = self._disturb_rng
        for index in range(self.CRASHED + self.CAPPED):
            node = int(rng.integers(self.FLEET_SIZE))
            step = int(rng.integers(10, self.STEPS // 2))
            if index < self.CRASHED:
                events = (
                    node_crash(node, step),
                    node_restore(node, step + int(rng.integers(10, 90))),
                )
            else:
                ceiling = grid[int(rng.integers(len(grid) // 4, len(grid) // 2))]
                events = (thermal_cap(node, step, ceiling),)
            self.disturbed_specs.append(
                ReplaySpec(
                    self.workload,
                    self.traces[int(rng.integers(self.TRACES))],
                    self.GOVERNORS[int(rng.integers(len(self.GOVERNORS)))],
                    fleet_size=self.FLEET_SIZE,
                    routing=self.ROUTINGS[int(rng.integers(len(self.ROUTINGS)))],
                    autoscaler=Autoscaler(),
                    disturbances=DisturbanceSchedule(events=events),
                )
            )
        return phases

    def inputs_digest(self) -> str:
        return fingerprint((self.traces, self.disturbed_specs))

    def run_pass(self) -> PassOutput:
        runner = BatchReplayRunner(self.context)
        with obs.trace("batch.clean_run"):
            clean = runner.run(self.clean_specs)
            clean_summaries = clean.summaries()
        with obs.trace("batch.disturbed_run"):
            disturbed = runner.run(self.disturbed_specs)
            disturbed_summaries = disturbed.summaries()
        summaries = clean_summaries + disturbed_summaries
        items = {
            f"replay:{index}": fingerprint(summary)
            for index, summary in enumerate(summaries)
        }
        self.last_fallback = clean.fallback_count + disturbed.fallback_count
        specs = self.clean_specs + self.disturbed_specs
        return PassOutput(self.server_steps(specs), items, summaries)

    def oracle_failures(self, summaries) -> set:
        rng = rng_for(self.seed, _ORACLE)
        clean = len(self.clean_specs)
        checked = [int(i) for i in rng.choice(clean, self.ORACLE_CLEAN, replace=False)]
        checked += [
            clean + int(i)
            for i in rng.choice(self.CRASHED, self.ORACLE_CRASHED, replace=False)
        ]
        checked += [
            clean + self.CRASHED + int(i)
            for i in rng.choice(self.CAPPED, self.ORACLE_CAPPED, replace=False)
        ]
        specs = self.clean_specs + self.disturbed_specs
        return self.reference_failures(specs, summaries, checked)

    def layer_metrics(self, report, deltas):
        totals = span_totals(report)
        replays = len(self.clean_specs) + len(self.disturbed_specs)
        return {
            "batch.clean_run_s": totals.get("batch.clean_run", 0.0),
            "batch.disturbed_run_s": totals.get("batch.disturbed_run", 0.0),
            "batch.fallback_frac": self.last_fallback / replays,
        }

    def probes(self) -> Dict[str, float]:
        """tracemalloc peak (NumPy buffers included) of the clean batch run."""
        import tracemalloc

        runner = BatchReplayRunner(self.context)
        tracemalloc.start()
        try:
            runner.run(self.clean_specs).summaries()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return {"batch.peak_alloc_mb": peak / 2**20}


WORKLOADS = {
    cls.name: cls for cls in (PaperDse, TuneFleet, MonthFleet, WideBatch)
}


# -- helpers --------------------------------------------------------------------------


def dse_key(index: int, summary: DseSummary) -> str:
    """Identity of one sampled configuration's summary of one workload.

    Configuration names omit the bias policy, so the sample index keeps
    two policies of one organisation apart.
    """
    return f"dse:{index}:{summary.workload_name}"


def batch_group_count(result) -> int:
    """Distinct tensor batches a BatchReplayResult was evaluated in.

    The result exposes no group count, so this reads its placements
    (one ``("batch", batch, row)`` entry per batched replay); 0 when the
    engine no longer stores them that way.
    """
    try:
        return len(
            {id(batch) for kind, batch, _ in result._placements if kind == "batch"}
        )
    except (AttributeError, TypeError, ValueError):
        return 0


def span_totals(report) -> Dict[str, float]:
    """Summed duration of every span name in a RunReport."""
    totals: Dict[str, float] = {}
    for name, duration in zip(report.names, report.durations_s):
        totals[name] = totals.get(name, 0.0) + duration
    return totals


def span_self_times(report) -> Dict[str, float]:
    """Summed self time per span name: duration minus direct children."""
    child_time = [0.0] * len(report.names)
    for parent, duration in zip(report.parents, report.durations_s):
        if parent is not None:
            child_time[parent] += duration
    selfs: Dict[str, float] = {}
    for index, name in enumerate(report.names):
        own = report.durations_s[index] - child_time[index]
        selfs[name] = selfs.get(name, 0.0) + own
    return selfs
