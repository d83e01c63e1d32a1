"""Batched multi-replay tensor engine: one NumPy pass over B replays.

The design-space questions the paper asks (which governor, what fleet
size, which autoscaler band) are answered by sweeping *populations* of
replays.  A single-replay kernel call is already vectorized along the
trace axis; this module adds the batch axis:

* **Single-server stacks** -- B (governor, trace) replays become one
  ``(B, T)`` utilisation tensor (rows padded to the longest trace).
  Memoryless governors select the whole tensor in one cover-matrix
  pass; ``conservative`` walks the T axis once with all B rows
  advancing a notch per step in parallel
  (:func:`~repro.kernels.governors.select_batch_trace_indices`).
* **Fleet stacks** -- B fleet replays that share only (workload,
  fleet size, queueing flag) become ``(B, N, T)`` tensors; governor,
  routing, autoscaler and off-power are per-row data on the batch
  axis, so a tuner rung that varies them runs as one group per fleet
  size.  The autoscaler's power-state machine depends only on a row's
  (trace, autoscaler) pair, so it runs once per distinct pair; it runs
  its one-step body only at steps where some fleet can change state (a
  node boots, or the load leaves the band with a new desired count)
  and jumps over the quiet stretches between them with a vectorized
  forward search, so its Python work grows with scaling events, not
  trace length.  Routing runs once per distinct routing on its rows;
  ``pack``'s sequential fill carries no state from one step to the
  next, so it walks the N nodes in id order over whole ``(B, T)``
  arrays.  Memoryless governors select once per distinct governor over
  their rows' serving cells.  ``least_loaded``'s frequency-coupled
  weights and the ``conservative`` governor stay step-sequential
  *within* a replay, so those rows advance together in one T loop of
  ``(B, N)`` slices, each governor's step kernel on its own rows.
  Queueing tails go through the deduplicating closed-form
  :func:`~repro.kernels.fleet.tail_latencies` kernel once per chunk.
  A group runs in chunks of at most ``_GROUP_CELLS`` (row, node, step)
  cells, and a chunk keeps only compact per-cell tensors (power
  states, wake events, grid indices, routed shares): a row's eleven
  per-node columns are derived on demand.
* **Summaries** -- per-replay scalar summaries are axis-1 reductions
  over exact-length row blocks (rows grouped by trace length, because
  reducing a zero-padded row would change pairwise-summation order and
  break bit parity).

Everything is bit-for-bit identical to B independent single-replay
kernel calls -- every cell sees the same float operations in the same
order, so the same floats, ints and NaN/inf placement -- which
are themselves pinned against the object-based reference path, so the
batch engine inherits the golden fixtures' guarantees transitively.

:class:`BatchReplayRunner` is the user-facing entry point: a list of
:class:`ReplaySpec` in, columnar per-replay summaries (and lazily
materialized :class:`ReplayResult` / :class:`FleetResult` objects)
out.  Specs whose exact (governor, routing, autoscaler) types have no
kernel -- custom subclasses -- fall back to the per-replay simulator
path, exactly like the single-replay dispatch.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.resilience import (
    FailedSummary,
    SpecError,
    check_on_error,
    classify,
    fault_point,
)
from repro.resilience.chaos import active_plan
from repro.dvfs.governors import Governor, governor_by_name
from repro.dvfs.replay import ReplayResult
from repro.dvfs.trace import LoadTrace
from repro.fleet.autoscaler import Autoscaler
from repro.fleet.disturbance import DisturbanceSchedule
from repro.fleet.node import NodeState
from repro.fleet.result import FleetResult
from repro.fleet.routing import (
    LeastLoadedRouting,
    RoundRobinRouting,
    RoutingPolicy,
    SpreadRouting,
    router_by_name,
)
from repro.kernels import fleet as fleet_kernel
from repro.kernels.governors import (
    has_kernel,
    is_memoryless_kernel,
    select_batch_trace_indices,
    select_step_indices,
)
from repro.kernels.table import FrequencyTable
from repro.utils.validation import check_non_negative
from repro.workloads.base import WorkloadCharacteristics

_OFF = int(NodeState.OFF)
_BOOTING = int(NodeState.BOOTING)
_SERVING = int(NodeState.SERVING)


# -- the spec ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReplaySpec:
    """One replay of a batch: what to run, on what, with which policies.

    ``fleet_size=None`` is a single-server governor replay (routing,
    autoscaler and off-power must stay unset); a fleet replay needs an
    explicit routing.  Governors and routings accept registry names or
    policy instances, exactly like the simulators.
    """

    workload: WorkloadCharacteristics
    trace: LoadTrace
    governor: Union[Governor, str] = "qos_tracker"
    fleet_size: Optional[int] = None
    routing: Union[RoutingPolicy, str, None] = None
    autoscaler: Optional[Autoscaler] = None
    off_power_w: float = 0.0
    queueing: bool = True
    disturbances: Optional[DisturbanceSchedule] = None

    def __post_init__(self) -> None:
        # A string such as "no" would read as true; NumPy bools come
        # from sweeps and are stored as plain bools.
        if not isinstance(self.queueing, (bool, np.bool_)):
            raise SpecError(
                f"replay spec: queueing must be a bool, "
                f"got {self.queueing!r} ({type(self.queueing).__name__})"
            )
        object.__setattr__(self, "queueing", bool(self.queueing))
        # True would count as 1 W.
        if isinstance(self.off_power_w, (bool, np.bool_)) or not isinstance(
            self.off_power_w, numbers.Real
        ):
            raise SpecError(
                f"replay spec: off_power_w must be a real number, "
                f"got {self.off_power_w!r} "
                f"({type(self.off_power_w).__name__})"
            )
        if self.fleet_size is None:
            if self.routing is not None:
                raise SpecError(
                    "a routing policy needs a fleet_size; single-server "
                    "replays have no routing"
                )
            if self.autoscaler is not None:
                raise SpecError(
                    "an autoscaler needs a fleet_size; single-server "
                    "replays have no autoscaler"
                )
            if self.off_power_w != 0.0:
                raise SpecError(
                    "off_power_w needs a fleet_size; single-server "
                    "replays have no parked servers"
                )
            if self.disturbances is not None:
                raise SpecError(
                    "a disturbance schedule needs a fleet_size; "
                    "single-server replays have no fleet to disturb"
                )
            return
        # A float or bool size would only fail deep inside NumPy; an
        # integer from a NumPy sweep is stored as a plain int.
        if isinstance(self.fleet_size, (bool, np.bool_)) or not isinstance(
            self.fleet_size, numbers.Integral
        ):
            raise SpecError(
                f"replay spec: fleet_size must be an int or None, "
                f"got {self.fleet_size!r} "
                f"({type(self.fleet_size).__name__})"
            )
        object.__setattr__(self, "fleet_size", int(self.fleet_size))
        if self.fleet_size < 1:
            raise SpecError(
                f"fleet_size must be >= 1, got {self.fleet_size}"
            )
        if self.routing is None:
            raise SpecError("a fleet replay needs a routing policy")
        # NaN slips through the < 0 comparison below, so reject
        # non-finite power explicitly before it reaches the kernels.
        if not math.isfinite(self.off_power_w):
            raise SpecError(
                f"replay spec: off_power_w must be finite, "
                f"got {self.off_power_w}"
            )
        check_non_negative("off_power_w", self.off_power_w)
        if (
            self.autoscaler is not None
            and self.autoscaler.min_servers > self.fleet_size
        ):
            raise SpecError(
                f"autoscaler min_servers ({self.autoscaler.min_servers}) "
                f"exceeds the fleet size ({self.fleet_size})"
            )

    @property
    def is_fleet(self) -> bool:
        """True when this spec replays a multi-server fleet."""
        return self.fleet_size is not None


def unique_specs(
    specs: Sequence[ReplaySpec],
) -> Tuple[List[ReplaySpec], List[int]]:
    """Deduplicate a spec list, preserving first-seen order.

    Distinct parameter combinations can materialise into identical
    replays -- a pack fill fraction under a non-pack routing, a wake
    latency on a fleet that never autoscales -- and evaluating the
    duplicates would only repeat work.  Returns ``(unique, index_map)``
    where ``unique`` keeps the first occurrence of each spec and
    ``index_map[i]`` is the row in ``unique`` that position ``i`` of
    the input maps to, so callers can scatter batched summaries back to
    their original positions.  Specs compare by value
    (:class:`ReplaySpec` is a frozen dataclass), so two equal specs are
    guaranteed to replay identically.
    """
    unique: List[ReplaySpec] = []
    index_map: List[int] = []
    rows: Dict[ReplaySpec, int] = {}
    for spec in specs:
        row = rows.get(spec)
        if row is None:
            row = len(unique)
            rows[spec] = row
            unique.append(spec)
        index_map.append(row)
    return unique, index_map


# -- shared padding helpers -------------------------------------------------------------


def _padded_utilization(
    traces: Sequence[LoadTrace], steps: Optional[int] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Stack trace utilisations into (B, steps), zero-padded rows.

    ``steps`` defaults to the longest trace.
    """
    lengths = np.array([len(trace) for trace in traces], dtype=np.int64)
    if steps is None:
        steps = int(lengths.max())
    util2d = np.zeros((len(traces), steps), dtype=np.float64)
    for row, trace in enumerate(traces):
        util2d[row, : lengths[row]] = np.asarray(
            trace.utilization, dtype=np.float64
        )
    return util2d, lengths


def _length_groups(lengths: np.ndarray):
    """Yield (length, row-index array) pairs, one per distinct length."""
    for length in np.unique(lengths):
        yield int(length), np.nonzero(lengths == length)[0]


def _rows_by(values: Sequence) -> Dict[object, List[int]]:
    """Row indices per distinct value, in first-seen order."""
    rows: Dict[object, List[int]] = {}
    for row, value in enumerate(values):
        rows.setdefault(value, []).append(row)
    return rows


def _row_index(rows: List[int]) -> Union[slice, List[int]]:
    """``rows`` as a slice when they form one ascending run.

    Indexing with the slice takes views, where the row list would copy
    the rows' tensors; the runner orders a chunk's rows so that the
    rows of the step loop form such a run.
    """
    if rows == list(range(rows[0], rows[0] + len(rows))):
        return slice(rows[0], rows[0] + len(rows))
    return rows


def _row_mask(batch: int, rows: List[int]) -> np.ndarray:
    """A (batch,) mask that is True on ``rows``."""
    mask = np.zeros(batch, dtype=bool)
    mask[rows] = True
    return mask


# -- single-server batches --------------------------------------------------------------


class GovernorReplayBatch:
    """B single-server replays of one governor stacked into (B, T).

    Row ``b`` of every column tensor, sliced to its trace length, is
    bit-identical to ``governor_replay_columns(table, governor,
    traces[b])``.
    """

    def __init__(
        self,
        table: FrequencyTable,
        governor: Governor,
        traces: Sequence[LoadTrace],
        workload: Optional[WorkloadCharacteristics] = None,
    ):
        self.table = table
        self.governor = governor
        self.traces = list(traces)
        self.workload = workload
        util2d, self.lengths = _padded_utilization(self.traces)
        demand2d = util2d * table.nominal_capacity_uips
        idx2d = select_batch_trace_indices(governor, table, util2d)
        power2d = table.power_w[idx2d]
        capacity2d = table.capacity_uips[idx2d]
        qos_ok2d = table.qos_ok[idx2d]
        demand_met2d = table.covers_capacity_uips[idx2d] >= demand2d
        step_seconds = np.array(
            [trace.step_seconds for trace in self.traces], dtype=np.float64
        )
        self.columns: Dict[str, np.ndarray] = {
            "utilization": util2d,
            "frequency_hz": table.frequencies_hz[idx2d],
            "power_w": power2d,
            "energy_j": power2d * step_seconds[:, np.newaxis],
            "demand_uips": demand2d,
            "capacity_uips": capacity2d,
            "served_uips": np.minimum(demand2d, capacity2d),
            "qos_metric": table.qos_metric[idx2d],
            "qos_ok": qos_ok2d,
            "demand_met": demand_met2d,
            "violation": ~(qos_ok2d & demand_met2d),
        }

    def __len__(self) -> int:
        return len(self.traces)

    @property
    def nbytes(self) -> int:
        """Bytes held by the batch's retained tensors."""
        return sum(tensor.nbytes for tensor in self.columns.values())

    def columns_for(self, row: int) -> Dict[str, np.ndarray]:
        """One replay's column dict (rows sliced to the trace length)."""
        trace = self.traces[row]
        length = len(trace)
        out: Dict[str, np.ndarray] = {
            "step": np.arange(length, dtype=np.int64),
            "time_s": trace.times(),
        }
        for name, tensor in self.columns.items():
            out[name] = tensor[row, :length]
        return out

    def result(self, row: int) -> ReplayResult:
        """Materialize one replay as a full :class:`ReplayResult`."""
        if self.workload is None:
            raise ValueError(
                "this batch was built without a workload; results and "
                "summaries are unavailable"
            )
        trace = self.traces[row]
        return ReplayResult(
            governor_name=self.governor.name,
            workload_name=self.workload.name,
            trace_name=trace.name,
            step_seconds=trace.step_seconds,
            instructions_per_request=self.workload.instructions_per_request,
            columns=self.columns_for(row),
        )

    def summaries(self) -> List[Dict[str, object]]:
        """Per-replay scalar summaries, computed columnar.

        Key-for-key and bit-for-bit what ``ReplayResult.summary()``
        returns for each replay: the reductions run as axis-1 passes
        over exact-length row blocks, which NumPy evaluates with the
        same pairwise order as the per-replay 1-D reductions.
        """
        if self.workload is None:
            raise ValueError(
                "this batch was built without a workload; results and "
                "summaries are unavailable"
            )
        instructions = self.workload.instructions_per_request
        out: List[Optional[Dict[str, object]]] = [None] * len(self.traces)
        for length, rows in _length_groups(self.lengths):
            block = {
                name: self.columns[name][rows][:, :length]
                for name in (
                    "energy_j",
                    "power_w",
                    "frequency_hz",
                    "served_uips",
                    "violation",
                )
            }
            energy_sum = block["energy_j"].sum(axis=1)
            power_mean = block["power_w"].mean(axis=1)
            frequency_mean = block["frequency_hz"].mean(axis=1)
            sorted_freq = np.sort(block["frequency_hz"], axis=1)
            if length > 1:
                distinct = 1 + (np.diff(sorted_freq, axis=1) != 0).sum(axis=1)
            else:
                distinct = np.ones(len(rows), dtype=np.int64)
            served_sum = block["served_uips"].sum(axis=1)
            violations = block["violation"].sum(axis=1)
            for position, row in enumerate(rows.tolist()):
                trace = self.traces[row]
                total_energy = float(energy_sum[position])
                served = served_sum[position] * trace.step_seconds
                work = float(served / 1.0e9)
                requests = (
                    None if instructions <= 0 else float(served / instructions)
                )
                violation_count = int(violations[position])
                out[row] = {
                    "governor": self.governor.name,
                    "workload": self.workload.name,
                    "trace": trace.name,
                    "steps": length,
                    "step_seconds": trace.step_seconds,
                    "total_energy_j": total_energy,
                    "mean_power_w": float(power_mean[position]),
                    "mean_frequency_hz": float(frequency_mean[position]),
                    "distinct_frequencies": int(distinct[position]),
                    "total_giga_instructions": work,
                    "energy_per_giga_instruction_j": (
                        total_energy / work if work > 0 else None
                    ),
                    "total_requests": requests,
                    "energy_per_request_j": (
                        None
                        if requests is None or requests <= 0
                        else total_energy / requests
                    ),
                    "violation_count": violation_count,
                    "violation_fraction": (
                        violation_count / length if length else 0.0
                    ),
                }
        return out  # type: ignore[return-value]


# -- fleet batches ----------------------------------------------------------------------

# Steps in the first forward-search window after an event; each quiet
# window doubles the next one.
_FIRST_WINDOW = 16

# Cells (rows x fleet size x longest trace) in one fleet chunk: a
# group's rows run in chunks of at most this many, so merging policies
# into one group never grows the engine's working set.
_GROUP_CELLS = 1 << 19

# Bytes per (row, node, step) cell the engine may hold for one row,
# rounded up: tracemalloc peaks of one-row builds over every governor x
# routing x autoscaler trio are 51-78, and materializing the row's
# per-node columns adds ~60 more.  Sizes the refusal of a row that
# cannot fit.
_CELL_BYTES = 128


def _desired_active_batch(
    mass: np.ndarray, fleet_size: int, autoscaler: Autoscaler
) -> np.ndarray:
    """Vector twin of :meth:`Autoscaler.desired_active`, elementwise."""
    needed = np.ceil(mass / autoscaler.target - 1e-12).astype(np.int64)
    desired = np.maximum(
        autoscaler.min_servers, np.minimum(fleet_size, needed)
    )
    return np.where(mass <= 0.0, autoscaler.min_servers, desired)


def _out_of_band(
    mass: np.ndarray, capacity: np.ndarray, autoscaler: Autoscaler
) -> np.ndarray:
    """Where utilisation over ``capacity`` nodes leaves the band.

    The one-step body and the forward search share this predicate, so
    a step the search skips sees the same float operations the body
    would have run on it.
    """
    utilization = np.where(
        capacity > 0, mass / np.maximum(capacity, 1), np.inf
    )
    return (utilization > autoscaler.high) | (utilization < autoscaler.low)


def _timeline_step(
    mass: np.ndarray,
    states: np.ndarray,
    boot: np.ndarray,
    fleet_size: int,
    autoscaler: Autoscaler,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """One autoscaler step for all B fleets: ``(states, boot, woken)``.

    (B, N) array ops that mirror ``_resolve_states``'s scalar pass:
    boots first, then one scaling decision (lowest-id off nodes wake,
    booting nodes park before the highest-id serving nodes).
    ``woken`` is the (B, N) wake mask, or None when nothing woke.
    """
    booting = states == _BOOTING
    if booting.any():
        boot = boot - booting.astype(np.int64)
        done = booting & (boot <= 0)
        states = np.where(done, np.int8(_SERVING), states)
        boot = np.where(done, 0, boot)
    serving = states == _SERVING
    booting = states == _BOOTING
    off = states == _OFF
    n_serving = serving.sum(axis=1)
    n_booting = booting.sum(axis=1)
    active = n_serving + n_booting
    # Serving capacity, falling back to booting capacity during a cold
    # start (mirrors Autoscaler.scale's utilisation fix).
    capacity = np.where(n_serving > 0, n_serving, n_booting)
    desired = np.where(
        _out_of_band(mass, capacity, autoscaler),
        _desired_active_batch(mass, fleet_size, autoscaler),
        active,
    )
    delta = desired - active
    wake_quota = np.maximum(delta, 0)
    wake = None
    if wake_quota.any():
        # Rank each off node by how many off nodes have a lower id: the
        # lowest-ranked `quota` of them wake.
        off_rank = np.cumsum(off, axis=1) - off.astype(np.int64)
        wake = off & (off_rank < wake_quota[:, np.newaxis])
        if autoscaler.wake_steps <= 0:
            states = np.where(wake, np.int8(_SERVING), states)
        else:
            states = np.where(wake, np.int8(_BOOTING), states)
            boot = np.where(wake, autoscaler.wake_steps, boot)
    # Boot grace (mirrors Autoscaler.scale): no parking unless the
    # desired count undercuts even the serving set.
    park_quota = np.where(desired < n_serving, np.maximum(-delta, 0), 0)
    if park_quota.any():
        # Candidates in park order: booting nodes by descending id,
        # then serving nodes by descending id.  A node's rank is the
        # number of candidates ahead of it.
        higher_boot = (
            booting[:, ::-1].cumsum(axis=1)[:, ::-1]
            - booting.astype(np.int64)
        )
        higher_serving = (
            serving[:, ::-1].cumsum(axis=1)[:, ::-1]
            - serving.astype(np.int64)
        )
        park = (booting & (higher_boot < park_quota[:, np.newaxis])) | (
            serving
            & (
                (n_booting[:, np.newaxis] + higher_serving)
                < park_quota[:, np.newaxis]
            )
        )
        states = np.where(park, np.int8(_OFF), states)
        boot = np.where(park, 0, boot)
    return states, boot, wake


def _event_steps(
    mass2d: np.ndarray,
    states: np.ndarray,
    fleet_size: int,
    autoscaler: Autoscaler,
) -> np.ndarray:
    """(B, W) mask of the steps :func:`_timeline_step` would act on.

    Valid only while no node boots: then capacity is the serving (=
    active) count, and a step changes a fleet's state exactly when its
    utilisation leaves the band with a desired count other than the
    active one -- the same predicate, with the same float operations,
    as the one-step body.
    """
    active = (states == _SERVING).sum(axis=1)[:, np.newaxis]
    return _out_of_band(mass2d, active, autoscaler) & (
        _desired_active_batch(mass2d, fleet_size, autoscaler) != active
    )


def _batched_state_timeline(
    mass2d: np.ndarray, fleet_size: int, autoscaler: Optional[Autoscaler]
) -> Tuple[np.ndarray, np.ndarray]:
    """The autoscaler state machine over all B replays, event to event.

    Returns ``(state3d, wake3d)`` of shape (B, N, T).  A step can change
    a fleet's state only while a node boots or when its utilisation
    leaves the band with a desired count other than the active one;
    every other step repeats the previous states.  So the loop runs
    :func:`_timeline_step` at those event steps only.  Between them it
    searches forward for the next event in windows that double while
    they stay quiet, and broadcasts the held states over the skipped
    steps.  Across a batch the next event is the earliest over all
    rows, so a wide batch whose rows' events interleave steps nearly
    every step, as a per-step loop would.  Python iterations grow with
    the number of events, and the search reads each (row, step) cell
    a bounded number of times.  Skipped steps are exactly the steps on
    which the one-step body changes nothing, so the timeline is
    bit-identical to stepping every step.  ``batch.timeline_steps``
    counts the one-step bodies run.
    """
    batch, steps = mass2d.shape
    if autoscaler is None:
        # No scaling: every node serves every step, nothing ever wakes.
        return (
            np.full((batch, fleet_size, steps), _SERVING, dtype=np.int8),
            np.zeros((batch, fleet_size, steps), dtype=bool),
        )
    initially_serving = _desired_active_batch(
        mass2d[:, 0], fleet_size, autoscaler
    )
    node_ids = np.arange(fleet_size, dtype=np.int64)
    states = np.where(
        node_ids[np.newaxis, :] < initially_serving[:, np.newaxis],
        _SERVING,
        _OFF,
    ).astype(np.int8)
    boot = np.zeros((batch, fleet_size), dtype=np.int64)
    state3d = np.empty((batch, fleet_size, steps), dtype=np.int8)
    wake3d = np.zeros((batch, fleet_size, steps), dtype=bool)
    window = _FIRST_WINDOW
    step = 0
    bodies = 0
    while step < steps:
        if not (states == _BOOTING).any():
            stop = min(step + window, steps)
            events = _event_steps(
                mass2d[:, step:stop], states, fleet_size, autoscaler
            ).any(axis=0)
            if not events.any():
                state3d[:, :, step:stop] = states[:, :, np.newaxis]
                step = stop
                window *= 2
                continue
            event = step + int(events.argmax())
            state3d[:, :, step:event] = states[:, :, np.newaxis]
            step = event
            window = _FIRST_WINDOW
        states, boot, woken = _timeline_step(
            mass2d[:, step], states, boot, fleet_size, autoscaler
        )
        if woken is not None:
            wake3d[:, :, step] = woken
        state3d[:, :, step] = states
        bodies += 1
        step += 1
    obs.count("batch.timeline_steps", bodies)
    return state3d, wake3d


def _row_timelines(
    fleet_size: int,
    traces: Sequence[LoadTrace],
    autoscalers: Sequence[Optional[Autoscaler]],
    steps: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's power-state timeline: ``(state3d, wake3d, index)``.

    A timeline depends only on the row's (trace, autoscaler) pair --
    never on governor, routing or off-power -- so it is computed once
    per distinct pair: one :func:`_batched_state_timeline` call per
    distinct autoscaler, over that autoscaler's distinct traces padded
    to ``steps``.  Row ``b``'s timeline is ``state3d[index[b]]``.
    ``batch.timeline_cache_misses`` counts the timelines computed and
    ``batch.timeline_cache_hits`` the rows that reuse one.
    """
    pairs: Dict[tuple, int] = {}
    index = np.array(
        [
            pairs.setdefault(pair, len(pairs))
            for pair in zip(traces, autoscalers)
        ],
        dtype=np.int64,
    )
    unique = list(pairs)
    state3d = np.empty((len(unique), fleet_size, steps), dtype=np.int8)
    wake3d = np.empty((len(unique), fleet_size, steps), dtype=bool)
    for autoscaler, members in _rows_by(
        [autoscaler for _, autoscaler in unique]
    ).items():
        util2d, _ = _padded_utilization(
            [unique[member][0] for member in members], steps
        )
        state3d[members], wake3d[members] = _batched_state_timeline(
            util2d * fleet_size, fleet_size, autoscaler
        )
    obs.count("batch.timeline_cache_misses", len(unique))
    obs.count("batch.timeline_cache_hits", len(index) - len(unique))
    return state3d, wake3d, index


def _batched_even_split(
    mass2d: np.ndarray, target3d: np.ndarray, valid2d: np.ndarray
) -> np.ndarray:
    """``mass / |targets|`` on the target mask, zero elsewhere."""
    counts2d = target3d.sum(axis=1)
    if np.any((counts2d == 0) & valid2d):
        raise ValueError(fleet_kernel._NO_ACTIVE_NODE)
    safe = np.where(counts2d == 0, 1, counts2d)
    return np.where(
        target3d, (mass2d / safe)[:, np.newaxis, :], 0.0
    )


def _batched_pack_shares(
    routing, mass2d, serving3d, active3d, valid2d
) -> np.ndarray:
    """Pack's sequential fill, batched: loop nodes, vectorize (B, T).

    Pack carries no state from one step to the next, so every
    (replay, step) cell fills independently.  The spill arithmetic is
    order-dependent float subtraction, so the fill walks nodes in id
    order exactly like the scalar loop -- but each walk step updates
    all (B, T) remainders at once.  Subtracting a zero take is
    float-exact, so cells that already drained (the scalar loop's
    ``break``) pass through unchanged, and the overflow lands only on
    the target cells, so every share sees the scalar loop's float
    operations in the same order.
    """
    serving_any2d = serving3d.any(axis=1)
    targets3d = np.where(
        serving_any2d[:, np.newaxis, :], serving3d, active3d
    )
    counts2d = targets3d.sum(axis=1)
    if np.any((counts2d == 0) & valid2d):
        raise ValueError(fleet_kernel._NO_ACTIVE_NODE)
    shares3d = np.zeros(serving3d.shape, dtype=np.float64)
    fill = routing.fill_fraction
    remaining = mass2d.copy()
    for node in range(serving3d.shape[1]):
        eligible = targets3d[:, node, :] & (remaining > 0.0)
        take = np.where(eligible, np.minimum(fill, remaining), 0.0)
        shares3d[:, node, :] = take
        remaining = remaining - take
    overflowing = remaining > 0.0
    if overflowing.any():
        extra = np.where(
            overflowing, remaining / np.maximum(counts2d, 1), 0.0
        )
        np.add(
            shares3d,
            extra[:, np.newaxis, :],
            out=shares3d,
            where=targets3d,
        )
    return shares3d


def _batched_shares(
    routing: RoutingPolicy,
    mass2d: np.ndarray,
    serving3d: np.ndarray,
    active3d: np.ndarray,
    valid2d: np.ndarray,
) -> np.ndarray:
    """One stateless routing's (B, N, T) shares (not ``least_loaded``)."""
    routing_type = type(routing)
    if routing_type is RoundRobinRouting:
        return _batched_even_split(mass2d, active3d, valid2d)
    if routing_type is SpreadRouting:
        serving_counts = serving3d.sum(axis=1)
        target3d = np.where(
            (serving_counts > 0)[:, np.newaxis, :], serving3d, active3d
        )
        return _batched_even_split(mass2d, target3d, valid2d)
    return _batched_pack_shares(
        routing, mass2d, serving3d, active3d, valid2d
    )


def _batched_sequential_selection(
    table: FrequencyTable,
    governors: Sequence[Governor],
    least_loaded: int,
    mass2d: np.ndarray,
    serving3d: np.ndarray,
    active3d: np.ndarray,
    wake3d: np.ndarray,
    shares3d: np.ndarray,
    idx3d: np.ndarray,
    valid2d: np.ndarray,
) -> None:
    """Step-at-a-time selection, vectorized across batch and fleet.

    The batched twin of ``_sequential_selection``: ``least_loaded``
    weights couple to the previous step's frequencies and the
    ``conservative`` governor to each node's own previous choice, so
    the T axis stays a loop -- but each step is (B, N) array math.
    The first ``least_loaded`` rows route least-loaded inside the loop
    (the other rows' shares are already routed); then each distinct
    governor's step kernel runs on its own rows' serving cells.  Every
    row sees the float operations of a batch of its policy alone.
    """
    batch, fleet_size, steps = serving3d.shape
    nominal_capacity = table.nominal_capacity_uips
    capacities = table.capacity_uips
    kernels = [
        (
            governor,
            None
            if len(rows) == batch
            else _row_mask(batch, rows)[:, np.newaxis],
        )
        for governor, rows in _rows_by(governors).items()
    ]
    loaded = slice(0, least_loaded)
    previous = np.full(
        (batch, fleet_size), table.nominal_index, dtype=np.int64
    )
    for step in range(steps):
        woken = wake3d[:, :, step]
        if woken.any():
            previous[woken] = table.nominal_index
        if least_loaded:
            serving = serving3d[loaded, :, step]
            targets = np.where(
                serving.any(axis=1)[:, np.newaxis],
                serving,
                active3d[loaded, :, step],
            )
            if np.any(~targets.any(axis=1) & valid2d[loaded, step]):
                raise ValueError(fleet_kernel._NO_ACTIVE_NODE)
            weights = np.where(
                targets, capacities[previous[loaded]] / nominal_capacity, 0.0
            )
            # Accumulate in ascending node order (adding the zero
            # weight of a non-target is float-exact), mirroring the
            # scalar loop's sequential addition.
            total = np.zeros(least_loaded, dtype=np.float64)
            for node in range(fleet_size):
                total = total + weights[:, node]
            fallback = total <= 0.0
            if fallback.any():
                counts = targets.sum(axis=1)
                weights = np.where(
                    fallback[:, np.newaxis] & targets, 1.0, weights
                )
                total = np.where(
                    fallback,
                    np.maximum(counts, 1).astype(np.float64),
                    total,
                )
            shares3d[loaded, :, step] = np.where(
                targets,
                mass2d[loaded, step][:, np.newaxis]
                * (weights / total[:, np.newaxis]),
                0.0,
            )
        serving = serving3d[:, :, step]
        for governor, mask in kernels:
            cells = serving if mask is None else serving & mask
            if cells.any():
                utilization = shares3d[:, :, step][cells]
                chosen = select_step_indices(
                    governor,
                    table,
                    utilization,
                    utilization * nominal_capacity,
                    previous[cells],
                )
                idx3d[:, :, step][cells] = chosen
                previous[cells] = chosen


def _batched_worst_tails(
    table: FrequencyTable,
    workload: WorkloadCharacteristics,
    serving3d: np.ndarray,
    shares3d: np.ndarray,
    idx3d: np.ndarray,
) -> np.ndarray:
    """Per (replay, step): the worst loaded node's tail, NaN if none.

    Tails are never -inf, so a step whose max is still -inf had no
    loaded node with a defined (non-NaN) tail.
    """
    loaded = serving3d & (shares3d > 0.0)
    demand = shares3d[loaded]
    demand *= table.nominal_capacity_uips
    tails = fleet_kernel.tail_latencies(
        table, workload, idx3d[loaded], demand
    )
    del demand
    candidates = np.full(shares3d.shape, -np.inf, dtype=np.float64)
    candidates[loaded] = np.where(np.isnan(tails), -np.inf, tails)
    worst = candidates.max(axis=1)
    return np.where(worst == -np.inf, np.nan, worst)


def _node_columns(
    table: FrequencyTable,
    state: np.ndarray,
    idx: np.ndarray,
    shares: np.ndarray,
    wake: np.ndarray,
    off_power_w,
    wake_energy_j,
    step_seconds,
) -> Dict[str, np.ndarray]:
    """The eleven per-node columns, derived from the compact tensors.

    ``state``/``idx``/``shares``/``wake`` share one shape and the three
    per-row values broadcast against it, so the same elementwise
    expressions serve one node of a whole batch (``(B, T)``, reduced
    into fleet columns) and every node of one row (``(N, T)``,
    :meth:`FleetReplayBatch.columns_for`).
    """
    serving = state == _SERVING
    power = np.where(
        serving,
        table.power_w[idx],
        np.where(state == _BOOTING, table.power_w[0], off_power_w),
    )
    demand = shares * table.nominal_capacity_uips
    capacity = np.where(serving, table.capacity_uips[idx], 0.0)
    qos_ok = np.where(serving, table.qos_ok[idx], True)
    demand_met = np.where(
        serving,
        table.covers_capacity_uips[idx] >= demand,
        demand <= 0.0,
    )
    return {
        "state": state,
        "frequency_hz": np.where(serving, table.frequencies_hz[idx], np.nan),
        "power_w": power,
        "energy_j": power * step_seconds + np.where(wake, wake_energy_j, 0.0),
        "demand_uips": demand,
        "capacity_uips": capacity,
        "served_uips": np.where(serving, np.minimum(demand, capacity), 0.0),
        "qos_metric": np.where(serving, table.qos_metric[idx], np.nan),
        "qos_ok": qos_ok,
        "demand_met": demand_met,
        "violation": ~(qos_ok & demand_met),
    }


class FleetReplayBatch:
    """B fleet replays of one fleet size stacked into (B, N, T).

    The rows share only (table, workload, fleet size, queueing flag).
    Governor, routing, autoscaler and off-power are per-row data on the
    batch axis:

    * ``timeline`` is the rows' ``(state3d, wake3d)`` power states and
      wake events, resolved by :func:`_row_timelines` once per distinct
      (trace, autoscaler) pair -- the runner resolves a whole group's
      once for all of its chunks;
    * routing runs once per distinct routing, on that routing's rows;
    * rows that carry no state between steps (a memoryless governor
      under any routing but ``least_loaded``) select once per distinct
      governor, over their rows' serving cells;
    * rows that do (``conservative`` rows and every ``least_loaded``
      row) advance together in one step loop, each governor's step
      kernel on its own rows.

    The batch keeps only compact per-cell tensors -- power states
    (int8), wake events (bool), grid indices and routed shares -- plus
    the (B, T) fleet columns, reduced one node at a time;
    :meth:`columns_for` derives a row's eleven per-node columns on
    demand.  Row ``b``, sliced to its trace length, is bit-identical to
    ``fleet_replay_columns`` on row ``b``'s own policies and trace.
    """

    def __init__(
        self,
        table: FrequencyTable,
        workload: WorkloadCharacteristics,
        fleet_size: int,
        traces: Sequence[LoadTrace],
        governors: Sequence[Governor],
        routings: Sequence[RoutingPolicy],
        autoscalers: Sequence[Optional[Autoscaler]],
        off_power_w: Sequence[float],
        use_queueing: bool,
        timeline: Tuple[np.ndarray, np.ndarray],
    ):
        self.table = table
        self.workload = workload
        self.fleet_size = fleet_size
        self.traces = list(traces)
        self.governors = list(governors)
        self.routings = list(routings)
        self.autoscalers = list(autoscalers)
        util2d, self.lengths = _padded_utilization(self.traces)
        batch, steps = util2d.shape
        mass2d = util2d * fleet_size
        valid2d = (
            np.arange(steps, dtype=np.int64)[np.newaxis, :]
            < self.lengths[:, np.newaxis]
        )
        nominal_capacity = table.nominal_capacity_uips
        self.off_power_w = np.array(off_power_w, dtype=np.float64)
        self.wake_energy_j = np.array(
            [
                0.0 if autoscaler is None else autoscaler.wake_energy_j
                for autoscaler in self.autoscalers
            ],
            dtype=np.float64,
        )
        self.step_seconds = np.array(
            [trace.step_seconds for trace in self.traces], dtype=np.float64
        )
        self.state3d, self.wake3d = timeline
        serving3d = self.state3d == _SERVING
        active3d = serving3d | (self.state3d == _BOOTING)

        # Grid indices in the narrowest dtype that holds them (one byte
        # for grids of up to 256 points).
        self.idx3d = np.full(
            (batch, fleet_size, steps),
            table.nominal_index,
            dtype=np.min_scalar_type(len(table) - 1),
        )
        self.shares3d = np.zeros((batch, fleet_size, steps), dtype=np.float64)
        least_loaded: List[int] = []
        conservative: List[int] = []
        memoryless: Dict[Governor, List[int]] = {}
        routed: Dict[RoutingPolicy, List[int]] = {}
        for row, (governor, routing) in enumerate(
            zip(self.governors, self.routings)
        ):
            if type(routing) is LeastLoadedRouting:
                # least_loaded's weights couple to the previous step's
                # frequencies, so its routing runs inside the step loop.
                least_loaded.append(row)
                continue
            routed.setdefault(routing, []).append(row)
            if is_memoryless_kernel(governor):
                memoryless.setdefault(governor, []).append(row)
            else:
                conservative.append(row)
        if routed:
            with obs.trace("batch.routing"):
                for routing, rows in routed.items():
                    index = _row_index(rows)
                    self.shares3d[index] = _batched_shares(
                        routing,
                        mass2d[index],
                        serving3d[index],
                        active3d[index],
                        valid2d[index],
                    )
        with obs.trace("batch.selection"):
            for governor, rows in memoryless.items():
                cells = serving3d
                if len(rows) < batch:
                    cells = cells & _row_mask(batch, rows)[
                        :, np.newaxis, np.newaxis
                    ]
                utilization = self.shares3d[cells]
                self.idx3d[cells] = select_step_indices(
                    governor,
                    table,
                    utilization,
                    utilization * nominal_capacity,
                    self.idx3d[cells],
                )
            stepped = least_loaded + conservative
            if stepped:
                index = _row_index(stepped)
                shares = self.shares3d[index]
                idx = self.idx3d[index]
                _batched_sequential_selection(
                    table,
                    [self.governors[row] for row in stepped],
                    len(least_loaded),
                    mass2d[index],
                    serving3d[index],
                    active3d[index],
                    self.wake3d[index],
                    shares,
                    idx,
                    valid2d[index],
                )
                if not isinstance(index, slice):
                    # A gathered copy: scatter the results back.
                    self.shares3d[index] = shares
                    self.idx3d[index] = idx

        with obs.trace("batch.tails"):
            if use_queueing:
                tails2d = _batched_worst_tails(
                    table, workload, serving3d, self.shares3d, self.idx3d
                )
                qos_limit = workload.qos_limit_seconds
                queue_ok2d = np.isnan(tails2d) | (
                    tails2d <= qos_limit + 1e-12
                )
            else:
                tails2d = np.full((batch, steps), np.nan)
                queue_ok2d = np.ones((batch, steps), dtype=bool)

        with obs.trace("batch.reduce"):
            # One node at a time, in id order: the sums accumulate in
            # the reference loop's float-addition order, and only one
            # node's (B, T) columns are alive at once.
            served2d = np.zeros((batch, steps), dtype=np.float64)
            power2d = np.zeros((batch, steps), dtype=np.float64)
            energy2d = np.zeros((batch, steps), dtype=np.float64)
            demand_met2d = np.ones((batch, steps), dtype=bool)
            # Per-step node counts in the narrowest dtype that holds
            # the fleet size; columns_for widens them to int64.
            count = np.min_scalar_type(fleet_size)
            node_violations2d = np.zeros((batch, steps), dtype=count)
            for node in range(fleet_size):
                node_columns = _node_columns(
                    table,
                    self.state3d[:, node],
                    self.idx3d[:, node],
                    self.shares3d[:, node],
                    self.wake3d[:, node],
                    self.off_power_w[:, np.newaxis],
                    self.wake_energy_j[:, np.newaxis],
                    self.step_seconds[:, np.newaxis],
                )
                served2d += node_columns["served_uips"]
                power2d += node_columns["power_w"]
                energy2d += node_columns["energy_j"]
                demand_met2d &= node_columns["demand_met"]
                node_violations2d += node_columns["violation"]
            serving_counts2d = serving3d.sum(axis=1, dtype=count)
            booting_counts2d = (self.state3d == _BOOTING).sum(
                axis=1, dtype=count
            )
            self.fleet_columns: Dict[str, np.ndarray] = {
                "utilization": util2d,
                "offered_uips": mass2d * nominal_capacity,
                "served_uips": served2d,
                "total_power_w": power2d,
                "energy_j": energy2d,
                "tail_latency_s": tails2d,
                "active_servers": serving_counts2d + booting_counts2d,
                "serving_servers": serving_counts2d,
                "booting_servers": booting_counts2d,
                "used_servers": (serving3d & (self.shares3d > 0.0)).sum(
                    axis=1, dtype=count
                ),
                "wake_events": self.wake3d.sum(axis=1, dtype=count),
                "node_violations": node_violations2d,
                "queue_ok": queue_ok2d,
                "demand_met": demand_met2d,
                "violation": node_violations2d > 0,
            }

    def __len__(self) -> int:
        return len(self.traces)

    @property
    def nbytes(self) -> int:
        """Bytes held by the batch's retained tensors."""
        return sum(
            array.nbytes
            for array in (
                self.state3d,
                self.idx3d,
                self.shares3d,
                self.wake3d,
                *self.fleet_columns.values(),
            )
        )

    def columns_for(
        self, row: int
    ) -> Tuple[Dict[str, np.ndarray], Dict[int, Dict[str, np.ndarray]]]:
        """One replay's (fleet, per-node) column dicts, length-sliced."""
        trace = self.traces[row]
        length = len(trace)
        fleet: Dict[str, np.ndarray] = {
            "step": np.arange(length, dtype=np.int64),
            "time_s": trace.times(),
        }
        for name, tensor in self.fleet_columns.items():
            column = tensor[row, :length]
            fleet[name] = (
                column.astype(np.int64) if column.dtype.kind == "u" else column
            )
        node_columns = _node_columns(
            self.table,
            self.state3d[row, :, :length],
            self.idx3d[row, :, :length],
            self.shares3d[row, :, :length],
            self.wake3d[row, :, :length],
            self.off_power_w[row],
            self.wake_energy_j[row],
            self.step_seconds[row],
        )
        nodes = {
            node: {name: column[node] for name, column in node_columns.items()}
            for node in range(self.fleet_size)
        }
        return fleet, nodes

    def result(self, row: int) -> FleetResult:
        """Materialize one replay as a full :class:`FleetResult`."""
        trace = self.traces[row]
        fleet, nodes = self.columns_for(row)
        return FleetResult(
            routing_name=self.routings[row].name,
            governor_name=self.governors[row].name,
            workload_name=self.workload.name,
            trace_name=trace.name,
            fleet_size=self.fleet_size,
            step_seconds=trace.step_seconds,
            instructions_per_request=self.workload.instructions_per_request,
            autoscaled=self.autoscalers[row] is not None,
            columns=fleet,
            node_columns=nodes,
        )

    def summaries(self) -> List[Dict[str, object]]:
        """Per-replay scalar summaries, bit-equal to FleetResult's."""
        with obs.trace("batch.reduce"):
            return self._reduce_summaries()

    def _reduce_summaries(self) -> List[Dict[str, object]]:
        instructions = self.workload.instructions_per_request
        columns = self.fleet_columns
        out: List[Optional[Dict[str, object]]] = [None] * len(self.traces)
        for length, rows in _length_groups(self.lengths):
            def block(name: str) -> np.ndarray:
                return columns[name][rows][:, :length]

            energy_sum = block("energy_j").sum(axis=1)
            power_mean = block("total_power_w").mean(axis=1)
            active_mean = block("active_servers").mean(axis=1)
            serving_block = block("serving_servers")
            serving_mean = serving_block.mean(axis=1)
            peak_serving = serving_block.max(axis=1)
            used_mean = block("used_servers").mean(axis=1)
            wake_sum = block("wake_events").sum(axis=1)
            served_sum = block("served_uips").sum(axis=1)
            offered_sum = block("offered_uips").sum(axis=1)
            violations = block("violation").sum(axis=1)
            queue_violations = (~block("queue_ok")).sum(axis=1)
            tails = block("tail_latency_s")
            finite = np.isfinite(tails)
            has_finite = finite.any(axis=1)
            finite_max = np.where(finite, tails, -np.inf).max(axis=1)
            saturated = np.isinf(tails).sum(axis=1)
            for position, row in enumerate(rows.tolist()):
                trace = self.traces[row]
                total_energy = float(energy_sum[position])
                offered = float(offered_sum[position])
                served = served_sum[position] * trace.step_seconds
                work = float(served / 1.0e9)
                requests = (
                    None if instructions <= 0 else float(served / instructions)
                )
                duration = trace.step_seconds * length
                violation_count = int(violations[position])
                out[row] = {
                    "routing": self.routings[row].name,
                    "governor": self.governors[row].name,
                    "workload": self.workload.name,
                    "trace": trace.name,
                    "fleet_size": self.fleet_size,
                    "autoscaled": self.autoscalers[row] is not None,
                    "steps": length,
                    "step_seconds": trace.step_seconds,
                    "total_energy_j": total_energy,
                    "mean_power_w": float(power_mean[position]),
                    "mean_active_servers": float(active_mean[position]),
                    "mean_serving_servers": float(serving_mean[position]),
                    "mean_used_servers": float(used_mean[position]),
                    "peak_serving_servers": int(peak_serving[position]),
                    "wake_count": int(wake_sum[position]),
                    "served_fraction": (
                        1.0
                        if offered <= 0.0
                        else float(served_sum[position]) / offered
                    ),
                    "total_giga_instructions": work,
                    "energy_per_giga_instruction_j": (
                        total_energy / work if work > 0 else None
                    ),
                    "total_requests": requests,
                    "mean_qps": (
                        None
                        if requests is None or duration <= 0
                        else requests / duration
                    ),
                    "energy_per_request_j": (
                        None
                        if requests is None or requests <= 0
                        else total_energy / requests
                    ),
                    "violation_count": violation_count,
                    "violation_fraction": (
                        violation_count / length if length else 0.0
                    ),
                    "queue_violation_count": int(queue_violations[position]),
                    "saturated_step_count": int(saturated[position]),
                    "max_tail_latency_s": (
                        float(finite_max[position])
                        if has_finite[position]
                        else None
                    ),
                }
        return out  # type: ignore[return-value]


# -- the user-facing runner -------------------------------------------------------------


def _spec_identity(position: int, spec: ReplaySpec) -> str:
    """A short human-readable identity for one replay of a batch."""
    governor = (
        spec.governor
        if isinstance(spec.governor, str)
        else getattr(spec.governor, "name", type(spec.governor).__name__)
    )
    detail = f"{spec.workload.name}/{governor}"
    if spec.is_fleet:
        detail += f"/fleet{spec.fleet_size}"
    return f"replay {position} ({detail})"


def _quarantined_placement(
    position: int, spec: ReplaySpec, error: Exception
) -> tuple:
    """A ``"failed"`` placement capturing one isolated replay fault."""
    fault = classify(error, identity=_spec_identity(position, spec))
    return ("failed", FailedSummary.from_fault(fault), fault)


def _step_order(governor: Governor, routing: RoutingPolicy) -> int:
    """Where a policy's rows go in a chunk: the step loop's rows first.

    ``least_loaded`` rows (0), then the other carried-state rows (1),
    then the memoryless rows (2); so the step loop's rows form one run
    with its ``least_loaded`` rows leading, as
    :func:`_batched_sequential_selection` wants them.
    """
    if type(routing) is LeastLoadedRouting:
        return 0
    return 2 if is_memoryless_kernel(governor) else 1


def _chunks(lengths: Sequence[int], fleet_size: int) -> Iterator[List[int]]:
    """Cut rows, in order, into chunks of at most :data:`_GROUP_CELLS`.

    A chunk's cells are its rows x ``fleet_size`` x its longest trace;
    every chunk holds at least one row, so a row larger than the budget
    runs alone.
    """
    chunk: List[int] = []
    longest = 0
    for row, length in enumerate(lengths):
        grown = max(longest, length)
        if chunk and (len(chunk) + 1) * fleet_size * grown > _GROUP_CELLS:
            yield chunk
            chunk, grown = [], length
        chunk.append(row)
        longest = grown
    if chunk:
        yield chunk


def _place(batch, positions: List[int], placements: List[Optional[tuple]]):
    """Record ``batch``'s rows at their submission positions."""
    obs.count("batch.groups")
    obs.count("batch.group_rows", len(positions))
    for row, position in enumerate(positions):
        placements[position] = ("batch", batch, row)
    return batch


def _physical_memory_bytes() -> Optional[int]:
    """The machine's physical memory, or None where it cannot be read."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return None


def _check_row_fits(
    position: int, spec: ReplaySpec, limit: Optional[int]
) -> None:
    """Refuse a fleet row whose tensors alone would exceed ``limit``."""
    steps = len(spec.trace)
    estimate = spec.fleet_size * steps * _CELL_BYTES
    if limit is not None and estimate > limit:
        raise SpecError(
            f"{_spec_identity(position, spec)}: one fleet row of "
            f"{spec.fleet_size} nodes x {steps} steps needs about "
            f"{estimate} bytes ({_CELL_BYTES} per node-step), more than "
            f"the {limit} bytes of physical memory"
        )


class BatchReplayResult:
    """The outcome of one batched run: B replays, columnar access.

    :meth:`summaries` is the cheap bulk product (computed columnar,
    no per-replay objects); :meth:`result` materializes any single
    replay as a full :class:`ReplayResult` / :class:`FleetResult` on
    demand.

    Placements come in three kinds: ``"batch"`` (a row of a tensor
    batch), ``"object"`` (a materialized simulator-path result) and --
    only under ``on_error="quarantine"`` -- ``"failed"`` (a
    :class:`~repro.resilience.FailedSummary` holding the slot of a
    replay whose failure was isolated).  Failed slots keep submission
    order stable: :meth:`summaries` yields the placeholder,
    :meth:`result` re-raises the captured fault.
    """

    def __init__(self, specs, placements):
        self._specs = specs
        self._placements = placements
        self._summaries: Optional[List[Dict[str, object]]] = None

    def __len__(self) -> int:
        return len(self._specs)

    @property
    def specs(self) -> List[ReplaySpec]:
        """The specs, in submission order."""
        return list(self._specs)

    @property
    def batched_count(self) -> int:
        """Replays that ran through the tensor engine."""
        return sum(
            1 for kind, *_ in self._placements if kind == "batch"
        )

    @property
    def fallback_count(self) -> int:
        """Replays that fell back to the per-replay simulator path."""
        return sum(
            1 for kind, *_ in self._placements if kind == "object"
        )

    @property
    def quarantined_count(self) -> int:
        """Replays whose failures were isolated (quarantine mode only)."""
        return sum(
            1 for kind, *_ in self._placements if kind == "failed"
        )

    def quarantined(self) -> List[Tuple[int, FailedSummary]]:
        """``(index, FailedSummary)`` for every quarantined replay."""
        return [
            (index, placement[1])
            for index, placement in enumerate(self._placements)
            if placement[0] == "failed"
        ]

    def result(self, index: int):
        """Replay ``index`` as a ReplayResult or FleetResult.

        A quarantined replay has no result: the captured fault is
        re-raised here so the loss cannot pass silently.
        """
        kind, payload, extra = self._placements[index]
        if kind == "batch":
            return payload.result(extra)
        if kind == "failed":
            raise extra
        return payload

    def results(self) -> List[object]:
        """Every replay materialized, in submission order."""
        return [self.result(index) for index in range(len(self))]

    def summaries(self) -> List[Dict[str, object]]:
        """Per-replay scalar summaries, in submission order.

        Bit-for-bit what ``result(i).summary()`` returns, computed as
        columnar reductions over the batch tensors (cached).
        Quarantined slots carry their
        :class:`~repro.resilience.FailedSummary` placeholder instead
        of a summary dict.
        """
        if self._summaries is None:
            per_batch: Dict[int, List[Dict[str, object]]] = {}
            summaries = []
            for kind, payload, row in self._placements:
                if kind == "batch":
                    key = id(payload)
                    if key not in per_batch:
                        per_batch[key] = payload.summaries()
                    summaries.append(per_batch[key][row])
                elif kind == "failed":
                    summaries.append(payload)
                else:
                    summaries.append(payload.summary())
            self._summaries = summaries
        return list(self._summaries)


class BatchReplayRunner:
    """Spec list in, columnar per-replay summaries out.

    Groups single-server specs by (workload, governor) and fleet specs
    by (workload, fleet size, queueing) -- a fleet's governor, routing,
    autoscaler and off-power are per-row data -- and runs each group
    as tensor batches: a fleet group in chunks of at most
    ``_GROUP_CELLS`` cells, with equal policies side by side.  Specs
    whose exact policy types have no kernel (custom subclasses) fall
    back to the per-replay simulator path -- the same dispatch rule the
    single-replay simulators apply.  A fleet row whose tensors alone
    would exceed physical memory is refused with a
    :class:`~repro.resilience.SpecError` before anything is built.

    ``on_error="raise"`` (the default) fails the whole run on the
    first bad spec, exactly as before.  ``on_error="quarantine"``
    isolates failures instead: a failing replay becomes a
    :class:`~repro.resilience.FailedSummary` slot in the result, a
    failing *group* build degrades to the per-member simulator path
    (which is bit-identical, so nothing is lost), and the rest of the
    batch completes untouched -- per-row bit parity with the
    fault-free run is pinned by the chaos property tests.
    """

    def __init__(self, context, frequencies=None, on_error="raise"):
        self.context = context
        self.frequencies = frequencies
        self.on_error = check_on_error(on_error)

    # -- resolution --------------------------------------------------------------------

    def _table(self, workload: WorkloadCharacteristics) -> FrequencyTable:
        return self.context.frequency_table(workload, self.frequencies)

    @staticmethod
    def _resolve_governor(governor: Union[Governor, str]) -> Governor:
        if isinstance(governor, str):
            return governor_by_name(governor)
        return governor

    @staticmethod
    def _resolve_routing(
        routing: Union[RoutingPolicy, str]
    ) -> RoutingPolicy:
        if isinstance(routing, str):
            return router_by_name(routing)
        return routing

    @staticmethod
    def _use_queueing(spec: ReplaySpec) -> bool:
        return (
            spec.queueing
            and spec.workload.is_scale_out
            and spec.workload.instructions_per_request > 0
        )

    # -- execution ---------------------------------------------------------------------

    def run(self, specs: Sequence[ReplaySpec]) -> BatchReplayResult:
        """Evaluate every spec; batched where possible, exact always."""
        specs = list(specs)
        for spec in specs:
            if not isinstance(spec, ReplaySpec):
                raise TypeError(
                    f"BatchReplayRunner needs ReplaySpec items, "
                    f"got {type(spec).__name__}"
                )
        with obs.trace("batch.run", batch_size=len(specs)) as span:
            result = self._run(specs)
            span.set(
                batched=result.batched_count,
                fallback=result.fallback_count,
            )
            if result.quarantined_count:
                span.set(quarantined=result.quarantined_count)
        obs.count("batch.batched_replays", result.batched_count)
        obs.count("batch.fallback_replays", result.fallback_count)
        if result.quarantined_count:
            obs.count("resilience.quarantined", result.quarantined_count)
        return result

    def _run(self, specs: List[ReplaySpec]) -> BatchReplayResult:
        quarantine = self.on_error == "quarantine"
        # Building 1000 identity strings just to feed an unarmed chaos
        # hook is measurable on large batches; skip the per-spec
        # fault_point entirely unless a plan is installed.
        chaos_armed = active_plan() is not None
        memory_limit = _physical_memory_bytes()
        placements: List[Optional[tuple]] = [None] * len(specs)
        single_groups: Dict[tuple, List[int]] = {}
        fleet_groups: Dict[tuple, List[tuple]] = {}
        for position, spec in enumerate(specs):
            try:
                if chaos_armed:
                    fault_point(
                        "batch.replay",
                        identity=_spec_identity(position, spec),
                    )
                governor = self._resolve_governor(spec.governor)
                if spec.is_fleet:
                    _check_row_fits(position, spec, memory_limit)
                    routing = self._resolve_routing(spec.routing)
                    # Disturbance schedules stay per-replay: the batched
                    # (B, N, T) state machine has no event timeline, so
                    # they replay through the simulator path (which still
                    # dispatches crash/restore schedules to the
                    # single-replay kernel, bit-for-bit).
                    if spec.disturbances is None and fleet_kernel.supports(
                        routing, governor, spec.autoscaler
                    ):
                        key = (
                            spec.workload,
                            spec.fleet_size,
                            self._use_queueing(spec),
                        )
                        fleet_groups.setdefault(key, []).append(
                            (position, governor, routing)
                        )
                    else:
                        placements[position] = (
                            "object",
                            self._fallback(spec),
                            0,
                        )
                else:
                    if has_kernel(governor):
                        key = (spec.workload, governor)
                        single_groups.setdefault(key, []).append(position)
                    else:
                        placements[position] = (
                            "object",
                            self._fallback(spec),
                            0,
                        )
            except Exception as error:
                if not quarantine:
                    raise
                placements[position] = _quarantined_placement(
                    position, specs[position], error
                )
        batches = []
        for (workload, governor), positions in single_groups.items():
            try:
                fault_point(
                    "batch.group",
                    identity=f"group ({workload.name}, {governor.name})",
                )
                batch = GovernorReplayBatch(
                    self._table(workload),
                    governor,
                    [specs[position].trace for position in positions],
                    workload=workload,
                )
            except Exception:
                if not quarantine:
                    raise
                # A failed group build loses nothing: the per-replay
                # simulator path is bit-identical, so degrade every
                # member to it (quarantining only members that fail
                # even there).
                self._degrade_group(specs, positions, placements)
                continue
            batches.append(_place(batch, positions, placements))
        for (workload, fleet_size, use_queueing), members in (
            fleet_groups.items()
        ):
            batches.extend(
                self._run_fleet_group(
                    specs,
                    workload,
                    fleet_size,
                    use_queueing,
                    members,
                    placements,
                )
            )
        if batches and obs.is_enabled():
            # A high-water mark: a capture spanning several runs keeps
            # the largest batch any of them built.
            obs.gauge(
                "batch.peak_group_bytes",
                max(
                    obs.gauges_snapshot().get("batch.peak_group_bytes", 0),
                    *(batch.nbytes for batch in batches),
                ),
            )
        return BatchReplayResult(specs, placements)

    def _run_fleet_group(
        self,
        specs: List[ReplaySpec],
        workload: WorkloadCharacteristics,
        fleet_size: int,
        use_queueing: bool,
        members: List[tuple],
        placements: List[Optional[tuple]],
    ) -> List["FleetReplayBatch"]:
        """One (workload, fleet size, queueing) group, chunk by chunk.

        ``members`` are ``(position, governor, routing)`` triples.
        Equal policies are put side by side before the rows are cut
        into chunks of at most :data:`_GROUP_CELLS` cells, and the
        group's power-state timelines are resolved once for all of its
        chunks.  Returns the batches built.
        """
        quarantine = self.on_error == "quarantine"
        policies: Dict[tuple, int] = {}
        keyed = []
        for member in members:
            position, governor, routing = member
            spec = specs[position]
            policy = (governor, routing, spec.autoscaler, spec.off_power_w)
            keyed.append(
                (
                    _step_order(governor, routing),
                    policies.setdefault(policy, len(policies)),
                    member,
                )
            )
        keyed.sort(key=lambda item: item[:2])
        members = [member for _, _, member in keyed]
        traces = [specs[position].trace for position, _, _ in members]
        autoscalers = [specs[position].autoscaler for position, _, _ in members]
        lengths = [len(trace) for trace in traces]
        try:
            with obs.trace("batch.timeline"):
                state3d, wake3d, index = _row_timelines(
                    fleet_size, traces, autoscalers, max(lengths)
                )
        except Exception:
            if not quarantine:
                raise
            self._degrade_group(
                specs, [position for position, _, _ in members], placements
            )
            return []
        batches = []
        for rows in _chunks(lengths, fleet_size):
            positions = [members[row][0] for row in rows]
            steps = max(lengths[row] for row in rows)
            try:
                fault_point(
                    "batch.group",
                    identity=(
                        f"group ({workload.name}, fleet {fleet_size}, "
                        f"rows {rows[0]}-{rows[-1]})"
                    ),
                )
                batch = FleetReplayBatch(
                    self._table(workload),
                    workload,
                    fleet_size,
                    [traces[row] for row in rows],
                    [members[row][1] for row in rows],
                    [members[row][2] for row in rows],
                    [autoscalers[row] for row in rows],
                    [specs[position].off_power_w for position in positions],
                    use_queueing,
                    timeline=(
                        state3d[index[rows], :, :steps],
                        wake3d[index[rows], :, :steps],
                    ),
                )
            except Exception:
                if not quarantine:
                    raise
                self._degrade_group(specs, positions, placements)
                continue
            batches.append(_place(batch, positions, placements))
        return batches

    def _degrade_group(
        self,
        specs: List[ReplaySpec],
        positions: List[int],
        placements: List[Optional[tuple]],
    ) -> None:
        """Re-run a failed group's members through the simulator path."""
        for position in positions:
            try:
                placements[position] = (
                    "object",
                    self._fallback(specs[position]),
                    0,
                )
            except Exception as error:
                placements[position] = _quarantined_placement(
                    position, specs[position], error
                )

    def _fallback(self, spec: ReplaySpec):
        """One unsupported spec through the per-replay simulator path."""
        if spec.is_fleet:
            from repro.fleet.simulator import FleetSimulator

            simulator = FleetSimulator(
                self.context,
                spec.workload,
                fleet_size=spec.fleet_size,
                governor=spec.governor,
                autoscaler=spec.autoscaler,
                frequencies=self.frequencies,
                off_power_w=spec.off_power_w,
                queueing=spec.queueing,
            )
            return simulator.run(
                spec.trace, spec.routing, disturbances=spec.disturbances
            )
        from repro.dvfs.simulator import GovernorSimulator

        simulator = GovernorSimulator(
            self.context, spec.workload, frequencies=self.frequencies
        )
        return simulator.replay(spec.trace, spec.governor)
