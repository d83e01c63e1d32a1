"""One benchmark workload, run in its own single-threaded process.

``run.py`` starts this script and reads two lines from its standard
output: ``READY {...}`` once set-up is done (imports, seeded inputs,
warm model context) and ``RESULT {...}`` at the end.  Between them the
worker runs one untimed warm-up pass, whose outputs are the baseline,
then closed-loop passes for ``--seconds``.  Every pass is checked: its
per-operation fingerprints must equal the baseline's, and the baseline
must agree with the workload's oracle.

With ``--trace 1`` untraced and traced passes alternate; each traced
pass runs inside ``obs.capture()`` and yields a RunReport, from which
the per-layer numbers and the tracing overhead are computed.
``--setup-only`` stops after ``READY``, so the caller can time set-up
several times.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from repro import obs  # noqa: E402
from repro.obs import RunReport  # noqa: E402

from workloads import WORKLOADS, span_self_times  # noqa: E402

IMPORTED = time.perf_counter()

MIN_PASSES = 3
SPIN_ITERATIONS = 300_000


def spin() -> float:
    """Seconds this host takes for a fixed pure-Python reference loop.

    The host is shared and its speed drifts by tens of percent within
    minutes; timing this loop between passes measures that drift, so
    ``run.py`` can rescale the run's rate to a reference host speed.
    """
    started = time.perf_counter()
    total = 0
    for value in range(SPIN_ITERATIONS):
        total += value * value
    return time.perf_counter() - started


def emit(tag: str, payload: dict) -> None:
    print(f"{tag} {json.dumps(payload, allow_nan=False)}", flush=True)


def timed_pass(workload):
    """One pass: (seconds, output); output is None when the pass raised."""
    started = time.perf_counter()
    try:
        output = workload.run_pass()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        output = None
    return time.perf_counter() - started, output


def count_failures(baseline, outputs, oracle_failed):
    """(attempted, failed) operations over every checked pass."""
    attempted = failed = 0
    for output in outputs:
        items = {} if output is None else output.items
        keys = set(baseline.items) | set(items)
        attempted += len(keys)
        failed += sum(
            1
            for key in keys
            if items.get(key) != baseline.items.get(key) or key in oracle_failed
        )
    return attempted, failed


def median_metrics(samples):
    """Per-key median over a list of metric dicts."""
    keys = sorted({key for sample in samples for key in sample})
    return {
        key: statistics.median(sample[key] for sample in samples if key in sample)
        for key in keys
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    workload = WORKLOADS[args.workload](args.seed)
    generated = time.perf_counter()
    phases = {
        "setup.import_s": IMPORTED - STARTED,
        "setup.inputs_s": generated - started,
        **workload.warm(),
    }
    emit("READY", phases)
    if args.setup_only:
        return 0

    _, baseline = timed_pass(workload)
    if baseline is None:
        return 1
    untraced, traced, spins = [], [], [spin()]
    deadline = time.perf_counter() + args.seconds
    while (
        time.perf_counter() < deadline
        or len(untraced) < MIN_PASSES
        or (args.trace and len(traced) < MIN_PASSES)
    ):
        untraced.append(timed_pass(workload))
        spins.append(spin())
        if args.trace:
            with obs.capture() as capture:
                seconds, output = timed_pass(workload)
            traced.append((seconds, output, capture.report()))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    outputs = [output for _, output in untraced]
    outputs += [output for _, output, _ in traced]
    oracle_failed = workload.oracle_failures(baseline.raw)
    attempted, failed = count_failures(baseline, outputs, oracle_failed)
    ok_passes = [seconds for seconds, output in untraced if output is not None]
    result = {
        "attempted": attempted,
        "failed": failed,
        "oracle_failed": sorted(oracle_failed),
        "pass_s": ok_passes,
        "ops": [output.ops for _, output in untraced if output is not None],
        "spin_s": spins,
        "peak_rss_mb": peak_rss_mb,
        "op_unit": workload.op_unit,
    }
    if ok_passes:
        result["extra_rates"] = workload.extra_rates(sum(ok_passes) / len(ok_passes))
    if args.trace:
        layers = median_metrics(
            [
                workload.layer_metrics(report, report.counters)
                for _, output, report in traced
                if output is not None
            ]
        )
        layers.update(workload.probes())
        traced_s = statistics.median(seconds for seconds, _, _ in traced)
        layers["trace_overhead_frac"] = traced_s / statistics.median(ok_passes) - 1.0
        layers["traced_pass_s"] = traced_s
        reports = [report for _, _, report in traced]
        report = RunReport.merge(
            reports,
            meta={
                "workload": args.workload,
                "seed": args.seed,
                "traced_passes": len(reports),
                "self_time_s": median_metrics(
                    [span_self_times(report) for report in reports]
                ),
            },
        )
        result["layers"] = layers
        result["report"] = report.to_dict()
    emit("RESULT", result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
