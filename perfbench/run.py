"""The repository's benchmark: one workload, one seed, one result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper_dse --seed 1 --seconds 15 --trace 0

The workload runs in a child process (``worker.py``, single threaded,
``PYTHONPATH=src``).  Set-up is timed from process start to the first
pass being ready, in ``SETUP_SAMPLES`` fresh processes, and reported as
their median.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with ``--trace 1`` the per-layer ones, and the
traced run's RunReport (every per-layer number of the workload in its
``meta``) is written to ``perfbench/reports/<workload>.json``.  The
lines before it print every metric by name and unit.  See
``perfbench/README.md`` for the workloads and what each one measures.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
WORKLOADS = ("paper_dse", "tune_fleet", "month_fleet", "wide_batch")
SETUP_SAMPLES = 5
# Nominal time of the worker's reference loop: pass rates are rescaled
# to a host on which that loop takes this long.
REFERENCE_SPIN_S = 0.030
WORKER_TIMEOUT_S = 170.0
# Per-layer numbers every workload reports (BENCHMARK.json ``per_layer``);
# the workload-specific ones go to the RunReport and the printout.
COMMON_LAYERS = (
    "setup.import_s",
    "setup.inputs_s",
    "sweep.context_build_s",
    "trace_overhead_frac",
)
UNITS = {"_s": "s", "_mb": "MB", "_frac": "ratio", "_ratio": "ratio"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


class Worker:
    """One worker process: started, read line by line, always reaped."""

    def __init__(self, args, setup_only: bool, deadline: float) -> None:
        command = [
            sys.executable,
            str(HERE / "worker.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if setup_only:
            command.append("--setup-only")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SOURCE)] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[name] = "1"
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=str(ROOT), env=env, stdout=subprocess.PIPE, text=True
        )
        # A hung worker is killed at the run's deadline, which also ends
        # any blocked read of its output.
        self.watchdog = threading.Timer(
            max(0.0, deadline - self.started), self.process.kill
        )
        self.watchdog.start()

    def read(self, tag: str) -> dict:
        """The payload of the next ``tag`` line; raises if none comes."""
        for line in self.process.stdout:
            if line.startswith(tag + " "):
                return json.loads(line[len(tag) + 1:])
        raise RuntimeError(f"worker ended without a {tag} line")

    def close(self) -> int:
        try:
            return self.process.wait()
        finally:
            self.watchdog.cancel()
            self.process.stdout.close()


def set_up(args, setup_only: bool, deadline: float):
    """Start a worker and wait for READY: (worker, set-up seconds, phases)."""
    worker = Worker(args, setup_only, deadline)
    try:
        phases = worker.read("READY")
    except BaseException:
        worker.process.kill()
        worker.close()
        raise
    return worker, time.perf_counter() - worker.started, phases


def tail_percentile(samples):
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    count = len(ordered)
    percentile = (100 * (count - 10)) // count if count > 10 else 0
    if percentile < 50:
        return None
    return percentile, ordered[-(count * (100 - percentile) // 100) - 1]


def run(args) -> dict:
    deadline = time.perf_counter() + WORKER_TIMEOUT_S
    setups, phases = [], []
    for _ in range(SETUP_SAMPLES - 1):
        worker, seconds, phase = set_up(args, True, deadline)
        if worker.close() != 0:
            raise RuntimeError("set-up worker failed")
        setups.append(seconds)
        phases.append(phase)
    worker, seconds, phase = set_up(args, False, deadline)
    setups.append(seconds)
    phases.append(phase)
    try:
        result = worker.read("RESULT")
    finally:
        code = worker.close()
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    result["setup_s"] = statistics.median(setups)
    result["setup_samples"] = setups
    result["phases"] = {
        key: statistics.median(p[key] for p in phases) for key in phases[0]
    }
    return result


def pass_rates(result) -> tuple:
    """Operations per second over the timed passes: (raw, reference speed).

    The reference-speed rate multiplies the raw one by the reference
    loop's median time over its nominal time.  A slow spell of the host
    lowers the raw rate and lengthens the loop together, so their
    product moves much less than the raw rate.
    """
    raw = sum(result["ops"]) / sum(result["pass_s"])
    speed = statistics.median(result["spin_s"]) / REFERENCE_SPIN_S
    return raw, raw * speed


def end_to_end(result) -> dict:
    return {
        "setup_s": {"value": result["setup_s"], "unit": "s"},
        "ops_per_ref_s": {"value": pass_rates(result)[1], "unit": "1/s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(args, result) -> dict:
    from repro.obs import RunReport, validate_report

    layers = {**result["phases"], **result["layers"]}
    report = result["report"]
    report["meta"]["per_layer"] = layers
    validate_report(report)
    out = HERE / "reports" / f"{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(RunReport.from_dict(report).to_json() + "\n")
    print(f"run report: {out.relative_to(ROOT)}")
    for name, value in sorted(layers.items()):
        print(f"  {name:34s} {value:.6g} {unit_of(name)}")
    return {
        name: {"value": layers[name], "unit": unit_of(name)}
        for name in COMMON_LAYERS
    }


def print_end_to_end(args, result, metrics) -> None:
    passes = result["pass_s"]
    print(
        f"{args.workload} seed {args.seed}: {len(passes)} passes, median pass "
        f"{statistics.median(passes):.4f} s, set-up median of "
        f"{len(result['setup_samples'])}, reference loop median "
        f"{statistics.median(result['spin_s']) * 1e3:.2f} ms "
        f"(nominal {REFERENCE_SPIN_S * 1e3:.0f} ms)"
    )
    tail = tail_percentile(passes)
    if tail is None:
        print("  pass tail: none (needs more than 10 passes for a p50 or higher)")
    else:
        print(f"  pass p{tail[0]}: {tail[1]:.4f} s")
    unit = result["op_unit"]
    extra = result.get("extra_rates", {})
    rows = [
        ("setup_s", metrics["setup_s"]["value"], "s"),
        (f"{unit}_per_s", pass_rates(result)[0], "1/s"),
        (f"{unit}_per_ref_s", metrics["ops_per_ref_s"]["value"], "1/s"),
        *((name, value, rate_unit) for name, (value, rate_unit) in extra.items()),
        ("peak_rss_mb", metrics["peak_rss_mb"]["value"], "MB"),
        ("failed_frac", result["failed"] / result["attempted"], "ratio"),
    ]
    for name, value, unit in rows:
        print(f"  {name:22s} {value:.6g} {unit}")
    if result["oracle_failed"]:
        print(f"  oracle mismatches: {', '.join(result['oracle_failed'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"benchmark: no program to measure at {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))

    result = run(args)
    if args.trace:
        metrics = per_layer(args, result)
    else:
        metrics = end_to_end(result)
        print_end_to_end(args, result, metrics)
    failed = result["failed"]
    line = {
        "correct": failed == 0 and not result["oracle_failed"],
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
