"""Self-tests of the benchmark itself (not of the program it measures).

Run from the repository root::

    python3 perfbench/selftest.py

Checks, for every workload:

* seeds: the same seed generates identical inputs and another seed
  generates different ones;
* oracle: one pass of the unmodified program has no failed operation,
  and one pass with a summary value moved by a single ulp has some
  (``failed_frac > 0``).

Exits 0 when every check holds, 1 otherwise.
"""

import dataclasses
import math
import sys
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from repro.kernels.batch import BatchReplayResult  # noqa: E402
from repro.sweep import SweepRunner  # noqa: E402

from worker import count_failures  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bump(value: float) -> float:
    """The next float above ``value``: the smallest possible error."""
    return math.nextafter(value, math.inf)


@contextmanager
def patched(owner, name: str, wrap):
    """Temporarily replace ``owner.name`` with ``wrap(original)``."""
    original = owner.__dict__[name]
    setattr(owner, name, wrap(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


@contextmanager
def perturbed_replays():
    """Every replay summary's energy one ulp high."""

    def wrap(summaries):
        def perturbed(self):
            return [
                {**row, "total_energy_j": bump(row["total_energy_j"])}
                for row in summaries(self)
            ]

        return perturbed

    with patched(BatchReplayResult, "summaries", wrap):
        yield


@contextmanager
def perturbed_dse():
    """Every DSE summary's best efficiency one ulp high."""

    def shift(summary):
        if summary.best_qos_respecting_efficiency is None:
            return summary
        return dataclasses.replace(
            summary,
            best_qos_respecting_efficiency=bump(
                summary.best_qos_respecting_efficiency
            ),
        )

    def wrap_one(original):
        return staticmethod(lambda *args: shift(original.__func__(*args)))

    def wrap_many(original):
        return lambda self, *args: [shift(s) for s in original(self, *args)]

    with patched(SweepRunner, "summarize_workload", wrap_one), patched(
        SweepRunner, "summarize", wrap_many
    ):
        yield


PERTURBATIONS = {
    "paper_dse": perturbed_dse,
    "tune_fleet": perturbed_replays,
    "month_fleet": perturbed_replays,
    "wide_batch": perturbed_replays,
}


def checked_pass(workload) -> tuple:
    """(attempted, failed) of one pass checked against the oracle."""
    output = workload.run_pass()
    return count_failures(output, [output], workload.oracle_failures(output.raw))


def inputs(name: str, seed: int) -> str:
    workload = WORKLOADS[name](seed)
    workload.warm()
    return workload.inputs_digest()


def main() -> int:
    problems = []
    for name in WORKLOADS:
        if inputs(name, 11) != inputs(name, 11):
            problems.append(f"{name}: seed 11 generated different inputs twice")
        if inputs(name, 11) == inputs(name, 12):
            problems.append(f"{name}: seeds 11 and 12 generated the same inputs")

        workload = WORKLOADS[name](11)
        workload.warm()
        attempted, failed = checked_pass(workload)
        if failed:
            problems.append(f"{name}: {failed}/{attempted} failed on unmodified code")
        with PERTURBATIONS[name]():
            attempted, failed = checked_pass(workload)
        if not failed:
            problems.append(f"{name}: the oracle missed a one-ulp perturbation")
        print(f"{name}: seeds ok, oracle caught {failed}/{attempted}", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
