"""Benchmark helpers and the committed performance-baseline scheme.

The repository's benchmarks (``benchmarks/``) run under pytest-benchmark;
this module adds the machinery that turns their one-off timings into a
*recorded perf trajectory*:

* :func:`run_once` -- the shared harness used by every benchmark body
  (timed via ``benchmark.pedantic``; ``REPRO_BENCH_ROUNDS`` raises the
  round count when noise matters, e.g. in CI).  It also stamps the
  machine's :func:`calibration_seconds` into the benchmark's
  ``extra_info`` so the emitted JSON is self-normalising.
* :func:`record_baseline` -- condenses a ``pytest-benchmark
  --benchmark-json`` result file into a small committed baseline
  (``benchmarks/baseline/BENCH_<tag>.json``).
* :func:`compare_to_baseline` -- compares a fresh result file against the
  committed baseline and fails on regressions beyond a tolerance.

Cross-machine normalisation
---------------------------
Absolute wall-clock times do not transfer between a laptop and a CI
runner, so the gate compares *calibration-normalised* means: each
benchmark's mean is divided by the time the same machine needs for a
fixed pure-Python workload (:func:`calibration_seconds`).  The ratio is a
dimensionless "how many calibration units does this benchmark cost"
figure that is stable across machines of similar architecture; the
tolerance (default 30%) absorbs the rest.

Command line
------------
``python -m repro.benchmarking record <results.json> <baseline.json>``
    Write/update the committed baseline from a fresh result file.

``python -m repro.benchmarking compare <results.json> <baseline.json>``
    Exit non-zero if any benchmark regressed by more than the tolerance.
    ``--allow-regression`` (or the documented CI override label, which
    sets it) reports but does not fail -- for PRs that intentionally
    trade speed for something else, alongside a baseline re-record.

``python -m repro.benchmarking report <results.json> <trajectory.json> --label L``
    Append (or refresh) one labeled entry of the *cumulative perf
    trajectory* (``BENCH_trajectory.json``): per benchmark, the mean,
    its calibration-normalised cost and -- for benchmarks that declare a
    replication count via ``run_once(..., replications=N)`` -- the
    replications-per-second throughput.  One entry per PR turns the
    committed baselines' before/after pairs into a readable history of
    how fast the solvers have become.
"""

from __future__ import annotations

import argparse
import json
import os
import time
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

#: Version of the committed baseline file format.
BASELINE_SCHEMA = 1

#: Default relative regression tolerance of the CI gate.
DEFAULT_TOLERANCE = 0.30

_calibration_cache: Optional[float] = None


class BaselineError(RuntimeError):
    """Raised on malformed baseline/result files."""


def _calibration_workload() -> int:
    """A fixed, allocation-light pure-Python workload (~tens of ms)."""
    total = 0
    for i in range(150_000):
        total = (total + i * i) & 0xFFFFFFFF
    values = [(i * 2654435761) & 0xFFFFFF for i in range(40_000)]
    values.sort()
    return total ^ values[0] ^ values[-1]


def calibration_seconds(rounds: int = 3) -> float:
    """Best-of-``rounds`` wall-clock time of the calibration workload.

    Cached per process: every benchmark of a session shares one
    measurement (the workload is deterministic, the best-of damps
    scheduler noise).
    """
    global _calibration_cache
    if _calibration_cache is None:
        _calibration_cache = best_of(_calibration_workload, rounds)[1]
    return _calibration_cache


def best_of(function, attempts=3):
    """``(result, seconds)``: the last result and the best-of-``attempts``
    wall clock of calling ``function()``.

    Ratio assertions time both legs this way, after a warm-up call off
    the clock, so one slow attempt on a shared runner cannot fail them.
    """
    best = float("inf")
    result = None
    for _attempt in range(attempts):
        started = time.perf_counter()
        result = function()
        best = min(best, time.perf_counter() - started)
    return result, best


def run_once(benchmark, function, *args, replications=None, **kwargs):
    """Run ``function`` under pytest-benchmark timing.

    The default is a single round (the benchmark bodies regenerate whole
    paper figures, so even one round is substantial); ``REPRO_BENCH_ROUNDS``
    raises it when a tighter mean matters, e.g. for the CI baseline gate.
    The machine's calibration time is stamped into ``extra_info`` so the
    ``--benchmark-json`` output can be normalised by
    :func:`compare_to_baseline` without re-running anything.

    ``replications`` (consumed here, never passed to ``function``)
    declares how many simulation replications one timed call performs;
    it is stamped into ``extra_info`` so the trajectory report can turn
    the mean into a replications-per-second throughput.
    """
    rounds = max(1, int(os.environ.get("REPRO_BENCH_ROUNDS", "1")))
    benchmark.extra_info["calibration_s"] = calibration_seconds()
    if replications is not None:
        benchmark.extra_info["replications"] = int(replications)
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=rounds, iterations=1)


# ----------------------------------------------------------------------
# Result/baseline files
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BenchmarkResult:
    """One benchmark extracted from a pytest-benchmark JSON file."""

    name: str
    mean_s: float
    calibration_s: float
    replications: Optional[int] = None

    @property
    def normalized(self) -> float:
        """Mean in calibration units (dimensionless, machine-portable)."""
        return self.mean_s / self.calibration_s

    @property
    def reps_per_s(self) -> Optional[float]:
        """Replications per second, for benchmarks that declare a count."""
        if not self.replications or self.mean_s <= 0:
            return None
        return self.replications / self.mean_s


def load_results(path: str) -> List[BenchmarkResult]:
    """Parse a ``pytest-benchmark --benchmark-json`` result file."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    benchmarks = payload.get("benchmarks")
    if not isinstance(benchmarks, list) or not benchmarks:
        raise BaselineError(f"{path}: no benchmarks in result file")
    results = []
    for entry in benchmarks:
        name = entry.get("fullname") or entry.get("name")
        stats = entry.get("stats") or {}
        mean = stats.get("mean")
        calibration = (entry.get("extra_info") or {}).get("calibration_s")
        if name is None or mean is None:
            raise BaselineError(f"{path}: malformed benchmark entry {entry!r}")
        if not calibration:
            # Benchmarks not run through run_once: fall back to measuring
            # calibration here.  Only sound when this process runs on the
            # same machine class as the run that wrote the file, so say so
            # loudly instead of silently skewing cross-machine comparisons.
            warnings.warn(
                f"benchmark {name!r} has no recorded calibration_s (not run "
                "through repro.benchmarking.run_once); normalising with "
                "THIS machine's calibration, which is only valid when "
                "comparing on the machine that produced the results",
                stacklevel=2,
            )
            calibration = calibration_seconds()
        replications = (entry.get("extra_info") or {}).get("replications")
        results.append(
            BenchmarkResult(
                name=str(name),
                mean_s=float(mean),
                calibration_s=float(calibration),
                replications=int(replications) if replications else None,
            )
        )
    return results


def record_baseline(results_path: str, baseline_path: str) -> Dict[str, object]:
    """Condense a result file into the committed baseline format."""
    results = load_results(results_path)
    baseline = {
        "schema": BASELINE_SCHEMA,
        "tolerance": DEFAULT_TOLERANCE,
        "recorded_calibration_s": results[0].calibration_s,
        "benchmarks": {
            result.name: {
                "mean_s": result.mean_s,
                "normalized": result.normalized,
            }
            for result in results
        },
    }
    os.makedirs(os.path.dirname(baseline_path) or ".", exist_ok=True)
    with open(baseline_path, "w", encoding="utf-8") as handle:
        json.dump(baseline, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return baseline


def load_baseline(path: str) -> Dict[str, object]:
    """Load and sanity-check a committed baseline file."""
    with open(path, encoding="utf-8") as handle:
        baseline = json.load(handle)
    if baseline.get("schema") != BASELINE_SCHEMA:
        raise BaselineError(
            f"{path}: unsupported baseline schema {baseline.get('schema')!r}"
        )
    if not isinstance(baseline.get("benchmarks"), dict):
        raise BaselineError(f"{path}: missing 'benchmarks' table")
    return baseline


@dataclass(frozen=True)
class Comparison:
    """Comparison of one benchmark against its committed baseline entry."""

    name: str
    baseline_normalized: float
    current_normalized: float

    @property
    def ratio(self) -> float:
        """Current cost over baseline cost (1.0 = unchanged, 2.0 = 2x slower)."""
        if self.baseline_normalized <= 0:
            return float("inf")
        return self.current_normalized / self.baseline_normalized


@dataclass
class ComparisonReport:
    """Outcome of a baseline comparison."""

    compared: List[Comparison]
    regressions: List[Comparison]
    new_benchmarks: List[str]
    missing_benchmarks: List[str]
    tolerance: float

    @property
    def ok(self) -> bool:
        """``True`` when the gate holds.

        Requires no regression beyond the tolerance AND at least one
        benchmark actually compared: a run whose names all drifted away
        from the committed baseline (different rootdir, renamed tests)
        gates nothing, and reporting that as success would let real
        regressions ship behind a green check.
        """
        return bool(self.compared) and not self.regressions

    def render(self) -> str:
        """Human-readable table of the comparison."""
        lines = [
            f"benchmark baseline comparison (tolerance {self.tolerance:.0%}):"
        ]
        for comparison in sorted(self.compared, key=lambda c: -c.ratio):
            verdict = "REGRESSION" if comparison in self.regressions else "ok"
            lines.append(
                f"  {verdict:>10}  {comparison.ratio:6.2f}x  {comparison.name}"
                f"  (baseline {comparison.baseline_normalized:.3f} ->"
                f" current {comparison.current_normalized:.3f} calib units)"
            )
        for name in self.new_benchmarks:
            lines.append(f"       new   (not gated)  {name}")
        for name in self.missing_benchmarks:
            lines.append(f"   missing   (in baseline, not in run)  {name}")
        return "\n".join(lines)


def compare_to_baseline(
    results_path: str,
    baseline_path: str,
    tolerance: Optional[float] = None,
) -> ComparisonReport:
    """Compare a fresh result file against the committed baseline.

    A benchmark regresses when its calibration-normalised mean exceeds the
    baseline's by more than ``tolerance`` (the baseline file's own
    tolerance when not given).  Benchmarks present on only one side are
    reported but never gate.
    """
    results = {result.name: result for result in load_results(results_path)}
    baseline = load_baseline(baseline_path)
    if tolerance is None:
        tolerance = float(baseline.get("tolerance", DEFAULT_TOLERANCE))
    table: Dict[str, Dict[str, float]] = baseline["benchmarks"]  # type: ignore[assignment]

    compared: List[Comparison] = []
    regressions: List[Comparison] = []
    for name, entry in sorted(table.items()):
        result = results.get(name)
        if result is None:
            continue
        comparison = Comparison(
            name=name,
            baseline_normalized=float(entry["normalized"]),
            current_normalized=result.normalized,
        )
        compared.append(comparison)
        if comparison.ratio > 1.0 + tolerance:
            regressions.append(comparison)
    new = sorted(set(results) - set(table))
    missing = sorted(set(table) - set(results))
    return ComparisonReport(
        compared=compared,
        regressions=regressions,
        new_benchmarks=new,
        missing_benchmarks=missing,
        tolerance=tolerance,
    )


# ----------------------------------------------------------------------
# Cumulative perf trajectory
# ----------------------------------------------------------------------
#: Version of the committed trajectory file format.
TRAJECTORY_SCHEMA = 1


def load_trajectory(path: str) -> Dict[str, object]:
    """Load a trajectory file, or a fresh empty one when absent."""
    if not os.path.exists(path):
        return {"schema": TRAJECTORY_SCHEMA, "entries": []}
    with open(path, encoding="utf-8") as handle:
        trajectory = json.load(handle)
    if trajectory.get("schema") != TRAJECTORY_SCHEMA:
        raise BaselineError(
            f"{path}: unsupported trajectory schema {trajectory.get('schema')!r}"
        )
    if not isinstance(trajectory.get("entries"), list):
        raise BaselineError(f"{path}: missing 'entries' list")
    return trajectory


def report_trajectory(
    results_path: str, trajectory_path: str, label: str
) -> Dict[str, object]:
    """Add one labeled entry to the cumulative perf trajectory.

    Entries stay in chronological (append) order, one per PR/label;
    reporting an existing label refreshes that entry in place, so a
    re-run CI job never duplicates history.  Benchmarks that declared a
    replication count (``run_once(..., replications=N)``) additionally
    carry ``reps_per_s`` -- the headline throughput figure of the solver
    benchmarks.
    """
    benchmarks: Dict[str, Dict[str, float]] = {}
    for result in load_results(results_path):
        entry: Dict[str, float] = {
            "mean_s": result.mean_s,
            "normalized": result.normalized,
        }
        if result.reps_per_s is not None:
            entry["replications"] = result.replications  # type: ignore[assignment]
            entry["reps_per_s"] = result.reps_per_s
        benchmarks[result.name] = entry
    trajectory = load_trajectory(trajectory_path)
    entries: List[Dict[str, object]] = trajectory["entries"]  # type: ignore[assignment]
    new_entry: Dict[str, object] = {"label": label, "benchmarks": benchmarks}
    for index, existing in enumerate(entries):
        if existing.get("label") == label:
            entries[index] = new_entry
            break
    else:
        entries.append(new_entry)
    os.makedirs(os.path.dirname(trajectory_path) or ".", exist_ok=True)
    with open(trajectory_path, "w", encoding="utf-8") as handle:
        json.dump(trajectory, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return trajectory


def render_trajectory(trajectory: Dict[str, object]) -> str:
    """Human-readable throughput history, one line per (entry, benchmark)."""
    lines = ["perf trajectory (reps/s where declared):"]
    entries: List[Dict[str, object]] = trajectory["entries"]  # type: ignore[assignment]
    for entry in entries:
        label = entry.get("label", "?")
        table: Dict[str, Dict[str, float]] = entry.get("benchmarks", {})  # type: ignore[assignment]
        for name, values in sorted(table.items()):
            reps = values.get("reps_per_s")
            throughput = f"{reps:8.0f} reps/s" if reps else f"{'-':>8} reps/s"
            lines.append(
                f"  {label:>8}  {throughput}  mean {values['mean_s']:.4f} s  {name}"
            )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``python -m repro.benchmarking``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.benchmarking",
        description="Record or gate on committed pytest-benchmark baselines.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    record = subparsers.add_parser("record", help="write a baseline file")
    record.add_argument("results", help="pytest-benchmark --benchmark-json file")
    record.add_argument("baseline", help="baseline JSON to (over)write")

    compare = subparsers.add_parser(
        "compare", help="compare results against a committed baseline"
    )
    compare.add_argument("results", help="pytest-benchmark --benchmark-json file")
    compare.add_argument("baseline", help="committed baseline JSON")
    compare.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="relative regression tolerance (default: the baseline file's)",
    )
    compare.add_argument(
        "--allow-regression",
        action="store_true",
        help="report regressions but exit 0 (intentional perf changes)",
    )

    report_parser = subparsers.add_parser(
        "report", help="append a labeled entry to the cumulative perf trajectory"
    )
    report_parser.add_argument(
        "results", help="pytest-benchmark --benchmark-json file"
    )
    report_parser.add_argument(
        "trajectory", help="cumulative trajectory JSON to create or extend"
    )
    report_parser.add_argument(
        "--label",
        required=True,
        help="entry label, e.g. the PR number; an existing label is refreshed",
    )

    arguments = parser.parse_args(argv)
    if arguments.command == "record":
        baseline = record_baseline(arguments.results, arguments.baseline)
        print(
            f"recorded {len(baseline['benchmarks'])} benchmarks"  # type: ignore[arg-type]
            f" to {arguments.baseline}"
        )
        return 0

    if arguments.command == "report":
        trajectory = report_trajectory(
            arguments.results, arguments.trajectory, arguments.label
        )
        print(render_trajectory(trajectory))
        print(f"trajectory written to {arguments.trajectory}")
        return 0

    report = compare_to_baseline(
        arguments.results, arguments.baseline, tolerance=arguments.tolerance
    )
    print(report.render())
    if report.ok:
        print("baseline gate: OK")
        return 0
    if not report.compared:
        # Not overridable: nothing was gated, so "allow regression" would
        # bless a comparison that never happened.  Names usually drift when
        # pytest runs from a different rootdir or benchmarks were renamed;
        # re-record the baseline instead.
        print(
            "baseline gate: FAILED -- no benchmark in the run matches the "
            "committed baseline (renamed benchmarks or a different pytest "
            "rootdir?); re-record with 'python -m repro.benchmarking record'"
        )
        return 1
    if arguments.allow_regression or os.environ.get("REPRO_BENCH_ALLOW_REGRESSION"):
        print("baseline gate: regressions ALLOWED (override active)")
        return 0
    print(
        "baseline gate: FAILED -- rerun with --allow-regression (CI: apply the"
        " 'perf-baseline-override' label) for intentional perf changes, and"
        " re-record the baseline with 'python -m repro.benchmarking record'"
    )
    return 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
