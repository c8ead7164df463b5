"""Benchmark of the reproduction: end-to-end and per-layer numbers, with output checks.

Run from the repository root::

    python3 perfbench/run.py --workload testbed --seed 1 --seconds 45 --trace 0

Workloads: ``testbed`` (measured class-1/2 points and fault loads),
``class3`` (the Figure 8 heartbeat sweep) and ``model`` (SAN simulation
and exact solves); README.md gives their reasons and the layer map.

Every workload pass runs in a fresh process (``perfbench/worker.py``) at
``jobs=1``.  ``--trace 0`` runs a fixed number of passes with the same
seed, set by ``--seconds`` (:func:`passes_for`), then set-up-only
processes up to ``SETUP_SAMPLES`` set-up samples.  It reports the median
set-up time and the median over passes of the wall time, both
calibrated to the reference host speed (:func:`calibrated_wall`), the
runs per second of that wall time, and the median peak memory.
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
This file uses only the standard library: without ``src/repro`` next
to it, it exits with an error before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("testbed", "class3", "model")

#: Fresh processes per run whose set-up time is measured (passes included).
SETUP_SAMPLES = 5
#: One untraced pass per started ``PASS_BUDGET_S[workload]`` of ``--seconds``:
#: at 45 s, two passes, and three for ``model``, whose passes differ most
#: (its 4 s exact n = 4 solve is one operation with one calibration sample).
PASS_BUDGET_S = {"testbed": 20.0, "class3": 20.0, "model": 13.0}
#: Calibration sample time at the reference host speed (s).
YARDSTICK_REFERENCE_S = 0.0033
#: Elasticity of the workloads' operation times to the yardstick's time,
#: and of set-up time, which follows it less (see README.md, *Steadiness*).
SPEED_EXPONENT = 0.8
SETUP_SPEED_EXPONENT = 0.5
#: Every run ends within 180 s; a worker still running at this point is killed.
TIME_LIMIT_S = 170.0
#: End-to-end metrics, reported on every workload.
E2E_METRICS = ("setup_s", "wall_s", "runs_per_s", "peak_rss_mb")
#: Per-layer metrics measured by this file rather than inside the traced pass.
TRACE_EXTRA_METRICS = (
    "setup.import_s", "setup.import_scipy_s", "setup.discover_s", "trace.overhead_share"
)
#: The execution-policy environment: the benchmark measures the program's
#: default SAN executor, so it never passes these on.
_SCRUBBED_ENV = ("REPRO_SAN_STRATEGY", "REPRO_SAN_BATCH_SIZE")
_SETUP_CODE = "import repro.cli; from repro.experiments import registry; registry.discover()"


class BenchmarkError(RuntimeError):
    """A worker process failed; the run reports no result."""


def _environment() -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items() if key not in _SCRUBBED_ENV}
    source = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = source + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _remaining(deadline: float) -> float:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError(f"time limit of {TIME_LIMIT_S:.0f} s reached")
    return remaining


def _run(command: List[str], deadline: float) -> subprocess.CompletedProcess:
    try:
        # On timeout, subprocess.run kills the child and waits for it.
        completed = subprocess.run(
            command, cwd=ROOT, env=_environment(), capture_output=True, text=True,
            timeout=_remaining(deadline),
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{command[1:]} did not finish within the time limit") from None
    if completed.returncode != 0:
        raise BenchmarkError(
            f"{command[1:]} exited with {completed.returncode}:\n{completed.stderr[-3000:]}"
        )
    return completed


def _worker(arguments: List[str], deadline: float) -> Dict[str, Any]:
    spawned_at = time.monotonic()
    command = [sys.executable, "-m", "perfbench.worker", "--spawned-at", repr(spawned_at)]
    completed = _run(command + arguments, deadline)
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _import_scipy_s(deadline: float) -> float:
    """Seconds spent importing ``scipy`` modules during set-up (``-X importtime``)."""
    completed = _run([sys.executable, "-X", "importtime", "-c", _SETUP_CODE], deadline)
    microseconds = 0
    for line in completed.stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        package = parts[2].strip()
        self_us = parts[0].split(":", 1)[1].strip()
        if self_us.isdigit() and (package == "scipy" or package.startswith("scipy.")):
            microseconds += int(self_us)
    return microseconds / 1e6


def _pass_args(workload: str, seed: int, trace: int) -> List[str]:
    return ["--workload", workload, "--seed", str(seed), "--trace", str(trace)]


def _signature(report: Dict[str, Any]) -> Any:
    """What must be identical between two passes with the same seed."""
    return (
        [(op["label"], op["digest"], op["error"]) for op in report["operations"]],
        report["artifacts"],
        report["executions"],
        report["replications"],
    )


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def _speed(sample_s: float, exponent: float = SPEED_EXPONENT) -> float:
    """Time multiplier from a calibration sample to the reference host speed."""
    return (YARDSTICK_REFERENCE_S / sample_s) ** exponent


def calibrated_wall(report: Dict[str, Any]) -> float:
    """A pass's operation time at the reference host speed.

    Each operation's wall time is scaled by the host speed measured just
    before it ran (README.md, *Steadiness*).
    """
    return sum(op["seconds"] * _speed(op["yardstick_s"]) for op in report["operations"])


def passes_for(workload: str, seconds: float) -> int:
    """Untraced passes in a run of ``seconds``: fixed by the arguments, never by host speed."""
    return max(1, int(seconds // PASS_BUDGET_S[workload]))


def _untraced(args: argparse.Namespace, deadline: float):
    passes = [
        _worker(_pass_args(args.workload, args.seed, 0), deadline)
        for _ in range(passes_for(args.workload, args.seconds))
    ]
    setups = [report["setup"] for report in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(_worker(["--setup-only"], deadline)["setup"])
    wall_s = statistics.median(calibrated_wall(report) for report in passes)
    # Set-up is scaled by the run's median sample: the slow and fast
    # periods of a shared host last minutes, longer than a run.
    run_sample_s = statistics.median(
        op["yardstick_s"] for report in passes for op in report["operations"]
    )
    setup_s = statistics.median(s["setup_s"] for s in setups)
    print(f"set-up {setup_s:.4f} s, calibration sample {run_sample_s * 1e3:.3f} ms")
    # A run is one measured consensus execution or one simulated SAN
    # replication; each workload does only one of the two kinds.
    runs = passes[0]["executions"] + passes[0]["replications"]
    metrics = {
        "setup_s": _metric(setup_s * _speed(run_sample_s, SETUP_SPEED_EXPONENT), "s"),
        "wall_s": _metric(wall_s, "s"),
        "runs_per_s": _metric(runs / wall_s, "1/s"),
        "peak_rss_mb": _metric(statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    return passes, metrics


def _traced(args: argparse.Namespace, deadline: float):
    setups = [
        _worker(["--setup-only"], deadline)["setup"] for _ in range(SETUP_SAMPLES - 2)
    ]
    plain = _worker(_pass_args(args.workload, args.seed, 0), deadline)
    traced = _worker(_pass_args(args.workload, args.seed, 1), deadline)
    setups.extend((plain["setup"], traced["setup"]))
    metrics = dict(traced["layers"])
    metrics["setup.import_s"] = _metric(statistics.median(s["import_s"] for s in setups), "s")
    metrics["setup.import_scipy_s"] = _metric(_import_scipy_s(deadline), "s")
    metrics["setup.discover_s"] = _metric(
        statistics.median(s["discover_s"] for s in setups), "s"
    )
    metrics["trace.overhead_share"] = _metric(
        calibrated_wall(traced) / calibrated_wall(plain) - 1.0, "ratio"
    )
    return [plain, traced], metrics


def _failed(report: Dict[str, Any]) -> int:
    return sum(1 for op in report["operations"] if op["error"] or op["problems"])


def _print_report(passes: List[Dict[str, Any]], metrics: Dict[str, Any], problems: List[str]):
    for index, report in enumerate(passes):
        print(
            f"pass {index}: {len(report['operations'])} operations, "
            f"{_failed(report)} failed (failed_share {_failed(report) / len(report['operations']):.4f}), "
            f"wall {report['wall_s']:.3f} s, calibrated {calibrated_wall(report):.3f} s"
        )
    first = passes[0]
    for op in first["operations"]:
        if op["error"]:
            print(f"  failed {op['label']}: {op['error']}")
        for problem in op["problems"]:
            print(f"  check failed {op['label']}: {problem}")
    for problem in problems:
        print(f"  check failed: {problem}")
    for label in first["unreferenced"]:
        print(f"  no reference digest: {label}")
    for report in passes:
        print("labels: " + json.dumps(report["labels"], sort_keys=True))
    for name in sorted(metrics):
        print(f"{name:<32} {metrics[name]['value']:>16.6g} {metrics[name]['unit']}")


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="run length, which fixes the number of untraced passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program source at {os.path.join(ROOT, 'src', 'repro')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        # The build: byte-compile once, as an install would, so that set-up
        # time measures imports rather than compilation.
        _run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"], deadline)
        passes, metrics = (_traced if args.trace else _untraced)(args, deadline)
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    problems = [problem for report in passes for problem in report["problems"]]
    if any(_signature(report) != _signature(passes[0]) for report in passes[1:]):
        problems.append("passes with the same seed produced different results")
    correct = not problems and not any(
        op["problems"] for report in passes for op in report["operations"]
    )
    _print_report(passes, metrics, problems)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(len(report["operations"]) for report in passes),
        "failed": sum(_failed(report) for report in passes),
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
