"""Output checks: result digests, artifact digests and invariants.

* **Digests** pin the bit-identical determinism contract: at the default
  seed every operation's result, and every fully successful experiment's
  JSON artifact, must hash to the value committed in ``reference.json``.
  Timings are stripped first: result fields named ``*_seconds``, and the
  artifact's manifest timings (``started_at``, ``wall_clock_seconds``,
  per-point ``seconds``), wall-clock speedups and package ``version``.
* **Invariants** hold at every seed: consensus agreement on every
  measured run, solver agreement on every ``solvercompare`` row, and the
  exact n = 3/4 latency means against the committed values.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math
import os
from statistics import NormalDist
from typing import Any, Dict, List

import numpy as np

from repro.core.measurement import MeasurementRunner
from repro.experiments.solver_compare import COMPARISON_CONFIDENCE, SolverComparePoint
from repro.san.analytic import AnalyticResult

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

#: Relative tolerance of the exact-latency check.
ANALYTIC_TOLERANCE = 1e-9

#: The simulative-vs-exact check widens the experiment's 95% interval to
#: 99.99%: a 95% interval misses the exact value on 5% of seeds by
#: construction, which would make "holds at any seed" false for a correct
#: program (see README.md).
AGREEMENT_LEVEL = 0.9999
_WIDEN = NormalDist().inv_cdf(0.5 + AGREEMENT_LEVEL / 2) / NormalDist().inv_cdf(
    0.5 + COMPARISON_CONFIDENCE / 2
)

_STRIPPED_ARTIFACT_KEYS = frozenset({"started_at", "wall_clock_seconds", "seconds", "version"})


def _is_timing(key: str) -> bool:
    return key.endswith("_seconds") or key.endswith("speedup")


def canonical(value: Any) -> Any:
    """``value`` as plain JSON data: exact floats, timing fields dropped.

    Raises ``TypeError`` on objects with no stable representation, so a
    digest can never depend on a memory address.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        data = {
            field.name: canonical(getattr(value, field.name))
            for field in dataclasses.fields(value)
            if not _is_timing(field.name)
        }
        data["__class__"] = type(value).__name__
        return data
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, np.ndarray):
        return canonical(value.tolist())
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if value is None or isinstance(value, str):
        return value
    raise TypeError(f"no canonical form for {type(value).__name__}")


def digest(data: Any) -> str:
    """SHA-256 of the canonical JSON encoding of ``data``."""
    encoded = json.dumps(canonical(data), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def strip_artifact_timings(data: Any) -> Any:
    """A JSON artifact without its wall-clock and provenance-only fields."""
    if isinstance(data, dict):
        return {
            key: strip_artifact_timings(item)
            for key, item in data.items()
            if key not in _STRIPPED_ARTIFACT_KEYS and not _is_timing(key)
        }
    if isinstance(data, list):
        return [strip_artifact_timings(item) for item in data]
    return data


# ----------------------------------------------------------------------
# Invariants
# ----------------------------------------------------------------------
def check_agreement(runners: List[MeasurementRunner]) -> List[str]:
    """Consensus agreement on every measured run."""
    return [
        f"agreement violated in measured run {index}"
        for index, runner in enumerate(runners)
        if not runner.recorder.check_agreement()
    ]


def check_solver_compare(point: SolverComparePoint) -> List[str]:
    """Scalar and batched legs agree exactly; both agree with the exact value."""
    problems = []
    for comparison in point.rewards:
        name = f"{point.key}/{comparison.reward}"
        if comparison.batched_mean != comparison.simulative_mean:
            problems.append(
                f"{name}: batched mean {comparison.batched_mean!r} != "
                f"scalar mean {comparison.simulative_mean!r}"
            )
        error = abs(comparison.simulative_mean - comparison.analytic)
        if not error <= _WIDEN * comparison.ci_half_width:
            problems.append(
                f"{name}: exact {comparison.analytic!r} outside the "
                f"{AGREEMENT_LEVEL:.2%} interval {comparison.simulative_mean!r} "
                f"+- {_WIDEN * comparison.ci_half_width!r}"
            )
    return problems


def check_analytic(
    n_processes: int, result: AnalyticResult, reference: Dict[str, Any]
) -> List[str]:
    """The exact latency mean matches the committed value."""
    expected = reference["analytic_latency_ms"].get(str(n_processes))
    actual = result.mean("latency")
    if expected is None:
        return [f"no committed exact latency for n={n_processes}"]
    if not math.isclose(actual, expected, rel_tol=ANALYTIC_TOLERANCE, abs_tol=0.0):
        return [f"exact latency n={n_processes}: {actual!r} != committed {expected!r}"]
    return []


def load_reference() -> Dict[str, Any]:
    """The committed reference (digests at the default seed, exact latencies)."""
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)
