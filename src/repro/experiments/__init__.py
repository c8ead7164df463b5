"""Per-figure and per-table experiment generators.

Each module regenerates the data behind one element of the paper's
evaluation (§5):

==================  ========================================================
Module              Paper element
==================  ========================================================
``figure6``         Fig. 6 -- end-to-end delay CDFs of unicast / broadcast
                    messages
``figure7``         Fig. 7(a) -- latency CDFs for n = 3..11 (measurements);
                    Fig. 7(b) -- simulated CDFs for a sweep of ``t_send``
                    vs. the measured CDF (calibration);
                    §5.2 -- mean latencies, measurement vs. simulation
``table1``          Table 1 -- latency under crash scenarios
``figure8``         Fig. 8(a)/(b) -- failure-detector QoS (T_MR, T_M) vs.
                    the timeout T
``figure9``         Fig. 9(a)/(b) -- latency vs. the timeout T,
                    measurements and SAN simulations (det. / exp. FD model)
==================  ========================================================

Every generator takes an :class:`~repro.experiments.settings.ExperimentSettings`
controlling its scale, so the same code serves quick benchmark runs and
full paper-scale reproductions (set ``REPRO_EXPERIMENT_SCALE=full``).

Each generator expresses its grid as a
:class:`~repro.experiments.runner.ReplicationPlan` and self-registers an
:class:`~repro.experiments.registry.ExperimentSpec` in
:mod:`repro.experiments.registry`.  :func:`run_experiment` is the one way
to run an experiment: its :class:`ExperimentOptions` carry ``jobs``
(process parallelism; results are bit-for-bit independent of the worker
count) and ``cache_dir`` (on-disk memoisation of per-point results), and
it returns the result together with its run manifest.  The CLI and the
structured artifact layer (:mod:`repro.experiments.artifacts`) build on
the same call.
"""

from repro.experiments.artifacts import RunManifest, validate_artifact
from repro.experiments.fault_sweep import FaultSweepResult
from repro.experiments.figure6 import Figure6Result
from repro.experiments.figure7 import (
    Figure7aResult,
    Figure7bResult,
    LatencyMeansResult,
)
from repro.experiments.figure8 import Figure8Result
from repro.experiments.figure9 import Figure9Result
from repro.experiments.registry import (
    ExperimentContext,
    ExperimentOptions,
    ExperimentRun,
    ExperimentSpec,
    run_experiment,
)
from repro.experiments.registry import (
    discover as discover_experiments,
)
from repro.experiments.registry import (
    get as get_experiment,
)
from repro.experiments.registry import (
    names as experiment_names,
)
from repro.experiments.runner import (
    ReplicationPlan,
    ResultCache,
    SweepPoint,
    execute_plan,
    iter_plan,
)
from repro.experiments.settings import ExperimentSettings
from repro.experiments.solver_compare import SolverCompareResult
from repro.experiments.table1 import Table1Result

__all__ = [
    "ExperimentContext",
    "ExperimentOptions",
    "ExperimentRun",
    "ExperimentSettings",
    "ExperimentSpec",
    "ReplicationPlan",
    "ResultCache",
    "RunManifest",
    "SweepPoint",
    "discover_experiments",
    "execute_plan",
    "experiment_names",
    "get_experiment",
    "iter_plan",
    "run_experiment",
    "validate_artifact",
    "FaultSweepResult",
    "Figure6Result",
    "Figure7aResult",
    "Figure7bResult",
    "Figure8Result",
    "Figure9Result",
    "LatencyMeansResult",
    "SolverCompareResult",
    "Table1Result",
]
