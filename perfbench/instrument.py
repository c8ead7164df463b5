"""Hooks around the program's public entry points, installed from outside.

:class:`Instrumentation` patches entry points for the duration of one
workload pass and restores every original on exit.  Two levels:

* **accounting** (every pass): ``MeasurementRunner.run`` hands the runner
  to the benchmark, so each measured run can be checked and its
  executions counted, and ``SimulativeSolver.solve`` reports how many
  replications it ran.  One wrapper call per point or per solve.
* **tracing** (``traced=True`` only): timing wrappers around each layer's
  public functions, so the per-layer numbers can be read after the pass.
  These wrap hot paths (``Transport.send``, ``Simulator.run``,
  distribution draws), so end-to-end numbers never come from a traced pass.

Every counter is one the program already exposes (``events_processed``,
``Transport.messages_*``, ``heartbeats_sent``, fault-injector stats,
executor ``completions``, ``StateSpace.n_states``); nothing is added to
``src/``.  Module-level functions are patched in every ``repro``/``perfbench``
module that binds them, because ``from x import f`` copies the reference.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.transport import Transport
from repro.consensus.chandra_toueg import ChandraTouegConsensus
from repro.core.measurement import MeasurementRunner
from repro.des.simulator import Simulator
from repro.failure_detectors.heartbeat import HeartbeatFailureDetector
from repro.san import statespace
from repro.san.analytic import AnalyticSolver
from repro.san.batched import BatchedSANExecutor
from repro.san.compiled import CompiledSANModel
from repro.san.executor import SANExecutor
from repro.san.solver import SimulativeSolver
from repro.sanmodels import consensus_model, exponential
from repro.stats import distributions

#: Attribute set on every wrapper, pointing at the function it replaced.
WRAPPED_ATTR = "__perfbench_wrapped__"

_PATCHED_MODULE_PREFIXES = ("repro", "perfbench")

#: SAN model builders timed as ``sanmodels.build_s`` (nested builds count once).
_MODEL_BUILDERS = (
    consensus_model.build_consensus_model,
    consensus_model.build_consensus_model_from_distributions,
    exponential.exponential_consensus_model,
    exponential.exponential_fd_pair_model,
    exponential.exponential_unicast_burst_model,
)


@dataclass
class Probe:
    """Time spent in one layer; calls nested inside an outer call are not re-timed."""

    seconds: float = 0.0
    depth: int = 0


class Instrumentation:
    """Installs the hooks on ``__enter__`` and restores the originals on ``__exit__``."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        #: Measurement runners started since the last :meth:`take_runners`.
        self.runners: List[MeasurementRunner] = []
        self.replications = 0
        self.probes: Dict[str, Probe] = {}
        self.counts: Counter = Counter()
        #: Executor class name -> runs (scalar) or batches (batched).
        self.executors: Counter = Counter()
        self.batch_sizes: Counter = Counter()
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def __enter__(self) -> "Instrumentation":
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._restore()

    def take_runners(self) -> List[MeasurementRunner]:
        """The runners captured since the previous call (and forget them)."""
        runners, self.runners = self.runners, []
        return runners

    def probe(self, key: str) -> Probe:
        """The probe of one layer (created empty on first use)."""
        return self.probes.setdefault(key, Probe())

    # ------------------------------------------------------------------
    def _install(self) -> None:
        self._patch_method(MeasurementRunner, "run", self._capture_runner)
        self._patch_method(SimulativeSolver, "solve", self._count_replications)
        if not self.traced:
            return
        self._patch_method(MeasurementRunner, "__init__", self._timed("measurement.build"))
        self._patch_method(MeasurementRunner, "run", self._timed("measurement.run"))
        self._patch_method(Simulator, "run", self._des_run)
        self._patch_method(Transport, "send", self._timed("cluster.send"))
        for _name, cls in inspect.getmembers(distributions, inspect.isclass):
            if cls.__module__ != distributions.__name__ or getattr(cls, "_is_protocol", False):
                continue
            for method in ("sample", "sample_batch"):
                if method in vars(cls):
                    self._patch_method(
                        cls, method, self._timed("stats.sample", count=self._count_draws)
                    )
        for builder in _MODEL_BUILDERS:
            self._patch_function(builder, self._timed("sanmodels.build"))
        self._patch_method(CompiledSANModel, "__init__", self._timed("san.compile"))
        self._patch_method(SimulativeSolver, "solve", self._timed("san.solve"))
        self._patch_method(SANExecutor, "run", self._timed(
            "san.scalar_run", count=self._count_scalar_completions
        ))
        self._patch_method(BatchedSANExecutor, "run_batch", self._timed(
            "san.batched_run", count=self._count_batched_completions
        ))
        self._patch_function(statespace.generate_state_space, self._timed(
            "statespace.generate", count=self._count_states
        ))
        self._patch_method(AnalyticSolver, "solve", self._timed("analytic.solve"))

    def _patch_method(
        self, cls: type, name: str, make_wrapper: Callable[[Callable], Callable]
    ) -> None:
        original = vars(cls)[name]
        self._set(cls, name, original, make_wrapper(original))

    def _patch_function(
        self, func: Callable, make_wrapper: Callable[[Callable], Callable]
    ) -> None:
        wrapper = make_wrapper(func)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith(_PATCHED_MODULE_PREFIXES):
                continue
            for name, value in list(vars(module).items()):
                if value is func:
                    self._set(module, name, func, wrapper)

    def _set(self, owner: Any, name: str, original: Any, wrapper: Callable) -> None:
        setattr(wrapper, WRAPPED_ATTR, original)
        setattr(owner, name, wrapper)
        self._undo.append((owner, name, original))

    def _restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------------
    # Wrapper factories
    # ------------------------------------------------------------------
    def _timed(
        self,
        key: str,
        count: Optional[Callable[[Tuple[Any, ...], Dict[str, Any], Any], None]] = None,
    ) -> Callable[[Callable], Callable]:
        probe = self.probe(key)

        def make(original: Callable) -> Callable:
            @functools.wraps(original)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if probe.depth:
                    return original(*args, **kwargs)
                probe.depth = 1
                started = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    probe.seconds += time.perf_counter() - started
                    probe.depth = 0
                if count is not None:
                    count(args, kwargs, result)
                return result

            return wrapper

        return make

    def _des_run(self, original: Callable) -> Callable:
        probe = self.probe("des.run")

        @functools.wraps(original)
        def wrapper(sim: Simulator, *args: Any, **kwargs: Any) -> Any:
            events = sim.events_processed
            started = time.perf_counter()
            try:
                return original(sim, *args, **kwargs)
            finally:
                probe.seconds += time.perf_counter() - started
                self.counts["des.events"] += sim.events_processed - events

        return wrapper

    def _capture_runner(self, original: Callable) -> Callable:
        @functools.wraps(original)
        def wrapper(runner: MeasurementRunner, *args: Any, **kwargs: Any) -> Any:
            # Captured before running, so a run that raises is still counted.
            self.runners.append(runner)
            return original(runner, *args, **kwargs)

        return wrapper

    def _count_replications(self, original: Callable) -> Callable:
        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = original(*args, **kwargs)
            self.replications += len(result.replications)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # Counters read from results
    # ------------------------------------------------------------------
    def _count_draws(self, _args, _kwargs, result) -> None:
        # ``sample`` returns one float, ``sample_batch`` an array of draws.
        self.counts["stats.draws"] += int(np.size(result))

    def _count_scalar_completions(self, _args, _kwargs, result) -> None:
        self.counts["san.completions"] += result.completions
        self.executors["SANExecutor"] += 1

    def _count_batched_completions(self, _args, _kwargs, results) -> None:
        self.counts["san.completions"] += sum(result.completions for result in results)
        self.executors["BatchedSANExecutor"] += 1
        self.batch_sizes[len(results)] += 1

    def _count_states(self, _args, _kwargs, space) -> None:
        self.counts["statespace.states"] += space.n_states


def measurement_counts(runner: MeasurementRunner) -> Counter:
    """Work counters of one measured run, read from the runner's own objects.

    ``MeasurementResult`` copies these same counters, but a run that raises
    returns no result, so they are read from the cluster it ran on.
    """
    counts: Counter = Counter()
    instances = runner.recorder.instances
    counts["executions"] = len(instances)
    counts["decided"] = sum(1 for entry in instances if entry.decided)
    transport = runner.cluster.transport
    counts["messages_sent"] = transport.messages_sent
    counts["messages_dropped"] = transport.messages_dropped
    rounds: Dict[int, int] = {}
    for process in runner.cluster.processes:
        for layer in process.layers:
            if isinstance(layer, HeartbeatFailureDetector):
                counts["heartbeats_sent"] += layer.heartbeats_sent
            elif isinstance(layer, ChandraTouegConsensus):
                for decision in layer.decisions:
                    rounds[decision.instance] = max(
                        rounds.get(decision.instance, 0), decision.round_number
                    )
    counts["decision_rounds"] = sum(rounds.values())
    counts["decisions"] = len(rounds)
    counts["suspicions"] = sum(
        1 for transition in runner.fd_history.transitions if transition.suspected
    )
    injector = runner.cluster.fault_injector
    if injector is not None:
        counts["faults_injected"] = sum(injector.stats.as_dict().values())
    return counts
