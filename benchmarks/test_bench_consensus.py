"""Benchmark: the consensus replication hot loop and the analytic pipeline.

This is the workload the DES/SAN hot-path overhaul targets: the n = 3
consensus SAN executed over many replications (the inner loop of every
figure-7/table-1 point).  The benchmark times the optimized executor,
then times the :class:`~repro.san.reference.ReferenceExecutor` baseline
(full re-evaluation after every completion, one model build per
replication, unbatched draws) on the same seeds and asserts the required
>= 2x speedup -- after checking that both produce *bit-identical* rewards,
so the speed never comes from semantic drift.

A second benchmark covers the analytic side: state-space generation plus
an exact solve of the exponentialized n = 3 model.  A third times
state-space generation alone on the n = 4 model (8,262 states), the
largest exact solve the benchmarks run, and prints its states/s.
"""

from __future__ import annotations

import time

from repro.benchmarking import best_of, run_once
from repro.san.analytic import AnalyticSolver
from repro.san.compiled import compile_model
from repro.san.reference import ReferenceExecutor
from repro.san.solver import SimulativeSolver
from repro.san.statespace import generate_state_space
from repro.sanmodels import ConsensusSANExperiment
from repro.sanmodels.consensus_model import consensus_stop_predicate, latency_reward
from repro.sanmodels.exponential import exponential_consensus_model

#: Replications per timing leg (one leg is well under a second optimized).
REPLICATIONS = 100
#: Required speedup of the optimized executor over the reference baseline.
REQUIRED_SPEEDUP = 2.0


def _run_replications(solver: SimulativeSolver, count: int = REPLICATIONS):
    return [solver.run_replication(index) for index in range(count)]


def test_bench_consensus_replications(benchmark):
    experiment = ConsensusSANExperiment(n_processes=3, seed=1)
    optimized = experiment.solver()
    reference = SimulativeSolver(
        model_factory=experiment.model_factory,
        reward_factory=experiment.reward_factory,
        stop_predicate=consensus_stop_predicate,
        max_time=experiment.max_time_ms,
        seed=experiment.seed,
        executor_class=ReferenceExecutor,
    )

    # Warm both paths (stream caches, model-structure cache) off the clock.
    optimized.run_replication(0)
    reference.run_replication(0)

    fast_results, fast_s = best_of(lambda: _run_replications(optimized))
    run_once(benchmark, _run_replications, optimized)
    slow_results, slow_s = best_of(lambda: _run_replications(reference))

    # Determinism first: the optimized executor must match the reference
    # replication for replication before its speed counts for anything.
    assert [result.rewards for result in fast_results] == [
        result.rewards for result in slow_results
    ]

    speedup = slow_s / fast_s if fast_s > 0 else float("inf")
    print(
        f"\nconsensus n=3, {REPLICATIONS} replications: optimized {fast_s:.3f} s "
        f"({REPLICATIONS / fast_s:.0f} reps/s), reference {slow_s:.3f} s "
        f"({REPLICATIONS / slow_s:.0f} reps/s), speedup {speedup:.2f}x"
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"expected >= {REQUIRED_SPEEDUP}x over the reference executor, "
        f"measured {speedup:.2f}x"
    )


def test_bench_consensus_statespace(benchmark):
    def solve_analytically():
        model = exponential_consensus_model(3)
        space = generate_state_space(model, stop_predicate=consensus_stop_predicate)
        solver = AnalyticSolver(
            model_factory=lambda: exponential_consensus_model(3),
            reward_factory=lambda: [latency_reward()],
            stop_predicate=consensus_stop_predicate,
        )
        result = solver.solve()
        return space, result

    space, result = run_once(benchmark, solve_analytically)
    print(
        f"\nstatespace: {space.n_states} states, {len(space.transitions)} "
        f"transitions; analytic latency {result.mean('latency'):.6f} ms"
    )
    assert space.n_states == 345
    assert result.mean("latency") > 0


def test_bench_consensus_statespace_n4(benchmark):
    model = exponential_consensus_model(4)
    compile_model(model)  # the lowering is cached per model: keep it off the clock
    seconds = []

    def generate():
        started = time.perf_counter()
        space = generate_state_space(model, stop_predicate=consensus_stop_predicate)
        seconds.append(time.perf_counter() - started)
        return space

    space = run_once(benchmark, generate)
    print(
        f"\nstatespace n=4: {space.n_states} states, {len(space.transitions)} "
        f"transitions in {min(seconds):.3f} s "
        f"({space.n_states / min(seconds):.0f} states/s)"
    )
    assert (space.n_states, len(space.transitions)) == (8262, 21582)
