"""Tests of the lock-step batched executor (:mod:`repro.san.batched`).

The batched draw-order contract: every row of a batch is bit-identical
to the scalar executor run with the same seed, at any batch size.  These
tests pin that three ways -- the golden trace at ``B=1``, per-row
equality with the scalar replication loop at ``B>1``, and end-to-end
equality of ``solve()`` (always lock-step batches) with a scalar
``run_replication`` reference loop -- plus the termination semantics
(horizon, dead marking, initial stop).
"""

from __future__ import annotations

import pytest

from repro.des.simulator import Simulator
from repro.san import (
    AnalyticSolver,
    BatchedSANExecutor,
    Case,
    Marking,
    Place,
    SANExecutor,
    SANModel,
    TimedActivity,
)
from repro.san.executor import SANExecutionError
from repro.san.solver import SimulativeSolver
from repro.sanmodels import ConsensusSANExperiment
from repro.stats.distributions import Constant
from tests.test_san_golden_trace import (
    GOLDEN_CONSENSUS_COMPLETIONS,
    GOLDEN_CONSENSUS_LATENCY,
    GOLDEN_HORIZON,
    GOLDEN_SEED,
    GOLDEN_TRACE,
    TraceRecorder,
    build_golden_model,
    run_golden_trace,
)


# ----------------------------------------------------------------------
# Validation way 1: bit-identical at B=1 against the scalar golden traces
# ----------------------------------------------------------------------
def test_batched_executor_reproduces_golden_trace_at_batch_one():
    recorder, outcome = run_golden_trace(BatchedSANExecutor)
    assert outcome.completions == len(GOLDEN_TRACE)
    assert not outcome.dead_marking
    assert recorder.events == [
        (activity, time, dict(sorted(marking.items())))
        for activity, time, marking in GOLDEN_TRACE
    ]


def test_batched_consensus_replication_zero_snapshot():
    solver = ConsensusSANExperiment(n_processes=3, seed=1).solver()
    replication = solver.run_batch([0])[0]
    assert replication.stopped_by_predicate
    assert replication.rewards["latency"] == GOLDEN_CONSENSUS_LATENCY
    assert replication.rewards["completions"] == GOLDEN_CONSENSUS_COMPLETIONS


def test_batched_golden_final_marking_matches_scalar():
    _recorder, scalar = run_golden_trace(SANExecutor)
    _recorder, batched = run_golden_trace(BatchedSANExecutor)
    assert batched.end_time == scalar.end_time
    assert batched.final_marking == scalar.final_marking
    assert batched.dead_marking == scalar.dead_marking
    assert batched.stopped_by_predicate == scalar.stopped_by_predicate


# ----------------------------------------------------------------------
# Validation way 2: per-row bit-identity with scalar at B>1
# ----------------------------------------------------------------------
def test_batch_rows_are_bit_identical_to_scalar_replications():
    experiment = ConsensusSANExperiment(n_processes=3, seed=11)
    solver = experiment.solver()
    batch = solver.run_batch(range(10))
    for index, row in enumerate(batch):
        scalar = solver.run_replication(index)
        assert row.replication == scalar.replication == index
        assert row.rewards == scalar.rewards, index
        assert row.end_time == scalar.end_time, index
        assert row.stopped_by_predicate == scalar.stopped_by_predicate, index


def test_golden_batch_shares_no_state_across_rows():
    # Three rows with the same seed must produce three identical golden
    # traces: any cross-row stream sharing or marking aliasing breaks this.
    recorders = [TraceRecorder() for _ in range(3)]
    executor = BatchedSANExecutor.for_batch(
        build_golden_model(),
        [GOLDEN_SEED] * 3,
        [[recorder] for recorder in recorders],
    )
    outcomes = executor.run_batch(until=GOLDEN_HORIZON)
    expected = [
        (activity, time, dict(sorted(marking.items())))
        for activity, time, marking in GOLDEN_TRACE
    ]
    for recorder, outcome in zip(recorders, outcomes, strict=True):
        assert recorder.events == expected
        assert outcome.completions == len(GOLDEN_TRACE)


# ----------------------------------------------------------------------
# Solver threading: solve() equals the scalar reference loop
# ----------------------------------------------------------------------
def _reference_loop(solver, replications):
    """The scalar reference: one ``run_replication`` per index."""
    return [solver.run_replication(index) for index in range(replications)]


def test_solver_strategy_batched_matches_scalar_fixed_count():
    experiment = ConsensusSANExperiment(n_processes=3, seed=3)
    scalar = _reference_loop(experiment.solver(), 25)
    batched = experiment.solver().solve(replications=25)
    assert [r.rewards for r in scalar] == [r.rewards for r in batched.replications]
    assert [r.end_time for r in scalar] == [
        r.end_time for r in batched.replications
    ]


def test_solver_batch_size_never_changes_results():
    experiment = ConsensusSANExperiment(n_processes=3, seed=3)
    solver = experiment.solver()
    reference = _reference_loop(solver, 64)
    for batch_size in (1, 4, 13, 64):
        rows = [
            row
            for start in range(0, 64, batch_size)
            for row in solver.run_batch(range(start, min(start + batch_size, 64)))
        ]
        assert [r.rewards for r in rows] == [
            r.rewards for r in reference
        ], batch_size


def test_solver_batch_size_auto_and_jobs_never_change_results():
    # The grouped multi-batch pooled path: n=11 sizes batches at 32, so 70
    # replications make 3 batches, handed to 2 workers in groups.
    from repro.san.solver import auto_batch_size
    from repro.sanmodels.consensus_model import build_consensus_model

    assert auto_batch_size(build_consensus_model(11)) == 32
    experiment = ConsensusSANExperiment(n_processes=11, seed=3)
    reference = _reference_loop(experiment.solver(), 70)
    for jobs in (1, 2):
        other = experiment.solver().solve(replications=70, jobs=jobs)
        assert [r.rewards for r in other.replications] == [
            r.rewards for r in reference
        ], jobs


def test_auto_batch_size_is_structural():
    from repro.san.solver import (
        MAX_AUTO_BATCH_SIZE,
        MIN_AUTO_BATCH_SIZE,
        auto_batch_size,
    )
    from repro.sanmodels.consensus_model import build_consensus_model

    small = auto_batch_size(build_consensus_model(3))
    # A pure function of the model structure: any instance of the same
    # structure gives the same size (so jobs/workers always agree).
    assert auto_batch_size(build_consensus_model(3)) == small
    assert MIN_AUTO_BATCH_SIZE <= small <= MAX_AUTO_BATCH_SIZE
    # Larger models get narrower batches (never wider).
    large = auto_batch_size(build_consensus_model(10))
    assert MIN_AUTO_BATCH_SIZE <= large <= small


def test_solver_precision_loop_matches_scalar_under_batched_strategy():
    experiment = ConsensusSANExperiment(n_processes=3, seed=5)
    batched = experiment.solver().solve(
        target_reward="latency",
        relative_precision=0.25,
        min_replications=20,
        max_replications=120,
    )
    assert batched.precision_achieved
    scalar = _reference_loop(experiment.solver(), batched.n)
    assert [r.rewards for r in scalar] == [r.rewards for r in batched.replications]


def test_experiment_run_matches_the_reference_loop():
    experiment = ConsensusSANExperiment(n_processes=3, seed=9)
    batched = experiment.run(replications=15)
    scalar = _reference_loop(experiment.solver(), 15)
    assert batched.latencies_ms == [r.rewards["latency"] for r in scalar]


# ----------------------------------------------------------------------
# Validation way 3: agreement with the analytic solver
# (full three-model check: tests/test_solver_compare.py runs the batched
# leg of the solvercompare sweep; this is the cheap direct version.)
# ----------------------------------------------------------------------
def test_batched_means_bracket_the_analytic_value_on_fd_pair():
    from repro.experiments.solver_compare import compare_model_spec

    spec = compare_model_spec("fd-pair")
    exact = AnalyticSolver(
        model_factory=spec.model_factory,
        reward_factory=spec.reward_factory,
        stop_predicate=spec.stop_predicate,
        max_time=spec.max_time,
    ).solve()
    sampled = SimulativeSolver(
        model_factory=spec.model_factory,
        reward_factory=spec.reward_factory,
        stop_predicate=spec.stop_predicate,
        max_time=spec.max_time,
        seed=42,
        confidence=0.95,
        reuse_model=True,
    ).solve(replications=60)
    for reward_name in spec.reward_names:
        interval = sampled.interval(reward_name)
        assert interval.contains(exact.mean(reward_name)), reward_name


# ----------------------------------------------------------------------
# Termination semantics and interface edges
# ----------------------------------------------------------------------
def _draining_model() -> SANModel:
    model = SANModel("draining")
    model.add_place(Place("fuel", 2))
    model.add_activity(
        TimedActivity(
            "burn",
            Constant(1.5),
            input_arcs=["fuel"],
            cases=[Case.build(output_arcs=["ash"])],
        )
    )
    model.add_place(Place("ash", 0))
    return model


def test_dead_marking_advances_to_the_horizon():
    executor = BatchedSANExecutor(_draining_model(), Simulator(seed=0))
    outcome = executor.run(until=10.0)
    assert outcome.dead_marking
    assert outcome.completions == 2
    assert outcome.end_time == 10.0  # clock still advances to the horizon
    assert outcome.final_marking == Marking({"fuel": 0, "ash": 2})


def test_dead_marking_without_horizon_stops_at_last_event():
    executor = BatchedSANExecutor(_draining_model(), Simulator(seed=0))
    outcome = executor.run(until=None)
    assert outcome.dead_marking
    assert outcome.end_time == 3.0  # two constant 1.5 firings


def test_horizon_before_first_completion():
    executor = BatchedSANExecutor(_draining_model(), Simulator(seed=0))
    outcome = executor.run(until=1.0)
    assert outcome.completions == 0
    assert outcome.end_time == 1.0
    assert not outcome.dead_marking
    assert outcome.final_marking["fuel"] == 2


def test_stop_predicate_true_on_initial_marking():
    executor = BatchedSANExecutor(_draining_model(), Simulator(seed=0))
    outcome = executor.run(until=10.0, stop_predicate=lambda m: m["fuel"] >= 2)
    assert outcome.stopped_by_predicate
    assert outcome.end_time == 0.0
    assert outcome.completions == 0


def test_batch_termination_matches_scalar_on_draining_model():
    for until in (None, 1.0, 1.5, 10.0):
        scalar = SANExecutor(_draining_model(), Simulator(seed=0)).run(
            until=until
        )
        batched = BatchedSANExecutor(
            _draining_model(), Simulator(seed=0)
        ).run(until=until)
        assert batched.end_time == scalar.end_time, until
        assert batched.completions == scalar.completions, until
        assert batched.dead_marking == scalar.dead_marking, until
        assert batched.final_marking == scalar.final_marking, until


def test_initial_marking_override_matches_scalar():
    initial = Marking({"fuel": 1, "bonus": 4})  # "bonus" is undeclared
    scalar = SANExecutor(
        _draining_model(), Simulator(seed=0), initial_marking=initial.copy()
    ).run(until=10.0)
    batched = BatchedSANExecutor(
        _draining_model(), Simulator(seed=0), initial_marking=initial.copy()
    ).run(until=10.0)
    assert batched.completions == scalar.completions == 1
    assert batched.final_marking == scalar.final_marking
    assert batched.final_marking["bonus"] == 4


def test_run_requires_a_single_row():
    executor = BatchedSANExecutor.for_batch(
        _draining_model(), [0, 1], [[], []]
    )
    with pytest.raises(SANExecutionError, match="use run_batch"):
        executor.run(until=1.0)


def test_constructor_requires_streams_or_simulator():
    with pytest.raises(TypeError, match="needs a Simulator"):
        BatchedSANExecutor(_draining_model())
    with pytest.raises(ValueError, match="one entry per row"):
        BatchedSANExecutor(
            _draining_model(),
            streams=[None, None],  # type: ignore[list-item]
            rewards_per_row=[[]],
        )


def test_introspection_helpers():
    executor = BatchedSANExecutor.for_batch(
        _draining_model(), [0, 1], [[], []]
    )
    assert executor.batch_size == 2
    matrix = executor.tokens_matrix()
    assert matrix.shape == (2, 2)
    assert matrix[:, 0].tolist() == [2, 2]  # fuel column, both rows
    assert executor.enabled_activity_names(0) == {"burn"}
    assert executor.scheduled_activity_names(0) == set()  # not started yet
    assert executor.completions == 0
    assert executor.marking["fuel"] == 2
