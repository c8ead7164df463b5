"""Tests of the parallel replication/sweep engine.

The engine's contract is determinism: a point's seed depends only on its
identity (its seed-derivation indices), results are aggregated in plan
order whatever the worker count, and the on-disk cache only ever returns a
result for an exactly identical (point, seed, settings) triple.
"""

from __future__ import annotations

import pytest

from repro.experiments import registry
from repro.experiments.figure8 import figure8_plan
from repro.experiments.registry import ExperimentOptions, run_experiment
from repro.experiments.runner import (
    ReplicationPlan,
    ResultCache,
    SweepPoint,
    execute_plan,
    iter_plan,
    resolve_jobs,
)
from repro.experiments.settings import ExperimentSettings


@pytest.fixture
def settings() -> ExperimentSettings:
    return ExperimentSettings(
        executions=10,
        class3_executions=6,
        replications=10,
        measured_process_counts=(3, 5),
        simulated_process_counts=(3,),
        class3_process_counts=(3,),
        timeouts_ms=(2.0, 30.0),
        t_send_candidates_ms=(0.01, 0.025),
        delay_probes=40,
        seed=7,
    )


def _echo_point(tag: str, point_seed: int) -> tuple:
    """A trivial module-level point function (picklable for the pool)."""
    return (tag, point_seed)


def _plan(settings, tags=("a", "b", "c", "d")) -> ReplicationPlan:
    points = tuple(
        SweepPoint.make(
            _echo_point,
            kwargs={"tag": tag},
            indices=(99, index),
            label=f"echo {tag}",
        )
        for index, tag in enumerate(tags)
    )
    return ReplicationPlan(settings=settings, points=points, name="echo")


# ----------------------------------------------------------------------
# Per-point seed derivation
# ----------------------------------------------------------------------
def test_point_seeds_depend_only_on_indices_not_on_plan_position(settings):
    forward = _plan(settings, tags=("a", "b", "c"))
    # The same points in a different order: every point keeps its seed.
    reordered = ReplicationPlan(
        settings=settings,
        points=tuple(reversed(forward.points)),
        name="echo-reversed",
    )
    by_indices_forward = {p.indices: p.seed(settings) for p in forward.points}
    by_indices_reordered = {p.indices: p.seed(settings) for p in reordered.points}
    assert by_indices_forward == by_indices_reordered


def test_point_seeds_match_experiment_settings_point_seed(settings):
    plan = _plan(settings)
    for point in plan.points:
        assert point.seed(settings) == settings.point_seed(*point.indices)


def test_distinct_indices_yield_distinct_seeds(settings):
    seeds = _plan(settings, tags=tuple("abcdefgh")).seeds()
    assert len(set(seeds)) == len(seeds)


def test_plans_reject_duplicate_indices(settings):
    point = SweepPoint.make(_echo_point, kwargs={"tag": "x"}, indices=(1, 2))
    clone = SweepPoint.make(_echo_point, kwargs={"tag": "y"}, indices=(1, 2))
    with pytest.raises(ValueError, match="duplicate seed indices"):
        ReplicationPlan(settings=settings, points=(point, clone))


def test_resolve_jobs():
    assert resolve_jobs(1) == 1
    assert resolve_jobs(4) == 4
    assert resolve_jobs(None) >= 1
    assert resolve_jobs(0) >= 1
    with pytest.raises(ValueError):
        resolve_jobs(-2)


# ----------------------------------------------------------------------
# Execution: serial fallback vs. process pool
# ----------------------------------------------------------------------
def test_results_stream_in_plan_order_with_seeds_injected(settings):
    plan = _plan(settings)
    results = execute_plan(plan, jobs=1)
    assert [tag for tag, _seed in results] == ["a", "b", "c", "d"]
    assert [seed for _tag, seed in results] == plan.seeds()


def test_parallel_execution_equals_serial_execution(settings):
    plan = _plan(settings)
    assert execute_plan(plan, jobs=1) == execute_plan(plan, jobs=3)


def _run(name, settings, jobs):
    """One registry run of ``name``, as ``repro <name> --jobs <jobs>`` does it."""
    return run_experiment(
        registry.get(name), ExperimentOptions(jobs=jobs), settings=settings
    ).result


def test_figure8_sweep_is_identical_across_worker_counts(settings):
    serial = _run("figure8", settings, jobs=1)
    parallel = _run("figure8", settings, jobs=4)

    def flatten(result):
        return {
            key: (
                point.mistake_recurrence_time_ms,
                point.mistake_duration_ms,
                point.latencies_ms,
                point.undecided,
            )
            for key, point in result.points.items()
        }

    assert flatten(serial) == flatten(parallel)


def test_figure7a_is_bit_for_bit_identical_across_worker_counts(settings):
    serial = _run("figure7a", settings, jobs=1)
    parallel = _run("figure7a", settings, jobs=4)
    assert serial.latencies_by_n == parallel.latencies_by_n


# ----------------------------------------------------------------------
# On-disk cache
# ----------------------------------------------------------------------
def test_cache_serves_repeat_executions_without_recomputing(settings, tmp_path):
    plan = figure8_plan(settings)
    first = execute_plan(plan, jobs=1, cache_dir=str(tmp_path))
    cache_files = sorted(tmp_path.glob("*.pkl"))
    assert len(cache_files) == len(plan.points)
    before = {path: path.stat().st_mtime_ns for path in cache_files}
    second = execute_plan(plan, jobs=1, cache_dir=str(tmp_path))
    after = {path: path.stat().st_mtime_ns for path in sorted(tmp_path.glob("*.pkl"))}
    assert before == after  # pure cache hits: nothing was rewritten

    def flatten(points):
        return [(p.n_processes, p.timeout_ms, p.latencies_ms) for p in points]

    assert flatten(first) == flatten(second)


def test_cache_misses_on_different_seed_or_point(settings, tmp_path):
    cache = ResultCache(str(tmp_path))
    plan = _plan(settings, tags=("a", "b"))
    keys = [ResultCache.key(point, settings) for point in plan.points]
    assert keys[0] != keys[1]
    import dataclasses

    reseeded = dataclasses.replace(settings, seed=settings.seed + 1)
    assert ResultCache.key(plan.points[0], reseeded) != keys[0]
    assert cache.get(keys[0]) == (False, None)


def test_corrupt_cache_entries_count_as_misses(settings, tmp_path):
    cache = ResultCache(str(tmp_path))
    plan = _plan(settings, tags=("a",))
    key = ResultCache.key(plan.points[0], settings)
    cache.put(key, ("a", 123))
    assert cache.get(key) == (True, ("a", 123))
    (tmp_path / f"{key}.pkl").write_bytes(b"not a pickle")
    assert cache.get(key) == (False, None)


def test_cached_points_are_not_resubmitted_to_the_pool(settings, tmp_path):
    plan = _plan(settings)
    execute_plan(plan, jobs=1, cache_dir=str(tmp_path))
    # A second, parallel execution must be served from the cache and still
    # deliver the results in plan order.
    results = execute_plan(plan, jobs=3, cache_dir=str(tmp_path))
    assert [tag for tag, _seed in results] == ["a", "b", "c", "d"]


# ----------------------------------------------------------------------
# Point-level timing hooks
# ----------------------------------------------------------------------
@pytest.mark.parametrize("jobs", [1, 3])
def test_timing_hook_fires_once_per_point_in_plan_order(settings, jobs):
    plan = _plan(settings)
    seen = []
    for _point, _result in iter_plan(
        plan, jobs=jobs, timing_hook=lambda p, s, c: seen.append((p.label, s, c))
    ):
        pass
    assert [label for label, _s, _c in seen] == [p.label for p in plan.points]
    assert all(seconds >= 0 for _label, seconds, _c in seen)
    assert not any(cached for _label, _s, cached in seen)


# ----------------------------------------------------------------------
# Grouped pool submissions (group_size > 1)
# ----------------------------------------------------------------------
def test_grouped_execution_equals_serial_execution(settings):
    # 7 points across 2-3 workers with uneven group splits (3/3/1, 2/2/2/1):
    # grouping is a submission-granularity knob, never a result knob.
    plan = _plan(settings, tags=tuple("abcdefg"))
    serial = execute_plan(plan, jobs=1)
    assert execute_plan(plan, jobs=2, group_size=3) == serial
    assert execute_plan(plan, jobs=3, group_size=2) == serial
    assert execute_plan(plan, jobs=2, group_size=100) == serial  # one big group


def test_group_size_must_be_positive(settings):
    plan = _plan(settings)
    with pytest.raises(ValueError, match="group_size"):
        list(iter_plan(plan, jobs=2, group_size=0))


def test_grouped_execution_keeps_per_point_cache_and_timing(settings, tmp_path):
    plan = _plan(settings, tags=tuple("abcde"))
    cache = ResultCache(str(tmp_path))
    # Pre-warm two points so the grouped run must mix hits and misses.
    warm = ReplicationPlan(settings=settings, points=plan.points[1:3], name="echo")
    list(iter_plan(warm, jobs=1, cache=cache))

    seen = []
    results = [
        result
        for _point, result in iter_plan(
            plan,
            jobs=2,
            group_size=2,
            cache=cache,
            timing_hook=lambda p, s, c: seen.append((p.label, c)),
        )
    ]
    assert [tag for tag, _seed in results] == ["a", "b", "c", "d", "e"]
    # The hook still fires once per point, in plan order, with cache flags.
    assert seen == [
        ("echo a", False),
        ("echo b", True),
        ("echo c", True),
        ("echo d", False),
        ("echo e", False),
    ]
    # Every point (cached or grouped) landed in the cache exactly once.
    assert len(sorted(tmp_path.glob("*.pkl"))) == len(plan.points)


def test_timing_hook_marks_cache_hits(settings, tmp_path):
    plan = _plan(settings)
    cache = ResultCache(str(tmp_path))
    list(iter_plan(plan, jobs=1, cache=cache))
    seen = []
    list(
        iter_plan(
            plan, jobs=1, cache=cache, timing_hook=lambda p, s, c: seen.append((s, c))
        )
    )
    assert len(seen) == len(plan.points)
    assert all(cached and seconds == 0.0 for seconds, cached in seen)
