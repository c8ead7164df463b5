"""Tests of the declarative experiment registry and the registry-driven CLI.

The CLI discovers its subcommands from :mod:`repro.experiments.registry`
(no hard-coded experiment table), and all option validation/resolution
goes through one shared code path (:class:`ExperimentOptions`).  These
tests run experiments at a *tiny* scale injected into
:data:`~repro.experiments.settings.SCALE_PRESETS`, proving that
registering a preset is all a new scale needs to become CLI-selectable.
"""

from __future__ import annotations

import pytest

from repro import cli
from repro.experiments import registry
from repro.experiments.figure6 import aggregate_figure6, figure6_plan, format_figure6
from repro.experiments.registry import ExperimentOptions, ExperimentSpec, run_experiment
from repro.experiments.runner import iter_plan
from repro.experiments.settings import SCALE_PRESETS, ExperimentSettings

#: Every experiment the eight generator modules must register.
EXPECTED_EXPERIMENTS = {
    "faultsweep",
    "figure6",
    "figure7a",
    "figure7b",
    "figure8",
    "figure9",
    "means",
    "solvercompare",
    "table1",
    "traceanalysis",
}


def tiny_settings() -> ExperimentSettings:
    """A minimal scale for fast CLI-path tests."""
    return ExperimentSettings(
        executions=8,
        class3_executions=6,
        replications=8,
        measured_process_counts=(3,),
        simulated_process_counts=(3,),
        class3_process_counts=(3,),
        timeouts_ms=(2.0,),
        t_send_candidates_ms=(0.01,),
        delay_probes=40,
        seed=5,
    )


@pytest.fixture
def tiny_scale(monkeypatch):
    """Register the tiny preset under the scale name ``tiny``."""
    monkeypatch.setitem(SCALE_PRESETS, "tiny", tiny_settings)
    return "tiny"


# ----------------------------------------------------------------------
# Registry mechanics
# ----------------------------------------------------------------------
def test_registry_discovers_every_experiment():
    assert set(registry.names()) == EXPECTED_EXPERIMENTS
    assert registry.names() == sorted(EXPECTED_EXPERIMENTS)


def test_cli_has_no_hardcoded_experiment_table():
    assert not hasattr(cli, "REPORTS")


def test_get_unknown_experiment_raises():
    with pytest.raises(KeyError, match="unknown experiment"):
        registry.get("figure99")


def test_registering_a_duplicate_name_raises():
    duplicate = ExperimentSpec(
        name="figure6",
        description="imposter",
        render_text=str,
        to_record=lambda result: {},
        run=lambda context: None,
    )
    with pytest.raises(ValueError, match="already registered"):
        registry.register(duplicate)


def test_spec_requires_run_or_plan_plus_aggregate():
    with pytest.raises(ValueError, match="must define either"):
        ExperimentSpec(
            name="incomplete",
            description="no execution strategy",
            render_text=str,
            to_record=lambda result: {},
        )


# ----------------------------------------------------------------------
# Shared option validation / settings resolution
# ----------------------------------------------------------------------
def test_negative_jobs_is_rejected_with_a_consistent_message():
    with pytest.raises(ValueError, match="positive integer, or 0"):
        ExperimentOptions(jobs=-1).validate()


def test_zero_jobs_means_one_worker_per_cpu_and_is_accepted():
    ExperimentOptions(jobs=0).validate()


def test_cache_dir_conflicting_with_a_file_is_rejected(tmp_path):
    conflict = tmp_path / "not-a-dir"
    conflict.write_text("occupied")
    with pytest.raises(ValueError, match="is not a directory"):
        ExperimentOptions(cache_dir=str(conflict)).validate()


def test_resolve_settings_applies_scale_and_seed(tiny_scale):
    settings = ExperimentOptions(scale=tiny_scale, seed=99).resolve_settings()
    assert settings.executions == tiny_settings().executions
    assert settings.seed == 99


def test_scale_name_identifies_presets_ignoring_seed_overrides(tiny_scale):
    assert ExperimentSettings.smoke().scale_name() == "smoke"
    assert ExperimentOptions(scale=tiny_scale, seed=7).resolve_settings().scale_name() == "tiny"
    custom = ExperimentSettings(executions=123456)
    assert custom.scale_name() == "custom"


# ----------------------------------------------------------------------
# The registry-driven CLI
# ----------------------------------------------------------------------
def test_cli_list_names_every_registered_experiment(capsys):
    assert cli.main(["--list"]) == 0
    output = capsys.readouterr().out
    for name in EXPECTED_EXPERIMENTS:
        assert name in output


def test_cli_requires_an_experiment_or_list():
    with pytest.raises(SystemExit):
        cli.main([])


def test_cli_rejects_negative_jobs(capsys):
    with pytest.raises(SystemExit):
        cli.main(["figure6", "--jobs", "-2"])
    assert "positive integer" in capsys.readouterr().err


def test_cli_rejects_unknown_experiments():
    with pytest.raises(SystemExit):
        cli.main(["figure99"])


def test_cli_text_output_is_identical_to_the_library_path(tiny_scale, capsys):
    """The registry/CLI plumbing must not alter the rendered report."""
    assert cli.main(["figure6", "--scale", tiny_scale]) == 0
    output = capsys.readouterr().out
    body = output.split("====\n", 1)[1].rsplit("\n[figure6 regenerated", 1)[0]
    settings = tiny_settings()
    expected = format_figure6(aggregate_figure6(settings, iter_plan(figure6_plan(settings))))
    assert body == expected


def test_run_experiment_records_point_timings(tiny_scale):
    run = run_experiment(
        registry.get("figure7a"), options=ExperimentOptions(scale=tiny_scale)
    )
    assert run.manifest.experiment == "figure7a"
    assert run.manifest.scale == "tiny"
    labels = [point.label for point in run.manifest.points]
    assert labels == ["figure7a n=3"]
    assert all(point.seconds > 0 for point in run.manifest.points)
    assert run.manifest.wall_clock_seconds >= max(p.seconds for p in run.manifest.points)


def test_manifest_scale_reflects_explicit_settings_not_stale_options(tiny_scale):
    """An explicit settings object wins over options for provenance too."""
    run = run_experiment(
        registry.get("figure7a"),
        options=ExperimentOptions(scale="smoke", jobs=1),
        settings=tiny_settings(),
    )
    assert run.manifest.scale == "tiny"
    assert run.manifest.settings_hash == tiny_settings().settings_hash()


def test_composite_experiments_time_their_ad_hoc_stages(tiny_scale):
    run = run_experiment(
        registry.get("figure7b"), options=ExperimentOptions(scale=tiny_scale)
    )
    labels = [point.label for point in run.manifest.points]
    # The inline measurement stage, the figure6 sub-sweep, and the t_send
    # candidate sweep must all appear in the manifest.
    assert "figure7b measure n=5" in labels
    assert any(label.startswith("figure6") for label in labels)
    assert any(label.startswith("figure7b t_send") for label in labels)
