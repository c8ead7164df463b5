"""Tests of the structured artifact layer.

The expensive part -- every registered experiment running at smoke scale
through the real CLI with ``--output`` -- happens once in a module-scoped
fixture; the tests then validate the emitted JSON against the artifact
schema, round-trip the manifests, parse the CSV series, and check the
written text reports against the library rendering path byte for byte.
"""

from __future__ import annotations

import csv
import io
import json
from contextlib import redirect_stdout

import pytest

from repro import cli
from repro.experiments import registry
from repro.experiments.artifacts import (
    ARTIFACT_SCHEMA,
    ArtifactValidationError,
    PointTiming,
    RunManifest,
    json_safe,
    render_csv,
    validate_artifact,
    validate_instance,
)
from repro.experiments.runner import iter_plan
from repro.experiments.settings import ExperimentSettings


@pytest.fixture(scope="module")
def smoke_cli_artifacts(tmp_path_factory):
    """Run every registered experiment at smoke scale through the CLI."""
    output_dir = tmp_path_factory.mktemp("artifacts")
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        code = cli.main(["all", "--scale", "smoke", "--jobs", "0", "--output", str(output_dir)])
    assert code == 0
    return output_dir


# ----------------------------------------------------------------------
# The full pipeline at smoke scale
# ----------------------------------------------------------------------
def test_every_experiment_emits_a_schema_valid_json_artifact(smoke_cli_artifacts):
    for name in registry.names():
        path = smoke_cli_artifacts / name / "result.json"
        payload = json.loads(path.read_text())
        validate_artifact(payload)
        assert payload["experiment"] == name
        assert payload["data"], f"{name}: empty data object"


def test_every_manifest_round_trips_and_records_provenance(smoke_cli_artifacts):
    smoke_hash = ExperimentSettings.smoke().settings_hash()
    for name in registry.names():
        path = smoke_cli_artifacts / name / "manifest.json"
        manifest = RunManifest.from_json(path.read_text())
        assert RunManifest.from_json(manifest.to_json()) == manifest
        assert manifest.experiment == name
        assert manifest.scale == "smoke"
        assert manifest.seed == ExperimentSettings.smoke().seed
        assert manifest.jobs == 0
        assert manifest.settings_hash == smoke_hash
        assert manifest.points, f"{name}: no per-point timings"
        assert manifest.wall_clock_seconds > 0


def test_every_tabular_experiment_emits_parsable_csv(smoke_cli_artifacts):
    for spec in registry.iter_specs():
        path = smoke_cli_artifacts / spec.name / "result.csv"
        if spec.to_rows is None:
            assert not path.exists()
            continue
        rows = list(csv.reader(path.read_text().splitlines()))
        assert len(rows) >= 2, f"{spec.name}: header plus at least one data row"
        assert all(len(row) == len(rows[0]) for row in rows)


def test_written_reports_match_the_library_rendering_byte_for_byte(smoke_cli_artifacts):
    """The artifact pipeline must not perturb the paper-faithful text.

    Re-render the cheap deterministic experiments directly from their plan
    builders, aggregators and text renderers (no registry run, no manifest)
    and compare with what the CLI wrote.  (``solvercompare`` is excluded:
    its report embeds wall-clock timings.)
    """
    smoke = ExperimentSettings.smoke()
    for name in ("figure6", "figure7a", "figure8"):
        spec = registry.get(name)
        written = (smoke_cli_artifacts / name / "report.txt").read_text()
        expected = spec.render_text(
            spec.aggregate(smoke, iter_plan(spec.build_plan(smoke)))
        )
        # The writer guarantees exactly one trailing newline.
        assert written == (expected if expected.endswith("\n") else expected + "\n")


def test_stdout_json_format_is_schema_valid(capsys):
    assert cli.main(["figure6", "--scale", "smoke", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    validate_artifact(payload)
    assert payload["experiment"] == "figure6"


def test_stdout_csv_format_parses(capsys):
    assert cli.main(["figure7a", "--scale", "smoke", "--format", "csv"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0][0] == "n_processes"
    assert len(rows) >= 2


# ----------------------------------------------------------------------
# Schema validator and JSON normalisation units
# ----------------------------------------------------------------------
def test_validator_rejects_missing_required_keys():
    with pytest.raises(ArtifactValidationError, match="missing required key"):
        validate_artifact({"schema": "repro.experiment-artifact/v1"})


def test_validator_rejects_wrong_types_with_a_path():
    schema = {"type": "object", "properties": {"x": {"type": "integer"}}}
    with pytest.raises(ArtifactValidationError, match=r"\$\.x"):
        validate_instance({"x": "not-an-int"}, schema)


def test_validator_rejects_wrong_schema_constant():
    payload = {
        "schema": "something-else/v9",
        "experiment": "figure6",
        "description": "",
        "data": {},
        "manifest": {},
    }
    with pytest.raises(ArtifactValidationError, match="expected constant"):
        validate_instance(payload, ARTIFACT_SCHEMA)


def test_validator_accepts_integer_where_number_is_expected():
    validate_instance({"x": 3}, {"type": "object", "properties": {"x": {"type": "number"}}})


def test_json_safe_normalises_non_finite_floats_and_tuples():
    value = {"a": float("nan"), "b": float("inf"), "c": (1, 2), 3: "key"}
    assert json_safe(value) == {"a": None, "b": None, "c": [1, 2], "3": "key"}


def test_render_csv_writes_empty_cells_for_none_and_non_finite_floats():
    """CSV mirrors the JSON layer's non-finite -> null rule (no 'inf'/'nan')."""
    text = render_csv(
        (["a", "b"], [[1, None], ["x", 2.5], [float("inf"), float("nan")]])
    )
    assert text == "a,b\n1,\nx,2.5\n,\n"


def test_manifest_round_trip_from_synthetic_values():
    manifest = RunManifest(
        experiment="figure6",
        scale="quick",
        seed=42,
        jobs=None,
        settings_hash="abc123",
        settings={"executions": 8},
        started_at="2026-07-27T00:00:00Z",
        wall_clock_seconds=1.25,
        points=(PointTiming(label="p0", indices=(6, 0), seconds=0.5, cached=True),),
        version="1.0.0",
    )
    restored = RunManifest.from_json(manifest.to_json())
    assert restored == manifest
    assert restored.points[0].indices == (6, 0)
