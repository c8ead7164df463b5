"""Tests of the SAN executor labels (:mod:`repro.san.execution`).

``solve()`` always runs lock-step batches sized by ``auto_batch_size``,
so the labels that run reports print are fixed.
"""

from __future__ import annotations

from repro.san import execution


def test_defaults_without_policy():
    assert execution.resolve_strategy() == "batched"
    assert execution.resolve_batch_size() == "auto"
    assert execution.resolve_strategy(None) == "batched"
    assert execution.resolve_batch_size(None) == "auto"
