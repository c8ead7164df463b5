"""Executor labels of the SAN simulative solver.

:meth:`SimulativeSolver.solve <repro.san.solver.SimulativeSolver.solve>`
always runs lock-step batches sized by
:func:`~repro.san.solver.auto_batch_size`; there is no executor policy to
choose.  The batch size never changes results: every replication is
bit-identical to its scalar reference run (the determinism contract of
:mod:`repro.san.solver`).  These two functions report that fixed choice,
for run reports that label which executor and batch size ran; their
argument is ignored.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["resolve_batch_size", "resolve_strategy"]


def resolve_strategy(explicit: Optional[str] = None) -> str:
    """The executor every ``solve()`` runs: ``"batched"``."""
    return "batched"


def resolve_batch_size(explicit: Optional[str] = None) -> str:
    """The batch sizing every ``solve()`` uses: ``"auto"``."""
    return "auto"
