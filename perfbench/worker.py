"""One fresh benchmark process: set up, run one workload pass, check, report.

Run from the repository root with ``src`` on ``PYTHONPATH``::

    python3 -m perfbench.worker --spawned-at T --setup-only
    python3 -m perfbench.worker --spawned-at T --workload class3 --seed 1 --trace 0
    python3 -m perfbench.worker --workload model --write-reference

The last line of standard output is one JSON object.  ``perfbench/run.py``
starts these processes and aggregates their reports; ``--write-reference``
re-records ``reference.json`` for one workload at the default seed.
Only the standard library is imported before the setup timing ends.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional


def _setup(spawned_at: Optional[float]) -> dict:
    """Import the CLI and discover the registry, timing both."""
    started = time.perf_counter()
    import repro.cli  # noqa: F401  (the import is what is timed)

    imported = time.perf_counter()
    from repro.experiments import registry

    registry.discover()
    discovered = time.perf_counter()
    setup = {"import_s": imported - started, "discover_s": discovered - imported}
    if spawned_at is not None:
        setup["setup_s"] = time.monotonic() - spawned_at
    return setup


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    report = {"setup": _setup(args.spawned_at)}
    if not args.setup_only:
        if args.workload is None or (args.seed is None and not args.write_reference):
            parser.error("a pass needs --workload and --seed")
        from perfbench import passes

        if args.write_reference:
            passes.write_reference(args.workload)
            return 0
        report.update(passes.run_pass(args.workload, args.seed, traced=bool(args.trace)))
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
