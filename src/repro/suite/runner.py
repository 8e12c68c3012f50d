"""Execute a suite: content-addressed cells, resumable, delta-only.

Every cell persists its artifact under ``out_dir/cells/<digest>.json``
(written atomically — temp file + ``os.replace`` — so an interrupt never
leaves a half-written artifact that would poison a resume).  A run walks
the spec's cells in declaration order, loads artifacts that already exist,
and executes only the missing ones; deleting one artifact re-executes
exactly that cell.

Execution goes through the existing :mod:`repro.api.service` executor
seam: with ``jobs > 1`` the runner owns one
:class:`~repro.api.executors.WarmPoolExecutor` for the whole suite and
hands it to every :func:`~repro.api.service.simulate` call, so trials fan
out across processes along the service's shard seam while the
cache/resume bookkeeping stays in this process.  Its pool is built by the
first cell that runs, and a pool a dead worker broke is replaced for the
next cell (or, mid-cell, for that cell's one retry).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.api.executors import WarmPoolExecutor
from repro.api.service import simulate
from repro.suite.digest import CELL_FORMAT, cell_digest, cell_payload
from repro.suite.spec import ExperimentCell, SimulateCell, SuiteSpec

__all__ = ["CellOutcome", "SuiteOutcome", "SuiteRunner", "execute_cell"]


def execute_cell(cell, executor=None) -> dict:
    """Run one cell and return its JSON-compatible result block.

    Module-level on purpose: it is the single execution choke point, so
    tests (and the cache-hit acceptance check) can spy on it to prove a
    resumed run performs zero executions.
    """
    if isinstance(cell, SimulateCell):
        report = simulate(
            cell.scenario, cell.policy, cell.config, executor=executor
        )
        lo, hi = report.stats.ci95
        return {
            "policy": report.policy,
            "mean": report.mean,
            "ci95": [float(lo), float(hi)],
            "lower_bound": report.lower_bound,
            "ratio": report.ratio,
            "n_trials": report.stats.n_trials,
        }
    if isinstance(cell, ExperimentCell):
        # Deferred import: the experiments package pulls the full
        # analysis stack, which simulate-only suites never need.
        from repro.experiments import get_experiment

        result = get_experiment(cell.exp_id)(**cell.args)
        return {
            "exp_id": result.exp_id,
            "title": result.title,
            "headers": list(result.headers),
            "rows": [list(row) for row in result.rows],
            "notes": list(result.notes),
        }
    raise TypeError(f"not a suite cell: {cell!r}")


@dataclass(frozen=True)
class CellOutcome:
    """One cell's run record: its address, artifact, and cache status."""

    digest: str
    label: str
    cached: bool
    artifact: dict


@dataclass
class SuiteOutcome:
    """What a suite run did: per-cell outcomes plus the delta counts."""

    suite: str
    outcomes: list[CellOutcome] = field(default_factory=list)

    @property
    def executed(self) -> int:
        return sum(1 for o in self.outcomes if not o.cached)

    @property
    def cached(self) -> int:
        return sum(1 for o in self.outcomes if o.cached)


class SuiteRunner:
    """Drive one :class:`~repro.suite.spec.SuiteSpec` against ``out_dir``."""

    def __init__(self, spec: SuiteSpec, out_dir, *, jobs: int = 1,
                 force: bool = False):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.spec = spec
        self.out_dir = str(out_dir)
        self.cells_dir = os.path.join(self.out_dir, "cells")
        self.jobs = jobs
        self.force = force

    def cell_path(self, digest: str) -> str:
        return os.path.join(self.cells_dir, f"{digest}.json")

    # ------------------------------------------------------------------
    def status(self) -> list[tuple[str, str, bool]]:
        """``(digest, label, done)`` per cell, in declaration order."""
        return [
            (digest, cell.label(), os.path.exists(self.cell_path(digest)))
            for cell, digest in self._addressed()
        ]

    def run(self, progress=None) -> SuiteOutcome:
        """Execute the delta (resume is free), then write the report.

        ``progress`` (optional callable, e.g. ``print``) receives one
        line per cell as it completes.
        """
        os.makedirs(self.cells_dir, exist_ok=True)
        outcome = SuiteOutcome(suite=self.spec.name)
        with (WarmPoolExecutor(self.jobs) if self.jobs > 1
              else nullcontext()) as executor:
            for cell, digest in self._addressed():
                path = self.cell_path(digest)
                if not self.force and os.path.exists(path):
                    with open(path) as fh:
                        artifact = json.load(fh)
                    record = CellOutcome(digest, cell.label(), True, artifact)
                else:
                    artifact = self._materialize(cell, digest, executor)
                    self._write_atomic(path, artifact)
                    record = CellOutcome(digest, cell.label(), False, artifact)
                outcome.outcomes.append(record)
                if progress is not None:
                    state = "cached" if record.cached else (
                        f"ran in {artifact['elapsed_seconds']:.2f}s")
                    progress(f"[{digest[:12]}] {record.label}: {state}")
        self._write_report(outcome)
        return outcome

    # ------------------------------------------------------------------
    def _addressed(self):
        return [(cell, cell_digest(cell)) for cell in self.spec.cells()]

    def _materialize(self, cell, digest: str, executor) -> dict:
        t0 = time.perf_counter()
        result = execute_cell(
            cell, executor=executor if isinstance(cell, SimulateCell) else None
        )
        payload = cell_payload(cell)
        return {
            "format": CELL_FORMAT,
            "digest": digest,
            "suite": self.spec.name,
            "kind": payload["kind"],
            "cell": payload,
            "result": result,
            "elapsed_seconds": time.perf_counter() - t0,
        }

    def _write_atomic(self, path: str, artifact: dict) -> None:
        fd, tmp = tempfile.mkstemp(dir=self.cells_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(artifact, fh, indent=1, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def _write_report(self, outcome: SuiteOutcome) -> None:
        # Deferred import: report rendering depends on this module's types.
        from repro.suite.report import write_report

        write_report(self.out_dir, self.spec, outcome)
