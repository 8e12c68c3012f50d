"""``repro.suite`` — declarative, resumable, content-addressed sweeps.

A *suite file* (JSON; TOML on Python 3.11+) declares a scenario grid ×
policies × a :class:`~repro.api.scenario.SimConfig` sweep (seeds,
disciplines, semantics, ...) plus optional registered experiments.  The
spec expands into *cells*; each cell is content-addressed by a sha256
digest over the materialized instance, the scenario recipe, the policy,
the config core, and the resolved RNG discipline
(:meth:`SimConfig.resolved <repro.api.scenario.SimConfig.resolved>`).
The host's trial-shard thread count is not part of a cell: it changes
no sample.  Artifacts persist under ``out_dir/cells/<digest>.json``, so
re-running a suite computes only the delta and resuming after an
interrupt is free.

Quick start::

    from repro.suite import SuiteRunner, load_suite

    spec = load_suite("suites/demo.json")
    outcome = SuiteRunner(spec, "results/demo", jobs=4).run(progress=print)
    print(outcome.executed, outcome.cached)

or from the CLI::

    repro suite run suites/demo.json --out results/demo --jobs 4
    repro suite status suites/demo.json --out results/demo
"""

from repro.suite.digest import cell_digest, cell_payload
from repro.suite.report import report_dict, report_markdown, write_report
from repro.suite.runner import CellOutcome, SuiteOutcome, SuiteRunner, execute_cell
from repro.suite.spec import (
    ExperimentCell,
    SimulateCell,
    SuiteError,
    SuiteSpec,
    load_suite,
    suite_from_dict,
)

__all__ = [
    "SuiteError",
    "SuiteSpec",
    "SimulateCell",
    "ExperimentCell",
    "load_suite",
    "suite_from_dict",
    "cell_digest",
    "cell_payload",
    "SuiteRunner",
    "SuiteOutcome",
    "CellOutcome",
    "execute_cell",
    "report_dict",
    "report_markdown",
    "write_report",
]
