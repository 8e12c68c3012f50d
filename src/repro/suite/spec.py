"""Declarative suite files: what a sweep *is*, as plain data.

A suite file (JSON always; TOML on Python 3.11+ where :mod:`tomllib`
exists) names a scenario grid × a policy list × a config sweep, plus
optional registered-experiment entries::

    {
      "name": "demo",
      "grid": {"base": {"shape": "independent", "n_jobs": 12,
                        "n_machines": 4}},
      "policies": ["obl", "greedy"],
      "config": {"n_trials": 40, "max_steps": 40000},
      "sweep": {"discipline": ["v1", "v2"], "seed": [0, 1]},
      "experiments": [{"id": "E-LP1", "args": {"sizes": [[8, 3]]}}]
    }

``sweep`` axes are :class:`~repro.api.scenario.SimConfig` fields (seeds,
disciplines, semantics, ...); every combination multiplies
the grid × policies product.  Loading is *strict*: unknown top-level
keys, unknown sweep fields, unknown policies, unknown experiment ids, and
malformed shapes (a sweep axis or ``experiments`` that is not a list, a
``grid`` that is not a mapping, ``policies`` that is neither a name nor a
list) all raise :class:`SuiteError` at load time — a typo must never
silently shrink a sweep.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass

from repro.api.registry import get_policy
from repro.api.scenario import Scenario, ScenarioGrid, SimConfig
from repro.errors import InvalidScenarioError, UnknownPolicyError

__all__ = [
    "SuiteError",
    "SimulateCell",
    "ExperimentCell",
    "SuiteSpec",
    "load_suite",
]

_TOP_LEVEL_KEYS = ("name", "grid", "policies", "config", "sweep", "experiments")


class SuiteError(ValueError):
    """A suite file (or spec) is malformed."""


@dataclass(frozen=True)
class SimulateCell:
    """One measurement: a policy on a scenario under a concrete config."""

    scenario: Scenario
    policy: str
    config: SimConfig

    def label(self) -> str:
        knobs = self.config.resolved()
        return (
            f"{self.policy} on {self.scenario.label()} "
            f"[{knobs.discipline} seed={self.config.seed}]"
        )


@dataclass(frozen=True)
class ExperimentCell:
    """One registered-experiment run (:mod:`repro.experiments`).

    ``args`` is stored as a canonical JSON string so the cell stays
    hashable and its digest is insensitive to dict ordering.
    """

    exp_id: str
    args_json: str = "{}"

    @property
    def args(self) -> dict:
        return json.loads(self.args_json)

    def label(self) -> str:
        return f"experiment {self.exp_id}"


@dataclass(frozen=True)
class SuiteSpec:
    """A loaded, validated suite: everything needed to expand cells."""

    name: str
    grid: ScenarioGrid | None
    policies: tuple[str, ...]
    config: SimConfig
    sweep: tuple[tuple[str, tuple], ...]
    experiments: tuple[ExperimentCell, ...]

    def configs(self) -> list[SimConfig]:
        """The config sweep expanded (first axis varying slowest)."""
        names = [name for name, _ in self.sweep]
        combos = itertools.product(*(values for _, values in self.sweep))
        out = []
        for combo in combos:
            try:
                out.append(dataclasses.replace(self.config, **dict(zip(names, combo))))
            except InvalidScenarioError as exc:
                raise SuiteError(f"suite {self.name!r}: bad sweep value: {exc}") from exc
        return out

    def cells(self) -> list[SimulateCell | ExperimentCell]:
        """Every cell, scenario-major (scenario → policy → sweep combo),
        experiments last.  Deterministic: declaration order throughout."""
        cells: list[SimulateCell | ExperimentCell] = []
        configs = self.configs()
        if self.grid is not None:
            for scenario in self.grid:
                for policy in self.policies:
                    for config in configs:
                        cells.append(SimulateCell(scenario, policy, config))
        cells.extend(self.experiments)
        return cells

    def to_dict(self) -> dict:
        """JSON-compatible representation (inverse of :func:`load_suite`)."""
        return {
            "name": self.name,
            "grid": self.grid.to_dict() if self.grid is not None else None,
            "policies": list(self.policies),
            "config": self.config.to_dict(),
            "sweep": {name: list(values) for name, values in self.sweep},
            "experiments": [
                {"id": e.exp_id, "args": e.args} for e in self.experiments
            ],
        }


def _validate_policies(policies, name: str) -> tuple[str, ...]:
    if isinstance(policies, str):
        policies = [policies]
    if not isinstance(policies, (list, tuple)):
        raise SuiteError(
            f"suite {name!r}: 'policies' must be a name or a list of names"
        )
    out = []
    for policy in policies:
        if not isinstance(policy, str):
            raise SuiteError(f"suite {name!r}: policy {policy!r} is not a name")
        if policy != "auto":
            try:
                get_policy(policy)
            except UnknownPolicyError as exc:
                raise SuiteError(f"suite {name!r}: {exc}") from None
        out.append(policy)
    if not out:
        raise SuiteError(f"suite {name!r}: empty policy list")
    return tuple(out)


def _validate_sweep(sweep: dict, name: str) -> tuple[tuple[str, tuple], ...]:
    if not isinstance(sweep, dict):
        raise SuiteError(f"suite {name!r}: 'sweep' must be a mapping")
    valid = {f.name for f in dataclasses.fields(SimConfig)}
    out = []
    for field, values in sweep.items():
        if field not in valid:
            raise SuiteError(
                f"suite {name!r}: unknown sweep field {field!r}; "
                f"expected a SimConfig field ({sorted(valid)})"
            )
        if not isinstance(values, (list, tuple)):
            raise SuiteError(
                f"suite {name!r}: sweep axis {field!r} must be a list of values"
            )
        values = tuple(values)
        if not values:
            raise SuiteError(f"suite {name!r}: sweep axis {field!r} has no values")
        out.append((field, values))
    return tuple(out)


def _validate_experiments(entries, name: str) -> tuple[ExperimentCell, ...]:
    if not isinstance(entries, (list, tuple)):
        raise SuiteError(f"suite {name!r}: 'experiments' must be a list")
    # Deferred import: repro.experiments pulls analysis/sim modules that
    # are not needed to *load* a simulate-only suite.
    from repro.experiments import experiment_ids

    known = experiment_ids()
    cells = []
    for entry in entries:
        if isinstance(entry, str):
            entry = {"id": entry}
        if not isinstance(entry, dict):
            raise SuiteError(f"suite {name!r}: bad experiment entry {entry!r}")
        unknown = set(entry) - {"id", "args"}
        if unknown:
            raise SuiteError(
                f"suite {name!r}: unknown experiment entry keys {sorted(unknown)}"
            )
        exp_id = entry.get("id")
        if exp_id not in known:
            raise SuiteError(
                f"suite {name!r}: unknown experiment id {exp_id!r}; "
                f"expected one of {known}"
            )
        args = entry.get("args", {})
        if not isinstance(args, dict):
            raise SuiteError(f"suite {name!r}: experiment args must be a mapping")
        cells.append(
            ExperimentCell(exp_id, json.dumps(args, sort_keys=True))
        )
    return tuple(cells)


def suite_from_dict(data: dict) -> SuiteSpec:
    """Validate a parsed suite mapping into a :class:`SuiteSpec`."""
    if not isinstance(data, dict):
        raise SuiteError(f"suite file must hold a mapping, got {type(data).__name__}")
    unknown = set(data) - set(_TOP_LEVEL_KEYS)
    if unknown:
        raise SuiteError(
            f"unknown suite keys {sorted(unknown)}; "
            f"expected a subset of {list(_TOP_LEVEL_KEYS)}"
        )
    name = data.get("name")
    if not name or not isinstance(name, str):
        raise SuiteError("suite file needs a non-empty string 'name'")
    grid_data, config_data = data.get("grid"), data.get("config", {})
    for key, value in (("grid", grid_data), ("config", config_data)):
        if value is not None and not isinstance(value, dict):
            raise SuiteError(f"suite {name!r}: {key!r} must be a mapping")
    try:
        if grid_data is None:
            grid = None
        elif "base" in grid_data or "axes" in grid_data:
            grid = ScenarioGrid.from_dict(grid_data)
        else:
            # A bare scenario mapping is a single-point grid.
            grid = ScenarioGrid(Scenario.from_dict(grid_data))
        config = SimConfig.from_dict(config_data)
    except InvalidScenarioError as exc:
        raise SuiteError(f"suite {name!r}: {exc}") from exc
    spec = SuiteSpec(
        name=name,
        grid=grid,
        policies=_validate_policies(data.get("policies", ("auto",)), name),
        config=config,
        sweep=_validate_sweep(data.get("sweep", {}), name),
        experiments=_validate_experiments(data.get("experiments", ()), name),
    )
    if spec.grid is None and not spec.experiments:
        raise SuiteError(f"suite {name!r} names no grid and no experiments")
    return spec


def load_suite(path) -> SuiteSpec:
    """Load and validate a suite file (``.json``, or ``.toml`` on 3.11+)."""
    text_path = str(path)
    if text_path.endswith(".toml"):
        try:
            import tomllib
        except ImportError:  # Python < 3.11: tomllib is stdlib-only there
            raise SuiteError(
                "TOML suite files need Python 3.11+ (tomllib); "
                "use the JSON form instead"
            ) from None
        with open(text_path, "rb") as fh:
            data = tomllib.load(fh)
    else:
        with open(text_path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise SuiteError(f"{text_path} is not valid JSON: {exc}") from exc
    return suite_from_dict(data)
