"""Declarative scenario descriptions: what to simulate, as data.

A :class:`Scenario` is a frozen, JSON-serializable recipe for one SUU
instance — shape, size, failure model, and seed — and a :class:`SimConfig`
is a recipe for how to measure it (trials, semantics, seed, horizon).
Together they let experiments, the CLI, and services describe work without
holding instances or policies: a scenario can be stored in a results file,
shipped to a worker process, or swept over a :class:`ScenarioGrid`.

The same deterministic generators back both paths: ``Scenario(...).
to_instance()`` produces bit-identical instances to calling the
:mod:`repro.instance.generators` functions directly with the same seed.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import numbers
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from repro.api.config import DISCIPLINES, ResolvedKnobs, resolve_knobs
from repro.errors import InvalidScenarioError
from repro.instance.generators import (
    chain_instance,
    forest_instance,
    independent_instance,
    layered_instance,
    random_dag_instance,
    tree_instance,
)
from repro.instance.instance import SUUInstance
from repro.sim.engine import DEFAULT_MAX_STEPS

__all__ = ["SCENARIO_SHAPES", "FAILURE_MODELS", "SimConfig", "Scenario", "ScenarioGrid"]

_FORMAT = "repro-scenario-v1"

#: Precedence shapes a scenario can describe (every generator is covered).
SCENARIO_SHAPES: tuple[str, ...] = (
    "independent",
    "chains",
    "tree",
    "forest",
    "layered",
    "random_dag",
)

#: Failure-probability models understood by the generators.
FAILURE_MODELS: tuple[str, ...] = ("uniform", "powerlaw", "specialist", "related")


def _check_mapping(name: str, value) -> None:
    """Raise :class:`InvalidScenarioError` naming ``name`` unless ``value``
    is a mapping (a JSON object)."""
    if not isinstance(value, Mapping):
        raise InvalidScenarioError(f"{name} must be a mapping, got {value!r}")


def _check_int(name: str, value, minimum: int | None = None) -> None:
    """Raise :class:`InvalidScenarioError` unless ``value`` is an integer
    (and, when ``minimum`` is given, at least ``minimum``).

    Integers are ``numbers.Integral`` other than ``bool``: numpy integers
    pass, while a JSON ``2.5`` or ``true`` from a request body fails here
    instead of being truncated or crashing a generator later.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidScenarioError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise InvalidScenarioError(f"{name} must be >= {minimum}, got {value}")


def _check_probability(name: str, value) -> None:
    """Raise :class:`InvalidScenarioError` unless ``value`` is a real
    number in ``[0, 1]``.

    Reals are ``numbers.Real`` other than ``bool``: a JSON ``"x"`` or
    ``true`` fails here instead of crashing a generator, and ``2.0`` or
    NaN instead of running as if clamped.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidScenarioError(f"{name} must be a number, got {value!r}")
    if not 0.0 <= value <= 1.0:
        raise InvalidScenarioError(f"{name} must be in [0, 1], got {value!r}")


@dataclass(frozen=True)
class SimConfig:
    """How to run the Monte Carlo measurement of a scenario.

    Attributes
    ----------
    n_trials:
        Number of independent simulated executions.
    seed:
        Seed of the trial RNG tree (independent of the scenario's instance
        seed, so the same workload can be re-measured with fresh noise).
    semantics:
        ``"suu"`` (per-step coin flips) or ``"suu_star"`` (deferred
        thresholds); distributionally equivalent by Theorem 10.
    max_steps:
        Simulation horizon per trial.
    discipline:
        RNG discipline for the batch kernel: ``"v1"`` (serial replay,
        bit-identical to the scalar path), ``"v2"`` (batch-native streams,
        statistically equivalent), or ``None`` to resolve through the
        ``REPRO_DISCIPLINE`` environment variable at run time (default
        v1).  See :mod:`repro.util.rng`.
    kernel_threads:
        Trial-parallel thread cap for one batch.  Only a vectorized
        policy that steps against a threshold matrix (v2, or
        ``suu_star``) uses it: its batch splits into contiguous trial
        shards on a thread pool (bit-identical to serial).  Every other
        batch runs serially (see :mod:`repro.sim.batch`, "Trial
        shards").  ``None`` resolves through ``REPRO_KERNEL_THREADS`` at
        run time (default 1 — serial).

    Both knobs resolve through the one documented chain in
    :mod:`repro.api.config` — explicit argument → this config's field →
    environment variable → default; :meth:`resolved` snapshots both at
    once.  A run roots its trial tree and its v2 streams at ``seed``
    alone, so every policy of an ``evaluate_grid`` sweep sees the same
    randomness (common random numbers); independent per-policy
    estimates come from separate ``simulate()`` calls with their own
    seeds.
    """

    n_trials: int = 30
    seed: int = 0
    semantics: str = "suu"
    max_steps: int = DEFAULT_MAX_STEPS
    discipline: str | None = None
    kernel_threads: int | None = None

    def __post_init__(self):
        _check_int("n_trials", self.n_trials, 1)
        _check_int("seed", self.seed, 0)
        if self.semantics not in ("suu", "suu_star"):
            raise InvalidScenarioError(f"unknown semantics {self.semantics!r}")
        _check_int("max_steps", self.max_steps, 1)
        if self.discipline is not None and self.discipline not in DISCIPLINES:
            raise InvalidScenarioError(
                f"unknown discipline {self.discipline!r}; expected one of "
                f"{DISCIPLINES} (or None for the environment default)"
            )
        if self.kernel_threads is not None:
            _check_int("kernel_threads", self.kernel_threads, 1)

    def resolved(self) -> ResolvedKnobs:
        """Both knobs resolved through the one chain in
        :mod:`repro.api.config` (explicit field → environment variable →
        default) — the snapshot a run executes under."""
        return resolve_knobs(config=self)

    def to_dict(self) -> dict:
        """JSON-compatible representation."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> SimConfig:
        """Inverse of :meth:`to_dict`; unknown keys fail loudly (a typo in
        a suite file must not silently fall back to a default)."""
        _check_mapping("config", data)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise InvalidScenarioError(
                f"unknown SimConfig fields {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        return cls(**data)


@dataclass(frozen=True)
class Scenario:
    """A declarative, hashable recipe for one SUU instance.

    Only ``shape``-relevant knobs are consulted (e.g. ``edge_prob`` is
    ignored unless ``shape == "random_dag"``), so grids can sweep a knob
    without invalidating other shapes.

    Attributes
    ----------
    shape:
        One of :data:`SCENARIO_SHAPES`.
    n_jobs, n_machines:
        Instance dimensions.
    model:
        Failure-probability model (:data:`FAILURE_MODELS`).
    seed:
        Instance-generation seed; fully determines the instance.
    n_chains:
        Chain count for ``"chains"`` (default: ``max(1, n_jobs // 6)``).
    n_trees:
        Tree count for ``"forest"`` (default: ``max(1, n_jobs // 10)``).
    orientation:
        ``"out"``/``"in"`` for trees; forests additionally allow
        ``"mixed"``.  ``None`` (the default) resolves per shape: ``"out"``
        for trees, ``"mixed"`` for forests — matching the CLI's historical
        choices, and keeping ``generate`` and ``sweep`` workloads
        comparable.
    n_layers:
        Layer count for ``"layered"`` (jobs split as evenly as possible).
    density:
        Cross-layer edge density for ``"layered"``, in ``[0, 1]``.
    edge_prob:
        Forward-edge probability for ``"random_dag"``, in ``[0, 1]``.
    """

    shape: str = "independent"
    n_jobs: int = 20
    n_machines: int = 5
    model: str = "specialist"
    seed: int = 0
    n_chains: int | None = None
    n_trees: int | None = None
    orientation: str | None = None
    n_layers: int = 2
    density: float = 1.0
    edge_prob: float = 0.1

    def __post_init__(self):
        if self.shape not in SCENARIO_SHAPES:
            raise InvalidScenarioError(
                f"unknown shape {self.shape!r}; expected one of {SCENARIO_SHAPES}"
            )
        if self.model not in FAILURE_MODELS:
            raise InvalidScenarioError(
                f"unknown failure model {self.model!r}; expected one of {FAILURE_MODELS}"
            )
        _check_int("n_jobs", self.n_jobs, 1)
        _check_int("n_machines", self.n_machines, 1)
        _check_int("seed", self.seed, 0)
        _check_int("n_layers", self.n_layers, 1)
        # The generators range-check the chain and tree counts themselves.
        for name in ("n_chains", "n_trees"):
            if getattr(self, name) is not None:
                _check_int(name, getattr(self, name))
        _check_probability("density", self.density)
        _check_probability("edge_prob", self.edge_prob)
        if self.orientation not in (None, "out", "in", "mixed"):
            raise InvalidScenarioError(
                f"orientation must be 'out', 'in', or 'mixed', got "
                f"{self.orientation!r}"
            )

    def to_instance(self) -> SUUInstance:
        """Materialize the deterministic SUU instance this scenario names."""
        if self.shape == "independent":
            return independent_instance(
                self.n_jobs, self.n_machines, self.model, rng=self.seed
            )
        if self.shape == "chains":
            n_chains = self.n_chains if self.n_chains is not None else max(
                1, self.n_jobs // 6
            )
            return chain_instance(
                self.n_jobs, self.n_machines, n_chains, self.model, rng=self.seed
            )
        if self.shape == "tree":
            return tree_instance(
                self.n_jobs, self.n_machines, self.orientation or "out",
                self.model, rng=self.seed,
            )
        if self.shape == "forest":
            n_trees = self.n_trees if self.n_trees is not None else max(
                1, self.n_jobs // 10
            )
            return forest_instance(
                self.n_jobs, self.n_machines, n_trees,
                self.orientation or "mixed", self.model, rng=self.seed,
            )
        if self.shape == "layered":
            base, extra = divmod(self.n_jobs, self.n_layers)
            if base == 0:
                raise InvalidScenarioError(
                    f"cannot split {self.n_jobs} jobs into {self.n_layers} layers"
                )
            # Extra jobs land in the *last* layers, matching the pre-1.1 CLI
            # split so seeded `generate --shape layered` output is unchanged.
            sizes = [
                base + (1 if k >= self.n_layers - extra else 0)
                for k in range(self.n_layers)
            ]
            return layered_instance(
                sizes, self.n_machines, self.model, rng=self.seed,
                density=self.density,
            )
        # __post_init__ guarantees the only remaining shape:
        return random_dag_instance(
            self.n_jobs, self.n_machines, self.edge_prob, self.model, rng=self.seed
        )

    def label(self) -> str:
        """Compact human-readable tag for tables and logs."""
        return f"{self.shape}/{self.model} n={self.n_jobs} m={self.n_machines} s={self.seed}"

    def to_dict(self) -> dict:
        """JSON-compatible representation (tagged with a format version)."""
        data = dataclasses.asdict(self)
        data["format"] = _FORMAT
        return data

    @classmethod
    def from_dict(cls, data: dict) -> Scenario:
        """Inverse of :meth:`to_dict` (the format tag is optional)."""
        _check_mapping("scenario", data)
        data = dict(data)
        fmt = data.pop("format", _FORMAT)
        if fmt != _FORMAT:
            raise InvalidScenarioError(f"unrecognized scenario format {fmt!r}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise InvalidScenarioError(f"unknown scenario fields {sorted(unknown)}")
        return cls(**data)

    def to_json(self) -> str:
        """Serialize to a JSON string."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> Scenario:
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))


class ScenarioGrid:
    """A cartesian sweep over scenario fields.

    Parameters
    ----------
    base:
        Scenario providing every unswept field.
    axes:
        Mapping ``field name -> sequence of values``.  Iteration order is
        the cartesian product with the *first* axis varying slowest, so
        sweeps are reproducible and reports line up with the declaration.

    Example::

        grid = ScenarioGrid(
            Scenario(model="specialist"),
            shape=["independent", "chains"],
            n_jobs=[20, 40],
        )
        len(grid)        # 4
        list(grid)       # four Scenario objects
    """

    def __init__(self, base: Scenario | None = None, **axes):
        self.base = base if base is not None else Scenario()
        valid = {f.name for f in dataclasses.fields(Scenario)}
        unknown = set(axes) - valid
        if unknown:
            raise InvalidScenarioError(f"unknown grid axes {sorted(unknown)}")
        self.axes: dict[str, tuple] = {}
        for name, values in axes.items():
            # A string would split into its characters.
            if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
                raise InvalidScenarioError(
                    f"grid axis {name!r} must be a list of values, got {values!r}"
                )
            values = tuple(values)
            if not values:
                raise InvalidScenarioError(f"grid axis {name!r} has no values")
            self.axes[name] = values

    def __len__(self) -> int:
        count = 1
        for values in self.axes.values():
            count *= len(values)
        return count

    def __iter__(self):
        names = list(self.axes)
        for combo in itertools.product(*(self.axes[n] for n in names)):
            yield dataclasses.replace(self.base, **dict(zip(names, combo)))

    def scenarios(self) -> list[Scenario]:
        """The sweep as a concrete list."""
        return list(self)

    def to_dict(self) -> dict:
        """JSON-compatible representation."""
        return {
            "base": self.base.to_dict(),
            "axes": {name: list(values) for name, values in self.axes.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> ScenarioGrid:
        """Inverse of :meth:`to_dict`; unknown keys fail loudly (a typo in
        a suite file must not silently drop an axis)."""
        _check_mapping("grid", data)
        unknown = set(data) - {"base", "axes"}
        if unknown:
            raise InvalidScenarioError(
                f"unknown grid fields {sorted(unknown)}; expected 'base' and 'axes'"
            )
        if "base" not in data:
            raise InvalidScenarioError("grid dict needs a 'base' scenario")
        _check_mapping("grid 'base'", data["base"])
        axes = data.get("axes", {})
        _check_mapping("grid 'axes'", axes)
        return cls(Scenario.from_dict(data["base"]), **axes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        axes = ", ".join(f"{n}={len(v)} values" for n, v in self.axes.items())
        return f"ScenarioGrid({len(self)} scenarios: {axes or 'single point'})"
