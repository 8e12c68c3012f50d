"""``repro.api`` — the unified front door to the reproduction.

Five layers, each usable on its own:

* :mod:`repro.api.config` — the one reader of the ``REPRO_*``
  environment variables: the RNG discipline (explicit argument →
  :class:`SimConfig` field → ``REPRO_DISCIPLINE`` → default, snapshotted
  in :class:`ResolvedKnobs`) and the host's trial-shard thread cap
  (``REPRO_KERNEL_THREADS`` alone).
* :mod:`repro.api.registry` — every policy class registers itself with
  :func:`register_policy`; consumers resolve names (and aliases, and
  per-precedence-class defaults) with :func:`get_policy`,
  :func:`list_policies`, and :func:`default_policy_for`.
* :mod:`repro.api.scenario` — frozen, JSON-round-trippable
  :class:`Scenario` / :class:`SimConfig` recipes and :class:`ScenarioGrid`
  sweeps describe *what* to simulate as plain data.
* :mod:`repro.api.service` — :func:`simulate` and :func:`evaluate_grid`
  turn scenarios into :class:`Report` objects, batching Monte Carlo trials
  over a ``multiprocessing`` pool (``backend="process"``) with
  bit-identical results to the serial path.
* :mod:`repro.api.executors` — the request executors those calls
  dispatch on (``executor=``): :class:`~repro.api.executors.SerialExecutor`
  and :class:`~repro.api.executors.WarmPoolExecutor`, the one owner of
  every worker pool (per-call for an un-injected ``backend="process"``,
  long-lived for the server and suite runner), which replaces a pool a
  dead worker broke and re-runs an in-flight chunk map once.

Quick start::

    from repro.api import Scenario, simulate

    report = simulate(Scenario(shape="chains", n_jobs=24, n_machines=6),
                      policy="auto", backend="process")
    print(report.mean, report.ratio)
"""

from repro.api.config import ResolvedKnobs
from repro.api.registry import (
    PolicyInfo,
    default_policy_for,
    get_policy,
    list_policies,
    make_policy,
    policy_factory,
    policy_info,
    policy_names,
    register_policy,
)
from repro.api.scenario import (
    FAILURE_MODELS,
    SCENARIO_SHAPES,
    Scenario,
    ScenarioGrid,
    SimConfig,
)
from repro.api.service import Report, evaluate_grid, simulate

__all__ = [
    # Config resolution
    "ResolvedKnobs",
    # Registry
    "PolicyInfo",
    "register_policy",
    "get_policy",
    "policy_info",
    "list_policies",
    "policy_names",
    "default_policy_for",
    "make_policy",
    "policy_factory",
    # Scenarios
    "Scenario",
    "SimConfig",
    "ScenarioGrid",
    "SCENARIO_SHAPES",
    "FAILURE_MODELS",
    # Service
    "Report",
    "simulate",
    "evaluate_grid",
]
