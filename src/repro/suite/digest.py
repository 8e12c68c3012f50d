"""Content addressing for suite cells.

A cell's digest is the sha256 of a canonical-JSON payload covering
everything that determines its result:

* the materialized instance digest (:meth:`SUUInstance.digest` — q-matrix
  bytes plus precedence edges, so a generator change re-runs the cell),
* the declarative :class:`~repro.api.scenario.Scenario` recipe,
* the policy name,
* the :class:`~repro.api.scenario.SimConfig` core (trials, seed,
  semantics, horizon), and
* the *resolved* RNG discipline (:meth:`SimConfig.resolved` — explicit →
  config → environment → default), so a sweep run under
  ``REPRO_DISCIPLINE=v2`` is addressed separately from a v1 run.  The
  host's ``REPRO_KERNEL_THREADS`` changes no sample and is not a config
  field, so a suite re-run under another thread count finds its cells.

Experiment cells hash their id plus canonical args.  Anything with the
same digest is the same measurement: re-running a suite only computes the
delta, and resuming after an interrupt is free.
"""

from __future__ import annotations

import hashlib
import json

from repro.suite.spec import ExperimentCell, SimulateCell

__all__ = ["CELL_FORMAT", "canonical_json", "cell_payload", "cell_digest"]

#: Bumped whenever the digest payload layout changes (invalidates every
#: previously stored cell, which is exactly what a layout change means),
#: and whenever stored results stop matching what the code computes for
#: the same payload (2: v2 ``suu`` cells sample SUU* thresholds; 3: the
#: knob part is the discipline alone, and the lower bound gained the
#: work term).
CELL_FORMAT = 3


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace, no NaN smuggling."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def cell_payload(cell) -> dict:
    """The JSON-compatible payload a cell's digest is computed over."""
    if isinstance(cell, SimulateCell):
        config = cell.config
        return {
            "format": CELL_FORMAT,
            "kind": "simulate",
            "instance": cell.scenario.to_instance().digest(),
            "scenario": cell.scenario.to_dict(),
            "policy": cell.policy,
            "config": {
                "n_trials": config.n_trials,
                "seed": config.seed,
                "semantics": config.semantics,
                "max_steps": config.max_steps,
            },
            "knobs": {"discipline": config.resolved().discipline},
        }
    if isinstance(cell, ExperimentCell):
        return {
            "format": CELL_FORMAT,
            "kind": "experiment",
            "exp_id": cell.exp_id,
            "args": cell.args,
        }
    raise TypeError(f"not a suite cell: {cell!r}")


def cell_digest(cell) -> str:
    """The cell's content address (sha256 hex of its canonical payload)."""
    return hashlib.sha256(canonical_json(cell_payload(cell)).encode()).hexdigest()
