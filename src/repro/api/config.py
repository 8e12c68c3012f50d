"""One config-resolution chain for every run-time knob.

Two knobs steer how a batch of trials executes without changing *what*
is measured: the RNG ``discipline`` and the trial-parallel
``kernel_threads`` count.  This module is the **only** place their
environment variables are read, and every consumer — ``SimConfig``,
:func:`repro.api.simulate` / :func:`repro.api.evaluate_grid`,
:func:`repro.sim.batch.run_policy_batch`, and the request server —
resolves through it (``repro.util.rng.resolve_discipline`` remains as a
thin delegate).

The chain, identical for every knob::

    explicit argument  →  SimConfig field  →  environment variable  →  default

========================  =========================  ==========
knob                      environment variable       default
========================  =========================  ==========
``discipline``            ``REPRO_DISCIPLINE``       ``"v1"``
``kernel_threads``        ``REPRO_KERNEL_THREADS``   ``1``
========================  =========================  ==========

Unknown values raise ``ValueError`` **including when they arrive via the
environment**, so typos fail loudly instead of silently running the
default.  :func:`resolve_knobs` resolves both at once into a frozen
:class:`ResolvedKnobs` snapshot, which a run (and every worker chunk of
it) executes under.  Only the discipline can change a sample, so a
suite cell's digest (:mod:`repro.suite.digest`) commits to the resolved
discipline alone: cells run under different ``kernel_threads`` share
their artifacts.

One auxiliary setting rides the same single-reader rule (it tunes
machinery rather than selecting a knob, and is consulted at its use site
rather than snapshotted): ``REPRO_SOLVE_CACHE``
(:func:`solve_cache_enabled`).

This module deliberately imports only the *constant tables* of the
low-level modules (never their machinery), so it can be imported lazily
from any layer without cycles.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.util.rng import DISCIPLINE_ENV_VAR, DISCIPLINES

__all__ = [
    "DISCIPLINES",
    "DISCIPLINE_ENV_VAR",
    "KERNEL_THREADS_ENV_VAR",
    "SOLVE_CACHE_ENV_VAR",
    "KNOB_NAMES",
    "ResolvedKnobs",
    "resolve_knobs",
    "resolve_discipline",
    "resolve_kernel_threads",
    "solve_cache_enabled",
]

#: Environment variable supplying the default trial-parallel worker count.
KERNEL_THREADS_ENV_VAR = "REPRO_KERNEL_THREADS"

#: Environment variable disabling the process solve cache (``"0"``).
SOLVE_CACHE_ENV_VAR = "REPRO_SOLVE_CACHE"

#: The two knobs, in the order :class:`ResolvedKnobs` carries them.
KNOB_NAMES: tuple[str, ...] = ("discipline", "kernel_threads")


def resolve_discipline(discipline: str | None = None) -> str:
    """The active RNG discipline: argument, else env var, else ``"v1"``.

    Raises :class:`ValueError` on anything outside :data:`DISCIPLINES`
    (including a bad ``REPRO_DISCIPLINE`` value, so typos fail loudly
    rather than silently running v1).
    """
    if discipline is None:
        discipline = os.environ.get(DISCIPLINE_ENV_VAR) or DISCIPLINES[0]
    if discipline not in DISCIPLINES:
        raise ValueError(
            f"unknown RNG discipline {discipline!r}; expected one of {DISCIPLINES}"
        )
    return discipline


def resolve_kernel_threads(threads: int | None = None) -> int:
    """The trial-parallel worker count: argument →
    ``REPRO_KERNEL_THREADS`` → 1; non-integer or < 1 values (env
    included) raise ``ValueError``."""
    if threads is None:
        raw = os.environ.get(KERNEL_THREADS_ENV_VAR)
        if not raw:
            return 1
        threads = raw  # type: ignore[assignment]
    try:
        count = int(threads)
    except (TypeError, ValueError):
        raise ValueError(
            f"kernel_threads must be an integer >= 1, got {threads!r}"
        ) from None
    if count < 1:
        raise ValueError(f"kernel_threads must be >= 1, got {count}")
    return count


def solve_cache_enabled() -> bool:
    """Whether the process solve cache is enabled (``REPRO_SOLVE_CACHE``
    anything-but-``"0"``; the size bound is the cache's own concern)."""
    return os.environ.get(SOLVE_CACHE_ENV_VAR, "1") != "0"


@dataclass(frozen=True)
class ResolvedKnobs:
    """A frozen snapshot of both knobs after resolution.

    Every field holds the concrete value trials will run under — no
    ``None`` placeholders left — so a worker's own environment never
    changes a run.
    """

    discipline: str = DISCIPLINES[0]
    kernel_threads: int = 1


_RESOLVERS = {
    "discipline": resolve_discipline,
    "kernel_threads": resolve_kernel_threads,
}


def resolve_knobs(
    config=None,
    *,
    discipline: str | None = None,
    kernel_threads: int | None = None,
) -> ResolvedKnobs:
    """Resolve both knobs through the one documented chain.

    Per knob: the explicit keyword wins, then the same-named field of
    ``config`` (anything with the attribute — normally a
    :class:`~repro.api.scenario.SimConfig`; duck-typed so this module
    stays import-cycle-free), then the knob's environment variable, then
    its default.  Unknown values raise ``ValueError`` wherever they came
    from.
    """
    explicit = {
        "discipline": discipline,
        "kernel_threads": kernel_threads,
    }
    resolved = {}
    for name, value in explicit.items():
        if value is None and config is not None:
            value = getattr(config, name, None)
        resolved[name] = _RESOLVERS[name](value)
    return ResolvedKnobs(**resolved)
