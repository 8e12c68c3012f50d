"""One reader for every ``REPRO_*`` setting.

Two settings steer how a batch of trials executes, and this module is
the **only** place their environment variables are read:

===================  ========================  ========  ====================
setting              environment variable      default   ``SimConfig`` field
===================  ========================  ========  ====================
RNG discipline       ``REPRO_DISCIPLINE``      ``"v1"``  ``discipline``
trial-shard threads  ``REPRO_KERNEL_THREADS``  ``1``     —
===================  ========================  ========  ====================

The discipline chooses which samples a run draws, so it is part of the
measurement recipe: it resolves as explicit argument → ``SimConfig``
field → environment variable → default, and :meth:`SimConfig.resolved
<repro.api.scenario.SimConfig.resolved>` snapshots it into a frozen
:class:`ResolvedKnobs`, which a run (and every worker chunk of it)
executes under.  The trial-shard thread count changes wall time only
(every trial is a deterministic function of its own thresholds, Theorem
10), so it is a property of the host process:
:func:`resolve_kernel_threads` reads ``REPRO_KERNEL_THREADS``, and
nothing else sets it.  A suite cell's digest (:mod:`repro.suite.digest`)
commits to the resolved discipline alone.

Unknown values raise ``ValueError`` **including when they arrive via the
environment**, so typos fail loudly instead of silently running the
default; the CLI resolves both before a command does any work.

One auxiliary setting rides the same single-reader rule (it tunes
machinery, and is consulted at its use site): ``REPRO_SOLVE_CACHE``
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
    "ResolvedKnobs",
    "resolve_discipline",
    "resolve_kernel_threads",
    "solve_cache_enabled",
]

#: Environment variable setting the host's trial-shard thread cap.
KERNEL_THREADS_ENV_VAR = "REPRO_KERNEL_THREADS"

#: Environment variable disabling the process solve cache (``"0"``).
SOLVE_CACHE_ENV_VAR = "REPRO_SOLVE_CACHE"


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


def resolve_kernel_threads() -> int:
    """The host's trial-shard thread cap: ``REPRO_KERNEL_THREADS``, else
    1.  A non-integer or < 1 value raises ``ValueError`` naming the
    variable."""
    raw = os.environ.get(KERNEL_THREADS_ENV_VAR)
    if not raw:
        return 1
    try:
        count = int(raw)
    except ValueError:
        raise ValueError(
            f"{KERNEL_THREADS_ENV_VAR} must be an integer >= 1, got {raw!r}"
        ) from None
    if count < 1:
        raise ValueError(f"{KERNEL_THREADS_ENV_VAR} must be >= 1, got {count}")
    return count


def solve_cache_enabled() -> bool:
    """Whether the process solve cache is enabled (``REPRO_SOLVE_CACHE``
    anything-but-``"0"``; the size bound is the cache's own concern)."""
    return os.environ.get(SOLVE_CACHE_ENV_VAR, "1") != "0"


@dataclass(frozen=True)
class ResolvedKnobs:
    """A frozen snapshot of the resolved discipline.

    It holds the concrete value trials will run under — no ``None``
    placeholder left — so a worker's own environment never changes a
    run's samples.
    """

    discipline: str = DISCIPLINES[0]
