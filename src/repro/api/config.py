"""One config-resolution chain for every run-time knob.

Four knobs steer how a batch of trials executes without changing *what*
is measured: the RNG ``discipline``, the LP survivor-set ``lp_reuse``
mode, the trial-parallel ``kernel_threads`` count, and the grid-sweep
``substreams`` mode.  Historically each grew its own explicit → env →
default chain in the module that consumed it (``repro.util.rng``,
``repro.core.phased``); this module is now the **only** place those
environment variables are read, and every consumer — ``SimConfig``,
:func:`repro.api.simulate` / :func:`repro.api.evaluate_grid`,
:func:`repro.sim.batch.run_policy_batch`, and the request server —
resolves through it (the historical per-module ``resolve_*`` functions
remain as thin delegates).

The chain, identical for every knob::

    explicit argument  →  SimConfig field  →  environment variable  →  default

========================  =========================  ==========
knob                      environment variable       default
========================  =========================  ==========
``discipline``            ``REPRO_DISCIPLINE``       ``"v1"``
``lp_reuse``              ``REPRO_LP_REUSE``         ``"exact"``
``kernel_threads``        ``REPRO_KERNEL_THREADS``   ``1``
``substreams``            ``REPRO_SUBSTREAMS``       ``"shared"``
========================  =========================  ==========

Unknown values raise ``ValueError`` **including when they arrive via the
environment**, so typos fail loudly instead of silently running the
default.  :func:`resolve_knobs` resolves all four at once into a frozen
:class:`ResolvedKnobs` snapshot — the value that feeds suite-cell
digests (:mod:`repro.suite.digest`): a cell's content address commits to
the knobs it actually ran under, not to however the environment happened
to be set.

Two auxiliary settings ride the same single-reader rule (they tune the
machinery the knobs select, and are consulted at use sites rather than
snapshotted): ``REPRO_LP_REUSE_EPS`` (:func:`lp_reuse_eps`) and
``REPRO_SOLVE_CACHE`` (:func:`solve_cache_enabled`).

This module deliberately imports only the *constant tables* of the
low-level modules (never their machinery), so it can be imported lazily
from any layer without cycles.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

from repro.core.phased import DEFAULT_LP_REUSE_EPS, LP_REUSE_MODES
from repro.util.rng import DISCIPLINE_ENV_VAR, DISCIPLINES

__all__ = [
    "DISCIPLINES",
    "DISCIPLINE_ENV_VAR",
    "LP_REUSE_MODES",
    "LP_REUSE_ENV_VAR",
    "LP_REUSE_EPS_ENV_VAR",
    "KERNEL_THREADS_ENV_VAR",
    "SUBSTREAMS_MODES",
    "SUBSTREAMS_ENV_VAR",
    "SOLVE_CACHE_ENV_VAR",
    "KNOB_NAMES",
    "ResolvedKnobs",
    "resolve_knobs",
    "resolve_discipline",
    "resolve_lp_reuse",
    "resolve_kernel_threads",
    "resolve_substreams",
    "lp_reuse_eps",
    "solve_cache_enabled",
]

#: Environment variable supplying the default lp_reuse mode.
LP_REUSE_ENV_VAR = "REPRO_LP_REUSE"

#: Environment variable tuning subset-reuse's length-overhead gate.
LP_REUSE_EPS_ENV_VAR = "REPRO_LP_REUSE_EPS"

#: Environment variable supplying the default trial-parallel worker count.
KERNEL_THREADS_ENV_VAR = "REPRO_KERNEL_THREADS"

#: Recognized grid-sweep substream modes; ``SUBSTREAMS_MODES[0]`` is the
#: default (common random numbers across a sweep's policy columns).
SUBSTREAMS_MODES: tuple[str, ...] = ("shared", "per-policy")

#: Environment variable supplying the default substreams mode.
SUBSTREAMS_ENV_VAR = "REPRO_SUBSTREAMS"

#: Environment variable disabling the process solve cache (``"0"``).
SOLVE_CACHE_ENV_VAR = "REPRO_SOLVE_CACHE"

#: The four knobs, in the order :class:`ResolvedKnobs` carries them.
KNOB_NAMES: tuple[str, ...] = (
    "discipline", "lp_reuse", "kernel_threads", "substreams",
)


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


def resolve_lp_reuse(mode: str | None = None) -> str:
    """The LP survivor-set reuse mode: argument → ``REPRO_LP_REUSE`` →
    ``"exact"``; unknown values (env included) raise ``ValueError``."""
    if mode is None:
        mode = os.environ.get(LP_REUSE_ENV_VAR) or LP_REUSE_MODES[0]
    if mode not in LP_REUSE_MODES:
        raise ValueError(
            f"unknown lp_reuse mode {mode!r}; expected one of {LP_REUSE_MODES}"
        )
    return mode


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


def resolve_substreams(mode: str | None = None) -> str:
    """The grid-sweep substream mode: argument → ``REPRO_SUBSTREAMS`` →
    ``"shared"``; unknown modes (env included) raise ``ValueError``."""
    if mode is None:
        mode = os.environ.get(SUBSTREAMS_ENV_VAR) or SUBSTREAMS_MODES[0]
    if mode not in SUBSTREAMS_MODES:
        raise ValueError(
            f"unknown substreams mode {mode!r}; expected "
            f"'shared' or 'per-policy'"
        )
    return mode


def lp_reuse_eps() -> float:
    """Subset-reuse length-overhead tolerance (``REPRO_LP_REUSE_EPS``)."""
    eps = float(os.environ.get(LP_REUSE_EPS_ENV_VAR, DEFAULT_LP_REUSE_EPS))
    if not (0.0 <= eps < 1.0):
        raise ValueError(f"lp_reuse eps must be in [0, 1), got {eps}")
    return eps


def solve_cache_enabled() -> bool:
    """Whether the process solve cache is enabled (``REPRO_SOLVE_CACHE``
    anything-but-``"0"``; the size bound is the cache's own concern)."""
    return os.environ.get(SOLVE_CACHE_ENV_VAR, "1") != "0"


@dataclass(frozen=True)
class ResolvedKnobs:
    """A frozen snapshot of all four knobs after resolution.

    Every field holds the concrete value trials will run under — no
    ``None`` placeholders left.  The snapshot is JSON-ready via
    :meth:`as_dict`, which is what suite-cell digests hash: re-running a
    suite under a different ``REPRO_*`` environment addresses different
    cells, so cached results are never served across a knob change.
    """

    discipline: str = DISCIPLINES[0]
    lp_reuse: str = LP_REUSE_MODES[0]
    kernel_threads: int = 1
    substreams: str = SUBSTREAMS_MODES[0]

    def as_dict(self) -> dict:
        """JSON-compatible representation (insertion-ordered fields)."""
        return dataclasses.asdict(self)


_RESOLVERS = {
    "discipline": resolve_discipline,
    "lp_reuse": resolve_lp_reuse,
    "kernel_threads": resolve_kernel_threads,
    "substreams": resolve_substreams,
}


def resolve_knobs(
    config=None,
    *,
    discipline: str | None = None,
    lp_reuse: str | None = None,
    kernel_threads: int | None = None,
    substreams: str | None = None,
) -> ResolvedKnobs:
    """Resolve all four knobs through the one documented chain.

    Per knob: the explicit keyword wins, then the same-named field of
    ``config`` (anything with the attribute — normally a
    :class:`~repro.api.scenario.SimConfig`; duck-typed so this module
    stays import-cycle-free), then the knob's environment variable, then
    its default.  Unknown values raise ``ValueError`` wherever they came
    from.
    """
    explicit = {
        "discipline": discipline,
        "lp_reuse": lp_reuse,
        "kernel_threads": kernel_threads,
        "substreams": substreams,
    }
    resolved = {}
    for name, value in explicit.items():
        if value is None and config is not None:
            value = getattr(config, name, None)
        resolved[name] = _RESOLVERS[name](value)
    return ResolvedKnobs(**resolved)
