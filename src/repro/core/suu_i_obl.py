"""SUU-I-OBL: the oblivious ``O(log n)``-approximation (Theorem 3).

Solve (LP1) at target ``L = 1/2`` over all jobs, round (Lemma 2), lay the
integral assignment out as a finite oblivious schedule of length
``O(E[T_OPT])``, and repeat that schedule until every job completes.  Each
pass gives every job log mass at least ``1/2``, hence success probability
at least ``1 - 2**-0.5 ~ 0.29``; Chernoff plus a union bound give
completion within ``O(log n)`` passes with high probability.
"""

from __future__ import annotations

from repro.api.registry import register_policy
# perfbench/tracer.py wraps these two import sites; the live calls run in round_schedule.
from repro.core.lp1 import solve_lp1  # noqa: F401
from repro.core.phased import round_schedule
from repro.core.rounding import PAPER_SCALE, round_assignment  # noqa: F401
from repro.schedule.oblivious import FiniteObliviousSchedule, RepeatingObliviousPolicy

__all__ = ["SUUIOblPolicy", "build_obl_schedule"]


def build_obl_schedule(
    instance, jobs=None, target: float = 0.5, scale: int = PAPER_SCALE
) -> FiniteObliviousSchedule:
    """The single-pass oblivious schedule of SUU-I-OBL.

    The rounded ``LP1(jobs, target)`` schedule from
    :func:`~repro.core.phased.round_schedule`, so memoized per process and
    shared with every SEM round on the same job set.  ``jobs`` is any
    iterable of job ids (default: all jobs).
    """
    if jobs is not None:
        jobs = sorted({int(j) for j in jobs})
    return round_schedule(instance, target, jobs, scale)


@register_policy("obl", aliases=("suu-i-obl",))
class SUUIOblPolicy(RepeatingObliviousPolicy):
    """Repeat the rounded LP1(J, 1/2) schedule until all jobs complete.

    The repeat rule is :class:`~repro.schedule.oblivious.
    RepeatingObliviousPolicy`'s; this policy builds the schedule in
    :meth:`start`.  The LP solve and rounding there are trial-independent,
    so a batch run pays for them once instead of once per trial.

    Parameters
    ----------
    target:
        Per-pass log-mass target ``L`` (paper: 1/2).
    scale:
        Lemma 2 rounding scale (paper: 6).
    jobs:
        Optional job subset (used when embedded in other algorithms);
        machines idle once every covered job has completed.
    """

    name = "SUU-I-OBL"

    def __init__(self, target: float = 0.5, scale: int = PAPER_SCALE, jobs=None):
        self.target = float(target)
        self.scale = int(scale)
        self.jobs = None if jobs is None else tuple(sorted(set(int(j) for j in jobs)))
        self.schedule: FiniteObliviousSchedule | None = None
        self._step = 0

    def start(self, instance, rng) -> None:
        self.schedule = build_obl_schedule(
            instance, jobs=self.jobs, target=self.target, scale=self.scale
        )
        super().start(instance, rng)
