"""Fallback/diagnostic-path coverage for the chain algorithms.

SUU-C (and SUU-T's per-block SUU-C runs) switch to the trivial serial
``O(n)``-approximation when either high-probability bound is violated:
congestion above ``congestion_limit`` at a superstep build, or the
superstep count passing ``superstep_limit``.  These tests force each
trigger — with ablation-level constants, not pathological instances — and
assert that

* ``stats["fallback"]`` reports the trigger under discipline v1 (one
  scalar policy per trial) *and* v2 (array cursors), and
* both disciplines take the *same* trigger decisions on the same inputs:
  with injected delays and shared SUU* thresholds the executions agree
  bit for bit (the ``chain_crosscheck`` harness of ``tests/conftest.py``,
  pointed at the triggering configurations).

The same harness pins SUU-I-SEM's own post-``K`` fallbacks (serial and
repeat-last) inside segment runs, which paper round budgets never reach
on instances this small.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core.chain_batch import ChainCursorBatch
from repro.core.suu_c import SUUCPolicy
from repro.core.suu_i_sem import SUUISemPolicy
from repro.core.suu_t import SUUTPolicy
from repro.instance import chain_instance, forest_instance
from repro.sim import run_policy, run_policy_batch
from repro.util.rng import ensure_rng

#: Forces the congestion trigger: no random delays and no segmentation, so
#: every chain's blocks pile onto the machines at superstep 0, against a
#: floor-level congestion limit.
CONGESTION_KWARGS = dict(
    enable_delays=False, enable_segments=False, congestion_factor=0.1
)
#: Forces the superstep-limit trigger: the length bound collapses to ~0,
#: so the first completed superstep already exceeds it.
SUPERSTEP_KWARGS = dict(length_factor=1e-6)

TRIGGERS = [("congestion", CONGESTION_KWARGS), ("superstep", SUPERSTEP_KWARGS)]


def chains_inst():
    return chain_instance(20, 2, 10, "uniform", rng=3)


def forest_inst():
    return forest_instance(30, 2, 10, rng=5)


#: Trials and seed of each trigger batch.
B, SEED = 6, 5


def batch_fallbacks(cls, inst, kwargs, discipline):
    """Fallback flags of one trigger batch, wherever its path keeps them.

    Under v1 every trial runs its own scalar policy, so the flags come
    from scalar ``run_policy`` runs on the batch's trial generators,
    whose samples must equal the batch's: one flag per trial (for SUU-T,
    the final block's SUU-C policy — with trigger constants this low
    every block falls back, including the last).  Under v2 they come from
    the array cursors (one per SUU-T block).
    """
    policy = cls(**kwargs)
    batch = run_policy_batch(
        inst, policy, B, rng=SEED, semantics="suu_star", discipline=discipline
    )
    if discipline == "v2":
        assert batch.vectorized
        if cls is SUUTPolicy:
            return [cursor.stats["fallback"] for cursor in policy._v2_cursors]
        return [policy.stats["fallback"]]
    assert not batch.vectorized
    runs = [cls(**kwargs) for _ in range(B)]
    makespans = [
        run_policy(inst, p, r, semantics="suu_star").makespan
        for p, r in zip(runs, ensure_rng(SEED).spawn(B))
    ]
    assert np.array_equal(batch.makespans, makespans)
    if cls is SUUTPolicy:
        runs = [p._sub_policy for p in runs]
    return [p.stats["fallback"] for p in runs]


class TestTriggersReported:
    @pytest.mark.parametrize("trigger,kwargs", TRIGGERS)
    @pytest.mark.parametrize("discipline", ["v1", "v2"])
    def test_suu_c_reports_fallback(self, trigger, kwargs, discipline):
        flags = batch_fallbacks(SUUCPolicy, chains_inst(), kwargs, discipline)
        assert all(flags), trigger

    @pytest.mark.parametrize("trigger,kwargs", TRIGGERS)
    @pytest.mark.parametrize("discipline", ["v1", "v2"])
    def test_suu_t_reports_fallback(self, trigger, kwargs, discipline):
        flags = batch_fallbacks(SUUTPolicy, forest_inst(), kwargs, discipline)
        # Every v1 trial reports the trigger; v2 keeps one flag per block.
        assert flags and (all(flags) if discipline == "v1" else any(flags)), trigger

    @pytest.mark.parametrize("trigger,kwargs", TRIGGERS)
    def test_suu_c_scalar_run_reports_fallback(self, trigger, kwargs):
        """The plain scalar engine (no batching) agrees on the trigger."""
        policy = SUUCPolicy(**kwargs)
        run_policy(chains_inst(), policy, rng=5, semantics="suu_star")
        assert policy.stats["fallback"], trigger

    @pytest.mark.parametrize("kwargs", [dict(), SUPERSTEP_KWARGS])
    def test_disable_fallback_suppresses_trigger(self, kwargs):
        """enable_fallback=False must keep running the pseudoschedule (the
        ablation semantics), never reporting a fallback."""
        policy = SUUCPolicy(enable_fallback=False, **kwargs)
        run_policy_batch(
            chains_inst(), policy, 4, rng=5, semantics="suu_star",
            discipline="v2", max_steps=2_000_000,
        )
        assert policy.stats["fallback"] is False


class TestTriggerDecisionsAgreeAcrossDisciplines:
    """With injected v1 delays and shared thresholds, the two disciplines
    must make identical trigger decisions — checked at the strongest
    level: bit-identical makespans and completion matrices."""

    @pytest.mark.parametrize("trigger,kwargs", TRIGGERS)
    def test_suu_c_bitwise_agreement(self, trigger, kwargs, chain_crosscheck):
        chain_crosscheck(chains_inst(), SUUCPolicy, kwargs, 6, 17)

    @pytest.mark.parametrize("trigger,kwargs", TRIGGERS)
    def test_makespans_statistically_matched(self, trigger, kwargs):
        """Under fresh randomness (no injection), triggering runs keep
        matched makespan statistics across disciplines."""
        inst = chains_inst()
        v1 = run_policy_batch(
            inst, lambda: SUUCPolicy(**kwargs), 64, rng=7,
            semantics="suu_star", discipline="v1",
        )
        v2 = run_policy_batch(
            inst, lambda: SUUCPolicy(**kwargs), 64, rng=7,
            semantics="suu_star", discipline="v2",
        )
        a, b = v1.stats(), v2.stats()
        half_a = (a.ci95[1] - a.ci95[0]) / 2
        half_b = (b.ci95[1] - b.ci95[0]) / 2
        assert abs(a.mean - b.mean) <= half_a + half_b, trigger


class TestSemPostKFallbacks:
    """SUU-I-SEM's post-``K`` fallbacks inside chain segment runs.

    With the round budget ``K`` patched down, every segment SEM run
    exhausts its doubling rounds at once: a universe of at most ``m`` long
    jobs switches to the serial fallback, a larger one repeats its last
    round's schedule (at ``K = 0`` the degenerate guard first solves
    round 1; at ``K = 1`` round 1 has run).  The scalar policy (v1) and the
    array cursors (v2) must enter the same fallbacks the same number of
    times and agree bit for bit; SUU-T's cases also check the cursors'
    block-local to engine id translation.
    """

    @staticmethod
    def record_fallback_entries(monkeypatch):
        """Patch recorders onto both sides' switches out of round mode.

        Returns ``(scalar, batch)``: ``scalar`` lists the mode each
        :class:`SUUISemPolicy` execution switched into (v1 runs one per
        segment run); ``batch`` maps each segment cursor of a
        :class:`ChainCursorBatch` that left round mode to ``(cursor,
        mode)``.
        """
        scalar, batch = [], {}
        assign = SUUISemPolicy.assign

        def recording_assign(self, state):
            before = self._mode
            row = assign(self, state)
            if self._mode != before:
                scalar.append(self._mode)
            return row

        prepare_step = ChainCursorBatch.prepare_step

        def recording_prepare_step(self, state, members):
            prepare_step(self, state, members)
            for cursor in self._sem:
                mode = getattr(cursor, "mode", "rounds")
                if mode != "rounds":
                    batch[id(cursor)] = (cursor, mode)

        monkeypatch.setattr(SUUISemPolicy, "assign", recording_assign)
        monkeypatch.setattr(ChainCursorBatch, "prepare_step", recording_prepare_step)
        return scalar, batch

    @pytest.mark.parametrize(
        "cls,make,k",
        [
            (SUUCPolicy, chains_inst, 0),
            (SUUTPolicy, forest_inst, 0),
            (SUUTPolicy, forest_inst, 1),
        ],
        ids=["suu-c-k0", "suu-t-k0", "suu-t-k1"],
    )
    def test_fallbacks_agree(self, cls, make, k, monkeypatch, chain_crosscheck):
        # K at both call sites: the scalar policy's and the cursors'.
        for module in ("repro.core.suu_i_sem", "repro.core.chain_batch"):
            monkeypatch.setattr(f"{module}.paper_round_count", lambda n, m: k)
        scalar, batch = self.record_fallback_entries(monkeypatch)
        chain_crosscheck(make(), cls, {}, 12, 41)
        scalar = Counter(scalar)
        batch = Counter(mode for _, mode in batch.values())
        assert scalar["serial"] > 0 and scalar["repeat_last"] > 0
        assert (scalar["serial"], scalar["repeat_last"]) == (
            batch["serial"], batch["repeat"]
        )
