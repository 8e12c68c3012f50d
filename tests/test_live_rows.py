"""Live-row stepping in the batch engine (repro.sim.batch._drive_batch).

Once fewer than half of the rows it steps are live, the engine gathers
the live rows and keeps a row -> trial map (``BatchSimulationState.
trials``).  Trials are independent, so an N-trial batch must equal N
one-trial batches, which never compact: the one-trial runs are the
every-row oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.greedy_lr import GreedyLRPolicy
from repro.baselines.naive import (
    BestMachinePolicy,
    RandomAssignmentPolicy,
    RoundRobinPolicy,
    SerialAllMachinesPolicy,
)
from repro.core.suu_i_obl import SUUIOblPolicy
from repro.errors import ScheduleViolationError, SimulationHorizonError
from repro.instance import PrecedenceGraph, SUUInstance, independent_instance
from repro.instance.generators import random_dag_instance
from repro.schedule.base import IDLE, VectorizedPolicy
from repro.sim import run_policy_batch
from repro.util.rng import BatchStreams, ensure_rng, run_seed_sequence

#: Row-wise policies (vectorized) plus one per-trial policy (``random``).
POLICIES = [
    SUUIOblPolicy,
    GreedyLRPolicy,
    RoundRobinPolicy,
    BestMachinePolicy,
    SerialAllMachinesPolicy,
    RandomAssignmentPolicy,
]


def _results(res):
    return res.makespans, res.completion_times, res.busy_machine_steps


class TestBatchEqualsOneTrialBatches:
    @given(
        seed=st.integers(0, 10**6),
        n_jobs=st.integers(1, 10),
        n_machines=st.integers(1, 3),
        dag=st.booleans(),
        policy=st.sampled_from(POLICIES),
        discipline=st.sampled_from(["v1", "v2"]),
        semantics=st.sampled_from(["suu", "suu_star"]),
        given_thresholds=st.booleans(),
        kernel_threads=st.sampled_from([1, 2]),
        n_trials=st.integers(2, 12),
    )
    @settings(max_examples=120, deadline=None)
    def test_samples_match(
        self, seed, n_jobs, n_machines, dag, policy, discipline, semantics,
        given_thresholds, kernel_threads, n_trials, threads_env,
    ):
        if dag and policy is SUUIOblPolicy:
            dag = False  # SUU-I-OBL is defined on independent jobs only
        rng = np.random.default_rng(seed)
        if dag:
            inst = random_dag_instance(n_jobs, n_machines, 0.3, rng=rng)
        else:
            inst = independent_instance(n_jobs, n_machines, rng=rng)
        thresholds = None
        if semantics == "suu_star" and given_thresholds:
            thresholds = -np.log2(1.0 - rng.random((n_trials, n_jobs)))
        streams = BatchStreams(run_seed_sequence(seed))

        def run(trial_rngs, lo, hi, threads):
            with threads_env(threads):
                return run_policy_batch(
                    inst, policy, hi - lo, semantics=semantics,
                    thresholds=None if thresholds is None else thresholds[lo:hi],
                    trial_rngs=trial_rngs, discipline=discipline,
                    streams=streams.with_offset(lo),
                )

        whole = run(ensure_rng(seed).spawn(n_trials), 0, n_trials,
                    kernel_threads)
        # Fresh generators: the whole batch has advanced its own.
        rngs = ensure_rng(seed).spawn(n_trials)
        parts = [run([rngs[k]], k, k + 1, 1) for k in range(n_trials)]
        want = [np.concatenate(col) for col in zip(*map(_results, parts))]
        for got, expected in zip(_results(whole), want):
            assert np.array_equal(got, expected)


class _RecordingPolicy(VectorizedPolicy):
    """All machines on each row's lowest remaining job (row-wise), with
    every step's ``(trials, active)`` recorded."""

    name = "recording"

    def start(self, instance, rng):
        self._m = instance.n_machines
        self.seen = []

    def assign(self, state):  # pragma: no cover - scalar path unused
        raise NotImplementedError

    def assign_batch(self, state):
        assert state.trials.shape == (state.n_trials,)
        self.seen.append((state.t, state.trials.copy(), state.active.copy()))
        rem = state.remaining
        job = np.where(rem.any(axis=1), np.argmax(rem, axis=1), IDLE)
        return np.repeat(job[:, None], self._m, axis=1)


def _slow_instance():
    # Equal, slow machines: trial makespans spread widely.
    return SUUInstance(np.full((2, 6), 0.8))


class TestCompaction:
    @pytest.mark.parametrize("discipline", ["v1", "v2"])
    @pytest.mark.parametrize("semantics", ["suu", "suu_star"])
    def test_rows_shrink_and_map_to_live_trials(self, discipline, semantics):
        policy = _RecordingPolicy()
        n_trials = 64
        res = run_policy_batch(
            _slow_instance(), policy, n_trials, rng=5, semantics=semantics,
            discipline=discipline,
        )
        rows = [trials.size for _, trials, _ in policy.seen]
        assert rows[0] == n_trials
        assert min(rows) < n_trials // 2
        for (t, trials, active), prev in zip(policy.seen, [None] + policy.seen):
            assert np.all(np.diff(trials) > 0)
            # The rows' live trials are exactly the trials unfinished at t.
            assert np.array_equal(
                trials[active], np.flatnonzero(res.makespans > t)
            )
            if prev is not None and trials.size < prev[1].size:
                # A compaction keeps exactly the live rows, and only once
                # fewer than half of the previous rows were live.
                assert active.all()
                assert trials.size * 2 < prev[1].size
        # Trials finished before, at and after the first compaction all
        # match their every-row (one-trial) runs.
        rngs = ensure_rng(5).spawn(n_trials)
        streams = BatchStreams(run_seed_sequence(5))
        for k in map(int, np.argsort(res.makespans)[[0, n_trials // 2, -1]]):
            one = run_policy_batch(
                _slow_instance(), _RecordingPolicy(), semantics=semantics,
                trial_rngs=[rngs[k]], discipline=discipline,
                streams=streams.with_offset(k),
            )
            assert np.array_equal(one.completion_times[0], res.completion_times[k])
            assert one.busy_machine_steps[0] == res.busy_machine_steps[k]


class _LateViolator(VectorizedPolicy):
    """Works each row's first eligible job (in id order); at the first step
    after the rows shrink, gives batch trial ``victim`` the last job of a
    chain instead — a precedence violation while its predecessor runs."""

    name = "late-violator"

    def __init__(self, victim=None):
        self.victim = victim
        self.first_compacted_t = None

    def start(self, instance, rng):
        self._m = instance.n_machines
        self._last = instance.n_jobs - 1
        self._n_trials = None

    def assign(self, state):  # pragma: no cover - scalar path unused
        raise NotImplementedError

    def assign_batch(self, state):
        if self._n_trials is None:
            self._n_trials = state.n_trials
        elig = state.eligible
        job = np.where(elig.any(axis=1), np.argmax(elig, axis=1), IDLE)
        out = np.repeat(job[:, None], self._m, axis=1)
        if self.first_compacted_t is None and state.n_trials < self._n_trials:
            self.first_compacted_t = state.t
            if self.victim is not None:
                out[np.flatnonzero(state.trials == self.victim), 0] = self._last
        return out


class TestErrorsAfterCompaction:
    def _chain(self):
        n = 5
        return SUUInstance(
            np.full((2, n), 0.7), PrecedenceGraph(n, [(j, j + 1) for j in range(n - 1)])
        )

    def test_violation_names_the_batch_trial(self):
        inst, n_trials = self._chain(), 40
        clean_policy = _LateViolator()
        clean = run_policy_batch(inst, clean_policy, n_trials, rng=3)
        t_c = clean_policy.first_compacted_t
        assert t_c is not None
        # A trial whose next-to-last job is still running at t_c, so the
        # last job is ineligible; the highest such index sits at a lower
        # compacted row.
        victim = int(np.flatnonzero(clean.completion_times[:, -2] > t_c)[-1])
        with pytest.raises(ScheduleViolationError) as err:
            run_policy_batch(inst, _LateViolator(victim), n_trials, rng=3)
        assert f"(t={t_c}, trial={victim})" in str(err.value)

    def test_horizon_counts_batch_trials(self):
        class _StarveTrialZero(_RecordingPolicy):
            def assign_batch(self, state):
                out = super().assign_batch(state)
                out[state.trials == 0] = IDLE
                return out

        policy = _StarveTrialZero()
        with pytest.raises(SimulationHorizonError, match="with 1 of 32 trials unfinished"):
            run_policy_batch(_slow_instance(), policy, 32, rng=1, max_steps=400)
        assert policy.seen[-1][1].size < 32  # the error came after compaction
