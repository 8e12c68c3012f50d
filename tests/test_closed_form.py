"""The batch engine's closed-form repeat route vs stepping (differential).

``run_policy_batch`` computes a batch in closed form
(:meth:`~repro.schedule.oblivious.FiniteObliviousSchedule.repeat_completions`)
when completions come from a threshold matrix, the instance has no edges,
and the policy declares the schedule it repeats from step 0.  The oracle
steps the same table: :class:`_Stepped` shows the engine only
``start_batch`` / ``assign_batch``, so the engine cannot see the schedule
and runs its step kernel.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core.suu_i_obl import SUUIOblPolicy, build_obl_schedule
from repro.errors import ScheduleViolationError, SimulationHorizonError
from repro.instance import SUUInstance, independent_instance
from repro.schedule import oblivious
from repro.schedule.base import IDLE
from repro.schedule.oblivious import FiniteObliviousSchedule, RepeatingObliviousPolicy
from repro.sim import run_policy, run_policy_batch, sample_oblivious_repeat_makespans
from repro.sim.engine import draw_thresholds
from repro.util.rng import ensure_rng


class _Stepped:
    """Repeat ``table`` from step 0 through the batch protocol only (no
    declared schedule), so the engine steps it."""

    name = RepeatingObliviousPolicy.name

    def __init__(self, table):
        self._table = np.asarray(table, dtype=np.int64)

    def start_batch(self, instance, rng, n_trials):
        pass

    def assign_batch(self, state):
        length, m = self._table.shape
        row = self._table[state.t % length] if length else np.full(m, IDLE)
        return np.broadcast_to(row, (state.n_trials, m))


def _outcome(run):
    """A batch's three result arrays, or its error's type, message and steps."""
    try:
        res = run()
    except (ScheduleViolationError, SimulationHorizonError) as exc:
        return type(exc), str(exc), getattr(exc, "steps", None)
    return res.makespans, res.completion_times, res.busy_machine_steps


def _assert_same(got, want):
    assert type(got[0]) is type(want[0])
    for a, b in zip(got, want):
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        else:
            assert a == b


def _running_sums(inst, table, steps):
    """Each job's running mass after each step, added as the engine adds:
    machines ascending from 0.0 within a step, then onto the running sum."""
    sums = np.zeros((steps, inst.n_jobs))
    mass = [0.0] * inst.n_jobs
    for t in range(steps):
        step = [0.0] * inst.n_jobs
        for i, j in enumerate(table[t % len(table)]):
            if j >= 0:
                step[j] += float(inst.ell[i, j])
        mass = [a + b for a, b in zip(mass, step)]
        sums[t] = mass
    return sums


@st.composite
def _cases(draw):
    n = draw(st.integers(1, 5), label="n_jobs")
    m = draw(st.integers(1, 4), label="n_machines")
    length = draw(st.integers(1, 6), label="length")
    n_trials = draw(st.integers(1, 5), label="n_trials")
    # q = 1 makes a zero-mass cell, q = 0 the capped log mass; the others
    # round differently when three or more machines' masses add up.
    q = np.array(draw(st.lists(st.one_of(st.sampled_from([0.0, 1.0]),
                                         st.floats(0.05, 0.95)),
                               min_size=m * n, max_size=m * n))).reshape(m, n)
    q[0, (q >= 1.0).all(axis=0)] = 0.5  # a job needs some machine with q < 1
    inst = SUUInstance(q)
    # Idle cells, one job on several machines in a step, jobs never run.
    table = np.array(draw(st.lists(st.integers(IDLE, n - 1), min_size=length * m,
                                   max_size=length * m))).reshape(length, m)
    sums = _running_sums(inst, table, 4 * length)
    theta = np.empty((n_trials, n))
    for b in range(n_trials):
        for j in range(n):
            kind = draw(st.sampled_from(["zero", "negative", "tie", "above", "free"]))
            at = draw(st.integers(0, 4 * length - 1))
            theta[b, j] = {
                "zero": 0.0,
                "negative": -1.5,
                "tie": sums[at, j],  # exactly a running sum
                "above": np.nextafter(sums[at, j], np.inf),
                "free": draw(st.floats(0.0, 30.0)),
            }[kind]
    max_steps = draw(st.one_of(st.integers(0, 40), st.just(300)), label="max_steps")
    block_cells = draw(st.sampled_from([1, 7, oblivious._BLOCK_CELLS]),
                       label="block_cells")
    return inst, table, theta, max_steps, block_cells


class TestClosedFormEqualsStepping:
    @given(case=_cases())
    @settings(max_examples=250, deadline=None)
    def test_results_or_errors_match(self, case):
        inst, table, theta, max_steps, block_cells = case
        schedule = FiniteObliviousSchedule(table)

        def run(factory):
            return _outcome(lambda: run_policy_batch(
                inst, factory, len(theta), rng=0, semantics="suu_star",
                thresholds=theta, max_steps=max_steps,
            ))

        want = run(lambda: _Stepped(table))
        # Blocks of one pass and more continue each other's running sums.
        with mock.patch.object(oblivious, "_BLOCK_CELLS", block_cells):
            got = run(lambda: RepeatingObliviousPolicy(schedule))
        _assert_same(got, want)
        if isinstance(want[0], np.ndarray):
            for b in range(len(theta)):
                one = run_policy(
                    inst, RepeatingObliviousPolicy(schedule), semantics="suu_star",
                    thresholds=theta[b], max_steps=max_steps,
                )
                assert one.makespan == got[0][b]
                assert np.array_equal(one.completion_times, got[1][b])
                assert one.busy_machine_steps == got[2][b]

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("semantics", ["suu", "suu_star"])
    def test_v2_obl_equals_stepping(self, seed, semantics):
        inst = independent_instance(12, 3, "specialist", rng=seed)
        table = build_obl_schedule(inst).table

        def run(factory):
            return _outcome(lambda: run_policy_batch(
                inst, factory, 300, rng=seed, semantics=semantics, discipline="v2",
            ))

        _assert_same(run(SUUIOblPolicy), run(lambda: _Stepped(table)))


@pytest.fixture
def no_stepping(monkeypatch):
    """Make any engine step fail the test."""
    def fail(*args, **kwargs):
        raise AssertionError("the engine stepped")

    backend = kernels.get_backend()
    for name in ("drive_step", "accrue"):
        monkeypatch.setattr(backend, name, fail)


class TestRoute:
    def test_obl_takes_the_closed_form(self, no_stepping, small_independent):
        for discipline, semantics in (("v2", "suu"), ("v2", "suu_star"),
                                      ("v1", "suu_star")):
            res = run_policy_batch(small_independent, SUUIOblPolicy, 50, rng=1,
                                   semantics=semantics, discipline=discipline)
            assert res.vectorized and (res.makespans > 0).all()

    def test_wrapped_assign_batch_keeps_the_route(self, no_stepping, monkeypatch,
                                                  small_independent):
        # A tracer replaces the class's assign_batch; the route must not move.
        inner = SUUIOblPolicy.assign_batch
        monkeypatch.setattr(SUUIOblPolicy, "assign_batch",
                            lambda self, state: inner(self, state))
        run_policy_batch(small_independent, SUUIOblPolicy, 20, rng=2, discipline="v2")

    def test_v1_suu_keeps_stepping(self, monkeypatch, small_independent):
        def fail(*args, **kwargs):
            raise AssertionError("closed form under v1 suu")

        monkeypatch.setattr(FiniteObliviousSchedule, "repeat_completions", fail)
        res = run_policy_batch(small_independent, SUUIOblPolicy, 30, rng=3,
                               semantics="suu", discipline="v1")
        # v1 batches equal the scalar engine trial for trial.
        scalar = [run_policy(small_independent, SUUIOblPolicy(), r).makespan
                  for r in ensure_rng(3).spawn(30)]
        assert res.makespans.tolist() == scalar
        stepped = run_policy_batch(
            small_independent, lambda: _Stepped(build_obl_schedule(small_independent).table),
            30, rng=3, semantics="suu", discipline="v1",
        )
        assert np.array_equal(res.completion_times, stepped.completion_times)

    def test_precedence_keeps_stepping(self, small_chains):
        with pytest.raises(ScheduleViolationError, match="predecessors"):
            run_policy_batch(small_chains, SUUIOblPolicy, 5, rng=4, discipline="v2")


class TestErrors:
    def test_starved_job_raises_at_once(self, no_stepping, tiny_instance):
        # Job 2 never runs: no trial can finish, whatever the horizon.
        policy = RepeatingObliviousPolicy(FiniteObliviousSchedule([[0, 1]]))
        with pytest.raises(SimulationHorizonError) as err:
            run_policy_batch(tiny_instance, policy, 3, rng=0, discipline="v2",
                             max_steps=10**12)
        assert str(err.value) == (
            "'repeat-oblivious' exceeded max_steps=1000000000000 with 3 of 3 "
            "trials unfinished"
        )
        assert err.value.steps == 10**12

    def test_empty_schedule_raises_at_once(self, no_stepping, tiny_instance):
        with pytest.raises(SimulationHorizonError, match="2 of 2 trials") as err:
            run_policy_batch(tiny_instance, SUUIOblPolicy(jobs=()), 2, rng=0,
                             discipline="v2", max_steps=10**12)
        assert err.value.steps == 10**12

    def test_horizon_counts_the_unfinished_trials(self, tiny_instance):
        theta = np.array([[0.1, 0.1, 0.1], [50.0, 0.1, 0.1]])
        table = [[0, 1], [2, 2]]

        def run(factory):
            return _outcome(lambda: run_policy_batch(
                tiny_instance, factory, 2, rng=0, semantics="suu_star",
                thresholds=theta, max_steps=10,
            ))

        got = run(lambda: RepeatingObliviousPolicy(FiniteObliviousSchedule(table)))
        assert got == (SimulationHorizonError,
                       "'repeat-oblivious' exceeded max_steps=10 with 1 of 2 "
                       "trials unfinished", 10)
        _assert_same(got, run(lambda: _Stepped(table)))

    def test_bad_row_raises_up_front(self):
        inst = SUUInstance(np.array([[0.5]]))
        table = [[0], [5]]  # row 1 names job 5 of a 1-job instance

        def run(factory):
            return _outcome(lambda: run_policy_batch(
                inst, factory, 2, rng=0, semantics="suu_star",
                thresholds=np.zeros((2, 1)),
            ))

        # Every trial finishes at step 1, so stepping never reaches row 1.
        assert run(lambda: _Stepped(table))[0].tolist() == [1, 1]
        bad = (ScheduleViolationError,
               "'repeat-oblivious' assigned an out-of-range job id", None)
        assert run(lambda: RepeatingObliviousPolicy(FiniteObliviousSchedule(table))) == bad
        # A bad first row: both routes raise the same error.
        first = [[5], [0]]
        assert run(lambda: RepeatingObliviousPolicy(FiniteObliviousSchedule(first))) == bad
        assert run(lambda: _Stepped(first)) == bad


class TestExactSampler:
    @pytest.mark.parametrize("seed", range(8))
    def test_samples_equal_the_batch_engine(self, seed):
        gen = np.random.default_rng(seed)
        n, m = int(gen.integers(2, 20)), int(gen.integers(1, 6))
        inst = independent_instance(n, m, ["uniform", "specialist"][seed % 2], rng=seed)
        schedule = build_obl_schedule(inst)
        n_trials = 400
        exact = sample_oblivious_repeat_makespans(inst, schedule, n_trials, rng=seed)
        theta = draw_thresholds(n * n_trials, ensure_rng(seed)).reshape(n_trials, n)
        batch = run_policy_batch(
            inst, RepeatingObliviousPolicy(schedule), n_trials, rng=0,
            semantics="suu_star", thresholds=theta,
        )
        assert exact.samples.dtype == batch.makespans.dtype
        assert np.array_equal(exact.samples, batch.makespans)

    def test_samples_share_the_engine_horizon(self):
        # ~1.4e-7 log mass a step: most thresholds need over 10**6 steps.
        inst = SUUInstance(np.array([[0.9999999]]))
        schedule = FiniteObliviousSchedule([[0]])
        with pytest.raises(SimulationHorizonError, match="max_steps=1000000") as err:
            sample_oblivious_repeat_makespans(inst, schedule, 20, rng=0)
        assert err.value.steps == 1_000_000
