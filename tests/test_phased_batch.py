"""Tests for phase-grouped batch dispatch of the adaptive policies.

The load-bearing property is the same *serial equivalence* the vectorized
kernel guarantees: for every policy implementing the
:class:`~repro.schedule.base.PhasedPolicy` protocol, grouped dispatch must
produce makespans trial-for-trial identical to the scalar engine loop,
under both semantics, because the kernel replays the serial RNG tree
(including each trial's policy generator — SUU-C's random chain delays
must come out bit-identical).

On top of equivalence, the grouping invariants: each step the phase groups
partition exactly the live trials, every trial in a group receives the
group's shared row, and a policy supporting neither protocol — or a
phased policy under a discipline its grouped dispatch does not cover —
runs one scalar policy per trial, lock-stepped, bit-identical to
``run_policy``.
"""

from functools import partial

import numpy as np
import pytest

from repro.analysis.perjob import PerJobStats, per_job_stats
from repro.api import Scenario, SimConfig, evaluate_grid, simulate
from repro.api.registry import policy_info
from repro.api.service import (
    MIN_CHUNK_TRIALS,
    SERIAL_BATCH_THRESHOLD,
    _chunk_bounds,
)
from repro.baselines.naive import RandomAssignmentPolicy
from repro.core.adaptive import SUUIAdaptiveLPPolicy
from repro.core.layered import LayeredPolicy
from repro.core.phased import RoundScheduleCache
from repro.core.suu_c import SUUCPolicy
from repro.core.suu_i_sem import SUUISemPolicy
from repro.core.suu_t import SUUTPolicy
from repro.errors import ScheduleViolationError
from repro.instance import (
    chain_instance,
    forest_instance,
    independent_instance,
    layered_instance,
)
from repro.instance.generators import random_dag_instance
from repro.schedule.base import (
    IDLE,
    PhasedPolicy,
    Policy,
    supports_batch,
    supports_phased,
)
from repro.sim import compare_policies, run_policy, run_policy_batch
from repro.sim.engine import draw_thresholds
from repro.util.rng import BatchStreams, ensure_rng, run_seed_sequence


@pytest.fixture(autouse=True)
def _serial_replay_discipline(monkeypatch):
    """This module is (part of) the v1 serial-replay bit-identity
    regression suite: scalar-vs-batch equality only holds under
    discipline v1, so pin it regardless of the environment's
    REPRO_DISCIPLINE (the v2 CI leg exercises v2 through the service,
    montecarlo, and test_discipline suites)."""
    monkeypatch.delenv("REPRO_DISCIPLINE", raising=False)


ADAPTIVE_CASES = [
    # (policy factory, instance the policy is built for)
    pytest.param(SUUISemPolicy, "independent", id="sem"),
    pytest.param(SUUIAdaptiveLPPolicy, "independent", id="adapt"),
    pytest.param(SUUCPolicy, "chains", id="suu-c"),
    pytest.param(SUUTPolicy, "forest", id="suu-t"),
    pytest.param(LayeredPolicy, "random_dag", id="layered"),
    # SEM's post-K fallbacks from the first step: n <= m runs the serial
    # fallback, m < n repeats the (degenerate-guard) round-1 schedule.
    pytest.param(partial(SUUISemPolicy, n_rounds=0), "few_jobs", id="sem-k0-serial"),
    pytest.param(partial(SUUISemPolicy, n_rounds=0), "independent", id="sem-k0-repeat"),
]


def make_instance(kind):
    if kind == "independent":
        return independent_instance(14, 4, "uniform", rng=3)
    if kind == "few_jobs":
        return independent_instance(4, 8, "uniform", rng=3)
    if kind == "chains":
        return chain_instance(12, 4, 3, "uniform", rng=7)
    if kind == "forest":
        return forest_instance(12, 4, 2, rng=5)
    if kind == "layered":
        return layered_instance([5, 5], 4, rng=6)
    if kind == "random_dag":
        return random_dag_instance(12, 4, rng=11)
    raise ValueError(kind)


def scalar_samples(instance, factory, n_trials, seed, semantics):
    """The pre-batch serial Monte Carlo loop, verbatim."""
    rngs = ensure_rng(seed).spawn(n_trials)
    return np.array(
        [
            run_policy(instance, factory(), r, semantics=semantics).makespan
            for r in rngs
        ],
        dtype=np.int64,
    )


class TestPhasedSerialEquivalence:
    @pytest.mark.parametrize("factory,kind", ADAPTIVE_CASES)
    @pytest.mark.parametrize("semantics", ["suu", "suu_star"])
    def test_bit_identical_to_scalar(self, factory, kind, semantics):
        inst = make_instance(kind)
        expect = scalar_samples(inst, factory, 12, 23, semantics)
        got = run_policy_batch(inst, factory, 12, rng=23, semantics=semantics)
        # Under v1 the chain policies' rows depend on each trial's own
        # delays, so their trials run per trial and share no rows.
        assert got.vectorized == (factory not in (SUUCPolicy, SUUTPolicy))
        assert np.array_equal(expect, got.makespans)

    @pytest.mark.parametrize(
        "kind,scalar_mode,batch_mode",
        [("few_jobs", "serial", "serial"), ("independent", "repeat_last", "repeat")],
    )
    def test_sem_post_k_fallbacks_entered(self, kind, scalar_mode, batch_mode):
        """The ``sem-k0-*`` cases above really run SEM's fallbacks."""
        inst = make_instance(kind)
        policy = SUUISemPolicy(n_rounds=0)
        run_policy(inst, policy, ensure_rng(23), semantics="suu_star")
        assert policy._mode == scalar_mode
        run_policy_batch(inst, policy, 12, rng=23, semantics="suu_star")
        assert {cursor.mode for cursor in policy._cursors} == {batch_mode}

    def test_layered_on_layered_dag(self):
        """The MapReduce-shaped case the layered policy exists for."""
        inst = make_instance("layered")
        for semantics in ("suu", "suu_star"):
            expect = scalar_samples(inst, LayeredPolicy, 10, 5, semantics)
            got = run_policy_batch(inst, LayeredPolicy, 10, rng=5,
                                   semantics=semantics)
            assert np.array_equal(expect, got.makespans)

    def test_completion_times_match_scalar(self):
        inst = make_instance("independent")
        rngs = ensure_rng(31).spawn(8)
        batch = run_policy_batch(
            inst, SUUISemPolicy, trial_rngs=rngs, semantics="suu_star"
        )
        rngs = ensure_rng(31).spawn(8)
        for k in range(8):
            res = run_policy(inst, SUUISemPolicy(), rngs[k], semantics="suu_star")
            assert np.array_equal(res.completion_times, batch.completion_times[k])
            assert res.busy_machine_steps == batch.busy_machine_steps[k]

    def test_compare_policies_pairs_adaptive_with_itself(self):
        """Common-random-number pairing survives grouped dispatch."""
        inst = make_instance("independent")
        out = compare_policies(
            inst,
            {"a": SUUISemPolicy, "b": SUUISemPolicy, "adapt": SUUIAdaptiveLPPolicy},
            10,
            rng=2,
        )
        assert np.array_equal(out["a"].samples, out["b"].samples)
        assert out["adapt"].n_trials == 10

    def test_suu_c_delays_replayed_per_trial(self):
        """SUU-C's random chain delays must be drawn from each trial's own
        policy generator: a batch of B trials matches B scalar runs even
        though the LP2 plan is solved once and shared."""
        inst = make_instance("chains")
        factory = lambda: SUUCPolicy(enable_delays=True)  # noqa: E731
        expect = scalar_samples(inst, factory, 10, 41, "suu_star")
        got = run_policy_batch(inst, factory, 10, rng=41, semantics="suu_star")
        assert np.array_equal(expect, got.makespans)

    def test_policy_kwargs_respected(self):
        """Per-trial policies must keep the configured ablation flags."""
        inst = make_instance("chains")
        factory = lambda: SUUCPolicy(enable_delays=False, inner="obl")  # noqa: E731
        expect = scalar_samples(inst, factory, 8, 17, "suu")
        got = run_policy_batch(inst, factory, 8, rng=17, semantics="suu")
        assert np.array_equal(expect, got.makespans)


class RecordingSem(SUUISemPolicy):
    """SEM with instrumented grouped dispatch (for invariant checks)."""

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self.step_groups = []  # one {trial: key} dict per engine step
        self._current = None

    def phase_key(self, trial, state):
        if self._current is None or self._current["t"] != state.t:
            self._current = {"t": state.t, "keys": {}, "groups": []}
            self.step_groups.append(self._current)
        key = super().phase_key(trial, state)
        self._current["keys"][trial] = key
        return key

    def assign_group(self, state, trials):
        self._current["groups"].append(list(map(int, trials)))
        return super().assign_group(state, trials)


class TestGroupingInvariants:
    def test_groups_partition_live_trials(self):
        """Each step: every live trial is in exactly one dispatch group."""
        inst = make_instance("independent")
        policy = RecordingSem()
        run_policy_batch(inst, policy, 16, rng=3, semantics="suu_star")
        assert policy.step_groups
        for record in policy.step_groups:
            queried = sorted(record["keys"])
            dispatched = sorted(t for g in record["groups"] for t in g)
            # Partition: same trials, no duplicates, no omissions.
            assert dispatched == queried
            # Same-key trials land in the same group, and groups are
            # key-homogeneous.
            for group in record["groups"]:
                keys = {record["keys"][t] for t in group}
                assert len(keys) == 1
        # Grouping must actually group: round 1 runs every trial through
        # one shared schedule, so some step has a multi-trial group.
        assert any(
            len(g) > 1 for r in policy.step_groups for g in r["groups"]
        )

    def test_group_members_share_lp_solves(self):
        """The memoized round cache is the point: far fewer LP solves than
        the scalar loop's one-per-(trial, round)."""
        inst = make_instance("independent")
        policy = RecordingSem()
        run_policy_batch(inst, policy, 16, rng=3, semantics="suu_star")
        total_rounds = sum(c.round for c in policy._cursors)
        assert policy._cache.solves < total_rounds
        assert policy._cache.solves + policy._cache.hits == total_rounds

    def test_round_cache_reuses_equal_survivor_sets(self):
        inst = make_instance("independent")
        cache = RoundScheduleCache(inst, scale=6)
        jobs = np.arange(inst.n_jobs, dtype=np.int64)
        a = cache.schedule_id(0.5, jobs)
        b = cache.schedule_id(0.5, jobs)
        assert a == b and cache.solves == 1 and cache.hits == 1
        c = cache.schedule_id(1.0, jobs)
        assert c != a and cache.solves == 2


class UnphasedAdaptive(Policy):
    """Adaptive-looking policy with neither batch nor phased support."""

    name = "unphased-dummy"

    def start(self, instance, rng):
        self._m = instance.n_machines
        self._order = rng.permutation(instance.n_jobs)

    def assign(self, state):
        row = np.full(self._m, IDLE, dtype=np.int64)
        eligible = [j for j in self._order if state.eligible[j]]
        if eligible:
            row[:] = eligible[0]
        return row


class TestFallbackEquivalence:
    def test_unphased_policy_takes_fallback(self):
        inst = make_instance("independent")
        probe = UnphasedAdaptive()
        assert not supports_batch(probe) and not supports_phased(probe)
        batch = run_policy_batch(inst, UnphasedAdaptive, 10, rng=9)
        assert not batch.vectorized
        expect = scalar_samples(inst, UnphasedAdaptive, 10, 9, "suu")
        assert np.array_equal(batch.makespans, expect)

    def test_protocol_detection(self):
        for factory, _ in [(c.values[0], c.values[1]) for c in ADAPTIVE_CASES]:
            assert supports_phased(factory())
            assert supports_phased(factory(), "v2")
            assert not supports_batch(factory())
            # The chain policies' grouped dispatch covers v2 only.
            chain = factory in (SUUCPolicy, SUUTPolicy)
            assert supports_phased(factory(), "v1") != chain
        assert issubclass(SUUISemPolicy, PhasedPolicy)

    def test_registry_capability_flags(self):
        assert policy_info("sem").phased
        assert policy_info("suu-c").phased
        assert not policy_info("sem").vectorized
        assert policy_info("sem").batch_dispatch == "phased"
        assert policy_info("obl").batch_dispatch == "vectorized"
        assert policy_info("random").batch_dispatch == "fallback"


class ShortRow(UnphasedAdaptive):
    name = "short-row"

    def assign(self, state):
        return super().assign(state)[:-1]


class FloatRow(UnphasedAdaptive):
    name = "float-row"

    def assign(self, state):
        return super().assign(state).astype(np.float64)


class TestPerTrialDispatch:
    """Policies with neither protocol run one scalar policy per trial,
    lock-stepped through the batch engine: trial for trial the same
    execution as ``run_policy`` on that trial's generator — under v1 with
    its own outcome draws, under v2 on its row of the batch's threshold
    matrix."""

    @pytest.mark.parametrize("cls", [RandomAssignmentPolicy, UnphasedAdaptive])
    @pytest.mark.parametrize(
        "semantics,given_thresholds",
        [("suu", False), ("suu_star", False), ("suu_star", True)],
    )
    @pytest.mark.parametrize("as_instance", [False, True])
    @pytest.mark.parametrize("discipline", ["v1", "v2"])
    def test_bit_identical_to_run_policy(self, cls, semantics,
                                         given_thresholds, as_instance,
                                         discipline):
        inst = make_instance("random_dag")
        B, seed = 9, 13
        theta = None
        if given_thresholds:
            theta = np.vstack([
                draw_thresholds(inst.n_jobs, ensure_rng(300 + k))
                for k in range(B)
            ])
        # The scalar oracle: v1 replays each trial's own outcome draws;
        # v2 steps every trial against its row of the batch's one
        # threshold matrix, under either semantics.  Thresholds the
        # caller gives under suu_star win in both.
        rows, oracle_semantics = theta, semantics
        if discipline == "v2" and theta is None:
            rows = BatchStreams(run_seed_sequence(seed)).thresholds(
                B, inst.n_jobs
            )
            oracle_semantics = "suu_star"
        expect = [
            run_policy(inst, cls(), r, semantics=oracle_semantics,
                       thresholds=None if rows is None else rows[k])
            for k, r in enumerate(ensure_rng(seed).spawn(B))
        ]
        policy = cls() if as_instance else cls
        got = run_policy_batch(
            inst, policy, B, rng=seed, semantics=semantics,
            thresholds=theta, discipline=discipline,
        )
        assert not got.vectorized
        assert (got.semantics, got.discipline) == (semantics, discipline)
        assert np.array_equal(got.makespans, [r.makespan for r in expect])
        assert np.array_equal(
            got.completion_times,
            np.vstack([r.completion_times for r in expect]),
        )
        assert np.array_equal(
            got.busy_machine_steps, [r.busy_machine_steps for r in expect]
        )

    @pytest.mark.parametrize("cls,match", [(ShortRow, "shape"),
                                           (FloatRow, "non-integer")])
    def test_bad_rows_raise_like_the_scalar_engine(self, cls, match):
        inst = make_instance("independent")
        with pytest.raises(ScheduleViolationError, match=match) as scalar:
            run_policy(inst, cls(), 1)
        with pytest.raises(ScheduleViolationError) as batch:
            run_policy_batch(inst, cls, 4, rng=1)
        assert str(batch.value) == str(scalar.value)

    @pytest.mark.parametrize("name,kind", [("suu-c", "chains"),
                                           ("suu-t", "forest")])
    def test_v1_chain_policies_process_equals_serial(self, name, kind):
        """v1 suu-c/suu-t keep their explicit process request: a batch of
        several chunks spreads across workers with the serial samples."""
        inst = make_instance(kind)
        config = SimConfig(n_trials=2 * MIN_CHUNK_TRIALS + 1, seed=3)
        assert len(_chunk_bounds(config.n_trials, 2)) == 2
        serial = simulate(inst, name, config, backend="serial")
        process = simulate(inst, name, config, backend="process", n_workers=2)
        assert np.array_equal(serial.stats.samples, process.stats.samples)


class TestServiceRouting:
    def test_simulate_routes_adaptive_through_grouped_dispatch(self):
        """simulate() must hand adaptive policies to the batch kernel and
        still match the scalar loop sample-for-sample."""
        inst = make_instance("independent")
        config = SimConfig(n_trials=10, seed=4)
        report = simulate(inst, "sem", config)
        expect = scalar_samples(inst, SUUISemPolicy, 10, 4, "suu")
        assert np.array_equal(report.stats.samples, expect)

    def test_process_backend_bit_identical_for_phased(self):
        inst = make_instance("independent")
        config = SimConfig(n_trials=12, seed=6)
        serial = simulate(inst, "adapt", config, backend="serial")
        process = simulate(inst, "adapt", config, backend="process")
        assert np.array_equal(serial.stats.samples, process.stats.samples)

    def test_chunk_bounds_auto_heuristic(self):
        # Chunks never smaller than MIN_CHUNK_TRIALS (except a lone chunk).
        for n_items in (1, 10, MIN_CHUNK_TRIALS, 300, 1000, 1001):
            for n_workers in (1, 2, 7, 32):
                bounds = _chunk_bounds(n_items, n_workers)
                flat = [k for lo, hi in bounds for k in range(lo, hi)]
                assert flat == list(range(n_items))  # no drop, no reorder
                if len(bounds) > 1:
                    assert all(hi - lo >= MIN_CHUNK_TRIALS for lo, hi in bounds)
                assert len(bounds) <= n_workers

    def test_small_batches_skip_the_pool(self, monkeypatch):
        """Below the threshold the process backend runs in-process with
        the same samples, and neither a call nor a sweep builds a pool
        (``"auto"`` resolves to fast-path policies on these shapes)."""
        import repro.api.executors as executors

        assert SERIAL_BATCH_THRESHOLD > 1
        inst = make_instance("independent")
        config = SimConfig(n_trials=8, seed=5)
        grid = [Scenario(shape=shape, n_jobs=6, n_machines=2, seed=1)
                for shape in ("independent", "layered")]
        serial = simulate(inst, "greedy", config, backend="serial")
        serial_grid = evaluate_grid(grid, ("auto", "greedy"), config=config)

        def no_pool(*args, **kwargs):
            raise AssertionError("a fast-path run built a worker pool")

        monkeypatch.setattr(executors, "ProcessPoolExecutor", no_pool)
        process = simulate(inst, "greedy", config, backend="process")
        assert np.array_equal(serial.stats.samples, process.stats.samples)
        process_grid = evaluate_grid(grid, ("auto", "greedy"), config=config,
                                     backend="process")
        for a, b in zip(serial_grid, process_grid, strict=True):
            assert np.array_equal(a.stats.samples, b.stats.samples)

    def test_fast_path_eligibility(self):
        """An explicit process request stands for per-trial-dispatch
        policies (neither protocol, or suu-c/suu-t under v1: in-process
        batching shares no rows for them); the fast path is for
        vectorized and phased policies."""
        from repro.api.service import _fast_path_eligible
        from repro.baselines.greedy_lr import GreedyLRPolicy
        from repro.baselines.naive import RandomAssignmentPolicy

        assert _fast_path_eligible(SUUISemPolicy)
        assert _fast_path_eligible(LayeredPolicy)
        assert _fast_path_eligible(GreedyLRPolicy)
        assert not _fast_path_eligible(SUUCPolicy)
        assert not _fast_path_eligible(SUUTPolicy)
        assert not _fast_path_eligible(RandomAssignmentPolicy)

    def test_pool_path_exercised_end_to_end(self):
        """A fallback-dispatch policy below the threshold must still use
        the worker pool (explicit process request), covering _map_chunks,
        the run_trial_batch pickling contract, and the want_completions
        tuple reassembly."""
        inst = make_instance("independent")
        config = SimConfig(n_trials=6, seed=7)
        serial = simulate(inst, "random", config, backend="serial",
                          per_job=True)
        process = simulate(inst, "random", config, backend="process",
                           n_workers=2, per_job=True)
        assert np.array_equal(serial.stats.samples, process.stats.samples)
        assert np.array_equal(
            serial.per_job.completion_times, process.per_job.completion_times
        )


class TestPerJobStats:
    def test_matches_completion_matrix(self):
        inst = make_instance("independent")
        batch = run_policy_batch(inst, SUUISemPolicy, 15, rng=2)
        stats = per_job_stats(batch)
        assert isinstance(stats, PerJobStats)
        assert stats.n_trials == 15 and stats.n_jobs == inst.n_jobs
        assert np.allclose(stats.mean, batch.completion_times.mean(axis=0))
        assert np.allclose(
            stats.quantile(0.9), np.quantile(batch.completion_times, 0.9, axis=0)
        )
        # The per-trial max over jobs is the makespan.
        assert np.array_equal(
            batch.completion_times.max(axis=1), batch.makespans
        )

    def test_critical_fraction_partitions_mass(self):
        stats = PerJobStats(np.array([[3, 1, 3], [2, 5, 1]]))
        # Trial 0: jobs 0 and 2 tie (0.5 each); trial 1: job 1 alone.
        assert np.allclose(stats.critical_fraction, [0.25, 0.5, 0.25])
        assert np.isclose(stats.critical_fraction.sum(), 1.0)

    def test_slowest_jobs_ordering(self):
        stats = PerJobStats(np.array([[1, 9, 5], [1, 7, 5]]))
        top = stats.slowest_jobs(2, q=0.5)
        assert [j for j, _ in top] == [1, 2]

    def test_simulate_surfaces_per_job(self):
        inst = make_instance("independent")
        report = simulate(inst, "sem", SimConfig(n_trials=10, seed=1),
                          per_job=True)
        assert report.per_job is not None
        assert report.per_job.n_jobs == inst.n_jobs
        d = report.to_dict()
        assert d["per_job"]["n_trials"] == 10
        # Off by default (the matrix is n_trials x n_jobs — opt-in only).
        assert simulate(inst, "sem", SimConfig(n_trials=5, seed=1)).per_job is None

    def test_validation(self):
        with pytest.raises(ValueError):
            PerJobStats(np.arange(4))
        with pytest.raises(ValueError):
            per_job_stats(np.ones((2, 3))).quantile(1.5)
