"""Tests for the versioned RNG discipline axis (v1 serial replay / v2
batch native).

Four layers of guarantees:

* **v1 bit-identity regression**: under ``discipline="v1"`` every
  registered policy, on its canonical precedence shape and under both
  semantics, produces batch samples trial-for-trial identical to the
  pre-batch scalar loop (the contract PR 2/3 established, now pinned by
  name).
* **v2 statistical equivalence**: v2 samples are *different* streams but
  the same distributions — matched makespan means within combined 95% CI
  half-widths, matched medians within a step.  Vectorized and phased v2
  batches sample ``suu`` as SUU* thresholds (Theorem 10), so their two
  semantics are one stream.
* **Chain-cursor cross-checks**: SUU-C/SUU-T's v2 array cursors replay the
  v1 object cursors *bit-for-bit* when fed the same delays and thresholds
  — the array refactor changes layout, not semantics.
* **Determinism and chunk invariance**: v2 is a pure function of the seed
  and of global trial indices, so backends/chunk layouts cannot change
  samples; the env-resolved default (`REPRO_DISCIPLINE`) selects it
  end to end.
"""

import numpy as np
import pytest

from repro.api import SimConfig, simulate
from repro.api.registry import list_policies, policy_factory, policy_info
from repro.api.scenario import Scenario
from repro.api.service import evaluate_grid
from repro.core.phased import (
    clear_solve_cache,
    shared_solve_cache,
    solve_cache_stats,
)
from repro.core.suu_c import SUUCPolicy
from repro.core.suu_t import SUUTPolicy
from repro.errors import InvalidScenarioError
from repro.instance import (
    chain_instance,
    forest_instance,
    independent_instance,
    layered_instance,
    lpwall_instance,
    prelude_chain_instance,
)
from repro.instance.generators import random_dag_instance
from repro.schedule.pseudo import draw_delays
from repro.sim import compare_policies, run_policy, run_policy_batch
from repro.sim.engine import draw_thresholds
from repro.util.rng import (
    DISCIPLINES,
    BatchStreams,
    ensure_rng,
    resolve_discipline,
    run_seed_sequence,
)


@pytest.fixture(autouse=True)
def _clean_discipline_env(monkeypatch):
    """Default every test to an unset REPRO_DISCIPLINE; tests that probe
    the env resolution set it explicitly."""
    monkeypatch.delenv("REPRO_DISCIPLINE", raising=False)


def make_instance(kind):
    if kind == "independent":
        return independent_instance(12, 4, "uniform", rng=3)
    if kind == "chains":
        return chain_instance(12, 4, 3, "uniform", rng=7)
    if kind in ("out_forest", "in_forest", "mixed_forest", "forest"):
        return forest_instance(12, 4, 2, rng=5)
    if kind == "layered":
        return layered_instance([5, 5], 4, rng=6)
    if kind == "random_dag":
        return random_dag_instance(12, 4, rng=11)
    if kind == "lpwall":
        return lpwall_instance(n_jobs=18, n_machines=2, rng=4)
    if kind == "lpwall_chains":
        return lpwall_instance(n_jobs=18, n_machines=2, chain_length=3, rng=4)
    raise ValueError(kind)


#: Which shape each registered policy is exercised on (its canonical
#: precedence class where it has one, independent otherwise).
def policy_shape(info):
    if info.default_for:
        pc = info.default_for[0]
        if pc == "general":
            return "random_dag"
        return pc
    return "independent"


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


# ----------------------------------------------------------------------
# Resolution and config plumbing
# ----------------------------------------------------------------------
class TestResolution:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISCIPLINE", "v2")
        assert resolve_discipline("v1") == "v1"
        assert resolve_discipline("v2") == "v2"

    def test_env_default(self, monkeypatch):
        assert resolve_discipline(None) == "v1"
        monkeypatch.setenv("REPRO_DISCIPLINE", "v2")
        assert resolve_discipline(None) == "v2"
        monkeypatch.setenv("REPRO_DISCIPLINE", "")
        assert resolve_discipline(None) == "v1"

    def test_bad_values_fail_loudly(self, monkeypatch):
        with pytest.raises(ValueError, match="discipline"):
            resolve_discipline("v3")
        monkeypatch.setenv("REPRO_DISCIPLINE", "nonsense")
        with pytest.raises(ValueError, match="discipline"):
            resolve_discipline(None)

    def test_simconfig_field_roundtrip(self):
        config = SimConfig(n_trials=5, discipline="v2")
        assert config.resolved().discipline == "v2"
        assert SimConfig.from_dict(config.to_dict()) == config
        # Pre-discipline JSON (no key) still loads, resolving to v1.
        legacy = {"n_trials": 3, "seed": 1, "semantics": "suu", "max_steps": 10}
        assert SimConfig.from_dict(legacy).resolved().discipline == "v1"

    def test_simconfig_env_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISCIPLINE", "v2")
        assert SimConfig().resolved().discipline == "v2"
        assert SimConfig(discipline="v1").resolved().discipline == "v1"

    def test_simconfig_validates(self):
        with pytest.raises(InvalidScenarioError, match="discipline"):
            SimConfig(discipline="v9")

    def test_disciplines_constant(self):
        assert DISCIPLINES == ("v1", "v2")


# ----------------------------------------------------------------------
# v1 bit-identity regression: every registered policy, both semantics
# ----------------------------------------------------------------------
class TestV1BitIdentityAllPolicies:
    @pytest.mark.parametrize(
        "name", [info.name for info in list_policies()]
    )
    @pytest.mark.parametrize("semantics", ["suu", "suu_star"])
    def test_batch_matches_scalar_loop(self, name, semantics):
        info = policy_info(name)
        inst = make_instance(policy_shape(info))
        factory = policy_factory(name)
        expect = scalar_samples(inst, factory, 6, 29, semantics)
        got = run_policy_batch(
            inst, factory, 6, rng=29, semantics=semantics, discipline="v1"
        )
        assert got.discipline == "v1"
        assert np.array_equal(expect, got.makespans)

    @pytest.mark.parametrize("semantics", ["suu", "suu_star"])
    def test_v1_pinned_under_v2_env(self, semantics, monkeypatch):
        """An explicit v1 request must replay the serial tree even when
        the environment selects v2."""
        monkeypatch.setenv("REPRO_DISCIPLINE", "v2")
        inst = make_instance("random_dag")
        factory = policy_factory("layered")
        expect = scalar_samples(inst, factory, 5, 13, semantics)
        got = run_policy_batch(
            inst, factory, 5, rng=13, semantics=semantics, discipline="v1"
        )
        assert np.array_equal(expect, got.makespans)


# ----------------------------------------------------------------------
# v2 statistical equivalence
# ----------------------------------------------------------------------
def assert_statistically_equivalent(a, b, label):
    """Means within combined 95% CI half-widths, medians within a step."""
    half_a = (a.ci95[1] - a.ci95[0]) / 2
    half_b = (b.ci95[1] - b.ci95[0]) / 2
    assert abs(a.mean - b.mean) <= half_a + half_b, (
        f"{label}: v1 mean {a.mean:.3f} (±{half_a:.3f}) vs "
        f"v2 mean {b.mean:.3f} (±{half_b:.3f})"
    )
    assert abs(np.median(a.samples) - np.median(b.samples)) <= 1.0, label


class TestV2StatisticalEquivalence:
    @pytest.mark.parametrize(
        "name,kind,kwargs",
        [
            ("sem", "independent", {}),
            ("obl", "independent", {}),
            ("suu-c", "chains", {}),
            ("suu-c", "chains", {"inner": "obl"}),
            ("suu-c", "chains", {"inner": "repeat"}),
            ("suu-t", "forest", {}),
            ("suu-t", "forest", {"inner": "obl"}),
        ],
    )
    @pytest.mark.parametrize("semantics", ["suu", "suu_star"])
    def test_matched_makespan_distribution(self, name, kind, kwargs, semantics):
        inst = make_instance(kind)
        factory = policy_factory(name, **kwargs)
        v1 = run_policy_batch(
            inst, factory, 160, rng=5, semantics=semantics, discipline="v1"
        )
        v2 = run_policy_batch(
            inst, factory, 160, rng=5, semantics=semantics, discipline="v2"
        )
        assert v2.discipline == "v2"
        assert_statistically_equivalent(
            v1.stats(), v2.stats(), f"{name}/{semantics}"
        )

    def test_v2_streams_differ_from_v1(self):
        """The documented break: same seed, different sample stream (the
        distribution-level equality is what the test above checks)."""
        inst = make_instance("independent")
        factory = policy_factory("obl")
        v1 = run_policy_batch(inst, factory, 64, rng=2, discipline="v1")
        v2 = run_policy_batch(inst, factory, 64, rng=2, discipline="v2")
        assert not np.array_equal(v1.makespans, v2.makespans)

    def test_compare_policies_v2_pairs_identically(self):
        """Common-random-number pairing (shared thresholds) survives v2:
        deterministic policies still coincide sample-for-sample."""
        inst = make_instance("independent")
        out = compare_policies(
            inst,
            {"a": policy_factory("sem"), "b": policy_factory("sem")},
            10,
            rng=2,
            discipline="v2",
        )
        assert np.array_equal(out["a"].samples, out["b"].samples)


class TestV2OneStream:
    """Under v2, vectorized and phased dispatch sample ``suu`` from SUU*
    thresholds drawn once per batch (Theorem 10), so ``suu`` and
    ``suu_star`` give byte-equal samples from one seed — serially, in
    trial shards and across worker processes.  Per-trial dispatch keeps
    its per-trial coin flips."""

    #: Every registry policy on vectorized or phased dispatch: obl, greedy,
    #: best-machine, round-robin, serial, sem, adapt, layered, suu-c, suu-t.
    NAMES = [info.name for info in list_policies()
             if info.dispatch_detail != "fallback"]

    @staticmethod
    def both(name, **kwargs):
        inst = make_instance(policy_shape(policy_info(name)))
        return [
            run_policy_batch(inst, policy_factory(name), 12, rng=19,
                             semantics=semantics, discipline="v2", **kwargs)
            for semantics in ("suu", "suu_star")
        ]

    @pytest.mark.parametrize("kernel_threads", [1, 2])
    @pytest.mark.parametrize("name", NAMES)
    def test_suu_equals_suu_star(self, name, kernel_threads, force_cpus):
        force_cpus(2)
        suu, star = self.both(name, kernel_threads=kernel_threads)
        assert (suu.semantics, star.semantics) == ("suu", "suu_star")
        assert np.array_equal(suu.makespans, star.makespans)
        assert np.array_equal(suu.completion_times, star.completion_times)
        assert np.array_equal(suu.busy_machine_steps, star.busy_machine_steps)

    def test_suu_equals_suu_star_across_worker_processes(self):
        """Both semantics through a two-worker process pool, the batch in
        two chunks: one pool spawned for all ten policies (the
        executor's transport is the ``backend="process"`` chunk path)."""
        from repro.api.service import MIN_CHUNK_TRIALS
        from repro.server import WarmPoolExecutor

        executor = WarmPoolExecutor(n_workers=2)
        try:
            for name in self.NAMES:
                inst = make_instance(policy_shape(policy_info(name)))
                suu, star = (
                    simulate(inst, name, SimConfig(
                        n_trials=2 * MIN_CHUNK_TRIALS, seed=19,
                        semantics=semantics, discipline="v2",
                    ), executor=executor, per_job=True)
                    for semantics in ("suu", "suu_star")
                )
                assert np.array_equal(suu.stats.samples, star.stats.samples)
                assert np.array_equal(suu.per_job.completion_times,
                                      star.per_job.completion_times)
        finally:
            executor.close()

    def test_per_trial_dispatch_keeps_coin_flips(self):
        suu, star = self.both("random")
        assert not suu.vectorized
        assert not np.array_equal(suu.completion_times, star.completion_times)


# ----------------------------------------------------------------------
# Chain-cursor cross-checks: array state == object state
# ----------------------------------------------------------------------
class TestChainCursorCrossCheck:
    def suu_c_delay_matrix(self, inst, plan, n_trials, seed, enabled=True):
        """Replay v1's per-trial delay draws as a matrix."""
        delays = np.empty((n_trials, len(plan.chains)), dtype=np.int64)
        for k, r in enumerate(ensure_rng(seed).spawn(n_trials)):
            policy_rng, _ = r.spawn(2)
            delays[k] = draw_delays(
                len(plan.chains), plan.horizon, policy_rng,
                unit=plan.unit, enabled=enabled,
            )
        return delays

    def crosscheck_suu_c(self, inst, kwargs, B=10, seed=41):
        """Fed v1's delays and shared thresholds, the v2 array cursors
        must replay the v1 per-trial execution exactly."""
        probe = SUUCPolicy(**kwargs)
        plan = probe.prepare_plan(inst)
        delays = self.suu_c_delay_matrix(
            inst, plan, B, seed, enabled=probe.enable_delays
        )
        theta = np.vstack(
            [draw_thresholds(inst.n_jobs, ensure_rng(900 + k)) for k in range(B)]
        )

        class Injected(SUUCPolicy):
            def _draw_v2_delays(self, streams, n_trials, plan, *key):
                # Slice by the stream offset so the injection survives
                # the kernel_threads trial-shard route (each shard draws
                # its own span of the batch-global matrix).
                return delays[streams.offset:streams.offset + n_trials]

        v1 = run_policy_batch(
            inst, lambda: SUUCPolicy(**kwargs), B, rng=seed,
            semantics="suu_star", thresholds=theta, discipline="v1",
            max_steps=2_000_000,
        )
        v2 = run_policy_batch(
            inst, lambda: Injected(**kwargs), B, rng=seed,
            semantics="suu_star", thresholds=theta, discipline="v2",
            max_steps=2_000_000,
        )
        assert np.array_equal(v1.makespans, v2.makespans)
        assert np.array_equal(v1.completion_times, v2.completion_times)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"enable_segments": False},
            {"enable_delays": False},
            {"enable_fallback": False},
            {"inner": "obl"},
            {"inner": "repeat"},
            # Fallback-trigger agreement: both disciplines must take the
            # same congestion / superstep-limit decisions on equal inputs.
            {"length_factor": 1e-6},
            {
                "enable_delays": False,
                "enable_segments": False,
                "congestion_factor": 0.1,
            },
        ],
    )
    def test_suu_c_array_equals_object_cursors(self, kwargs):
        inst = chain_instance(12, 4, 3, "uniform", rng=7)
        self.crosscheck_suu_c(inst, kwargs)

    @pytest.mark.parametrize(
        "kwargs", [{}, {"inner": "obl"}, {"inner": "repeat"}]
    )
    def test_suu_c_prelude_array_equals_object_cursors(self, kwargs):
        """The ``unit > 1`` regime: solo prelude rows must interleave
        bit-identically between the solo queue (v1 object cursors) and
        the signature-compiled prefix rows (v2 array cursors)."""
        inst = prelude_chain_instance()
        plan = SUUCPolicy(**kwargs).prepare_plan(inst)
        assert plan.unit > 1
        assert any(
            getattr(item, "prelude", ())
            for prog in plan.programs
            for item in prog.items
        )
        self.crosscheck_suu_c(inst, kwargs, B=6)

    @pytest.mark.parametrize(
        "kwargs", [{}, {"inner": "obl"}, {"inner": "repeat"}]
    )
    def test_suu_t_array_equals_object_cursors(self, kwargs):
        inst = forest_instance(12, 4, 2, rng=5)
        B, seed = 8, 31
        probe = SUUTPolicy(**kwargs)
        probe._instance = inst
        shared = probe._shared_block_plans(inst)
        block_delays = [
            np.empty((B, len(plan.chains)), dtype=np.int64)
            for _, _, plan in shared
        ]
        # v1 trials spawn one child per block entered, in block order.
        for k, r in enumerate(ensure_rng(seed).spawn(B)):
            policy_rng, _ = r.spawn(2)
            for b, (_, _, plan) in enumerate(shared):
                child = policy_rng.spawn(1)[0]
                block_delays[b][k] = draw_delays(
                    len(plan.chains), plan.horizon, child, unit=plan.unit,
                    enabled=True,
                )
        theta = np.vstack(
            [draw_thresholds(inst.n_jobs, ensure_rng(500 + k)) for k in range(B)]
        )

        class Injected(SUUTPolicy):
            def _draw_block_delays(self, streams, n_trials, plan, block, probe):
                # Offset-sliced so the injection survives trial sharding.
                return block_delays[block][
                    streams.offset:streams.offset + n_trials
                ]

        v1 = run_policy_batch(
            inst, lambda: SUUTPolicy(**kwargs), B, rng=seed,
            semantics="suu_star", thresholds=theta, discipline="v1",
        )
        v2 = run_policy_batch(
            inst, lambda: Injected(**kwargs), B, rng=seed,
            semantics="suu_star", thresholds=theta, discipline="v2",
        )
        assert np.array_equal(v1.makespans, v2.makespans)
        assert np.array_equal(v1.completion_times, v2.completion_times)

    def test_v2_suu_c_is_keyed_not_replica(self):
        """SUU-C/SUU-T declare grouped dispatch for v2 only (array
        cursors keyed by signature); under v1 each trial runs its own
        scalar policy."""
        from repro.schedule.base import supports_phased

        for name, cls in (("suu-c", SUUCPolicy), ("suu-t", SUUTPolicy)):
            assert cls.phased_disciplines == ("v2",)
            assert supports_phased(cls(), "v2")
            assert not supports_phased(cls(), "v1")
            assert policy_info(name).dispatch_detail == "phased (v2)"

    @pytest.mark.parametrize("inner", ["sem", "obl", "repeat"])
    def test_v2_runs_every_inner_on_array_cursors(self, inner):
        """Under v2 every inner subroutine installs the array cursors."""
        inst = chain_instance(12, 4, 3, "uniform", rng=7)
        policy = SUUCPolicy(inner=inner)
        got = run_policy_batch(
            inst, policy, 6, rng=3, semantics="suu_star", discipline="v2"
        )
        assert got.vectorized
        assert policy._v2 is not None  # array cursors

    def test_v2_runs_preludes_on_array_cursors(self):
        """Plans with ``unit > 1`` no longer decline start_phased_v2."""
        inst = prelude_chain_instance()
        policy = SUUCPolicy()
        assert policy.prepare_plan(inst).unit > 1
        got = run_policy_batch(
            inst, policy, 4, rng=3, semantics="suu_star", discipline="v2",
            max_steps=2_000_000,
        )
        assert got.vectorized
        assert policy._v2 is not None

    def test_suu_t_v2_runs_every_inner_on_array_cursors(self):
        inst = forest_instance(12, 4, 2, rng=5)
        for inner in ("sem", "obl", "repeat"):
            policy = SUUTPolicy(inner=inner)
            got = run_policy_batch(
                inst, policy, 6, rng=3, semantics="suu_star", discipline="v2"
            )
            assert got.vectorized
            assert policy._v2_cursors is not None


# ----------------------------------------------------------------------
# Determinism, chunk invariance, service routing
# ----------------------------------------------------------------------
class TestV2Determinism:
    def test_same_seed_same_samples(self):
        inst = make_instance("chains")
        factory = policy_factory("suu-c")
        a = run_policy_batch(inst, factory, 24, rng=11, discipline="v2")
        b = run_policy_batch(inst, factory, 24, rng=11, discipline="v2")
        assert np.array_equal(a.makespans, b.makespans)

    def test_v2_with_trial_rngs_requires_seed_root(self):
        """Pre-spawned trial_rngs carry no v2 root: without rng/streams
        the kernel must refuse rather than silently draw fresh entropy
        (v2 promises determinism in the seed)."""
        inst = make_instance("independent")
        rngs = ensure_rng(5).spawn(4)
        with pytest.raises(ValueError, match="seed root"):
            run_policy_batch(
                inst, policy_factory("obl"), trial_rngs=rngs, discipline="v2"
            )
        # With an explicit rng (or streams) it runs, deterministically.
        a = run_policy_batch(
            inst, policy_factory("obl"), trial_rngs=rngs, rng=5,
            discipline="v2",
        )
        b = run_policy_batch(
            inst, policy_factory("obl"),
            trial_rngs=ensure_rng(5).spawn(4), rng=5, discipline="v2",
        )
        assert np.array_equal(a.makespans, b.makespans)

    def test_chunk_invariance_kernel_level(self):
        """Rows are addressed by global trial index: two chunks with
        rebased streams reproduce the single-batch samples exactly."""
        inst = make_instance("chains")
        factory = policy_factory("suu-c")
        root = run_seed_sequence(5)
        rngs = ensure_rng(5).spawn(20)
        full = run_policy_batch(
            inst, factory, trial_rngs=rngs, semantics="suu",
            discipline="v2", streams=BatchStreams(root),
        )
        parts = [
            run_policy_batch(
                inst, factory, trial_rngs=rngs[lo:hi], semantics="suu",
                discipline="v2", streams=BatchStreams(root).with_offset(lo),
            ).makespans
            for lo, hi in [(0, 7), (7, 20)]
        ]
        assert np.array_equal(full.makespans, np.concatenate(parts))

    def test_backends_bit_identical_under_v2(self):
        """The serial/process invariance contract holds under v2."""
        inst = make_instance("independent")
        config = SimConfig(n_trials=8, seed=6, discipline="v2")
        serial = simulate(inst, "sem", config, backend="serial")
        process = simulate(inst, "sem", config, backend="process")
        assert np.array_equal(serial.stats.samples, process.stats.samples)

    def test_simulate_discipline_changes_samples(self):
        inst = make_instance("independent")
        v1 = simulate(inst, "obl", SimConfig(n_trials=20, seed=3, discipline="v1"))
        v2 = simulate(inst, "obl", SimConfig(n_trials=20, seed=3, discipline="v2"))
        assert not np.array_equal(v1.stats.samples, v2.stats.samples)

    def test_cli_discipline_flag(self, tmp_path, capsys):
        from repro.__main__ import main
        from repro.instance import save_instance

        path = str(tmp_path / "inst.json")
        save_instance(make_instance("chains"), path)
        assert main(["run", path, "--policy", "suu-c", "--trials", "4",
                     "--discipline", "v2"]) == 0
        assert "E[T]" in capsys.readouterr().out


class TestShardInvariance:
    """The trial-shard layer (``kernel_threads > 1``) splits a batch
    along the same seam the process backend chunks on.  Under v2 the
    Philox streams are addressed by *global* trial index, so shard layout
    is invisible by construction — assert it across thread counts and
    chunked runs."""

    # 12 trials: even shards (2, 4), uneven ones (5 -> 2/2/3/2/3), one
    # trial per shard (12), and more threads than trials (16).  The shard
    # count is capped at the CPU count, so each test lets the shard layer
    # see as many CPUs as it asks threads.
    @pytest.mark.parametrize("kernel_threads", [1, 2, 4, 5, 12, 16])
    def test_v2_bit_identical_across_thread_counts(self, kernel_threads,
                                                   force_cpus):
        force_cpus(kernel_threads)
        inst = make_instance("chains")
        factory = policy_factory("suu-c")
        ref = run_policy_batch(inst, factory, 12, rng=11, discipline="v2")
        got = run_policy_batch(
            inst, factory, 12, rng=11, discipline="v2",
            kernel_threads=kernel_threads,
        )
        assert np.array_equal(ref.makespans, got.makespans)
        assert np.array_equal(ref.completion_times, got.completion_times)

    @pytest.mark.parametrize("kernel_threads", [2, 4])
    def test_chunk_invariance_survives_sharding(self, kernel_threads,
                                                force_cpus):
        # Chunks arrive with pre-offset streams (the service seam); the
        # shard layer must rebase on top of that offset, not replace it.
        force_cpus(kernel_threads)
        inst = make_instance("chains")
        factory = policy_factory("suu-c")
        root = run_seed_sequence(5)
        rngs = ensure_rng(5).spawn(20)
        full = run_policy_batch(
            inst, factory, trial_rngs=rngs, semantics="suu",
            discipline="v2", streams=BatchStreams(root),
        )
        parts = [
            run_policy_batch(
                inst, factory, trial_rngs=rngs[lo:hi], semantics="suu",
                discipline="v2", streams=BatchStreams(root).with_offset(lo),
                kernel_threads=kernel_threads,
            ).makespans
            for lo, hi in [(0, 7), (7, 20)]
        ]
        assert np.array_equal(full.makespans, np.concatenate(parts))

    @pytest.mark.parametrize("discipline", ["v1", "v2"])
    def test_per_policy_substreams_unaffected_by_sharding(self, discipline,
                                                          force_cpus):
        force_cpus(2)
        sc = Scenario(shape="independent", n_jobs=10, n_machines=4,
                      model="specialist", seed=3)
        serial = SimConfig(n_trials=8, seed=5, discipline=discipline,
                           substreams="per-policy")
        sharded = SimConfig(n_trials=8, seed=5, discipline=discipline,
                            substreams="per-policy", kernel_threads=2)
        a1, b1 = evaluate_grid([sc], ("sem", "sem"), config=serial)
        a2, b2 = evaluate_grid([sc], ("sem", "sem"), config=sharded)
        assert np.array_equal(a1.stats.samples, a2.stats.samples)
        assert np.array_equal(b1.stats.samples, b2.stats.samples)

    def test_v1_bit_identical_across_thread_counts(self, force_cpus):
        # v1 replays the per-trial spawned RNG tree; contiguous shards
        # slice that tree, so sharding cannot change a sample there either.
        force_cpus(3)
        inst = make_instance("chains")
        factory = policy_factory("suu-c")
        ref = run_policy_batch(inst, factory, 12, rng=11, discipline="v1")
        got = run_policy_batch(inst, factory, 12, rng=11, discipline="v1",
                               kernel_threads=3)
        assert np.array_equal(ref.makespans, got.makespans)


# ----------------------------------------------------------------------
# Cross-chunk solve cache
# ----------------------------------------------------------------------
class TestCrossChunkSolveCache:
    @pytest.mark.parametrize(
        "policy, kind, second",
        [
            ("sem", "independent", "batch"),
            # v1 SUU-C runs one scalar policy per trial; their segment SEM
            # rounds go through the same process cache.
            ("suu-c", "chains", "batch"),
            # A scalar SEM run replaying a batch trial solves nothing new.
            ("sem", "independent", "scalar"),
        ],
    )
    def test_second_batch_hits_for_round_schedules(
        self, monkeypatch, policy, kind, second
    ):
        """A second run — another batch (a second chunk of a sweep, in
        miniature) or a scalar run — reads the first batch's round
        schedules from the process cache instead of re-solving them."""
        monkeypatch.delenv("REPRO_SOLVE_CACHE", raising=False)
        clear_solve_cache()
        inst = make_instance(kind)
        factory = policy_factory(policy)
        run_policy_batch(inst, factory, 8, rng=1, discipline="v1")
        first = solve_cache_stats()
        assert first["solves"] > 0
        round_keys = [
            k for k in shared_solve_cache()._entries if k[0] == "lp1-round"
        ]
        assert round_keys
        if second == "scalar":
            trial0 = ensure_rng(1).spawn(8)[0]
            run_policy(inst, factory(), trial0)
            assert solve_cache_stats()["lp_solves"] == first["lp_solves"]
        else:
            run_policy_batch(inst, factory, 8, rng=2, discipline="v1")
            assert solve_cache_stats()["hits"] > first["hits"]
        if policy == "sem":
            # Round 1 (target 1/2, full survivor set) is shared; later
            # rounds with coinciding survivor sets hit too.  At minimum,
            # no batch re-solves round 1.
            round1_keys = [k for k in round_keys if k[3] == 0.5]
            assert len(round1_keys) == 1  # one (instance, target=1/2) entry
        clear_solve_cache()

    def test_chain_plan_shared_across_batches(self, monkeypatch):
        monkeypatch.delenv("REPRO_SOLVE_CACHE", raising=False)
        clear_solve_cache()
        inst = make_instance("chains")
        factory = policy_factory("suu-c")
        run_policy_batch(inst, factory, 4, rng=1, discipline="v2")
        solves_after_first = solve_cache_stats()["solves"]
        run_policy_batch(inst, factory, 4, rng=2, discipline="v2")
        stats = solve_cache_stats()
        plan_keys = [
            k for k in shared_solve_cache()._entries if k[0] == "chain-plan"
        ]
        assert len(plan_keys) == 1  # LP2 solved once across both batches
        assert stats["hits"] >= 1
        assert stats["solves"] >= solves_after_first
        clear_solve_cache()

    def test_grid_sweep_shares_round1_lp(self, monkeypatch):
        """Two policies on the same scenario in one sweep: the shared
        round-1 LP is solved once for the whole grid."""
        monkeypatch.delenv("REPRO_SOLVE_CACHE", raising=False)
        clear_solve_cache()
        grid = [Scenario(shape="independent", n_jobs=10, n_machines=4, seed=3)]
        evaluate_grid(grid, ("sem", "adapt"), config=SimConfig(n_trials=5, seed=1))
        # Round 1 = target 1/2 on the full survivor set; both policies'
        # cells (every trial) share the one entry.  (adapt re-solves
        # target 1/2 on *shrinking* survivor sets — distinct keys.)
        full_set = np.arange(10, dtype=np.int64).tobytes()
        round1 = [
            k for k in shared_solve_cache()._entries
            if k[0] == "lp1-round" and k[3] == 0.5 and k[4] == full_set
        ]
        assert len(round1) == 1
        clear_solve_cache()

    def test_disabled_via_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOLVE_CACHE", "0")
        clear_solve_cache()
        inst = make_instance("independent")
        factory = policy_factory("sem")
        run_policy_batch(inst, factory, 4, rng=1, discipline="v1")
        assert solve_cache_stats()["entries"] == 0
        clear_solve_cache()

    @pytest.mark.parametrize(
        "policy, kind, semantics, discipline, n_trials",
        [("sem", "independent", "suu", "v1", 6)]
        # The LP-wall grid: survivor-set rounds (sem, adapt) and chain
        # segments (suu-c, suu-t) on long-job instances, both disciplines.
        + [
            (policy, kind, semantics, discipline, 24)
            for policy, kind, semantics in [
                ("sem", "lpwall", "suu"),
                ("adapt", "lpwall", "suu"),
                ("suu-c", "lpwall_chains", "suu"),
                ("suu-t", "lpwall_chains", "suu_star"),
            ]
            for discipline in ("v1", "v2")
        ],
    )
    def test_results_identical_with_and_without_cache(
        self, monkeypatch, policy, kind, semantics, discipline, n_trials
    ):
        inst = make_instance(kind)
        factory = policy_factory(policy)

        def run():
            return run_policy_batch(
                inst, factory, n_trials, rng=4, semantics=semantics,
                discipline=discipline,
            )

        clear_solve_cache()
        warm = run()
        again = run()
        monkeypatch.setenv("REPRO_SOLVE_CACHE", "0")
        cold = run()
        assert np.array_equal(warm.makespans, again.makespans)
        assert np.array_equal(warm.makespans, cold.makespans)
        clear_solve_cache()

    def test_instance_digest_stability(self):
        a = make_instance("chains")
        b = chain_instance(12, 4, 3, "uniform", rng=7)
        c = chain_instance(12, 4, 3, "uniform", rng=8)
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()


# ----------------------------------------------------------------------
# BatchStreams unit behavior
# ----------------------------------------------------------------------
class TestBatchStreams:
    def test_offset_reads_global_rows(self):
        s = BatchStreams(np.random.SeedSequence(7))
        full = s.step_uniforms(3, 10, 5)
        part = s.with_offset(4).step_uniforms(3, 6, 5)
        assert np.allclose(full[4:], part)
        th_full = s.thresholds(10, 5)
        th_part = s.with_offset(4).thresholds(6, 5)
        assert np.allclose(th_full[4:], th_part)

    def test_streams_are_independent_per_key(self):
        s = BatchStreams(np.random.SeedSequence(7))
        a = s.step_uniforms(0, 4, 4)
        b = s.step_uniforms(1, 4, 4)
        c = s.child(0).step_uniforms(0, 4, 4)
        assert not np.allclose(a, b)
        assert not np.allclose(a, c)

    def test_policy_integers_range_and_offset(self):
        s = BatchStreams(np.random.SeedSequence(3))
        ints = s.policy_integers(50, 4, 7)
        assert ints.min() >= 0 and ints.max() < 7
        part = s.with_offset(20).policy_integers(30, 4, 7)
        assert np.array_equal(ints[20:], part)

    def test_thresholds_distribution(self):
        """theta = -log2 r is exponential with mean 1/ln 2 ~ 1.4427."""
        s = BatchStreams(np.random.SeedSequence(11))
        theta = s.thresholds(400, 25)
        assert theta.min() >= 0
        assert abs(theta.mean() - 1.0 / np.log(2)) < 0.05

    def test_picklable(self):
        import pickle

        s = BatchStreams(np.random.SeedSequence(9), offset=3)
        s2 = pickle.loads(pickle.dumps(s))
        assert np.allclose(s.step_uniforms(0, 3, 3), s2.step_uniforms(0, 3, 3))
