"""Tests for RNG discipline and the exception hierarchy."""

import pickle

import numpy as np
import pytest

import repro
from repro import errors
from repro.util.rng import (
    BatchStreams,
    SpawnedRngs,
    ensure_rng,
    run_seed_sequence,
    spawn_rngs,
)


class TestEnsureRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_deterministic(self):
        a = ensure_rng(7).random(5)
        b = ensure_rng(7).random(5)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert ensure_rng(g) is g


class TestSpawnRngs:
    def test_count(self):
        children = spawn_rngs(ensure_rng(0), 4)
        assert len(children) == 4

    def test_independent_streams(self):
        children = spawn_rngs(ensure_rng(0), 2)
        a = children[0].random(100)
        b = children[1].random(100)
        assert not np.array_equal(a, b)

    def test_deterministic(self):
        a = [g.random() for g in spawn_rngs(ensure_rng(3), 3)]
        b = [g.random() for g in spawn_rngs(ensure_rng(3), 3)]
        assert a == b

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            spawn_rngs(ensure_rng(0), -1)


def _states(gens):
    return [g.bit_generator.state for g in gens]


def _child_root():
    """A root with a longer spawn key: a :meth:`BatchStreams.child` root."""
    return BatchStreams(run_seed_sequence(11)).child(2).root


class TestSpawnedRngs:
    @pytest.mark.parametrize(
        "root, eager",
        [
            (ensure_rng(0).bit_generator.seed_seq, lambda n: ensure_rng(0).spawn(n)),
            (ensure_rng(2**40).bit_generator.seed_seq,
             lambda n: ensure_rng(2**40).spawn(n)),
            (_child_root(),
             lambda n: np.random.default_rng(_child_root()).spawn(n)),
        ],
        ids=["seed0", "seed2**40", "child-root"],
    )
    def test_elements_equal_the_eager_spawn(self, root, eager):
        n = 7
        assert _states(SpawnedRngs(root, n)) == _states(eager(n))

    def test_indexing_and_slicing_match_the_list(self):
        lazy = SpawnedRngs(ensure_rng(3).bit_generator.seed_seq, 9)
        eager = ensure_rng(3).spawn(9)
        assert len(lazy) == 9
        for index in (0, 4, 8, -1, -9):
            assert lazy[index].bit_generator.state == eager[index].bit_generator.state
        for outer, inner in [
            (slice(2, 8), slice(1, 4)), (slice(None), slice(-3, None)),
            (slice(5, 5), slice(None)), (slice(3, 7), slice(2, 2)),
            (slice(None, None, 2), slice(1, 3)),
        ]:
            part = lazy[outer][inner]
            assert len(part) == len(eager[outer][inner])
            assert _states(part) == _states(eager[outer][inner])
        assert isinstance(lazy[2:8], SpawnedRngs)  # contiguous slices stay lazy
        for index in (9, -10):
            with pytest.raises(IndexError):
                lazy[index]
        with pytest.raises(IndexError):
            lazy[2:5][3]

    def test_elements_are_cached_and_shared_with_slices(self):
        lazy = SpawnedRngs(ensure_rng(1).bit_generator.seed_seq, 6)
        assert lazy[3] is lazy[3]
        assert lazy[2:6][1] is lazy[3]

    def test_pickles_as_a_span_not_states(self):
        lazy = SpawnedRngs(ensure_rng(2**40).bit_generator.seed_seq, 5000)
        part = lazy[1000:3000]
        part[0].random(3)  # built and advanced before pickling
        payload = pickle.dumps(part)
        assert len(payload) < 400
        back = pickle.loads(payload)
        assert len(back) == 2000
        eager = ensure_rng(2**40).spawn(5000)
        assert _states([back[0], back[-1]]) == _states([eager[1000], eager[2999]])

    def test_only_read_generators_are_built(self, monkeypatch):
        built = []
        child = SpawnedRngs._child

        def counting(self, i):
            built.append(i)
            return child(self, i)

        monkeypatch.setattr(SpawnedRngs, "_child", counting)
        scenario = repro.Scenario(shape="independent", n_jobs=8, n_machines=3, seed=0)
        v2 = repro.SimConfig(n_trials=300, seed=0, discipline="v2")
        repro.simulate(scenario, "obl", v2)
        assert len(built) <= 1
        del built[:]
        v1 = repro.SimConfig(n_trials=20, seed=0, discipline="v1")
        repro.simulate(scenario, "random", v1)
        assert sorted(built) == list(range(20))


class TestRunPolicyBatchSeeds:
    """``run_policy_batch`` builds an integer seed's trial generators
    lazily, with the samples of the eager ``rng.spawn(n_trials)`` list; a
    caller's ``Generator`` or ``SeedSequence`` still spawns them."""

    INSTANCE = repro.Scenario(shape="independent", n_jobs=8, n_machines=3,
                              seed=0).to_instance()

    def run(self, name, discipline, **kwargs):
        from repro.api.registry import policy_factory

        return repro.run_policy_batch(
            self.INSTANCE, policy_factory(name), 12, discipline=discipline,
            **kwargs,
        ).makespans

    @pytest.mark.parametrize("discipline", ["v1", "v2"])
    @pytest.mark.parametrize("name", ["greedy", "sem", "random"])
    def test_integer_seed_equals_the_eager_list(self, name, discipline):
        eager = self.run(name, discipline, rng=9,
                         trial_rngs=list(ensure_rng(9).spawn(12)))
        assert np.array_equal(self.run(name, discipline, rng=9), eager)

    def test_integer_seed_builds_only_read_generators(self, monkeypatch):
        built = []
        child = SpawnedRngs._child

        def counting(self, i):
            built.append(i)
            return child(self, i)

        monkeypatch.setattr(SpawnedRngs, "_child", counting)
        self.run("obl", "v2", rng=9)
        assert built == [0]  # the lead trial's, for the policy's start

    @pytest.mark.parametrize("discipline", ["v1", "v2"])
    def test_a_generator_passed_twice_gives_fresh_trials(self, discipline):
        gen = np.random.default_rng(9)
        first = self.run("greedy", discipline, rng=gen)
        second = self.run("greedy", discipline, rng=gen)
        assert not np.array_equal(first, second)
        fresh = self.run("greedy", discipline, rng=np.random.default_rng(9))
        assert np.array_equal(first, fresh)

    def test_a_seed_sequence_still_spawns_its_children(self):
        root = np.random.SeedSequence(9)
        first = self.run("greedy", "v1", rng=root)
        assert root.n_children_spawned == 12
        assert not np.array_equal(first, self.run("greedy", "v1", rng=root))


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "cls",
        [
            errors.InvalidInstanceError,
            errors.InfeasibleLPError,
            errors.RoundingError,
            errors.ScheduleViolationError,
            errors.SimulationHorizonError,
            errors.DecompositionError,
        ],
    )
    def test_all_derive_from_repro_error(self, cls):
        assert issubclass(cls, errors.ReproError)
        assert issubclass(cls, Exception)

    def test_lp_error_carries_status(self):
        err = errors.InfeasibleLPError("bad", status=2)
        assert err.status == 2

    def test_horizon_error_carries_steps(self):
        err = errors.SimulationHorizonError("slow", steps=10)
        assert err.steps == 10

    def test_catch_all(self):
        with pytest.raises(errors.ReproError):
            raise errors.RoundingError("nope")
