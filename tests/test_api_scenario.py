"""Declarative scenarios: validation, determinism, JSON round-trips, grids."""

import json

import numpy as np
import pytest

from repro.api.scenario import (
    FAILURE_MODELS,
    SCENARIO_SHAPES,
    Scenario,
    ScenarioGrid,
    SimConfig,
)
from repro.errors import InvalidScenarioError
from repro.instance.generators import (
    chain_instance,
    forest_instance,
    independent_instance,
    layered_instance,
)
from repro.instance.precedence import PrecedenceClass


class TestScenarioValidation:
    def test_unknown_shape_raises(self):
        with pytest.raises(InvalidScenarioError, match="shape"):
            Scenario(shape="pentagon")

    def test_unknown_model_raises(self):
        with pytest.raises(InvalidScenarioError, match="model"):
            Scenario(model="bimodal")

    def test_bad_dimensions_raise(self):
        with pytest.raises(InvalidScenarioError):
            Scenario(n_jobs=0)
        with pytest.raises(InvalidScenarioError):
            Scenario(n_machines=0)
        # Sizes, counts and seeds must be integers (bools are not), and
        # seeds non-negative: JSON bodies carry floats and booleans.
        for kwargs, needle in [
            ({"n_jobs": 2.5}, "n_jobs must be an integer"),
            ({"n_jobs": True}, "n_jobs must be an integer"),
            ({"n_machines": 1.5}, "n_machines must be an integer"),
            ({"shape": "layered", "n_layers": 2.5}, "n_layers must be an integer"),
            ({"shape": "chains", "n_chains": 1.5}, "n_chains must be an integer"),
            ({"shape": "forest", "n_trees": True}, "n_trees must be an integer"),
            ({"seed": -1}, "seed must be >= 0"),
            ({"seed": 1.5}, "seed must be an integer"),
            ({"seed": True}, "seed must be an integer"),
        ]:
            with pytest.raises(InvalidScenarioError, match=needle):
                Scenario(**kwargs)
        # numpy integers are integers.
        sc = Scenario(n_jobs=np.int64(6), n_machines=np.int64(3), seed=np.int64(4))
        assert sc.to_instance().n_jobs == 6

    def test_all_declared_shapes_and_models_materialize(self):
        for shape in SCENARIO_SHAPES:
            for model in FAILURE_MODELS:
                inst = Scenario(
                    shape=shape, model=model, n_jobs=6, n_machines=3, seed=4
                ).to_instance()
                assert inst.n_jobs == 6 and inst.n_machines == 3


class TestScenarioDeterminism:
    def test_to_instance_is_deterministic(self):
        sc = Scenario(shape="random_dag", n_jobs=10, n_machines=4, seed=3)
        a, b = sc.to_instance(), sc.to_instance()
        assert np.array_equal(a.q, b.q)
        assert a.graph.edges == b.graph.edges

    def test_matches_direct_generator_calls(self):
        sc = Scenario(shape="independent", n_jobs=12, n_machines=4,
                      model="powerlaw", seed=9)
        direct = independent_instance(12, 4, "powerlaw", rng=9)
        assert np.array_equal(sc.to_instance().q, direct.q)

        sc = Scenario(shape="chains", n_jobs=12, n_machines=4, model="uniform",
                      seed=8, n_chains=3)
        direct = chain_instance(12, 4, 3, "uniform", rng=8)
        via = sc.to_instance()
        assert np.array_equal(via.q, direct.q)
        assert via.graph.edges == direct.graph.edges

    @pytest.mark.parametrize(
        "shape,expected",
        [
            ("independent", PrecedenceClass.INDEPENDENT),
            ("chains", PrecedenceClass.CHAINS),
            ("tree", PrecedenceClass.OUT_FOREST),
        ],
    )
    def test_shapes_hit_their_precedence_class(self, shape, expected):
        sc = Scenario(shape=shape, n_jobs=12, n_machines=3, seed=1)
        assert sc.to_instance().precedence_class == expected

    def test_random_dag_is_general(self):
        sc = Scenario(shape="random_dag", n_jobs=10, n_machines=3, seed=0,
                      edge_prob=0.5)
        assert sc.to_instance().precedence_class == PrecedenceClass.GENERAL

    def test_layered_split_matches_pre11_cli(self):
        # The historical CLI put the extra job of an odd count in the
        # *second* layer ([half, n - half]); seeded output must not change.
        sc = Scenario(shape="layered", n_jobs=21, n_machines=3, n_layers=2,
                      model="uniform", seed=6)
        direct = layered_instance([10, 11], 3, "uniform", rng=6)
        via = sc.to_instance()
        assert np.array_equal(via.q, direct.q)
        assert via.graph.edges == direct.graph.edges
        with pytest.raises(InvalidScenarioError, match="layers"):
            Scenario(shape="layered", n_jobs=2, n_layers=3).to_instance()

    def test_forest_defaults_to_mixed_orientation(self):
        # generate and sweep must describe the same forest workload.
        sc = Scenario(shape="forest", n_jobs=12, n_machines=3, model="uniform",
                      seed=5)
        direct = forest_instance(12, 3, 1, "mixed", "uniform", rng=5)
        assert sc.to_instance().graph.edges == direct.graph.edges

    def test_bad_orientation_rejected(self):
        with pytest.raises(InvalidScenarioError, match="orientation"):
            Scenario(shape="tree", orientation="sideways")


class TestScenarioJSON:
    def test_round_trip_equality(self):
        sc = Scenario(shape="forest", n_jobs=15, n_machines=4, model="related",
                      seed=5, n_trees=3, orientation="mixed")
        assert Scenario.from_json(sc.to_json()) == sc

    def test_json_is_plain_data(self):
        data = json.loads(Scenario().to_json())
        assert data["format"] == "repro-scenario-v1"
        assert data["shape"] == "independent"

    def test_unknown_field_rejected(self):
        with pytest.raises(InvalidScenarioError, match="unknown scenario fields"):
            Scenario.from_dict({"shape": "chains", "flavor": "mint"})

    def test_bad_format_tag_rejected(self):
        with pytest.raises(InvalidScenarioError, match="format"):
            Scenario.from_dict({"format": "repro-scenario-v999"})

    def test_label_mentions_shape_and_size(self):
        label = Scenario(shape="chains", n_jobs=24, n_machines=6).label()
        assert "chains" in label and "24" in label


class TestSimConfig:
    def test_defaults_and_round_trip(self):
        cfg = SimConfig(n_trials=7, seed=3, semantics="suu_star", max_steps=99)
        assert SimConfig.from_dict(cfg.to_dict()) == cfg

    def test_validation(self):
        with pytest.raises(InvalidScenarioError):
            SimConfig(n_trials=0)
        with pytest.raises(InvalidScenarioError):
            SimConfig(semantics="classical")
        with pytest.raises(InvalidScenarioError):
            SimConfig(max_steps=0)
        for kwargs, needle in [
            ({"n_trials": 2.5}, "n_trials must be an integer"),
            ({"n_trials": True}, "n_trials must be an integer"),
            ({"seed": -1}, "seed must be >= 0"),
            ({"seed": 1.5}, "seed must be an integer"),
            ({"max_steps": 10.5}, "max_steps must be an integer"),
            ({"kernel_threads": True}, "kernel_threads must be an integer"),
        ]:
            with pytest.raises(InvalidScenarioError, match=needle):
                SimConfig(**kwargs)
        # numpy integers are integers.
        cfg = SimConfig(n_trials=np.int64(5), seed=np.int64(2),
                        max_steps=np.int64(100))
        assert cfg.n_trials == 5 and cfg.seed == 2


class TestScenarioGrid:
    def test_product_size_and_order(self):
        grid = ScenarioGrid(
            Scenario(model="uniform"),
            shape=["independent", "chains"],
            n_jobs=[10, 20, 30],
        )
        scenarios = grid.scenarios()
        assert len(grid) == 6 and len(scenarios) == 6
        # First axis varies slowest.
        assert [s.shape for s in scenarios] == ["independent"] * 3 + ["chains"] * 3
        assert [s.n_jobs for s in scenarios[:3]] == [10, 20, 30]
        # Unswept base fields carry through.
        assert all(s.model == "uniform" for s in scenarios)

    def test_empty_axes_is_single_point(self):
        grid = ScenarioGrid(Scenario(n_jobs=11))
        assert len(grid) == 1
        assert grid.scenarios() == [Scenario(n_jobs=11)]

    def test_unknown_axis_rejected(self):
        with pytest.raises(InvalidScenarioError, match="axes"):
            ScenarioGrid(Scenario(), flavor=["mint"])

    def test_empty_axis_rejected(self):
        with pytest.raises(InvalidScenarioError, match="no values"):
            ScenarioGrid(Scenario(), n_jobs=[])

    def test_dict_round_trip(self):
        grid = ScenarioGrid(Scenario(model="related"), n_jobs=[5, 10])
        again = ScenarioGrid.from_dict(grid.to_dict())
        assert again.scenarios() == grid.scenarios()
