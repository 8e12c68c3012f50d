"""The simulation service: end-to-end policies, backend equivalence, CLI."""

import json

import numpy as np
import pytest

import repro
from repro.api import (
    Report,
    Scenario,
    ScenarioGrid,
    SimConfig,
    evaluate_grid,
    list_policies,
    simulate,
)
from repro.core.phased import clear_solve_cache, shared_solve_cache
from repro.errors import UnknownPolicyError

#: Shape each precedence-restricted policy needs (others run on anything).
_SHAPE_FOR_DEFAULT = {
    "independent": "independent",
    "chains": "chains",
    "out_forest": "forest",
    "in_forest": "forest",
    "mixed_forest": "forest",
    "general": "layered",
}


def _scenario_for(info) -> Scenario:
    shape = "independent"
    if info.default_for:
        shape = _SHAPE_FOR_DEFAULT[info.default_for[0]]
    return Scenario(shape=shape, n_jobs=6, n_machines=3, model="uniform", seed=2)


QUICK = SimConfig(n_trials=2, seed=3, max_steps=50_000)


class TestSimulateEveryPolicy:
    @pytest.mark.parametrize(
        "name", [info.name for info in list_policies()]
    )
    def test_end_to_end(self, name):
        info = next(i for i in list_policies() if i.name == name)
        report = simulate(_scenario_for(info), name, QUICK)
        assert isinstance(report, Report)
        assert report.policy == name
        assert report.stats.n_trials == 2
        assert report.mean >= 1.0
        assert report.lower_bound > 0.0
        assert report.ratio >= report.mean / max(report.lower_bound, 1e-9) - 1e-9


class TestSimulateAPI:
    def test_auto_resolves_precedence_default(self):
        report = simulate(Scenario(shape="chains", n_jobs=8, n_machines=3,
                                   model="uniform", seed=1), "auto", QUICK)
        assert report.policy == "suu-c"

    def test_accepts_raw_instance(self, small_independent):
        report = simulate(small_independent, "greedy", QUICK)
        assert report.scenario is None
        assert report.policy == "greedy"

    def test_accepts_policy_class_and_kwargs(self):
        sc = Scenario(n_jobs=6, n_machines=3, model="uniform", seed=2)
        report = simulate(sc, repro.SUUISemPolicy, QUICK, n_rounds=2)
        assert report.policy == "SUU-I-SEM"

    def test_serial_matches_montecarlo_estimator(self):
        sc = Scenario(n_jobs=8, n_machines=3, model="uniform", seed=4)
        cfg = SimConfig(n_trials=6, seed=11)
        report = simulate(sc, "greedy", cfg)
        stats = repro.estimate_expected_makespan(
            sc.to_instance(), repro.GreedyLRPolicy, 6, rng=11
        )
        assert np.array_equal(report.stats.samples, stats.samples)

    def test_unknown_policy_and_backend(self):
        sc = Scenario(n_jobs=4, n_machines=2, model="uniform")
        with pytest.raises(UnknownPolicyError):
            simulate(sc, "nope", QUICK)
        with pytest.raises(ValueError, match="backend"):
            simulate(sc, "greedy", QUICK, backend="quantum")

    def test_report_round_trips_to_json(self):
        report = simulate(Scenario(n_jobs=5, n_machines=2, model="uniform"),
                          "serial", QUICK)
        data = json.loads(json.dumps(report.to_dict()))
        assert data["policy"] == "serial"
        assert len(data["samples"]) == QUICK.n_trials
        assert Scenario.from_dict(data["scenario"]) == report.scenario


class TestProcessBackendEquivalence:
    @pytest.mark.parametrize("solve_cache", ["1", "0"])
    def test_process_reproduces_serial_bit_identically(self, monkeypatch, solve_cache):
        monkeypatch.setenv("REPRO_SOLVE_CACHE", solve_cache)
        clear_solve_cache()
        sc = Scenario(n_jobs=10, n_machines=4, model="specialist", seed=6)
        cfg = SimConfig(n_trials=8, seed=17)
        serial = simulate(sc, "greedy", cfg, backend="serial")
        process = simulate(sc, "greedy", cfg, backend="process", n_workers=3)
        assert np.array_equal(serial.stats.samples, process.stats.samples)
        # The bound is memoized per process: one entry for both calls, the
        # same value as a fresh solve, and nothing stored with the cache off.
        instance = sc.to_instance()
        assert serial.lower_bound == process.lower_bound == repro.lower_bound(instance)
        bound_keys = [k for k in shared_solve_cache()._entries if k[0] == "lower-bound"]
        expected = [("lower-bound", instance.digest())] if solve_cache == "1" else []
        assert bound_keys == expected
        clear_solve_cache()

    def test_chunking_never_drops_or_reorders_trials(self):
        from repro.api.service import _chunk_bounds

        for n_items in (1, 2, 7, 8, 16):
            for n_chunks in (1, 2, 3, 5, 20):
                bounds = _chunk_bounds(n_items, n_chunks)
                assert bounds[0][0] == 0 and bounds[-1][1] == n_items
                assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
                assert len(bounds) <= max(1, min(n_chunks, n_items))


class TestEvaluateGrid:
    def test_scenario_major_order(self):
        grid = ScenarioGrid(
            Scenario(n_jobs=5, n_machines=2, model="uniform"), seed=[1, 2]
        )
        reports = evaluate_grid(grid, ["serial", "greedy"], config=QUICK)
        assert len(reports) == 4
        assert [r.policy for r in reports] == ["serial", "greedy"] * 2
        assert [r.scenario.seed for r in reports] == [1, 1, 2, 2]

    def test_process_grid_reuses_pool_and_matches_serial(self):
        grid = ScenarioGrid(
            Scenario(n_jobs=8, n_machines=3, model="uniform"), seed=[1, 2]
        )
        cfg = SimConfig(n_trials=4, seed=5)
        serial = evaluate_grid(grid, ["serial", "greedy"], config=cfg)
        process = evaluate_grid(grid, ["serial", "greedy"], config=cfg,
                                backend="process", n_workers=2)
        assert len(serial) == len(process) == 4
        for a, b in zip(serial, process):
            assert a.policy == b.policy
            assert np.array_equal(a.stats.samples, b.stats.samples)
            assert a.lower_bound == b.lower_bound

    def test_single_policy_string(self):
        grid = ScenarioGrid(Scenario(n_jobs=5, n_machines=2, model="uniform"))
        reports = evaluate_grid(grid, "auto", config=QUICK)
        assert len(reports) == 1 and reports[0].policy == "sem"


class TestCLIIntegration:
    def _gen(self, tmp_path, *extra):
        from repro.__main__ import main

        path = tmp_path / "inst.json"
        assert main(["generate", *extra, "--jobs", "8", "--machines", "3",
                     "--seed", "1", "--out", str(path)]) == 0
        return path

    def test_generate_random_dag_runs_layered_by_default(self, tmp_path, capsys):
        from repro.__main__ import main

        path = self._gen(tmp_path, "--shape", "random_dag", "--edge-prob", "0.4")
        inst = repro.load_instance(path)
        assert inst.precedence_class.value == "general"
        assert main(["run", str(path), "--trials", "2", "--seed", "2"]) == 0
        assert "policy:   layered" in capsys.readouterr().out

    def test_sweep_prints_reports(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "reports.json"
        code = main([
            "sweep", "--shape", "independent", "--jobs", "6", "--jobs", "8",
            "--machines", "3", "--policy", "auto", "--policy", "greedy",
            "--trials", "2", "--model", "uniform", "--json", str(out),
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "4 reports" in text
        assert "greedy" in text and "sem" in text
        dumped = json.loads(out.read_text())
        assert len(dumped) == 4
        assert {d["policy"] for d in dumped} == {"sem", "greedy"}
