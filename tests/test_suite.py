"""Tests for the declarative suite runner (repro.suite)."""

import dataclasses
import json
import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys

import pytest

from repro.api.config import DISCIPLINE_ENV_VAR, KERNEL_THREADS_ENV_VAR
from repro.api.scenario import Scenario, ScenarioGrid, SimConfig
from repro.errors import InvalidScenarioError
from repro.suite import (
    ExperimentCell,
    SimulateCell,
    SuiteError,
    SuiteRunner,
    cell_digest,
    load_suite,
    suite_from_dict,
)

REPO = pathlib.Path(__file__).resolve().parents[1]
DEMO = REPO / "suites" / "demo.json"

SMALL = {
    "name": "tiny",
    "grid": {"base": {"shape": "independent", "n_jobs": 6, "n_machines": 2,
                      "model": "uniform", "seed": 3}},
    "policies": ["obl"],
    "config": {"n_trials": 4, "max_steps": 5000},
}


def clear_knob_env(monkeypatch):
    """Unset every knob environment variable, so a test's assertions see
    the default knobs however the surrounding environment is set."""
    for var in (DISCIPLINE_ENV_VAR, KERNEL_THREADS_ENV_VAR):
        monkeypatch.delenv(var, raising=False)


def small_spec(**overrides):
    data = {**SMALL, **overrides}
    return suite_from_dict(data)


def demo_cell() -> SimulateCell:
    return SimulateCell(
        Scenario(shape="independent", n_jobs=12, n_machines=4,
                 model="specialist", seed=0),
        "obl",
        SimConfig(n_trials=40, max_steps=40000, discipline="v1", seed=0),
    )


class TestSpecLoading:
    def test_demo_loads_and_expands(self):
        spec = load_suite(DEMO)
        cells = spec.cells()
        # 1 scenario x 2 policies x (2 disciplines x 2 seeds)
        assert len(cells) == 8
        assert len({cell_digest(c) for c in cells}) == 8

    def test_unknown_top_level_key(self):
        with pytest.raises(SuiteError, match="polices"):
            small_spec(polices=["obl"])

    def test_unknown_policy(self):
        with pytest.raises(SuiteError, match="not-a-policy"):
            small_spec(policies=["not-a-policy"])

    def test_unknown_sweep_field(self):
        with pytest.raises(SuiteError, match="dicipline"):
            small_spec(sweep={"dicipline": ["v1"]})
        with pytest.raises(SuiteError, match="kernel"):
            small_spec(sweep={"kernel": ["numpy"]})
        with pytest.raises(SuiteError, match="lp_reuse"):
            small_spec(sweep={"lp_reuse": ["subset"]})
        with pytest.raises(SuiteError, match="substreams"):
            small_spec(sweep={"substreams": ["per-policy"]})
        with pytest.raises(SuiteError, match="substreams"):
            small_spec(config={**SMALL["config"], "substreams": "shared"})

    def test_bad_sweep_value(self):
        with pytest.raises(SuiteError, match="sweep value"):
            small_spec(sweep={"discipline": ["v9"]}).configs()

    def test_unknown_experiment(self):
        with pytest.raises(SuiteError, match="E-NOPE"):
            small_spec(experiments=["E-NOPE"])

    def test_unknown_scenario_field_in_grid(self):
        bad = dict(SMALL)
        bad["grid"] = {"base": {"shape": "independent", "n_job": 6}}
        with pytest.raises(SuiteError, match="n_job"):
            suite_from_dict(bad)

    def test_unknown_config_field(self):
        with pytest.raises(SuiteError, match="trials"):
            small_spec(config={"trials": 4})

    def test_grid_and_experiments_both_absent(self):
        with pytest.raises(SuiteError, match="no grid"):
            suite_from_dict({"name": "empty"})

    @pytest.mark.parametrize("overrides,match", [
        ({"sweep": {"seed": 3}}, "sweep axis 'seed' must be a list"),
        # A string axis would otherwise split into its characters.
        ({"sweep": {"discipline": "v2"}}, "sweep axis 'discipline' must be a list"),
        ({"policies": 5}, "'policies' must be a name or a list"),
        ({"experiments": 5}, "'experiments' must be a list"),
        ({"grid": [1, 2]}, "'grid' must be a mapping"),
        ({"grid": "independent"}, "'grid' must be a mapping"),
        ({"grid": {"base": 5}}, "suite 'tiny': grid 'base' must be a mapping"),
        ({"config": 5}, "'config' must be a mapping"),
    ], ids=["sweep-int", "sweep-str", "policies-int", "experiments-int",
            "grid-list", "grid-str", "grid-base-int", "config-int"])
    def test_malformed_shapes_raise_suite_error(self, overrides, match):
        with pytest.raises(SuiteError, match=match):
            small_spec(**overrides)

    def test_single_policy_string_stays_allowed(self):
        assert small_spec(policies="obl").policies == ("obl",)

    def test_toml_loading_is_gated(self, tmp_path):
        path = tmp_path / "suite.toml"
        path.write_text(
            'name = "t"\npolicies = ["obl"]\n'
            '[grid.base]\nshape = "independent"\nn_jobs = 6\nn_machines = 2\n'
        )
        if sys.version_info >= (3, 11):
            spec = load_suite(path)
            assert spec.name == "t" and len(spec.cells()) == 1
        else:
            with pytest.raises(SuiteError, match="tomllib"):
                load_suite(path)


class TestStrictRoundTrip:
    """Scenario / ScenarioGrid / SimConfig reject unknown keys on load."""

    def test_scenario_rejects_unknown(self):
        with pytest.raises(InvalidScenarioError, match="n_jbos"):
            Scenario.from_dict({"shape": "independent", "n_jbos": 4})

    def test_simconfig_rejects_unknown(self):
        with pytest.raises(InvalidScenarioError, match="trials"):
            SimConfig.from_dict({"trials": 10})
        with pytest.raises(InvalidScenarioError, match="'kernel'"):
            SimConfig.from_dict({"n_trials": 10, "kernel": "numpy"})
        with pytest.raises(InvalidScenarioError, match="'lp_reuse'"):
            SimConfig.from_dict({"n_trials": 10, "lp_reuse": "subset"})
        with pytest.raises(TypeError, match="lp_reuse"):
            SimConfig(lp_reuse="exact")
        with pytest.raises(InvalidScenarioError, match="'substreams'"):
            SimConfig.from_dict({"n_trials": 10, "substreams": "per-policy"})

    def test_grid_rejects_unknown_top_level(self):
        grid = ScenarioGrid(Scenario(), n_jobs=[4, 8])
        data = grid.to_dict()
        assert ScenarioGrid.from_dict(data).axes == grid.axes
        data["axis"] = {"n_jobs": [2]}
        with pytest.raises(InvalidScenarioError, match="axis"):
            ScenarioGrid.from_dict(data)

    @pytest.mark.parametrize("load,data,match", [
        (ScenarioGrid.from_dict, {"base": 5}, "grid 'base' must be a mapping, got 5"),
        (ScenarioGrid.from_dict, {"base": {}, "axes": {"n_jobs": 4}},
         "grid axis 'n_jobs' must be a list of values, got 4"),
        # A string axis would otherwise split into its characters.
        (ScenarioGrid.from_dict, {"base": {}, "axes": {"shape": "chains"}},
         "grid axis 'shape' must be a list of values, got 'chains'"),
        (ScenarioGrid.from_dict, {"base": {}, "axes": [1]},
         r"grid 'axes' must be a mapping, got \[1\]"),
        (Scenario.from_dict, [1, 2], r"scenario must be a mapping, got \[1, 2\]"),
        (ScenarioGrid.from_dict, None, "grid must be a mapping, got None"),
        (Scenario.from_dict, None, "scenario must be a mapping, got None"),
        (SimConfig.from_dict, None, "config must be a mapping, got None"),
    ], ids=["grid-base-int", "grid-axis-int", "grid-axis-str", "grid-axes-list",
            "scenario-list", "grid-none", "scenario-none", "config-none"])
    def test_malformed_shapes_name_the_field(self, load, data, match):
        with pytest.raises(InvalidScenarioError, match=match):
            load(data)

    def test_grid_requires_base(self):
        with pytest.raises(InvalidScenarioError, match="base"):
            ScenarioGrid.from_dict({"axes": {"n_jobs": [2]}})


class TestDigest:
    def test_stable_across_processes(self):
        cell = demo_cell()
        script = (
            "from tests.test_suite import demo_cell\n"
            "from repro.suite import cell_digest\n"
            "print(cell_digest(demo_cell()))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(REPO / "src"), str(REPO)])
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=env, check=True, cwd=str(REPO),
        )
        assert out.stdout.strip() == cell_digest(cell)

    @pytest.mark.parametrize("field,value", [
        ("n_trials", 41), ("seed", 5), ("semantics", "suu_star"),
        ("max_steps", 39999), ("discipline", "v2"),
    ])
    def test_config_field_changes_digest(self, field, value, monkeypatch):
        clear_knob_env(monkeypatch)
        cell = demo_cell()
        changed = dataclasses.replace(cell, config=dataclasses.replace(
            cell.config, **{field: value}))
        assert cell_digest(changed) != cell_digest(cell)

    @pytest.mark.parametrize("field,value", [
        ("n_jobs", 13), ("n_machines", 5), ("seed", 9), ("model", "uniform"),
        ("shape", "chains"),
    ])
    def test_instance_field_changes_digest(self, field, value):
        cell = demo_cell()
        changed = dataclasses.replace(cell, scenario=dataclasses.replace(
            cell.scenario, **{field: value}))
        assert cell_digest(changed) != cell_digest(cell)

    def test_policy_changes_digest(self):
        cell = demo_cell()
        assert cell_digest(dataclasses.replace(cell, policy="greedy")) != (
            cell_digest(cell))

    @pytest.mark.parametrize("kernel_threads", [2, None])
    def test_kernel_threads_leaves_digest(self, kernel_threads, monkeypatch):
        # Trial shards never change a sample, so a suite re-run under
        # another thread count finds its cells.
        clear_knob_env(monkeypatch)
        cell = demo_cell()
        base = cell_digest(cell)
        monkeypatch.setenv(KERNEL_THREADS_ENV_VAR, "3")
        changed = dataclasses.replace(cell, config=dataclasses.replace(
            cell.config, kernel_threads=kernel_threads))
        assert cell_digest(changed) == base

    def test_env_knob_changes_digest(self, monkeypatch):
        clear_knob_env(monkeypatch)
        cell = demo_cell()
        cell = dataclasses.replace(cell, config=dataclasses.replace(
            cell.config, discipline=None))
        base = cell_digest(cell)
        monkeypatch.setenv(DISCIPLINE_ENV_VAR, "v2")
        assert cell_digest(cell) != base

    def test_experiment_digest_insensitive_to_arg_order(self):
        a = ExperimentCell("E-LP1", json.dumps({"n": 1, "m": 2}, sort_keys=True))
        b = ExperimentCell("E-LP1", json.dumps({"m": 2, "n": 1}, sort_keys=True))
        assert cell_digest(a) == cell_digest(b)
        c = ExperimentCell("E-LP1", json.dumps({"n": 1, "m": 3}, sort_keys=True))
        assert cell_digest(c) != cell_digest(a)


class TestRunner:
    def test_run_resume_and_delta(self, tmp_path, monkeypatch):
        import repro.suite.runner as runner_mod

        spec = small_spec(policies=["obl", "greedy"])
        out = tmp_path / "results"

        calls = []
        real = runner_mod.execute_cell

        def spy(cell, executor=None):
            calls.append(cell)
            return real(cell, executor=executor)

        monkeypatch.setattr(runner_mod, "execute_cell", spy)

        first = SuiteRunner(spec, out).run()
        assert (first.executed, first.cached) == (2, 0)
        assert len(calls) == 2

        # Rerun: zero executions, everything served from the cell store.
        calls.clear()
        second = SuiteRunner(spec, out).run()
        assert (second.executed, second.cached) == (0, 2)
        assert calls == []
        # Cached artifacts carry the same results.
        assert [o.artifact["result"] for o in second.outcomes] == (
            [o.artifact["result"] for o in first.outcomes])

        # Deleting one cell's artifact re-executes exactly that cell.
        victim = first.outcomes[1]
        os.unlink(out / "cells" / f"{victim.digest}.json")
        calls.clear()
        third = SuiteRunner(spec, out).run()
        assert (third.executed, third.cached) == (1, 1)
        assert len(calls) == 1
        assert cell_digest(calls[0]) == victim.digest

    def test_force_reexecutes(self, tmp_path):
        spec = small_spec()
        out = tmp_path / "r"
        assert SuiteRunner(spec, out).run().executed == 1
        assert SuiteRunner(spec, out, force=True).run().executed == 1

    def test_report_written(self, tmp_path):
        spec = small_spec()
        out = tmp_path / "r"
        outcome = SuiteRunner(spec, out).run()
        report = json.loads((out / "report.json").read_text())
        assert report["suite"] == "tiny"
        assert report["executed"] == 1 and report["cached"] == 0
        assert len(report["cells"]) == 1
        md = (out / "report.md").read_text()
        assert "| obl |" in md and outcome.outcomes[0].digest[:12] in md

    def test_artifact_contents(self, tmp_path, monkeypatch):
        clear_knob_env(monkeypatch)
        spec = small_spec()
        out = tmp_path / "r"
        outcome = SuiteRunner(spec, out).run()
        record = outcome.outcomes[0]
        stored = json.loads(
            (out / "cells" / f"{record.digest}.json").read_text())
        assert stored["digest"] == record.digest
        assert stored["kind"] == "simulate"
        assert stored["cell"]["knobs"]["discipline"] == "v1"
        assert stored["result"]["n_trials"] == 4
        assert stored["result"]["mean"] > 0

    def test_sweep_seed_axis_changes_results_independently(self, tmp_path):
        spec = small_spec(sweep={"seed": [0, 1]})
        outcome = SuiteRunner(spec, tmp_path / "r").run()
        assert outcome.executed == 2
        digests = [o.digest for o in outcome.outcomes]
        assert len(set(digests)) == 2

    def test_experiment_cells_cached(self, tmp_path):
        spec = small_spec(experiments=[
            {"id": "E-LP1", "args": {"sizes": [[8, 3]], "models": ["uniform"]}},
        ])
        out = tmp_path / "r"
        first = SuiteRunner(spec, out).run()
        assert first.executed == 2
        kinds = [o.artifact["kind"] for o in first.outcomes]
        assert kinds == ["simulate", "experiment"]
        assert SuiteRunner(spec, out).run().executed == 0

    def test_jobs_survive_a_worker_killed_between_cells(self, tmp_path,
                                                         monkeypatch):
        """SIGKILL the pool's workers after the first cell: the next cell
        runs on a replacement pool and every result equals ``jobs=1``."""
        import repro.suite.runner as runner_mod

        spec = small_spec(config={"n_trials": 24, "max_steps": 5000},
                          sweep={"seed": [0, 1, 2]})
        serial = SuiteRunner(spec, tmp_path / "a").run()

        executors = []
        real = runner_mod.execute_cell

        def spy(cell, executor=None):
            executors.append(executor)
            return real(cell, executor=executor)

        monkeypatch.setattr(runner_mod, "execute_cell", spy)
        before = {p.pid for p in multiprocessing.active_children()}
        killed = []

        def kill_workers_once(_line):
            if killed:
                return
            for child in multiprocessing.active_children():
                if child.pid not in before:
                    os.kill(child.pid, signal.SIGKILL)
                    killed.append(child.pid)

        pooled = SuiteRunner(spec, tmp_path / "b", jobs=2).run(
            progress=kill_workers_once)
        assert killed, "the first cell ran on no pool worker"
        assert pooled.executed == 3
        assert [o.artifact["result"] for o in pooled.outcomes] == (
            [o.artifact["result"] for o in serial.outcomes])
        (executor,) = set(executors)
        assert executor.restarts == 1 and executor.requests == 3

    def test_jobs_match_serial_results(self, tmp_path):
        spec = small_spec(config={"n_trials": 24, "max_steps": 5000})
        serial = SuiteRunner(spec, tmp_path / "a").run()
        pooled = SuiteRunner(spec, tmp_path / "b", jobs=2).run()
        assert pooled.executed == 1
        assert (pooled.outcomes[0].artifact["result"]["mean"]
                == serial.outcomes[0].artifact["result"]["mean"])
        # Same cells, same addresses: the two stores are interchangeable.
        assert pooled.outcomes[0].digest == serial.outcomes[0].digest


class TestCli:
    def test_suite_run_and_status(self, tmp_path, capsys):
        from repro.__main__ import main

        suite = tmp_path / "s.json"
        suite.write_text(json.dumps(SMALL))
        out = tmp_path / "results"
        assert main(["suite", "run", str(suite), "--out", str(out)]) == 0
        assert "executed=1 cached=0" in capsys.readouterr().out
        assert main(["suite", "run", str(suite), "--out", str(out),
                     "--quiet"]) == 0
        assert "executed=0 cached=1" in capsys.readouterr().out
        assert main(["suite", "status", str(suite), "--out", str(out)]) == 0
        assert "1/1 cells done" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["run", "status"])
    def test_malformed_shape_exits_2_without_traceback(self, tmp_path, capsys,
                                                       command):
        from repro.__main__ import main

        suite = tmp_path / "bad.json"
        suite.write_text(json.dumps({**SMALL, "sweep": {"seed": 3}}))
        assert main(["suite", command, str(suite), "--out",
                     str(tmp_path / "o")]) == 2
        assert "error: suite 'tiny': sweep axis 'seed'" in capsys.readouterr().err

    def test_malformed_grid_error_names_the_field(self, tmp_path, capsys):
        from repro.__main__ import main

        suite = tmp_path / "bad.json"
        grid = {"base": SMALL["grid"]["base"], "axes": {"n_jobs": 4}}
        suite.write_text(json.dumps({**SMALL, "grid": grid}))
        assert main(["suite", "run", str(suite), "--out",
                     str(tmp_path / "o")]) == 2
        assert ("error: suite 'tiny': grid axis 'n_jobs' must be a list of "
                "values, got 4") in capsys.readouterr().err

    def test_suite_run_rejects_bad_file(self, tmp_path, capsys):
        from repro.__main__ import main

        suite = tmp_path / "bad.json"
        suite.write_text(json.dumps({**SMALL, "polices": ["obl"]}))
        assert main(["suite", "run", str(suite), "--out",
                     str(tmp_path / "o")]) == 2
        assert "polices" in capsys.readouterr().err
