"""Tests for execution traces, the Gantt renderer, and the CLI."""

import numpy as np
import pytest

from repro.baselines.naive import SerialAllMachinesPolicy
from repro.instance import SUUInstance, independent_instance
from repro.sim import TracingPolicy, render_gantt, run_policy
from repro.sim.trace import ExecutionTrace


class TestTracingPolicy:
    def test_records_every_step(self):
        inst = independent_instance(5, 3, "uniform", rng=0)
        traced = TracingPolicy(SerialAllMachinesPolicy())
        result = run_policy(inst, traced, rng=1)
        assert traced.trace.n_steps == result.makespan
        assert traced.trace.table().shape == (result.makespan, 3)

    def test_name_wraps_inner(self):
        traced = TracingPolicy(SerialAllMachinesPolicy())
        assert "serial-all-machines" in traced.name

    def test_rows_are_copies(self):
        inst = SUUInstance(np.zeros((2, 2)))
        traced = TracingPolicy(SerialAllMachinesPolicy())
        run_policy(inst, traced, rng=0)
        t = traced.trace.table()
        # Serial policy: step 0 both machines on job 0, step 1 on job 1.
        assert t[0].tolist() == [0, 0]
        assert t[1].tolist() == [1, 1]

    def test_utilization_and_job_steps(self):
        inst = SUUInstance(np.zeros((2, 2)))
        traced = TracingPolicy(SerialAllMachinesPolicy())
        run_policy(inst, traced, rng=0)
        util = traced.trace.machine_utilization()
        assert np.allclose(util, [1.0, 1.0])
        per_job = traced.trace.job_steps(2)
        assert per_job.tolist() == [2, 2]

    def test_restart_clears_trace(self):
        inst = SUUInstance(np.zeros((1, 2)))
        traced = TracingPolicy(SerialAllMachinesPolicy())
        run_policy(inst, traced, rng=0)
        first = traced.trace.n_steps
        run_policy(inst, traced, rng=1)
        assert traced.trace.n_steps == first  # fresh trace per run


class TestRenderGantt:
    def test_empty(self):
        assert render_gantt(ExecutionTrace()) == "(empty trace)"

    def test_basic_shape(self):
        inst = SUUInstance(np.zeros((2, 3)))
        traced = TracingPolicy(SerialAllMachinesPolicy())
        result = run_policy(inst, traced, rng=0)
        art = render_gantt(traced.trace, completion_times=result.completion_times)
        lines = art.splitlines()
        assert lines[1].startswith("m0")
        assert lines[2].startswith("m1")
        assert lines[3].startswith("done")
        assert lines[3].count("^") == 3
        assert "|000111222" not in art  # only 3 steps here
        assert "|012|" in lines[1].replace(" ", "") or "012" in lines[1]

    def test_truncation(self):
        trace = ExecutionTrace(rows=[np.array([0]) for _ in range(50)])
        art = render_gantt(trace, max_width=10)
        assert "(truncated)" in art

    def test_idle_rendering(self):
        trace = ExecutionTrace(rows=[np.array([-1, 3])])
        art = render_gantt(trace)
        assert "|.|" in art.splitlines()[1]
        assert "|3|" in art.splitlines()[2]


class TestCLI:
    def _gen(self, tmp_path, shape="independent"):
        from repro.__main__ import main

        path = tmp_path / "inst.json"
        code = main([
            "generate", "--shape", shape, "--jobs", "8", "--machines", "3",
            "--seed", "1", "--out", str(path),
        ])
        assert code == 0
        return path

    def test_generate_and_bound(self, tmp_path, capsys):
        from repro.__main__ import main

        path = self._gen(tmp_path)
        code = main(["bound", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "lower bound" in out

    def test_run_default_policy(self, tmp_path, capsys):
        from repro.__main__ import main

        path = self._gen(tmp_path)
        code = main(["run", str(path), "--trials", "4", "--seed", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "policy:   sem" in out
        assert "ratio" in out

    def test_run_chain_default_is_suu_c(self, tmp_path, capsys):
        from repro.__main__ import main

        path = self._gen(tmp_path, shape="chains")
        code = main(["run", str(path), "--trials", "3", "--seed", "3"])
        assert code == 0
        assert "policy:   suu-c" in capsys.readouterr().out

    def test_gantt(self, tmp_path, capsys):
        from repro.__main__ import main

        path = self._gen(tmp_path)
        code = main(["gantt", str(path), "--policy", "greedy", "--seed", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "m0" in out and "makespan=" in out

    @pytest.mark.parametrize("shape", ["tree", "forest", "layered"])
    def test_generate_other_shapes(self, tmp_path, shape):
        self._gen(tmp_path, shape=shape)

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["generate", "--shape", "random_dag", "--jobs", "6",
              "--machines", "2", "--edge-prob", "2.0", "--out", "{out}"],
             "edge_prob must be in [0, 1], got 2.0"),
            (["generate", "--jobs", "0", "--out", "{out}"],
             "n_jobs must be >= 1, got 0"),
            (["run", "{inst}", "--trials", "0"],
             "n_trials must be >= 1, got 0"),
            (["run", "{inst}", "--kernel-threads", "0"],
             "kernel_threads must be >= 1, got 0"),
            (["sweep", "--jobs", "0"], "n_jobs must be >= 1, got 0"),
        ],
        ids=["edge-prob", "generate-jobs", "trials", "kernel-threads",
             "sweep-jobs"],
    )
    def test_input_errors_exit_2_with_one_line(self, tmp_path, capsys, argv,
                                               message):
        from repro.__main__ import main

        inst = self._gen(tmp_path)
        capsys.readouterr()
        out = tmp_path / "out.json"
        argv = [arg.format(out=out, inst=inst) for arg in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not out.exists()
