"""Tests for the experiment harness (repro.experiments) at tiny sizes."""

import pytest

from repro.experiments import all_experiments, experiment_ids, get_experiment
from repro.experiments.common import ExperimentResult, loglog, safe_log2

ALL_EXPERIMENTS = all_experiments()


class TestCommon:
    def test_safe_log2_guards(self):
        assert safe_log2(0) == 1.0
        assert safe_log2(2) == 1.0
        assert safe_log2(8) == 3.0

    def test_loglog(self):
        assert loglog(4) == 1.0
        assert loglog(16) == 2.0

    def test_result_add_checks_arity(self):
        r = ExperimentResult(exp_id="X", title="t", headers=["a", "b"])
        r.add(1, 2)
        with pytest.raises(ValueError):
            r.add(1)

    def test_renders(self):
        r = ExperimentResult(exp_id="X", title="t", headers=["a"])
        r.add(1.5)
        r.notes.append("note")
        text = r.to_text()
        assert "[X] t" in text and "1.500" in text and "note" in text
        md = r.to_markdown()
        assert md.startswith("### X — t")
        assert "| 1.500 |" in md


class TestRegistry:
    def test_all_ids_present(self):
        expected = {
            "T1", "E-OBL", "E-SEM", "E-LP1", "E-CHAIN", "E-DELAY", "E-TREE",
            "E-EQUIV", "E-STOCH", "E-OPT", "E-COMP", "E-PERJOB",
            "A-ROUND", "A-ROUNDS", "A-SEG", "A-ADAPT",
        }
        assert set(experiment_ids()) == expected
        assert set(ALL_EXPERIMENTS) == expected

    def test_get_experiment_rejects_unknown(self):
        with pytest.raises(ValueError, match="E-NOPE"):
            get_experiment("E-NOPE")

    def test_get_experiment_matches_direct_import(self):
        from repro.experiments import run_table1

        assert get_experiment("T1") is run_table1


class TestRunnersTiny:
    """Each runner must produce a well-formed table at minimal size."""

    def test_lp_rounding(self):
        res = ALL_EXPERIMENTS["E-LP1"](sizes=((8, 3),), models=("uniform",))
        assert len(res.rows) == 1
        assert res.rows[0][5] <= 7.0  # blow-up

    def test_delay(self):
        res = ALL_EXPERIMENTS["E-DELAY"](configs=((20, 3, 5),), n_seeds=3)
        assert len(res.rows) == 1
        no_delay, delayed = res.rows[0][3], res.rows[0][4]
        assert delayed <= no_delay + 1e-9

    def test_rounding_ablation(self):
        res = ALL_EXPERIMENTS["A-ROUND"](scales=(6,), n_instances=3, n=10, m=3)
        assert res.rows[0][3] == 0  # no infeasible at scale 6

    def test_obl_scaling(self):
        res = ALL_EXPERIMENTS["E-OBL"](ns=(6, 12), m=3, n_trials=40, n_instances=1)
        assert len(res.rows) == 2
        assert all(row[4] >= 0.9 for row in res.rows)

    def test_opt_tiny(self):
        res = ALL_EXPERIMENTS["E-OPT"](
            configs=(("independent", 4, 2),), n_trials=60
        )
        opt_over_lb = res.rows[0][5]
        assert opt_over_lb >= 1.0 - 1e-9

    def test_equivalence(self):
        res = ALL_EXPERIMENTS["E-EQUIV"](n=8, m=3, n_trials=60)
        assert len(res.rows) == 2
        for row in res.rows:
            assert row[4] > 1e-5  # KS p-value

    def test_stochastic(self):
        res = ALL_EXPERIMENTS["E-STOCH"](sizes=((6, 2),), n_trials=3)
        assert len(res.rows) == 1
        assert all(r >= 0.99 for r in res.rows[0][4:])

    def test_table1_smoke(self):
        res = ALL_EXPERIMENTS["T1"](sizes=((8, 3),), n_trials=3)
        assert len(res.rows) == 3  # one per precedence class
        classes = [row[0] for row in res.rows]
        assert classes == ["independent", "chains", "forests"]

    def test_perjob(self):
        res = ALL_EXPERIMENTS["E-PERJOB"](
            n_jobs=10, n_machines=3, n_trials=20, top_k=4, discipline="v2"
        )
        assert len(res.rows) == 4
        # crit% columns are percentages; the top-k rows are sorted
        # descending on the auto policy's attribution.
        crits = [float(row[1]) for row in res.rows]
        assert crits == sorted(crits, reverse=True)
        assert all(0.0 <= c <= 100.0 for c in crits)
        assert res.notes  # coverage note present


class TestMainModule:
    def test_cli_single_experiment(self, capsys, tmp_path):
        from repro.experiments.__main__ import main

        out = tmp_path / "tables.md"
        code = main(["E-LP1", "--markdown", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "[E-LP1]" in captured
        assert out.read_text().startswith("### E-LP1")

    def test_cli_rejects_unknown(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["NOT-AN-EXPERIMENT"])

    def test_repro_experiments_subcommand_forwards(self, capsys):
        """`repro experiments E-PERJOB ...` reaches the harness parser
        (surfacing the per-job experiment from the main CLI)."""
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["experiments", "NOT-AN-EXPERIMENT"])
        capsys.readouterr()
