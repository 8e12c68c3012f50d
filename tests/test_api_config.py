"""Tests for the one reader of the ``REPRO_*`` settings (repro.api.config)."""

import dataclasses
import pathlib

import pytest

from repro.api.config import (
    ResolvedKnobs,
    resolve_discipline,
    resolve_kernel_threads,
    solve_cache_enabled,
)
from repro.api.scenario import SimConfig
from repro.errors import InvalidScenarioError

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

ENV_VARS = ("REPRO_DISCIPLINE", "REPRO_KERNEL_THREADS")


class TestPrecedence:
    """The discipline: explicit argument → SimConfig field → env var →
    default.  The trial-shard thread cap: env var → default."""

    def test_defaults(self, monkeypatch):
        for var in ENV_VARS:
            monkeypatch.delenv(var, raising=False)
        # Variables of the deleted lp_reuse knob are no longer read.
        monkeypatch.setenv("REPRO_LP_REUSE", "subset")
        monkeypatch.setenv("REPRO_LP_REUSE_EPS", "2")
        # Nor is the deleted substreams knob's.
        monkeypatch.setenv("REPRO_SUBSTREAMS", "per-policy")
        assert SimConfig().resolved() == ResolvedKnobs(discipline="v1")
        assert resolve_kernel_threads() == 1

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISCIPLINE", "v2")
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "3")
        assert SimConfig().resolved().discipline == "v2"
        assert resolve_kernel_threads() == 3

    def test_config_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISCIPLINE", "v2")
        assert SimConfig(discipline="v1").resolved().discipline == "v1"
        # The thread cap is the host's alone: no config carries it.
        with pytest.raises(InvalidScenarioError,
                           match=r"unknown SimConfig fields \['kernel_threads'\]"):
            SimConfig.from_dict({"discipline": "v1", "kernel_threads": 2})

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISCIPLINE", "v1")
        assert resolve_discipline("v2") == "v2"
        # The thread cap takes no argument.
        with pytest.raises(TypeError):
            resolve_kernel_threads(3)

    def test_simconfig_resolved_matches(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISCIPLINE", "v2")
        config = SimConfig()
        assert config.resolved() == ResolvedKnobs(discipline=resolve_discipline())
        assert config.resolved().discipline == "v2"

    def test_fields_are_the_knobs(self):
        assert [f.name for f in dataclasses.fields(ResolvedKnobs)] == ["discipline"]
        assert [f.name for f in dataclasses.fields(SimConfig)] == [
            "n_trials", "seed", "semantics", "max_steps", "discipline",
        ]


class TestLoudEnvErrors:
    """A typo'd env value raises rather than silently running defaults."""

    CASES = [
        (resolve_discipline, "REPRO_DISCIPLINE", "v3", "discipline"),
        (resolve_kernel_threads, "REPRO_KERNEL_THREADS", "many", "integer"),
        (resolve_kernel_threads, "REPRO_KERNEL_THREADS", "0", ">= 1"),
    ]

    @pytest.mark.parametrize("resolver,var,value,needle", CASES)
    def test_bad_env_value(self, monkeypatch, resolver, var, value, needle):
        monkeypatch.setenv(var, value)
        with pytest.raises(ValueError, match=needle):
            resolver()

    def test_bad_explicit_value(self, monkeypatch):
        with pytest.raises(ValueError, match="discipline"):
            resolve_discipline("v9")
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "-2")
        with pytest.raises(ValueError, match="REPRO_KERNEL_THREADS"):
            resolve_kernel_threads()

    def test_eps_and_solve_cache(self, monkeypatch):
        monkeypatch.delenv("REPRO_SOLVE_CACHE", raising=False)
        assert solve_cache_enabled()
        monkeypatch.setenv("REPRO_SOLVE_CACHE", "0")
        assert not solve_cache_enabled()


class TestDelegation:
    """The legacy resolver names route through the one chain."""

    def test_legacy_names_delegate(self, monkeypatch):
        from repro.util import rng

        monkeypatch.setenv("REPRO_DISCIPLINE", "v2")
        assert rng.resolve_discipline() == "v2"


class TestGrepClean:
    """repro.api.config is the only module reading the environment, and
    no module sets it (the thread cap has one setter: the host)."""

    def test_no_env_reads_outside_config(self):
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            if path.name == "config.py" and path.parent.name == "api":
                continue
            text = path.read_text()
            if any(use in text for use in ("environ.get(", "getenv(", "environ[")):
                offenders.append(str(path.relative_to(SRC)))
        assert not offenders, (
            f"environment uses outside repro/api/config.py: {offenders}"
        )
