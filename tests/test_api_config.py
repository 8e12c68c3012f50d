"""Tests for the unified knob-resolution chain (repro.api.config)."""

import pathlib

import pytest

from repro.api.config import (
    KNOB_NAMES,
    ResolvedKnobs,
    resolve_discipline,
    resolve_kernel_threads,
    resolve_knobs,
    resolve_substreams,
    solve_cache_enabled,
)
from repro.api.scenario import SimConfig

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

ENV_BY_KNOB = {
    "discipline": "REPRO_DISCIPLINE",
    "kernel_threads": "REPRO_KERNEL_THREADS",
    "substreams": "REPRO_SUBSTREAMS",
}


class TestPrecedence:
    """Explicit argument → SimConfig field → env var → default."""

    DEFAULTS = {
        "discipline": "v1",
        "kernel_threads": 1,
        "substreams": "shared",
    }
    NON_DEFAULT = {
        "discipline": "v2",
        "kernel_threads": 3,
        "substreams": "per-policy",
    }

    def test_defaults(self, monkeypatch):
        for var in ENV_BY_KNOB.values():
            monkeypatch.delenv(var, raising=False)
        # Variables of the deleted lp_reuse knob are no longer read.
        monkeypatch.setenv("REPRO_LP_REUSE", "subset")
        monkeypatch.setenv("REPRO_LP_REUSE_EPS", "2")
        assert resolve_knobs() == ResolvedKnobs(**self.DEFAULTS)

    def test_env_beats_default(self, monkeypatch):
        for knob, var in ENV_BY_KNOB.items():
            monkeypatch.setenv(var, str(self.NON_DEFAULT[knob]))
        knobs = resolve_knobs()
        for knob in KNOB_NAMES:
            assert getattr(knobs, knob) == self.NON_DEFAULT[knob]

    def test_config_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISCIPLINE", "v2")
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "7")
        knobs = resolve_knobs(config=SimConfig(discipline="v1", kernel_threads=2))
        assert knobs.discipline == "v1"
        assert knobs.kernel_threads == 2

    def test_explicit_beats_config(self, monkeypatch):
        for var in ENV_BY_KNOB.values():
            monkeypatch.delenv(var, raising=False)
        config = SimConfig(discipline="v1", kernel_threads=1)
        knobs = resolve_knobs(config=config, discipline="v2", kernel_threads=3)
        assert knobs.discipline == "v2"
        assert knobs.kernel_threads == 3

    def test_simconfig_resolved_matches(self, monkeypatch):
        monkeypatch.setenv("REPRO_SUBSTREAMS", "per-policy")
        config = SimConfig(kernel_threads=2)
        assert config.resolved() == resolve_knobs(config=config)
        assert config.resolved().substreams == "per-policy"

    def test_as_dict_covers_all_knobs(self):
        assert set(ResolvedKnobs().as_dict()) == set(KNOB_NAMES)


class TestLoudEnvErrors:
    """A typo'd env value raises rather than silently running defaults."""

    CASES = [
        (resolve_discipline, "REPRO_DISCIPLINE", "v3", "discipline"),
        (resolve_kernel_threads, "REPRO_KERNEL_THREADS", "many", "integer"),
        (resolve_kernel_threads, "REPRO_KERNEL_THREADS", "0", ">= 1"),
        (resolve_substreams, "REPRO_SUBSTREAMS", "independent", "substreams"),
    ]

    @pytest.mark.parametrize("resolver,var,value,needle", CASES)
    def test_bad_env_value(self, monkeypatch, resolver, var, value, needle):
        monkeypatch.setenv(var, value)
        with pytest.raises(ValueError, match=needle):
            resolver()

    def test_bad_explicit_value(self):
        with pytest.raises(ValueError, match="discipline"):
            resolve_discipline("v9")
        with pytest.raises(ValueError, match="kernel_threads"):
            resolve_kernel_threads(0)

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
    """repro.api.config is the only module reading the environment."""

    def test_no_env_reads_outside_config(self):
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            if path.name == "config.py" and path.parent.name == "api":
                continue
            text = path.read_text()
            if "environ.get(" in text or "getenv(" in text:
                offenders.append(str(path.relative_to(SRC)))
        assert not offenders, (
            f"environment reads outside repro/api/config.py: {offenders}"
        )
