"""Policy registry: lookup, aliases, defaults, factories, deprecation shims."""

import pickle

import pytest

import repro
from repro.api import registry
from repro.api.registry import (
    PolicyInfo,
    default_policy_for,
    get_policy,
    list_policies,
    make_policy,
    policy_factory,
    policy_info,
    policy_names,
    register_policy,
)
from repro.errors import ReproError, UnknownPolicyError
from repro.instance.precedence import PrecedenceClass
from repro.schedule.base import Policy

EXPECTED_CANONICAL = {
    "adapt", "best-machine", "greedy", "layered", "obl", "random",
    "round-robin", "sem", "serial", "suu-c", "suu-t",
}


class TestLookup:
    def test_canonical_names(self):
        assert set(policy_names()) == EXPECTED_CANONICAL

    def test_get_by_name_and_alias(self):
        assert get_policy("sem") is repro.SUUISemPolicy
        assert get_policy("suu-i-sem") is repro.SUUISemPolicy
        assert get_policy("lr") is repro.GreedyLRPolicy
        assert get_policy("rr") is repro.RoundRobinPolicy

    def test_aliases_resolve_to_canonical_info(self):
        assert policy_info("suu-i-obl").name == "obl"
        assert policy_info("random-assignment").name == "random"

    def test_unknown_name_raises(self):
        with pytest.raises(UnknownPolicyError) as exc:
            get_policy("nope")
        # The error is catchable as KeyError (mapping semantics) and as the
        # library base error, and names what *is* available.
        assert isinstance(exc.value, KeyError)
        assert isinstance(exc.value, ReproError)
        assert "sem" in str(exc.value)

    def test_list_policies_sorted_and_complete(self):
        infos = list_policies()
        assert [i.name for i in infos] == sorted(i.name for i in infos)
        assert {i.name for i in infos} == EXPECTED_CANONICAL
        assert all(isinstance(i, PolicyInfo) for i in infos)
        assert all(issubclass(i.cls, Policy) for i in infos)

    def test_summaries_and_display_names(self):
        for info in list_policies():
            assert info.summary, f"{info.name} has no docstring summary"
            assert info.display_name != Policy.name

    def test_names_with_aliases_superset(self):
        assert set(policy_names()) < set(policy_names(include_aliases=True))


class TestDefaults:
    @pytest.mark.parametrize(
        "pc,expected",
        [
            ("independent", "sem"),
            ("chains", "suu-c"),
            ("out_forest", "suu-t"),
            ("in_forest", "suu-t"),
            ("mixed_forest", "suu-t"),
            ("general", "layered"),
        ],
    )
    def test_every_precedence_class_has_a_default(self, pc, expected):
        assert default_policy_for(pc) == expected
        assert default_policy_for(PrecedenceClass(pc)) == expected

    def test_default_from_instance(self, small_chains):
        assert default_policy_for(small_chains) == "suu-c"

    def test_unknown_class_raises(self):
        with pytest.raises(UnknownPolicyError):
            default_policy_for("triangular")


class TestConstruction:
    def test_make_policy_from_name_with_kwargs(self):
        p = make_policy("suu-c", inner="obl")
        assert isinstance(p, repro.SUUCPolicy)
        assert p.inner == "obl"

    def test_make_policy_from_class_and_instance(self):
        assert isinstance(make_policy(repro.GreedyLRPolicy), repro.GreedyLRPolicy)
        inst = repro.GreedyLRPolicy()
        assert make_policy(inst) is inst
        with pytest.raises(TypeError):
            make_policy(inst, inner="obl")

    def test_policy_factory_fresh_instances(self):
        factory = policy_factory("sem", n_rounds=2)
        a, b = factory(), factory()
        assert a is not b
        assert isinstance(a, repro.SUUISemPolicy)

    def test_policy_factory_unknown_fails_fast(self):
        with pytest.raises(UnknownPolicyError):
            policy_factory("nope")

    def test_policy_factory_pickles(self):
        factory = pickle.loads(pickle.dumps(policy_factory("suu-c", inner="obl")))
        p = factory()
        assert isinstance(p, repro.SUUCPolicy) and p.inner == "obl"


class TestRegistration:
    def _cleanup(self, name):
        registry._REGISTRY.pop(name, None)
        registry._ALIASES = {
            a: c for a, c in registry._ALIASES.items() if c != name
        }
        registry._DEFAULTS = {
            pc: c for pc, c in registry._DEFAULTS.items() if c != name
        }

    def test_register_and_resolve_custom_policy(self):
        try:
            @register_policy("_test-policy", aliases=("_tp",))
            class _TestPolicy(repro.SerialAllMachinesPolicy):
                """Test-only policy."""

            assert get_policy("_tp") is _TestPolicy
        finally:
            self._cleanup("_test-policy")

    def test_name_collision_raises(self):
        with pytest.raises(ValueError, match="already registered"):
            @register_policy("sem")
            class _Clash(repro.SerialAllMachinesPolicy):
                """Clashing name."""

    def test_canonical_name_shadowed_by_existing_alias_raises(self):
        # "lr" is an alias of "greedy"; a canonical registration under it
        # would be listed but unreachable (aliases win during resolution).
        with pytest.raises(ValueError, match="collides with an alias"):
            @register_policy("lr")
            class _Clash(repro.SerialAllMachinesPolicy):
                """Shadowed canonical name."""

    def test_alias_collision_raises(self):
        try:
            with pytest.raises(ValueError, match="collides"):
                @register_policy("_test-policy2", aliases=("sem",))
                class _Clash(repro.SerialAllMachinesPolicy):
                    """Clashing alias."""
        finally:
            self._cleanup("_test-policy2")

    def test_duplicate_default_raises(self):
        try:
            with pytest.raises(ValueError, match="already defaults"):
                @register_policy("_test-policy3", default_for=("chains",))
                class _Clash(repro.SerialAllMachinesPolicy):
                    """Clashing default."""
        finally:
            self._cleanup("_test-policy3")

    def test_reregistering_same_class_is_noop(self):
        cls = get_policy("sem")
        assert register_policy("sem")(cls) is cls
        assert get_policy("sem") is cls


class TestDeprecationShims:
    def test_unknown_main_attribute_raises(self):
        import repro.__main__ as cli

        with pytest.raises(AttributeError):
            cli.NOT_A_THING


class TestPoliciesCLI:
    def test_lists_full_registry(self, capsys):
        from repro.__main__ import main

        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        for name in EXPECTED_CANONICAL:
            assert name in out
        assert "SUUISemPolicy" in out
