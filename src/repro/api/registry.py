"""The policy registry: one authoritative name -> policy-class mapping.

Before this module existed, policy wiring was duplicated by hand: the CLI
kept a ``POLICIES`` dict, each experiment kept its own label -> factory
dicts, and adding a policy meant editing every one of them.  The registry
inverts that: a policy class declares its own public name (and optional
aliases and precedence-class defaults) at definition time with
:func:`register_policy`, and every consumer — CLI, experiments, the
:mod:`repro.api.service` simulation service — resolves names through the
same table.

Usage::

    from repro.api.registry import register_policy

    @register_policy("sem", aliases=("suu-i-sem",), default_for=("independent",))
    class SUUISemPolicy(Policy):
        ...

    get_policy("suu-i-sem")          # -> SUUISemPolicy (alias resolution)
    default_policy_for(instance)     # -> "sem" for an independent instance
    policy_factory("suu-c", inner="obl")()  # -> configured SUUCPolicy

The registry itself never imports policy modules at import time (policies
import *us* for the decorator); lookups lazily import the built-in policy
packages so ``get_policy`` works no matter which corner of the library was
imported first.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass

from repro.errors import UnknownPolicyError

__all__ = [
    "PolicyInfo",
    "register_policy",
    "get_policy",
    "policy_info",
    "list_policies",
    "policy_names",
    "default_policy_for",
    "make_policy",
    "policy_factory",
]

#: Modules whose import registers every built-in policy.  Lookups import
#: these lazily, so the registry module itself stays dependency-free.
_BUILTIN_POLICY_MODULES = ("repro.core", "repro.baselines")


@dataclass(frozen=True)
class PolicyInfo:
    """One registry entry.

    Attributes
    ----------
    name:
        Canonical registry name (the CLI spelling, e.g. ``"suu-c"``).
    cls:
        The registered :class:`~repro.schedule.base.Policy` subclass.
    aliases:
        Alternative names resolving to the same class.
    default_for:
        Precedence-class values (``PrecedenceClass.value`` strings) for
        which this policy is the automatic choice of ``policy="auto"``.
    """

    name: str
    cls: type
    aliases: tuple[str, ...] = ()
    default_for: tuple[str, ...] = ()

    @property
    def vectorized(self) -> bool:
        """True when the policy implements the batched-assignment protocol.

        Vectorized policies are dispatched to the trial-batched simulation
        kernel (:func:`repro.sim.batch.run_policy_batch`) by the Monte
        Carlo front ends as one broadcast ``assign_batch`` call per step.
        """
        from repro.schedule.base import supports_batch  # deferred: layer-free

        return supports_batch(self.cls)

    @property
    def phased(self) -> bool:
        """True when the policy implements phase-grouped batch dispatch.

        Phased (adaptive) policies run through the same batch kernel, with
        live trials partitioned by phase key and one ``assign_group`` call
        per distinct key each step — under the RNG disciplines their
        ``phased_disciplines`` declares (see :attr:`dispatch_detail`).
        """
        from repro.schedule.base import supports_phased  # deferred: layer-free

        return supports_phased(self.cls)

    @property
    def batch_dispatch(self) -> str:
        """How the batch kernel drives this policy.

        ``"vectorized"`` (one broadcast call for all trials),
        ``"phased"`` (grouped dispatch by phase key), or ``"fallback"``
        (one scalar policy per trial, lock-stepped).  This is what the
        ``repro policies`` CLI's "batched" column shows.
        """
        if self.vectorized:
            return "vectorized"
        if self.phased:
            return "phased"
        return "fallback"

    @property
    def dispatch_detail(self) -> str:
        """The "batched" column text: kernel path plus, for phased
        policies whose grouped dispatch covers only some RNG disciplines,
        the ones it covers.  SUU-C/SUU-T read ``phased (v2)``: under v1
        they run one scalar policy per trial.
        """
        from repro.util.rng import DISCIPLINES  # deferred: layer-free

        base = self.batch_dispatch
        covered = tuple(getattr(self.cls, "phased_disciplines", DISCIPLINES))
        if base == "phased" and covered != DISCIPLINES:
            return f"phased ({', '.join(covered)})"
        return base

    @property
    def summary(self) -> str:
        """First line of the policy class docstring."""
        doc = self.cls.__doc__ or ""
        return doc.strip().splitlines()[0] if doc.strip() else ""

    @property
    def display_name(self) -> str:
        """The policy's human-readable ``Policy.name`` attribute."""
        return getattr(self.cls, "name", self.name)


_REGISTRY: dict[str, PolicyInfo] = {}
_ALIASES: dict[str, str] = {}  # alias -> canonical name
_DEFAULTS: dict[str, str] = {}  # precedence-class value -> canonical name
_loaded = False


def register_policy(name: str, *, aliases=(), default_for=()):
    """Class decorator registering a policy under ``name``.

    Parameters
    ----------
    name:
        Canonical name.  Must be unique across names and aliases.
    aliases:
        Extra names resolving to the same class.
    default_for:
        Precedence-class value strings this policy is the default for
        (each class may have at most one default policy).

    Raises
    ------
    ValueError
        On a name/alias collision or a duplicated precedence-class default
        (re-registering the *same* class under the same name is a no-op so
        module reloads stay safe).
    """
    aliases = tuple(aliases)
    default_for = tuple(default_for)

    def deco(cls):
        existing = _REGISTRY.get(name)
        if existing is not None:
            if (
                existing.cls.__qualname__ == cls.__qualname__
                and existing.cls.__module__ == cls.__module__
            ):  # module reload
                return cls
            raise ValueError(
                f"policy name {name!r} already registered to {existing.cls.__name__}"
            )
        if name in _ALIASES:
            # _resolve consults aliases first, so a canonical name shadowed
            # by an existing alias would be listed yet unreachable.
            raise ValueError(
                f"policy name {name!r} collides with an alias of {_ALIASES[name]!r}"
            )
        info = PolicyInfo(name=name, cls=cls, aliases=aliases, default_for=default_for)
        for alias in aliases:
            owner = _ALIASES.get(alias) or (alias if alias in _REGISTRY else None)
            if owner is not None:
                raise ValueError(f"policy alias {alias!r} collides with {owner!r}")
        for pc in default_for:
            if pc in _DEFAULTS:
                raise ValueError(
                    f"precedence class {pc!r} already defaults to {_DEFAULTS[pc]!r}"
                )
        _REGISTRY[name] = info
        _ALIASES.update({alias: name for alias in aliases})
        _DEFAULTS.update({pc: name for pc in default_for})
        return cls

    return deco


def _ensure_builtins_loaded() -> None:
    """Import the built-in policy modules once, registering their policies."""
    global _loaded
    if _loaded:
        return
    _loaded = True
    for mod in _BUILTIN_POLICY_MODULES:
        importlib.import_module(mod)


def _resolve(name: str) -> str:
    _ensure_builtins_loaded()
    canonical = _ALIASES.get(name, name)
    if canonical not in _REGISTRY:
        raise UnknownPolicyError(name, known=policy_names())
    return canonical


def policy_info(name: str) -> PolicyInfo:
    """Return the :class:`PolicyInfo` for ``name`` (alias-aware)."""
    return _REGISTRY[_resolve(name)]


def get_policy(name: str) -> type:
    """Return the policy class registered under ``name`` or an alias."""
    return policy_info(name).cls


def list_policies() -> list[PolicyInfo]:
    """All registry entries, sorted by canonical name."""
    _ensure_builtins_loaded()
    return sorted(_REGISTRY.values(), key=lambda info: info.name)


def policy_names(*, include_aliases: bool = False) -> tuple[str, ...]:
    """Sorted canonical names (plus aliases when requested)."""
    _ensure_builtins_loaded()
    names = set(_REGISTRY)
    if include_aliases:
        names |= set(_ALIASES)
    return tuple(sorted(names))


def default_policy_for(instance_or_class) -> str:
    """Canonical name of the default policy for a precedence class.

    Accepts an :class:`~repro.instance.instance.SUUInstance`, a
    :class:`~repro.instance.precedence.PrecedenceClass`, or a class-value
    string such as ``"chains"``.
    """
    _ensure_builtins_loaded()
    pc = instance_or_class
    pc = getattr(pc, "precedence_class", pc)  # SUUInstance -> PrecedenceClass
    pc = getattr(pc, "value", pc)  # PrecedenceClass -> str
    try:
        return _DEFAULTS[pc]
    except KeyError:
        raise UnknownPolicyError(
            f"auto:{pc}", known=sorted(_DEFAULTS)
        ) from None


def make_policy(spec, **kwargs):
    """Instantiate a policy from a flexible ``spec``.

    ``spec`` may be a registry name or alias, a ``Policy`` subclass, or a
    zero-argument factory; ``kwargs`` are passed to the constructor/factory.
    An already-constructed ``Policy`` instance is returned unchanged (and
    rejects ``kwargs``).
    """
    from repro.schedule.base import Policy  # deferred: registry is layer-free

    if isinstance(spec, str):
        return get_policy(spec)(**kwargs)
    if isinstance(spec, type):
        return spec(**kwargs)
    if isinstance(spec, Policy):
        if kwargs:
            raise TypeError(
                f"cannot apply kwargs {sorted(kwargs)} to policy instance {spec.name!r}"
            )
        return spec
    return spec(**kwargs)


def policy_factory(name: str, **kwargs):
    """Return a picklable zero-argument factory for registry policy ``name``.

    The result is what the Monte Carlo estimators expect (a fresh policy
    per trial) and is safe to ship to ``multiprocessing`` workers because
    it closes over the *name*, not the class.
    """
    _resolve(name)  # fail fast on unknown names
    return functools.partial(_construct, name, tuple(sorted(kwargs.items())))


def _construct(name: str, kv: tuple):
    """Module-level construction hook so :func:`policy_factory` pickles."""
    return get_policy(name)(**dict(kv))
