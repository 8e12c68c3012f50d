"""Shared plumbing for the experiment harness.

Every experiment is a function in this package, listed by
:func:`experiment_ids` under its id (``"E-OBL"``, ``"T1"``, ...), that
returns an :class:`ExperimentResult` (headers + rows + notes).  It is
decorated with :func:`register_experiment` so the CLI
(``python -m repro.experiments``), the benchmark suite, and declarative
suite files (:mod:`repro.suite`) all share one id → runner table.
The benchmark suite times the *quick* configurations and prints the rows;
``python -m repro.experiments`` runs the *full* configurations and rewrites
the results section of EXPERIMENTS.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.analysis.tables import format_markdown_table, format_table

__all__ = [
    "ExperimentResult",
    "register_experiment",
    "get_experiment",
    "experiment_ids",
    "all_experiments",
    "loglog",
    "safe_log2",
]

#: The one name → runner table (populated by :func:`register_experiment`
#: as experiment modules import; insertion order is the order in which
#: :mod:`repro.experiments` imports them).
_REGISTRY: dict = {}


def register_experiment(exp_id: str):
    """Class-registry decorator for experiment runners.

    Registers the decorated zero-or-keyword-arg function under the
    experiment id ``exp_id`` so ``repro experiments``, the benchmarks, and
    suite-file ``experiments`` entries dispatch through one table.
    Double registration of an id fails loudly.
    """

    def deco(fn):
        if exp_id in _REGISTRY:
            raise ValueError(f"experiment id {exp_id!r} registered twice")
        _REGISTRY[exp_id] = fn
        return fn

    return deco


def get_experiment(exp_id: str):
    """The registered runner for ``exp_id``; unknown ids fail loudly."""
    try:
        return _REGISTRY[exp_id]
    except KeyError:
        raise ValueError(
            f"unknown experiment id {exp_id!r}; expected one of "
            f"{experiment_ids()}"
        ) from None


def experiment_ids() -> tuple[str, ...]:
    """Every registered experiment id, in registration order."""
    return tuple(_REGISTRY)


def all_experiments() -> dict:
    """A snapshot copy of the id → runner table."""
    return dict(_REGISTRY)


@dataclass
class ExperimentResult:
    """Tabular output of one experiment."""

    exp_id: str
    title: str
    headers: list[str]
    rows: list[list] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, *row) -> None:
        """Append one row (must match ``headers`` in length)."""
        if len(row) != len(self.headers):
            raise ValueError(
                f"{self.exp_id}: row has {len(row)} cells, expected {len(self.headers)}"
            )
        self.rows.append(list(row))

    def to_text(self) -> str:
        """Fixed-width rendering (printed by the benchmarks)."""
        out = format_table(self.headers, self.rows, title=f"[{self.exp_id}] {self.title}")
        if self.notes:
            out += "\n" + "\n".join(f"  note: {n}" for n in self.notes)
        return out

    def to_markdown(self) -> str:
        """Markdown rendering (embedded in EXPERIMENTS.md)."""
        parts = [f"### {self.exp_id} — {self.title}", ""]
        parts.append(format_markdown_table(self.headers, self.rows))
        if self.notes:
            parts.append("")
            parts.extend(f"*{n}*" for n in self.notes)
        return "\n".join(parts)


def safe_log2(v: float) -> float:
    """``log2(max(v, 2))`` — the guard used in all the paper's factors."""
    return math.log2(max(float(v), 2.0))


def loglog(v: float) -> float:
    """``log2 log2 v`` with the same guard."""
    return safe_log2(safe_log2(v))
