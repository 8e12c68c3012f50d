"""Consolidated suite reports: one JSON + one markdown table per run."""

from __future__ import annotations

import json
import os

from repro.suite.runner import SuiteOutcome
from repro.suite.spec import SuiteSpec

__all__ = ["report_dict", "report_markdown", "write_report"]


def report_dict(spec: SuiteSpec, outcome: SuiteOutcome) -> dict:
    """JSON-compatible consolidated report (spec + per-cell summaries)."""
    return {
        "suite": spec.name,
        "spec": spec.to_dict(),
        "executed": outcome.executed,
        "cached": outcome.cached,
        "cells": [
            {
                "digest": o.digest,
                "label": o.label,
                "cached": o.cached,
                "kind": o.artifact.get("kind"),
                "result": o.artifact.get("result"),
            }
            for o in outcome.outcomes
        ],
    }


def _simulate_rows(outcome: SuiteOutcome) -> list[str]:
    lines = [
        "| scenario | policy | discipline | seed | mean | ratio | cell |",
        "|---|---|---|---|---|---|---|",
    ]
    for o in outcome.outcomes:
        if o.artifact.get("kind") != "simulate":
            continue
        cell = o.artifact["cell"]
        res = o.artifact["result"]
        knobs = cell["knobs"]
        scen = cell["scenario"]
        tag = f"{o.digest[:12]}{' (cached)' if o.cached else ''}"
        lines.append(
            f"| {scen['shape']}/{scen['model']} n={scen['n_jobs']} "
            f"m={scen['n_machines']} s={scen['seed']} "
            f"| {res['policy']} | {knobs['discipline']} "
            f"| {cell['config']['seed']} | {res['mean']:.3f} "
            f"| {res['ratio']:.3f} | {tag} |"
        )
    return lines if len(lines) > 2 else []


def _experiment_blocks(outcome: SuiteOutcome) -> list[str]:
    blocks = []
    for o in outcome.outcomes:
        if o.artifact.get("kind") != "experiment":
            continue
        res = o.artifact["result"]
        lines = [
            f"### {res['exp_id']} — {res['title']}",
            "",
            "| " + " | ".join(res["headers"]) + " |",
            "|" + "---|" * len(res["headers"]),
        ]
        for row in res["rows"]:
            lines.append("| " + " | ".join(str(v) for v in row) + " |")
        for note in res["notes"]:
            lines.append(f"\n*{note}*")
        blocks.append("\n".join(lines))
    return blocks


def report_markdown(spec: SuiteSpec, outcome: SuiteOutcome) -> str:
    """The consolidated report as a markdown document."""
    parts = [
        f"# Suite `{spec.name}`",
        "",
        f"{len(outcome.outcomes)} cells: {outcome.executed} executed, "
        f"{outcome.cached} cached.",
        "",
    ]
    rows = _simulate_rows(outcome)
    if rows:
        parts.extend(rows)
        parts.append("")
    parts.extend(_experiment_blocks(outcome))
    return "\n".join(parts).rstrip() + "\n"


def write_report(out_dir, spec: SuiteSpec, outcome: SuiteOutcome) -> tuple[str, str]:
    """Write ``report.json`` and ``report.md`` under ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(out_dir, "report.json")
    md_path = os.path.join(out_dir, "report.md")
    with open(json_path, "w") as fh:
        json.dump(report_dict(spec, outcome), fh, indent=1, sort_keys=True)
    with open(md_path, "w") as fh:
        fh.write(report_markdown(spec, outcome))
    return json_path, md_path
