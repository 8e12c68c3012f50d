#!/usr/bin/env python
"""Compare two pytest-benchmark JSON files and fail on regressions.

Usage::

    python benchmarks/check_regression.py BASELINE.json CURRENT.json \
        [--mode mean|ratio] [--tolerance 0.25] [--only bench_kernels]

Two modes:

``--mode mean`` (default)
    Benchmarks are matched by fully-qualified test name; a current mean
    more than ``tolerance`` above the baseline mean fails.  Machine-
    *dependent*: the baseline's absolute timings only transfer between
    identical runners.

``--mode ratio``
    Machine-*independent* gate for CI on heterogeneous/shared runners.
    Slow-side/fast-side benchmark pairs are discovered by naming
    convention — ``test_scalar_loop_<key>`` paired with
    ``test_batch_kernel_<key>`` (kernel speedups), and
    ``test_serve_base_<key>`` paired with ``test_serve_warm_<key>``
    (service request-throughput ratios) — and reduced to speedup ratios
    ``slow_mean / fast_mean``.  Both sides of a ratio come from the
    *same* run on the *same* machine, so a slow runner rescales
    numerator and denominator together.  A current speedup more than
    ``tolerance`` below the baseline's speedup fails.

In both modes, a benchmark (or pair) present in the baseline but missing
from the current run is an error (a silently dropped kernel looks like a
speedup), and new entries are reported but never fail — that is how the
perf trajectory grows.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

_SCALAR_MARK = "test_scalar_loop_"
_BATCH_MARK = "test_batch_kernel_"

#: (slow-side mark, fast-side mark) families reduced to speedup ratios.
#: scalar/batch gates the kernel speedups; serve_base/serve_warm gates
#: the request server's executor-lifecycle throughput ratios (BENCH_6);
#: kern_checked/kern_trusted gates the per-step validation hoist
#: (BENCH_8); par_serial/par_threads gates the kernel_threads axis —
#: serial vs trial-sharded runs of the same workload (BENCH_9).
_RATIO_MARKS = (
    (_SCALAR_MARK, _BATCH_MARK),
    ("test_serve_base_", "test_serve_warm_"),
    ("test_kern_checked_", "test_kern_trusted_"),
    ("test_par_serial_", "test_par_threads_"),
)


def load_means(path: str) -> dict[str, float]:
    with open(path) as fh:
        data = json.load(fh)
    return {b["fullname"]: b["stats"]["mean"] for b in data["benchmarks"]}


def speedup_pairs(means: dict[str, float]) -> dict[str, float]:
    """Reduce slow/fast benchmark pairs to speedup ratios.

    Keys are ``<file>::<suffix>`` (e.g. ``bench_adaptive.py::sem_1000``);
    values are ``slow_mean / fast_mean`` for every :data:`_RATIO_MARKS`
    family (a suffix pairs only within its own family — the marks are
    disjoint by construction).
    """
    sides: dict[str, dict[str, float]] = {}
    for fullname, mean in means.items():
        for slow_mark, fast_mark in _RATIO_MARKS:
            for mark, side in ((slow_mark, "slow"), (fast_mark, "fast")):
                if mark in fullname:
                    prefix, suffix = fullname.split(mark, 1)
                    prefix = re.sub(r"::.*$", "", prefix.rstrip(":"))
                    sides.setdefault(f"{prefix}::{suffix}", {})[side] = mean
    return {
        key: pair["slow"] / pair["fast"]
        for key, pair in sorted(sides.items())
        if "slow" in pair and "fast" in pair and pair["fast"] > 0
    }


def check_means(base, cur, cur_scope, tolerance) -> list[str]:
    """Absolute-mean gate (original behavior)."""
    failures: list[str] = []
    for name, old in sorted(base.items()):
        new = cur.get(name)
        if new is None:
            failures.append(f"MISSING  {name} (in baseline, not in current run)")
            continue
        ratio = new / old if old > 0 else float("inf")
        status = "ok"
        if ratio > 1.0 + tolerance:
            status = "REGRESSED"
            failures.append(
                f"{status}  {name}: {old * 1e3:.2f} ms -> {new * 1e3:.2f} ms "
                f"({ratio:.2f}x, tolerance {1.0 + tolerance:.2f}x)"
            )
        print(f"{status:9s} {name}: {old * 1e3:.2f} ms -> {new * 1e3:.2f} ms "
              f"({ratio:.2f}x)")
    for name in sorted(set(cur_scope) - set(base)):
        print(f"new       {name}: {cur_scope[name] * 1e3:.2f} ms (no baseline)")
    return failures


def check_ratios(base, cur, cur_scope, tolerance) -> list[str]:
    """Machine-independent scalar-vs-batch speedup gate."""
    base_ratios = speedup_pairs(base)
    cur_ratios = speedup_pairs(cur)
    cur_scope_ratios = speedup_pairs(cur_scope)
    failures: list[str] = []
    # Presence is still gated by *name* for every baseline benchmark, paired
    # or not — a silently dropped kernel looks like a speedup, and the check
    # is machine-independent.  Only the timing gate is ratio-based.
    for name in sorted(set(base) - set(cur)):
        failures.append(f"MISSING  {name} (in baseline, not in current run)")
    for key, old in sorted(base_ratios.items()):
        new = cur_ratios.get(key)
        if new is None:
            failures.append(f"MISSING  {key} (pair in baseline, not in current run)")
            continue
        floor = old * (1.0 - tolerance)
        status = "ok"
        if new < floor:
            status = "REGRESSED"
            failures.append(
                f"{status}  {key}: speedup {old:.1f}x -> {new:.1f}x "
                f"(floor {floor:.1f}x at tolerance {tolerance:.0%})"
            )
        print(f"{status:9s} {key}: speedup {old:.1f}x -> {new:.1f}x")
    for key in sorted(set(cur_scope_ratios) - set(base_ratios)):
        print(f"new       {key}: speedup {cur_scope_ratios[key]:.1f}x (no baseline)")
    if not base_ratios:
        marks = ", ".join(f"{s}*/{f}*" for s, f in _RATIO_MARKS)
        failures.append(
            f"MISSING  baseline contains no slow/fast pairs ({marks})"
        )
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline", help="committed BENCH_<n>.json baseline")
    ap.add_argument("current", help="freshly produced benchmark json")
    ap.add_argument(
        "--mode",
        choices=("mean", "ratio"),
        default="mean",
        help="'mean' compares absolute means (same-machine baselines); "
        "'ratio' compares paired slow/fast speedups (machine-independent)",
    )
    ap.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional regression (default 0.25: +25%% mean, "
        "or -25%% speedup in ratio mode)",
    )
    ap.add_argument(
        "--only",
        default=None,
        help="restrict the comparison to fullnames containing this substring",
    )
    args = ap.parse_args(argv)

    base = load_means(args.baseline)
    cur = load_means(args.current)
    if args.only:
        base = {k: v for k, v in base.items() if args.only in k}
        cur_scope = {k: v for k, v in cur.items() if args.only in k}
    else:
        cur_scope = cur

    if args.mode == "ratio":
        failures = check_ratios(base, cur, cur_scope, args.tolerance)
    else:
        failures = check_means(base, cur, cur_scope, args.tolerance)

    if failures:
        print(f"\n{len(failures)} benchmark regression(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nno regressions beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
