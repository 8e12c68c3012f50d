#!/usr/bin/env python
"""End-to-end suite-runner smoke: run a 2-cell suite twice through the
real CLI and assert the second run is served entirely from the cell store.

Usage::

    python benchmarks/smoke_suite.py [--suite suites/smoke.json]

What it checks, in order:

1. ``repro suite run`` executes every cell of the committed smoke suite
   in a fresh output directory (``executed=N cached=0``) and writes the
   consolidated ``report.json`` / ``report.md``.
2. A second identical invocation performs **zero executions** — every
   cell is a content-address cache hit (``executed=0 cached=N``).
3. A third invocation under ``REPRO_KERNEL_THREADS=2`` performs zero
   executions too: trial shards never change a sample, so a cell's
   digest commits to the RNG discipline alone, not the thread count.
4. Deleting one cell artifact and re-running with ``--jobs 2`` re-executes
   exactly that one cell (``executed=1``) on a worker pool, leaving the
   rest cached, and the re-executed cell's ``result`` equals the deleted
   artifact's (the pool path is bit-identical to serial).
5. ``repro suite status`` agrees that all cells are done.

Exit code 0 only if all five hold — this is the CI suite-smoke leg.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(args, env) -> str:
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=env, capture_output=True, text=True, cwd=REPO,
    )
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"repro {' '.join(args)} failed rc={proc.returncode}")
    return proc.stdout


def counts(output: str) -> tuple[int, int]:
    match = re.search(r"executed=(\d+) cached=(\d+)", output)
    if not match:
        raise SystemExit(f"no executed=/cached= summary in output:\n{output}")
    return int(match.group(1)), int(match.group(2))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--suite", default=os.path.join(REPO, "suites", "smoke.json"))
    args = ap.parse_args(argv)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(REPO, "src"), env.get("PYTHONPATH")) if p
    )
    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="suite_smoke_") as out:
        executed, cached = counts(
            run_cli(["suite", "run", args.suite, "--out", out], env))
        if executed < 2 or cached != 0:
            failures.append(
                f"first run: expected >=2 executed, 0 cached; got "
                f"executed={executed} cached={cached}")
        n_cells = executed
        for name in ("report.json", "report.md"):
            if not os.path.exists(os.path.join(out, name)):
                failures.append(f"first run wrote no {name}")

        executed, cached = counts(
            run_cli(["suite", "run", args.suite, "--out", out], env))
        if executed != 0 or cached != n_cells:
            failures.append(
                f"second run: expected all {n_cells} cells cached; got "
                f"executed={executed} cached={cached}")

        executed, cached = counts(run_cli(
            ["suite", "run", args.suite, "--out", out],
            {**env, "REPRO_KERNEL_THREADS": "2"}))
        if executed != 0 or cached != n_cells:
            failures.append(
                f"run under REPRO_KERNEL_THREADS=2: expected all {n_cells} "
                f"cells cached; got executed={executed} cached={cached}")

        artifacts = sorted(glob.glob(os.path.join(out, "cells", "*.json")))
        if len(artifacts) != n_cells:
            failures.append(f"{len(artifacts)} artifacts for {n_cells} cells")
        else:
            with open(artifacts[0]) as fh:
                deleted = json.load(fh)
            victim = deleted["digest"]
            os.unlink(artifacts[0])
            executed, cached = counts(run_cli(
                ["suite", "run", args.suite, "--out", out, "--jobs", "2"], env))
            if executed != 1 or cached != n_cells - 1:
                failures.append(
                    f"after deleting cell {victim[:12]}: expected exactly "
                    f"1 re-execution; got executed={executed} cached={cached}")
            with open(artifacts[0]) as fh:
                rerun = json.load(fh)
            if rerun["result"] != deleted["result"]:
                failures.append(
                    f"cell {victim[:12]} re-executed with --jobs 2 gave "
                    f"{rerun['result']}, not the deleted {deleted['result']}")

        status = run_cli(["suite", "status", args.suite, "--out", out], env)
        if f"{n_cells}/{n_cells} cells done" not in status:
            failures.append(f"status does not report {n_cells}/{n_cells} done")

    if failures:
        print(f"\nSUITE SMOKE FAILED ({len(failures)}):", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nsuite smoke ok: {n_cells} cells executed once, reruns fully "
          "cached (also under REPRO_KERNEL_THREADS=2), single-cell delta "
          "re-executed on a --jobs 2 pool with an equal result, status "
          "consistent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
