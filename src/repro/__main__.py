"""Command-line interface: generate, run, sweep, and inspect SUU instances.

Usage::

    python -m repro generate --shape chains --jobs 20 --machines 5 \\
        --model specialist --seed 3 --out inst.json
    python -m repro run inst.json --policy suu-c --trials 30 --seed 7
    python -m repro gantt inst.json --policy sem --seed 1
    python -m repro bound inst.json
    python -m repro policies
    python -m repro sweep --shape independent --shape chains \\
        --jobs 20 --jobs 40 --trials 20 --backend process
    python -m repro serve --port 8075 --executor warm-pool --workers 4
    python -m repro loadgen --url http://127.0.0.1:8075 --rps 50 \\
        --duration 10

Policy names come from the :mod:`repro.api` registry (``repro policies``
lists them); every command resolving a policy accepts canonical names and
aliases, and defaults to the registered policy for the instance's
precedence class.  ``serve`` runs the persistent scheduling service
(:mod:`repro.server`); ``loadgen`` drives it with wrk2-style open-loop
constant-RPS load (:mod:`repro.loadgen`).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis.bounds import lower_bound
from repro.analysis.tables import format_table
from repro.api.config import resolve_discipline, resolve_kernel_threads
from repro.api.registry import (
    default_policy_for,
    get_policy,
    list_policies,
    policy_names,
)
from repro.api.scenario import FAILURE_MODELS, SCENARIO_SHAPES, Scenario, SimConfig
from repro.api.service import evaluate_grid, simulate
from repro.errors import InvalidScenarioError
from repro.instance import load_instance, save_instance
from repro.sim.engine import run_policy
from repro.sim.trace import TracingPolicy, render_gantt


def _scenario_from_args(args) -> Scenario:
    return Scenario(
        shape=args.shape,
        n_jobs=args.jobs,
        n_machines=args.machines,
        model=args.model,
        seed=args.seed,
        edge_prob=args.edge_prob,
    )


def _cmd_generate(args) -> int:
    inst = _scenario_from_args(args).to_instance()
    save_instance(inst, args.out)
    print(f"wrote {inst} to {args.out}")
    return 0


def _cmd_run(args) -> int:
    inst = load_instance(args.instance)
    name = args.policy or default_policy_for(inst)
    report = simulate(
        inst,
        name,
        SimConfig(n_trials=args.trials, seed=args.seed, max_steps=args.max_steps,
                  discipline=args.discipline),
        backend=args.backend,
        n_workers=args.workers,
    )
    lo, hi = report.stats.ci95
    print(f"instance: {inst}")
    print(f"policy:   {report.policy}")
    threads = report.kernel["threads"]
    if threads > 1:
        print(f"threads:  {threads}")
    print(f"E[T] = {report.mean:.3f} steps   95% CI [{lo:.3f}, {hi:.3f}] "
          f"({args.trials} trials)")
    print(f"lower bound = {report.lower_bound:.3f}   "
          f"measured ratio <= {report.ratio:.3f}")
    return 0


def _cmd_gantt(args) -> int:
    inst = load_instance(args.instance)
    name = args.policy or default_policy_for(inst)
    traced = TracingPolicy(get_policy(name)())
    result = run_policy(inst, traced, rng=args.seed, max_steps=args.max_steps)
    print(f"{inst}  policy={name}  makespan={result.makespan}")
    print(render_gantt(traced.trace, max_width=args.width,
                       completion_times=result.completion_times))
    return 0


def _cmd_bound(args) -> int:
    inst = load_instance(args.instance)
    print(f"instance: {inst}")
    print(f"lower bound on E[T_OPT]: {lower_bound(inst):.4f}")
    return 0


def _cmd_policies(args) -> int:
    rows = [
        [
            info.name,
            ", ".join(info.aliases) or "-",
            ", ".join(info.default_for) or "-",
            info.dispatch_detail if info.batch_dispatch != "fallback" else "-",
            info.cls.__name__,
            info.summary,
        ]
        for info in list_policies()
    ]
    print(format_table(
        ["name", "aliases", "default for", "batched", "class", "summary"],
        rows,
        title="registered policies",
    ))
    return 0


def _cmd_sweep(args) -> int:
    from repro.api.scenario import ScenarioGrid

    grid = ScenarioGrid(
        Scenario(model=args.model[0], edge_prob=args.edge_prob),
        shape=args.shape or ["independent"],
        n_jobs=args.jobs or [20],
        n_machines=args.machines or [5],
        model=args.model,
        seed=args.seed_instance,
    )
    config = SimConfig(n_trials=args.trials, seed=args.seed,
                       max_steps=args.max_steps, discipline=args.discipline)
    reports = evaluate_grid(
        grid,
        args.policy or ("auto",),
        config=config,
        backend=args.backend,
        n_workers=args.workers,
    )
    rows = []
    for r in reports:
        lo, hi = r.stats.ci95
        s = r.scenario
        rows.append([
            s.shape, s.n_jobs, s.n_machines, s.model, s.seed, r.policy,
            f"{r.mean:.2f}", f"[{lo:.2f}, {hi:.2f}]",
            f"{r.lower_bound:.2f}", f"{r.ratio:.3f}",
        ])
    print(format_table(
        ["shape", "n", "m", "model", "inst seed", "policy", "E[T]",
         "95% CI", "LB", "ratio"],
        rows,
        title=f"sweep: {len(reports)} reports, {args.trials} trials each "
              f"({args.backend} backend)",
    ))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump([r.to_dict() for r in reports], fh, indent=2)
        print(f"wrote {len(reports)} reports to {args.json}")
    return 0


def _cmd_serve(args) -> int:
    import asyncio
    import signal

    from repro.server import SchedulingServer, make_executor

    executor = make_executor(args.executor, args.workers,
                             solve_cache_entries=args.solve_cache)

    async def _main() -> None:
        server = SchedulingServer(
            executor, host=args.host, port=args.port,
            max_handlers=args.max_handlers, drain_timeout=args.drain_timeout,
        )
        await server.start()
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop.set)
        print(f"serving on http://{server.host}:{server.port} "
              f"(executor={executor.kind}, workers={args.workers or 'auto'})",
              flush=True)
        await stop.wait()
        print("shutting down (draining in-flight requests)", flush=True)
        await server.stop()

    with executor:
        if args.prewarm and hasattr(executor, "prewarm"):
            executor.prewarm()
        asyncio.run(_main())
    return 0


def _cmd_loadgen(args) -> int:
    from repro.loadgen import (
        RequestSpec,
        default_simulate_spec,
        format_report,
        run_load,
    )

    if args.body:
        with open(args.body) as fh:
            spec = RequestSpec.json(args.method, args.path, json.load(fh))
    elif args.method.upper() == "GET":
        spec = RequestSpec(method="GET", path=args.path)
    else:
        spec = default_simulate_spec(n_jobs=args.jobs, n_machines=args.machines,
                                     n_trials=args.trials)
    report = run_load(args.url, spec, rps=args.rps, duration=args.duration,
                      timeout=args.timeout)
    print(format_report(report))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
        print(f"wrote load report to {args.json}")
    failures = []
    if args.assert_p99 is not None and report.histogram.p99 > args.assert_p99:
        failures.append(
            f"p99 {report.histogram.p99:.3f}s exceeds --assert-p99 "
            f"{args.assert_p99:.3f}s"
        )
    if args.assert_error_rate is not None and (
        report.error_rate > args.assert_error_rate
    ):
        failures.append(
            f"error rate {report.error_rate:.1%} exceeds --assert-error-rate "
            f"{args.assert_error_rate:.1%}"
        )
    if report.completed == 0:
        failures.append("no requests completed")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_suite_run(args) -> int:
    from repro.suite import SuiteError, SuiteRunner, load_suite

    try:
        spec = load_suite(args.suite)
        runner = SuiteRunner(spec, args.out, jobs=args.jobs, force=args.force)
        outcome = runner.run(progress=None if args.quiet else print)
    except SuiteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"suite {spec.name}: executed={outcome.executed} "
          f"cached={outcome.cached} "
          f"report={args.out}/report.json")
    return 0


def _cmd_suite_status(args) -> int:
    from repro.suite import SuiteError, SuiteRunner, load_suite

    try:
        spec = load_suite(args.suite)
        rows = SuiteRunner(spec, args.out).status()
    except SuiteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    done = sum(1 for _, _, present in rows if present)
    for digest, label, present in rows:
        print(f"[{digest[:12]}] {'done   ' if present else 'pending'} {label}")
    print(f"suite {spec.name}: {done}/{len(rows)} cells done")
    return 0


def _forward_experiments(rest) -> int:
    # Forward to the experiment harness (`python -m repro.experiments`),
    # so `repro experiments E-PERJOB` works from the installed entry point.
    from repro.experiments.__main__ import main as experiments_main

    return experiments_main(list(rest))


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # `experiments` forwards wholesale before argparse sees the rest:
    # REMAINDER cannot capture a leading option, so `repro experiments
    # --help` / `--markdown out.md` must bypass the top-level parser.
    if argv[:1] == ["experiments"]:
        return _forward_experiments(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multiprocessor scheduling under uncertainty (SPAA 2008).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    all_policy_names = policy_names(include_aliases=True)

    g = sub.add_parser("generate", help="generate a random instance")
    g.add_argument("--shape", choices=SCENARIO_SHAPES, default="independent")
    g.add_argument("--jobs", type=int, default=20)
    g.add_argument("--machines", type=int, default=5)
    g.add_argument("--model", choices=FAILURE_MODELS, default="specialist")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--edge-prob", type=float, default=0.1,
                   help="forward-edge probability (random_dag only)")
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_generate)

    r = sub.add_parser("run", help="estimate a policy's expected makespan")
    r.add_argument("instance")
    r.add_argument("--policy", choices=all_policy_names, default=None,
                   help="default: matched to the precedence class")
    r.add_argument("--trials", type=int, default=30)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--max-steps", type=int, default=1_000_000)
    r.add_argument("--backend", choices=["serial", "process"], default="serial")
    r.add_argument("--workers", type=int, default=None)
    r.add_argument("--discipline", choices=["v1", "v2"], default=None,
                   help="RNG discipline (default: $REPRO_DISCIPLINE or v1; "
                        "v2 = batch-native draws, statistically equivalent)")
    r.set_defaults(func=_cmd_run)

    ga = sub.add_parser("gantt", help="render one execution as ASCII")
    ga.add_argument("instance")
    ga.add_argument("--policy", choices=all_policy_names, default=None)
    ga.add_argument("--seed", type=int, default=0)
    ga.add_argument("--width", type=int, default=100)
    ga.add_argument("--max-steps", type=int, default=1_000_000)
    ga.set_defaults(func=_cmd_gantt)

    b = sub.add_parser("bound", help="print the provable lower bound")
    b.add_argument("instance")
    b.set_defaults(func=_cmd_bound)

    p = sub.add_parser("policies", help="list the policy registry")
    p.set_defaults(func=_cmd_policies)

    s = sub.add_parser("sweep", help="evaluate policies across a scenario grid")
    s.add_argument("--shape", action="append", choices=SCENARIO_SHAPES,
                   help="repeatable; default: independent")
    s.add_argument("--jobs", action="append", type=int,
                   help="repeatable; default: 20")
    s.add_argument("--machines", action="append", type=int,
                   help="repeatable; default: 5")
    s.add_argument("--model", action="append", choices=FAILURE_MODELS,
                   default=None, help="repeatable; default: specialist")
    s.add_argument("--policy", action="append", metavar="NAME",
                   help="repeatable registry name, or 'auto' (default)")
    s.add_argument("--seed-instance", action="append", type=int,
                   default=None, help="repeatable instance seed; default: 0")
    s.add_argument("--trials", type=int, default=20)
    s.add_argument("--seed", type=int, default=0, help="trial RNG seed")
    s.add_argument("--max-steps", type=int, default=1_000_000)
    s.add_argument("--edge-prob", type=float, default=0.1)
    s.add_argument("--backend", choices=["serial", "process"], default="serial")
    s.add_argument("--workers", type=int, default=None)
    s.add_argument("--discipline", choices=["v1", "v2"], default=None,
                   help="RNG discipline (default: $REPRO_DISCIPLINE or v1)")
    s.add_argument("--json", default=None, help="also dump reports to this file")
    s.set_defaults(func=_cmd_sweep)

    from repro.api.executors import EXECUTOR_KINDS

    sv = sub.add_parser(
        "serve",
        help="run the persistent scheduling service (POST /simulate, "
             "POST /grid, GET /policies, GET /healthz)",
    )
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=int, default=8075,
                    help="bind port (0 picks a free one; default 8075)")
    sv.add_argument("--executor", choices=EXECUTOR_KINDS, default="warm-pool",
                    help="request executor: 'serial' runs trials in-process, "
                         "'warm-pool' keeps a long-lived solve-cache-warm "
                         "worker pool across requests (default)")
    sv.add_argument("--workers", type=int, default=None,
                    help="warm-pool width (default: CPU count)")
    sv.add_argument("--solve-cache", type=int, default=4096,
                    help="per-worker solve-cache entries (default 4096)")
    sv.add_argument("--max-handlers", type=int, default=8,
                    help="max concurrently executing requests (default 8)")
    sv.add_argument("--drain-timeout", type=float, default=10.0,
                    help="seconds to wait for in-flight requests at shutdown")
    sv.add_argument("--no-prewarm", dest="prewarm", action="store_false",
                    help="skip building the worker pool before accepting "
                         "traffic (first request then pays the spawn cost)")
    sv.set_defaults(func=_cmd_serve)

    lg = sub.add_parser(
        "loadgen",
        help="drive the service with wrk2-style open-loop constant-RPS load "
             "and report p50/p90/p99/max latency",
    )
    lg.add_argument("--url", default="http://127.0.0.1:8075",
                    help="server address (default http://127.0.0.1:8075)")
    lg.add_argument("--rps", type=float, default=10.0,
                    help="constant offered request rate (default 10)")
    lg.add_argument("--duration", type=float, default=5.0,
                    help="run length in seconds (default 5)")
    lg.add_argument("--timeout", type=float, default=30.0,
                    help="per-request timeout in seconds")
    lg.add_argument("--method", default="POST",
                    help="HTTP method of the generated requests")
    lg.add_argument("--path", default="/simulate",
                    help="request path (default /simulate)")
    lg.add_argument("--body", default=None, metavar="FILE",
                    help="JSON file to send as the request body (default: a "
                         "small built-in /simulate scenario)")
    lg.add_argument("--jobs", type=int, default=12,
                    help="built-in scenario size (ignored with --body)")
    lg.add_argument("--machines", type=int, default=4)
    lg.add_argument("--trials", type=int, default=24,
                    help="built-in scenario trials per request")
    lg.add_argument("--json", default=None,
                    help="also dump the load report to this file")
    lg.add_argument("--assert-p99", type=float, default=None, metavar="SECONDS",
                    help="exit 1 when p99 latency exceeds this bound")
    lg.add_argument("--assert-error-rate", type=float, default=None,
                    metavar="FRACTION",
                    help="exit 1 when the error rate exceeds this fraction "
                         "(use 0 for zero-error runs)")
    lg.set_defaults(func=_cmd_loadgen)

    su = sub.add_parser(
        "suite",
        help="run a declarative suite file (content-addressed cells: "
             "re-runs compute only the delta, resume is free)",
    )
    su_sub = su.add_subparsers(dest="suite_command", required=True)
    sr = su_sub.add_parser("run", help="execute a suite's missing cells")
    sr.add_argument("suite", help="suite file (.json; .toml on Python 3.11+)")
    sr.add_argument("--out", required=True,
                    help="output directory (cells/ artifacts + report)")
    sr.add_argument("--jobs", type=int, default=1,
                    help="worker processes for trial shards (default 1: "
                         "serial in-process)")
    sr.add_argument("--force", action="store_true",
                    help="re-execute every cell, ignoring stored artifacts")
    sr.add_argument("--quiet", action="store_true",
                    help="suppress per-cell progress lines")
    sr.set_defaults(func=_cmd_suite_run)
    ss = su_sub.add_parser("status", help="show which cells are done")
    ss.add_argument("suite")
    ss.add_argument("--out", required=True)
    ss.set_defaults(func=_cmd_suite_status)

    # Listed here so `repro --help` shows it; actual dispatch happens in
    # the pre-parse forward above (never through this parser).
    e = sub.add_parser(
        "experiments",
        help="run the paper-reproduction experiment tables "
             "(forwards to python -m repro.experiments)",
    )
    e.add_argument("rest", nargs=argparse.REMAINDER)
    e.set_defaults(func=lambda args: _forward_experiments(args.rest))

    args = parser.parse_args(argv)
    if args.command == "sweep":
        args.model = args.model or ["specialist"]
        args.seed_instance = args.seed_instance or [0]
        bad = [n for n in (args.policy or []) if n != "auto"
               and n not in all_policy_names]
        if bad:
            parser.error(f"unknown policies {bad}; see 'repro policies'")
    if args.command in ("run", "sweep", "serve", "suite"):
        # The host settings are read before any work: a bad value stops
        # the command here, not in a traceback mid-run (or, under serve,
        # in a 500 on every request).
        try:
            resolve_discipline(getattr(args, "discipline", None))
            resolve_kernel_threads()
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except InvalidScenarioError as exc:
        # Bad input (a scenario or config value), not a crash: one line
        # and exit 2, as `suite run` does for a malformed suite.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
