"""Command-line interface: ``python -m repro <command>``.

Commands
========

``list``
    The 23-application suite with footprints and pattern types (Table II).
``run APP``
    One simulation; prints the stats summary (optionally as JSON).
``figure {fig3,fig4,fig7,fig8,fig9,fig10}``
    Regenerate one of the paper's figures.
``table {table3,table4,overhead,sensitivity-fd,sensitivity-t3}``
    Regenerate one of the paper's tables / sensitivity studies.
``suite``
    Baseline-vs-CPPE speedups for the whole suite at one rate.
``trace``
    Characterise a suite application's trace, or export it as ``.npz`` for
    use outside the harness (and for bring-your-own-trace round trips).
``sweep``
    Capacity sweep for one application: slowdown vs oversubscription rate,
    with working-set knee detection.  ``--adaptive`` replaces the fixed
    rate grid with the convergence-driven loop (simulate, fit a monotone
    model, sample where the curve bends, stop when fits agree or
    ``--budget`` is exhausted).
``regen``
    Regenerate any set of figures/tables (or ``all``) through the parallel
    experiment engine: ``--jobs N`` workers, persistent result cache
    (``--cache-dir PATH``), per-batch progress on stderr.
``cache``
    Inspect (``cache stats``) or clear (``cache clear``) the persistent
    result cache.
``components``
    Inspect the component registries (``components list``,
    ``components describe KIND NAME``): every registered policy,
    prefetcher, setup and workload, including plugin components pulled in
    via ``REPRO_PLUGINS`` / the ``repro.plugins`` entry-point group.
``shootout``
    Every registered eviction policy crossed with every registered
    prefetcher on one application, run as a single cached batch and
    ranked by speedup over the baseline setup.
``lint``
    Static determinism / cache-integrity / parallel-safety analysis
    (see LINTING.md).  Exit code 0 = clean, 1 = findings, 2 = usage error.
``serve``
    Run the always-on experiment service (``repro.service``): an HTTP API
    that queues submitted batches, drains them through the parallel
    engine + result cache, and streams NDJSON progress events.
``submit``
    Client for a running service: POST a batch (built from flags or a
    JSON file), optionally wait for and print the outcome.
``status``
    Client for a running service: list batches, fetch one batch's status,
    or stream its event log.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional

from . import registry as registry_mod
from .errors import ConfigError
from .harness import cache as cache_mod
from .harness import figures as figures_mod
from .harness import shootout as shootout_mod
from .harness import tables as tables_mod
from .harness import baselines as _baselines  # noqa: F401  (registers components)
from .harness.experiment import RunSpec, run_one
from .harness.report import render_table
from .workloads.suite import BENCHMARKS

__all__ = ["main", "build_parser"]

_FIGURES = {
    "fig3": figures_mod.fig3,
    "fig4": figures_mod.fig4,
    "fig7": figures_mod.fig7,
    "fig8": figures_mod.fig8,
    "fig9": figures_mod.fig9,
    "fig10": figures_mod.fig10,
}

_TABLES = {
    "table3": tables_mod.table3,
    "table4": tables_mod.table4,
    "overhead": tables_mod.overhead,
    "sensitivity-fd": tables_mod.sensitivity_fd,
    "sensitivity-t3": tables_mod.sensitivity_t3,
    "shootout": shootout_mod.shootout_table,
}


def _setup_arg(value: str) -> str:
    """``argparse`` validator for ``--setup``-style options: any registered
    setup name, or any ``policy+prefetcher`` pair of registered components
    (so plugin components are accepted without touching this module)."""
    try:
        registry_mod.setup_components(value)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _setup_help(intro: str) -> str:
    """Help text for setup options, derived from the live registry."""
    return (f"{intro}: one of {', '.join(registry_mod.names('setup'))}; "
            "or any 'policy+prefetcher' combo of registered components "
            "(see 'repro components list')")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CPPE reproduction: GPU memory oversubscription simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the benchmark suite (Table II)")

    run_p = sub.add_parser("run", help="run one simulation")
    run_p.add_argument("app", help="benchmark abbreviation, e.g. SRD")
    run_p.add_argument(
        "--setup", default="cppe", type=_setup_arg, metavar="SETUP",
        help=_setup_help("policy+prefetcher pair (default: cppe)"),
    )
    run_p.add_argument(
        "--rate", type=float, default=0.5,
        help="oversubscription rate (0 < rate <= 1); 1 disables eviction",
    )
    run_p.add_argument("--scale", type=float, default=1.0,
                       help="footprint scale factor")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--json", action="store_true",
                       help="emit the stats summary as JSON")
    run_p.add_argument(
        "--baseline", default=None, type=_setup_arg, metavar="SETUP",
        help="also run this setup and report the speedup over it",
    )

    fig_p = sub.add_parser("figure", help="regenerate a paper figure")
    fig_p.add_argument("name", choices=sorted(_FIGURES))
    fig_p.add_argument("--apps", nargs="*", default=None)
    fig_p.add_argument("--scale", type=float, default=1.0)

    tab_p = sub.add_parser("table", help="regenerate a paper table")
    tab_p.add_argument("name", choices=sorted(_TABLES))
    tab_p.add_argument("--apps", nargs="*", default=None)
    tab_p.add_argument("--scale", type=float, default=1.0)

    suite_p = sub.add_parser("suite", help="baseline vs CPPE over the suite")
    suite_p.add_argument("--rate", type=float, default=0.5)
    suite_p.add_argument("--setup", default="cppe", type=_setup_arg,
                         metavar="SETUP",
                         help=_setup_help("candidate setup (default: cppe)"))
    suite_p.add_argument("--scale", type=float, default=1.0)

    trace_p = sub.add_parser(
        "trace",
        help="profile/export an app's trace, or record a traced simulation",
    )
    trace_p.add_argument("app")
    trace_p.add_argument("--scale", type=float, default=1.0)
    trace_p.add_argument("--save", metavar="PATH", default=None,
                         help="write the trace as .npz instead of profiling")
    trace_p.add_argument(
        "--trace-dir", metavar="DIR", default=None,
        help="run a traced simulation and write the trace artifacts here "
             "(bypasses the result cache)",
    )
    trace_p.add_argument(
        "--format", default="all", choices=("jsonl", "chrome", "intervals", "all"),
        help="which trace artifacts to write under --trace-dir (default: all)",
    )
    trace_p.add_argument("--setup", default="cppe", type=_setup_arg,
                         metavar="SETUP",
                         help="policy+prefetcher pair for the traced run")
    trace_p.add_argument("--rate", type=float, default=0.5,
                         help="oversubscription rate for the traced run")
    trace_p.add_argument("--seed", type=int, default=None)

    sweep_p = sub.add_parser("sweep", help="capacity sweep for one app")
    sweep_p.add_argument("app")
    sweep_p.add_argument("--setup", default="baseline", type=_setup_arg,
                         metavar="SETUP",
                         help=_setup_help("swept setup (default: baseline)"))
    sweep_p.add_argument("--rates", nargs="*", type=float, default=None,
                         help="fixed rate grid (ignored with --adaptive)")
    sweep_p.add_argument("--scale", type=float, default=1.0)
    sweep_p.add_argument("--knee-threshold", type=float, default=1.5)
    sweep_p.add_argument("--jobs", "-j", type=int, default=None,
                         help="parallel workers (default: serial)")
    sweep_p.add_argument(
        "--adaptive", action="store_true",
        help="convergence-driven sweep: seed a coarse grid, fit a monotone "
             "model, simulate where the curve bends, stop when successive "
             "fits agree (fewer simulations than a fixed grid for the same "
             "knee estimate)",
    )
    sweep_p.add_argument(
        "--budget", type=int, default=None,
        help="adaptive only: max sampled rates, seed grid included "
             "(default: 12)",
    )
    sweep_p.add_argument(
        "--tolerance", type=float, default=None,
        help="adaptive only: max relative disagreement between successive "
             "model fits counted as converged (default: 0.15)",
    )
    sweep_p.add_argument(
        "--seed-rates", nargs="*", type=float, default=None,
        help="adaptive only: first-round rate grid (default: 1.0 0.7 0.4; "
             "1.0 is always included — it anchors the slowdowns)",
    )
    sweep_p.add_argument(
        "--crash-budget-factor", type=float, default=None,
        help="enable the runaway-thrashing crash model with this eviction "
             "budget (multiples of the footprint's chunk count); crashed "
             "points are excluded from the knee and reported as crash_rate",
    )
    sweep_p.add_argument("--json", action="store_true",
                         help="emit the sweep as JSON (crashed points "
                              "carry slowdown null)")

    regen_p = sub.add_parser(
        "regen",
        help="regenerate figures/tables in parallel with a persistent cache",
    )
    regen_p.add_argument(
        "artifacts", nargs="+",
        choices=sorted(_FIGURES) + sorted(_TABLES) + ["all"],
        help="figure/table names, or 'all' for the full evaluation",
    )
    regen_p.add_argument(
        "--jobs", "-j", type=int, default=None,
        help="worker processes (default: os.cpu_count())",
    )
    regen_p.add_argument(
        "--cache-dir", default=None,
        help="result cache directory (default: $REPRO_CACHE_DIR or "
             "~/.cache/repro-cppe)",
    )
    regen_p.add_argument("--no-cache", action="store_true",
                         help="bypass the persistent result cache")
    regen_p.add_argument("--apps", nargs="*", default=None)
    regen_p.add_argument("--scale", type=float, default=1.0)
    regen_p.add_argument(
        "--keep-going", action="store_true",
        help="record failed specs and continue (exit 1 with a failure "
             "summary at the end); successful results still checkpoint "
             "into the cache, so a re-run resumes instead of restarting",
    )
    regen_p.add_argument(
        "--retries", type=int, default=2,
        help="broken-pool rebuild attempts before the serial fallback "
             "(default: 2); simulation failures are never retried",
    )
    regen_p.add_argument(
        "--timeout-s", type=float, default=None,
        help="reap workers after this many seconds without any worker "
             "completing (their specs are marked timed_out)",
    )

    lint_p = sub.add_parser(
        "lint",
        help="static determinism & cache-integrity checks (LINTING.md)",
    )
    lint_p.add_argument(
        "paths", nargs="*", default=["src"],
        help="files/directories to check (default: src)",
    )
    lint_p.add_argument("--json", action="store_true",
                        help="emit findings as JSON")
    lint_p.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    lint_p.add_argument(
        "--deep", action="store_true",
        help="whole-program analysis: call-graph worker reachability "
             "(REPRO6xx) and cache-key taint tracking (REPRO5xx)",
    )
    lint_p.add_argument(
        "--callgraph-cache", metavar="PATH", default=None,
        help="JSON file caching per-file call-graph summaries (keyed by "
             "source content hash); warm runs skip re-extraction of "
             "unchanged files.  Only meaningful with --deep",
    )

    shoot_p = sub.add_parser(
        "shootout",
        help="every registered policy x prefetcher combo on one app, ranked",
    )
    shoot_p.add_argument("app", nargs="?", default="SRD",
                         help="benchmark abbreviation (default: SRD)")
    shoot_p.add_argument("--rate", type=float, default=0.5,
                         help="oversubscription rate (default: 0.5)")
    shoot_p.add_argument("--scale", type=float, default=1.0,
                         help="footprint scale factor")
    shoot_p.add_argument("--seed", type=int, default=None)
    shoot_p.add_argument("--jobs", "-j", type=int, default=None,
                         help="parallel workers (default: serial)")
    shoot_p.add_argument(
        "--quick", action="store_true",
        help="CI mode: cap the footprint scale at 0.25",
    )
    shoot_p.add_argument(
        "--cache-dir", default=None,
        help="result cache directory (default: $REPRO_CACHE_DIR or "
             "~/.cache/repro-cppe)",
    )
    shoot_p.add_argument("--no-cache", action="store_true",
                         help="bypass the persistent result cache")
    shoot_p.add_argument(
        "--keep-going", action="store_true",
        help="tolerate individual combo failures (they are listed in the "
             "table notes instead of aborting the batch)",
    )
    shoot_p.add_argument("--json", action="store_true",
                         help="emit the ranked table and cache traffic as "
                              "JSON (includes new_simulations/cached)")

    comp_p = sub.add_parser(
        "components",
        help="inspect the component registries (policies, prefetchers, "
             "setups, workloads)",
    )
    comp_sub = comp_p.add_subparsers(dest="components_command", required=True)
    comp_list = comp_sub.add_parser("list", help="list registered components")
    comp_list.add_argument("--kind", choices=registry_mod.KINDS, default=None,
                           help="restrict to one registry kind")
    comp_list.add_argument("--json", action="store_true")
    comp_desc = comp_sub.add_parser(
        "describe", help="one component's builder, parameters and "
                         "fingerprint fields")
    comp_desc.add_argument("kind", choices=registry_mod.KINDS)
    comp_desc.add_argument("name")
    comp_desc.add_argument("--json", action="store_true")

    serve_p = sub.add_parser(
        "serve",
        help="run the always-on experiment service (HTTP submit/queue/stream)",
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=8765)
    serve_p.add_argument(
        "--state-dir", default="service-state",
        help="job snapshot directory; a restarted service resumes the "
             "queue found here (default: ./service-state)",
    )
    serve_p.add_argument("--jobs", "-j", type=int, default=1,
                         help="worker processes per batch (default: 1)")
    serve_p.add_argument(
        "--cache-dir", default=None,
        help="result cache directory (default: $REPRO_CACHE_DIR or "
             "~/.cache/repro-cppe)",
    )
    serve_p.add_argument("--no-cache", action="store_true",
                         help="bypass the persistent result cache")
    serve_p.add_argument(
        "--timeout-s", type=float, default=None,
        help="reap a batch's workers after this long without progress",
    )
    serve_p.add_argument("--retries", type=int, default=2,
                         help="broken-pool rebuild attempts (default: 2)")

    submit_p = sub.add_parser(
        "submit", help="submit a batch to a running experiment service"
    )
    submit_p.add_argument("apps", nargs="*",
                          help="benchmark abbreviations (one spec each)")
    submit_p.add_argument("--url", default="http://127.0.0.1:8765",
                          help="service base URL")
    submit_p.add_argument("--setup", default="cppe", type=_setup_arg,
                          metavar="SETUP",
                          help=_setup_help("setup for every spec"))
    submit_p.add_argument("--rate", type=float, default=0.5,
                          help="oversubscription rate (>= 1 disables)")
    submit_p.add_argument("--scale", type=float, default=1.0)
    submit_p.add_argument("--seed", type=int, default=None)
    submit_p.add_argument("--tenant", default="default")
    submit_p.add_argument("--priority", type=int, default=0)
    submit_p.add_argument(
        "--spec-file", metavar="PATH", default=None,
        help="read the full submission payload from this JSON file "
             "('-' = stdin) instead of building it from flags",
    )
    submit_p.add_argument("--no-wait", action="store_true",
                          help="return immediately after enqueueing")
    submit_p.add_argument("--json", action="store_true",
                          help="print the final status view as JSON")

    status_p = sub.add_parser(
        "status", help="query a running experiment service"
    )
    status_p.add_argument("job", nargs="?", default=None,
                          help="batch id (omit to list all batches)")
    status_p.add_argument("--url", default="http://127.0.0.1:8765")
    status_p.add_argument("--events", action="store_true",
                          help="print the batch's NDJSON event log")
    status_p.add_argument("--follow", action="store_true",
                          help="with --events: stream until the batch ends")
    status_p.add_argument("--json", action="store_true")

    cache_p = sub.add_parser("cache", help="inspect or clear the result cache")
    cache_sub = cache_p.add_subparsers(dest="cache_command", required=True)
    for cmd, help_text in (
        ("stats", "entry count, size on disk, hit/miss counters"),
        ("clear", "delete every cached result"),
    ):
        p = cache_sub.add_parser(cmd, help=help_text)
        p.add_argument("--cache-dir", default=None)
        if cmd == "stats":
            p.add_argument("--json", action="store_true")

    return parser


def _cmd_list() -> int:
    rows = [
        [s.abbr, s.full_name, s.suite, s.pattern_type, s.footprint_pages,
         s.generator, s.distribution]
        for s in BENCHMARKS.values()
    ]
    print(
        render_table(
            ["abbr", "name", "suite", "type", "pages", "generator", "mapping"],
            rows,
            title="Workload suite (Table II, footprints scaled; see DESIGN.md)",
        )
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    rate = None if args.rate >= 1.0 else args.rate
    result = run_one(
        RunSpec(args.app, args.setup, rate, scale=args.scale, seed=args.seed),
    )
    if args.json:
        payload = {
            "workload": result.workload,
            "setup": args.setup,
            "oversubscription": rate,
            "crashed": result.crashed,
            **result.stats.summary(),
        }
        print(json.dumps(payload, indent=2))
    else:
        rows = sorted(result.stats.summary().items())
        print(render_table(["metric", "value"], rows, title=result.label()))
    if args.baseline:
        base = run_one(
            RunSpec(args.app, args.baseline, rate, scale=args.scale,
                    seed=args.seed),
        )
        print(f"speedup over {args.baseline}: "
              f"{result.speedup_over(base):.2f}x")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    kwargs = {"scale": args.scale}
    if args.apps:
        kwargs["apps"] = args.apps
    print(_FIGURES[args.name](**kwargs).render())
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    kwargs = {"scale": args.scale}
    if args.apps:
        if args.name.startswith("sensitivity"):
            print("note: --apps is ignored for sensitivity studies",
                  file=sys.stderr)
        else:
            kwargs["apps"] = args.apps
    print(_TABLES[args.name](**kwargs).render())
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    rate = None if args.rate >= 1.0 else args.rate
    rows = []
    for app in BENCHMARKS:
        base = run_one(RunSpec(app, "baseline", rate, scale=args.scale))
        cand = run_one(RunSpec(app, args.setup, rate, scale=args.scale))
        if base.crashed or cand.crashed:
            rows.append([app, BENCHMARKS[app].pattern_type, None,
                         cand.stats.final_strategy])
        else:
            rows.append([app, BENCHMARKS[app].pattern_type,
                         cand.speedup_over(base), cand.stats.final_strategy])
        print(f"\r{len(rows)}/{len(BENCHMARKS)} done", end="", file=sys.stderr)
    print(file=sys.stderr)
    valid = [r[2] for r in rows if r[2] is not None]
    rows.append(["(mean)", "", sum(valid) / len(valid), ""])
    print(
        render_table(
            ["app", "type", f"{args.setup} speedup vs baseline", "strategy"],
            rows,
            title=f"suite at {args.rate:.0%} oversubscription",
        )
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .workloads.suite import make_workload
    from .workloads.trace_io import profile_trace, save_trace

    if args.trace_dir:
        return _traced_run(args)
    workload = make_workload(args.app, scale=args.scale)
    if args.save:
        path = save_trace(workload, args.save)
        print(f"wrote {workload.num_accesses} accesses to {path}")
        return 0
    profile = profile_trace(workload)
    rows = sorted(profile.summary().items())
    print(render_table(["property", "value"], rows,
                       title=f"trace profile: {args.app}"))
    print(f"working set per quarter: {profile.quarter_working_sets}")
    return 0


def _traced_run(args: argparse.Namespace) -> int:
    """Run one simulation with the observability layer on and export the
    trace under ``--trace-dir`` in the requested format(s)."""
    from .config import SimConfig
    from .obs import (
        INTERVAL_COLUMNS,
        Observability,
        interval_rows,
        write_chrome_trace,
        write_intervals,
        write_jsonl,
    )

    rate = None if args.rate >= 1.0 else args.rate
    spec = RunSpec(args.app, args.setup, rate, scale=args.scale,
                   seed=args.seed)
    obs = Observability.enabled_()
    result = run_one(spec, obs=obs)

    out_dir = Path(args.trace_dir)
    events = obs.tracer.events
    clock_hz = SimConfig().uvm.clock_hz
    written = []
    if args.format in ("jsonl", "all"):
        written.append(write_jsonl(events, out_dir / "trace.jsonl"))
    if args.format in ("chrome", "all"):
        written.append(
            write_chrome_trace(events, out_dir / "trace.chrome.json",
                               clock_hz=clock_hz)
        )
    if args.format in ("intervals", "all"):
        written.append(write_intervals(events, out_dir / "intervals.tsv"))

    rows = [
        [row[c] for c in INTERVAL_COLUMNS if c != "run"]
        for row in interval_rows(events)
    ]
    if rows:
        print(render_table(
            [c for c in INTERVAL_COLUMNS if c != "run"], rows,
            title=f"intervals: {result.label()}",
        ))
    counts = obs.tracer.kind_counts()
    print(render_table(
        ["event kind", "count"], sorted(counts.items()),
        title=f"{len(events)} trace events"
        + (" (crashed run)" if result.crashed else ""),
    ))
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    import math

    from .analysis.adaptive import AdaptiveConfig, AdaptiveSweep
    from .analysis.sweep import (
        DEFAULT_RATES,
        capacity_sweep,
        crash_rate,
        find_knee,
    )

    driver = None
    if args.adaptive:
        overrides = {"knee_threshold": args.knee_threshold}
        if args.budget is not None:
            overrides["budget"] = args.budget
        if args.tolerance is not None:
            overrides["tolerance"] = args.tolerance
        if args.seed_rates:
            overrides["seed_rates"] = tuple(args.seed_rates)
        driver = AdaptiveSweep(
            args.app, args.setup, scale=args.scale, jobs=args.jobs,
            crash_budget_factor=args.crash_budget_factor,
            adaptive=AdaptiveConfig(**overrides),
        )
        sweep = driver.run()
    else:
        rates = tuple(args.rates) if args.rates else DEFAULT_RATES
        sweep = capacity_sweep(args.app, args.setup, rates=rates,
                               scale=args.scale, jobs=args.jobs,
                               crash_budget_factor=args.crash_budget_factor)
    knee = find_knee(sweep, args.knee_threshold)
    model_knee = driver.knee_estimate() if driver is not None else None

    if args.json:
        payload = {
            "app": sweep.app,
            "setup": sweep.setup,
            "adaptive": bool(args.adaptive),
            "rounds": sweep.rounds,
            "converged": sweep.converged,
            "simulations": sweep.simulations(),
            "new_simulations": (
                driver.new_simulations if driver is not None else None
            ),
            "cached": driver.cached if driver is not None else None,
            "knee_threshold": args.knee_threshold,
            "knee": knee,
            "model_knee": model_knee,
            "crash_rate": crash_rate(sweep),
            "points": [
                {
                    "rate": p.rate,
                    # A crashed run's cycle ratio is meaningless: nan in the
                    # API, null on the wire (nan is not valid JSON).
                    "slowdown": None if math.isnan(p.slowdown) else p.slowdown,
                    "cycles": p.cycles,
                    "far_faults": p.far_faults,
                    "chunks_evicted": p.chunks_evicted,
                    "crashed": p.crashed,
                }
                for p in sweep.points
            ],
            "failures": sweep.failures,
        }
        print(json.dumps(payload, indent=2))
        return 0

    rows = [
        [f"{p.rate * 100:g}%",
         "crashed" if p.crashed else p.slowdown,
         p.far_faults, p.chunks_evicted]
        for p in sweep.points
    ]
    print(render_table(
        ["capacity", "slowdown", "faults", "evictions"],
        rows,
        title=f"{args.app} under {args.setup}: slowdown vs capacity",
    ))
    if driver is not None:
        status = "converged" if sweep.converged else "budget exhausted"
        print(f"adaptive: {status} after {sweep.rounds} round(s), "
              f"{sweep.simulations()} simulations "
              f"({driver.new_simulations} new, {driver.cached} cached)")
    if knee is None:
        print(f"no knee above {args.knee_threshold:.1f}x within tested rates")
    else:
        print(f"working-set knee (slowdown >= {args.knee_threshold:.1f}x) "
              f"at {knee:.0%} capacity")
    if model_knee is not None:
        print(f"model knee estimate: {model_knee:.1%} capacity")
    return 0


def _select_cache(cache_dir: Optional[str], no_cache: bool = False) -> None:
    """Install the cache the command line asked for as the active one."""
    if no_cache:
        cache_mod.set_active_cache(None)
    elif cache_dir:
        cache_mod.set_active_cache(cache_mod.ResultCache(cache_dir))


def _cmd_regen(args: argparse.Namespace) -> int:
    from .errors import WorkerFailure
    from .harness.faults import FaultTolerance, render_failure_summary
    from .harness.parallel import stderr_progress

    _select_cache(args.cache_dir, args.no_cache)
    regenerators = {**_FIGURES, **_TABLES}
    names = sorted(regenerators) if "all" in args.artifacts else args.artifacts
    active = cache_mod.get_active_cache()
    # One shared policy object: outcomes accumulate across every artifact,
    # so the batch-end summary covers the whole invocation.
    fault_tolerance = None
    if args.keep_going or args.retries != 2 or args.timeout_s is not None:
        fault_tolerance = FaultTolerance(
            keep_going=args.keep_going,
            retries=args.retries,
            timeout_s=args.timeout_s,
        )
    for name in names:
        before_hits, before_stores = (
            (active.hits, active.stores) if active else (0, 0)
        )
        # Harness-side wall clock: feeds the per-batch timing line on stderr
        # only, never simulation state (boundary: devtools.boundary, REPRO102).
        started = time.time()
        kwargs = dict(scale=args.scale, jobs=args.jobs,
                      progress=stderr_progress(name),
                      fault_tolerance=fault_tolerance)
        if args.apps:
            if name.startswith("sensitivity"):
                print(f"note: --apps is ignored for {name}", file=sys.stderr)
            else:
                kwargs["apps"] = args.apps
        try:
            print(regenerators[name](**kwargs).render())
        except WorkerFailure as failure:
            if fault_tolerance is None or not fault_tolerance.keep_going:
                raise
            print(f"[{name}] FAILED: {failure.label}: {failure.exc_type}",
                  file=sys.stderr)
            continue
        batch = f"[{name}] {time.time() - started:.1f}s"
        if active:
            batch += (
                f", {active.stores - before_stores} new simulations, "
                f"{active.hits - before_hits} disk-cache hits"
            )
        print(batch, file=sys.stderr)
    if fault_tolerance is not None and fault_tolerance.outcomes:
        failed = fault_tolerance.failures()
        if failed:
            print(render_failure_summary(fault_tolerance.outcomes),
                  file=sys.stderr)
            return 1
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .devtools import all_rules, run_lint

    if args.list_rules:
        rows = [[cls.rule_id, cls.title, cls.rationale] for cls in all_rules()]
        print(render_table(["rule", "title", "rationale"], rows,
                           title="repro lint rule catalogue (see LINTING.md)"))
        return 0
    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"repro lint: no such path(s): {', '.join(missing)}",
              file=sys.stderr)
        return 2
    report = run_lint(
        args.paths, deep=args.deep, callgraph_cache=args.callgraph_cache
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        for finding in report.findings:
            print(finding.render())
        summary = (
            f"{len(report.findings)} finding(s) in "
            f"{report.files_checked} file(s)"
        )
        if args.deep:
            summary += (
                f" [deep: {report.summaries_extracted} summarised, "
                f"{report.summaries_from_cache} from cache]"
            )
        print(summary if report.findings else f"clean: {summary}",
              file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_shootout(args: argparse.Namespace) -> int:
    from .harness.faults import FaultTolerance
    from .harness.parallel import stderr_progress

    if not 0.0 < args.rate <= 1.0:
        print(f"repro shootout: --rate must be in (0, 1], got {args.rate}",
              file=sys.stderr)
        return 2
    _select_cache(args.cache_dir, args.no_cache)
    scale = min(args.scale, 0.25) if args.quick else args.scale
    fault_tolerance = (FaultTolerance(keep_going=True)
                       if args.keep_going else None)
    result = shootout_mod.run_shootout(
        args.app,
        rate=args.rate,
        scale=scale,
        seed=args.seed,
        jobs=args.jobs,
        progress=None if args.json else stderr_progress("combos"),
        fault_tolerance=fault_tolerance,
    )
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(result.render())
        print(f"{result.combos} combos: {result.new_simulations} new "
              f"simulations, {result.cached} cached", file=sys.stderr)
    return 1 if result.failed else 0


def _registration_dict(reg: registry_mod.Registration) -> dict:
    payload = {
        "kind": reg.kind,
        "name": reg.name,
        "origin": reg.origin,
        "plugin": reg.plugin,
        "doc": reg.doc,
        "params": dict(reg.params_schema),
        "fingerprint_fields": list(reg.fingerprint_fields),
    }
    if reg.kind == "setup":
        policy, prefetcher = registry_mod.setup_components(reg.name)
        payload["policy"] = policy
        payload["prefetcher"] = prefetcher
    return payload


def _cmd_components(args: argparse.Namespace) -> int:
    kinds = (args.kind,) if getattr(args, "kind", None) else registry_mod.KINDS
    if args.components_command == "list":
        if args.json:
            payload = {
                kind: [_registration_dict(reg)
                       for reg in registry_mod.items(kind)]
                for kind in kinds
            }
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        rows = []
        for kind in kinds:
            for reg in registry_mod.items(kind):
                rows.append([kind, reg.name,
                             "plugin" if reg.plugin else "built-in",
                             reg.origin, reg.doc])
        print(render_table(
            ["kind", "name", "source", "origin", "description"], rows,
            title="registered components (repro.registry)",
        ))
        return 0
    try:
        reg = registry_mod.get(args.kind, args.name)
    except ConfigError as exc:
        print(f"repro components: {exc}", file=sys.stderr)
        return 2
    payload = _registration_dict(reg)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    rows = [[k, v] for k, v in sorted(payload.items()) if k != "params"]
    for param, doc in sorted(payload["params"].items()):
        rows.append([f"param: {param}", doc])
    print(render_table(["property", "value"], rows,
                       title=f"{args.kind} {args.name!r}"))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import ExperimentService, ServiceConfig
    from .service.server import serve

    _select_cache(args.cache_dir, args.no_cache)
    service = ExperimentService(
        ServiceConfig(
            state_dir=args.state_dir,
            jobs=args.jobs,
            use_cache=not args.no_cache,
            fault_retries=args.retries,
            spec_timeout_s=args.timeout_s,
        )
    )
    print(
        f"repro service on http://{args.host}:{args.port} "
        f"(state: {args.state_dir}, jobs: {args.jobs})",
        file=sys.stderr,
    )
    serve(service, host=args.host, port=args.port)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from .service.client import ServiceClient

    if args.spec_file:
        if args.spec_file == "-":
            payload = json.load(sys.stdin)
        else:
            with open(args.spec_file, encoding="utf-8") as handle:
                payload = json.load(handle)
    else:
        if not args.apps:
            print("repro submit: give APP names or --spec-file",
                  file=sys.stderr)
            return 2
        payload = {
            "specs": [
                {
                    "app": app,
                    "setup": args.setup,
                    "oversubscription": args.rate,
                    "scale": args.scale,
                    "seed": args.seed,
                }
                for app in args.apps
            ],
            "tenant": args.tenant,
            "priority": args.priority,
        }
    client = ServiceClient(args.url)
    view = client.submit(payload)
    job_id = view["job"]
    print(f"queued {job_id} ({len(view['specs'])} spec(s))", file=sys.stderr)
    if not args.no_wait:
        view = client.wait(job_id)
    if args.json:
        print(json.dumps(view, indent=2, sort_keys=True))
    else:
        _print_status_view(view)
    return 0 if view["state"] in ("queued", "running", "done") else 1


def _print_status_view(view: dict) -> None:
    rows = [
        [
            entry["label"],
            entry["status"],
            entry["retries"],
            (entry["result"] or {}).get("total_cycles"),
            entry["error"] or "",
        ]
        for entry in view["specs"]
    ]
    print(render_table(
        ["spec", "status", "retries", "cycles", "error"],
        rows,
        title=f"batch {view['job']}: {view['state']}",
    ))
    stats = view.get("stats")
    if stats:
        print(
            f"batch stats: {stats['simulated']} simulated, "
            f"{stats['memo_hits']} memo hits, {stats['cache_hits']} "
            f"cache hits, {stats['failed']} failed, "
            f"{stats['timed_out']} timed out",
            file=sys.stderr,
        )


def _cmd_status(args: argparse.Namespace) -> int:
    from .service.client import ServiceClient

    client = ServiceClient(args.url)
    if args.job is None:
        batches = client.list_batches()["batches"]
        if args.json:
            print(json.dumps(batches, indent=2, sort_keys=True))
        else:
            rows = [
                [b["job"], b["state"], b["tenant"], b["priority"], b["specs"]]
                for b in batches
            ]
            print(render_table(
                ["batch", "state", "tenant", "priority", "specs"],
                rows, title=f"{len(batches)} batch(es)",
            ))
        return 0
    if args.events:
        for event in client.events(args.job, follow=args.follow):
            print(json.dumps(event, sort_keys=True))
        return 0
    view = client.status(args.job)
    if args.json:
        print(json.dumps(view, indent=2, sort_keys=True))
    else:
        _print_status_view(view)
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    _select_cache(args.cache_dir)
    active = cache_mod.get_active_cache()
    if active is None:
        print("result cache is disabled (REPRO_CACHE=0)", file=sys.stderr)
        return 1
    if args.cache_command == "stats":
        stats = active.stats()
        if args.json:
            print(json.dumps(stats, indent=2, sort_keys=True))
        else:
            print(render_table(
                ["property", "value"], sorted(stats.items()),
                title=f"result cache at {active.root}",
            ))
        return 0
    removed = active.clear()
    print(f"removed {removed} cached results from {active.root}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "figure":
        return _cmd_figure(args)
    if args.command == "table":
        return _cmd_table(args)
    if args.command == "suite":
        return _cmd_suite(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "regen":
        return _cmd_regen(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "shootout":
        return _cmd_shootout(args)
    if args.command == "components":
        return _cmd_components(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "status":
        return _cmd_status(args)
    if args.command == "cache":
        return _cmd_cache(args)
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
