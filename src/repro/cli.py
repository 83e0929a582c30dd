"""Command-line interface: run the paper's studies from a shell.

Examples
--------
::

    python -m repro.cli physics --duty 0.7
    python -m repro.cli adder --utilization 0.21
    python -m repro.cli regfile --suites specint2000 office
    python -m repro.cli caches --size-kb 16 --ways 8
    python -m repro.cli penelope --length 5000
    python -m repro.cli list-suites
    python -m repro.cli sweep caches --grid ratio=0.4,0.5,0.6 \\
        --grid ways=4,8 --workers 4
    python -m repro.cli results --study caches
    python -m repro.cli show-config --study penelope > study.json
    python -m repro.cli run --config study.json --verbose
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro import __version__
from repro.analysis import format_series, format_table
from repro.workloads import suite_names


def _add_observability_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", action="store_true",
        help="record execution spans; writes spans.jsonl and a "
             "Perfetto-loadable trace.json next to the store",
    )
    parser.add_argument(
        "--progress", default=None, choices=("line", "json", "none"),
        help="per-point progress rendering (default: line when "
             "--verbose, else none)",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress plan, progress, summary and footer output",
    )


def _add_workload_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--suites", nargs="+", default=["specint2000", "office"],
        choices=suite_names(), help="Table 1 suites to simulate",
    )
    parser.add_argument("--length", type=int, default=5000,
                        help="uops per trace")
    parser.add_argument("--seed", type=int, default=0)


def cmd_physics(args: argparse.Namespace) -> int:
    from repro.nbti.physics import ReactionDiffusionModel, steady_state_fill

    model = ReactionDiffusionModel()
    model.run_duty_cycle(args.duty, period=10.0, cycles=args.cycles)
    print(f"duty {args.duty:.0%}: transient fill {model.fill:.4f}, "
          f"steady state {steady_state_fill(args.duty):.4f}")
    series = {f"{d / 10:.0%}": steady_state_fill(d / 10)
              for d in range(0, 11)}
    print(format_series(series, title="steady-state N_IT fill vs duty",
                        percent=False))
    return 0


def cmd_adder(args: argparse.Namespace) -> int:
    from repro.circuits import build_ladner_fischer_adder
    from repro.core.combinational import (
        adder_guardband_study,
        search_best_pair,
    )

    adder = build_ladner_fischer_adder(width=args.width)
    print(f"built {args.width}-bit Ladner-Fischer adder: "
          f"{adder.gate_count} gates / {adder.pmos_count} PMOS")
    search = search_best_pair(adder)
    print(f"best idle pair: {search.best_pair} "
          f"(narrow fully-stressed fraction "
          f"{search.fractions()[search.best_pair]:.2%})")
    vectors = [(0x12345678 & ((1 << args.width) - 1), 42, 0)]
    study = adder_guardband_study(
        adder, vectors, utilizations=(args.utilization,),
        pair=search.best_pair,
    )
    print(format_series(study, title="guardband"))
    return 0


def cmd_regfile(args: argparse.Namespace) -> int:
    from repro import api
    from repro.config import MechanismSpec, ProtectionSpec
    from repro.workloads import TraceGenerator

    # ISV on both register files only; everything else unprotected.
    protection = ProtectionSpec(
        adder=MechanismSpec("none"),
        scheduler=MechanismSpec("none"),
        dl0=MechanismSpec("none"),
        dtlb=MechanismSpec("none"),
    )
    generator = TraceGenerator(seed=args.seed)
    rows = []
    for suite in args.suites:
        trace = generator.generate(suite, length=args.length)
        base = api.build_core().run(trace)
        prot = api.build_core(hooks=api.build_hooks(protection)).run(trace)
        rows.append([
            suite,
            f"{base.int_rf.worst_bias:.1%}",
            f"{prot.int_rf.worst_bias:.1%}",
            f"{base.int_rf.free_fraction:.0%}",
        ])
    print(format_table(
        ["suite", "worst bias (base)", "worst bias (ISV)", "free time"],
        rows, title="register-file ISV study (paper: 89.9% -> 48.5%)",
    ))
    return 0


def cmd_caches(args: argparse.Namespace) -> int:
    from repro import api
    from repro.config import (
        CacheGeometrySpec,
        MechanismSpec,
        SpecError,
        WorkloadSpec,
    )
    from repro.core.cache_like import run_cache_study

    try:
        config = CacheGeometrySpec(
            size_kb=args.size_kb, ways=args.ways
        ).to_cache_config()
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    streams = api.build_address_streams(WorkloadSpec(
        suites=tuple(args.suites), length=args.length * 3, seed=args.seed,
    ))
    rows = []
    for mechanism in (
        MechanismSpec("set_fixed", {"ratio": 0.5}),
        MechanismSpec("line_fixed", {"ratio": 0.5}),
        MechanismSpec("line_dynamic", {"ratio": 0.6, "warmup": 1000,
                                       "test_window": 1000,
                                       "period": 6000}),
    ):
        study = run_cache_study(
            config, lambda: api.build_scheme(mechanism), streams
        )
        rows.append([study.scheme_name, f"{study.mean_loss:.2%}",
                     f"{study.mean_inverted_ratio:.0%}"])
    print(format_table(
        ["scheme", "mean perf loss", "achieved invert ratio"],
        rows, title=f"cache inversion study on {config.name}",
    ))
    return 0


def cmd_penelope(args: argparse.Namespace) -> int:
    from repro import api
    from repro.config import WorkloadSpec

    workload_spec = WorkloadSpec(
        suites=tuple(args.suites), length=args.length,
        traces_per_suite=1, seed=args.seed,
    )
    workload = api.build_workload(workload_spec)
    report = api.build_penelope(seed=args.seed).evaluate(workload)
    rows = [
        [b.name, f"{b.guardband:.1%}", f"{b.efficiency:.2f}"]
        for b in report.block_costs
    ]
    rows.append(["penelope processor",
                 f"{report.processor.guardband:.1%}",
                 f"{report.efficiency:.2f}"])
    rows.append(["baseline (full guardband)", "20.0%",
                 f"{report.baseline_efficiency:.2f}"])
    print(format_table(["block", "guardband", "NBTIefficiency"], rows,
                       title="Penelope whole-processor study"))
    print(f"combined CPI {report.combined_cpi:.4f}; "
          f"INT bias {report.int_rf_bias[0]:.2f}->"
          f"{report.int_rf_bias[1]:.2f}")
    return 0


def cmd_list_suites(args: argparse.Namespace) -> int:
    from repro.workloads import SUITE_PROFILES, TABLE1_TRACE_COUNTS

    rows = [
        [name, str(TABLE1_TRACE_COUNTS[name]),
         SUITE_PROFILES[name].description]
        for name in suite_names()
    ]
    rows.append(["total", str(sum(TABLE1_TRACE_COUNTS.values())), ""])
    print(format_table(["suite", "traces", "description"], rows,
                       title="Table 1 benchmark suites"))
    return 0


def _store_dir(path: Optional[str]) -> str:
    """Store directory: ``--store`` or the default one."""
    from repro.experiments import default_store_dir

    return path or default_store_dir()


def _sweep_store_dir(path: Optional[str]) -> str:
    """The store directory a sweep runs into.

    A regular file (such as a legacy flat ``store.jsonl``) is refused
    rather than opened as a directory or written into, and so is a
    ``.jsonl`` path that does not exist yet: it names a flat store file,
    and the sweep would create a directory under that name.
    """
    directory = _store_dir(path)
    if os.path.isfile(directory):
        raise ValueError(
            f"--store {directory!r} is a file, not a store directory; "
            f"import a flat JSONL store with `repro store migrate "
            f"{directory} DIR` and pass --store DIR")
    if directory.endswith(".jsonl") and not os.path.exists(directory):
        suggested = directory[:-len(".jsonl")]
        raise ValueError(
            f"--store {directory!r} names a flat JSONL file, but a sweep "
            f"store is a directory; pass a directory path such as "
            f"--store {suggested} (a flat store is imported with "
            f"`repro store migrate FILE {suggested}`)")
    return directory


def _run_sweep_and_report(spec, *, workers, store_dir, verbose, group_by,
                          metrics_arg, agg, intro, title,
                          progress_mode=None, quiet=False,
                          trace=False, resume=None,
                          batch_size=None, lease_ttl=5.0) -> int:
    """Execute an expanded sweep and print plan, progress, summary,
    and footer — shared by ``sweep``, ``sweep --resume`` and ``run``.

    ``store_dir=None`` is ``--no-store``: a scratch store, removed
    after the run."""
    from repro.experiments import default_store_dir, format_summary
    from repro.experiments.runner import EVENTS_NAME
    from repro.fabric.runner import FabricRunner
    from repro.obs.log import EventLog
    from repro.obs.progress import SweepProgress

    # --quiet beats everything; otherwise an explicit --progress mode
    # beats the legacy --verbose spelling (which means "line").
    mode = ("none" if quiet
            else progress_mode or ("line" if verbose else "none"))
    progress = SweepProgress(spec.size, mode=mode)
    # The event log, manifests and trace files land beside the store
    # directory (next to the default one for --no-store runs), so a
    # sweep that only reads the store writes nothing into it.
    obs_dir = os.path.dirname(os.path.abspath(
        store_dir if store_dir is not None else default_store_dir()))
    trace_json = os.path.join(obs_dir, "trace.json")
    spans_path = os.path.join(obs_dir, "spans.jsonl")
    if trace:
        from repro.obs.trace import TRACER

        TRACER.enable()
    human = not quiet and mode != "json"

    runner = FabricRunner(
        store_dir, workers=workers, batch_size=batch_size,
        lease_ttl=lease_ttl, progress=progress.update,
        log=(EventLog(path=os.path.join(obs_dir, EVENTS_NAME))
             if store_dir is not None else None),
        trace_path=trace_json if trace else None,
    )
    progress.begin(
        run_id=resume if resume is not None else runner.run_id,
        store=runner.store.directory if store_dir is not None else None)
    if human:
        print(f"{intro}: {spec.size} points over axes "
              f"{', '.join(spec.axis_names())} ({workers} worker"
              f"{'s' if workers != 1 else ''})")
    try:
        outcome = (runner.resume(resume) if resume is not None
                   else runner.run(spec))
    finally:
        runner.close()

    if trace:
        from repro.obs.trace import (
            TRACER,
            export_chrome_trace,
            save_spans,
        )

        records = TRACER.records()
        save_spans(spans_path, records)
        events = export_chrome_trace(records, trace_json)
        if human:
            print(f"trace: {events} events -> {trace_json} "
                  f"(raw spans: {spans_path})")

    metrics = metrics_arg.split(",") if metrics_arg else ()
    if outcome.results and metrics:
        from repro.experiments import metric_names

        known_metrics = set(metric_names(outcome.results))
        bad = [m for m in metrics if m not in known_metrics]
        if bad:
            print(f"error: unknown metric(s) {', '.join(bad)}; "
                  f"available: {', '.join(sorted(known_metrics))}",
                  file=sys.stderr)
            return 2
    if mode == "json":
        import json

        print(json.dumps({
            "event": "summary",
            "points": len(outcome),
            "cache_hits": outcome.cache_hits,
            "executed": outcome.executed,
            "wall_time": round(outcome.wall_time, 6),
            "run_id": outcome.run_id,
            "manifest": outcome.manifest_path,
        }, sort_keys=True))
        return 0
    if quiet:
        return 0
    print(format_summary(
        outcome.results, group_by=group_by,
        metrics=metrics,
        agg=agg,
        title=title,
    ))
    print(f"{len(outcome)} points in {outcome.wall_time:.2f}s: "
          f"{outcome.cache_hits} cache hits, "
          f"{outcome.executed} executed"
          + ("" if store_dir is not None else " (store disabled)"))
    slowest = outcome.slowest()
    if slowest is not None:
        print(f"slowest point: {slowest.point.describe()} "
              f"({slowest.elapsed:.2f}s, key {slowest.point.key[:10]})")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments import (
        PointExecutionError,
        SweepSpec,
        get_study,
        parse_grid_option,
    )
    from repro.fabric.runner import FabricIncompleteError

    if args.resume is not None:
        return _cmd_sweep_resume(args)

    # Positional and --study are two spellings of the same thing
    # (`repro sweep caches` / `repro sweep --study caches`).
    study_name = args.study if args.study is not None else args.study_opt
    if (args.study is not None and args.study_opt is not None
            and args.study != args.study_opt):
        print(f"error: positional study {args.study!r} conflicts with "
              f"--study {args.study_opt!r}; pass one of them",
              file=sys.stderr)
        return 2
    if study_name is None:
        print("error: pass a study to sweep (positional or --study); "
              "see `repro sweep --help` for the registered studies",
              file=sys.stderr)
        return 2
    try:
        study = get_study(study_name)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    try:
        grid = {}
        for option in args.grid or []:
            key, values = parse_grid_option(option)
            if key in grid:
                raise ValueError(
                    f"grid axis {key!r} given twice; list every value "
                    f"in one option: --grid {key}=v1,v2"
                )
            grid[key] = values
        base = {"length": args.length, "seed": args.seed}
        if "suite" in study.defaults:
            if "suite" in grid:
                if args.suites is not None:
                    raise ValueError(
                        "--suites conflicts with --grid suite=...; "
                        "use one of them"
                    )
            else:
                grid["suite"] = list(args.suites or suite_names())
        elif "suites" in study.defaults:
            if "suites" in grid:
                # --grid suites=a,b would sweep one SINGLE-program
                # point per value — silently dropping the interference
                # this study exists to measure.
                raise ValueError(
                    f"study {study_name!r} takes the whole program set "
                    f"as one point; --grid suites=... would sweep "
                    f"single-program points instead — pass the "
                    f"programs via --suites"
                )
            if args.suites is not None:
                # The whole suite list is ONE point parameter (the
                # programs sharing the cache), not a per-suite axis.
                base["suites"] = list(args.suites)
        spec = SweepSpec(study_name, base=base, grid=grid)

        # Group keys are fully known before execution (defaults + base
        # + grid); rejecting typos here saves the whole sweep's compute.
        group_by = (args.group_by.split(",") if args.group_by
                    else spec.axis_names())
        known_params = set(study.defaults) | set(base) | set(grid)
        bad_keys = [k for k in group_by if k not in known_params]
        if bad_keys:
            raise ValueError(
                f"unknown --group-by key(s) {', '.join(bad_keys)}; "
                f"available: {', '.join(sorted(known_params))}"
            )

        return _run_sweep_and_report(
            spec,
            workers=args.workers,
            store_dir=(None if args.no_store
                       else _sweep_store_dir(args.store)),
            verbose=args.verbose,
            group_by=group_by,
            metrics_arg=args.metrics,
            agg=args.agg,
            intro=f"sweep {study_name!r}",
            title=f"sweep {study_name}: {study.description}",
            progress_mode=args.progress,
            quiet=args.quiet,
            trace=args.trace,
            batch_size=args.batch_size,
            lease_ttl=args.lease_ttl,
        )
    except FabricIncompleteError as exc:
        # The run stopped with durable state behind it — distinct exit
        # code so scripts can branch straight to `sweep --resume`.
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, PointExecutionError) as exc:
        # Bad grid syntax, unknown scheme value, unknown suite passed
        # via --grid suite=..., workers < 1, a study raising inside a
        # point (PointExecutionError names the point and params), ...
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


def _cmd_sweep_resume(args: argparse.Namespace) -> int:
    """``repro sweep --resume RUN_ID``: re-drive an interrupted run."""
    from repro.experiments import PointExecutionError, get_study
    from repro.fabric.journal import load_journal
    from repro.fabric.runner import FabricIncompleteError

    try:
        directory = _sweep_store_dir(args.store)
        journal = load_journal(directory, args.resume)
        study = get_study(journal.study)
        spec = journal.spec()
        if args.study is not None and args.study != journal.study:
            raise ValueError(
                f"--resume {args.resume} was planned for study "
                f"{journal.study!r}, not {args.study!r}"
            )
        return _run_sweep_and_report(
            spec,
            workers=args.workers,
            store_dir=directory,
            verbose=args.verbose,
            group_by=spec.axis_names(),
            metrics_arg=args.metrics,
            agg=args.agg,
            intro=f"resume {journal.study!r} run {args.resume}",
            title=f"sweep {journal.study}: {study.description} "
                  f"(resumed {args.resume})",
            progress_mode=args.progress,
            quiet=args.quiet,
            trace=args.trace,
            resume=args.resume,
            batch_size=args.batch_size,
            lease_ttl=args.lease_ttl,
        )
    except FabricIncompleteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (FileNotFoundError, ValueError, KeyError,
            PointExecutionError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


def cmd_run(args: argparse.Namespace) -> int:
    """Run a serialized StudySpec (JSON) through the experiment engine."""
    from repro import api
    from repro.config import SpecError
    from repro.experiments import PointExecutionError, get_study
    from repro.fabric.runner import FabricIncompleteError

    try:
        spec = api.load_study_spec(args.config)
    except OSError as exc:
        print(f"error: cannot read {args.config!r}: {exc.strerror}",
              file=sys.stderr)
        return 2
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        study = get_study(spec.study)
        sweep = api.study_sweep_spec(spec)
        return _run_sweep_and_report(
            sweep,
            workers=args.workers if args.workers else spec.workers,
            store_dir=(None if args.no_store
                       else _sweep_store_dir(args.store)),
            verbose=args.verbose,
            group_by=sweep.axis_names(),
            metrics_arg=args.metrics,
            agg=args.agg,
            intro=f"study {spec.study!r} from {args.config}",
            title=f"study {spec.study}: {study.description}",
            progress_mode=args.progress,
            quiet=args.quiet,
            trace=args.trace,
        )
    except FabricIncompleteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SpecError, ValueError, KeyError,
            PointExecutionError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


def cmd_trace(args: argparse.Namespace) -> int:
    """Work with recorded observability artefacts.

    ``repro trace export OUT`` converts a raw span file (what
    ``repro sweep --trace`` writes next to the store) into Chrome
    trace-event JSON loadable in Perfetto / ``chrome://tracing``;
    ``repro trace events`` renders the structured event log as human
    lines.
    """
    if args.action == "export":
        from repro.obs.trace import export_chrome_trace, load_spans

        if not args.output:
            print("error: pass an output path: repro trace export "
                  "run.trace.json", file=sys.stderr)
            return 2
        spans_path = args.spans or os.path.join(
            os.path.dirname(_store_dir(None)), "spans.jsonl")
        try:
            records = load_spans(spans_path)
        except OSError as exc:
            print(f"error: cannot read {spans_path!r}: {exc.strerror}",
                  file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            events = export_chrome_trace(records, args.output)
        except OSError as exc:
            print(f"error: cannot write {args.output!r}: "
                  f"{exc.strerror}", file=sys.stderr)
            return 2
        print(f"wrote {events} trace events to {args.output} "
              f"(load in Perfetto or chrome://tracing)")
        return 0

    from repro.obs.log import read_events, render_event

    events_path = args.events or os.path.join(
        os.path.dirname(_store_dir(None)), "events.jsonl")
    if getattr(args, "follow", False):
        # Follow mode tails forever (the file may not exist *yet* —
        # e.g. watching a directory a sweep is about to write into),
        # so a missing file is a wait, not an error.
        try:
            for record in read_events(events_path, level=args.level,
                                      run_id=args.run_id, follow=True):
                print(render_event(record), flush=True)
        except KeyboardInterrupt:
            return 0
        return 0
    if not os.path.exists(events_path):
        print(f"error: cannot read {events_path!r}: "
              f"No such file or directory", file=sys.stderr)
        return 2
    try:
        records = read_events(events_path, level=args.level,
                              run_id=args.run_id)
    except OSError as exc:
        print(f"error: cannot read {events_path!r}: {exc.strerror}",
              file=sys.stderr)
        return 2
    if args.limit > 0:
        records = records[-args.limit:]
    if not records:
        print(f"no events in {events_path}")
        return 0
    for record in records:
        print(render_event(record))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the sweep service (HTTP + WebSocket, DESIGN.md §11)."""
    import asyncio

    from repro.service import SweepService

    token = args.token
    if token is None and args.token_env:
        token = os.environ.get(args.token_env) or None
    directory = _store_dir(args.store)
    service = SweepService(
        directory,
        host=args.host,
        port=args.port,
        token=token,
        max_jobs=args.max_jobs,
        default_workers=args.workers,
        drain_grace=args.drain_grace,
        ready_file=args.ready_file,
        quiet=args.quiet,
    )
    try:
        return asyncio.run(service.run())
    except KeyboardInterrupt:
        return 0


def _print_provenance(store) -> None:
    """One-line header from the manifest beside the store, if any.

    Sweeps publish ``manifest.json`` next to the store directory (or
    the flat store file).  Best-effort on purpose: a missing or corrupt
    manifest must never block listing the results themselves.
    """
    from repro.obs.provenance import (
        describe_manifest,
        load_manifest,
        manifest_path_for,
    )

    path = manifest_path_for(getattr(store, "directory", store.path))
    if not os.path.exists(path):
        return
    try:
        print(describe_manifest(load_manifest(path)))
    except (OSError, ValueError):
        pass


def cmd_show_config(args: argparse.Namespace) -> int:
    """Print a study's default StudySpec as ready-to-edit JSON."""
    from repro import api

    try:
        spec = api.default_study_spec(args.study)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    print(spec.to_json())
    return 0


def cmd_bench_smoke(args: argparse.Namespace) -> int:
    """Execute every bench with scaled-down workloads (tier-2 smoke).

    ``pytest benchmarks/`` collects nothing (the files are named
    ``bench_*.py``), so without this entry point the benches only run
    when someone remembers to invoke them file by file — and rot.  The
    smoke run points pytest at the bench directory with the smoke/scale
    environment set, which shrinks every workload and relaxes the
    full-size shape assertions (see ``benchmarks/conftest.py``).
    """
    import os

    import pytest

    bench_dir = args.path
    if bench_dir is None:
        repo_root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        bench_dir = os.path.join(repo_root, "benchmarks")
    if not os.path.isdir(bench_dir):
        print(f"error: bench directory not found: {bench_dir}",
              file=sys.stderr)
        return 2
    if args.scale < 1:
        print("error: --scale must be >= 1", file=sys.stderr)
        return 2
    # Every key is assigned (or cleared) explicitly and restored after
    # the run, so repeated invocations in one process cannot inherit a
    # previous call's scale or artefact directory.
    overrides = {
        "REPRO_BENCH_SMOKE": "1",
        "REPRO_BENCH_SCALE": str(args.scale),
        "REPRO_BENCH_RESULTS_DIR": args.results_dir,
    }
    saved = {key: os.environ.get(key) for key in overrides}
    for key, value in overrides.items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value
    # bench_*.py does not match pytest's default python_files pattern
    # (the very rot this command exists to prevent), so widen it.
    pytest_args = [
        bench_dir, "-q", "-p", "no:cacheprovider",
        "-o", "python_files=bench_*.py",
    ]
    if args.only:
        pytest_args += ["-k", args.only]
    try:
        return int(pytest.main(pytest_args))
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def cmd_report(args: argparse.Namespace) -> int:
    """Render stored sweep results (or interval telemetry) as a report.

    Unlike ``repro results`` (a raw record listing), this renders the
    same aggregated view a live ``repro sweep`` prints — from the store
    alone, so any cached sweep can be re-reported without re-running
    anything.  With ``--intervals`` it instead renders an
    interval-telemetry JSON artefact (e.g. the one
    ``bench_perf_kernel.py`` emits) as per-interval bar series.
    """
    from repro.analysis import format_interval_report

    if args.intervals:
        from repro.metrics import load_interval_payload

        try:
            payload = load_interval_payload(args.intervals)
            # Render before printing: a broken output pipe (`| head`)
            # must not masquerade as a file-read error.
            rendered = format_interval_report(
                payload, metrics=args.metrics.split(",") if args.metrics
                else ())
        except OSError as exc:
            print(f"error: cannot read {args.intervals!r}: "
                  f"{exc.strerror}", file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(rendered)
        return 0

    if not args.study:
        print("error: pass --study NAME (or --intervals FILE)",
              file=sys.stderr)
        return 2
    from repro.experiments import (
        ExperimentPoint,
        PointResult,
        format_summary,
        metric_names,
    )
    from repro.fabric import open_result_store

    store = open_result_store(_store_dir(args.store))
    records = store.records(study=args.study)
    if not records:
        print(f"no stored results for study {args.study!r} in "
              f"{store.path}", file=sys.stderr)
        return 1
    _print_provenance(store)
    results = [
        PointResult(
            point=ExperimentPoint.from_dict(record.study, record.params),
            metrics=dict(record.metrics),
            cached=True,
            elapsed=record.elapsed,
        )
        for record in records
    ]
    if args.group_by:
        group_by = args.group_by.split(",")
        known = {key for result in results for key in result.params}
        bad = [k for k in group_by if k not in known]
        if bad:
            print(f"error: unknown --group-by key(s) {', '.join(bad)}; "
                  f"available: {', '.join(sorted(known))}",
                  file=sys.stderr)
            return 2
    else:
        group_by = _varying_params(results)
    metrics = args.metrics.split(",") if args.metrics else ()
    if metrics:
        known_metrics = set(metric_names(results))
        bad = [m for m in metrics if m not in known_metrics]
        if bad:
            print(f"error: unknown metric(s) {', '.join(bad)}; "
                  f"available: {', '.join(sorted(known_metrics))}",
                  file=sys.stderr)
            return 2
    print(format_summary(
        results, group_by=group_by, metrics=metrics, agg=args.agg,
        title=f"report {args.study}: {len(results)} stored points "
              f"({store.path})",
    ))
    return 0


def _varying_params(results) -> List[str]:
    """Parameters whose values differ across the results (sorted) —
    the natural grouping axes of a stored sweep."""
    seen: dict = {}
    for result in results:
        for key, value in result.params.items():
            seen.setdefault(key, set()).add(repr(value))
    return sorted(key for key, values in seen.items() if len(values) > 1)


def cmd_results(args: argparse.Namespace) -> int:
    from repro.fabric import open_result_store

    store = open_result_store(_store_dir(args.store))
    records = store.records(study=args.study)
    if args.limit > 0:
        records = records[-args.limit:]
    if not records:
        print(f"no stored results in {store.path}")
        return 0
    _print_provenance(store)
    rows = []
    for record in records:
        metrics = ", ".join(
            f"{k}={v:.4f}" if isinstance(v, float) else f"{k}={v}"
            for k, v in sorted(record.metrics.items())
        )
        params = " ".join(
            f"{k}={v}" for k, v in sorted(record.params.items())
        )
        rows.append([record.key[:10], record.study, params, metrics])
    print(format_table(
        ["key", "study", "params", "metrics"], rows,
        title=f"{len(records)} stored results ({store.path})",
    ))
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """AST invariant checks.  Exit 0 clean / 1 violations / 2 error."""
    from repro.lint import (
        LintError,
        default_rules,
        render_json,
        render_text,
        run_lint,
    )

    if args.list_rules:
        for rule in default_rules():
            print(f"{rule.id}  [{rule.severity}]  {rule.description}")
        return 0
    paths = args.paths
    if not paths:
        # default target: the installed package sources
        paths = [os.path.dirname(os.path.abspath(__file__))]
    try:
        report = run_lint(paths, rules=args.rule)
    except LintError as exc:
        print(f"lint error: {exc}", file=sys.stderr)
        return 2
    except (OSError, RecursionError) as exc:
        print(f"lint internal error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(render_json(report, strict=args.strict))
    else:
        print(render_text(report, strict=args.strict))
    return report.exit_code(strict=args.strict)


def cmd_store_info(args: argparse.Namespace) -> int:
    """Describe a sharded store: counts, layout, known runs."""
    from repro.fabric import ShardedResultStore, list_runs

    directory = _store_dir(args.store)
    try:
        store = ShardedResultStore(directory)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        stats = store.stats()
        print(f"directory: {stats['directory']}")
        print(f"schema: {stats['schema']}")
        print(f"records: {stats['records']}")
        print(f"shards: {stats['shards']}")
        print(f"bytes: {stats['bytes']}")
        if stats["skipped_lines"]:
            print(f"skipped lines: {stats['skipped_lines']}")
        runs = list_runs(directory)
        print(f"runs: {len(runs)}")
        for run_id in runs:
            print(f"  {run_id}")
    finally:
        store.close()
    return 0


def cmd_store_compact(args: argparse.Namespace) -> int:
    """Rewrite shards keeping only the live record per key."""
    from repro.fabric import ShardedResultStore

    directory = _store_dir(args.store)
    try:
        store = ShardedResultStore(directory)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        stats = store.compact()
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        store.close()
    print(f"compacted {directory}")
    print(f"records: {stats.records}")
    print(f"bytes: {stats.bytes_before} -> {stats.bytes_after} "
          f"(reclaimed {stats.reclaimed})")
    print(f"dropped lines: {stats.dropped_lines}")
    return 0


def cmd_store_migrate(args: argparse.Namespace) -> int:
    """Import a flat JSONL store into a sharded indexed store."""
    from repro.fabric import ShardedResultStore

    if not os.path.exists(args.source):
        print(f"error: flat store {args.source!r} does not exist",
              file=sys.stderr)
        return 2
    try:
        store = ShardedResultStore(args.dest, shards=args.shards)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        imported = store.import_flat_store(args.source)
        total = len(store)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        store.close()
    print(f"migrated {imported} records from {args.source} "
          f"to {store.directory}")
    print(f"records: {total}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Penelope (MICRO 2007) reproduction studies",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    physics = commands.add_parser("physics", help="NBTI physics curves")
    physics.add_argument("--duty", type=float, default=0.7)
    physics.add_argument("--cycles", type=int, default=100)
    physics.set_defaults(func=cmd_physics)

    adder = commands.add_parser("adder", help="adder aging study")
    adder.add_argument("--width", type=int, default=32)
    adder.add_argument("--utilization", type=float, default=0.21)
    adder.set_defaults(func=cmd_adder)

    regfile = commands.add_parser("regfile", help="register-file ISV study")
    _add_workload_arguments(regfile)
    regfile.set_defaults(func=cmd_regfile)

    caches = commands.add_parser("caches", help="cache inversion study")
    _add_workload_arguments(caches)
    caches.add_argument("--size-kb", type=int, default=16)
    caches.add_argument("--ways", type=int, default=8)
    caches.set_defaults(func=cmd_caches)

    penelope = commands.add_parser("penelope",
                                   help="whole-processor study")
    _add_workload_arguments(penelope)
    penelope.set_defaults(func=cmd_penelope)

    list_suites = commands.add_parser(
        "list-suites", help="list the Table 1 benchmark suites")
    list_suites.set_defaults(func=cmd_list_suites)

    # Hardcoded (not study_names()) so `repro physics` etc. don't pay
    # the experiments-subsystem import; a CLI test keeps it in sync.
    sweep = commands.add_parser(
        "sweep",
        help="expand a parameter grid and run it through the "
             "experiment engine",
        epilog="registered studies: caches, invert_ratio, multiprog, "
               "penelope, regfile, victim_policy, vmin_power",
    )
    # Validated in cmd_sweep (not argparse choices) so a typo gets the
    # same `error: unknown study ...` shape as other sweep errors.
    sweep.add_argument("study", nargs="?", default=None,
                       help="registered study to sweep")
    sweep.add_argument("--study", dest="study_opt", default=None,
                       metavar="NAME",
                       help="alternative spelling of the positional "
                            "study argument")
    sweep.add_argument(
        "--grid", action="append", metavar="KEY=V1,V2",
        help="one grid axis; repeatable (e.g. --grid ratio=0.4,0.5)",
    )
    sweep.add_argument(
        "--suites", nargs="+", default=None,
        choices=suite_names(),
        help="suite axis of the grid (default: all Table 1 suites; "
             "conflicts with --grid suite=...)",
    )
    sweep.add_argument("--length", type=int, default=6000,
                       help="trace / address-stream length per point")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--workers", type=int, default=1,
                       help="process count (1 = serial)")
    sweep.add_argument("--store", default=None, metavar="DIR",
                       help="result store directory; the event log, "
                            "manifests and trace land beside it "
                            "(default: benchmarks/results/fabric)")
    sweep.add_argument("--no-store", action="store_true",
                       help="disable the result cache for this sweep")
    sweep.add_argument("--group-by", default=None, metavar="K1,K2",
                       help="summary grouping axes (default: grid axes)")
    sweep.add_argument("--metrics", default=None, metavar="M1,M2",
                       help="metrics to show (default: all)")
    sweep.add_argument("--agg", default="mean",
                       choices=("mean", "min", "max"))
    sweep.add_argument("--verbose", action="store_true",
                       help="print one progress line per point")
    sweep.add_argument(
        "--resume", default=None, metavar="RUN_ID",
        help="resume an interrupted run from its journal "
             "(re-executes only unfinished batches)")
    sweep.add_argument("--batch-size", type=int, default=None,
                       metavar="N",
                       help="points per lease batch (default: "
                            "~4 batches per worker)")
    sweep.add_argument("--lease-ttl", type=float, default=5.0,
                       metavar="SECONDS",
                       help="lease TTL before an unrenewed "
                            "batch can be stolen (default: 5)")
    _add_observability_arguments(sweep)
    sweep.set_defaults(func=cmd_sweep)

    run = commands.add_parser(
        "run",
        help="run a declarative study config (JSON StudySpec) through "
             "the experiment engine",
        epilog="write a starting config with: repro show-config "
               "--study caches > study.json",
    )
    run.add_argument("--config", required=True, metavar="PATH",
                     help="JSON StudySpec file (see `repro show-config`)")
    run.add_argument("--workers", type=int, default=0,
                     help="process count (default: the spec's "
                          "`workers` field)")
    run.add_argument("--store", default=None, metavar="DIR",
                     help="result store directory (default: "
                          "benchmarks/results/fabric)")
    run.add_argument("--no-store", action="store_true",
                     help="disable the result cache for this run")
    run.add_argument("--metrics", default=None, metavar="M1,M2",
                     help="metrics to show (default: all)")
    run.add_argument("--agg", default="mean",
                     choices=("mean", "min", "max"))
    run.add_argument("--verbose", action="store_true",
                     help="print one progress line per point")
    _add_observability_arguments(run)
    run.set_defaults(func=cmd_run)

    show_config = commands.add_parser(
        "show-config",
        help="print a study's default declarative config as JSON",
    )
    show_config.add_argument("--study", default="penelope",
                             help="registered study (default: penelope)")
    show_config.add_argument(
        "--defaults", action="store_true",
        help="accepted for clarity; defaults are all this command prints",
    )
    show_config.set_defaults(func=cmd_show_config)

    bench_smoke = commands.add_parser(
        "bench-smoke",
        help="execute every benchmark with tiny workloads (rot check)",
    )
    bench_smoke.add_argument(
        "--scale", type=int, default=10,
        help="workload divisor applied to every bench (default 10)",
    )
    bench_smoke.add_argument(
        "--path", default=None, metavar="DIR",
        help="bench directory (default: <repo>/benchmarks)",
    )
    bench_smoke.add_argument(
        "--results-dir", default=None, metavar="DIR",
        help="artefact directory (default: benchmarks/results-scaled)",
    )
    bench_smoke.add_argument(
        "--only", default=None, metavar="EXPR",
        help="pytest -k expression selecting a subset of benches",
    )
    bench_smoke.set_defaults(func=cmd_bench_smoke)

    trace = commands.add_parser(
        "trace",
        help="export recorded spans as Chrome trace JSON, or render "
             "the structured event log",
        epilog="examples: repro sweep caches --trace; repro trace "
               "export run.trace.json; repro trace events --limit 20",
    )
    trace.add_argument("action", choices=("export", "events"),
                       help="export: spans -> Chrome trace JSON; "
                            "events: render events.jsonl")
    trace.add_argument("output", nargs="?", default=None,
                       help="Chrome trace JSON output path (export)")
    trace.add_argument("--spans", default=None, metavar="FILE",
                       help="raw span file (default: spans.jsonl next "
                            "to the default store)")
    trace.add_argument("--events", default=None, metavar="FILE",
                       help="event log file (default: events.jsonl "
                            "next to the default store)")
    trace.add_argument("--level", default=None,
                       choices=("debug", "info", "warning", "error"),
                       help="minimum level to show (events)")
    trace.add_argument("--run-id", default=None, dest="run_id",
                       help="only this run's events")
    trace.add_argument("--limit", type=int, default=0,
                       help="show only the newest N events")
    trace.add_argument("--follow", action="store_true",
                       help="keep tailing the event log as it grows "
                            "(events; Ctrl-C to stop)")
    trace.set_defaults(func=cmd_trace)

    results = commands.add_parser(
        "results", help="list cached sweep results")
    results.add_argument("--study", default=None,
                         help="only this study's records")
    results.add_argument("--store", default=None, metavar="PATH",
                         help="result store directory, or a flat JSONL "
                              "store file (default: "
                              "benchmarks/results/fabric)")
    results.add_argument("--limit", type=int, default=0,
                         help="show only the newest N records")
    results.set_defaults(func=cmd_results)

    report = commands.add_parser(
        "report",
        help="render stored sweep results (or interval telemetry) as "
             "an aggregated report",
        epilog="examples: repro report --study caches --group-by ratio; "
               "repro report --intervals "
               "benchmarks/results/perf_metrics_intervals.json",
    )
    report.add_argument("--study", default=None,
                        help="render this study's stored records")
    report.add_argument("--store", default=None, metavar="PATH",
                        help="result store directory, or a flat JSONL "
                             "store file (default: "
                             "benchmarks/results/fabric)")
    report.add_argument("--group-by", default=None, metavar="K1,K2",
                        help="grouping axes (default: every parameter "
                             "that varies across the records)")
    report.add_argument("--metrics", default=None, metavar="M1,M2",
                        help="metrics to show (default: all; with "
                             "--intervals: all active counters)")
    report.add_argument("--agg", default="mean",
                        choices=("mean", "min", "max"))
    report.add_argument("--intervals", default=None, metavar="FILE",
                        help="render an interval-telemetry JSON "
                             "artefact as per-interval bars instead")
    report.set_defaults(func=cmd_report)

    lint = commands.add_parser(
        "lint",
        help="check the repo's reproducibility invariants "
             "(AST static analysis)",
        epilog="exit codes: 0 clean, 1 violations found, 2 internal "
               "error.  Suppress one finding with a trailing "
               "'# repro: noqa[RULE-ID]' comment.",
    )
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files or directories to lint "
                           "(default: the installed repro package)")
    lint.add_argument("--rule", action="append", default=None,
                      metavar="IDS",
                      help="only run these rule ids (comma-separated, "
                           "repeatable) — e.g. --rule DET001,RST001")
    lint.add_argument("--format", default="text",
                      choices=("text", "json"),
                      help="output format (json is the CI artefact)")
    lint.add_argument("--strict", action="store_true",
                      help="warnings also fail the run (exit 1)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the ruleset and exit")
    lint.set_defaults(func=cmd_lint)

    serve = commands.add_parser(
        "serve",
        help="run the sweep service: submit/stream/query specs over "
             "HTTP + WebSocket",
        epilog="examples: repro serve --port 8765; "
               "REPRO_SERVICE_TOKEN=s3cret repro serve "
               "--token-env REPRO_SERVICE_TOKEN",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8765,
                       help="bind port; 0 picks an ephemeral port "
                            "(default: 8765)")
    serve.add_argument("--store", default=None, metavar="DIR",
                       help="result store directory (default: "
                            "benchmarks/results/fabric)")
    serve.add_argument("--workers", type=int, default=1,
                       help="default workers per job (default: 1)")
    serve.add_argument("--max-jobs", type=int, default=2,
                       dest="max_jobs",
                       help="concurrently executing jobs (default: 2)")
    serve.add_argument("--token", default=None,
                       help="require 'Authorization: Bearer TOKEN' "
                            "(prefer --token-env: argv leaks into ps)")
    serve.add_argument("--token-env", default="REPRO_SERVICE_TOKEN",
                       dest="token_env", metavar="VAR",
                       help="read the bearer token from this "
                            "environment variable when --token is "
                            "not given (default: REPRO_SERVICE_TOKEN)")
    serve.add_argument("--drain-grace", type=float, default=30.0,
                       dest="drain_grace", metavar="SECONDS",
                       help="how long SIGTERM waits for running jobs "
                            "(default: 30)")
    serve.add_argument("--ready-file", default=None, dest="ready_file",
                       metavar="FILE",
                       help="write {url, pid, store} JSON here once "
                            "listening (ephemeral-port discovery)")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress the listening/drained lines")
    serve.set_defaults(func=cmd_serve)

    store_cmd = commands.add_parser(
        "store",
        help="inspect and maintain result stores (flat or sharded)",
        epilog="examples: repro store info; repro store migrate "
               "benchmarks/results/store.jsonl benchmarks/results/fabric; "
               "repro store compact",
    )
    store_actions = store_cmd.add_subparsers(dest="store_action",
                                             required=True)
    store_info = store_actions.add_parser(
        "info", help="record counts, shard layout, known runs")
    store_info.add_argument("--store", default=None, metavar="DIR",
                            help="sharded store directory (default: "
                                 "benchmarks/results/fabric)")
    store_info.set_defaults(func=cmd_store_info)
    store_compact = store_actions.add_parser(
        "compact",
        help="rewrite shards keeping only the live record per key")
    store_compact.add_argument("--store", default=None, metavar="DIR",
                               help="sharded store directory (default: "
                                    "benchmarks/results/fabric)")
    store_compact.set_defaults(func=cmd_store_compact)
    store_migrate = store_actions.add_parser(
        "migrate",
        help="import a flat JSONL store into a sharded indexed store")
    store_migrate.add_argument("source", metavar="FLAT_JSONL",
                               help="flat store file to import")
    store_migrate.add_argument("dest", metavar="DIR",
                               help="sharded store directory to create "
                                    "or extend")
    store_migrate.add_argument("--shards", type=int, default=16,
                               help="shard count for a new store "
                                    "(default: 16)")
    store_migrate.set_defaults(func=cmd_store_migrate)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0  # e.g. `repro list-suites | head`


if __name__ == "__main__":
    sys.exit(main())
