"""Command-line interface: regenerate any paper table/figure, run the
ablations, analyze real access logs, and synthesize workload traces.

Examples::

    python -m repro table1
    python -m repro figure4 --nodes 1 2 4 8 --scale 0.02
    python -m repro table5 --nodes 1 4 8
    python -m repro ablation invalidation
    python -m repro analyze-log access.log --thresholds 0.5 1 2
    python -m repro gen-trace zipf -n 1000 -d 150 -o trace.jsonl
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, List, Optional

from . import experiments as ex
from .workload import (
    PAPER_ADL,
    describe_trace,
    load_trace,
    render_trace_summary,
    analyze_caching_potential,
    generate_adl_trace,
    hit_ratio_trace,
    load_clf,
    save_trace,
    webstone_file_trace,
    zipf_cgi_trace,
)
from .metrics import render_table, write_rows

__all__ = ["main", "build_parser"]


def _emit(text: str, output: Optional[str]) -> None:
    try:
        print(text)
    except UnicodeEncodeError:
        # ASCII-only stdout (PYTHONIOENCODING=ascii, LANG=C pipes): degrade
        # residual glyphs rather than crash the report; --output files are
        # always written UTF-8 below, losslessly.
        encoding = getattr(sys.stdout, "encoding", None) or "ascii"
        print(text.encode(encoding, "replace").decode(encoding))
    if output:
        Path(output).write_text(text + "\n", encoding="utf-8")


def _export(rows, args) -> None:
    """Write structured rows if the command asked for --export."""
    if args.export:
        write_rows(list(rows), args.export)
        print(f"(structured rows exported to {args.export})")


class _UsageError(Exception):
    """A bad input: :func:`main` prints ``error: <message>`` and exits 2."""


def _load(path, loader: Callable[[Path], Any], what: str = "file"):
    """``loader(path)``; a missing file or a ``ValueError`` from the
    loader becomes a :class:`_UsageError`."""
    path = Path(path)
    if not path.exists():
        raise _UsageError(f"no such {what}: {path}")
    try:
        return loader(path)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _load_spans(path):
    """Leniently load a ``--trace-out`` file: a trace truncated mid-write
    (killed run) still analyzes, its torn lines skipped and reported; a
    file without a single span is a usage error."""
    from .obs import load_jsonl

    dump = _load(path, lambda p: load_jsonl(p, strict=False), "trace file")
    if dump.skipped_lines:
        print(
            f"warning: skipped {dump.skipped_lines} malformed line(s) in "
            f"{path} (truncated trace?)",
            file=sys.stderr,
        )
    if not len(dump):
        raise _UsageError("no spans in the trace file")
    return dump


def _provenance_meta(args) -> dict:
    """The provenance manifest embedded in every ``--*-out`` export.

    Records what produced the artifact — seed, directory protocol,
    worker count (``--jobs``), a hash of the full argument set, and the
    repro version — so an export found on disk answers "which run was
    this?" without a lab notebook.  Output paths are excluded from the hash: the same run
    written to a different file must produce the same manifest (CI
    compares same-seed exports byte for byte).  No wall clock, hostname,
    or interpreter detail belongs here for the same reason.
    """
    import hashlib
    import json as _json

    from . import __version__

    knobs = {
        k: v for k, v in vars(args).items()
        if not callable(v)
        and k not in ("output", "export", "output_dir")
        and not k.endswith("_out")
    }
    config_hash = hashlib.sha256(
        _json.dumps(knobs, sort_keys=True, default=str).encode("utf-8")
    ).hexdigest()[:12]
    directory = getattr(args, "directory", None)
    if directory is None and getattr(args, "protocols", None):
        directory = ",".join(args.protocols)
    return {
        "version": __version__,
        "command": getattr(args, "command", None),
        "seed": getattr(args, "seed", None),
        "directory": directory,
        "jobs": getattr(args, "jobs", None),
        "config_hash": config_hash,
    }


def _note(count: int, what: str) -> str:
    return f", {count} {what}" if count else ""


def _write_critical(observer, path: str, meta: dict) -> str:
    """Write the ``--critical-out`` blame aggregate; return its summary."""
    from .obs import aggregate_blame, write_critical

    records = observer.critical_records()
    write_critical(aggregate_blame(records), path, meta=meta)
    dropped = observer.profiler.intervals_dropped
    return (
        f"(critical: {len(records)} requests decomposed into "
        f"{path}{_note(dropped, 'intervals dropped at capacity')}; "
        "inspect with `repro critical`)"
    )


#: One row per ``--*-out`` flag: its help, the :class:`RunObserver
#: <repro.experiments.common.RunObserver>` collector it writes, and the
#: line printed once that is written.  Rows are in write order.
#: ``--critical-out`` is derived (no collector of its own): it needs the
#: span tree AND span-linked resource intervals (a tracer plus
#: ``ResourceProfiler(record_intervals=True)``), and its row's function
#: writes their join; ``--profile-out`` alone keeps interval recording
#: off so its export stays byte-compatible with committed baselines.
_OUTPUTS = {
    "--trace-out": (
        "collect per-request spans and write them (JSONL; analyze "
        "with `repro trace`)",
        "tracer",
        lambda c, path: f"(trace: {len(c.spans)} spans written to "
        f"{path}{_note(c.dropped, 'dropped at capacity')})",
    ),
    "--metrics-out": (
        "scrape run metrics into a registry and write it "
        "(.json => JSON, else Prometheus text)",
        "registry",
        lambda c, path: f"(metrics written to {path})",
    ),
    "--audit-out": (
        "attach the consistency oracle and write the per-request "
        "audit (JSONL; inspect with `repro audit`)",
        "oracle",
        lambda c, path: f"(audit: {len(c.audits)} requests written to "
        f"{path}{_note(c.dropped_records, 'dropped at capacity')}; "
        "inspect with `repro audit`)",
    ),
    "--timeseries-out": (
        "sample per-node counters (and oracle anomaly counts) "
        "every --timeseries-dt simulated seconds into a JSONL timeline",
        "timeseries",
        lambda c, path: f"(timeseries: {len(c.samples)} samples "
        f"written to {path})",
    ),
    "--profile-out": (
        "probe every simulated resource (CPUs, disks, NICs, "
        "mailboxes, thread pools, directory locks) and write the "
        "utilization profile (JSON; inspect with `repro profile`)",
        "profiler",
        lambda c, path: f"(profile: {c.resource_count()} resources "
        f"written to {path}"
        f"{_note(c.dropped, 'probes dropped at capacity')}; "
        "inspect with `repro profile`)",
    ),
    "--streaming-out": (
        "aggregate completions into fixed-width sim-time windows "
        "(rates, hit ratio, sketched latency quantiles) and write the "
        "per-window JSONL; perturbation-free (no events scheduled), "
        "gzip when the path ends in .gz",
        "streaming",
        lambda c, path: f"(streaming: {len(c.windows)} windows "
        f"({sum(1 for w in c.windows if w.saturated)} saturated) "
        f"written to {path})",
    ),
    "--critical-out": (
        "trace spans + span-linked resource intervals and write "
        "the critical-path blame aggregate (JSON; inspect with "
        "`repro critical`); implies tracing and interval profiling",
        None,
        _write_critical,
    ),
}


@contextmanager
def _observability(args):
    """Install a run observer with the collectors the ``--*-out`` flags
    ask for; write each export once the command finishes."""
    paths = {
        flag: getattr(args, flag[2:].replace("-", "_"), None)
        for flag in _OUTPUTS
    }
    paths = {flag: path for flag, path in paths.items() if path}
    if not paths:
        yield None
        return
    from .experiments.common import RunObserver, observe_runs
    from .obs import (
        ConsistencyOracle,
        MetricsRegistry,
        ResourceProfiler,
        StreamingTelemetry,
        TimeSeriesLog,
        TraceCollector,
    )

    make = {
        "tracer": TraceCollector,
        "registry": MetricsRegistry,
        "oracle": ConsistencyOracle,
        "timeseries": TimeSeriesLog,
        "profiler": ResourceProfiler,
        "streaming": lambda: StreamingTelemetry(window=args.streaming_window),
    }
    names = [_OUTPUTS[flag][1] for flag in paths]
    collectors = {name: make[name]() for name in names if name}
    if "--critical-out" in paths:
        collectors.setdefault("tracer", TraceCollector())
        collectors["profiler"] = ResourceProfiler(record_intervals=True)
    observer = RunObserver(timeseries_dt=args.timeseries_dt, **collectors)
    with observe_runs(observer):
        yield observer
    observer.finish()
    meta = _provenance_meta(args)
    for flag, path in paths.items():
        _, name, summary = _OUTPUTS[flag]
        if name is None:
            print(summary(observer, path, meta))
            continue
        collector = getattr(observer, name)
        collector.write(path, meta=meta)
        print(summary(collector, path))


# ---------------------------------------------------------------------------
# subcommand runners
# ---------------------------------------------------------------------------

def _cmd_table1(args) -> int:
    spec = PAPER_ADL if args.scale == 1.0 else PAPER_ADL.scaled(args.scale)
    result = ex.run_table1(spec, seed=args.seed)
    _emit(ex.render_table1(result), args.output)
    return 0


def _cmd_table2(args) -> int:
    rows = ex.run_table2(
        client_counts=tuple(args.clients),
        requests_per_client=args.requests_per_client,
        seed=args.seed,
        jobs=args.jobs,
    )
    _emit(ex.render_table2(rows), args.output)
    _export(rows, args)
    return 0


def _cmd_figure3(args) -> int:
    result = ex.run_figure3(
        n_clients=args.clients, requests_per_client=args.requests_per_client,
        jobs=args.jobs,
    )
    _emit(ex.render_figure3(result), args.output)
    return 0


def _cmd_figure4(args) -> int:
    rows = ex.run_figure4(
        node_counts=tuple(args.nodes), scale=args.scale, seed=args.seed,
        jobs=args.jobs,
    )
    _emit(ex.render_figure4(rows), args.output)
    _export(rows, args)
    return 0


def _cmd_table3(args) -> int:
    rows = ex.run_table3(
        node_counts=tuple(args.nodes), n_requests=args.requests,
        directory=args.directory,
    )
    _emit(ex.render_table3(rows), args.output)
    _export(rows, args)
    return 0


def _cmd_directory_grid(args) -> int:
    cells = ex.run_directory_grid(
        node_counts=tuple(args.nodes),
        protocols=tuple(args.protocols),
        mixes=tuple(args.mixes),
        n_threads=args.threads,
        scale=args.scale,
        seed=args.seed,
    )
    _emit(ex.render_directory_grid(cells), args.output)
    if args.json_out:
        import json as _json

        Path(args.json_out).write_text(
            _json.dumps(ex.grid_to_dicts(cells), indent=2) + "\n"
        )
        print(f"(cells written to {args.json_out})")
    _export(cells, args)
    return 0


def _cmd_table4(args) -> int:
    rows = ex.run_table4(update_rates=tuple(args.rates), n_requests=args.requests)
    _emit(ex.render_table4(rows), args.output)
    _export(rows, args)
    return 0


def _cmd_hit_ratio(args) -> int:
    """Tables 5 and 6: the same sweep at cache size 2,000 and 20."""
    size = {"table5": 2_000, "table6": 20}[args.command]
    rows = ex.run_hit_ratio_experiment(
        cache_size=size, node_counts=tuple(args.nodes), seed=args.seed,
        jobs=args.jobs,
    )
    _emit(ex.render_hit_ratio_table(rows, size), args.output)
    return 0


def _cmd_ablation(args) -> int:
    runners = {
        "policies": lambda: ex.render_policy_ablation(ex.run_policy_ablation()),
        "locking": lambda: ex.render_locking_ablation(ex.run_locking_ablation()),
        "ttl": lambda: ex.render_ttl_ablation(ex.run_ttl_ablation()),
        "invalidation": lambda: ex.render_invalidation_study(
            ex.run_invalidation_study()
        ),
        "balancer": lambda: ex.render_balancer_study(ex.run_balancer_study()),
        "threshold": lambda: ex.render_threshold_study(
            ex.run_threshold_study()
        ),
        "cache-size": lambda: ex.render_cache_size_study(
            ex.run_cache_size_study()
        ),
    }
    _emit(runners[args.which](), args.output)
    return 0


def _cmd_study(args) -> int:
    runners = {
        "proxy": lambda: ex.render_proxy_study(ex.run_proxy_study()),
        "capacity": lambda: ex.render_capacity_study(ex.run_capacity_study()),
        "heterogeneity": lambda: ex.render_heterogeneity_study(
            ex.run_heterogeneity_study()
        ),
    }
    _emit(runners[args.which](), args.output)
    return 0


def _cmd_capacity(args) -> int:
    """Adaptive saturation search: the knee rate per cluster size."""
    from .experiments.capacity import (
        CapacityParams,
        render_knee_table,
        run_capacity_search,
        write_knee_report,
    )

    params = CapacityParams(
        nodes=tuple(args.nodes),
        mode=args.mode,
        window=args.window,
        duration=args.duration,
        start_rate=args.start_rate,
        max_rate=args.max_rate,
        growth=args.growth,
        precision=args.precision,
        max_probes=args.max_probes,
        slo_p99=args.slo_p99,
        max_rho=args.max_rho,
        queue_growth_frac=args.queue_growth_frac,
        consecutive=args.consecutive,
        warmup_windows=args.warmup_windows,
        n_distinct=args.distinct,
        cpu_time_mean=args.cpu_time,
        seed=args.seed,
    )
    windows: Optional[list] = (
        [] if (args.windows_out or args.dashboard) else None
    )
    cells = run_capacity_search(params, collect_windows=windows)
    text = render_knee_table(cells, params)
    if args.dashboard:
        from .obs import render_streaming_dashboard

        panels = []
        for cell in cells:
            knee_windows = [
                w for w in windows
                if w["cell"] == cell.nodes and w["phase"] == "knee"
            ]
            panels.append(render_streaming_dashboard(
                knee_windows,
                title=f"{cell.nodes} node(s) @ knee {cell.knee:.2f}/s",
            ))
        text = text + "\n\n" + "\n\n".join(panels)
    _emit(text, args.output)
    if args.windows_out:
        from .obs.ioutil import jsonl_text, write_text

        write_text(args.windows_out, jsonl_text(windows))
        print(
            f"(capacity: {len(windows)} windows written to "
            f"{args.windows_out}; diff with `repro diff`)"
        )
    if args.json_out:
        write_knee_report(cells, params, args.json_out, args.txt_out)
        where = args.json_out + (
            f" and {args.txt_out}" if args.txt_out else ""
        )
        print(f"(knee report written to {where})")
    return 0


def _cmd_analyze_log(args) -> int:
    path = Path(args.logfile)
    trace = _load(path, lambda p: load_clf(
        p.read_text().splitlines(), default_cgi_time=args.default_cgi_time,
    ), "log file")
    if not len(trace):
        raise _UsageError("no analyzable GET requests in the log")
    rows = analyze_caching_potential(trace, thresholds=args.thresholds)
    text = render_table(
        f"Caching potential for {path.name} ({len(trace)} requests, "
        f"{len(trace.cgi_only())} dynamic)",
        ["threshold (s)", "# long", "# repeats", "# uniq repeats",
         "saved (s)", "saved %"],
        [
            (r.threshold, r.long_requests, r.total_repeats, r.unique_repeats,
             r.time_saved, r.saved_percent)
            for r in rows
        ],
    )
    _emit(text, args.output)
    return 0


def _cmd_gen_trace(args) -> int:
    if args.kind == "adl":
        trace = generate_adl_trace(PAPER_ADL.scaled(args.scale), seed=args.seed)
    elif args.kind == "webstone":
        trace = webstone_file_trace(args.n, seed=args.seed)
    elif args.kind == "zipf":
        trace = zipf_cgi_trace(args.n, args.distinct, seed=args.seed)
    else:  # hit-ratio
        trace = hit_ratio_trace(total=args.n, unique=args.distinct, seed=args.seed)
    save_trace(trace, args.out)
    print(
        f"wrote {len(trace)} requests ({trace.unique_count} unique) "
        f"to {args.out}"
    )
    return 0


def _cmd_run_config(args) -> int:
    """Run a saved trace against a cluster built from a Swala config file."""
    from .clients import ClientFleet
    from .core import SwalaCluster, load_config
    from .sim import Simulator
    from .workload import describe_trace, render_trace_summary

    config = _load(args.configfile, load_config, "config file")
    trace = _load(args.trace, load_trace, "trace file")
    if not len(trace):
        raise _UsageError("empty trace")

    sim = Simulator()
    cluster = SwalaCluster(sim, args.nodes, config)
    cluster.install_files(trace)
    from .experiments.common import current_observer

    observer = current_observer()
    if observer is not None:
        observer.attach(cluster)
    cluster.start()
    fleet = ClientFleet(
        sim, cluster.network, trace, servers=cluster.node_names,
        n_threads=args.clients, n_hosts=max(1, args.clients // 8),
    )
    times = fleet.run()
    if observer is not None:
        observer.collect(cluster)
    stats = cluster.stats()
    lines = [
        render_trace_summary(describe_trace(trace)),
        "",
        f"cluster: {args.nodes} node(s), mode={config.mode.value}, "
        f"capacity={config.cache_capacity}, policy={config.policy}",
        f"clients: {args.clients} closed-loop threads",
        "",
        f"mean response time: {times.mean:.4f}s   "
        f"p95: {times.percentile(95):.4f}s",
        f"hits: {stats.hits} (local {stats.local_hits}, remote "
        f"{stats.remote_hits})   misses: {stats.misses}   "
        f"hit ratio: {stats.hit_ratio:.1%}",
        f"false hits: {stats.false_hits}   false misses: "
        f"{stats.false_misses}   evictions: {stats.evictions}",
    ]
    _emit("\n".join(lines), args.output)
    return 0


def _cmd_trace(args) -> int:
    """Analyze a span-trace JSONL written with ``--trace-out``."""
    from .obs import (
        render_breakdown,
        render_percentiles,
        render_timeline,
        render_trace_report,
        request_records,
    )

    path = Path(args.tracefile)
    dump = _load_spans(path)
    sections = []
    wants_specific = args.breakdown or args.percentiles or args.timeline
    if wants_specific:
        records = request_records(dump)
        if args.breakdown:
            sections.append(render_breakdown(records))
        if args.percentiles:
            sections.append(render_percentiles(records))
        if args.timeline:
            try:
                sections.append(
                    render_timeline(
                        dump, trace_id=args.trace_id, width=args.width
                    )
                )
            except KeyError:
                raise _UsageError(
                    f"no trace with id {args.trace_id} in {path}"
                ) from None
    else:
        sections.append(render_trace_report(dump))
    _emit("\n\n".join(sections), args.output)
    return 0


def _cmd_audit(args) -> int:
    """Render the consistency-audit report from an ``--audit-out`` file."""
    from .obs import (
        load_audit,
        load_timeseries,
        render_anomaly_timeline,
        render_audit_report,
        render_staleness,
        render_taxonomy,
        render_timeseries_dashboard,
    )

    dump = _load(args.auditfile, load_audit, "audit file")
    if not len(dump):
        raise _UsageError("no request records in the audit file")

    sections = []
    wants_specific = args.taxonomy or args.staleness or args.timeline
    if wants_specific:
        if args.taxonomy:
            sections.append(render_taxonomy(dump))
        if args.staleness:
            sections.append(render_staleness(dump))
        if args.timeline:
            sections.append(render_anomaly_timeline(dump, bins=args.bins))
    else:
        sections.append(render_audit_report(dump, bins=args.bins))
    if args.timeseries:
        log = _load(args.timeseries, load_timeseries, "timeseries file")
        sections.append(
            render_timeseries_dashboard(log, series=args.series or None)
        )
    _emit("\n\n".join(sections), args.output)
    return 0


def _cmd_profile(args) -> int:
    """Bottleneck/utilization report from a ``--profile-out`` file, plus
    optional flame-graph folding of a span trace."""
    from .obs import (
        fold_spans,
        load_profile,
        render_bottlenecks,
        render_profile_report,
        render_resources,
        write_folded,
    )
    from .metrics.ascii import flame_chart

    profile = _load(args.profilefile, load_profile, "profile file")

    sections = []
    wants_specific = args.bottlenecks or args.resources
    if wants_specific:
        if args.bottlenecks:
            sections.append(render_bottlenecks(profile, run=args.run))
        if args.resources:
            sections.append(
                render_resources(
                    profile, run=args.run, node=args.node, top=args.top
                )
            )
    else:
        sections.append(
            render_profile_report(
                profile, run=args.run, node=args.node, top=args.top
            )
        )
    if args.trace:
        folded = fold_spans(_load_spans(args.trace))
        if args.folded_out:
            out = write_folded(folded, args.folded_out)
            print(
                f"(folded stacks written to {out}; feed to flamegraph.pl "
                "or speedscope)"
            )
        sections.append(flame_chart(folded, width=args.width))
    _emit("\n\n".join(sections), args.output)
    return 0


def _cmd_diff(args) -> int:
    """Compare two observability exports counter by counter."""
    from .obs import diff_counters, load_counters, render_diff

    base_path, cur_path = Path(args.baseline), Path(args.current)
    base = _load(base_path, load_counters)
    current = _load(cur_path, load_counters)
    deltas = diff_counters(
        base,
        current,
        threshold=args.threshold,
        abs_threshold=args.abs_threshold,
        ignore=args.ignore or (),
        only=args.only or (),
    )
    _emit(
        render_diff(
            deltas,
            base_label=str(base_path),
            current_label=str(cur_path),
            max_rows=args.max_rows,
        ),
        args.output,
    )
    return 1 if deltas else 0


def _cmd_critical(args) -> int:
    """Render the critical-path blame report from a ``--critical-out``
    aggregate (or recompute it from raw trace + profile exports)."""
    from .obs import (
        aggregate_blame,
        decompose,
        load_critical,
        load_profile,
        render_by_outcome,
        render_critical_report,
        render_segments,
        write_critical,
    )

    if args.criticalfile:
        data = _load(args.criticalfile, load_critical, "critical file")
    elif args.trace:
        dump = _load_spans(args.trace)
        intervals = None
        if args.profile:
            intervals = _load(
                args.profile, load_profile, "profile file"
            ).get("intervals")
        records = decompose(dump, intervals)
        data = aggregate_blame(records)
        if args.export:
            write_critical(data, args.export)
            print(f"(critical aggregate exported to {args.export})")
    else:
        raise _UsageError(
            "give a --critical-out file or --trace (with optional --profile)"
        )

    sections = []
    wants_specific = args.segments or args.by_outcome
    if wants_specific:
        if args.segments:
            sections.append(render_segments(data))
        if args.by_outcome:
            outcome = render_by_outcome(data)
            sections.append(outcome or "(no complete request traces)")
    else:
        sections.append(render_critical_report(data, width=args.width))
    _emit("\n\n".join(sections), args.output)
    return 0


def _cmd_whatif(args) -> int:
    """Causal what-if: replay a recorded run under virtual resource
    speedups; with ``--validate``, re-simulate for real and report the
    prediction error (exit 1 beyond ``--max-error``)."""
    from .obs.whatif import (
        parse_scenario,
        predict,
        render_predictions,
        render_whatif_report,
        validate_scenarios,
        worst_row,
    )

    try:
        scenarios = [parse_scenario(s) for s in args.scenarios]
    except ValueError as exc:
        raise _UsageError(str(exc)) from None

    if args.validate:
        rows = validate_scenarios(
            scenarios,
            n_nodes=args.nodes,
            n_requests=args.requests,
            cpu_time=args.cpu_time,
        )
        _emit(render_whatif_report(rows, max_error=args.max_error), args.output)
        return 0 if worst_row(rows).error <= args.max_error else 1

    if not args.trace:
        raise _UsageError(
            "replay mode needs --trace (a --trace-out JSONL); or pass "
            "--validate to simulate"
        )
    from .obs import load_profile

    dump = _load_spans(args.trace)
    intervals = None
    if args.profile:
        profile = _load(args.profile, load_profile, "profile file")
        intervals = profile.get("intervals")
        if intervals is None:
            print(
                "warning: profile has no span-linked intervals (record with "
                "--critical-out); falling back to span categories",
                file=sys.stderr,
            )
    predictions = [predict(dump, intervals, None)]
    predictions += [predict(dump, intervals, s) for s in scenarios]
    _emit(render_predictions(predictions), args.output)
    return 0


def _cmd_describe_trace(args) -> int:
    trace = _load(args.tracefile, load_trace, "trace file")
    _emit(render_trace_summary(describe_trace(trace, top_k=args.top)), args.output)
    return 0


#: The paper's artifacts, in the order ``repro all`` regenerates them.
_PAPER_ARTIFACTS = (
    "table1", "table2", "figure3", "figure4", "table3", "table4", "table5",
    "table6",
)


def _cmd_all(args) -> int:
    """Run each paper subcommand at its own defaults into
    ``<output-dir>/<name>.txt``."""
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    parser = build_parser()
    for name in _PAPER_ARTIFACTS:
        output = str(outdir / f"{name}.txt")
        sub = parser.parse_args([name, "--output", output])
        if "jobs" in vars(sub):
            sub.jobs = args.jobs
        sub.func(sub)
        print()
    print(f"all artifacts written to {outdir}/")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Swala (HPDC '98) reproduction: regenerate paper tables/"
        "figures, run ablations, analyze logs, synthesize traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def observability(p):
        for flag, (text, _, _) in _OUTPUTS.items():
            p.add_argument(flag, help=text)
        p.add_argument(
            "--timeseries-dt", type=positive_float, default=1.0,
            metavar="SECONDS",
            help="sampling interval for --timeseries-out (default 1.0)",
        )
        p.add_argument(
            "--streaming-window", type=positive_float, default=1.0,
            metavar="SECONDS",
            help="window width for --streaming-out (default 1.0)",
        )

    def positive_float(value):
        x = float(value)
        if not x > 0:  # also rejects nan
            raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
        return x

    def positive_int(value):
        n = int(value)
        if n < 1:
            raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
        return n

    def above_one(value):
        x = float(value)
        if not x > 1:  # also rejects nan
            raise argparse.ArgumentTypeError(f"must be > 1, got {value}")
        return x

    def common(p, seed=False, export=False, jobs=False, observe=False):
        """``--output`` plus the shared flags the command's runner reads."""
        if seed:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output", help="also write the table to this file")
        if export:
            p.add_argument("--export",
                           help="write structured rows (.csv/.json)")
        if jobs:
            p.add_argument(
                "--jobs", type=positive_int, default=1, metavar="N",
                help="fan independent runs over N worker processes (results "
                "and observability exports are identical to a serial run; "
                "only --audit-out falls back to serial)",
            )
        if observe:
            observability(p)

    p = sub.add_parser("table1", help="ADL log caching-potential analysis")
    common(p, seed=True)
    p.add_argument("--scale", type=positive_float, default=1.0,
                   help="shrink the synthetic log by this factor")
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("table2", help="WebStone file-fetch server comparison")
    common(p, seed=True, export=True, jobs=True, observe=True)
    p.add_argument("--clients", type=positive_int, nargs="+",
                   default=[4, 8, 16, 32, 64])
    p.add_argument("--requests-per-client", type=positive_int, default=25)
    p.set_defaults(func=_cmd_table2)

    p = sub.add_parser("figure3", help="null-CGI response-time comparison")
    common(p, jobs=True, observe=True)
    p.add_argument("--clients", type=positive_int, default=24)
    p.add_argument("--requests-per-client", type=positive_int, default=20)
    p.set_defaults(func=_cmd_figure3)

    p = sub.add_parser("figure4", help="multi-node scaling, cache vs no-cache")
    common(p, seed=True, export=True, jobs=True, observe=True)
    p.add_argument("--nodes", type=positive_int, nargs="+",
                   default=[1, 2, 4, 6, 8])
    p.add_argument("--scale", type=positive_float, default=0.02)
    p.set_defaults(func=_cmd_figure4)

    p = sub.add_parser("table3", help="insert+broadcast overhead")
    common(p, export=True, observe=True)
    p.add_argument("--nodes", type=positive_int, nargs="+",
                   default=[2, 3, 4, 5, 6, 7, 8])
    p.add_argument("--requests", type=positive_int, default=180)
    p.add_argument(
        "--directory", choices=["broadcast", "digest", "bloom"],
        default="broadcast",
        help="directory-sync protocol for the cooperative runs "
        "(default: the paper's broadcast)",
    )
    p.set_defaults(func=_cmd_table3)

    p = sub.add_parser(
        "directory-grid",
        help="directory-protocol cost grid: broadcast vs digest vs Bloom "
        "deltas across cluster sizes",
    )
    common(p, seed=True, export=True, observe=True)
    p.add_argument(
        "--nodes", type=positive_int, nargs="+", default=[8, 64, 256, 1024],
        help="cluster sizes to sweep (default 8 64 256 1024)",
    )
    p.add_argument(
        "--protocols", nargs="+", default=["broadcast", "digest", "bloom"],
        choices=["broadcast", "digest", "bloom"],
    )
    p.add_argument(
        "--mixes", nargs="+", default=["webstone", "adl"],
        choices=["webstone", "adl"],
    )
    p.add_argument(
        "--threads", type=positive_int, default=64,
        help="client threads == max active nodes (default 64)",
    )
    p.add_argument(
        "--scale", type=positive_float, default=1.0,
        help="shrink both workload mixes proportionally (smoke runs)",
    )
    p.add_argument("--json-out", help="write per-cell records as JSON")
    p.set_defaults(func=_cmd_directory_grid)

    p = sub.add_parser("table4", help="directory-update overhead")
    common(p, export=True, observe=True)
    p.add_argument("--rates", type=float, nargs="+",
                   default=[0.0, 10.0, 20.0, 50.0, 100.0])
    p.add_argument("--requests", type=positive_int, default=180)
    p.set_defaults(func=_cmd_table4)

    for which, size in (("table5", 2_000), ("table6", 20)):
        p = sub.add_parser(which, help=f"hit ratios, cache size {size}")
        common(p, seed=True, jobs=True, observe=True)
        p.add_argument("--nodes", type=positive_int, nargs="+",
                       default=[1, 2, 4, 6, 8])
        p.set_defaults(func=_cmd_hit_ratio)

    p = sub.add_parser("ablation", help="run one of the ablation studies")
    common(p, observe=True)
    p.add_argument(
        "which",
        choices=["policies", "locking", "ttl", "invalidation", "balancer",
                 "threshold", "cache-size"],
    )
    p.set_defaults(func=_cmd_ablation)

    p = sub.add_parser("study", help="run one of the topology/capacity studies")
    common(p, observe=True)
    p.add_argument("which", choices=["proxy", "capacity", "heterogeneity"])
    p.set_defaults(func=_cmd_study)

    p = sub.add_parser(
        "capacity",
        help="SLO-driven saturation search: ramp + bisection to the max "
        "sustainable req/s per cluster size, annotated with the "
        "profiler's bottleneck resource at the knee",
    )
    p.add_argument(
        "--nodes", type=positive_int, nargs="+", default=[1, 4, 8, 16],
        metavar="N",
        help="cluster sizes to sweep (default 1 4 8 16)",
    )
    p.add_argument(
        "--mode", choices=["none", "standalone", "cooperative"],
        default="cooperative",
    )
    p.add_argument(
        "--window", type=positive_float, default=1.0, metavar="SECONDS",
        help="telemetry window width (default 1.0)",
    )
    p.add_argument(
        "--duration", type=float, default=20.0, metavar="SECONDS",
        help="offered-load phase per probe run (default 20.0)",
    )
    p.add_argument("--start-rate", type=float, default=4.0, metavar="R",
                   help="ramp origin, req/s (default 4.0)")
    p.add_argument("--max-rate", type=float, default=4096.0, metavar="R",
                   help="give up ramping above this rate (default 4096)")
    p.add_argument("--growth", type=above_one, default=2.0,
                   help="ramp multiplier per hold period (default 2.0)")
    p.add_argument(
        "--precision", type=float, default=0.05,
        help="stop bisecting when hi/lo - 1 <= this (default 0.05)",
    )
    p.add_argument("--max-probes", type=int, default=12,
                   help="bisection probe budget per cluster size")
    p.add_argument("--slo-p99", type=float, default=2.0, metavar="SECONDS",
                   help="windowed p99 latency bound (default 2.0)")
    p.add_argument("--max-rho", type=float, default=1.0,
                   help="Little's-law utilization bound (default 1.0)")
    p.add_argument(
        "--queue-growth-frac", type=float, default=0.25,
        help="flag a window when backlog grows by more than this fraction "
        "of its expected arrivals (default 0.25)",
    )
    p.add_argument("--consecutive", type=positive_int, default=3, metavar="K",
                   help="flagged windows in a row that declare saturation")
    p.add_argument("--warmup-windows", type=int, default=2,
                   help="initial windows exempt from flagging (cold cache)")
    p.add_argument("--distinct", type=positive_int, default=200,
                   help="distinct CGI URLs in the Zipf workload")
    p.add_argument("--cpu-time", type=float, default=0.2, metavar="SECONDS",
                   help="mean CGI service demand (default 0.2)")
    common(p, seed=True)
    p.add_argument(
        "--json-out",
        help="write the knee report (deterministic JSON; diff with "
        "`repro diff`, e.g. against results/capacity_knee.json)",
    )
    p.add_argument("--txt-out",
                   help="write the rendered table next to --json-out")
    p.add_argument(
        "--windows-out",
        help="write every probe's per-window telemetry (JSONL, tagged "
        "with cell/phase/rate; gzip when the path ends in .gz)",
    )
    p.add_argument(
        "--dashboard", action="store_true",
        help="render an ASCII sparkline dashboard of each knee probe",
    )
    p.set_defaults(func=_cmd_capacity)

    p = sub.add_parser("analyze-log", help="Table-1 analysis of a real CLF log")
    common(p)
    p.add_argument("logfile")
    p.add_argument("--thresholds", type=float, nargs="+",
                   default=[0.1, 0.5, 1.0, 2.0])
    p.add_argument("--default-cgi-time", type=float, default=1.6)
    p.set_defaults(func=_cmd_analyze_log)

    p = sub.add_parser("gen-trace", help="synthesize a workload trace file")
    p.add_argument("kind", choices=["adl", "webstone", "zipf", "hit-ratio"])
    p.add_argument("-o", "--out", required=True)
    p.add_argument("-n", type=positive_int, default=1_000,
                   help="request count")
    p.add_argument("-d", "--distinct", type=positive_int, default=200)
    p.add_argument("--scale", type=positive_float, default=0.05,
                   help="(adl only)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen_trace)

    p = sub.add_parser(
        "run-config",
        help="run a saved trace against a cluster built from a Swala "
        "configuration file",
    )
    p.add_argument("configfile")
    p.add_argument("--trace", required=True, help="trace file (.jsonl)")
    p.add_argument("--nodes", type=positive_int, default=4)
    p.add_argument("--clients", type=positive_int, default=16)
    p.add_argument("--output", help="also write the report to this file")
    observability(p)
    p.set_defaults(func=_cmd_run_config)

    p = sub.add_parser(
        "trace",
        help="latency breakdowns / percentiles / timeline from a span "
        "trace written with --trace-out",
    )
    p.add_argument("tracefile")
    p.add_argument("--breakdown", action="store_true",
                   help="latency category shares per cache outcome")
    p.add_argument("--percentiles", action="store_true",
                   help="response-time percentile table per cache outcome")
    p.add_argument("--timeline", action="store_true",
                   help="ASCII span timeline of one request")
    p.add_argument("--trace-id", type=int, default=None,
                   help="which trace for --timeline (default: first complete)")
    p.add_argument("--width", type=positive_int, default=48,
                   help="timeline bar width in characters")
    p.add_argument("--output", help="also write the report to this file")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "audit",
        help="consistency-audit report (anomaly taxonomy, staleness "
        "windows, per-node timelines) from a file written with --audit-out",
    )
    p.add_argument("auditfile")
    p.add_argument("--taxonomy", action="store_true",
                   help="only the anomaly taxonomy table")
    p.add_argument("--staleness", action="store_true",
                   help="only the broadcast staleness-window distribution")
    p.add_argument("--timeline", action="store_true",
                   help="only the per-node anomaly sparklines")
    p.add_argument("--bins", type=positive_int, default=60,
                   help="timeline resolution in bins (default 60)")
    p.add_argument("--timeseries", metavar="FILE",
                   help="also render the sparkline dashboard from a "
                   "--timeseries-out file")
    p.add_argument("--series", nargs="*", metavar="SUBSTR",
                   help="filter dashboard series by substring")
    p.add_argument("--output", help="also write the report to this file")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser(
        "profile",
        help="per-node bottleneck report and resource utilization tables "
        "from a file written with --profile-out; optionally fold a span "
        "trace into a flame graph",
    )
    p.add_argument("profilefile")
    p.add_argument("--run", type=int, default=None,
                   help="which run to report (default: last)")
    p.add_argument("--node", metavar="NAME",
                   help="restrict the resource table to one node")
    p.add_argument("--top", type=positive_int, default=None, metavar="N",
                   help="show only the N most saturated resources")
    p.add_argument("--bottlenecks", action="store_true",
                   help="only the per-node bottleneck table")
    p.add_argument("--resources", action="store_true",
                   help="only the full resource table")
    p.add_argument("--trace", metavar="SPANS",
                   help="also fold this --trace-out JSONL into a flame graph")
    p.add_argument("--folded-out", metavar="FILE",
                   help="write folded stacks (flamegraph.pl/speedscope "
                   "format); requires --trace")
    p.add_argument("--width", type=positive_int, default=60,
                   help="flame-chart bar width in characters")
    p.add_argument("--output", help="also write the report to this file")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser(
        "diff",
        help="compare two observability exports (profile/metrics JSON, "
        "audit/timeseries/trace JSONL) counter by counter; exits 1 on "
        "drift beyond --threshold",
    )
    p.add_argument("baseline")
    p.add_argument("current")
    p.add_argument("--threshold", type=float, default=0.0, metavar="FRAC",
                   help="allowed relative change per counter (default 0: "
                   "any drift fails)")
    p.add_argument("--abs-threshold", type=float, default=1e-9,
                   metavar="DELTA",
                   help="ignore absolute changes at or below this "
                   "(default 1e-9, swallows float noise)")
    p.add_argument("--ignore", action="append", metavar="SUBSTR",
                   help="skip counters whose name contains this (repeatable)")
    p.add_argument("--only", action="append", metavar="SUBSTR",
                   help="compare only counters whose name contains this "
                   "(repeatable)")
    p.add_argument("--max-rows", type=int, default=50,
                   help="max drifted counters to print (default 50)")
    p.add_argument("--output", help="also write the report to this file")
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser(
        "critical",
        help="critical-path blame report (which resource the latency is "
        "actually spent on) from a --critical-out aggregate, or "
        "recomputed from raw --trace-out/--profile-out exports",
    )
    p.add_argument("criticalfile", nargs="?", default=None,
                   help="a --critical-out JSON aggregate")
    p.add_argument("--trace", metavar="SPANS",
                   help="recompute from this --trace-out JSONL instead")
    p.add_argument("--profile", metavar="PROFILE",
                   help="span-linked intervals for --trace (a --profile-out "
                   "JSON recorded alongside --critical-out)")
    p.add_argument("--export", metavar="FILE",
                   help="also write the recomputed aggregate (requires "
                   "--trace)")
    p.add_argument("--segments", action="store_true",
                   help="only the blame-segment table")
    p.add_argument("--by-outcome", action="store_true",
                   help="only the per-outcome blame table")
    p.add_argument("--width", type=positive_int, default=60,
                   help="blame flame-chart bar width in characters")
    p.add_argument("--output", help="also write the report to this file")
    p.set_defaults(func=_cmd_critical)

    p = sub.add_parser(
        "whatif",
        help="causal what-if: replay a recorded run under virtual resource "
        "speedups (cpu:2, disk:4, lan:4, nodes:+1); --validate re-simulates "
        "for real and exits 1 if the prediction error exceeds --max-error",
    )
    p.add_argument("--scenarios", nargs="+", required=True, metavar="RES:K",
                   help="speedup hypotheses, e.g. cpu:2 disk:2 lan:4 "
                   "nodes:+1")
    p.add_argument("--trace", metavar="SPANS",
                   help="replay this --trace-out JSONL (replay mode)")
    p.add_argument("--profile", metavar="PROFILE",
                   help="span-linked intervals for --trace (profile "
                   "recorded alongside --critical-out)")
    p.add_argument("--validate", action="store_true",
                   help="record a baseline cell, predict each scenario, "
                   "then actually re-run with scaled rates and report the "
                   "prediction error")
    p.add_argument("--nodes", type=positive_int, default=2,
                   help="cluster size for --validate cells (default 2)")
    p.add_argument("--requests", type=positive_int, default=40,
                   help="requests per --validate cell (default 40)")
    p.add_argument("--cpu-time", type=float, default=1.0,
                   help="per-request CGI CPU seconds in --validate cells")
    p.add_argument("--max-error", type=float, default=0.10, metavar="FRAC",
                   help="allowed relative prediction error before exit 1 "
                   "(default 0.10)")
    p.add_argument("--output", help="also write the report to this file")
    p.set_defaults(func=_cmd_whatif)

    p = sub.add_parser("describe-trace", help="summarize a saved trace file")
    p.add_argument("tracefile")
    p.add_argument("--top", type=int, default=5)
    p.add_argument("--output", help="also write the summary to this file")
    p.set_defaults(func=_cmd_describe_trace)

    p = sub.add_parser("all", help="regenerate every table and figure")
    p.add_argument("--output-dir", default="results")
    p.add_argument(
        "--jobs", type=positive_int, default=1, metavar="N",
        help="worker processes for the sweep-style tables/figures",
    )
    p.set_defaults(func=_cmd_all)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with _observability(args):
        try:
            return args.func(args)
        except _UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
