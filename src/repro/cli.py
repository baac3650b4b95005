"""Command-line interface for running simulations and paper experiments.

Installed as the ``repro`` console script (also runnable as
``python -m repro.cli``; the legacy ``repro-spatial-cache`` alias is kept).
Eight sub-commands are provided (see ``docs/cli.md`` for a full guide):

* ``compare`` — run PAG / SEM / APRO (and optionally FPRO / CPRO) on one
  trace and print the headline metrics;
* ``fleet`` — simulate many heterogeneous clients against one shared server
  and print per-group and server-load metrics; supports halting mid-run and
  resuming from persisted cache snapshots (``--halt-after`` / ``--resume``)
  and a live ops dashboard while the run executes (``--status-port``);
* ``serve`` — run a standalone wire-protocol server until interrupted,
  optionally with the live ops dashboard on a second port;
* ``trace`` — replay a seeded fleet under the recording instrument and
  print a text flame view (optionally exporting one JSON line per query);
* ``figure`` — regenerate one of the paper's figures (``6``–``11``,
  ``table61`` or ``overheads``);
* ``params`` — print the Table 6.1 parameter sheet for a configuration;
* ``persist`` — checkpoint a server R-tree into a ``.rpro`` page store,
  inspect one (header + write-ahead-log facts), verify it (WAL validation
  plus the backend-invariance differential), repair a damaged WAL tail or
  pack the log back into a fresh checkpoint;
* ``lint`` — run the AST-based determinism & invariant linter
  (:mod:`repro.analysis`) and exit non-zero on findings.
"""

from __future__ import annotations

import argparse
from typing import List, Optional, Sequence

from repro.experiments import fig6, fig7, fig8, fig9, fig10, fig11, overheads, table61
from repro.experiments.report import (
    format_fleet_report, format_latency_line, format_table,
)
from repro.sim.config import SimulationConfig, config_meta
from repro.sim.deployment import check_combination
from repro.sim.fleet import ClientGroupSpec, FleetConfig, default_fleet, run_fleet
from repro.sim.runner import run_comparison


_FIGURES = {
    "6": fig6,
    "7": fig7,
    "8": fig8,
    "9": fig9,
    "10": fig10,
    "11": fig11,
    "table61": table61,
    "overheads": overheads,
}


#: Defaults of the configuration flags that ``--paper-scale`` replaces with
#: Table 6.1's values.  They default to ``None`` so an explicit one is seen.
_SCALED_DEFAULTS = {"queries": 250, "objects": 4_000, "dataset": "NE", "seed": 7}


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--queries", type=int,
                        help="number of queries to simulate (default: 250)")
    parser.add_argument("--objects", type=int,
                        help="number of data objects (default: 4000)")
    parser.add_argument("--dataset", choices=("NE", "RD", "UNIFORM"),
                        help="synthetic dataset family (default: NE)")
    parser.add_argument("--mobility", choices=("RAN", "DIR"), default="RAN",
                        help="mobility model (default: RAN)")
    parser.add_argument("--cache", type=float, default=0.01,
                        help="cache size as a fraction of the dataset (default: 0.01)")
    parser.add_argument("--replacement", default="GRD3",
                        help="replacement policy for proactive caching (default: GRD3)")
    parser.add_argument("--seed", type=int, help="dataset seed (default: 7)")
    parser.add_argument("--paper-scale", action="store_true",
                        help="use the paper's full Table 6.1 parameters (123 593 "
                             "NE objects, 10 000 queries; a Figure-6 panel takes "
                             "about 24 s) instead of the scaled defaults")


def config_from_args(args: argparse.Namespace) -> SimulationConfig:
    """Build a :class:`SimulationConfig` from parsed CLI arguments.

    ``--paper-scale`` fixes the dataset and the trace, so an explicit
    ``--queries`` / ``--objects`` / ``--dataset`` / ``--seed`` beside it is
    refused rather than silently dropped.
    """
    given = {name: getattr(args, name) for name in _SCALED_DEFAULTS
             if getattr(args, name) is not None}
    if getattr(args, "paper_scale", False):
        if given:
            flags = ", ".join(f"--{name}" for name in given)
            raise SystemExit(f"repro {args.command}: error: --paper-scale "
                             f"uses Table 6.1's dataset and trace; drop {flags}")
        base = SimulationConfig.paper()
        return base.with_overrides(mobility_model=args.mobility,
                                   cache_fraction=args.cache,
                                   replacement_policy=args.replacement)
    values = {**_SCALED_DEFAULTS, **given}
    return SimulationConfig.scaled(query_count=values["queries"],
                                   object_count=values["objects"],
                                   seed=values["seed"]).with_overrides(
        dataset_name=values["dataset"],
        mobility_model=args.mobility,
        cache_fraction=args.cache,
        replacement_policy=args.replacement)


def _run_compare(args: argparse.Namespace) -> str:
    from repro.storage import StorageError
    config = config_from_args(args)
    models = tuple(model.strip().upper() for model in args.models.split(","))
    try:
        results = run_comparison(config, models=models, store_path=args.store)
    except (OSError, StorageError) as error:
        raise SystemExit(f"repro compare: error: {error}")
    metrics = ("uplink_bytes", "downlink_bytes", "cache_hit_rate", "byte_hit_rate",
               "false_miss_rate", "response_time", "client_cpu_ms")
    rows = [[metric] + [results[m].summary()[metric] for m in models] for metric in metrics]
    return format_table(["metric"] + list(models), rows,
                        title=f"Caching model comparison ({config.query_count} queries, "
                              f"|C|={config.cache_fraction:.1%}, {config.mobility_model})")


_GROUP_MODELS = ("PAG", "SEM", "APRO", "FPRO", "CPRO")
_GROUP_MOBILITY = ("RAN", "DIR")


def parse_group_spec(text: str) -> ClientGroupSpec:
    """Parse one ``--group`` value.

    Format: ``name:count[:mobility[:model[:cache_fraction[:speed_factor]]]]``,
    e.g. ``vehicles:20:DIR:APRO:0.005:8``.  Model and mobility names are
    validated here so a typo fails at parse time, not mid-run (possibly
    inside a worker process).
    """
    parts = text.split(":")
    if len(parts) < 2:
        raise argparse.ArgumentTypeError(
            f"group spec {text!r} must be name:count[:mobility[:model[:cache[:speed]]]]")
    try:
        spec = ClientGroupSpec(
            name=parts[0],
            clients=int(parts[1]),
            mobility_model=parts[2].upper() if len(parts) > 2 and parts[2] else "RAN",
            model=parts[3].upper() if len(parts) > 3 and parts[3] else "APRO",
            cache_fraction=float(parts[4]) if len(parts) > 4 and parts[4] else None,
            speed_factor=float(parts[5]) if len(parts) > 5 and parts[5] else 1.0,
        )
    except ValueError as error:
        raise argparse.ArgumentTypeError(f"bad group spec {text!r}: {error}")
    if spec.mobility_model not in _GROUP_MOBILITY:
        raise argparse.ArgumentTypeError(
            f"bad group spec {text!r}: mobility must be one of {_GROUP_MOBILITY}")
    if spec.model not in _GROUP_MODELS:
        raise argparse.ArgumentTypeError(
            f"bad group spec {text!r}: model must be one of {_GROUP_MODELS}")
    return spec


def _update_summary_line(summary: dict) -> str:
    """The one-line server-side update digest under a fleet report."""
    line = ("\nserver updates: "
            f"{summary['applied']} applied "
            f"({summary['inserts']} insert / {summary['deletes']} "
            f"delete / {summary['modifies']} modify), "
            f"{summary['live_objects']} live objects")
    if summary.get("wal_commits"):
        line += f", {summary['wal_commits']} WAL commits"
    return line


def _run_fleet(args: argparse.Namespace) -> str:
    from repro.storage import StorageError
    if args.status_port is not None and (args.resume or args.halt_after):
        raise SystemExit("repro fleet: error: --status-port cannot be "
                         "combined with --resume/--halt-after")
    if args.resume:
        # The session file is authoritative for a resumed fleet; flags that
        # describe the deployment would be silently dropped otherwise.
        given = {"--update-rate": args.update_rate,
                 "--consistency": args.consistency != "none",
                 "--durable": args.durable,
                 "--shards": args.shards is not None,
                 "--router-cache": (args.router_cache
                                    or args.router_cache_bytes is not None),
                 "--transport": args.transport != "inproc"}
        for flag, present in given.items():
            if present:
                raise SystemExit(
                    f"repro fleet: error: {flag} cannot be combined with "
                    f"--resume (the session file already records the "
                    f"fleet's deployment)")
        from repro.sim.restart import resume_fleet
        try:
            result, state = resume_fleet(args.resume)
        except (OSError, ValueError, StorageError) as error:
            raise SystemExit(f"repro fleet: error: cannot resume: {error}")
        processed = state["processed_events"]
        total = state["total_events"]
        report = format_fleet_report(
            result, title=f"Fleet simulation — resumed from {args.resume} "
                          f"(events {processed}/{total} were pre-restart)")
        if result.update_summary:
            report += _update_summary_line(result.update_summary)
        return report

    base = SimulationConfig.scaled(query_count=args.queries, object_count=args.objects,
                                   seed=args.seed).with_overrides(
        dataset_name=args.dataset, cache_fraction=args.cache,
        replacement_policy=args.replacement)
    try:
        if args.group:
            fleet = FleetConfig.make(base, args.group, fleet_seed=args.fleet_seed)
        else:
            fleet = default_fleet(args.clients, base=base, fleet_seed=args.fleet_seed)
        if args.update_rate or args.consistency != "none":
            import dataclasses
            fleet = dataclasses.replace(fleet, update_rate=args.update_rate,
                                        consistency=args.consistency,
                                        ttl_seconds=args.ttl)
        if args.shards is not None:
            import dataclasses
            fleet = dataclasses.replace(fleet, shards=args.shards,
                                        partitioner=args.partitioner)
        if args.router_cache or args.router_cache_bytes is not None:
            import dataclasses
            from repro.sharding import DEFAULT_CACHE_BYTES
            fleet = dataclasses.replace(
                fleet, router_cache=True,
                router_cache_bytes=(args.router_cache_bytes
                                    if args.router_cache_bytes is not None
                                    else DEFAULT_CACHE_BYTES))
        if args.transport != "inproc":
            import dataclasses
            fleet = dataclasses.replace(fleet, transport=args.transport)
        # The one combination table decides what can run together; asking
        # it here fails before a status server or worker pool starts.
        check_combination(fleet, max_workers=args.workers,
                          store_path=args.store, durable=args.durable,
                          halt_resume=args.halt_after is not None)
    except ValueError as error:
        # Also cross-group validation (duplicate names, non-positive
        # totals) that parse_group_spec cannot see: fail like an argparse
        # error, not a traceback.
        raise SystemExit(f"repro fleet: error: {error}")

    if args.halt_after is not None:
        from repro.sim.restart import run_fleet_interrupted
        if not args.session_dir:
            raise SystemExit("repro fleet: error: --halt-after requires "
                             "--session-dir to persist the session")
        try:
            state = run_fleet_interrupted(fleet, halt_after=args.halt_after,
                                          directory=args.session_dir,
                                          store_path=args.store,
                                          durable=args.durable)
        except (OSError, ValueError, StorageError) as error:
            raise SystemExit(f"repro fleet: error: {error}")
        return (f"Fleet halted after {state['processed_events']} of "
                f"{state['total_events']} events; session saved to "
                f"{args.session_dir}.\nResume with: repro fleet --resume "
                f"{args.session_dir}")

    from contextlib import ExitStack
    stack = ExitStack()
    status_thread = None
    if args.status_port is not None:
        if args.workers and args.workers > 1:
            raise SystemExit("repro fleet: error: --status-port needs a "
                             "serial run (worker processes cannot share "
                             "the in-process metrics registry)")
        from repro.obs.instrument import activated
        from repro.obs.registry import MetricsRegistry
        from repro.obs.status import StatusBoard, StatusServerThread, \
            board_active
        from repro.obs.trace import Recorder
        registry = MetricsRegistry()
        board = StatusBoard(registry)
        status_thread = StatusServerThread(board, port=args.status_port)
        try:
            status_thread.start()
        except RuntimeError as error:
            raise SystemExit(f"repro fleet: error: {error}")
        stack.callback(status_thread.stop)
        stack.enter_context(activated(Recorder(registry)))
        stack.enter_context(board_active(board))
        print(f"live ops: http://{status_thread.host}:{status_thread.port}/ "
              f"(/status, /metrics)", flush=True)
    try:
        try:
            result = run_fleet(fleet, max_workers=args.workers,
                               store_path=args.store, durable=args.durable)
        except (OSError, ValueError, StorageError) as error:
            raise SystemExit(f"repro fleet: error: {error}")
        mode = f"{args.workers} worker processes" if args.workers and args.workers > 1 \
            else "serial"
        if args.store:
            mode += f", tree served from {args.store}"
        if fleet.is_dynamic:
            mode += (f", {fleet.consistency} consistency, "
                     f"{fleet.update_rate:g} updates/s")
        if args.durable:
            mode += ", durable WAL"
        if fleet.is_networked:
            mode += f", loopback {fleet.transport} transport"
        if fleet.is_sharded:
            server_side = (f"{fleet.shards} shard(s) "
                           f"[{fleet.partitioner} partitioner]")
            if fleet.router_cache:
                server_side += " + router result cache"
        else:
            server_side = "1 shared server"
        report = format_fleet_report(
            result, title=f"Fleet simulation — {fleet.total_clients} clients, "
                          f"{len(fleet.groups)} groups, {server_side} ({mode})")
        if result.update_summary:
            report += _update_summary_line(result.update_summary)
        if result.net_summary:
            reconciled = ("reconciled exactly"
                          if result.net_summary.get("all_reconciled")
                          else "NOT reconciled")
            report += (f"\nLoopback bytes: client channels vs server ledgers "
                       f"{reconciled} across "
                       f"{len(result.net_summary.get('clients', []))} clients")
            latency = result.net_summary.get("latency")
            if latency and latency.get("queries"):
                report += "\n" + format_latency_line(latency)
        if status_thread is not None and args.status_linger > 0:
            # Scrapers (the CI smoke job, a browser on the dashboard) need
            # the endpoint to outlive a fast run; the final sections and
            # metrics stay scrapable until the linger expires.
            import time
            print(report)
            print(f"status server lingering for {args.status_linger:g}s "
                  f"(ctrl-c to stop)", flush=True)
            try:
                time.sleep(args.status_linger)
            except KeyboardInterrupt:
                pass
            return "status server stopped"
        return report
    finally:
        stack.close()


def _run_serve(args: argparse.Namespace) -> str:
    """Run a standalone wire-protocol server until interrupted."""
    import asyncio

    from repro.net.server import ReproServer
    from repro.sim.runner import build_shared_state

    base = SimulationConfig.scaled(query_count=args.queries,
                                   object_count=args.objects,
                                   seed=args.seed).with_overrides(
        dataset_name=args.dataset)
    if args.transport == "uds" and not args.path:
        raise SystemExit("repro serve: error: --transport uds requires "
                         "--path")

    async def main() -> None:
        shared = build_shared_state(base)
        server = ReproServer(shared.server, shared.size_model)
        status = None
        try:
            if args.transport == "uds":
                where = await server.listen_uds(args.path)
                print(f"serving {base.object_count} objects on uds "
                      f"{where}", flush=True)
            else:
                host, port = await server.listen_tcp(args.host, args.port)
                print(f"serving {base.object_count} objects on tcp "
                      f"{host}:{port}", flush=True)
            if args.status_port is not None:
                # The status server shares the wire server's loop; the
                # recorder feeds the /metrics registry from the query path.
                from repro.obs.instrument import activate
                from repro.obs.registry import MetricsRegistry
                from repro.obs.status import StatusBoard, StatusServer
                from repro.obs.trace import MetricsRecorder
                registry = MetricsRegistry()
                board = StatusBoard(registry)
                board.register("server", lambda: {
                    "dataset": base.dataset_name,
                    "objects": base.object_count,
                    "transport": args.transport,
                })
                board.register("net", lambda: {
                    "queue_depth": server.queue_depth(),
                    "connections": server.connection_ledgers(),
                })
                activate(MetricsRecorder(registry))
                status = StatusServer(board, port=args.status_port)
                shost, sport = await status.start()
                print(f"live ops: http://{shost}:{sport}/ "
                      f"(/status, /metrics)", flush=True)
            await asyncio.Event().wait()
        finally:
            if status is not None:
                from repro.obs.instrument import deactivate as _deactivate
                _deactivate()
                await status.close()
            await server.close()
            shared.tree.store.close()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    except OSError as error:
        # A listener that cannot bind (missing socket directory, port in
        # use); main() has already closed the server and the store.
        raise SystemExit(f"repro serve: error: {error}")
    return "server stopped"


def _run_trace(args: argparse.Namespace) -> str:
    """Replay a seeded fleet under the recording instrument; print traces."""
    import dataclasses

    from repro.obs.instrument import activated
    from repro.obs.trace import Recorder, render_flame, spans_to_jsonl

    base = SimulationConfig.scaled(query_count=args.queries,
                                   object_count=args.objects,
                                   seed=args.seed).with_overrides(
        dataset_name=args.dataset)
    fleet = default_fleet(args.clients, base=base)
    if args.shards is not None:
        fleet = dataclasses.replace(fleet, shards=args.shards,
                                    partitioner=args.partitioner)
    if args.update_rate:
        fleet = dataclasses.replace(fleet, update_rate=args.update_rate,
                                    consistency="versioned")
    recorder = Recorder(timing=args.timing)
    try:
        with activated(recorder):
            run_fleet(fleet)
    except (OSError, ValueError) as error:
        raise SystemExit(f"repro trace: error: {error}")
    if args.jsonl:
        try:
            with open(args.jsonl, "w", encoding="utf-8") as handle:
                spans_to_jsonl(recorder.roots, handle)
        except OSError as error:
            raise SystemExit(f"repro trace: error: cannot write "
                             f"{args.jsonl}: {error}")
    report = render_flame(recorder.roots, limit=args.limit)
    if args.jsonl:
        report += (f"\n{len(recorder.roots)} trace line(s) written to "
                   f"{args.jsonl}")
    return report


def _run_figure(args: argparse.Namespace) -> str:
    module = _FIGURES[args.figure]
    config = config_from_args(args)
    if args.figure == "11":
        config = fig11.default_config(query_count=config.query_count).with_overrides(
            object_count=config.object_count)
    return module.render(module.run(config))


def _run_params(args: argparse.Namespace) -> str:
    return table61.render(table61.run(config_from_args(args)))


def _run_persist_save_tree(args: argparse.Namespace) -> str:
    from repro.sim.runner import build_tree
    from repro.storage import StorageError, save_tree
    config = config_from_args(args)
    tree = build_tree(config)
    try:
        header = save_tree(tree, args.out, meta=config_meta(config))
    except (OSError, StorageError) as error:
        raise SystemExit(f"repro persist: error: {error}")
    return (f"saved {header['node_count']} node pages and "
            f"{header['object_count']} object pages "
            f"({header['page_size']} B each) to {args.out}")


def _run_persist_save_shards(args: argparse.Namespace) -> str:
    from repro.sharding import build_sharded_state, save_sharded_state
    from repro.storage import StorageError
    config = config_from_args(args)
    try:
        state = build_sharded_state(config, args.shards,
                                    partitioner=args.partitioner)
        try:
            manifest = save_sharded_state(state, args.out,
                                          meta=config_meta(config))
        finally:
            state.close()
    except (OSError, ValueError, StorageError) as error:
        raise SystemExit(f"repro persist: error: {error}")
    counts = ", ".join(str(count) for count in manifest["objects_per_shard"])
    return (f"saved {manifest['shards']} shard store(s) "
            f"({manifest['partitioner']} partitioner; objects per shard: "
            f"{counts}) to {args.out}")


def _wal_info_lines(summary: dict) -> List[str]:
    """The write-ahead-log section of ``repro persist info``."""
    if not summary["wal_present"]:
        return ["  wal: none (checkpoint only)"]
    if summary["stale"]:
        return ["  wal: stale (superseded by a newer checkpoint; "
                "ignored on open, deleted by pack)"]
    lines = [f"  wal: {summary['wal_bytes']} bytes, "
             f"{summary['records']} committed record(s), "
             f"version {summary['committed_version']}"]
    if summary["tail_state"] == "torn":
        lines.append(f"  wal tail: torn ({summary['tail_bytes']} trailing "
                     f"bytes; auto-truncated on recovery)")
    elif summary["tail_state"] == "corrupt":
        lines.append(f"  wal tail: CORRUPT ({summary['tail_error']}); "
                     f"run 'repro persist recover --force'")
    lines.append(f"  dead pages: {summary['dead_pages']} of "
                 f"{summary['file_pages']} file pages "
                 f"({summary['live_pages']} live after recovery); "
                 f"reclaim with 'repro persist pack'")
    return lines


def _run_persist_info(args: argparse.Namespace) -> str:
    from repro.storage import StorageError, read_header, wal_summary
    try:
        header = read_header(args.path)
        summary = wal_summary(args.path)
    except (OSError, StorageError) as error:
        raise SystemExit(f"repro persist: error: {error}")
    lines = [f"{args.path}: rtree page store (format {header['format']})"]
    for key in ("page_size", "node_count", "object_count", "root_id", "height",
                "max_entries", "min_entries"):
        lines.append(f"  {key:>14}: {header[key]}")
    for key, value in sorted(header.get("meta", {}).items()):
        lines.append(f"  meta.{key}: {value}")
    lines.extend(_wal_info_lines(summary))
    return "\n".join(lines)


def _run_persist_verify(args: argparse.Namespace) -> str:
    """Validate the store's WAL, then diff the file backend against memory.

    The WAL check classifies the log (clean / torn / corrupt / stale) from
    a read-only scan.  A store *without* live WAL records additionally
    replays one APRO trace against both backends and asserts identical
    query results, per-query visited-page counts and logical page-read
    totals — the backend-invariance contract of :mod:`repro.storage`.  A
    store *with* committed records no longer matches the freshly built
    tree (that is the point of the log), so verify instead recovers it and
    checks the structural invariants of the recovered tree.
    """
    from repro.sim.runner import generate_trace, replay_store_trace
    from repro.storage import StorageError, load_tree, wal_path, wal_summary
    try:
        summary = wal_summary(args.path)
    except (OSError, StorageError) as error:
        raise SystemExit(f"repro persist: error: {error}")
    if summary["tail_state"] == "corrupt":
        raise SystemExit(
            f"repro persist: VERIFY FAILED — {wal_path(args.path)}: corrupt "
            f"WAL tail ({summary['tail_error']}); {summary['records']} "
            f"record(s) up to version {summary['committed_version']} are "
            f"intact; run 'repro persist recover --force' to truncate the "
            f"damage")
    if summary["wal_present"] and not summary["stale"] and summary["records"]:
        if summary["tail_state"] == "torn":
            # Scan-only verdict: actually opening the store would truncate
            # the torn tail, and verify must never modify the file.
            return (f"RECOVERABLE — {wal_path(args.path)} ends in a torn "
                    f"tail ({summary['tail_bytes']} bytes, a crash "
                    f"artefact); {summary['records']} committed record(s) "
                    f"up to version {summary['committed_version']} are "
                    f"intact and will replay on the next open")
        from repro.rtree.validation import assert_tree_valid
        try:
            tree = load_tree(args.path, recover=True)
            try:
                assert_tree_valid(tree)
                objects = len(tree.objects)
            finally:
                tree.store.close()
        except (OSError, AssertionError, StorageError) as error:
            raise SystemExit(f"repro persist: VERIFY FAILED — recovered "
                             f"store is invalid: {error}")
        return (f"OK — WAL clean: {summary['records']} committed record(s) "
                f"replay to version {summary['committed_version']}; "
                f"recovered tree valid ({objects} objects, "
                f"{summary['dead_pages']} dead pages reclaimable by pack)")
    config = config_from_args(args)
    trace = generate_trace(config)
    try:
        memory_rows, memory_reads, _ = replay_store_trace(config, trace)
        # A small 16-page buffer so the file path is genuinely exercised at
        # query time (a default-size buffer could serve everything warm).
        file_rows, file_reads, io_stats = replay_store_trace(
            config, trace, store_path=args.path, store_buffer_pages=16)
    except (OSError, StorageError) as error:
        raise SystemExit(f"repro persist: error: {error}")
    mismatches = [index for index, (m, f) in enumerate(zip(memory_rows, file_rows))
                  if m != f]
    if mismatches or memory_reads != file_reads:
        raise SystemExit(
            f"repro persist: VERIFY FAILED — per-query mismatches at "
            f"{mismatches[:10]}, logical reads {memory_reads} (memory) vs "
            f"{file_reads} (file)")
    note = " (stale WAL present; pack or the next open discards it)" \
        if summary["stale"] else ""
    return (f"OK — {len(trace)} queries identical on both backends; "
            f"{file_reads} logical page reads, "
            f"{io_stats['file_reads']} physical file reads, "
            f"{io_stats['buffer_hits']} buffer hits{note}")


def _run_persist_recover(args: argparse.Namespace) -> str:
    """Repair a store's WAL in place: truncate torn/corrupt tails."""
    import os
    from repro.storage import StorageError, repair_wal, wal_path
    if not os.path.exists(args.path):
        # A typo'd path must not read as a healthy store.
        raise SystemExit(f"repro persist: error: no such store: {args.path}")
    log = wal_path(args.path)
    if not os.path.exists(log):
        return f"{args.path}: no write-ahead log; nothing to recover"
    try:
        scan = repair_wal(log, force=args.force)
    except (OSError, StorageError) as error:
        raise SystemExit(f"repro persist: error: {error}")
    if not os.path.exists(log):
        return (f"{log}: unreadable log header; log removed, store falls "
                f"back to its checkpoint")
    dropped = scan.tail_bytes
    verdict = (f"{log}: {len(scan.records)} committed record(s) kept "
               f"(version {scan.committed_version})")
    if dropped:
        verdict += (f"; {dropped} {scan.tail_state} tail byte(s) truncated"
                    + (" (forced)" if scan.tail_state == "corrupt" else ""))
    else:
        verdict += "; tail already clean"
    return verdict


def _run_persist_pack(args: argparse.Namespace) -> str:
    """Fold WALs into fresh checkpoints (single store or shard directory)."""
    import os
    from repro.sharding import pack_shards
    from repro.storage import StorageError, pack
    try:
        if os.path.isdir(args.path):
            per_shard = pack_shards(args.path)
            lines = [f"packed {len(per_shard)} shard store(s) in {args.path}:"]
            lines.extend(
                f"  {name}: {info['records_folded']} record(s) folded, "
                f"{info['dead_pages_reclaimed']} dead page(s) reclaimed, "
                f"version {info['committed_version']}"
                for name, info in per_shard.items())
            return "\n".join(lines)
        info = pack(args.path)
    except (OSError, StorageError) as error:
        raise SystemExit(f"repro persist: error: {error}")
    return (f"packed {args.path}: {info['records_folded']} WAL record(s) "
            f"({info['wal_bytes']} bytes) folded into a fresh checkpoint at "
            f"version {info['committed_version']}; "
            f"{info['dead_pages_reclaimed']} dead page(s) reclaimed "
            f"({info['pages_before']} -> {info['pages_after']} node pages, "
            f"{info['objects']} objects)")


def _run_lint(args: argparse.Namespace) -> str:
    from repro.analysis import (
        lint_paths, render_json, render_text, rule_catalogue,
    )
    if args.list_rules:
        catalogue = rule_catalogue()
        width = max(len(rule) for rule, _ in catalogue)
        return "\n".join(f"{rule.ljust(width)}  {title}"
                         for rule, title in catalogue)
    rules = tuple(rule.strip().upper() for rule in args.rules.split(",")
                  if rule.strip()) if args.rules else ()
    known = {rule for rule, _ in rule_catalogue()}
    unknown = sorted(set(rules) - known)
    if unknown:
        raise SystemExit(f"repro lint: error: unknown rule(s) "
                         f"{', '.join(unknown)} (see --list-rules)")
    paths = args.paths or ["src"]
    try:
        findings, checked = lint_paths(paths, rules=rules)
    except OSError as error:
        raise SystemExit(f"repro lint: error: {error}")
    enabled = rules or known
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(render_json(findings, checked, rules=enabled))
                handle.write("\n")
        except OSError as error:
            raise SystemExit(f"repro lint: error: cannot write "
                             f"{args.output}: {error}")
    if args.format == "json":
        report = render_json(findings, checked, rules=enabled)
    else:
        report = render_text(findings, checked)
    if findings:
        # Non-zero exit so the CI lint job gates on findings, but the full
        # report still reaches stdout first.
        print(report)
        raise SystemExit(1)
    return report


_EXAMPLES = {
    "compare": """\
examples:
  repro compare --queries 250 --objects 4000 --models PAG,SEM,APRO
  repro compare --mobility DIR --cache 0.02 --replacement LRU
  repro persist save-tree --out server.rpro && repro compare --store server.rpro
""",
    "fleet": """\
examples:
  repro fleet --clients 50 --queries 40 --workers 4
  repro fleet --group walkers:30:RAN:APRO --group vans:20:DIR:APRO:0.005:8
  repro fleet --clients 8 --halt-after 100 --session-dir ./session
  repro fleet --resume ./session
  repro fleet --clients 8 --update-rate 0.05 --consistency versioned
  repro fleet --clients 8 --update-rate 0.05 --consistency ttl --ttl 200
  repro fleet --clients 8 --update-rate 0.05 --consistency versioned --store server.rpro --durable
  repro fleet --clients 12 --shards 4 --partitioner grid
  repro fleet --clients 12 --shards 4 --router-cache --router-cache-bytes 131072
  repro persist save-shards --out ./shards --shards 4 && repro fleet --shards 4 --store ./shards
  repro fleet --clients 8 --transport uds
  repro fleet --clients 8 --transport tcp --consistency versioned --update-rate 0.05
  repro fleet --clients 20 --shards 4 --router-cache --status-port 8765
  repro fleet --clients 8 --status-port 0 --status-linger 30
""",
    "serve": """\
examples:
  repro serve --transport tcp --port 7007
  repro serve --transport uds --path /tmp/repro.sock --objects 8000
  repro serve --transport tcp --port 7007 --status-port 8765
""",
    "trace": """\
examples:
  repro trace --clients 6 --queries 15
  repro trace --shards 4 --partitioner grid --limit 64
  repro trace --update-rate 0.05 --jsonl trace.jsonl
  repro trace --timing
""",
    "figure": """\
examples:
  repro figure 6 --queries 250
  repro figure 10 --mobility DIR
  repro figure table61 --paper-scale
""",
    "params": """\
examples:
  repro params
  repro params --paper-scale
""",
    "persist": """\
examples:
  repro persist save-tree --out server.rpro --objects 4000
  repro persist save-shards --out ./shards --shards 4 --partitioner kd
  repro persist info server.rpro
  repro persist verify server.rpro --queries 100
  repro persist recover server.rpro
  repro persist pack server.rpro
  repro persist pack ./shards
""",
    "lint": """\
examples:
  repro lint
  repro lint src/repro/core src/repro/rtree
  repro lint --rules DET01,DET02,FLT01
  repro lint --format json --output lint-findings.json
  repro lint --list-rules
""",
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Proactive caching for spatial queries (ICDE 2005) — simulator CLI",
        epilog="Full documentation: docs/cli.md")
    subparsers = parser.add_subparsers(dest="command", required=True)

    compare = subparsers.add_parser(
        "compare", help="compare caching models on one trace",
        epilog=_EXAMPLES["compare"],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    compare.add_argument("--models", default="PAG,SEM,APRO",
                         help="comma-separated models (PAG, SEM, APRO, FPRO, CPRO)")
    compare.add_argument("--store", default=None, metavar="PATH",
                         help="serve the R-tree from this .rpro page store "
                              "(see 'repro persist save-tree')")
    _add_config_arguments(compare)
    compare.set_defaults(handler=_run_compare)

    fleet = subparsers.add_parser(
        "fleet", help="simulate many heterogeneous clients against one shared server",
        epilog=_EXAMPLES["fleet"],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    fleet.add_argument("--clients", type=int, default=12,
                       help="total clients, split over the default heterogeneous "
                            "groups when no --group is given (default: 12)")
    fleet.add_argument("--group", action="append", type=parse_group_spec, default=[],
                       metavar="NAME:COUNT[:MOBILITY[:MODEL[:CACHE[:SPEED]]]]",
                       help="explicit client group (repeatable); overrides --clients")
    fleet.add_argument("--queries", type=int, default=40,
                       help="queries per client (default: 40)")
    fleet.add_argument("--objects", type=int, default=4_000,
                       help="number of data objects (default: 4000)")
    fleet.add_argument("--dataset", choices=("NE", "RD", "UNIFORM"), default="NE",
                       help="synthetic dataset family (default: NE)")
    fleet.add_argument("--cache", type=float, default=0.01,
                       help="base cache fraction, groups may scale it (default: 0.01)")
    fleet.add_argument("--replacement", default="GRD3",
                       help="replacement policy for proactive clients (default: GRD3)")
    fleet.add_argument("--seed", type=int, default=7, help="dataset seed (default: 7)")
    fleet.add_argument("--fleet-seed", type=int, default=101,
                       help="seed decorrelating per-client traces (default: 101)")
    fleet.add_argument("--workers", type=int, default=1,
                       help="worker processes; >1 shards the fleet (default: 1)")
    fleet.add_argument("--store", default=None, metavar="PATH",
                       help="serve the shared R-tree from this .rpro page "
                            "store (with --shards: a shard-store directory "
                            "from 'repro persist save-shards')")
    fleet.add_argument("--shards", type=int, default=None, metavar="N",
                       help="run the fleet against N spatial shards behind "
                            "the scatter-gather router (default: one "
                            "unsharded server; --shards 1 is byte-identical "
                            "to it)")
    fleet.add_argument("--partitioner", choices=("grid", "kd"), default="grid",
                       help="spatial partitioner for --shards: uniform grid "
                            "cells or kd median splits (default: grid)")
    fleet.add_argument("--router-cache", action="store_true",
                       help="attach the router-level partition-result cache "
                            "(requires --shards): repeated queries skip "
                            "shards memoised as empty for their canonical "
                            "grid variants, result-identically")
    fleet.add_argument("--router-cache-bytes", type=int, default=None,
                       metavar="N",
                       help="fact-store budget for --router-cache in bytes "
                            "(default: 65536; implies --router-cache)")
    fleet.add_argument("--update-rate", type=float, default=0.0, metavar="RATE",
                       help="server-side dataset updates per simulated second "
                            "(insert/delete/modify mix; default: 0 = static)")
    fleet.add_argument("--consistency", choices=("versioned", "ttl", "none"),
                       default="none",
                       help="cache-consistency protocol for dynamic fleets: "
                            "version-stamped lazy validation, a TTL baseline "
                            "or none (default: none)")
    fleet.add_argument("--ttl", type=float, default=120.0, metavar="SECONDS",
                       help="item lifetime for --consistency ttl, in "
                            "simulated seconds (default: 120)")
    fleet.add_argument("--durable", action="store_true",
                       help="commit every dataset-update batch to the "
                            "store's write-ahead log so the run is "
                            "crash-safe on disk (requires --store and a "
                            "dynamic fleet)")
    fleet.add_argument("--transport", choices=("inproc", "uds", "tcp"),
                       default="inproc",
                       help="where the shared server lives: in the same "
                            "process (default) or behind a loopback UNIX / "
                            "TCP socket speaking the repro.net wire "
                            "protocol (byte-identical results)")
    fleet.add_argument("--halt-after", type=int, default=None, metavar="N",
                       help="stop after N global events and persist the "
                            "session (requires --session-dir)")
    fleet.add_argument("--session-dir", default=None, metavar="DIR",
                       help="directory the halted session is saved to")
    fleet.add_argument("--resume", default=None, metavar="DIR",
                       help="resume a halted session from DIR and run it to "
                            "completion (ignores the other fleet options)")
    fleet.add_argument("--status-port", type=int, default=None, metavar="PORT",
                       help="serve the live ops dashboard (/, /status, "
                            "/metrics) on 127.0.0.1:PORT while the run "
                            "executes (serial runs only; 0 picks a free "
                            "port)")
    fleet.add_argument("--status-linger", type=float, default=0.0,
                       metavar="SECONDS",
                       help="keep the status server up this long after the "
                            "run completes, so scrapers can read the final "
                            "sections (default: 0)")
    fleet.set_defaults(handler=_run_fleet)

    serve = subparsers.add_parser(
        "serve", help="run a standalone wire-protocol server",
        epilog=_EXAMPLES["serve"],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    serve.add_argument("--transport", choices=("uds", "tcp"), default="tcp",
                       help="listen on a UNIX socket (--path) or a TCP "
                            "port (default: tcp)")
    serve.add_argument("--path", default=None, metavar="SOCKET",
                       help="UNIX socket path for --transport uds")
    serve.add_argument("--host", default="127.0.0.1",
                       help="TCP bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port; 0 picks a free one and prints it "
                            "(default: 0)")
    serve.add_argument("--queries", type=int, default=400,
                       help="query-count knob of the generating config "
                            "(affects adaptation defaults only; default: "
                            "400)")
    serve.add_argument("--objects", type=int, default=4_000,
                       help="number of data objects (default: 4000)")
    serve.add_argument("--dataset", choices=("NE", "RD", "UNIFORM"),
                       default="NE",
                       help="synthetic dataset family (default: NE)")
    serve.add_argument("--seed", type=int, default=7,
                       help="dataset seed (default: 7)")
    serve.add_argument("--status-port", type=int, default=None, metavar="PORT",
                       help="also serve the live ops dashboard (/, /status, "
                            "/metrics) on 127.0.0.1:PORT (0 picks a free "
                            "port)")
    serve.set_defaults(handler=_run_serve)

    trace = subparsers.add_parser(
        "trace", help="replay a seeded fleet under the tracer and print a "
                      "flame view",
        epilog=_EXAMPLES["trace"],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    trace.add_argument("--clients", type=int, default=6,
                       help="total clients over the default heterogeneous "
                            "groups (default: 6)")
    trace.add_argument("--queries", type=int, default=15,
                       help="queries per client (default: 15)")
    trace.add_argument("--objects", type=int, default=2_000,
                       help="number of data objects (default: 2000)")
    trace.add_argument("--dataset", choices=("NE", "RD", "UNIFORM"),
                       default="NE",
                       help="synthetic dataset family (default: NE)")
    trace.add_argument("--seed", type=int, default=7,
                       help="dataset seed (default: 7)")
    trace.add_argument("--shards", type=int, default=None, metavar="N",
                       help="trace a sharded fleet behind the "
                            "scatter-gather router")
    trace.add_argument("--partitioner", choices=("grid", "kd"),
                       default="grid",
                       help="spatial partitioner for --shards "
                            "(default: grid)")
    trace.add_argument("--update-rate", type=float, default=0.0,
                       metavar="RATE",
                       help="dataset updates per simulated second under "
                            "versioned consistency (default: 0 = static)")
    trace.add_argument("--timing", action="store_true",
                       help="record wall_elapsed_ms on spans (wall-clock: "
                            "breaks byte-stability of the export)")
    trace.add_argument("--jsonl", default=None, metavar="PATH",
                       help="write one JSON line per traced query here")
    trace.add_argument("--limit", type=int, default=48,
                       help="span paths shown in the flame view "
                            "(default: 48)")
    trace.set_defaults(handler=_run_trace)

    figure = subparsers.add_parser(
        "figure", help="regenerate a figure from the paper",
        epilog=_EXAMPLES["figure"],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    figure.add_argument("figure", choices=sorted(_FIGURES),
                        help="which figure/table to regenerate")
    _add_config_arguments(figure)
    figure.set_defaults(handler=_run_figure)

    params = subparsers.add_parser(
        "params", help="print the Table 6.1 parameter sheet",
        epilog=_EXAMPLES["params"],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    _add_config_arguments(params)
    params.set_defaults(handler=_run_params)

    persist = subparsers.add_parser(
        "persist", help="checkpoint / inspect / verify disk-backed page stores",
        epilog=_EXAMPLES["persist"],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    persist_actions = persist.add_subparsers(dest="action", required=True)

    save_tree = persist_actions.add_parser(
        "save-tree", help="build the configured dataset's R-tree and save it")
    save_tree.add_argument("--out", required=True, metavar="PATH",
                           help="output .rpro file")
    _add_config_arguments(save_tree)
    save_tree.set_defaults(handler=_run_persist_save_tree)

    save_shards = persist_actions.add_parser(
        "save-shards",
        help="partition the configured dataset and save one .rpro per shard")
    save_shards.add_argument("--out", required=True, metavar="DIR",
                             help="output shard-store directory")
    save_shards.add_argument("--shards", type=int, required=True, metavar="N",
                             help="number of spatial shards")
    save_shards.add_argument("--partitioner", choices=("grid", "kd"),
                             default="grid",
                             help="spatial partitioner (default: grid)")
    _add_config_arguments(save_shards)
    save_shards.set_defaults(handler=_run_persist_save_shards)

    info = persist_actions.add_parser("info", help="print a page store's header")
    info.add_argument("path", help="an .rpro file")
    info.set_defaults(handler=_run_persist_info)

    verify = persist_actions.add_parser(
        "verify", help="validate the WAL and assert the file backend "
                       "matches the in-memory backend")
    verify.add_argument("path", help="an .rpro file written from this configuration")
    _add_config_arguments(verify)
    verify.set_defaults(handler=_run_persist_verify)

    recover = persist_actions.add_parser(
        "recover", help="repair a store's write-ahead log (truncate a "
                        "torn or corrupt tail)")
    recover.add_argument("path", help="an .rpro file whose .wal needs repair")
    recover.add_argument("--force", action="store_true",
                         help="also truncate a CORRUPT tail (in-place "
                              "damage: records past the damage are lost); "
                              "torn crash tails never need this")
    recover.set_defaults(handler=_run_persist_recover)

    pack = persist_actions.add_parser(
        "pack", help="fold the write-ahead log into a fresh checkpoint, "
                     "reclaiming dead pages")
    pack.add_argument("path", help="an .rpro file, or a shard-store "
                                   "directory to pack shard by shard")
    pack.set_defaults(handler=_run_persist_pack)

    lint = subparsers.add_parser(
        "lint", help="run the determinism & invariant linter over the tree",
        epilog=_EXAMPLES["lint"],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files or directories to lint (default: src)")
    lint.add_argument("--rules", default=None, metavar="R1,R2",
                      help="comma-separated rule ids to run (default: all; "
                           "see --list-rules)")
    lint.add_argument("--format", choices=("text", "json"), default="text",
                      help="report format on stdout (default: text)")
    lint.add_argument("--output", default=None, metavar="PATH",
                      help="also write the JSON findings document here "
                           "(regardless of --format; the CI artifact)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalogue and exit")
    lint.set_defaults(handler=_run_lint)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        print(args.handler(args))
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        return 0
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
