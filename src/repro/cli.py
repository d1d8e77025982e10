"""Command-line interface over :mod:`repro.api`.

Usage (after ``pip install -e .``; ``repro`` and ``python -m repro``
are equivalent)::

    repro corpus                          # list the 22 designs
    repro presets                         # list scenario presets
    repro synth uart_tx --period 1.0      # PPA report (store-cached)
    repro lint --all --json               # diagnostic rules over the corpus
    repro emit uart_tx -o uart_tx.v       # design -> Verilog
    repro generate -n 5 --nodes 60 -o out_dir
                                          # fit (cached) + batch generate
    repro trace -n 1 -o trace.json        # traced run -> Perfetto JSON
    repro cache --stats                   # inspect the artifact store

``-v`` / ``-vv`` (or ``REPRO_LOG=DEBUG``) turns on the ``repro.*``
diagnostic log stream; everything is quiet by default.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys


def _session(args: argparse.Namespace, config=None):
    from .api import Session

    return Session(
        preset=getattr(args, "preset", "fast"),
        config=config,
        cache_dir=getattr(args, "cache_dir", None),
        use_cache=not getattr(args, "no_cache", False),
    )


def _cmd_corpus(args: argparse.Namespace) -> int:
    from .api import SynthRequest
    from .bench_designs import SPECS, load_design

    session = _session(args)
    print(f"{'name':<18s}{'family':<12s}{'nodes':>7s}{'edges':>7s}"
          f"{'regs':>6s}{'cells':>7s}{'scpr':>7s}")
    for spec in SPECS:
        g = load_design(spec.name)
        summary = session.synth(SynthRequest(g, clock_period=args.period))
        print(
            f"{spec.name:<18s}{spec.family:<12s}{g.num_nodes:>7d}"
            f"{g.num_edges:>7d}{len(g.registers()):>6d}"
            f"{summary.num_cells:>7d}{summary.scpr:>7.2f}"
        )
    return 0


def _cmd_presets(args: argparse.Namespace) -> int:
    from .api import list_presets, resolve_preset

    print(f"{'preset':<22s}{'epochs':>7s}{'sims':>6s}{'reward':>15s}"
          f"{'diff':>6s}  description")
    for name, description in list_presets().items():
        config = resolve_preset(name)
        print(
            f"{name:<22s}{config.diffusion.epochs:>7d}"
            f"{config.mcts.num_simulations:>6d}{config.reward:>15s}"
            f"{'yes' if config.use_diffusion else 'no':>6s}  {description}"
        )
    return 0


def _load_graph(source: str):
    from .bench_designs import SPECS, load_design
    from .hdl import parse_verilog
    from .ir import CircuitGraph

    if source in {s.name for s in SPECS}:
        return load_design(source)
    path = pathlib.Path(source)
    if not path.exists():
        raise SystemExit(f"error: {source!r} is neither a corpus design "
                         "nor a readable file")
    text = path.read_text()
    if path.suffix == ".json":
        return CircuitGraph.from_json(text)
    return parse_verilog(text)


def _cmd_synth(args: argparse.Namespace) -> int:
    from .api import SynthRequest

    graph = _load_graph(args.design)
    session = _session(args)
    s = session.synth(SynthRequest(graph, clock_period=args.period))
    print(f"design:      {graph.name}")
    print(f"rtl nodes:   {s.rtl_nodes} ({s.rtl_edges} edges)")
    print(f"cells:       {s.num_cells}")
    print(f"flip-flops:  {s.num_dffs} / {s.rtl_register_bits} "
          f"bits (SCPR {s.scpr:.2f})")
    print(f"area:        {s.area:.2f} um^2 (PCS {s.pcs:.3f})")
    print(f"WNS:         {s.wns:+.3f} ns @ {args.period} ns")
    print(f"TNS:         {s.tns:+.3f} ns over {s.nvp} paths")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .api import LintRequest
    from .lint import ERROR, WARNING

    if args.all:
        from .bench_designs import SPECS

        designs = [s.name for s in SPECS]
    elif args.designs:
        designs = args.designs
    else:
        raise SystemExit("error: name designs to lint, or pass --all")
    session = _session(args)
    reports = [
        session.lint(LintRequest(
            _load_graph(design) if not args.all else design,
            netlist=not args.no_netlist,
            rules=args.rules.split(",") if args.rules else None,
        ))
        for design in designs
    ]
    failed = 0
    if args.json:
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    for report in reports:
        bad = bool(report.errors) or (args.strict and report.warnings)
        failed += bool(bad)
        if not args.json:
            print(report.summary())
            shown = (
                report.diagnostics if args.verbose
                else [d for d in report.diagnostics
                      if d.severity in (ERROR, WARNING)]
            )
            for diagnostic in shown:
                print(f"  {diagnostic}")
    if not args.json:
        print(f"{len(reports)} design(s) linted, {failed} failing"
              + (" (strict)" if args.strict else ""))
    return 1 if failed else 0


def _cmd_emit(args: argparse.Namespace) -> int:
    from .hdl import generate_verilog

    graph = _load_graph(args.design)
    if args.netlist:
        from .synth import emit_netlist_verilog, synthesize

        result = synthesize(graph, clock_period=args.period)
        text = emit_netlist_verilog(result.netlist)
    else:
        text = generate_verilog(graph)
    if args.output:
        pathlib.Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from .api import GenerateRequest, resolve_preset
    from .hdl import generate_verilog

    diffusion = {}
    mcts = {"clock_period": args.period}
    if args.epochs is not None:
        diffusion["epochs"] = args.epochs
    if args.simulations is not None:
        mcts["num_simulations"] = args.simulations
    if args.full_resynthesis:
        mcts["incremental"] = False
    if args.require_equivalence:
        mcts["require_functional_equivalence"] = True
    if args.sanitize:
        mcts["sanitize"] = True
    try:
        config = resolve_preset(
            args.preset, seed=args.seed, diffusion=diffusion, mcts=mcts
        )
    except KeyError as exc:
        raise SystemExit(f"error: {exc.args[0]}")
    session = _session(args, config=config)

    print(f"fitting preset {args.preset!r} "
          f"({config.diffusion.epochs} epochs; artifact cache "
          f"{'on' if session.use_cache else 'off'}) ...")
    session.fit()
    result = session.generate(GenerateRequest(
        count=args.count,
        nodes=args.nodes,
        optimize=not args.no_optimize,
        seed=args.seed,
        workers=args.workers,
        synth_period=args.period,
        tier=args.tier,
    ))

    out_dir = pathlib.Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = []
    # One synthesis summary per record, computed once by the session
    # (and store-cached) -- reused for both the manifest and the log.
    for graph, summary in zip(result.graphs, result.synth):
        (out_dir / f"{graph.name}.v").write_text(generate_verilog(graph))
        (out_dir / f"{graph.name}.json").write_text(graph.to_json())
        manifest.append({
            "name": graph.name,
            "nodes": graph.num_nodes,
            "edges": graph.num_edges,
            "cells": summary.num_cells,
            "area": summary.area,
            "wns": summary.wns,
            "scpr": summary.scpr,
        })
        print(f"  {graph.name}: {graph.num_nodes} nodes, "
              f"SCPR {summary.scpr:.2f}, area {summary.area:.1f}")
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2))
    print(f"wrote {len(result.records)} circuits to {out_dir}/ "
          f"in {result.elapsed:.1f}s")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .api import Session, resolve_preset
    from .serve import ReproServer

    try:
        config = resolve_preset(args.preset, seed=args.seed)
    except KeyError as exc:
        raise SystemExit(f"error: {exc.args[0]}")
    if not args.no_prefit:
        # Fit once in-process so the N spawned workers boot from the
        # artifact cache instead of training N times concurrently.
        print(f"pre-fitting preset {args.preset!r} into the artifact "
              "store ...")
        Session(config=config, cache_dir=args.cache_dir).fit()
    server = ReproServer(
        config=config,
        workers=args.workers,
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        queue_dir=args.queue_dir,
    )

    async def main() -> None:
        task = asyncio.create_task(server.run())
        # run() rebinds server.port once the socket is listening.
        while server.port == 0 and not task.done():
            await asyncio.sleep(0.01)
        if not task.done():
            print(f"repro serve: listening on "
                  f"http://{server.host}:{server.port} "
                  f"({args.workers} workers, queue {server.queue.root})")
        await task

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("repro serve: interrupted, draining workers ...")
        server.pool.stop()
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from .serve import ServeClient

    client = ServeClient(args.url)
    request = {
        "count": args.count,
        "nodes": args.nodes,
        "seed": args.seed,
        "optimize": not args.no_optimize,
    }
    if args.synth_period is not None:
        request["synth_period"] = args.synth_period
    if args.tier is not None:
        request["tier"] = args.tier
    accepted = client.submit(request, dedupe=not args.no_dedupe)
    print(f"job {accepted['job_id']}: {accepted['state']}"
          + (" (deduplicated)" if accepted["deduplicated"] else ""))
    if args.follow:
        for event in client.stream(accepted["job_id"]):
            if event["type"] == "progress":
                timings = event.get("timings", {})
                phases = " ".join(
                    f"{phase} {seconds * 1000:.0f}ms"
                    for phase, seconds in timings.items()
                )
                print(f"  record {event['index'] + 1}/{event['count']}"
                      f"  {phases}")
            elif event["type"] in ("done", "failed"):
                print(f"  {event['type']}"
                      + (f" in {event['elapsed']:.2f}s"
                         if event["type"] == "done" else
                         f": {event['error']}"))
    status = client.wait(accepted["job_id"])
    if status["state"] != "done":
        print(f"job failed: {status.get('error')}")
        return 1
    result = client.result(accepted["job_id"])
    if args.json:
        print(json.dumps(result.to_dict()))
    else:
        for graph in result.graphs:
            print(f"  {graph.name}: {graph.num_nodes} nodes, "
                  f"{graph.num_edges} edges")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from .serve import ServeClient, run_top

    return run_top(
        ServeClient(args.url), interval=args.interval, once=args.once
    )


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import (
        BenchReport,
        compare,
        render_profile,
        run_serve_suite,
        run_suite,
    )
    from .bench.report import THREAD_ENV

    unset = [name for name in THREAD_ENV if name not in os.environ]
    if unset:
        print(f"warning: {', '.join(unset)} unset: BLAS kernels run on "
              "the library's default thread pool; set them to 1 before "
              "starting, as CI and genbench do, to compare against a "
              "committed baseline", file=sys.stderr)
    if args.suite == "serve":
        report = run_serve_suite(
            preset=args.preset,
            seed=args.seed,
            repeats=args.repeats,
            warmup=args.warmup,
            workers=args.serve_workers,
            filter_pattern=args.filter,
            progress=print,
        )
    else:
        report = run_suite(
            preset=args.preset,
            seed=args.seed,
            repeats=args.repeats,
            warmup=args.warmup,
            filter_pattern=args.filter,
            progress=print,
        )
    # Load the baseline *before* writing: with the default output path
    # `repro bench --compare BENCH_smoke.json` would otherwise overwrite
    # the baseline and then compare the fresh report against itself.
    baseline = BenchReport.load(args.compare) if args.compare else None
    if args.profile:
        # The hot-loop profile view: per-op cost plus drift against the
        # committed baseline (explicit --compare, or BENCH_<suite>.json
        # next to the working directory when present).
        profile_base = baseline
        if profile_base is None:
            default_baseline = pathlib.Path(f"BENCH_{report.suite}.json")
            if default_baseline.exists():
                profile_base = BenchReport.load(default_baseline)
        print(render_profile(report, profile_base))
    else:
        print(report.render())
    output = args.output or f"BENCH_{report.suite}.json"
    report.write(output)
    print(f"wrote {output} (rev {report.git_rev}, "
          f"config {report.config_fingerprint[:12]})")

    if baseline is not None:
        if baseline.config_fingerprint != report.config_fingerprint:
            print(f"note: baseline {args.compare} was produced by a "
                  "different scenario config; comparing anyway")
        if baseline.blas_threads() != report.blas_threads():
            print(f"note: baseline {args.compare} ran with BLAS threads "
                  f"{baseline.blas_threads()}, this run with "
                  f"{report.blas_threads()}; comparing anyway")
        regressions = compare(
            report, baseline, max_regression=args.max_regression
        )
        if regressions:
            print(f"PERF REGRESSION (>{args.max_regression:g}x vs "
                  f"{args.compare}):")
            for regression in regressions:
                print(f"  {regression}")
            return 1
        print(f"no regression >{args.max_regression:g}x vs {args.compare}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .api import GenerateRequest, resolve_preset
    from .obs import TraceRecorder, tracing

    try:
        config = resolve_preset(args.preset, seed=args.seed)
    except KeyError as exc:
        raise SystemExit(f"error: {exc.args[0]}")
    session = _session(args, config=config)
    print(f"fitting preset {args.preset!r} (artifact cache "
          f"{'on' if session.use_cache else 'off'}) ...")
    session.fit()
    recorder = TraceRecorder()
    with tracing(recorder):
        result = session.generate(GenerateRequest(
            count=args.count,
            nodes=args.nodes,
            seed=args.seed,
            optimize=not args.no_optimize,
        ))
    path = recorder.write_chrome_trace(
        args.output,
        metadata={"preset": args.preset, "seed": args.seed,
                  "count": args.count},
    )
    print(f"{len(result.records)} circuit(s) in {result.elapsed:.2f}s; "
          f"{recorder.recorded} spans ({recorder.dropped} dropped) "
          f"-> {path}")
    print(f"{'span':<24s}{'count':>8s}{'total ms':>12s}")
    for name, (count, total_ms) in sorted(
        recorder.totals().items(), key=lambda kv: -kv[1][1]
    ):
        print(f"{name:<24s}{count:>8d}{total_ms:>12.2f}")
    print("load the JSON at https://ui.perfetto.dev to explore the "
          "timeline")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from .api import ArtifactStore

    store = ArtifactStore(args.cache_dir)
    if args.clear:
        removed = store.clear()
        print(f"removed {removed} artifacts from {store.root}")
        return 0
    stats = store.stats()
    print(f"store:   {stats['root']}")
    print(f"entries: {stats['entries']}")
    print(f"bytes:   {stats['bytes']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="SynCircuit reproduction CLI"
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="artifact store location (default: $REPRO_CACHE_DIR "
             "or ~/.cache/repro)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the artifact store entirely",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0, dest="verbosity",
        help="enable repro.* diagnostics on stderr (-v INFO, -vv DEBUG; "
             "the REPRO_LOG env var overrides, e.g. "
             "REPRO_LOG=serve=DEBUG,mcts=INFO)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_corpus = sub.add_parser("corpus", help="list the 22-design corpus")
    p_corpus.add_argument("--period", type=float, default=1.0)
    p_corpus.set_defaults(func=_cmd_corpus)

    p_presets = sub.add_parser("presets", help="list scenario presets")
    p_presets.set_defaults(func=_cmd_presets)

    p_synth = sub.add_parser("synth", help="synthesize a design and report PPA")
    p_synth.add_argument("design", help="corpus name, .v file or .json file")
    p_synth.add_argument("--period", type=float, default=1.0)
    p_synth.set_defaults(func=_cmd_synth)

    p_lint = sub.add_parser(
        "lint", help="run the diagnostic rules (L0xx/N0xx) on designs"
    )
    p_lint.add_argument(
        "designs", nargs="*",
        help="corpus names, .v files or .json files",
    )
    p_lint.add_argument("--all", action="store_true",
                        help="lint the whole benchmark corpus")
    p_lint.add_argument(
        "--no-netlist", action="store_true",
        help="skip elaboration and the netlist-scope (N0xx) rules",
    )
    p_lint.add_argument(
        "--rules", default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    p_lint.add_argument(
        "--strict", action="store_true",
        help="fail (exit 1) on warnings, not only errors",
    )
    p_lint.add_argument("--verbose", action="store_true",
                        help="print info-severity findings too")
    p_lint.add_argument("--json", action="store_true",
                        help="emit the reports as JSON")
    p_lint.set_defaults(func=_cmd_lint)

    p_emit = sub.add_parser("emit", help="emit a design as Verilog")
    p_emit.add_argument("design")
    p_emit.add_argument("-o", "--output", default=None)
    p_emit.add_argument(
        "--netlist", action="store_true",
        help="emit the mapped gate-level netlist instead of the RTL",
    )
    p_emit.add_argument("--period", type=float, default=1.0)
    p_emit.set_defaults(func=_cmd_emit)

    p_gen = sub.add_parser("generate", help="generate synthetic circuits")
    p_gen.add_argument("-n", "--count", type=int, default=5)
    p_gen.add_argument("--nodes", type=int, default=60)
    p_gen.add_argument(
        "--preset", default="fast",
        help="scenario preset (see `repro presets`)",
    )
    p_gen.add_argument(
        "--epochs", type=int, default=None,
        help="override the preset's diffusion epochs",
    )
    p_gen.add_argument(
        "--simulations", type=int, default=None,
        help="override the preset's MCTS simulation budget",
    )
    p_gen.add_argument(
        "--workers", type=int, default=1,
        help="accepted for compatibility: items run one after another, "
        "so it changes neither the output nor the speed",
    )
    p_gen.add_argument("--period", type=float, default=1.0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--no-optimize", action="store_true")
    p_gen.add_argument(
        "--full-resynthesis", action="store_true",
        help="disable the incremental reward engine: every MCTS reward "
             "runs a full synthesize() (the reference oracle path)",
    )
    p_gen.add_argument(
        "--require-equivalence", action="store_true",
        help="reject cone rewrites whose simulated function changes "
             "(promotes the cone-function diagnostic to a hard gate)",
    )
    p_gen.add_argument(
        "--sanitize", action="store_true",
        help="audit the search's incremental structures against "
             "from-scratch recomputation (bit-identical output; raises "
             "on any invariant violation)",
    )
    p_gen.add_argument(
        "--tier", choices=["exact", "fast"], default=None,
        help="accepted for compatibility: Phase 3 has one search, so "
             "both names select it and return the same circuits",
    )
    p_gen.add_argument("-o", "--output", default="generated")
    p_gen.set_defaults(func=_cmd_generate)

    p_serve = sub.add_parser(
        "serve", help="run the async generation job server (HTTP + websocket)"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8760)
    p_serve.add_argument(
        "--workers", type=int, default=4,
        help="worker processes (artifacts are bit-identical at any count)",
    )
    p_serve.add_argument(
        "--preset", default="fast",
        help="scenario preset every job runs under (see `repro presets`)",
    )
    p_serve.add_argument("--seed", type=int, default=None)
    p_serve.add_argument(
        "--queue-dir", default=None,
        help="persistent job-queue directory (default: <store>/serve-queue; "
             "unfinished jobs found here are replayed on boot)",
    )
    p_serve.add_argument(
        "--no-prefit", action="store_true",
        help="skip the in-process warmup fit (workers then train on boot)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_submit = sub.add_parser(
        "submit", help="submit a generation job to a running `repro serve`"
    )
    p_submit.add_argument("--url", default="http://127.0.0.1:8760")
    p_submit.add_argument("-n", "--count", type=int, default=1)
    p_submit.add_argument("--nodes", type=int, default=60)
    p_submit.add_argument("--seed", type=int, default=0)
    p_submit.add_argument("--synth-period", type=float, default=None)
    p_submit.add_argument("--no-optimize", action="store_true")
    p_submit.add_argument(
        "--tier", choices=["exact", "fast"], default=None,
        help="accepted for compatibility: selects nothing, since Phase 3 "
             "has one search (still part of the dedup key)",
    )
    p_submit.add_argument(
        "--no-dedupe", action="store_true",
        help="force a worker run even if the identical request is cached",
    )
    p_submit.add_argument(
        "--follow", action="store_true",
        help="stream per-record progress over the websocket channel",
    )
    p_submit.add_argument("--json", action="store_true",
                          help="print the full GenerateResult JSON")
    p_submit.set_defaults(func=_cmd_submit)

    p_top = sub.add_parser(
        "top", help="live status view of a running `repro serve`"
    )
    p_top.add_argument("--url", default="http://127.0.0.1:8760")
    p_top.add_argument("--interval", type=float, default=1.0)
    p_top.add_argument("--once", action="store_true",
                       help="render one frame and exit (no screen clear)")
    p_top.set_defaults(func=_cmd_top)

    p_trace = sub.add_parser(
        "trace",
        help="run a traced generation and write Perfetto-loadable "
             "Chrome trace-event JSON",
    )
    p_trace.add_argument("-n", "--count", type=int, default=1)
    p_trace.add_argument("--nodes", type=int, default=60)
    p_trace.add_argument(
        "--preset", default="fast",
        help="scenario preset (see `repro presets`)",
    )
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument("--no-optimize", action="store_true")
    p_trace.add_argument(
        "-o", "--output", default="trace.json",
        help="trace JSON path (default: trace.json)",
    )
    p_trace.set_defaults(func=_cmd_trace)

    p_bench = sub.add_parser(
        "bench", help="run the microbenchmark suite, write BENCH_<suite>.json"
    )
    p_bench.add_argument(
        "--preset", default="smoke",
        help="scenario preset sizing the workloads (see `repro presets`)",
    )
    p_bench.add_argument(
        "--suite", choices=("standard", "serve"), default="standard",
        help="'serve' measures the job server (requests/s, p50/p99) "
             "and writes BENCH_serve.json",
    )
    p_bench.add_argument(
        "--serve-workers", type=int, default=2,
        help="worker processes for --suite serve",
    )
    p_bench.add_argument("--repeats", type=int, default=3,
                         help="timed runs per benchmark (best is reported)")
    p_bench.add_argument("--warmup", type=int, default=1,
                         help="untimed warmup runs per benchmark")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument(
        "--filter", action="append", default=None,
        help="only run benchmarks whose name contains this substring "
             "(repeatable: a benchmark matching any pattern runs)",
    )
    p_bench.add_argument(
        "-o", "--output", default=None,
        help="report path (default: BENCH_<suite>.json)",
    )
    p_bench.add_argument(
        "--compare", default=None, metavar="BASELINE",
        help="baseline BENCH_*.json; exit 1 on regression",
    )
    p_bench.add_argument(
        "--profile", action="store_true",
        help="print per-op costs and drift vs the committed baseline "
             "(BENCH_<suite>.json or --compare) instead of the raw table",
    )
    p_bench.add_argument(
        "--max-regression", type=float, default=2.0,
        help="fail --compare when wall time grows past this factor",
    )
    p_bench.set_defaults(func=_cmd_bench)

    p_cache = sub.add_parser("cache", help="inspect the artifact store")
    # SUPPRESS: when omitted here, keep the value parsed from the global
    # --cache-dir instead of clobbering it with a subparser default.
    p_cache.add_argument(
        "--cache-dir", default=argparse.SUPPRESS,
        help="artifact store location (also accepted before the command)",
    )
    p_cache.add_argument("--stats", action="store_true",
                         help="print store statistics (default)")
    p_cache.add_argument("--clear", action="store_true",
                         help="delete all stored artifacts")
    p_cache.set_defaults(func=_cmd_cache)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    from .obs import configure_logging

    configure_logging(verbose=getattr(args, "verbosity", 0))
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
