"""The standard microbenchmark suite: every hot path the ROADMAP cares
about, scaled by a scenario preset.

Workloads are fixed and seeded -- two runs of the same suite on the same
revision measure the same computation -- and setup (model training,
elaboration, stimulus packing) is excluded from timing.  The suite
deliberately spans the whole stack:

* ``simulate.*``       -- netlist simulation backends, largest corpus design
  (``bitparallel_steady`` replays the compiled plan
  :data:`STEADY_SIM_ROUNDS` times per run)
* ``cone.batch_eval``  -- cone signatures of 24 swap candidates of one
  ``alu`` register against one shared packed stimulus (each candidate's
  cone is elaborated and compiled afresh)
* ``incr.apply_edit``  -- delta re-elaboration of a swap chain
* ``incr.analyze_delta`` -- delta-mode redundancy analysis (the replay
  the incremental reward runs per candidate) over two swap chains, on
  ``alu`` and on a ``uart_tx`` descendant whose registers fold,
  :data:`ANALYZE_DELTA_ROUNDS` passes per run
* ``mcts.optimize``    -- the Phase 3 search loop (preset reward path)
* ``lint.graph``       -- the graph-scope diagnostic rules over the corpus
* ``sanitize.overhead`` -- the incremental search with the runtime
  invariant auditor on (vs ``mcts.optimize`` = its cost)
* ``obs.overhead``     -- the same search with an active trace recorder
  (vs ``mcts.optimize`` = the cost of *enabled* tracing; default-off
  span sites ride inside every other benchmark already)
* ``diffusion.sample`` -- Phase 1 reverse denoising
* ``diffusion.sample_batch`` -- several samples through shared denoiser
  forwards (the ``Session.generate`` phase-1 path)
* ``diffusion.forward_n256`` -- one batched denoiser forward over two
  256-node graphs at the ``fast`` preset's width and attribute table,
  where the pair decoder's row blocking and float32 precision carry
  Phase 1's cost; it scores each graph's legal block, as sampling does
* ``metrics.structural`` -- Table II structural-similarity metrics
* ``e2e.generate``     -- one full Session.generate (all three phases)
* ``e2e.generate_batch`` -- a batch-8 mixed-size Session.generate
  (the throughput reference workload)
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from typing import Callable

import numpy as np

from .core import Benchmark, matches, run_benchmark
from .report import BenchReport

#: Stimulus length for the simulation benchmarks (one packed word block).
SIM_CYCLES = 64

#: Inner repetitions of the two kernels that take well under a
#: millisecond once per run: enough to put each run above
#: :func:`~repro.bench.report.compare`'s 5 ms noise floor, so their
#: regression gates can fire.
STEADY_SIM_ROUNDS = 32
ANALYZE_DELTA_ROUNDS = 8


def _largest_design():
    """The corpus design with the most elaborated gates (the acceptance
    criterion's "largest bench design")."""
    from ..bench_designs import SPECS, load_design
    from ..synth import elaborate

    best_name, best_netlist = None, None
    for spec in SPECS:
        netlist = elaborate(load_design(spec.name), check=False)
        if best_netlist is None or netlist.num_gates > best_netlist.num_gates:
            best_name, best_netlist = spec.name, netlist
    return best_name, best_netlist


def _sim_workload():
    name, netlist = _largest_design()
    rng = np.random.default_rng(0)
    nets = [net for _, net in netlist.primary_inputs]
    stimulus = [
        {net: bool(rng.integers(0, 2)) for net in nets}
        for _ in range(SIM_CYCLES)
    ]
    return name, netlist, stimulus


def result_sha(graph) -> str:
    """16-hex sha256 of a plain graph's structure: per node its (type,
    width, sorted params), then every ordered parent row.  Names are
    left out, so the sha moves only when the search result does."""
    nodes = tuple(
        (node.type.value, node.width,
         tuple(sorted(node.params.items())) if node.params else ())
        for node in graph.nodes()
    )
    key = (nodes, graph.parent_rows())
    return hashlib.sha256(repr(key).encode()).hexdigest()[:16]


def _swap_candidates(graph, register, rng, count):
    """A chain of valid swap successors of ``graph`` around one cone."""
    from ..mcts import apply_swap, driving_cone, sample_swaps

    cone = driving_cone(graph, register)
    anchor = [cone.register, *cone.interior]
    candidates = [graph]
    state = graph
    attempts = 0
    while len(candidates) < count and attempts < count * 20:
        attempts += 1
        swaps = sample_swaps(state, anchor, rng, 1)
        if not swaps:
            break
        successor = apply_swap(state, swaps[0])
        if successor is not None:
            state = successor
            candidates.append(state)
    return candidates


def _folded_registers(graph) -> list[int]:
    """Registers whose full-pass reference is a constant or an alias."""
    from ..incr.analysis import RedundancyAnalyzer

    refs = RedundancyAnalyzer(graph).full_analyze(graph).refs
    return [r for r in graph.registers()
            if refs[r] != ("n", r, graph.node(r).width)]


def _analysis_chains(rng):
    """``(name, base, swap chain)`` workloads of ``incr.analyze_delta``.

    ``alu`` chains around its first register.  The ``uart_tx`` chain
    starts from the first swap successor in which a register folds and
    walks that register's cone, so its edits reach a folded register's
    cone and move register references.
    """
    from ..bench_designs import load_design

    alu = load_design("alu")
    chains = [
        ("alu", alu, _swap_candidates(alu, alu.registers()[0], rng, 24)[1:])
    ]
    uart = load_design("uart_tx")
    base = next(
        state
        for register in uart.registers()
        for state in _swap_candidates(uart, register, rng, 24)[1:]
        if _folded_registers(state)
    ).flatten()
    register = _folded_registers(base)[0]
    chains.append(
        ("uart_tx", base, _swap_candidates(base, register, rng, 24)[1:])
    )
    return chains


def _edit_mix(base, states, touched) -> dict:
    """A chain's states, those that move a register's reference, and
    those that edit inside the cone of a register folded in ``base``."""
    from ..incr.analysis import RedundancyAnalyzer
    from ..mcts import driving_cone

    folded = set()
    for r in _folded_registers(base):
        folded.update((r, *driving_cone(base, r).interior))
    analyzer = RedundancyAnalyzer(base)
    refs = analyzer.full_analyze(base).refs
    return {
        "states": len(states),
        "reg_ref_moves": sum(
            any(analyzer.full_analyze(state).refs[r] != refs[r]
                for r in base.registers())
            for state in states
        ),
        "folded_cone_edits": sum(1 for d in touched if folded & set(d)),
    }


def build_suite(config, seed: int = 0) -> list[Benchmark]:
    """Instantiate the standard suite for one resolved scenario config."""
    from ..bench_designs import load_corpus, load_design, reference_designs
    from ..mcts import ConeBatchEvaluator, optimize_registers
    from ..synth.simulate import BitParallelSimulator, simulate

    trained_cache: dict[str, object] = {}

    def training_graphs():
        graphs = sorted(load_corpus(), key=lambda g: g.num_nodes)[:6]
        return graphs

    def trained_diffusion():
        if "model" not in trained_cache:
            from ..diffusion import train_diffusion

            trained_cache["model"] = train_diffusion(
                training_graphs(), config.diffusion
            )
        return trained_cache["model"]

    # -- simulation ------------------------------------------------------
    def sim_setup():
        return _sim_workload()

    def sim_scalar(state):
        _, netlist, stimulus = state
        simulate(netlist, stimulus, backend="scalar")
        return netlist.num_gates * len(stimulus)

    def sim_bitparallel(state):
        _, netlist, stimulus = state
        simulate(netlist, stimulus, backend="bitparallel")
        return netlist.num_gates * len(stimulus)

    def sim_steady_setup():
        name, netlist, stimulus = _sim_workload()
        return netlist, BitParallelSimulator(netlist), stimulus

    def sim_steady(state):
        netlist, simulator, stimulus = state
        for _ in range(STEADY_SIM_ROUNDS):
            simulator.run(stimulus)
        return netlist.num_gates * len(stimulus) * STEADY_SIM_ROUNDS

    # -- batched cone evaluation ----------------------------------------
    def cone_setup():
        graph = load_design("alu")
        register = graph.registers()[0]
        rng = np.random.default_rng(seed)
        candidates = _swap_candidates(graph, register, rng, 24)
        # The evaluator (and therefore its packed stimulus words) lives
        # in setup: the measured path is each candidate's cone
        # extraction, elaboration, compile and packed simulation.
        evaluator = ConeBatchEvaluator(num_cycles=SIM_CYCLES, seed=seed)
        return evaluator, register, candidates

    def cone_run(state):
        evaluator, register, candidates = state
        evaluator.evaluate(candidates, register)
        return len(candidates)

    # -- incremental synthesis engine -----------------------------------
    def incr_setup():
        from ..incr import DeltaNetlist

        graph = load_design("alu")
        register = graph.registers()[0]
        rng = np.random.default_rng(seed)
        candidates = _swap_candidates(graph, register, rng, 24)[1:]
        base = DeltaNetlist.from_graph(graph, check=False)
        return base, candidates

    def incr_run(state):
        base, candidates = state
        for candidate in candidates:
            base.apply_edit(candidate)
        return len(candidates)

    analyze_delta_meta: dict = {"designs": ["alu", "uart_tx"]}

    def analyze_delta_setup():
        from ..incr.analysis import RedundancyAnalyzer

        rng = np.random.default_rng(seed)
        workloads = []
        for name, base, candidates in _analysis_chains(rng):
            analyzer = RedundancyAnalyzer(base)
            analyzer.capture_baseline(base)
            # Touched sets are precomputed in setup like the search
            # computes them from edit provenance: the measured path is
            # the analysis.
            touched = [c.structural_delta(base) for c in candidates]
            analyze_delta_meta[f"{name}_edits"] = _edit_mix(
                base, candidates, touched
            )
            workloads.append((analyzer, candidates, touched))
        return workloads

    def analyze_delta_run(workloads):
        calls = 0
        for _ in range(ANALYZE_DELTA_ROUNDS):
            for analyzer, candidates, touched in workloads:
                for candidate, dirty in zip(candidates, touched):
                    analyzer.analyze(candidate, touched=dirty)
                calls += len(candidates)
        return calls

    # -- MCTS ------------------------------------------------------------
    def mcts_setup():
        return load_design("uart_tx")

    mcts_meta = {
        "design": "uart_tx",
        "num_simulations": config.mcts.num_simulations,
        "incremental": config.mcts.incremental,
    }

    def mcts_run(graph):
        report = optimize_registers(graph, config=config.mcts)
        # Stamp the search result's structural identity on the record:
        # a perf win that moves this sha is an algorithm change, not an
        # optimization, and the CI compare can see the difference.  The
        # search is deterministic across repeats, so stamp once -- the
        # hash stays out of the steady-state repeats the best-of timing
        # reports.
        if "result_sha" not in mcts_meta:
            mcts_meta["result_sha"] = result_sha(report.graph)
        return max(report.total_simulations, 1)

    # -- lint / sanitizer ------------------------------------------------
    def lint_setup():
        from ..lint import rules_for

        graphs = load_corpus()
        # Priming rules_for in setup keeps one-time rule-module imports
        # (incl. the lazy redundancy analysis of L008) out of the timing.
        rules_for("graph")
        return graphs

    def lint_run(graphs):
        from ..lint import lint_graph

        for graph in graphs:
            lint_graph(graph)
        return len(graphs)

    def sanitize_setup():
        import dataclasses

        return (
            load_design("uart_tx"),
            dataclasses.replace(
                config.mcts, incremental=True, sanitize=True
            ),
        )

    def sanitize_run(state):
        graph, mcts_config = state
        report = optimize_registers(graph, config=mcts_config)
        return max(report.sanitize_checks, 1)

    def obs_setup():
        from ..obs import TraceRecorder

        return load_design("uart_tx"), TraceRecorder()

    obs_meta = {
        "design": "uart_tx",
        "num_simulations": config.mcts.num_simulations,
        "traced": True,
    }

    def obs_run(state):
        from ..obs import tracing

        graph, recorder = state
        recorder.clear()
        with tracing(recorder):
            report = optimize_registers(graph, config=config.mcts)
        # Span volume of one traced search (stable across repeats).
        obs_meta.setdefault("spans", recorder.recorded)
        return max(report.total_simulations, 1)

    # -- diffusion sampling ---------------------------------------------
    def diffusion_setup():
        return trained_diffusion()

    def diffusion_run(trained):
        from ..diffusion import sample_initial_graph

        rng = np.random.default_rng(seed)
        sample_initial_graph(trained, 48, rng=rng)
        return None

    def diffusion_batch_run(trained):
        from ..diffusion import sample_batch

        rngs = [
            np.random.default_rng(child)
            for child in np.random.SeedSequence(seed).spawn(4)
        ]
        sample_batch(trained, [48, 48, 48, 48], rngs)
        return 4

    # The smoke denoiser's hidden 16 hides the decoder's cost, so this
    # kernel takes the ``fast`` preset's widths.  Weights do not change
    # the cost, so the network is left untrained.  Attributes come from
    # the attribute table a fitted ``fast`` session samples from (the
    # corpus training split), so the decoder scores the legal block the
    # reverse walk scores; its share of all N^2 pairs is recorded.
    forward_meta = {"nodes": 256, "batch": 2, "widths": "fast",
                    "attributes": "fast", "note": "paper-scale pair decoder"}

    def forward_setup():
        from ..api.presets import resolve_preset
        from ..bench_designs import train_test_split
        from ..diffusion import AttributeSampler, DenoisingNetwork
        from ..diffusion.features import PairBlock, width_bucket

        dims = resolve_preset("fast").diffusion
        net = DenoisingNetwork(hidden=dims.hidden, num_layers=dims.num_layers,
                               time_dim=dims.time_dim, seed=seed)
        sampler = AttributeSampler(train_test_split(seed=2025)[0])
        rng = np.random.default_rng(seed)
        attrs = [sampler.sample(256, rng) for _ in range(2)]
        types = np.stack([t for t, _ in attrs])
        buckets = np.array([[width_bucket(int(w)) for w in widths]
                            for _, widths in attrs])
        blocks = [PairBlock.legal(row) for row in types]
        a_t = [rng.random(block.shape) < 0.02 for block in blocks]
        forward_meta["legal_pair_fraction"] = round(
            sum(block.size for block in blocks) / (2 * 256 * 256), 4)
        return net, types, buckets, a_t, blocks

    def forward_run(state):
        net, types, buckets, a_t, blocks = state
        net.predict_full_batch(types, buckets, a_t, 0.5, blocks=blocks)
        return 2

    # -- structural metrics ---------------------------------------------
    def metrics_setup():
        reference = reference_designs()["core_like"]
        graphs = sorted(load_corpus(), key=lambda g: g.num_nodes)[:4]
        return reference, graphs

    def metrics_run(state):
        from ..metrics import structural_similarity

        reference, graphs = state
        structural_similarity(reference, graphs)
        return len(graphs)

    # -- end-to-end generation ------------------------------------------
    def e2e_setup():
        from ..api import Session

        session = Session(config=config, use_cache=False)
        trained = trained_diffusion() if config.use_diffusion else None
        session.engine.fit(training_graphs(), trained=trained)
        return session

    def e2e_run(session):
        from ..api import GenerateRequest

        session.generate(
            GenerateRequest(count=1, nodes=44, optimize=True, seed=seed)
        )
        return None

    # The throughput workload: one batch-8 mixed-size request.  Its
    # family (nodes 68-84, seed 7) stays fixed so the committed
    # baseline's timings remain comparable; it is not the suite seed.
    def e2e_batch_run(session):
        from ..api import GenerateRequest

        session.generate(
            GenerateRequest(count=8, nodes=(68, 84), optimize=True, seed=7)
        )
        return 8

    benchmarks = [
        Benchmark("simulate.scalar", sim_setup, sim_scalar,
                  meta={"cycles": SIM_CYCLES}),
        Benchmark("simulate.bitparallel", sim_setup, sim_bitparallel,
                  meta={"cycles": SIM_CYCLES}),
        Benchmark("simulate.bitparallel_steady", sim_steady_setup, sim_steady,
                  meta={"cycles": SIM_CYCLES, "note": "compile excluded"}),
        Benchmark("cone.batch_eval", cone_setup, cone_run,
                  meta={"cycles": SIM_CYCLES}),
        Benchmark("incr.apply_edit", incr_setup, incr_run,
                  meta={"design": "alu", "note": "delta re-elaboration"}),
        Benchmark("incr.analyze_delta", analyze_delta_setup,
                  analyze_delta_run, meta=analyze_delta_meta),
        Benchmark("mcts.optimize", mcts_setup, mcts_run, meta=mcts_meta),
        Benchmark("lint.graph", lint_setup, lint_run,
                  meta={"note": "graph-scope rules over the whole corpus"}),
        Benchmark("sanitize.overhead", sanitize_setup, sanitize_run,
                  meta={"design": "uart_tx",
                        "num_simulations": config.mcts.num_simulations,
                        "incremental": True, "sanitize": True}),
        Benchmark("obs.overhead", obs_setup, obs_run, meta=obs_meta),
        Benchmark("metrics.structural", metrics_setup, metrics_run),
        Benchmark("e2e.generate", e2e_setup, e2e_run, repeats=2,
                  meta={"nodes": 44, "optimize": True}),
        Benchmark("e2e.generate_batch", e2e_setup, e2e_batch_run,
                  repeats=3,
                  meta={"nodes": [68, 84], "count": 8, "seed": 7,
                        "optimize": True}),
    ]
    if config.use_diffusion:
        benchmarks.insert(
            8,
            Benchmark("diffusion.sample", diffusion_setup, diffusion_run,
                      meta={"nodes": 48,
                            "epochs": config.diffusion.epochs}),
        )
        benchmarks.insert(
            9,
            Benchmark("diffusion.sample_batch", diffusion_setup,
                      diffusion_batch_run,
                      meta={"nodes": 48, "batch": 4,
                            "epochs": config.diffusion.epochs,
                            "note": "shared denoiser forwards"}),
        )
        benchmarks.insert(
            10,
            Benchmark("diffusion.forward_n256", forward_setup, forward_run,
                      meta=forward_meta),
        )
    return benchmarks


def run_suite(
    preset: str = "smoke",
    *,
    config=None,
    suite: str | None = None,
    seed: int = 0,
    repeats: int = 3,
    warmup: int = 1,
    filter_pattern: str | Sequence[str] | None = None,
    progress: Callable[[str], None] | None = None,
) -> BenchReport:
    """Run the standard suite and return a stamped :class:`BenchReport`.

    ``config`` overrides the preset with an explicit scenario config;
    ``filter_pattern`` keeps only benchmarks whose name contains the
    substring, or any of several substrings.  The report's
    ``simulate.bitparallel`` record is annotated with
    ``speedup_vs_scalar`` when both simulation benchmarks ran.
    """
    from ..api.presets import resolve_preset
    from ..api.store import fingerprint

    preset_name: str | None = preset
    if config is None:
        config = resolve_preset(preset, seed=seed)
    else:
        preset_name = suite
    benchmarks = build_suite(config, seed=seed)
    benchmarks = [b for b in benchmarks if matches(b.name, filter_pattern)]

    records = []
    for benchmark in benchmarks:
        if progress is not None:
            progress(f"[bench] {benchmark.name} ...")
        records.append(run_benchmark(benchmark, repeats=repeats, warmup=warmup))

    by_name = {record.name: record for record in records}
    scalar = by_name.get("simulate.scalar")
    packed = by_name.get("simulate.bitparallel")
    if scalar and packed and packed.wall_best > 0:
        packed.meta["speedup_vs_scalar"] = round(
            scalar.wall_best / packed.wall_best, 2
        )
    untraced = by_name.get("mcts.optimize")
    sanitized = by_name.get("sanitize.overhead")
    if sanitized and untraced and untraced.wall_best > 0:
        # The auditing cost factor: sanitized vs unsanitized search on
        # the same design and budget.
        sanitized.meta["overhead_vs_unsanitized"] = round(
            sanitized.wall_best / untraced.wall_best, 2
        )
    traced = by_name.get("obs.overhead")
    if traced and untraced and untraced.wall_best > 0:
        # Cost of *active* tracing on the identical search workload; the
        # default-off cost is covered by mcts.optimize itself (every
        # span site is compiled in and gated against the committed
        # baseline).
        traced.meta["overhead_vs_untraced"] = round(
            traced.wall_best / untraced.wall_best, 2
        )
    for name in ("diffusion.sample_batch", "e2e.generate_batch"):
        record = by_name.get(name)
        if record and record.ops:
            record.meta["ms_per_graph"] = round(
                record.wall_best * 1000.0 / record.ops, 4
            )

    return BenchReport.stamped(
        suite=suite or preset_name or "custom",
        preset=preset_name,
        config_fingerprint=fingerprint(config.to_dict()),
        records=records,
    )
