"""The unified entry point: cache-aware sessions over the SynCircuit engine.

A :class:`Session` owns a persistent :class:`ArtifactStore` and a
resolved :class:`SynCircuitConfig` (usually from a named preset).  It
exposes the whole reproduction through typed requests:

* :meth:`fit` -- train (or *load*, on a content-address hit) the
  diffusion generator and reward model.  Identical config + training set
  never retrains, across runs and across processes.
* :meth:`generate` / :meth:`generate_batch` / :meth:`iter_generate` --
  produce synthetic circuits.  Per-item seeds are derived with
  ``np.random.SeedSequence(seed).spawn``, so the parallel fan-out is
  bit-identical to the sequential path and any item can be recomputed
  in isolation.
* :meth:`synth` -- synthesis with store-backed memoization of the PPA
  summary.
* :meth:`evaluate` -- Table II structural similarity vs a reference.

    from repro.api import Session

    with Session(preset="fast") as session:
        session.fit()
        result = session.generate_batch(count=8, nodes=(40, 60), workers=4)
"""

from __future__ import annotations

import contextvars
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Iterator

import numpy as np

from ..ir import CircuitGraph
from ..obs import span
from .engine import GenerationRecord, SynCircuit, SynCircuitConfig
from .presets import resolve_preset
from .requests import (
    BenchRequest,
    EvalRequest,
    EvalResult,
    GenerateRequest,
    GenerateResult,
    LintRequest,
    SynthRequest,
    SynthSummary,
)
from .store import ArtifactStore, graphs_fingerprint


class BatchItemError(RuntimeError):
    """One item of a generate batch failed.

    Carries the failing request's batch ``index`` (and item name) and
    chains the worker's original exception as ``__cause__``.  When it is
    raised, every *pending* sibling future has been cancelled; items
    already running are allowed to finish (threads cannot be aborted)
    but their results are discarded.
    """

    def __init__(self, index: int, name: str, cause: BaseException):
        self.index = index
        self.name = name
        super().__init__(
            f"generation of batch item {index} ({name!r}) failed: "
            f"{type(cause).__name__}: {cause}"
        )


def _item_rngs(seed: int, count: int) -> list[np.random.Generator]:
    """Independent, deterministic per-item generators.

    ``SeedSequence.spawn`` keys depend only on (seed, index), never on
    execution order -- the property that makes worker fan-out reproduce
    the sequential path bit-for-bit.
    """
    return [
        np.random.default_rng(child)
        for child in np.random.SeedSequence(seed).spawn(count)
    ]


class Session:
    """A configured, artifact-caching handle on the whole pipeline."""

    def __init__(
        self,
        preset: str = "fast",
        *,
        config: SynCircuitConfig | None = None,
        seed: int | None = None,
        store: ArtifactStore | None = None,
        cache_dir=None,
        use_cache: bool = True,
    ):
        if config is not None:
            self.config = config
            if seed is not None:
                # Same contract as resolve_preset(seed=...): one integer
                # controls the whole scenario, nested configs included.
                self.config.seed = seed
                self.config.diffusion.seed = seed
                self.config.mcts.seed = seed
        else:
            self.config = resolve_preset(preset, seed=seed)
        self.preset = None if config is not None else preset
        self.store = store or ArtifactStore(cache_dir)
        self.use_cache = use_cache
        self.engine = SynCircuit(self.config)
        self._train_fingerprint: str | None = None

    # -- context manager (no resources held; symmetry with services) ----
    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        return None

    # -- training --------------------------------------------------------
    def fit(
        self,
        graphs: list[CircuitGraph] | None = None,
        verbose: bool = False,
    ) -> "Session":
        """Fit on ``graphs`` (default: the corpus training split).

        Content-addressed caching: the trained diffusion generator and
        the PCS discriminator are keyed by their hyper-parameters plus a
        fingerprint of the training set, so a second ``fit`` with an
        identical scenario loads from the artifact store instead of
        retraining -- even in a fresh process.
        """
        if graphs is None:
            from ..bench_designs import train_test_split

            graphs, _ = train_test_split(seed=2025)
        fingerprint = graphs_fingerprint(graphs)
        self._train_fingerprint = fingerprint

        trained = None
        if self.config.use_diffusion and self.use_cache:
            diff_key = self.store.key("diffusion", {
                "config": self.config.diffusion.__dict__,
                "graphs": fingerprint,
            })
            trained = self.store.load_diffusion(diff_key)

        reward_fn = None
        if self.config.reward == "discriminator" and self.use_cache:
            disc_key = self.store.key("discriminator", {
                "clock_period": self.config.mcts.clock_period,
                "perturbations": self.config.discriminator_perturbations,
                "seed": self.config.seed,
                "graphs": fingerprint,
            })
            reward_fn = self.store.load_discriminator(disc_key)

        self.engine.fit(
            graphs, verbose=verbose, trained=trained, reward_fn=reward_fn
        )

        if self.use_cache:
            if self.config.use_diffusion and trained is None:
                self.store.save_diffusion(diff_key, self.engine.trained)
            if self.config.reward == "discriminator" and reward_fn is None:
                self.store.save_discriminator(disc_key, self.engine._reward_fn)
        return self

    # -- generation ------------------------------------------------------
    @staticmethod
    def _draw_sizes(
        request: GenerateRequest, rngs: list[np.random.Generator]
    ) -> list[int]:
        """Per-item node counts, drawn from each item's rng *first*.

        The draw order is load-bearing: every path (sequential, batch,
        streaming) must consume each item's generator identically or
        the bit-identity guarantee between them breaks, so the logic
        lives in exactly one place.
        """
        nodes = request.nodes
        if isinstance(nodes, tuple):
            return [int(rng.integers(nodes[0], nodes[1] + 1)) for rng in rngs]
        return [int(nodes)] * len(rngs)

    def _prepare_items(self, request: GenerateRequest):
        """Per-item rngs, node counts, and batched phase-1 samples.

        Node counts come off each item's rng first -- the same order the
        per-item path used -- then
        :meth:`repro.api.engine.SynCircuit.presample` runs the reverse
        diffusion for all items with shared denoiser forwards.  Both the
        sequential and the parallel generation paths consume the same
        prepared items, which keeps them trivially bit-identical.
        """
        rngs = _item_rngs(request.seed, request.count)
        sizes = self._draw_sizes(request, rngs)
        with span("session.presample", count=request.count):
            samples, per_item = self.engine.presample(sizes, rngs)
        return rngs, sizes, [(sample, per_item) for sample in samples]

    def _generate_item(
        self,
        index: int,
        rng: np.random.Generator,
        request: GenerateRequest,
        num_nodes: int,
        presampled: tuple | None = None,
    ) -> GenerationRecord:
        mcts_config = None
        overrides = {}
        if (request.incremental is not None
                and request.incremental != self.config.mcts.incremental):
            overrides["incremental"] = request.incremental
        if request.sanitize and not self.config.mcts.sanitize:
            overrides["sanitize"] = True
        if request.tier is not None and request.tier != self.config.mcts.tier:
            overrides["tier"] = request.tier
        if overrides:
            # Request-scoped copy: workers share the session config.
            import dataclasses

            mcts_config = dataclasses.replace(self.config.mcts, **overrides)
        with span("session.item", index=index, nodes=num_nodes):
            return self.engine.generate_one(
                num_nodes, rng,
                optimize=request.optimize,
                name=f"{request.name_prefix}{index}",
                mcts_config=mcts_config,
                presampled=presampled,
            )

    def _finalize(
        self,
        records: list[GenerationRecord],
        request: GenerateRequest,
        started: float,
    ) -> GenerateResult:
        synth = None
        if request.synth_period is not None:
            synth = [
                self.synth(SynthRequest(rec.graph, request.synth_period))
                for rec in records
            ]
        return GenerateResult(
            records=records,
            request=request,
            config=self.config,
            synth=synth,
            elapsed=time.perf_counter() - started,
        )

    def generate(
        self, request: GenerateRequest | None = None, **kwargs
    ) -> GenerateResult:
        """Sequential generation (the reference path for determinism)."""
        request = request or GenerateRequest(**kwargs)
        started = time.perf_counter()
        with span("session.generate", count=request.count, seed=request.seed):
            rngs, sizes, samples = self._prepare_items(request)
            records = [
                self._generate_item(k, rngs[k], request, sizes[k], samples[k])
                for k in range(request.count)
            ]
            return self._finalize(records, request, started)

    @staticmethod
    def _collect_ordered(
        futures: list, indices: list[int], request: GenerateRequest
    ) -> Iterator[GenerationRecord]:
        """Yield future results in submission (= index) order.

        On a failing item, every not-yet-started sibling is cancelled
        and the failure is re-raised as :class:`BatchItemError` chaining
        the worker's exception with the item's batch index -- the map
        idiom this replaces lost the index and left siblings running.
        """
        for position, future in enumerate(futures):
            try:
                yield future.result()
            except Exception as exc:
                for pending in futures[position + 1:]:
                    pending.cancel()
                index = indices[position]
                raise BatchItemError(
                    index, f"{request.name_prefix}{index}", exc
                ) from exc

    def generate_batch(
        self, request: GenerateRequest | None = None, **kwargs
    ) -> GenerateResult:
        """Parallel fan-out over ``request.workers`` threads.

        Per-item seed derivation makes the output bit-identical to
        :meth:`generate` for the same request; only wall-clock changes.
        Phase 1 runs up front as one batched diffusion pass (equal-size
        items share each denoiser forward); the workers then fan out
        over refinement and optimization.  A failing item cancels the
        batch's pending work and raises :class:`BatchItemError` with the
        item's index (the original exception chained as ``__cause__``).
        """
        request = request or GenerateRequest(**kwargs)
        if request.workers <= 1:
            return self.generate(request)
        started = time.perf_counter()
        with span(
            "session.generate_batch",
            count=request.count, workers=request.workers, seed=request.seed,
        ):
            rngs, sizes, samples = self._prepare_items(request)
            with ThreadPoolExecutor(max_workers=request.workers) as pool:
                # ThreadPoolExecutor threads do not inherit ContextVars;
                # each item runs in a copy of the submitting context so
                # an active trace recorder (and sanitizer) follows the
                # work onto the pool.
                futures = [
                    pool.submit(
                        contextvars.copy_context().run,
                        self._generate_item,
                        k, rngs[k], request, sizes[k], samples[k],
                    )
                    for k in range(request.count)
                ]
                records = list(self._collect_ordered(
                    futures, list(range(request.count)), request
                ))
            return self._finalize(records, request, started)

    def iter_generate(
        self, request: GenerateRequest | None = None, **kwargs
    ) -> Iterator[GenerationRecord]:
        """Streaming variant: yield records strictly in index order as
        they complete, so consumers can pipeline without waiting for the
        whole batch.  Same determinism guarantee as the batch path.

        Error contract (mirrors :meth:`generate_batch`): if item ``k``
        fails, every record before ``k`` has already been yielded in
        order, pending work is cancelled, and :class:`BatchItemError`
        is raised with index ``k`` chaining the original exception --
        the consumer can resubmit exactly the lost tail.
        """
        request = request or GenerateRequest(**kwargs)
        # Streaming keeps its first-record-latency contract: phase 1 is
        # presampled in bounded chunks rather than for the whole batch
        # up front.  Grouped forwards only share *compute* -- every item
        # draws from its own generator -- so chunking cannot change any
        # output bit relative to generate()/generate_batch().
        rngs = _item_rngs(request.seed, request.count)
        sizes = self._draw_sizes(request, rngs)
        chunk = max(request.workers, 1) * 4

        def chunk_items(lo: int):
            hi = min(lo + chunk, request.count)
            samples, per_item = self.engine.presample(
                sizes[lo:hi], rngs[lo:hi]
            )
            return [
                (k, (samples[k - lo], per_item))
                for k in range(lo, hi)
            ]

        if request.workers <= 1:
            for lo in range(0, request.count, chunk):
                for k, presampled in chunk_items(lo):
                    try:
                        yield self._generate_item(
                            k, rngs[k], request, sizes[k], presampled
                        )
                    except Exception as exc:
                        raise BatchItemError(
                            k, f"{request.name_prefix}{k}", exc
                        ) from exc
            return
        with ThreadPoolExecutor(max_workers=request.workers) as pool:
            for lo in range(0, request.count, chunk):
                items = chunk_items(lo)
                futures = [
                    pool.submit(
                        contextvars.copy_context().run,
                        self._generate_item,
                        k, rngs[k], request, sizes[k], presampled,
                    )
                    for k, presampled in items
                ]
                yield from self._collect_ordered(
                    futures, [k for k, _ in items], request
                )

    # -- synthesis -------------------------------------------------------
    def _resolve_design(self, design: str | CircuitGraph) -> CircuitGraph:
        if isinstance(design, CircuitGraph):
            return design
        from ..bench_designs import load_design

        return load_design(design)

    def synth(
        self, request: SynthRequest | str | CircuitGraph, **kwargs
    ) -> SynthSummary:
        """Synthesize a design; the PPA summary is memoized in the store."""
        if not isinstance(request, SynthRequest):
            request = SynthRequest(request, **kwargs)
        graph = self._resolve_design(request.design)
        key = self.store.key("synth", {
            "graph": graph.to_dict(),
            "clock_period": request.clock_period,
        })
        if self.use_cache:
            cached = self.store.load_json(key)
            if cached is not None:
                return SynthSummary.from_dict(cached)
        from ..synth import synthesize

        result = synthesize(graph, clock_period=request.clock_period)
        summary = SynthSummary.from_result(result, graph)
        if self.use_cache:
            self.store.save_json(key, summary.to_dict())
        return summary

    # -- linting ---------------------------------------------------------
    def lint(self, request: LintRequest | str | CircuitGraph, **kwargs):
        """Run the diagnostic rules on a design.

        Returns a :class:`repro.lint.LintReport` with the graph-scope
        (``L0xx``) findings, plus the netlist-scope (``N0xx``) findings
        of an elaboration when ``request.netlist`` is on (the default).
        """
        if not isinstance(request, LintRequest):
            request = LintRequest(request, **kwargs)
        from ..lint import lint_graph, lint_netlist

        graph = self._resolve_design(request.design)
        # One selection may span both scopes; each scope's runner keeps
        # only its own ids.
        report = lint_graph(graph, rules=request.rules)
        if request.netlist and not report.errors:
            from ..synth.elaborate import elaborate

            report.extend(lint_netlist(
                elaborate(graph, check=False), rules=request.rules,
            ))
        return report

    # -- benchmarking ----------------------------------------------------
    def bench(self, request: BenchRequest | None = None, **kwargs):
        """Run the standard microbenchmark suite under this session's
        scenario config and return a :class:`repro.bench.BenchReport`.

        The suite is named after the session's preset (``BENCH_smoke.json``
        for ``preset="smoke"``); ``request.output`` additionally writes
        the report to disk.
        """
        from ..bench import run_suite

        request = request or BenchRequest(**kwargs)
        report = run_suite(
            config=self.config,
            suite=self.preset or "custom",
            seed=request.seed,
            repeats=request.repeats,
            warmup=request.warmup,
            filter_pattern=request.filter,
        )
        if request.output:
            report.write(request.output)
        return report

    # -- evaluation ------------------------------------------------------
    def evaluate(self, request: EvalRequest) -> EvalResult:
        """Structural similarity of generated graphs vs a reference."""
        from ..metrics import structural_similarity

        reference = self._resolve_design(request.reference)
        report = structural_similarity(reference, request.graphs)
        return EvalResult(
            reference=reference.name,
            num_graphs=len(request.graphs),
            w1_out_degree=float(report.w1_out_degree),
            w1_clustering=float(report.w1_clustering),
            w1_orbit=float(report.w1_orbit),
            ratio_triangle=float(report.ratio_triangle),
            ratio_homophily=float(report.ratio_homophily),
            ratio_homophily_two_hop=float(report.ratio_homophily_two_hop),
        )
