"""The unified entry point: cache-aware sessions over the SynCircuit engine.

A :class:`Session` owns a persistent :class:`ArtifactStore` and a
resolved :class:`SynCircuitConfig` (usually from a named preset).  It
exposes the whole reproduction through typed requests:

* :meth:`fit` -- train (or *load*, on a content-address hit) the
  diffusion generator and reward model.  Identical config + training set
  never retrains, across runs and across processes.
* :meth:`generate` / :meth:`iter_generate` -- produce synthetic
  circuits, all at once or streamed in index order.  Per-item seeds are
  derived with ``np.random.SeedSequence(seed).spawn``, so any item can
  be recomputed in isolation.
* :meth:`synth` -- synthesis with store-backed memoization of the PPA
  summary.
* :meth:`evaluate` -- Table II structural similarity vs a reference.

    from repro.api import Session

    with Session(preset="fast") as session:
        session.fit()
        result = session.generate(count=8, nodes=(40, 60))
"""

from __future__ import annotations

import dataclasses
import time
from typing import Iterator

import numpy as np

from ..diffusion import SampleResult
from ..diffusion.persist import FORMAT_VERSION as MODEL_FORMAT
from ..ir import CircuitGraph
from ..obs import span
from .engine import GenerationRecord, SynCircuit, SynCircuitConfig
from .presets import resolve_preset
from .requests import (
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
    """One item of a generation request failed.

    Carries the failing item's ``index`` (and item name) and chains the
    original exception as ``__cause__``.  When it is raised, no later
    item has started.
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
    execution order or chunking -- so any item can be recomputed alone.
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
            if seed is not None:
                # Same contract as resolve_preset(seed=...): one integer
                # controls the whole scenario, nested configs included.
                # A copy, so the caller's config keeps its own seeds.
                config = dataclasses.replace(
                    config,
                    seed=seed,
                    diffusion=dataclasses.replace(config.diffusion, seed=seed),
                    mcts=dataclasses.replace(config.mcts, seed=seed),
                )
            self.config = config
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
        retraining -- even in a fresh process.  The ``session.fit`` span's
        ``cached`` attribute says whether the diffusion model was loaded;
        a cold fit's ``diffusion.train`` child holds nearly all its time.
        """
        with span("session.fit") as fit_span:
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
                    "format": MODEL_FORMAT,
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
            fit_span.add(cached=trained is not None)

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

        The draw order is load-bearing: Phase 1 consumes each item's
        generator right after this draw, so changing it changes every
        output bit.
        """
        nodes = request.nodes
        if isinstance(nodes, tuple):
            return [int(rng.integers(nodes[0], nodes[1] + 1)) for rng in rngs]
        return [int(nodes)] * len(rngs)

    def _generate_item(
        self,
        index: int,
        rng: np.random.Generator,
        request: GenerateRequest,
        sample: SampleResult,
        sample_seconds: float,
    ) -> GenerationRecord:
        mcts_config = None
        if request.sanitize and not self.config.mcts.sanitize:
            # Request-scoped copy: the session config stays as built.
            mcts_config = dataclasses.replace(self.config.mcts, sanitize=True)
        with span("session.item", index=index, nodes=len(sample.types)):
            return self.engine.generate_one(
                sample, sample_seconds, rng,
                optimize=request.optimize,
                name=f"{request.name_prefix}{index}",
                mcts_config=mcts_config,
            )

    def _records(
        self, request: GenerateRequest, chunk: int
    ) -> Iterator[GenerationRecord]:
        """The one generation loop: records strictly in index order.

        Node counts come off each item's rng first, then every ``chunk``
        items share one :meth:`repro.api.engine.SynCircuit.presample`
        (Phase 1 with shared denoiser forwards).  Grouped forwards only
        share *compute* -- every item draws from its own generator -- so
        the chunk size cannot change an output bit.  Items run inline, so
        their spans nest under the caller's.  If item ``k`` fails, every
        record before ``k`` has been yielded, no later item has started,
        and :class:`BatchItemError` is raised with index ``k``.
        """
        rngs = _item_rngs(request.seed, request.count)
        sizes = self._draw_sizes(request, rngs)
        for lo in range(0, request.count, chunk):
            hi = min(lo + chunk, request.count)
            with span("session.presample", count=hi - lo):
                samples, per_item = self.engine.presample(
                    sizes[lo:hi], rngs[lo:hi]
                )
            for k in range(lo, hi):
                try:
                    record = self._generate_item(
                        k, rngs[k], request, samples[k - lo], per_item
                    )
                except Exception as exc:
                    raise BatchItemError(
                        k, f"{request.name_prefix}{k}", exc
                    ) from exc
                yield record

    def finish(
        self,
        records: list[GenerationRecord],
        request: GenerateRequest,
        started: float,
    ) -> GenerateResult:
        """Wrap generated ``records`` as the request's result.

        Attaches the store-cached synthesis summaries when
        ``request.synth_period`` is set; ``elapsed`` counts from the
        ``time.perf_counter()`` reading ``started``.
        """
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
        """Generate ``request.count`` circuits.

        Phase 1 runs up front as one batched diffusion pass; refinement
        and optimization then run per item, in index order.  A failing
        item stops the batch and raises :class:`BatchItemError` with its
        index (the original exception chained as ``__cause__``).
        """
        request = request or GenerateRequest(**kwargs)
        started = time.perf_counter()
        with span(
            "session.generate",
            count=request.count, workers=request.workers, seed=request.seed,
        ):
            records = list(self._records(request, max(request.count, 1)))
            return self.finish(records, request, started)

    def iter_generate(
        self, request: GenerateRequest | None = None, **kwargs
    ) -> Iterator[GenerationRecord]:
        """Streaming variant of :meth:`generate`: yield records in index
        order as they complete, with the same output and error contract.

        Phase 1 is presampled in chunks of ``4 * workers`` items rather
        than for the whole request up front, which bounds the latency of
        the first record.  On :class:`BatchItemError` the consumer can
        resubmit exactly the lost tail.
        """
        request = request or GenerateRequest(**kwargs)
        return self._records(request, max(request.workers, 1) * 4)

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
