"""Core SynCircuit engine: P(G) -> G_ini -> G_val -> G_opt.

``SynCircuit`` trains the three phases and runs them; it is
session-agnostic.  :class:`repro.api.Session` is the one way to generate
circuits: it derives each item's rng, draws Phase 1 for a chunk of items
through :meth:`SynCircuit.presample`, runs Phases 2 and 3 per item
through :meth:`SynCircuit.generate_one`, and adds artifact caching
and typed requests.

``SynCircuit.fit`` trains the Phase 1 diffusion model (and optionally the
Phase 3 PCS discriminator) on real circuit graphs.  Pre-trained
artifacts (from the session artifact store) can be injected through
``fit``'s keyword-only ``trained=`` / ``reward_fn=`` arguments to skip
the expensive phases.

The ``use_diffusion=False`` switch reproduces the paper's "SynCircuit
w/o diff" ablation: :meth:`~SynCircuit.presample` draws G_ini and P_E as
random edges at the training-set density while the rest of the pipeline
is unchanged.

Performance notes: Phase 1 is batched (:meth:`~SynCircuit.presample`
groups equal-size items through shared denoiser forwards, bit-identical
to per-item draws), and Phase 3's search states are copy-on-write
:class:`repro.ir.GraphView` overlays over the refined design -- swap
successors share node/parent storage with their base and the accepted
result is materialized back into a plain, independent
:class:`~repro.ir.CircuitGraph` before it leaves ``generate_one``.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from ..diffusion import (
    AttributeSampler,
    DiffusionConfig,
    SampleResult,
    TrainedDiffusion,
    sample_batch,
    train_diffusion,
)
from ..ir import CircuitGraph
from ..mcts import (
    MCTSConfig,
    optimize_registers,
    train_discriminator,
)
from ..obs import span
from ..postprocess import refine_to_valid


@dataclass
class SynCircuitConfig:
    """Pipeline-wide configuration with the paper's defaults."""

    diffusion: DiffusionConfig = field(default_factory=DiffusionConfig)
    mcts: MCTSConfig = field(default_factory=MCTSConfig)
    degree_guidance: float = 0.25
    use_diffusion: bool = True       # False: the "w/o diff" ablation
    reward: str = "discriminator"    # "discriminator" | "synthesis"
    discriminator_perturbations: int = 12
    #: Lint every generated circuit with the graph-scope rules and fail
    #: the generation on error-severity findings (a pipeline-integrity
    #: gate: the refinement phase guarantees a valid graph, so an error
    #: here means a phase broke its contract).
    lint_generated: bool = False
    seed: int = 0

    # -- JSON round-trip ----------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-JSON representation (nested dataclasses become dicts)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SynCircuitConfig":
        data = dict(data)
        diffusion = DiffusionConfig(**data.pop("diffusion", {}))
        mcts = MCTSConfig(**data.pop("mcts", {}))
        return cls(diffusion=diffusion, mcts=mcts, **data)


@dataclass
class GenerationRecord:
    """All intermediate artefacts of generating one synthetic circuit.

    ``timings`` holds per-phase wall seconds (``sample`` / ``refine`` /
    ``optimize``), the breakdown the ``repro bench`` e2e scenario and any
    service-side latency accounting read.
    """

    g_val: CircuitGraph
    g_opt: CircuitGraph | None
    initial_edges: int
    refined_edges: int
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def graph(self) -> CircuitGraph:
        """The final artefact: G_opt when optimization ran, else G_val."""
        return self.g_opt if self.g_opt is not None else self.g_val

    # -- JSON round-trip ----------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "g_val": self.g_val.to_dict(),
            "g_opt": None if self.g_opt is None else self.g_opt.to_dict(),
            "initial_edges": self.initial_edges,
            "refined_edges": self.refined_edges,
            "timings": dict(self.timings),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GenerationRecord":
        return cls(
            g_val=CircuitGraph.from_dict(data["g_val"]),
            g_opt=(
                None if data["g_opt"] is None
                else CircuitGraph.from_dict(data["g_opt"])
            ),
            initial_edges=int(data["initial_edges"]),
            refined_edges=int(data["refined_edges"]),
            timings={
                str(phase): float(seconds)
                for phase, seconds in data.get("timings", {}).items()
            },
        )


class SynCircuit:
    """The three-phase synthetic circuit generator."""

    def __init__(self, config: SynCircuitConfig | None = None):
        self.config = config or SynCircuitConfig()
        self.trained: TrainedDiffusion | None = None
        self.attributes: AttributeSampler | None = None
        self._edges_per_node: float = 1.5
        self._reward_fn = None

    # ------------------------------------------------------------------
    def fit(
        self,
        graphs: list[CircuitGraph],
        verbose: bool = False,
        *,
        trained: TrainedDiffusion | None = None,
        reward_fn=None,
    ) -> "SynCircuit":
        """Learn P(G | V, X) from real designs (and the PCS reward model).

        ``trained`` / ``reward_fn`` inject pre-computed artifacts (e.g.
        loaded from an :class:`~repro.api.store.ArtifactStore`), skipping
        the corresponding training phase entirely.
        """
        if not graphs:
            raise ValueError("need at least one training graph")
        self.attributes = AttributeSampler(graphs)
        self._edges_per_node = float(
            np.mean([g.num_edges / max(g.num_nodes, 1) for g in graphs])
        )
        if self.config.use_diffusion:
            if trained is not None:
                self.trained = trained
            else:
                self.trained = train_diffusion(
                    graphs, self.config.diffusion, verbose=verbose
                )
        if reward_fn is not None:
            self._reward_fn = reward_fn
        elif self.config.reward == "discriminator":
            self._reward_fn = train_discriminator(
                graphs,
                clock_period=self.config.mcts.clock_period,
                perturbations=self.config.discriminator_perturbations,
                seed=self.config.seed,
            )
        else:
            # Synthesis-reward scenarios defer to optimize_registers,
            # which builds the exact SynthesisReward or the incremental
            # engine according to MCTSConfig.incremental.  An *explicit*
            # reward_fn (including a SynthesisReward) is always honored
            # verbatim -- that is the contract callers like the
            # results-table benchmarks rely on.
            self._reward_fn = None
        return self

    @property
    def is_fitted(self) -> bool:
        return self.attributes is not None

    # ------------------------------------------------------------------
    def presample(
        self,
        sizes: list[int],
        rngs: list[np.random.Generator],
    ) -> tuple[list[SampleResult], float]:
        """Phase 1 for many items at once: the only source of G_ini and P_E.

        Returns ``(samples, per_item_seconds)``: ``samples[k]`` is item
        ``k``'s :class:`~repro.diffusion.sample.SampleResult`, drawn
        from ``rngs[k]`` alone, and ``per_item_seconds`` is the call's
        wall time split evenly over the items.  The diffusion arm runs
        :func:`repro.diffusion.sample_batch`, whose equal-size items
        share each denoiser forward.  The ``use_diffusion=False``
        ablation draws each item's attributes, then random G_ini edges
        at the training designs' edge density (size-adaptive, as in
        the full model), then a uniform-random P_E.  Either way an
        item's draws do not depend on its batch-mates, so any grouping
        of items into calls gives the same samples.
        """
        self._check_fitted()
        if not sizes:
            return [], 0.0
        started = time.perf_counter()
        if self.config.use_diffusion:
            assert self.trained is not None
            samples = sample_batch(self.trained, sizes, rngs)
        else:
            assert self.attributes is not None
            samples = []
            for n, rng in zip(sizes, rngs):
                types, widths = self.attributes.sample(n, rng)
                density = np.clip(self._edges_per_node / max(n, 2), 1e-4, 0.5)
                adjacency = rng.random((n, n)) < density
                samples.append(SampleResult(
                    adjacency, rng.random((n, n)), types, widths
                ))
        return samples, (time.perf_counter() - started) / len(sizes)

    def generate_one(
        self,
        sample: SampleResult,
        sample_seconds: float,
        rng: np.random.Generator,
        optimize: bool = True,
        name: str = "synthetic",
        mcts_config: MCTSConfig | None = None,
    ) -> GenerationRecord:
        """Phases 2 and 3 for one item whose Phase 1 is ``sample``.

        ``sample`` comes from :meth:`presample`, which already drew it
        from ``rng``; refinement and the search continue on that same
        generator.  ``sample_seconds`` is recorded as the ``sample``
        timing.  ``mcts_config`` overrides the engine config's Phase 3
        settings for this call only (the session uses it for
        request-scoped knobs like ``GenerateRequest.incremental``
        without mutating the session's config).
        """
        self._check_fitted()
        timings = {"sample": sample_seconds}
        started = time.perf_counter()
        with span("engine.refine", nodes=len(sample.types)):
            g_val = refine_to_valid(
                sample.types, sample.widths,
                sample.adjacency, sample.edge_probability,
                name=name, rng=rng,
                degree_guidance=self.config.degree_guidance,
            )
        timings["refine"] = time.perf_counter() - started
        g_opt = None
        if optimize:
            started = time.perf_counter()
            report = optimize_registers(
                g_val,
                reward_fn=self._reward_fn,
                config=mcts_config or self.config.mcts,
            )
            g_opt = report.graph
            g_opt.name = f"{name}_opt"
            timings["optimize"] = time.perf_counter() - started
        if self.config.lint_generated:
            from ..lint import lint_graph

            with span("engine.lint"):
                lint_report = lint_graph(g_opt if g_opt is not None else g_val)
            if lint_report.errors:
                raise RuntimeError(
                    f"generated circuit {name!r} failed the lint gate: "
                    + "; ".join(str(d) for d in lint_report.errors)
                )
        return GenerationRecord(
            g_val=g_val,
            g_opt=g_opt,
            initial_edges=int(sample.adjacency.sum()),
            refined_edges=g_val.num_edges,
            timings=timings,
        )

    # ------------------------------------------------------------------
    def _check_fitted(self) -> None:
        if self.attributes is None:
            raise RuntimeError("call fit() before generate()")
