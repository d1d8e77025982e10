"""Typed request / response objects for the session API.

Every request and result is a dataclass with a ``to_dict`` /
``from_dict`` JSON round-trip, so jobs can be queued, logged and replayed
as plain JSON -- the substrate a service front-end needs.  Graph-valued
fields serialize through :meth:`CircuitGraph.to_dict`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..diffusion.features import MIN_NODES
from ..ir import CircuitGraph
from .engine import GenerationRecord, SynCircuitConfig

#: The accepted ``GenerateRequest.tier`` names.  Both run the one
#: Phase-3 search.
EXACT_TIER = "exact"
FAST_TIER = "fast"


def _nodes_to_json(nodes: int | tuple[int, int]) -> int | list[int]:
    return list(nodes) if isinstance(nodes, tuple) else int(nodes)


def _nodes_from_json(nodes) -> int | tuple[int, int]:
    if isinstance(nodes, (list, tuple)):
        low, high = nodes
        return (int(low), int(high))
    return int(nodes)


def _graph_to_json(design: str | CircuitGraph):
    if isinstance(design, CircuitGraph):
        return {"graph": design.to_dict()}
    return {"name": str(design)}


def _graph_from_json(data) -> str | CircuitGraph:
    if isinstance(data, dict) and "graph" in data:
        return CircuitGraph.from_dict(data["graph"])
    if isinstance(data, dict):
        return str(data["name"])
    return str(data)


# ---------------------------------------------------------------------------
@dataclass
class GenerateRequest:
    """One generation job: N circuits from a fitted session.

    ``nodes`` is a fixed size or an inclusive ``(low, high)`` range drawn
    independently per item.  ``seed`` fully determines the output.
    Items run one after another; ``workers`` only sets the Phase-1
    chunk size of :meth:`~repro.api.Session.iter_generate` (``4 *
    workers`` items), so it changes no output bit.  It stays in the
    schema because the serve protocol and existing clients send it.
    ``synth_period`` (if set) attaches a cached synthesis summary per
    generated circuit.  ``incremental`` overrides
    the session config's ``MCTSConfig.incremental`` for this request
    only (``None`` keeps the config's choice): ``False`` forces the
    full-resynthesis oracle reward in the Phase 3 search.
    ``sanitize`` audits this request's Phase 3 searches with the
    :mod:`repro.lint.sanitize` invariant checker (pure auditing: output
    is bit-identical, divergence raises
    :class:`~repro.lint.InvariantViolation`).
    ``trace`` records an execution timeline of the job with
    :mod:`repro.obs` spans (observation only: output is bit-identical);
    the serve layer stores it next to the result artifact and exposes
    it at ``GET /jobs/<id>/trace`` as Perfetto-loadable Chrome
    trace-event JSON.
    ``tier`` selects nothing: Phase 3 has one search, so ``None``,
    ``"exact"`` and ``"fast"`` return the same graphs.  It stays so that
    existing requests keep working; any other value is rejected at
    construction, and the field stays part of the serve layer's dedup
    ``request_key``.
    A negative ``count`` or ``seed``, a node count (or range low end)
    under :data:`~repro.diffusion.features.MIN_NODES`, which no sample
    can hold, and a ``nodes`` range with ``low > high`` are rejected at
    construction too.
    """

    count: int = 1
    nodes: int | tuple[int, int] = 60
    optimize: bool = True
    seed: int = 0
    name_prefix: str = "syn"
    workers: int = 1
    synth_period: float | None = None
    incremental: bool | None = None
    sanitize: bool = False
    trace: bool = False
    tier: str | None = None

    def __post_init__(self) -> None:
        if self.tier not in (None, EXACT_TIER, FAST_TIER):
            raise ValueError(
                f"unknown tier {self.tier!r}: expected exact or fast"
            )
        if self.count < 0:
            raise ValueError(f"count must be >= 0, got {self.count}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        low = self.nodes[0] if isinstance(self.nodes, tuple) else self.nodes
        if low < MIN_NODES:
            raise ValueError(
                f"nodes must be >= {MIN_NODES} to hold an input, output, "
                f"register and constant; got {self.nodes}"
            )
        if isinstance(self.nodes, tuple) and self.nodes[0] > self.nodes[1]:
            raise ValueError(
                f"nodes range {self.nodes} is reversed: expected (low, high)"
            )

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "nodes": _nodes_to_json(self.nodes),
            "optimize": self.optimize,
            "seed": self.seed,
            "name_prefix": self.name_prefix,
            "workers": self.workers,
            "synth_period": self.synth_period,
            "incremental": self.incremental,
            "sanitize": self.sanitize,
            "trace": self.trace,
            "tier": self.tier,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GenerateRequest":
        data = dict(data)
        data["nodes"] = _nodes_from_json(data.get("nodes", 60))
        return cls(**data)


@dataclass
class SynthSummary:
    """JSON-able slice of :class:`repro.synth.SynthResult` (no netlist)."""

    design: str
    clock_period: float
    num_cells: int
    num_dffs: int
    area: float
    scpr: float
    pcs: float
    wns: float
    tns: float
    nvp: int
    rtl_nodes: int
    rtl_edges: int
    rtl_register_bits: int
    register_slacks: dict[int, float] = field(default_factory=dict)

    @classmethod
    def from_result(cls, result, graph: CircuitGraph) -> "SynthSummary":
        return cls(
            design=result.design,
            clock_period=result.clock_period,
            num_cells=result.num_cells,
            num_dffs=result.num_dffs,
            area=float(result.area),
            scpr=float(result.scpr),
            pcs=float(result.pcs),
            wns=float(result.wns),
            tns=float(result.tns),
            nvp=int(result.nvp),
            rtl_nodes=graph.num_nodes,
            rtl_edges=graph.num_edges,
            rtl_register_bits=graph.total_register_bits(),
            register_slacks={
                int(reg): float(slack)
                for reg, slack in result.register_slacks.items()
            },
        )

    def to_dict(self) -> dict:
        data = self.__dict__.copy()
        data["register_slacks"] = {
            str(reg): slack for reg, slack in self.register_slacks.items()
        }
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "SynthSummary":
        data = dict(data)
        data["register_slacks"] = {
            int(reg): float(slack)
            for reg, slack in data.get("register_slacks", {}).items()
        }
        return cls(**data)


@dataclass
class GenerateResult:
    """Everything produced by one :class:`GenerateRequest`."""

    records: list[GenerationRecord]
    request: GenerateRequest
    config: SynCircuitConfig
    synth: list[SynthSummary] | None = None
    elapsed: float = 0.0

    @property
    def graphs(self) -> list[CircuitGraph]:
        """The final artefacts (G_opt when optimization ran, else G_val)."""
        return [record.graph for record in self.records]

    def to_dict(self) -> dict:
        return {
            "records": [record.to_dict() for record in self.records],
            "request": self.request.to_dict(),
            "config": self.config.to_dict(),
            "synth": (
                None if self.synth is None
                else [summary.to_dict() for summary in self.synth]
            ),
            "elapsed": self.elapsed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GenerateResult":
        return cls(
            records=[
                GenerationRecord.from_dict(rec) for rec in data["records"]
            ],
            request=GenerateRequest.from_dict(data["request"]),
            config=SynCircuitConfig.from_dict(data["config"]),
            synth=(
                None if data.get("synth") is None
                else [SynthSummary.from_dict(s) for s in data["synth"]]
            ),
            elapsed=float(data.get("elapsed", 0.0)),
        )


# ---------------------------------------------------------------------------
@dataclass
class SynthRequest:
    """Synthesize one design: a corpus name or an explicit graph."""

    design: str | CircuitGraph
    clock_period: float = 1.0

    def to_dict(self) -> dict:
        return {
            "design": _graph_to_json(self.design),
            "clock_period": self.clock_period,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SynthRequest":
        return cls(
            design=_graph_from_json(data["design"]),
            clock_period=float(data.get("clock_period", 1.0)),
        )


# ---------------------------------------------------------------------------
@dataclass
class LintRequest:
    """Lint one design (a corpus name or an explicit graph).

    ``netlist`` additionally elaborates the design and runs the
    netlist-scope (``N0xx``) rules; ``rules`` restricts the run to the
    named rule ids (``None`` = every registered rule of the scope).
    The result is a :class:`repro.lint.LintReport`.
    """

    design: str | CircuitGraph
    netlist: bool = True
    rules: list[str] | None = None

    def to_dict(self) -> dict:
        return {
            "design": _graph_to_json(self.design),
            "netlist": self.netlist,
            "rules": None if self.rules is None else list(self.rules),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LintRequest":
        rules = data.get("rules")
        return cls(
            design=_graph_from_json(data["design"]),
            netlist=bool(data.get("netlist", True)),
            rules=None if rules is None else [str(r) for r in rules],
        )


# ---------------------------------------------------------------------------
@dataclass
class BenchRequest:
    """One benchmark-suite run (see :mod:`repro.bench`).

    ``filter`` keeps only benchmarks whose name contains the substring;
    ``output`` (if set) is where the ``BENCH_<suite>.json`` report is
    written.  The scenario itself (model sizes, search budgets) comes
    from the session's config, so the same request measures any preset.
    """

    repeats: int = 3
    warmup: int = 1
    seed: int = 0
    filter: str | None = None
    output: str | None = None

    def to_dict(self) -> dict:
        return {
            "repeats": self.repeats,
            "warmup": self.warmup,
            "seed": self.seed,
            "filter": self.filter,
            "output": self.output,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BenchRequest":
        return cls(**data)


# ---------------------------------------------------------------------------
@dataclass
class EvalRequest:
    """Structural-similarity evaluation of generated circuits vs a
    reference design (the paper's Table II protocol)."""

    reference: str | CircuitGraph
    graphs: list[CircuitGraph] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "reference": _graph_to_json(self.reference),
            "graphs": [graph.to_dict() for graph in self.graphs],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EvalRequest":
        return cls(
            reference=_graph_from_json(data["reference"]),
            graphs=[CircuitGraph.from_dict(g) for g in data["graphs"]],
        )


@dataclass
class EvalResult:
    """Table II metrics: Wasserstein-1 distances and property ratios."""

    reference: str
    num_graphs: int
    w1_out_degree: float
    w1_clustering: float
    w1_orbit: float
    ratio_triangle: float
    ratio_homophily: float
    ratio_homophily_two_hop: float

    def to_dict(self) -> dict:
        return self.__dict__.copy()

    @classmethod
    def from_dict(cls, data: dict) -> "EvalResult":
        return cls(**data)
