"""Unified public API for the SynCircuit reproduction.

Everything a caller needs lives here: sessions with a persistent
artifact store, typed request/response objects with JSON round-trips,
and named scenario presets.

    from repro.api import Session, GenerateRequest

    session = Session(preset="fast").fit()
    result = session.generate(
        GenerateRequest(count=8, nodes=(40, 60), seed=1)
    )
    for graph in result.graphs:
        print(graph.name, graph.num_nodes)
"""

from .engine import GenerationRecord, SynCircuit, SynCircuitConfig
from .presets import list_presets, resolve_preset
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
from .session import BatchItemError, Session
from .store import ArtifactStore, fingerprint, graphs_fingerprint

__all__ = [
    "ArtifactStore",
    "BatchItemError",
    "BenchRequest",
    "EvalRequest",
    "EvalResult",
    "GenerateRequest",
    "GenerateResult",
    "GenerationRecord",
    "LintRequest",
    "Session",
    "SynCircuit",
    "SynCircuitConfig",
    "SynthRequest",
    "SynthSummary",
    "fingerprint",
    "graphs_fingerprint",
    "list_presets",
    "resolve_preset",
]
