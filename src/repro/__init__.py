"""SynCircuit reproduction: synthetic RTL circuit generation.

The package implements the three-phase SynCircuit framework from
"SynCircuit: Automated Generation of New Synthetic RTL Circuits Can Enable
Big Data in Circuits" (DAC 2025) plus every substrate the paper's
evaluation depends on: a circuit IR with HDL bijection, a logic-synthesis
and static-timing substrate, baseline graph generators, structural and
downstream-ML evaluation metrics, and a 22-design benchmark corpus.
"""

__version__ = "0.2.0"

from .ir import CircuitGraph, GraphBuilder, NodeType  # noqa: F401

_API_NAMES = {
    "ArtifactStore", "EvalRequest", "EvalResult", "GenerateRequest",
    "GenerateResult", "GenerationRecord", "LintRequest", "Session", "SynCircuit",
    "SynCircuitConfig", "SynthRequest", "SynthSummary", "list_presets",
    "resolve_preset",
}


def __getattr__(name: str):
    # Lazy re-export of the session API: `repro.Session` works without
    # paying the diffusion/mcts import cost for IR-only users.
    if name in _API_NAMES:
        from . import api

        return getattr(api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
