"""Phase 3: MCTS-based circuit redundancy optimization."""

from .actions import Swap, SwapIndex, apply_swap, is_applicable, sample_swaps
from .cones import Cone, all_cones, cone_subcircuit, driving_cone
from .discriminator import (
    PCSDiscriminator,
    collect_training_set,
    train_discriminator,
)
from .optimize import (
    MCTSConfig,
    OptimizationReport,
    optimize_registers,
    random_search_registers,
)
from .reward import (
    CONE_FEATURE_DIM,
    GRAPH_FEATURE_DIM,
    ConeBatchEvaluator,
    ConeSignature,
    SynthesisReward,
    cone_features,
    graph_features,
)
from .tree import ConeSearchResult, MCTSOptimizer

__all__ = [
    "CONE_FEATURE_DIM",
    "GRAPH_FEATURE_DIM",
    "Cone",
    "ConeBatchEvaluator",
    "ConeSignature",
    "graph_features",
    "ConeSearchResult",
    "MCTSConfig",
    "MCTSOptimizer",
    "OptimizationReport",
    "PCSDiscriminator",
    "Swap",
    "SynthesisReward",
    "all_cones",
    "apply_swap",
    "collect_training_set",
    "cone_features",
    "cone_subcircuit",
    "driving_cone",
    "is_applicable",
    "optimize_registers",
    "random_search_registers",
    "sample_swaps",
    "SwapIndex",
    "train_discriminator",
]
