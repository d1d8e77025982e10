"""Incremental synthesis engine: delta-driven elaboration and reward
evaluation for the MCTS hot loop.

The exact reward path re-synthesizes the whole design for every
candidate swap; this package re-elaborates only the *dirty cone* (the
transitive combinational fanout of the edited nodes) and structurally
shares everything else:

* :class:`DeltaNetlist` -- a base netlist plus a patch set, with
  ``apply_edit`` producing equivalent-netlist deltas in O(dirty cone);
* :class:`RedundancyAnalyzer` -- the word-level redundancy fixpoint,
  with a delta mode that replays a candidate's full pass against the
  base's recorded rounds, re-evaluating only the nodes that can differ;
* :class:`IncrementalReward` -- the MCTS reward adapter: memoized
  per-node areas + word-level redundancy analysis, calibrated to exact
  PCS at rebase (``MCTSConfig.incremental`` selects it);
* :class:`DeltaOracle` -- the exact acceptance oracle rebuilt on the
  delta substrate.

``IncrementalReward(delta=False)`` (``MCTSConfig.delta``) switches both
shortcuts to their reference paths -- the full fixpoint and a fresh
``synthesize()`` oracle -- for differential tests.

This package depends only on :mod:`repro.ir` and :mod:`repro.synth`;
:mod:`repro.mcts` layers the search integration on top.
"""

from .analysis import RedundancyAnalyzer, RedundancyReport, analyze_redundancy
from .delta import DeltaNetlist, NodeArtifact, comb_topo_order
from .reward import DeltaOracle, IncrementalReward

__all__ = [
    "DeltaNetlist",
    "DeltaOracle",
    "IncrementalReward",
    "NodeArtifact",
    "RedundancyAnalyzer",
    "RedundancyReport",
    "analyze_redundancy",
    "comb_topo_order",
]
