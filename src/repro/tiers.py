"""The two-tier numeric contract: ``exact`` and ``fast``.

Every numeric path in the pipeline belongs to one of two tiers:

* ``exact`` -- the default.  Results are *byte-stable*: goldens under
  ``results/`` and ``tests/goldens/`` pin them, ``generate_batch`` is
  bit-identical to sequential generation, and every incremental shortcut
  (delta elaboration, patched simulator plans, dirty-cone analysis) is
  required to reproduce the reference path bit for bit.  The denoiser's
  batched forward deliberately preserves per-sample GEMM shapes (BLAS
  kernels pick reduction strategies by matrix shape) and Phase-3
  acceptance is gated by the exact synthesis oracle.

* ``fast`` -- the throughput tier.  Numeric identity is relaxed,
  quality is *tolerance-gated* instead: the denoiser fuses its GEMMs
  across all graphs of a batch -- heterogeneous sizes included -- and
  across denoiser steps (one tall matmul per layer, per-step decoder
  constants computed once for the whole walk, one padded cross-graph
  posterior per step), Phase-3 walks register cones in
  redundancy-headroom order and stops after
  :data:`FAST_EXIT_PATIENCE` consecutive cones without an accepted
  rewrite (statically pre-filtered to :data:`FAST_CONE_COVERAGE` of
  the total headroom; designs that synthesize to nothing search every
  cone until rescued -- see ``_triage_cones``), marginal estimate
  gains below :data:`FAST_ORACLE_MARGIN` skip their synthesis-oracle
  call.  The per-acceptance cone-function diagnostic and the
  ``require_functional_equivalence`` gate run in both tiers, through
  the same per-circuit :class:`~repro.mcts.reward.ConeBatchEvaluator`.
  Acceptance stays oracle-gated in both tiers.  The differential
  harness in :mod:`repro.bench.drift` measures the SCPR/area drift of
  ``fast`` vs ``exact`` per design family and tier-1 enforces
  :data:`FAST_SCPR_TOLERANCE` / :data:`FAST_AREA_TOLERANCE` on it.

The tier is threaded end to end: ``MCTSConfig.tier`` (config),
``GenerateRequest.tier`` (API; part of the serve layer's dedup
``request_key``, so exact and fast results never alias in the artifact
store), ``repro generate --tier`` / ``repro submit --tier`` (CLI).

When is ``exact`` required?  Whenever results feed goldens, cross-run
dedup against exact artifacts, or any differential test that asserts
bit-identity.  ``fast`` is for throughput-bound dataset generation
where a bounded distribution drift is acceptable.
"""

from __future__ import annotations

#: The default tier: byte-stable goldens, bit-identical shortcuts.
EXACT_TIER = "exact"

#: The throughput tier: fused GEMMs + estimate-driven acceptance,
#: tolerance-gated quality.
FAST_TIER = "fast"

#: Every valid tier name, in contract order.
TIERS = (EXACT_TIER, FAST_TIER)

#: Tolerance bound on the *relative* drift of the family-mean SCPR
#: between fast- and exact-tier generation (enforced in tier-1 by
#: ``tests/test_tiers.py`` through :func:`repro.bench.drift.measure_drift`).
FAST_SCPR_TOLERANCE = 0.25

#: Same bound for the family-mean post-synthesis area.
FAST_AREA_TOLERANCE = 0.25

#: Cone-triage coverage of the fast tier: Phase-3 ranks register cones
#: by the redundancy estimate's headroom (surviving interior nodes)
#: and statically keeps the top cones until they cover this fraction
#: of the circuit's total headroom.  Adaptive by construction:
#: circuits whose headroom is spread evenly keep most cones,
#: concentrated ones keep few.  Bypassed in rescue mode (base PCS of
#: zero): there every cone is a candidate to make the design survive
#: synthesis at all.
FAST_CONE_COVERAGE = 0.65

#: Fast-tier oracle-call filter: an improved cone state whose relative
#: estimate gain is below this margin is rejected without spending a
#: synthesis-oracle call on it.  Marginal estimate gains are the
#: candidates the oracle most often vetoes anyway; the true gains lost
#: are bounded by the margin itself and covered by the drift gate.
FAST_ORACLE_MARGIN = 0.02

#: Fast-tier early exit: after this many *consecutive* cones searched
#: without an accepted rewrite, the remaining (lower-headroom) cones are
#: skipped.  Because cones are visited in headroom order, a dud streak
#: means the estimate's priced-in gains have dried up; circuits whose
#: gains are spread keep searching, ones whose gains concentrate in the
#: top cones stop early.
FAST_EXIT_PATIENCE = 2


def check_tier(tier: str) -> str:
    """Validate a tier name, returning it for chaining."""
    if tier not in TIERS:
        raise ValueError(
            f"unknown tier {tier!r}: expected one of {', '.join(TIERS)}"
        )
    return tier


def is_fast(tier: str) -> bool:
    """Whether ``tier`` opts into the relaxed numeric contract."""
    return check_tier(tier) == FAST_TIER
