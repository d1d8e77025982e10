"""Phase 3 driver: cone-by-cone redundancy optimization.

``optimize_registers`` runs the MCTS search over every register's driving
cone (largest first) and stitches the improved cone states back into the
design.  ``random_search_registers`` is the paper's ablation: the same
simulation budget spent on random valid swaps, keeping the best state
seen.  Both run one acceptance loop (:func:`_search_registers`) around
a per-cone search arm; only the arm differs.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from ..ir import CircuitGraph, GraphView
from ..lint.sanitize import from_config as _sanitizer_from_config
from ..lint.sanitize import sanitizing
from ..obs import get_logger, registry, span
from .actions import SwapIndex, apply_swap
from .cones import Cone, all_cones, driving_cone
from .reward import ConeBatchEvaluator, SynthesisReward
from .tree import ConeSearchResult, MCTSOptimizer, RewardFn

logger = get_logger(__name__)


@dataclass
class MCTSConfig:
    """Search budget; paper defaults are 500 simulations, depth 10.

    ``incremental`` routes the search reward through the incremental
    synthesis engine (:class:`repro.incr.IncrementalReward`): candidate
    states are delta-elaborated against the cone search's base instead
    of fully re-synthesized, and scored with a word-level redundancy
    estimate calibrated to exact PCS at each rebase.  Applies only when
    no explicit ``reward_fn`` is passed (the default reward would be the
    exact :class:`~repro.mcts.reward.SynthesisReward`); an explicit
    reward -- discriminator or exact -- is always used verbatim.  While
    ``verify_with_synthesis`` is on (the default), acceptance is gated
    by the exact synthesis oracle, so a misled estimate can never
    worsen the result; turning verification off makes acceptance follow
    the estimate alone.  Set to ``False`` for the full-resynthesis
    reference path.

    ``verify_with_synthesis`` guards acceptance when the search reward is
    an approximation (the discriminator or the incremental estimate): a
    cone's best state is only committed if the *true* post-synthesis PCS
    improved.

    ``delta`` is the one switch between the incremental engine's
    shortcuts and their reference paths (see
    :class:`~repro.incr.IncrementalReward`).  ``True`` routes the
    redundancy fixpoint through the analyzer's delta mode (the base's
    full pass recorded at each rebase, each candidate's pass replayed
    against it) and rebuilds the acceptance oracle on the delta substrate
    (:class:`~repro.incr.DeltaOracle`: candidate netlists materialized
    from the engine's delta lineage instead of a fresh re-elaboration).
    ``False`` runs the full fixpoint and a fresh-synthesis oracle -- the
    reference the differential fuzz tier checks the shortcuts against,
    bit for bit.  Both shortcuts fall back to the full path whenever
    their preconditions fail and record any divergence in
    :class:`OptimizationReport`.  Applies only when the incremental
    engine is in play (``incremental=True``, no explicit ``reward_fn``).

    Every accepted cone rewrite is checked for whether the new cone
    still computes the original function (packed simulation of
    before/after against one shared stimulus, via
    :class:`~repro.mcts.reward.ConeBatchEvaluator`) and the verdict is
    recorded in :attr:`OptimizationReport.cone_function_preserved`.
    Costs two cone simulations per *accepted* cone -- microseconds next
    to the search.

    ``require_functional_equivalence`` promotes that diagnostic into a
    hard gate: an improved cone state is rejected outright when its
    cone computes a different function on the shared stimulus -- or
    when equivalence cannot be established at all (the gate fails
    closed) -- keeping the search inside the original design's
    observable behaviour.

    ``sanitize`` audits the run with :mod:`repro.lint.sanitize`: every
    incrementally maintained structure the search touches (GraphView
    wiring memos, the SwapIndex edge cache, delta netlists, the area
    memo, dirty-cone analysis) is cross-checked against a from-scratch
    recomputation at its checkpoints, raising
    :class:`~repro.lint.InvariantViolation` on divergence.  Pure auditing: a sanitized run's result is
    bit-identical to an unsanitized one.  The ``REPRO_SANITIZE``
    environment variable turns this on globally without touching
    configs.
    """

    num_simulations: int = 500
    max_depth: int = 10
    branching: int = 8
    exploration: float = math.sqrt(2.0)
    clock_period: float = 2.0
    incremental: bool = True
    verify_with_synthesis: bool = True
    delta: bool = True
    require_functional_equivalence: bool = False
    sanitize: bool = False
    seed: int = 0


@dataclass
class OptimizationReport:
    graph: CircuitGraph
    cone_results: dict[int, ConeSearchResult] = field(default_factory=dict)
    #: Search-reward evaluations across all cone searches (the
    #: acceptance oracle's calls are not counted).
    reward_calls: int = 0
    #: register -> whether the accepted rewrite preserved the cone's
    #: function (absent when the check errored), plus a ``False`` entry
    #: per equivalence-gate rejection of a proven mismatch.
    cone_function_preserved: dict[int, bool] = field(default_factory=dict)
    #: Whether the incremental reward path was used for the search.
    incremental: bool = False
    #: Delta patches / rebases performed by the incremental reward.
    reward_patches: int = 0
    reward_rebases: int = 0
    #: Improved cone states rejected by the functional-equivalence gate.
    equivalence_rejections: int = 0
    #: Delta-mode redundancy-analysis outcomes (analyze calls replayed
    #: against the base's trajectory / answered by the full fixpoint
    #: after a divergence disabled the replay / unexpected exceptions
    #: that disabled it).  All zero when ``delta`` is off or the
    #: incremental engine is not used.
    analysis_delta_hits: int = 0
    analysis_fallbacks: int = 0
    analysis_divergences: int = 0
    #: Delta-substrate oracle outcomes (candidates scored from a
    #: materialized delta netlist / via fresh elaboration / divergences
    #: that flipped the oracle to the reference path).  All zero when
    #: ``delta`` is off or no oracle ran.
    oracle_delta_hits: int = 0
    oracle_fallbacks: int = 0
    oracle_divergences: int = 0
    #: Invariant audits performed when the run was sanitized (0 = the
    #: sanitizer was off; a sanitized run with violations raises).
    sanitize_checks: int = 0
    #: Cone-equivalence checks that errored out (simulator/elaboration
    #: failures) and therefore answered "unknown".  Non-zero means the
    #: diagnostic -- or the equivalence gate, which fails closed -- is
    #: degraded, not that the search result is wrong; a silent zero with
    #: empty ``cone_function_preserved`` would otherwise be
    #: indistinguishable from "nothing was accepted".
    cone_check_failures: int = 0

    @property
    def improved_cones(self) -> int:
        return sum(1 for r in self.cone_results.values() if r.improved)

    @property
    def total_simulations(self) -> int:
        return sum(r.simulations for r in self.cone_results.values())


#: Report fields mirrored into the process-wide metrics registry as
#: ``repro_<field>_total`` counters at the end of every search.
#: The registry is the aggregated source surfaces like ``GET /metrics``
#: read; the per-run report keeps the same numbers scoped to one call.
_PUBLISHED_COUNTERS = (
    "reward_calls",
    "analysis_delta_hits", "analysis_fallbacks", "analysis_divergences",
    "oracle_delta_hits", "oracle_fallbacks", "oracle_divergences",
    "sanitize_checks", "equivalence_rejections", "cone_check_failures",
)


def _publish_metrics(report: OptimizationReport) -> None:
    """Fold one finished search's counters into the global registry."""
    reg = registry()
    reg.counter("searches_total").inc()
    reg.counter("simulations_total").inc(report.total_simulations)
    reg.counter("improved_cones_total").inc(report.improved_cones)
    for name in _PUBLISHED_COUNTERS:
        value = getattr(report, name)
        if value:
            reg.counter(f"{name}_total").inc(value)


def _resolve_search_rewards(config: MCTSConfig, reward_fn: RewardFn | None):
    """(search reward, incremental engine or None, oracle or None).

    The incremental engine only stands in for the *default* reward: an
    explicitly passed ``reward_fn`` -- whether the discriminator or an
    exact :class:`SynthesisReward` -- is always used verbatim, so the
    exact-reward arms of ablations and results tables measure what they
    say.  When the search reward is approximate (discriminator or the
    incremental estimate) and ``verify_with_synthesis`` is on,
    acceptance is verified with the exact synthesis PCS so a misled
    search can never hurt.
    """
    exact_reward = reward_fn or SynthesisReward(config.clock_period)
    incremental = None
    search_base = exact_reward
    if config.incremental and reward_fn is None:
        from ..incr import IncrementalReward

        incremental = IncrementalReward(
            clock_period=config.clock_period, delta=config.delta,
        )
        search_base = incremental
    oracle = None
    if config.verify_with_synthesis and not isinstance(
        search_base, SynthesisReward
    ):
        if incremental is not None and incremental.delta:
            from ..incr import DeltaOracle

            # Acceptance on the delta substrate: candidate netlists are
            # materialized from the engine's lineage, not re-elaborated.
            oracle = DeltaOracle(incremental)
        else:
            oracle = (
                exact_reward if isinstance(exact_reward, SynthesisReward)
                else SynthesisReward(config.clock_period)
            )
    return search_base, incremental, oracle


#: One cone search: ``(current design, cone, reward)`` -> best state found.
SearchArm = Callable[[CircuitGraph, Cone, RewardFn], ConeSearchResult]


def optimize_registers(
    graph: CircuitGraph,
    reward_fn: RewardFn | None = None,
    config: MCTSConfig | None = None,
    registers: list[int] | None = None,
    verbose: bool = False,
) -> OptimizationReport:
    """MCTS optimization of each register cone; returns G_opt."""
    config = config or MCTSConfig()
    return _search_registers(
        graph, reward_fn, config, registers, verbose,
        _mcts_arm(config), "mcts",
    )


def random_search_registers(
    graph: CircuitGraph,
    reward_fn: RewardFn | None = None,
    config: MCTSConfig | None = None,
    verbose: bool = False,
) -> OptimizationReport:
    """Ablation baseline: random valid swaps with the same budget.

    Mirrors the paper's comparison: "randomly altering edge connections
    on G_val while still ensuring every step is valid... the same number
    of simulations ... adopt the optimal solution identified throughout
    the process."  Acceptance is the MCTS driver's.
    """
    config = config or MCTSConfig()
    return _search_registers(
        graph, reward_fn, config, None, verbose,
        _random_arm(config), "random",
    )


def _mcts_arm(config: MCTSConfig) -> SearchArm:
    """UCB1 tree search over the register's live cone."""

    def search(
        current: CircuitGraph, cone: Cone, reward: RewardFn
    ) -> ConeSearchResult:
        optimizer = MCTSOptimizer(
            reward,
            num_simulations=config.num_simulations,
            max_depth=config.max_depth,
            branching=config.branching,
            exploration=config.exploration,
            seed=config.seed + cone.register,
        )
        return optimizer.optimize_cone(
            current, driving_cone(current, cone.register)
        )

    return search


def _random_arm(config: MCTSConfig) -> SearchArm:
    """Random valid swaps; one generator is shared across all cones.

    The initial reward scores the live cone, but the swaps and every
    later reward use ``cone`` -- the membership captured before any
    rewrite was accepted.
    """
    rng = np.random.default_rng(config.seed)

    def search(
        current: CircuitGraph, cone: Cone, reward: RewardFn
    ) -> ConeSearchResult:
        index = SwapIndex([cone.register, *cone.interior])
        initial = reward(current, driving_cone(current, cone.register))
        best_graph, best_reward = current, initial
        state = current
        steps = 0
        rewards_seen = [initial]
        while steps < config.num_simulations:
            swaps = index.sample(state, rng, 1)
            if not swaps:
                break
            nxt = apply_swap(state, swaps[0])
            steps += 1
            if nxt is None:
                continue
            state = nxt
            r = reward(state, cone)
            rewards_seen.append(r)
            if r > best_reward:
                best_reward, best_graph = r, state
            # Periodic restart mirrors the MCTS depth limit.
            if steps % config.max_depth == 0:
                state = best_graph
        return ConeSearchResult(
            best_graph=best_graph,
            best_reward=best_reward,
            initial_reward=initial,
            simulations=steps,
            rewards_seen=rewards_seen,
        )

    return search


def _search_registers(
    graph: CircuitGraph,
    reward_fn: RewardFn | None,
    config: MCTSConfig,
    registers: list[int] | None,
    verbose: bool,
    arm: SearchArm,
    label: str,
) -> OptimizationReport:
    """The acceptance loop: search each register cone with ``arm`` and
    commit the improvements the gate and the oracle let through."""
    search_base, incremental, oracle = _resolve_search_rewards(
        config, reward_fn
    )
    sanitizer = _sanitizer_from_config(config.sanitize, seed=config.seed)
    current = start = graph.copy()
    report = OptimizationReport(
        graph=current, incremental=incremental is not None
    )

    def counted_reward(state: CircuitGraph, cone: Cone) -> float:
        report.reward_calls += 1
        return search_base(state, cone)

    # With the incremental reward, each cone's rebase computes the exact
    # base PCS anyway; reuse it instead of a redundant oracle call here.
    current_pcs = (
        oracle(current) if oracle is not None and incremental is None
        else None
    )
    # One evaluator for the whole run: its packed stimulus words are keyed
    # by original-graph node ids, so every candidate netlist (across all
    # cones) is driven by the same shared stimulus.
    evaluator = ConeBatchEvaluator(seed=config.seed)

    cones = all_cones(current)
    if registers is not None:
        wanted = set(registers)
        cones = [c for c in cones if c.register in wanted]
    # The sanitizing context is a no-op for sanitizer=None; inside it the
    # incremental machinery's checkpoints (SwapIndex, delta netlists,
    # dirty-cone analysis) audit themselves.
    with span("mcts.optimize", cones=len(cones),
              incremental=incremental is not None), sanitizing(sanitizer):
        for cone in cones:
            if not cone.interior:
                continue  # nothing to rewire inside a bare feedback register
            if incremental is not None:
                # current_pcs, when set, is the oracle's value for this
                # same graph object -- rebase reuses it instead of
                # re-synthesizing.
                incremental.rebase(current, exact_pcs=current_pcs)
                current_pcs = incremental.base_pcs
            with span("mcts.cone", register=cone.register,
                      interior=len(cone.interior)) as cone_span:
                result = arm(current, cone, counted_reward)
                cone_span.add(simulations=result.simulations,
                              improved=result.improved, **result.split_ms)
            report.cone_results[cone.register] = result
            if sanitizer is not None and result.improved:
                # S001: the search's best state sits at the end of the
                # deepest copy-on-write derivation chain this cone
                # produced -- audit its wiring memos before acceptance
                # decisions build on them.
                sanitizer.check_graph_memos(result.best_graph)
            accepted = False
            rejected = False
            preserved: bool | None = None
            previous = current
            if result.improved:
                if config.require_functional_equivalence:
                    preserved = _cone_function_preserved(
                        evaluator, current, result.best_graph,
                        cone.register, report,
                    )
                    if preserved is not True:
                        # Hard gate fails *closed*: a state whose
                        # equivalence cannot be established (check
                        # errored, preserved is None) is rejected like a
                        # proven mismatch.
                        rejected = True
                        report.equivalence_rejections += 1
                        if preserved is False:
                            report.cone_function_preserved[
                                cone.register
                            ] = False
                if not rejected:
                    if oracle is None:
                        current = result.best_graph
                        # Without the oracle there is no exact value for
                        # the new state; the next rebase must
                        # re-synthesize.
                        current_pcs = None
                        accepted = True
                    else:
                        with span("mcts.oracle", register=cone.register):
                            candidate_pcs = oracle(result.best_graph)
                        if candidate_pcs > current_pcs + 1e-12:
                            current = result.best_graph
                            current_pcs = candidate_pcs
                            accepted = True
            if accepted:
                # The accepted state becomes the next search base: a
                # plain graph over the same node storage, so the next
                # cone's states carry only their own rewires and the
                # intermediate rollout graphs can be reclaimed.
                if isinstance(current, GraphView):
                    current = current.flatten()
                if sanitizer is not None:
                    # S001 again, post-acceptance: the memos of the
                    # base the next cone search derives from.
                    sanitizer.check_graph_memos(current)
                if preserved is None:
                    # The gate (when it ran) compared this same
                    # (previous, current) pair; reuse its verdict.
                    preserved = _cone_function_preserved(
                        evaluator, previous, current, cone.register, report,
                    )
                if preserved is not None:
                    report.cone_function_preserved[cone.register] = preserved
            outcome = (
                "accepted" if accepted
                else "rejected (function changed)" if rejected else "kept"
            )
            logger.log(
                logging.INFO if verbose else logging.DEBUG,
                "[%s] reg %d: pcs %.3f -> %.3f (%s)", label,
                cone.register, result.initial_reward,
                result.best_reward, outcome,
            )
    if sanitizer is not None:
        report.sanitize_checks = sanitizer.checks_run
    if incremental is not None:
        report.reward_patches = incremental.patches
        report.reward_rebases = incremental.rebases
        (report.analysis_delta_hits, report.analysis_fallbacks,
         report.analysis_divergences) = incremental.analysis_counters()
    oracle_counters = getattr(oracle, "counters", None)
    if oracle_counters is not None:
        (report.oracle_delta_hits, report.oracle_fallbacks,
         report.oracle_divergences) = oracle_counters()
    # Accepted states share node storage with the search's views; hand
    # callers an independent plain graph so the accepted design's
    # lifetime is decoupled from the search and later mutations cannot
    # alias other states.
    if current is not start:
        current = current.copy()
    report.graph = current
    _publish_metrics(report)
    return report


#: Failure modes the cone simulation can legitimately hit on a candidate
#: state (cyclic subgraph, missing net, non-converging feedback
#: fixpoint).  Anything else -- a TypeError, an InvariantViolation from
#: the sanitizer -- is a bug in the engine and must propagate.
_CONE_CHECK_ERRORS = (ValueError, KeyError, RuntimeError)


def _cone_function_preserved(
    evaluator: ConeBatchEvaluator,
    before: CircuitGraph,
    after: CircuitGraph,
    register: int,
    report: OptimizationReport,
) -> bool | None:
    """Whether ``register``'s cone computes the same function in both
    states (``None`` when the check itself fails -- the diagnostic and
    the gate must never sink the search).  Suppressed failures are
    counted on ``report.cone_check_failures`` so diagnostic breakage is
    visible instead of silently reading as "unknown"."""
    try:
        return (
            evaluator.signature(before, register).words
            == evaluator.signature(after, register).words
        )
    except _CONE_CHECK_ERRORS:
        report.cone_check_failures += 1
        return None
