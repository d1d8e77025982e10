"""Exact-vs-fast differential harness: the fast tier's quality gate.

The ``fast`` tier (``MCTSConfig.tier``) buys Phase-3 throughput with
cone triage -- headroom-ordered cones, an early exit after a dud streak,
and estimate-filtered oracle calls.  Phases 1 and 2 do not depend on
the tier.  None of that is *assumed* safe: this module measures what it
actually does to the generated population.  :func:`measure_drift` runs
the same generation request under both tiers and compares the
per-family mean post-synthesis SCPR and area; tier-1
(``tests/test_tiers.py``) asserts the relative drift stays inside
:data:`FAST_SCPR_TOLERANCE` / :data:`FAST_AREA_TOLERANCE`.

A "family" here is one batch composition -- a node count (or range) plus
a seed -- i.e. one population the generator was asked for.  Comparing
family *means* rather than item pairs is deliberate: fast-tier items are
not bit-matched to exact-tier items (the whole point of the tier), so
the contract is distributional, exactly like the paper's Table II
protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..mcts.optimize import EXACT_TIER, FAST_TIER

#: Tolerance bound on the *relative* drift of the family-mean SCPR
#: between fast- and exact-tier generation.
FAST_SCPR_TOLERANCE = 0.25

#: Same bound for the family-mean post-synthesis area.
FAST_AREA_TOLERANCE = 0.25


@dataclass
class FamilyDrift:
    """Exact-vs-fast population statistics of one request family."""

    name: str
    count: int
    exact_scpr: float
    fast_scpr: float
    exact_area: float
    fast_area: float
    #: Wall-clock of the two generation runs (diagnostic only -- bench
    #: timing belongs to :mod:`repro.bench.suites`).
    exact_seconds: float = 0.0
    fast_seconds: float = 0.0

    @property
    def scpr_drift(self) -> float:
        """Relative drift of the family-mean SCPR (fast vs exact)."""
        return _relative(self.fast_scpr, self.exact_scpr)

    @property
    def area_drift(self) -> float:
        """Relative drift of the family-mean post-synthesis area."""
        return _relative(self.fast_area, self.exact_area)

    def to_dict(self) -> dict:
        data = self.__dict__.copy()
        data["scpr_drift"] = self.scpr_drift
        data["area_drift"] = self.area_drift
        return data


@dataclass
class DriftReport:
    """All family drifts of one differential run, plus the gate."""

    families: list[FamilyDrift] = field(default_factory=list)
    scpr_tolerance: float = FAST_SCPR_TOLERANCE
    area_tolerance: float = FAST_AREA_TOLERANCE

    def within_tolerance(self) -> bool:
        """Whether every family sits inside the published gate."""
        return not self.violations()

    def violations(self) -> list[str]:
        """Human-readable gate violations (empty = gate passes)."""
        found = []
        for family in self.families:
            if family.scpr_drift > self.scpr_tolerance:
                found.append(
                    f"{family.name}: SCPR drift {family.scpr_drift:.3f} "
                    f"> {self.scpr_tolerance}"
                )
            if family.area_drift > self.area_tolerance:
                found.append(
                    f"{family.name}: area drift {family.area_drift:.3f} "
                    f"> {self.area_tolerance}"
                )
        return found

    def to_dict(self) -> dict:
        return {
            "families": [family.to_dict() for family in self.families],
            "scpr_tolerance": self.scpr_tolerance,
            "area_tolerance": self.area_tolerance,
            "within_tolerance": self.within_tolerance(),
        }


def _relative(fast: float, exact: float) -> float:
    """|fast - exact| / |exact| with a zero-safe denominator."""
    scale = max(abs(exact), 1e-12)
    return abs(fast - exact) / scale


def measure_drift(
    session,
    families,
    clock_period: float = 1.0,
    scpr_tolerance: float = FAST_SCPR_TOLERANCE,
    area_tolerance: float = FAST_AREA_TOLERANCE,
) -> DriftReport:
    """Run each family at both tiers and report the population drift.

    ``session`` is a fitted :class:`repro.api.Session`; ``families`` is
    a list of :class:`repro.api.GenerateRequest` -- each one family.
    Any ``tier`` already set on a family request is ignored: the whole
    point is running the *same* request twice with only the tier
    swapped.  Synthesis of the generated graphs goes through
    ``session.synth`` (store-memoized when the session caches).
    """
    import time

    report = DriftReport(
        scpr_tolerance=scpr_tolerance, area_tolerance=area_tolerance
    )
    for request in families:
        stats: dict[str, tuple[float, float, float]] = {}
        for tier in (EXACT_TIER, FAST_TIER):
            run = replace(request, tier=tier)
            begin = time.perf_counter()
            result = session.generate(run)
            elapsed = time.perf_counter() - begin
            summaries = [
                session.synth(graph, clock_period=clock_period)
                for graph in result.graphs
            ]
            n = max(len(summaries), 1)
            stats[tier] = (
                sum(s.scpr for s in summaries) / n,
                sum(s.area for s in summaries) / n,
                elapsed,
            )
        exact_scpr, exact_area, exact_seconds = stats[EXACT_TIER]
        fast_scpr, fast_area, fast_seconds = stats[FAST_TIER]
        report.families.append(FamilyDrift(
            name=f"nodes{request.nodes}_seed{request.seed}",
            count=request.count,
            exact_scpr=exact_scpr,
            fast_scpr=fast_scpr,
            exact_area=exact_area,
            fast_area=fast_area,
            exact_seconds=exact_seconds,
            fast_seconds=fast_seconds,
        ))
    return report
