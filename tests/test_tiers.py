"""Two-tier contract: tier plumbing, bit-identity, drift gate.

The tier (``MCTSConfig.tier``) is a Phase-3 search setting:

* the tier *names* and published tolerances are stable API, and an
  unknown tier is rejected when the config or the request is built;
* sampling is byte-stable and tier-free -- ``sample_batch`` stays
  element-wise bit-identical to solo sampling, a request with
  ``tier="exact"`` produces exactly what ``tier=None`` does, and
  without Phase 3 a ``tier="fast"`` request does too;
* the ``fast`` tier is tolerance-gated -- :func:`measure_drift` runs
  the pinned gate families at both tiers and the family-mean SCPR/area
  drift must sit inside ``FAST_SCPR_TOLERANCE`` / ``FAST_AREA_TOLERANCE``.

The gate families are drift-verified compositions; the ``(68, 84)``
seed-7 family is the one ``BENCH_smoke.json`` records
``speedup_vs_exact`` on, so its drift stays pinned here alongside the
throughput claim.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.api import GenerateRequest, Session
from repro.api.presets import resolve_preset
from repro.bench.drift import (
    FAST_AREA_TOLERANCE,
    FAST_SCPR_TOLERANCE,
    measure_drift,
)
from repro.bench_designs import load_corpus
from repro.diffusion import sample_batch, sample_initial_graph, train_diffusion
from repro.mcts import MCTSConfig
from repro.mcts import optimize as mcts_optimize
from repro.obs import registry


@pytest.fixture(scope="module")
def smoke_trained():
    """Smoke-scale trained diffusion on the same corpus the bench uses."""
    config = resolve_preset("smoke", seed=0)
    graphs = sorted(load_corpus(), key=lambda g: g.num_nodes)[:6]
    return config, graphs, train_diffusion(graphs, config.diffusion)


@pytest.fixture(scope="module")
def session(smoke_trained):
    """Fitted session matching the ``e2e.generate*`` bench setup."""
    config, graphs, trained = smoke_trained
    session = Session(config=config, use_cache=False)
    session.engine.fit(graphs, trained=trained)
    return session


def _item_rngs(seed: int, count: int) -> list[np.random.Generator]:
    return [
        np.random.default_rng(child)
        for child in np.random.SeedSequence(seed).spawn(count)
    ]


class TestTierContract:
    def test_tier_names_and_checks(self):
        assert mcts_optimize.EXACT_TIER == "exact"
        assert mcts_optimize.FAST_TIER == "fast"
        assert MCTSConfig().tier == "exact"
        assert MCTSConfig(tier="fast").tier == "fast"
        assert GenerateRequest().tier is None
        with pytest.raises(ValueError, match="unknown tier"):
            MCTSConfig(tier="turbo")
        with pytest.raises(ValueError, match="unknown tier"):
            dataclasses.replace(MCTSConfig(), tier="")
        with pytest.raises(ValueError, match="unknown tier"):
            GenerateRequest.from_dict({"tier": "turbo"})

    def test_published_tolerances_are_sane(self):
        assert 0.0 < FAST_SCPR_TOLERANCE <= 0.5
        assert 0.0 < FAST_AREA_TOLERANCE <= 0.5
        assert 0.0 < mcts_optimize.FAST_CONE_COVERAGE <= 1.0
        assert 0.0 <= mcts_optimize.FAST_ORACLE_MARGIN < 1.0
        assert mcts_optimize.FAST_EXIT_PATIENCE >= 1

    def test_session_rejects_unknown_tier(self, session):
        with pytest.raises(ValueError, match="unknown tier"):
            session.generate(GenerateRequest(count=1, nodes=36, tier="turbo"))

    def test_request_key_separates_tiers(self):
        from repro.serve import request_key

        config = {"preset": "smoke", "seed": 0}
        exact = GenerateRequest(count=2, nodes=44, tier="exact").to_dict()
        fast = GenerateRequest(count=2, nodes=44, tier="fast").to_dict()
        default = GenerateRequest(count=2, nodes=44).to_dict()
        assert request_key(config, exact) != request_key(config, fast)
        # tier=None resolves through the config, so it is its own key
        # too: the serve layer never aliases across tier spellings.
        assert request_key(config, default) != request_key(config, exact)
        # workers stays a wall-clock knob, not identity.
        threaded = dict(fast, workers=4)
        assert request_key(config, threaded) == request_key(config, fast)


class TestExactSampler:
    def test_batch_bit_identical_to_solo(self, smoke_trained):
        _, _, trained = smoke_trained
        # Under the decoder's block budget the sizes up to 44 fit one
        # row block while 128, 129 and 200 take many (129's last block
        # is ragged), and 129 appears twice so a multi-item group walks
        # the blocks too.
        sizes = [36, 44, 36, 40, 128, 129, 200, 129]
        batch = sample_batch(trained, sizes, _item_rngs(123, len(sizes)))
        solo = [
            sample_initial_graph(trained, num_nodes=n, rng=rng)
            for n, rng in zip(sizes, _item_rngs(123, len(sizes)))
        ]
        for got, want in zip(batch, solo):
            assert np.array_equal(got.types, want.types)
            assert np.array_equal(got.widths, want.widths)
            assert np.array_equal(got.adjacency, want.adjacency)
            assert np.array_equal(got.edge_probability, want.edge_probability)

    def test_batch_fill_ratio_gauge(self, smoke_trained):
        _, _, trained = smoke_trained
        sizes = [36, 36, 44, 52]  # groups {36: 2, 44: 1, 52: 1}
        sample_batch(trained, sizes, _item_rngs(7, len(sizes)))
        assert registry().value("diffusion_batch_fill_ratio") == \
            pytest.approx((2 ** 2 + 1 + 1) / 4 ** 2)

    def test_empty_batch(self, smoke_trained):
        _, _, trained = smoke_trained
        assert sample_batch(trained, [], []) == []
        assert registry().value("diffusion_batch_fill_ratio") == 1.0


class TestExactTierRequests:
    def test_explicit_exact_matches_default(self, session):
        base = GenerateRequest(count=2, nodes=44, optimize=True, seed=5)
        default = session.generate(base)
        explicit = session.generate(dataclasses.replace(base, tier="exact"))
        assert len(default.graphs) == len(explicit.graphs) == 2
        for a, b in zip(default.graphs, explicit.graphs):
            assert a.to_dict() == b.to_dict()
        # The tier only selects the Phase-3 search: without Phase 3 a
        # fast request returns the exact request's graphs, through the
        # batch path and through iter_generate's chunked presampling
        # (chunks of 4 x workers items, so 10 items take two chunks).
        unoptimized = GenerateRequest(
            count=10, nodes=(36, 52), optimize=False, seed=3, workers=2
        )
        exact = [
            graph.to_dict() for graph in session.generate(
                dataclasses.replace(unoptimized, tier="exact")
            ).graphs
        ]
        fast = dataclasses.replace(unoptimized, tier="fast")
        assert [graph.to_dict() for graph in session.generate(fast).graphs] \
            == exact
        assert [
            record.graph.to_dict() for record in session.iter_generate(fast)
        ] == exact


#: Drift-verified gate compositions.  Each was measured deterministic at
#: the recorded tolerance headroom; the last is the family
#: ``BENCH_smoke.json`` pins ``speedup_vs_exact`` on.
GATE_FAMILIES = [
    GenerateRequest(count=8, nodes=(36, 52), optimize=True, seed=5),
    GenerateRequest(count=8, nodes=44, optimize=True, seed=0),
    GenerateRequest(count=6, nodes=(40, 60), optimize=True, seed=11),
    GenerateRequest(count=8, nodes=(40, 58), optimize=True, seed=7),
    GenerateRequest(count=8, nodes=(42, 58), optimize=True, seed=4),
    GenerateRequest(count=8, nodes=(68, 84), optimize=True, seed=7),
]


class TestDriftGate:
    def test_fast_tier_drift_within_tolerance(self, session):
        report = measure_drift(session, GATE_FAMILIES, clock_period=2.0)
        assert len(report.families) == len(GATE_FAMILIES)
        assert report.scpr_tolerance == FAST_SCPR_TOLERANCE
        assert report.area_tolerance == FAST_AREA_TOLERANCE
        assert report.within_tolerance(), "\n".join(report.violations())

    def test_report_round_trips_to_dict(self):
        from repro.bench.drift import DriftReport, FamilyDrift

        report = DriftReport(families=[FamilyDrift(
            name="nodes44_seed0", count=8,
            exact_scpr=0.5, fast_scpr=0.6,
            exact_area=100.0, fast_area=140.0,
        )])
        data = report.to_dict()
        assert data["families"][0]["scpr_drift"] == pytest.approx(0.2)
        assert data["families"][0]["area_drift"] == pytest.approx(0.4)
        assert not data["within_tolerance"]
        assert any("area drift" in v for v in report.violations())

    def test_zero_exact_baseline_is_safe(self):
        from repro.bench.drift import FamilyDrift

        family = FamilyDrift(
            name="nodes36_seed0", count=1,
            exact_scpr=0.0, fast_scpr=0.0,
            exact_area=0.0, fast_area=0.0,
        )
        assert family.scpr_drift == 0.0
        assert family.area_drift == 0.0


def test_bench_suite_exposes_throughput_entries():
    from repro.bench.suites import build_suite

    config = resolve_preset("smoke", seed=0)
    names = [benchmark.name for benchmark in build_suite(config)]
    for name in (
        "e2e.generate_batch",
        "e2e.generate_fast",
    ):
        assert name in names, f"missing bench entry {name}"
