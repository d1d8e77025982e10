"""Tier plumbing and the exact sampler.

Phase 3 has one search, so ``GenerateRequest.tier`` selects nothing:

* the tier names are stable API, and an unknown tier is rejected when
  the request is built;
* sampling is byte-stable -- ``sample_batch`` stays element-wise
  bit-identical to solo sampling;
* ``tier="exact"`` and ``tier="fast"`` return exactly what ``tier=None``
  does, with and without Phase 3.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.api import GenerateRequest, Session
from repro.api import requests as api_requests
from repro.api.presets import resolve_preset
from repro.bench_designs import load_corpus
from repro.diffusion import sample_batch, sample_initial_graph, train_diffusion
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
        assert api_requests.EXACT_TIER == "exact"
        assert api_requests.FAST_TIER == "fast"
        assert GenerateRequest().tier is None
        assert GenerateRequest(tier="fast").to_dict()["tier"] == "fast"
        with pytest.raises(ValueError, match="unknown tier"):
            GenerateRequest(tier="turbo")
        with pytest.raises(ValueError, match="unknown tier"):
            dataclasses.replace(GenerateRequest(), tier="")
        with pytest.raises(ValueError, match="unknown tier"):
            GenerateRequest.from_dict({"tier": "turbo"})

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
        # tier=None is its own key too: the serve layer keys the
        # request as sent.
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
        # Phase 3 has one search: with it on, an exact and a fast
        # request both return the default request's graphs byte for
        # byte.  The search rewrites both circuits here, so the check is
        # not vacuous.
        base = GenerateRequest(count=2, nodes=44, optimize=True, seed=5)
        default = session.generate(base)
        assert all(
            record.g_opt.to_dict() != record.g_val.to_dict()
            for record in default.records
        )
        want = [graph.to_dict() for graph in default.graphs]
        assert len(want) == 2
        for tier in ("exact", "fast"):
            named = session.generate(dataclasses.replace(base, tier=tier))
            assert [graph.to_dict() for graph in named.graphs] == want
        # Without Phase 3 a fast request returns the exact request's
        # graphs, through the batch path and through iter_generate's
        # chunked presampling (chunks of 4 x workers items, so 10 items
        # take two chunks).
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


def test_bench_suite_exposes_throughput_entries():
    from repro.bench.suites import build_suite

    config = resolve_preset("smoke", seed=0)
    names = [benchmark.name for benchmark in build_suite(config)]
    assert "e2e.generate_batch" in names
