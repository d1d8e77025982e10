"""End-to-end tests for the SynCircuit pipeline."""

import pytest

from repro.api import GenerateRequest, Session, SynCircuit, SynCircuitConfig
from repro.bench_designs import load_corpus
from repro.diffusion import DiffusionConfig
from repro.hdl import generate_verilog, parse_verilog
from repro.ir import validate
from repro.mcts import MCTSConfig
from repro.synth import synthesize


def _fast_config(**overrides) -> SynCircuitConfig:
    cfg = SynCircuitConfig(
        diffusion=DiffusionConfig(epochs=12, hidden=24, num_layers=2, seed=0),
        mcts=MCTSConfig(num_simulations=15, max_depth=4, branching=4, seed=0),
        discriminator_perturbations=4,
        **overrides,
    )
    return cfg


def _session(config: SynCircuitConfig) -> Session:
    return Session(config=config, use_cache=False)


def _records(session, count, nodes, *, optimize, seed):
    return session.generate(GenerateRequest(
        count=count, nodes=nodes, optimize=optimize, seed=seed,
    )).records


@pytest.fixture(scope="module")
def fitted():
    return _session(_fast_config()).fit(load_corpus()[:6])


class TestFit:
    def test_fit_requires_graphs(self):
        with pytest.raises(ValueError):
            SynCircuit(_fast_config()).fit([])

    def test_generate_requires_fit(self):
        with pytest.raises(RuntimeError):
            _records(_session(_fast_config()), 1, 20, optimize=True, seed=0)

    def test_fit_then_generate_returns_api_records(self):
        from repro.api import GenerationRecord

        config = SynCircuitConfig(
            diffusion=DiffusionConfig(epochs=4, hidden=12, num_layers=2),
            mcts=MCTSConfig(num_simulations=5, max_depth=3, branching=3),
        )
        session = _session(config).fit(load_corpus()[:3])
        record = _records(session, 1, 24, optimize=False, seed=0)[0]
        assert isinstance(record, GenerationRecord)
        assert validate(record.g_val).ok
        assert record.graph is record.g_val


class TestGenerate:
    def test_records_have_valid_graphs(self, fitted):
        records = _records(fitted, 2, 30, optimize=False, seed=1)
        assert len(records) == 2
        for rec in records:
            assert validate(rec.g_val).ok
            assert rec.g_opt is None
            assert rec.graph is rec.g_val

    def test_optimized_records(self, fitted):
        records = _records(fitted, 1, 30, optimize=True, seed=2)
        rec = records[0]
        assert rec.g_opt is not None
        assert validate(rec.g_opt).ok
        assert rec.graph is rec.g_opt

    def test_node_count_range(self, fitted):
        records = _records(fitted, 3, (20, 40), optimize=False, seed=3)
        for rec in records:
            assert 20 <= rec.g_val.num_nodes <= 40

    def test_generated_circuits_synthesize(self, fitted):
        records = _records(fitted, 2, 30, optimize=False, seed=4)
        for rec in records:
            result = synthesize(rec.g_val, clock_period=2.0)
            assert result.num_cells >= 0

    def test_generated_circuits_roundtrip_hdl(self, fitted):
        records = _records(fitted, 1, 25, optimize=False, seed=5)
        g = records[0].g_val
        parsed = parse_verilog(generate_verilog(g))
        assert validate(parsed).ok
        assert parsed.num_nodes == g.num_nodes

    def test_deterministic_under_seed(self, fitted):
        r1 = _records(fitted, 1, 25, optimize=False, seed=7)
        r2 = _records(fitted, 1, 25, optimize=False, seed=7)
        assert list(r1[0].g_val.edges()) == list(r2[0].g_val.edges())


class TestAblation:
    def test_without_diffusion(self):
        cfg = _fast_config(use_diffusion=False)
        session = _session(cfg).fit(load_corpus()[:4])
        assert session.engine.trained is None
        records = _records(session, 1, 25, optimize=False, seed=0)
        assert validate(records[0].g_val).ok

    def test_synthesis_reward_mode(self):
        cfg = _fast_config(reward="synthesis")
        session = _session(cfg).fit(load_corpus()[:4])
        records = _records(session, 1, 20, optimize=True, seed=0)
        assert validate(records[0].graph).ok

    def test_optimization_improves_or_keeps_pcs(self, fitted):
        records = _records(fitted, 2, 30, optimize=True, seed=8)
        for rec in records:
            before = synthesize(rec.g_val, clock_period=2.0).pcs
            after = synthesize(rec.g_opt, clock_period=2.0).pcs
            assert after >= before - 1e-9
