"""Tests for the unified session API (repro.api)."""

import json

import pytest

import repro.api.engine as engine_mod
from repro.api import (
    ArtifactStore,
    EvalRequest,
    EvalResult,
    GenerateRequest,
    GenerateResult,
    Session,
    SynCircuitConfig,
    SynthRequest,
    SynthSummary,
    graphs_fingerprint,
    list_presets,
    resolve_preset,
)
from repro.bench_designs import load_corpus
from repro.ir import validate


@pytest.fixture(scope="module")
def corpus():
    return load_corpus()[:4]


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("artifacts")


@pytest.fixture(scope="module")
def session(corpus, store_dir):
    s = Session(preset="smoke", seed=0, cache_dir=store_dir)
    return s.fit(corpus)


# ---------------------------------------------------------------------------
class TestPresets:
    def test_listing_names(self):
        names = set(list_presets())
        assert {"fast", "paper", "smoke",
                "ablation-no-diff", "ablation-reward"} <= names

    def test_resolution_returns_config(self):
        config = resolve_preset("paper")
        assert isinstance(config, SynCircuitConfig)
        assert config.reward == "discriminator"

    def test_ablation_presets(self):
        assert resolve_preset("ablation-no-diff").use_diffusion is False
        assert resolve_preset("ablation-reward").reward == "full-resynthesis"

    def test_seed_propagates_to_nested_configs(self):
        config = resolve_preset("fast", seed=11)
        assert config.seed == 11
        assert config.diffusion.seed == 11
        assert config.mcts.seed == 11

    def test_nested_and_top_level_overrides(self):
        config = resolve_preset(
            "fast", diffusion={"epochs": 5}, mcts={"max_depth": 2},
            degree_guidance=0.9,
        )
        assert config.diffusion.epochs == 5
        assert config.mcts.max_depth == 2
        assert config.degree_guidance == 0.9

    def test_presets_are_fresh_instances(self):
        resolve_preset("fast").diffusion.epochs = 1
        assert resolve_preset("fast").diffusion.epochs != 1

    def test_unknown_preset_raises(self):
        with pytest.raises(KeyError, match="unknown preset"):
            resolve_preset("warp-speed")

    def test_unknown_override_raises(self):
        with pytest.raises(TypeError, match="no field"):
            resolve_preset("fast", warp=9)

    def test_unknown_reward_rejected(self):
        # A typo must not fall through to the synthesis reward.
        with pytest.raises(ValueError, match="unknown reward"):
            SynCircuitConfig(reward="synth")
        with pytest.raises(ValueError, match="unknown reward"):
            resolve_preset("fast", reward="exact")
        data = resolve_preset("fast").to_dict()
        data["reward"] = "discriminater"
        with pytest.raises(ValueError, match="unknown reward"):
            SynCircuitConfig.from_dict(data)

    def test_session_seed_propagates_with_explicit_config(self, tmp_path):
        # Session(config=..., seed=N) follows the same contract as the
        # preset path: one integer seeds the nested configs too.
        config = resolve_preset("smoke")
        s = Session(config=config, seed=13, cache_dir=tmp_path)
        assert s.config.seed == 13
        assert s.config.diffusion.seed == 13
        assert s.config.mcts.seed == 13
        # The seed goes into a copy: the caller's config is untouched.
        assert config == resolve_preset("smoke")


# ---------------------------------------------------------------------------
def _phase3_rewards(config, graphs):
    """(search reward type, oracle type or None) a fitted engine runs."""
    from repro.api import SynCircuit
    from repro.mcts.optimize import _resolve_search_rewards

    # A stand-in model skips diffusion training; Phase 3 never reads it.
    engine = SynCircuit(config).fit(graphs, trained=object())
    search, _, oracle = _resolve_search_rewards(config.mcts, engine._reward_fn)
    return type(search).__name__, oracle and type(oracle).__name__


#: Preset -> the Phase-3 (search reward, acceptance oracle) it runs.
PRESET_REWARDS = {
    "fast": ("IncrementalReward", "DeltaOracle"),
    "smoke": ("IncrementalReward", "DeltaOracle"),
    "bench": ("IncrementalReward", "DeltaOracle"),
    "paper": ("PCSDiscriminator", "SynthesisReward"),
    "ablation-no-diff": ("PCSDiscriminator", "SynthesisReward"),
    "ablation-reward": ("SynthesisReward", None),
}


class TestPhase3Reward:
    @pytest.fixture(scope="class")
    def graphs(self):
        from repro.bench_designs import load_design

        return [load_design("uart_tx")]

    def test_table_covers_every_preset(self):
        assert set(PRESET_REWARDS) == set(list_presets())

    @pytest.mark.parametrize("preset", sorted(PRESET_REWARDS))
    def test_preset_runs_its_reward(self, preset, graphs):
        config = resolve_preset(preset)
        assert _phase3_rewards(config, graphs) == PRESET_REWARDS[preset]

    def test_delta_off_verifies_with_fresh_synthesis(self, graphs):
        config = resolve_preset("smoke", mcts={"delta": False})
        assert _phase3_rewards(config, graphs) == (
            "IncrementalReward", "SynthesisReward",
        )

    @pytest.mark.parametrize("preset", ["fast", "paper"])
    def test_cli_full_resynthesis_puts_exact_reward_in_loop(
        self, preset, graphs, monkeypatch, tmp_path
    ):
        from repro.cli import main

        seen = []

        class Stop(Exception):
            pass

        def fit(session, *args, **kwargs):
            seen.append(session.config)
            raise Stop

        monkeypatch.setattr(Session, "fit", fit)
        with pytest.raises(Stop):
            main(["generate", "--preset", preset, "--full-resynthesis",
                  "-o", str(tmp_path)])
        assert seen[0].reward == "full-resynthesis"
        assert _phase3_rewards(seen[0], graphs) == ("SynthesisReward", None)


# ---------------------------------------------------------------------------
class TestJsonRoundTrip:
    def _roundtrip(self, obj, cls):
        data = json.loads(json.dumps(obj.to_dict()))
        return cls.from_dict(data)

    def test_config(self):
        config = resolve_preset("fast", seed=3, diffusion={"epochs": 7})
        back = self._roundtrip(config, SynCircuitConfig)
        assert back == config

    def test_generate_request_with_range(self):
        req = GenerateRequest(count=4, nodes=(20, 40), optimize=False,
                              seed=9, workers=2, synth_period=1.5)
        back = self._roundtrip(req, GenerateRequest)
        assert back == req
        assert back.nodes == (20, 40)

    def test_generate_request_has_no_reward_override(self):
        with pytest.raises(TypeError, match="incremental"):
            GenerateRequest.from_dict({"count": 1, "incremental": False})

    @pytest.mark.parametrize("nodes", [0, 3, (3, 40), -1])
    def test_generate_request_rejects_unsampleable_nodes(self, nodes):
        # No sample of fewer than 4 nodes holds the four required types.
        with pytest.raises(ValueError, match="nodes must be >= 4"):
            GenerateRequest(nodes=nodes)
        assert GenerateRequest(nodes=4).nodes == 4
        assert GenerateRequest(nodes=(4, 40)).nodes == (4, 40)

    def test_synth_request_by_name_and_graph(self, corpus):
        by_name = self._roundtrip(SynthRequest("alu", 2.0), SynthRequest)
        assert by_name.design == "alu"
        by_graph = self._roundtrip(SynthRequest(corpus[0], 2.0), SynthRequest)
        assert by_graph.design.to_json() == corpus[0].to_json()

    def test_eval_request(self, corpus):
        req = EvalRequest(reference="alu", graphs=corpus[:2])
        back = self._roundtrip(req, EvalRequest)
        assert back.reference == "alu"
        assert [g.to_json() for g in back.graphs] == [
            g.to_json() for g in corpus[:2]
        ]

    def test_generate_result(self, session):
        result = session.generate(GenerateRequest(
            count=1, nodes=20, optimize=False, seed=2, synth_period=2.0,
        ))
        back = self._roundtrip(result, GenerateResult)
        assert back.to_dict() == result.to_dict()
        assert back.graphs[0].to_json() == result.graphs[0].to_json()

    def test_synth_summary(self, session):
        summary = session.synth(SynthRequest("alu", 2.0))
        back = self._roundtrip(summary, SynthSummary)
        assert back == summary
        assert all(isinstance(k, int) for k in back.register_slacks)


# ---------------------------------------------------------------------------
class TestArtifactCache:
    def test_second_fit_skips_all_training(self, session, corpus, store_dir,
                                           monkeypatch):
        def explode(*args, **kwargs):
            raise AssertionError("training ran despite a warm cache")

        monkeypatch.setattr(engine_mod, "train_diffusion", explode)
        monkeypatch.setattr(engine_mod, "train_discriminator", explode)
        fresh = Session(preset="smoke", seed=0, cache_dir=store_dir)
        fresh.fit(corpus)  # must come entirely from the store
        assert fresh.store.hits >= 1
        assert fresh.engine.trained is not None

    def test_cached_fit_generates_identically(self, session, corpus,
                                              store_dir):
        fresh = Session(preset="smoke", seed=0, cache_dir=store_dir).fit(corpus)
        req = GenerateRequest(count=1, nodes=25, optimize=False, seed=4)
        a = session.generate(req).graphs[0]
        b = fresh.generate(req).graphs[0]
        assert a.to_json() == b.to_json()

    def test_different_config_misses(self, corpus, store_dir):
        other = Session(
            config=resolve_preset("smoke", seed=0, diffusion={"epochs": 9}),
            cache_dir=store_dir,
        )
        before = other.store.misses
        other.fit(corpus)
        assert other.store.misses > before

    def test_model_saved_under_old_payload_is_not_loaded(
        self, corpus, tmp_path, monkeypatch
    ):
        """A store filled before the model-format version holds an
        unversioned bundle under the old key; ``fit`` must retrain
        rather than hand that model to the walk, even if the same bundle
        sits under the new key."""
        from test_persist import save_unversioned

        from repro.diffusion import train_diffusion
        from repro.diffusion.persist import FORMAT_VERSION

        config = resolve_preset("smoke", seed=0)
        old = train_diffusion(corpus, config.diffusion)
        payload = {"config": config.diffusion.__dict__,
                   "graphs": graphs_fingerprint(corpus)}
        store = ArtifactStore(tmp_path)
        for key in (ArtifactStore.key("diffusion", payload),
                    ArtifactStore.key("diffusion",
                                      {**payload, "format": FORMAT_VERSION})):
            save_unversioned(old, store.path(key, ".npz"))
        fits = []
        monkeypatch.setattr(engine_mod, "train_diffusion",
                            lambda *a, **k: fits.append(1) or old)
        session = Session(config=config, cache_dir=tmp_path).fit(corpus)
        assert fits == [1]
        assert session.store.hits == 0

    def test_synth_memoized_across_sessions(self, session, corpus, store_dir):
        first = session.synth(SynthRequest(corpus[1], 1.25))
        fresh = Session(preset="smoke", cache_dir=store_dir)
        hits_before = fresh.store.hits
        again = fresh.synth(SynthRequest(corpus[1], 1.25))
        assert fresh.store.hits == hits_before + 1
        assert again == first

    def test_no_cache_session_never_touches_store(self, corpus, tmp_path):
        s = Session(preset="smoke", seed=0, cache_dir=tmp_path,
                    use_cache=False)
        s.fit(corpus)
        s.synth(SynthRequest(corpus[0], 1.0))
        assert list(tmp_path.iterdir()) == []

    def test_graphs_fingerprint_order_insensitive(self, corpus):
        assert graphs_fingerprint(corpus) == \
            graphs_fingerprint(list(reversed(corpus)))

    def test_store_clear(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = ArtifactStore.key("blob", {"x": 1})
        store.save_json(key, {"x": 1})
        assert store.load_json(key) == {"x": 1}
        assert store.clear() == 1
        fresh = ArtifactStore(tmp_path)
        assert fresh.load_json(key) is None

    def test_store_clear_spares_foreign_files(self, tmp_path):
        # clear() must only delete the store's own key-named artifacts,
        # never unrelated files in a directory the user pointed it at.
        foreign = tmp_path / "manifest.json"
        foreign.write_text("{}")
        store = ArtifactStore(tmp_path)
        store.save_json(ArtifactStore.key("blob", {"y": 2}), {"y": 2})
        assert store.clear() == 1
        assert foreign.exists()


# ---------------------------------------------------------------------------
class TestGeneration:
    def test_batch_matches_sequential_bitwise(self, session):
        req = GenerateRequest(count=3, nodes=(20, 35), optimize=False, seed=6)
        seq = session.generate(req)
        par = session.generate(GenerateRequest(
            count=3, nodes=(20, 35), optimize=False, seed=6, workers=4,
        ))
        assert [g.to_json() for g in seq.graphs] == \
            [g.to_json() for g in par.graphs]

    def test_batch_matches_sequential_with_optimize(self, session):
        req = GenerateRequest(count=2, nodes=20, optimize=True, seed=1)
        seq = session.generate(req)
        par = session.generate(GenerateRequest(
            count=2, nodes=20, optimize=True, seed=1, workers=2,
        ))
        assert [g.to_json() for g in seq.graphs] == \
            [g.to_json() for g in par.graphs]

    def test_generated_graphs_are_valid(self, session):
        result = session.generate(GenerateRequest(
            count=2, nodes=24, optimize=False, seed=3, workers=2,
        ))
        for record in result.records:
            assert validate(record.g_val).ok

    def test_iter_generate_streams_in_order(self, session):
        req = GenerateRequest(count=3, nodes=22, optimize=False, seed=8,
                              workers=3)
        streamed = list(session.iter_generate(req))
        batch = session.generate(req)
        assert [r.g_val.to_json() for r in streamed] == \
            [r.g_val.to_json() for r in batch.records]

    def test_synth_period_attaches_summaries(self, session):
        result = session.generate(GenerateRequest(
            count=2, nodes=20, optimize=False, seed=5, synth_period=2.0,
        ))
        assert result.synth is not None and len(result.synth) == 2
        for summary in result.synth:
            assert summary.clock_period == 2.0

    def test_generate_requires_fit(self, store_dir):
        s = Session(preset="smoke", cache_dir=store_dir)
        with pytest.raises(RuntimeError):
            s.generate(GenerateRequest(count=1, nodes=20))

    def test_evaluate(self, session):
        result = session.generate(GenerateRequest(
            count=2, nodes=25, optimize=False, seed=7,
        ))
        report = session.evaluate(EvalRequest("alu", result.graphs))
        assert isinstance(report, EvalResult)
        assert report.num_graphs == 2
        assert report.w1_out_degree >= 0.0


#: ``use_diffusion=False`` digests of ``Session.generate`` on the smoke
#: preset fitted on the default training split, keyed by (optimize,
#: request seed).  They were measured while the ablation's random
#: Phase 1 was still drawn inside ``SynCircuit.generate_one``; drawing
#: it in ``SynCircuit.presample`` from the same per-item rng, in the
#: same order, must not move a bit.
ABLATION_REQUESTS = {3: dict(count=3, nodes=(48, 96)),
                     4: dict(count=2, nodes=(96, 160))}
ABLATION_PINS = {
    (False, 3): "863015c8d80a0578",
    (False, 4): "ecd6effec89e10c4",
    (True, 3): "686613c91f5d98d0",
    (True, 4): "5598abf9986212af",
}


def _digest(graphs) -> str:
    import hashlib

    hasher = hashlib.sha256()
    for graph in graphs:
        hasher.update(json.dumps(graph.to_dict(), sort_keys=True).encode())
    return hasher.hexdigest()[:16]


class TestAblationArm:
    @pytest.fixture(scope="class")
    def no_diff(self):
        return Session(
            config=resolve_preset("smoke", use_diffusion=False),
            use_cache=False,
        ).fit()

    @pytest.mark.parametrize("optimize, seed", sorted(ABLATION_PINS))
    def test_presampled_ablation_matches_pins(self, no_diff, optimize, seed):
        result = no_diff.generate(GenerateRequest(
            seed=seed, optimize=optimize, **ABLATION_REQUESTS[seed],
        ))
        assert min(g.num_nodes for g in result.graphs) >= 48
        assert _digest(result.graphs) == ABLATION_PINS[optimize, seed]

    def test_ablation_workers_match_sequential(self, no_diff):
        request = GenerateRequest(seed=3, workers=2, **ABLATION_REQUESTS[3])
        assert _digest(no_diff.generate(request).graphs) == \
            ABLATION_PINS[True, 3]


# ---------------------------------------------------------------------------
class TestCompat:
    def test_top_level_lazy_exports(self):
        import repro

        assert repro.Session is Session
        with pytest.raises(AttributeError):
            repro.not_a_name
