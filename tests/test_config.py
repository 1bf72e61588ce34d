"""Config document loading, nesting, validation, and the resolved echo."""

import json

import pytest

from valnov.config import (
    PromptSettings,
    RunConfig,
    load_config,
    resolved_config_json,
)
from valnov.contrastive import ContrastiveConfig
from valnov.encoder import EncoderConfig
from valnov.errors import ConfigurationError
from valnov.mtl import TRAIN_PROFILES


class TestDefaults:
    def test_empty_config_is_valid(self):
        config = load_config(None)
        assert config == RunConfig()
        assert config.profile == "clteaml-2"
        assert config.encoder == EncoderConfig()
        assert config.contrastive == ContrastiveConfig()
        assert config.prompting.provider == "replay-only"
        assert config.baseline.c_validity == 0.09
        assert config.baseline.c_novelty == 4.7
        assert config.combined_metric == "joint-macro-f1"

    def test_empty_file_object(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{}", encoding="utf-8")
        assert load_config(path) == RunConfig()


class TestLoading:
    def write(self, tmp_path, payload):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path

    def test_nested_sections_parsed(self, tmp_path):
        path = self.write(
            tmp_path,
            {
                "profile": "desk",
                "seed": 7,
                "encoder": {"vocab_buckets": 512, "embed_dim": 16, "projection_dim": 8},
                "contrastive": {"margin": 0.5, "distance": "euclidean"},
                "prompting": {"provider": "mock", "parallelism": 4},
                "baseline": {"c_validity": 1.0},
                "data": {"train_path": "x/train.tsv"},
                "sweep": {"runs": 5},
            },
        )
        config = load_config(path)
        assert config.profile == "desk"
        assert config.seed == 7
        assert config.encoder == EncoderConfig(
            vocab_buckets=512, embed_dim=16, projection_dim=8
        )
        assert config.contrastive.margin == 0.5
        assert config.contrastive.distance == "euclidean"
        assert config.prompting.provider == "mock"
        assert config.prompting.parallelism == 4
        assert config.baseline.c_validity == 1.0
        assert config.baseline.c_novelty == 4.7  # untouched default
        assert config.data.train_path == "x/train.tsv"
        assert config.sweep.runs == 5

    @pytest.mark.parametrize("seed", [3, "x"])
    def test_train_overrides_seed_rejected(self, tmp_path, seed):
        path = self.write(tmp_path, {"train_overrides": {"seed": seed}})
        with pytest.raises(ConfigurationError, match=r"train_overrides\.seed .*top-level seed"):
            load_config(path)

    def test_unknown_top_level_key(self, tmp_path):
        path = self.write(tmp_path, {"optimiser": "adam"})
        with pytest.raises(ConfigurationError, match=r"unknown config key.*optimiser"):
            load_config(path)

    def test_unknown_nested_key_names_section(self, tmp_path):
        path = self.write(tmp_path, {"prompting": {"providerr": "mock"}})
        with pytest.raises(ConfigurationError, match=r"providerr.*\.prompting"):
            load_config(path)

    def test_section_must_be_object(self, tmp_path):
        path = self.write(tmp_path, {"encoder": "big"})
        with pytest.raises(ConfigurationError, match="must be an object"):
            load_config(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="invalid JSON"):
            load_config(path)

    def test_top_level_must_be_object(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="top level"):
            load_config(path)

    def test_nested_validation_still_applies(self, tmp_path):
        path = self.write(tmp_path, {"contrastive": {"margin": -1.0}})
        with pytest.raises(ConfigurationError):
            load_config(path)

    @pytest.mark.parametrize("steps", [0, -1])
    def test_baseline_steps_below_one_rejected(self, tmp_path, steps):
        path = self.write(tmp_path, {"baseline": {"steps": steps}})
        with pytest.raises(ConfigurationError, match="steps"):
            load_config(path)

    def test_baseline_steps_null_or_positive_accepted(self, tmp_path):
        for steps in (None, 1):
            path = self.write(tmp_path, {"baseline": {"steps": steps}})
            assert load_config(path).baseline.steps == steps


class TestTrainConfig:
    def test_profile_hyperparameters(self):
        config = RunConfig(profile="clteaml-4")
        train = config.train_config()
        lr, epochs, accum = TRAIN_PROFILES["clteaml-4"]
        assert (train.learning_rate, train.epochs, train.grad_accumulation) == (
            lr,
            epochs,
            accum,
        )

    def test_overrides_and_seed(self):
        config = RunConfig(
            profile="desk",
            seed=3,
            train_overrides={"epochs": 2, "task_probabilities": [0.7, 0.3]},
        )
        train = config.train_config()
        assert train.epochs == 2
        assert train.task_probabilities == (0.7, 0.3)
        assert train.seed == 3

    def test_combined_metric_propagates(self):
        config = RunConfig(combined_metric="task-mean-macro-f1")
        assert config.train_config().combined_metric == "task-mean-macro-f1"

    def test_unknown_profile(self):
        with pytest.raises(ConfigurationError):
            RunConfig(profile="warp-speed").train_config()


class TestResolvedEcho:
    def test_json_round_trips_through_loader(self, tmp_path):
        config = RunConfig(profile="desk", seed=5)
        echo = resolved_config_json(config)
        path = tmp_path / "config.json"
        path.write_text(echo, encoding="utf-8")
        assert load_config(path) == config

    def test_echo_is_stable(self):
        a = resolved_config_json(RunConfig())
        b = resolved_config_json(RunConfig())
        assert a == b
        assert json.loads(a)["profile"] == "clteaml-2"

    def test_echo_sorted_keys(self):
        data = json.loads(resolved_config_json(RunConfig()))
        assert list(data) == sorted(data)

    def test_decoding_block(self):
        decoding = PromptSettings(max_tokens=7).decoding()
        assert decoding == {
            "model_id": "text-davinci-002",
            "temperature": 0.0,
            "frequency_penalty": 0.0,
            "presence_penalty": 0.0,
            "max_tokens": 7,
        }
