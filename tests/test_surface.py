"""The settings surface: every CLI flag and every config value, by name.

Adding or removing a knob means editing this file.
"""

import argparse
import dataclasses

import pytest

from valnov.cli import build_parser, main
from valnov.config import RunConfig

COMMON = ["--config", "--run-dir"]

FLAGS = {
    "prepare-data": [*COMMON, "--splits", "--synthetic"],
    "train": [*COMMON, "--train", "--dev", "--init-encoder"],
    "contrastive-train": [*COMMON, "--train", "--triplets"],
    "predict": [*COMMON, "--checkpoint", "--on", "--task"],
    "prompt-predict": [*COMMON, "--task", "--train", "--on", "--cache-dir"],
    "baseline": [*COMMON, "--task", "--train", "--on"],
    "mix": [*COMMON, "--validity", "--novelty"],
    "evaluate": [*COMMON, "--predictions", "--golds"],
    "seed-sweep": [*COMMON, "--train", "--dev", "--init-encoder"],
}

CONFIG_VALUES = [
    "data.train_path", "data.dev_path", "data.test_path", "data.column_map",
    "encoder.vocab_buckets", "encoder.embed_dim", "encoder.projection_dim", "encoder.seed",
    "profile",
    "train_overrides",
    "contrastive.margin", "contrastive.learning_rate", "contrastive.epochs",
    "contrastive.batch_size", "contrastive.distance",
    "prompting.provider", "prompting.endpoint", "prompting.api_key_env", "prompting.cache_dir",
    "prompting.model_id", "prompting.temperature", "prompting.frequency_penalty",
    "prompting.presence_penalty", "prompting.max_tokens", "prompting.parallelism",
    "prompting.requests_per_second",
    "baseline.c_validity", "baseline.c_novelty", "baseline.steps",
    "combined_metric",
    "seed",
    "sweep.runs",
]


def _config_values(value: object, prefix: str = "") -> list[str]:
    """Dotted names of the leaf fields of a config dataclass instance."""
    names = []
    for f in dataclasses.fields(value):
        child = getattr(value, f.name)
        if dataclasses.is_dataclass(child):
            names.extend(_config_values(child, f"{prefix}{f.name}."))
        else:
            names.append(prefix + f.name)
    return names


def test_settings_surface(capsys):
    (commands,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    flags = {
        name: [a.option_strings[0] for a in sub._actions if a.option_strings != ["-h", "--help"]]
        for name, sub in commands.choices.items()
    }
    assert flags == FLAGS
    assert sum(map(len, flags.values())) == 42
    assert _config_values(RunConfig()) == CONFIG_VALUES
    assert len(CONFIG_VALUES) == 32

    for name, names in FLAGS.items():
        with pytest.raises(SystemExit) as exit_info:
            main([name, "--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: valnov {name} ")
        for flag in names:
            assert flag in out
