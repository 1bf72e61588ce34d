"""Run configuration: one JSON-loadable document covering every stage.

Every field has a default, so an empty config is a valid desk-scale
setup; a resolved copy of whatever was loaded is echoed into each run
directory.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .contrastive import ContrastiveConfig
from .decode import decode
from .encoder import EncoderConfig
from .errors import ConfigurationError, ParseError
from .evaluation import DEFAULT_COMBINED_METRIC
from .mtl import TrainConfig


@dataclass(frozen=True)
class DataSettings:
    train_path: str = "data/train.csv"
    dev_path: str = "data/dev.csv"
    test_path: str = "data/test.csv"
    column_map: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class PromptSettings:
    provider: str = "replay-only"
    endpoint: str | None = None
    api_key_env: str = "COMPLETION_API_KEY"
    cache_dir: str = "cache/completions"
    model_id: str = "text-davinci-002"
    temperature: float = 0.0
    frequency_penalty: float = 0.0
    presence_penalty: float = 0.0
    max_tokens: int = 4
    parallelism: int = 1
    requests_per_second: float | None = None

    def __post_init__(self):
        if self.parallelism < 1:
            raise ConfigurationError("prompting.parallelism must be >= 1")
        if self.requests_per_second is not None and self.requests_per_second <= 0:
            raise ConfigurationError("prompting.requests_per_second must be null or > 0")

    def decoding(self) -> dict[str, Any]:
        return {
            "model_id": self.model_id,
            "temperature": self.temperature,
            "frequency_penalty": self.frequency_penalty,
            "presence_penalty": self.presence_penalty,
            "max_tokens": self.max_tokens,
        }


@dataclass(frozen=True)
class BaselineSettings:
    c_validity: float = 0.09
    c_novelty: float = 4.7
    steps: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.steps is not None and self.steps < 1:
            raise ConfigurationError("baseline.steps must be null or >= 1")


@dataclass(frozen=True)
class SweepSettings:
    runs: int = 3

    def __post_init__(self):
        if self.runs < 2:
            raise ConfigurationError(
                "sweep.runs must be >= 2: a seed summary needs at least 2 runs"
            )


@dataclass(frozen=True)
class RunConfig:
    data: DataSettings = field(default_factory=DataSettings)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    profile: str = "clteaml-2"
    train_overrides: dict[str, Any] = field(default_factory=dict)
    contrastive: ContrastiveConfig = field(default_factory=ContrastiveConfig)
    prompting: PromptSettings = field(default_factory=PromptSettings)
    baseline: BaselineSettings = field(default_factory=BaselineSettings)
    combined_metric: str = DEFAULT_COMBINED_METRIC
    seed: int = 0
    sweep: SweepSettings = field(default_factory=SweepSettings)

    def train_config(self) -> TrainConfig:
        """The profile's TrainConfig with ``train_overrides`` decoded onto it."""
        for key in ("seed", "combined_metric"):
            if key in self.train_overrides:
                raise ConfigurationError(
                    f"config.train_overrides.{key} has no effect: "
                    f"a run's {key} is the top-level {key}"
                )
        overrides = {"combined_metric": self.combined_metric, **self.train_overrides,
                     "seed": self.seed}
        try:
            typed = decode(TrainConfig, overrides, "config.train_overrides")
        except TypeError as exc:
            raise ConfigurationError(str(exc)) from exc
        return TrainConfig.from_profile(self.profile, **{k: getattr(typed, k) for k in overrides})


def load_config(path: str | Path | None = None) -> RunConfig:
    """RunConfig from a JSON file; None loads all defaults."""
    if path is None:
        return RunConfig()
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: top level must be an object")
    try:
        config = decode(RunConfig, data, "config")
    except TypeError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
    config.train_config()  # a bad override or profile fails here, not mid-stage
    return config


def resolved_config_json(config: RunConfig) -> str:
    return json.dumps(dataclasses.asdict(config), indent=2, sort_keys=True)
