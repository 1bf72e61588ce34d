"""Run configuration: one JSON-loadable document covering every stage.

Every field has a default, so an empty config is a valid desk-scale
setup; a resolved copy of whatever was loaded is echoed into each run
directory. This module composes and loads the sections; each stage's
module owns its own section and checks it: ``EncoderConfig`` in
``encoder``, ``ContrastiveConfig`` in ``contrastive``, ``TrainConfig`` in
``mtl`` and ``PromptSettings`` in ``prompting``.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .contrastive import ContrastiveConfig
from .corpus import DEFAULT_COLUMN_MAP
from .decode import check_ranges, decode
from .encoder import EncoderConfig
from .errors import ConfigurationError
from .evaluation import COMBINED_METRICS, DEFAULT_COMBINED_METRIC
from .fsutil import read_json
from .mtl import TRAIN_PROFILES, TrainConfig
from .prompting import PromptSettings


@dataclass(frozen=True)
class DataSettings:
    train_path: str = "data/train.csv"
    dev_path: str = "data/dev.csv"
    test_path: str = "data/test.csv"
    column_map: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        roles = [*DEFAULT_COLUMN_MAP, "id"]
        unknown = sorted(set(self.column_map) - set(roles))
        if unknown:
            raise ConfigurationError(
                f"column_map.{unknown[0]} is not a column role; "
                f"the roles are {', '.join(roles)}"
            )


@dataclass(frozen=True)
class BaselineSettings:
    c_validity: float = field(default=0.09, metadata={"gt": 0})
    c_novelty: float = field(default=4.7, metadata={"gt": 0})
    steps: int | None = field(default=None, metadata={"min": 1})

    __post_init__ = check_ranges


@dataclass(frozen=True)
class SweepSettings:
    runs: int = field(default=3, metadata={"min": 2})  # a seed summary needs 2 runs

    __post_init__ = check_ranges


@dataclass(frozen=True)
class RunConfig:
    data: DataSettings = field(default_factory=DataSettings)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    profile: str = field(default="desk", metadata={"one_of": TRAIN_PROFILES})
    train_overrides: dict[str, Any] = field(default_factory=dict)
    contrastive: ContrastiveConfig = field(default_factory=ContrastiveConfig)
    prompting: PromptSettings = field(default_factory=PromptSettings)
    baseline: BaselineSettings = field(default_factory=BaselineSettings)
    combined_metric: str = field(
        default=DEFAULT_COMBINED_METRIC, metadata={"one_of": COMBINED_METRICS}
    )
    seed: int = field(default=0, metadata={"min": 0})
    sweep: SweepSettings = field(default_factory=SweepSettings)

    def __post_init__(self):
        check_ranges(self)
        # the run's seed draws the encoder too, so a sweep redraws it
        object.__setattr__(self, "encoder", dataclasses.replace(self.encoder, seed=self.seed))

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
    data = read_json(path)
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: top level must be an object")
    try:  # a bad type, value, override or profile fails here, not mid-stage
        config = decode(RunConfig, data, "config")
        if data.get("encoder", {}).get("seed", config.seed) != config.seed:
            raise ConfigurationError(
                "config.encoder.seed has no effect: a run's seed is the top-level seed"
            )
        config.train_config()
    except (TypeError, ConfigurationError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
    return config


def resolved_config_json(config: RunConfig) -> str:
    return json.dumps(dataclasses.asdict(config), indent=2, sort_keys=True)
