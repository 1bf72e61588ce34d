"""The three recipe chains the benchmark runs, with their inputs and checks.

Each workload writes its inputs and run configs once (``prepare``), then
describes one iteration of its chain as CLI stages, exactly as the
``scripts/recipe*.py`` chains call ``valnov.cli.main``. Every config sets
``prompting.parallelism`` to 1: the load is one closed-loop client in one
process, and the stock synthetic config's four workers would exceed the
two cores the benchmark is sized for.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Callable

import gen

Stage = tuple[str, list[str]]

# The profile corpus carries no textual signal for validity, so the joint
# four-class score swings by a fifth from seed to seed; the mean of the two
# per-task macro F1s moves a few percent and still changes with any
# changed prediction.
COMBINED_METRIC = "task-mean-macro-f1"


def _write_config(path: Path, config: dict) -> str:
    path.write_text(json.dumps(config, indent=2) + "\n")
    return str(path)


class Workload:
    name = ""
    # stage labels summed into hot_stage_s
    hot: tuple[str, ...] = ()
    # per-layer stage timings: metric -> stage labels
    stage_metrics: dict[str, tuple[str, ...]] = {}
    # prediction files (relative to the iteration directory) that must
    # be byte-identical from one iteration to the next
    outputs: tuple[str, ...] = ()
    report = "eval/report.json"
    parallelism = 1
    # pseudo-word vocabulary of benchmark-generated inputs, None otherwise
    generator_vocabulary: int | None = None

    def prepare(
        self, data: Path, seed: int, run: Callable[[str, list[str]], float]
    ) -> dict[str, Path]:
        """Write inputs and configs under ``data``; return the instance
        file of each split. ``run`` executes one CLI stage."""
        raise NotImplementedError

    def stages(self, it: Path) -> list[Stage]:
        raise NotImplementedError

    def after_stage(self, label: str, it: Path) -> None:
        """Bookkeeping between stages, outside every timer."""

    def checks(self, it: Path) -> list[tuple[str, bool]]:
        """Workload-specific correctness checks on a finished iteration."""
        return []


class MtlProfile(Workload):
    """Recipe 2 on the paper-sized profile corpus."""

    name = "mtl-profile"
    hot = ("train",)
    stage_metrics = {"stage.train_s": ("train",)}
    outputs = ("predict/predictions.csv",)

    def prepare(self, data, seed, run):
        corpus = data / "profile"
        self.config = _write_config(
            data / "config.json",
            {
                "profile": "desk",
                "seed": seed,
                "combined_metric": COMBINED_METRIC,
                # the stock synthetic config's contrastive step size
                "contrastive": {"learning_rate": 1e-3},
                "data": {
                    "train_path": str(corpus / "instances-train.jsonl"),
                    "dev_path": str(corpus / "instances-dev.jsonl"),
                    "test_path": str(corpus / "instances-test.jsonl"),
                },
                "prompting": {"provider": "mock", "parallelism": self.parallelism},
            },
        )
        run(
            "prepare-data",
            ["prepare-data", "--config", self.config, "--run-dir", str(corpus),
             "--synthetic", "profile", "--splits", "train,dev,test"],
        )
        return {split: corpus / f"instances-{split}.jsonl" for split in ("train", "dev", "test")}

    def stages(self, it):
        c = self.config
        return [
            ("contrastive-train",
             ["contrastive-train", "--config", c, "--run-dir", f"{it}/contrastive"]),
            ("train",
             ["train", "--config", c, "--run-dir", f"{it}/mtl",
              "--init-encoder", f"{it}/contrastive/encoder-checkpoint.json"]),
            ("predict",
             ["predict", "--config", c, "--run-dir", f"{it}/predict",
              "--checkpoint", f"{it}/mtl/checkpoint.json", "--task", "both"]),
            ("evaluate",
             ["evaluate", "--config", c, "--run-dir", f"{it}/eval",
              "--predictions", f"{it}/predict/predictions.csv"]),
        ]


class SvmLexical(Workload):
    """Recipe 5 on a generated corpus with a wide Zipfian vocabulary."""

    name = "svm-lexical"
    hot = ("baseline",)
    stage_metrics = {"stage.baseline_s": ("baseline",)}
    outputs = ("svm/predictions.csv",)
    sizes = {"train": 1000, "test": 520}
    generator_vocabulary = gen.VOCAB_SIZE

    def prepare(self, data, seed, run):
        paths = _generate(data, seed, self.sizes)
        self.config = _write_config(
            data / "config.json",
            {
                "seed": seed,
                "combined_metric": COMBINED_METRIC,
                "data": {"train_path": str(paths["train"]), "dev_path": str(paths["test"]),
                         "test_path": str(paths["test"])},
                "prompting": {"provider": "mock", "parallelism": self.parallelism},
            },
        )
        return paths

    def stages(self, it):
        c = self.config
        return [
            ("baseline",
             ["baseline", "--config", c, "--run-dir", f"{it}/svm", "--task", "both"]),
            ("evaluate",
             ["evaluate", "--config", c, "--run-dir", f"{it}/eval",
              "--predictions", f"{it}/svm/predictions.csv"]),
        ]


class PromptReplay(Workload):
    """Recipe 1 twice per iteration: a fill pass with the mock provider
    into an empty cache, then a replay-only pass over the same cache."""

    name = "prompt-replay"
    hot = ("fill-validity", "fill-novelty")
    stage_metrics = {
        "stage.prompt_fill_s": ("fill-validity", "fill-novelty"),
        "stage.prompt_replay_s": ("replay-validity", "replay-novelty"),
    }
    outputs = (
        "fill-validity/predictions.csv",
        "fill-novelty/predictions.csv",
        "mix/predictions.csv",
    )
    sizes = {"train": 200, "test": 2000}
    generator_vocabulary = gen.VOCAB_SIZE

    def prepare(self, data, seed, run):
        paths = _generate(data, seed, self.sizes)
        config = {
            "seed": seed,
            "combined_metric": COMBINED_METRIC,
            "data": {"train_path": str(paths["train"]), "dev_path": str(paths["test"]),
                     "test_path": str(paths["test"])},
            "prompting": {"provider": "mock", "parallelism": self.parallelism},
        }
        self.fill_config = _write_config(data / "config.json", config)
        config["prompting"]["provider"] = "replay-only"
        self.replay_config = _write_config(data / "config-replay.json", config)
        return paths

    def stages(self, it):
        self.records: dict[str, int] = {}  # cache records after each pass
        stages = []
        for phase, config in (("fill", self.fill_config), ("replay", self.replay_config)):
            for task in ("validity", "novelty"):
                stages.append(
                    (f"{phase}-{task}",
                     ["prompt-predict", "--config", config, "--run-dir", f"{it}/{phase}-{task}",
                      "--task", task, "--cache-dir", f"{it}/cache"])
                )
        c = self.replay_config
        stages += [
            ("mix",
             ["mix", "--config", c, "--run-dir", f"{it}/mix",
              "--validity", f"{it}/replay-validity/predictions.csv",
              "--novelty", f"{it}/replay-novelty/predictions.csv"]),
            ("evaluate",
             ["evaluate", "--config", c, "--run-dir", f"{it}/eval",
              "--predictions", f"{it}/mix/predictions.csv"]),
        ]
        return stages

    def after_stage(self, label, it):
        if label in ("fill-novelty", "replay-novelty"):
            self.records[label] = len(os.listdir(it / "cache"))

    def checks(self, it):
        out = []
        for task in ("validity", "novelty"):
            fill = (it / f"fill-{task}" / "predictions.csv").read_bytes()
            replay = (it / f"replay-{task}" / "predictions.csv").read_bytes()
            out.append((f"replay {task} predictions equal the fill pass's", fill == replay))
        # replay-only raises on a miss, so a clean exit already means zero
        # misses; the record count confirms the replay pass wrote nothing
        out.append(
            ("replay pass adds no cache record",
             self.records.get("fill-novelty") == self.records.get("replay-novelty")
             == 2 * self.sizes["test"])
        )
        return out


WORKLOADS = {w.name: w for w in (MtlProfile, SvmLexical, PromptReplay)}


def _generate(data: Path, seed: int, sizes: dict[str, int]) -> dict[str, Path]:
    paths = {}
    for split, records in gen.generate(seed, sizes).items():
        paths[split] = data / f"{split}.jsonl"
        gen.write_jsonl(records, paths[split])
    return paths
