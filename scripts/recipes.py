"""The five paper systems as chains of ``valnov`` stages, on synthetic data.

    python scripts/recipes.py prepare [--out runs/data] [--seed 0]
    python scripts/recipes.py run NAME [--data runs/data] [--workdir runs/NAME] [--replay]

``prepare`` writes under --out:

    separable/          marker corpus, train + dev (recipes reuse dev as test)
    profile/            corpus mirroring the shared-task class balance,
                        with triplets.jsonl for out-of-domain pretraining
    config.json         mock completion provider (fills the replay cache)
    config-replay.json  same run, replay-only provider (reads that cache)

``run`` runs one recipe into --workdir and prints the combined F1 of
each ``evaluate`` stage; ``--replay`` uses config-replay.json, so
prompting is served from the cache an earlier run filled, or fails on a
miss. The mock provider answers every prompt alike: its scores check
the plumbing only.
"""

import argparse
import json
import sys
from pathlib import Path

from valnov.cli import main as valnov
from valnov.evaluation import load_report

# (subcommand, run dir under the work dir {wd}, extra argv); {data} is the prepared data
Stage = tuple[str, str, list[str]]


def _evaluate(source: str, out: str = "eval") -> Stage:
    return ("evaluate", out, ["--predictions", f"{{wd}}/{source}/predictions.csv"])


def _train_predict_evaluate(tag: str, *train_args: str) -> list[Stage]:
    checkpoint = f"{{wd}}/{tag}/mtl/checkpoint.json"
    return [("train", f"{tag}/mtl", list(train_args)),
            ("predict", f"{tag}/predict", ["--checkpoint", checkpoint]),
            _evaluate(f"{tag}/predict", f"{tag}/eval")]


MIX: Stage = ("mix", "mix", ["--validity", "{wd}/validity/predictions.csv",
                             "--novelty", "{wd}/novelty/predictions.csv"])

PREPARE: list[Stage] = [
    ("prepare-data", "separable", ["--synthetic", "separable", "--splits", "train,dev"]),
    ("prepare-data", "profile", ["--synthetic", "profile", "--splits", "train,dev,test"]),
]

RECIPES: dict[str, tuple[str, list[Stage]]] = {
    "recipe1": ("few-shot prompting for both tasks, mixed into one file", [
        ("prompt-predict", "validity", ["--task", "validity"]),
        ("prompt-predict", "novelty", ["--task", "novelty"]),
        MIX,
        _evaluate("mix"),
    ]),
    "recipe2": ("contrastive encoder pretraining, then multi-task training from it", [
        ("contrastive-train", "contrastive", []),
        ("train", "mtl", ["--init-encoder", "{wd}/contrastive/encoder-checkpoint.json"]),
        ("predict", "predict", ["--checkpoint", "{wd}/mtl/checkpoint.json"]),
        _evaluate("predict"),
    ]),
    "recipe3": ("prompting for validity, the multi-task model for novelty, mixed", [
        ("train", "mtl", []),
        ("predict", "novelty", ["--checkpoint", "{wd}/mtl/checkpoint.json", "--task", "novelty"]),
        ("prompt-predict", "validity", ["--task", "validity"]),
        MIX,
        _evaluate("mix"),
    ]),
    # the pretraining triplets share no topics with the fine-tuning corpus,
    # so the gap between the scratch and transfer scores is encoder transfer
    "recipe4": ("an encoder pretrained on profile triplets, fine-tuned against scratch", [
        ("contrastive-train", "pretrain", ["--triplets", "{data}/profile/triplets.jsonl"]),
        *_train_predict_evaluate("scratch"),
        *_train_predict_evaluate(
            "transfer", "--init-encoder", "{wd}/pretrain/encoder-checkpoint.json"),
    ]),
    "recipe5": ("the TF-IDF + linear SVM baseline on both tasks", [
        ("baseline", "svm", []),
        _evaluate("svm"),
    ]),
}


def run_stages(stages: list[Stage], config: Path, wd: Path, data: Path) -> None:
    """Run each stage into ``wd``; exit with the first nonzero stage code."""
    for command, run_dir, extra in stages:
        argv = [command, "--config", str(config), "--run-dir", str(wd / run_dir)]
        code = valnov(argv + [arg.format(wd=wd, data=data) for arg in extra])
        if code != 0:
            sys.exit(code)


def prepare(out: Path, seed: int) -> None:
    sep = out / "separable"
    config = {
        "profile": "desk",
        "seed": seed,
        "encoder": {"vocab_buckets": 256, "embed_dim": 12, "projection_dim": 8},
        "data": {"train_path": str(sep / "instances-train.jsonl"),
                 "dev_path": str(sep / "instances-dev.jsonl"),
                 "test_path": str(sep / "instances-dev.jsonl")},
        "prompting": {"provider": "mock", "cache_dir": str(out / "cache"), "parallelism": 4},
    }
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(config, indent=2) + "\n")
    config["prompting"]["provider"] = "replay-only"
    (out / "config-replay.json").write_text(json.dumps(config, indent=2) + "\n")
    run_stages(PREPARE, out / "config.json", out, out)
    print(f"data + configs under {out}")


def run(name: str, data: Path, wd: Path, replay: bool) -> None:
    stages = RECIPES[name][1]
    run_stages(stages, data / ("config-replay.json" if replay else "config.json"), wd, data)
    for command, run_dir, _ in stages:
        if command == "evaluate":
            report = load_report(wd / run_dir / "report.json")
            print(f"{name} {run_dir}: combined F1 {report.combined:.4f}")


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    p = commands.add_parser("prepare", help="write the synthetic corpora and run configs")
    p.add_argument("--out", default="runs/data", help="data directory to create")
    p.add_argument("--seed", type=int, default=0)
    p = commands.add_parser("run", help="run one recipe's stages")
    p.add_argument("name", choices=sorted(RECIPES), metavar="NAME",
                   help="; ".join(f"{k}: {summary}" for k, (summary, _) in RECIPES.items()))
    p.add_argument("--data", default="runs/data", help="prepare output")
    p.add_argument("--workdir", default=None, help="output root (default runs/NAME)")
    p.add_argument("--replay", action="store_true",
                   help="serve every completion from the cache; error on any miss")
    args = parser.parse_args(argv)

    if args.command == "prepare":
        prepare(Path(args.out).resolve(), args.seed)
    else:
        wd = Path(args.workdir or f"runs/{args.name}").resolve()
        run(args.name, Path(args.data).resolve(), wd, args.replay)


if __name__ == "__main__":
    main()
