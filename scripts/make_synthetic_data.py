"""Generate the bundled synthetic corpora plus a desk-scale run config.

Writes under --out (default runs/data):

    separable/          marker corpus, train + dev (recipes reuse dev as test)
    profile/            corpus mirroring the shared-task class balance,
                        with triplets.jsonl for out-of-domain pretraining
    config.json         mock completion provider (fills the replay cache)
    config-replay.json  same run, replay-only provider (reads that cache)

Every recipe script expects this layout, so run this one first.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from valnov.cli import main as valnov


def run(argv: list[str]) -> None:
    code = valnov(argv)
    if code != 0:
        sys.exit(code)


def base_config(out: Path, seed: int) -> dict:
    sep = out / "separable"
    return {
        "profile": "desk",
        "seed": seed,
        "encoder": {"vocab_buckets": 256, "embed_dim": 12, "projection_dim": 8},
        # default contrastive LR targets full-scale encoders; the tiny
        # desk encoder needs a larger step to move at all
        "contrastive": {"learning_rate": 1e-3},
        "data": {
            "train_path": str(sep / "instances-train.jsonl"),
            "dev_path": str(sep / "instances-dev.jsonl"),
            "test_path": str(sep / "instances-dev.jsonl"),
        },
        "prompting": {
            "provider": "mock",
            "cache_dir": str(out / "cache"),
            "parallelism": 4,
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="runs/data", help="data directory to create")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    out = Path(args.out).resolve()
    out.mkdir(parents=True, exist_ok=True)

    config = base_config(out, args.seed)
    config_path = out / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n")

    replay = json.loads(config_path.read_text())
    replay["prompting"]["provider"] = "replay-only"
    (out / "config-replay.json").write_text(json.dumps(replay, indent=2) + "\n")

    run(
        [
            "prepare-data",
            "--config", str(config_path),
            "--run-dir", str(out / "separable"),
            "--synthetic", "separable",
            "--splits", "train,dev",
        ]
    )
    run(
        [
            "prepare-data",
            "--config", str(config_path),
            "--run-dir", str(out / "profile"),
            "--synthetic", "profile",
            "--splits", "train,dev,test",
        ]
    )
    print(f"data + configs under {out}")


if __name__ == "__main__":
    main()
