"""Command-line pipeline driver.

Each subcommand runs one pipeline stage into a run directory that
records the resolved config, sha256 digests of its inputs, its outputs,
and a manifest. Errors exit nonzero with a single
``error: <category>: <message>`` line on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

from . import baseline as baseline_mod
from . import mtl
from .config import RunConfig, load_config, resolved_config_json
from .contrastive import constraint_satisfaction, contrastive_train
from .corpus import (
    ArgumentInstance,
    Split,
    Task,
    class_distribution,
    extract_triplets,
    load_corpus,
    load_instances_jsonl,
    load_triplets_jsonl,
    save_instances_jsonl,
    save_triplets_jsonl,
    topic_overlap,
    write_instances_csv,
)
from .encoder import ReferenceEncoder
from .errors import ConfigurationError, UsageError, ValnovError
from .evaluation import (
    EvalReport,
    evaluate,
    load_report,
    render_text,
    report_to_json,
    seed_summary,
)
from .fsutil import atomic_write_text, sha256_file
from .predictions import Prediction, load_predictions, mix, save_predictions, source_label
from .prompting import ReplayCache, make_provider, prompt_predict, select_few_shot
from .synthetic import make_profile_splits, make_separable_corpus

# OS errors reported as ``usage``: a missing or unreadable input, or a path
# naming the wrong kind of thing (--config a directory, --run-dir a file)
_USAGE_ERRORS = (
    FileNotFoundError, PermissionError, IsADirectoryError, NotADirectoryError, FileExistsError
)


class _RunDir:
    """Collects inputs/outputs of one stage and writes the manifest."""

    def __init__(self, path: Path, command: str, config: RunConfig):
        self.path = path
        self.command = command
        self.config = config
        self.inputs: dict[str, dict[str, str]] = {}
        self.output_names: list[str] = []
        path.mkdir(parents=True, exist_ok=True)

    def record_input(self, label: str, path: str | Path) -> Path:
        """``path``, checked to be a file, with its digest recorded as ``label``."""
        path = _require_file(path)
        self.inputs[label] = {"path": str(path), "sha256": sha256_file(path)}
        return path

    def instances(self, label: str, path: str | None, split: Split) -> list[ArgumentInstance]:
        """Instances from ``path``, or from the config's file for ``split``."""
        data = self.config.data
        default = {Split.TRAIN: data.train_path, Split.DEV: data.dev_path,
                   Split.TEST: data.test_path}[split]
        path = self.record_input(label, path or default)
        if path.suffix == ".jsonl":
            return load_instances_jsonl(path)
        return load_corpus(path, column_map=data.column_map or None, split=split)

    def write(self, name: str, text: str) -> None:
        atomic_write_text(self.path / name, text)
        self.track_output(name)

    def save_predictions(self, preds: Sequence[Prediction]) -> None:
        save_predictions(preds, self.path / "predictions.csv")
        self.track_output("predictions.csv")

    def track_output(self, name: str) -> None:
        if name not in self.output_names:
            self.output_names.append(name)

    def finalize(self) -> None:
        config_text = resolved_config_json(self.config)
        self.write("config.json", config_text)
        manifest = {
            "command": self.command,
            "inputs": self.inputs,
            "outputs": {
                name: sha256_file(self.path / name) for name in sorted(self.output_names)
            },
            "created": datetime.now(timezone.utc).isoformat(),
        }
        atomic_write_text(
            self.path / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True)
        )


@contextlib.contextmanager
def _removed_on_error(path: Path):
    """Run the block; if it raises, remove ``path`` and those of its parents
    that did not exist before it, as far as they are empty."""
    created = [p for p in (path, *path.parents) if not p.exists()]
    try:
        yield
    except Exception:
        for p in created:  # innermost first; rmdir never deletes a file
            with contextlib.suppress(OSError):
                os.rmdir(p)
        raise


def _require_file(path: str | Path) -> Path:
    path = Path(path)
    if path.is_dir():
        raise IsADirectoryError(f"not a file: {path}")
    if not path.is_file():
        raise FileNotFoundError(f"input file not found: {path}")
    return path


# --- subcommands: each fills the run directory that main() finalizes ---


def cmd_prepare_data(args: argparse.Namespace, run: _RunDir) -> None:
    if args.synthetic is None:
        splits = args.splits or Split
        per_split = {split: run.instances(split.value, None, split) for split in splits}
    else:
        if args.synthetic == "profile":
            generated = make_profile_splits(seed=run.config.seed)
        else:
            generated = dict(zip((Split.TRAIN, Split.DEV), make_separable_corpus()))
        for split in args.splits or ():
            if split not in generated:
                raise UsageError(f"--synthetic {args.synthetic} makes no {split.value} split")
        per_split = {split: generated[split] for split in args.splits or generated}
        for split, instances in per_split.items():
            csv_path = write_instances_csv(instances, run.path / f"{split.value}.csv")
            run.track_output(csv_path.name)

    stats: dict[str, object] = {"splits": {}}
    for split, instances in per_split.items():
        save_instances_jsonl(instances, run.path / f"instances-{split.value}.jsonl")
        run.track_output(f"instances-{split.value}.jsonl")
        stats["splits"][split.value] = {
            "size": len(instances),
            "class_distribution": list(class_distribution(instances).counts),
            "topics": len({inst.topic.strip() for inst in instances}),
        }
    overlaps = {}
    named = list(per_split.items())
    for i, (split_a, insts_a) in enumerate(named):
        for split_b, insts_b in named[i + 1 :]:
            overlaps[f"{split_a.value}-{split_b.value}"] = topic_overlap(insts_a, insts_b)
    stats["topic_overlaps"] = overlaps

    if Split.TRAIN in per_split:
        triplets = extract_triplets(per_split[Split.TRAIN])
        save_triplets_jsonl(triplets, run.path / "triplets.jsonl")
        run.track_output("triplets.jsonl")
        stats["train_triplets"] = len(triplets)

    run.write("stats.json", json.dumps(stats, indent=2, sort_keys=True))
    print(json.dumps(stats, sort_keys=True))


def _train_once(
    run: _RunDir,
    train_set: Sequence[ArgumentInstance],
    dev_set: Sequence[ArgumentInstance],
    init_encoder: ReferenceEncoder | None,
) -> mtl.TrainResult:
    """Train ``run.config`` into ``run``: the checkpoint plus the loss and
    dev-F1 series. Training starts from a copy of ``init_encoder``'s
    parameters, which training would otherwise update in place."""
    config = run.config
    train_config = config.train_config()
    model = mtl.MtlModel(config.encoder, seed=config.seed)
    if init_encoder is not None:
        model.restore({f"encoder.{k}": v for k, v in init_encoder.parameters().items()})
    result = mtl.train(model, train_set, dev_set, train_config)
    mtl.save_checkpoint(result, train_config, run.path / "checkpoint.json")
    run.track_output("checkpoint.json")
    history = result.history
    run.write("train-loss.dat", "".join(f"{h.epoch} {h.train_loss}\n" for h in history))
    run.write(
        "dev-combined-f1.dat", "".join(f"{h.epoch} {h.dev_combined_f1}\n" for h in history)
    )
    return result


def _init_encoder(run: _RunDir, args: argparse.Namespace) -> ReferenceEncoder | None:
    """The encoder of the recorded ``--init-encoder`` checkpoint, if one was
    given; its config must be the run's ``encoder``."""
    if args.init_encoder is None:
        return None
    path = run.record_input("init-encoder", args.init_encoder)
    encoder, _ = mtl.load_encoder_checkpoint(path)
    if encoder.config != run.config.encoder:
        raise ConfigurationError(
            f"{path}: encoder_config {dataclasses.asdict(encoder.config)} differs from "
            f"config.encoder {dataclasses.asdict(run.config.encoder)}"
        )
    return encoder


def cmd_train(args: argparse.Namespace, run: _RunDir) -> None:
    train_set = run.instances("train", args.train, Split.TRAIN)
    dev_set = run.instances("dev", args.dev, Split.DEV)
    result = _train_once(run, train_set, dev_set, _init_encoder(run, args))
    best = result.history[result.best_epoch]
    print(
        f"best epoch {best.epoch}: dev combined F1 {best.dev_combined_f1:.4f} "
        f"(train loss {best.train_loss:.4f})"
    )


def cmd_contrastive_train(args: argparse.Namespace, run: _RunDir) -> None:
    config = run.config
    if args.triplets and args.train:
        raise UsageError("give --triplets or --train, not both")
    if args.triplets:
        triplets = load_triplets_jsonl(run.record_input("triplets", args.triplets))
    else:
        triplets = extract_triplets(run.instances("train", args.train, Split.TRAIN))

    encoder = ReferenceEncoder(config.encoder)
    result = contrastive_train(encoder, triplets, config.contrastive)
    satisfied = constraint_satisfaction(
        result.encoder, triplets, dist=config.contrastive.distance
    )
    mtl.save_encoder_checkpoint(
        result.encoder, result.epoch_losses, run.path / "encoder-checkpoint.json"
    )
    run.track_output("encoder-checkpoint.json")
    run.write(
        "contrastive-loss.dat",
        "".join(f"{i} {loss}\n" for i, loss in enumerate(result.epoch_losses)),
    )
    run.write(
        "contrastive-stats.json",
        json.dumps(
            {
                "triplets": len(triplets),
                "constraint_satisfaction": satisfied,
                "epoch_losses": result.epoch_losses,
            },
            indent=2,
        ),
    )
    print(f"triplet constraints satisfied: {satisfied:.3f} over {len(triplets)} triplets")


def _tasks_from_arg(value: str) -> list[Task]:
    if value == "both":
        return [Task.VALIDITY, Task.NOVELTY]
    return [Task(value)]


def cmd_predict(args: argparse.Namespace, run: _RunDir) -> None:
    model, _, _, _ = mtl.load_checkpoint(run.record_input("checkpoint", args.checkpoint))
    instances = run.instances("instances", args.on, Split.TEST)
    tasks = _tasks_from_arg(args.task)
    predictions = [p for p in model.predict_both(instances) if p.task in tasks]
    run.save_predictions(predictions)
    print(f"wrote {len(predictions)} predictions from {model.name}")


def cmd_prompt_predict(args: argparse.Namespace, run: _RunDir) -> None:
    task = Task(args.task)
    train_set = run.instances("train", args.train, Split.TRAIN)
    targets = run.instances("targets", args.on, Split.TEST)

    if args.cache_dir is not None:
        prompting = dataclasses.replace(run.config.prompting, cache_dir=args.cache_dir)
        run.config = dataclasses.replace(run.config, prompting=prompting)
    settings = run.config.prompting
    provider = make_provider(settings, os.environ.get(settings.api_key_env))
    cache = ReplayCache(settings.cache_dir)
    few_shot = select_few_shot(train_set, task)
    preds = prompt_predict(
        targets,
        few_shot,
        provider,
        cache,
        decoding=settings.decoding(),
        parallelism=settings.parallelism,
        requests_per_second=settings.requests_per_second,
    )
    run.save_predictions(preds)
    run.write(
        "few-shot.json",
        json.dumps(
            {
                "task": task.value,
                "example_ids": [ex.id for ex in few_shot.examples],
            },
            indent=2,
        ),
    )
    flagged = sum(1 for p in preds if p.flagged)
    print(f"wrote {len(targets)} {task.value} predictions ({flagged} flagged)")


def cmd_baseline(args: argparse.Namespace, run: _RunDir) -> None:
    settings = run.config.baseline
    train_set = run.instances("train", args.train, Split.TRAIN)
    targets = run.instances("targets", args.on, Split.TEST)

    tfidf, X, target_rows = baseline_mod.featurize(train_set, targets)
    fits = {}
    for task in _tasks_from_arg(args.task):
        key = f"c_{task.value}"
        try:
            fits[task] = baseline_mod.svm_train(
                X, baseline_mod.task_labels(train_set, task), dim=len(tfidf.vocabulary),
                C=getattr(settings, key), steps=settings.steps, seed=settings.seed,
            )
        except ConfigurationError as exc:  # C too large for the train set
            raise ConfigurationError(f"baseline.{key}: {exc}") from exc
    train_nnz = len(X.indices)
    del X  # free the train rows before the model file is encoded
    baseline_mod.save_baseline(
        run.path / "baseline-model.json", tfidf, {task: fit.model for task, fit in fits.items()}
    )
    run.track_output("baseline-model.json")
    all_predictions = []
    objectives = {}
    counters = {}
    for task, fit in fits.items():
        objectives[task.value] = fit.objective
        counters[task.value] = {
            "vocab": len(tfidf.vocabulary),
            "train_nnz": train_nnz,
            "steps": fit.steps,
            "violations": fit.violations,
        }
        all_predictions.extend(
            baseline_mod.predict_corpus(fit.model, target_rows, targets, task)
        )
    run.save_predictions(all_predictions)
    run.write(
        "baseline-stats.json",
        json.dumps({"objective": objectives, "counters": counters}, indent=2),
    )
    print(f"wrote {len(all_predictions)} svm predictions")


def cmd_mix(args: argparse.Namespace, run: _RunDir) -> None:
    mixed = mix(
        load_predictions(run.record_input("validity", args.validity)),
        load_predictions(run.record_input("novelty", args.novelty)),
    )
    run.save_predictions(mixed)
    print(
        f"mixed predictions: mix({source_label(mixed, Task.VALIDITY)},"
        f"{source_label(mixed, Task.NOVELTY)})"
    )


def cmd_evaluate(args: argparse.Namespace, run: _RunDir) -> None:
    preds = load_predictions(run.record_input("predictions", args.predictions))
    golds = run.instances("golds", args.golds, Split.TEST)
    tag = "+".join(sorted({p.source for p in preds}))
    report = evaluate(preds, golds, metric=run.config.combined_metric, source_tag=tag)
    run.write("report.json", report_to_json(report))
    text = render_text(report)
    run.write("report.txt", text)
    print(text, end="")


def cmd_report(args: argparse.Namespace) -> None:
    text = render_text(load_report(_require_file(args.report)))
    if args.out:
        atomic_write_text(args.out, text)
    print(text, end="")


def cmd_seed_sweep(args: argparse.Namespace, run: _RunDir) -> None:
    config = run.config
    train_set = run.instances("train", args.train, Split.TRAIN)
    dev_set = run.instances("dev", args.dev, Split.DEV)
    init_encoder = _init_encoder(run, args)

    seeds = list(range(config.seed, config.seed + config.sweep.runs))

    runs: list[tuple[int, list, EvalReport]] = []
    for seed in seeds:
        sub_path = run.path / f"seed-{seed}"
        with _removed_on_error(sub_path):
            sub = _RunDir(sub_path, "train", dataclasses.replace(config, seed=seed))
            sub.inputs.update(run.inputs)  # the parent's records: each file is hashed once
            result = _train_once(sub, train_set, dev_set, init_encoder)
            report = evaluate(
                result.model.predict_both(dev_set),
                dev_set,
                metric=config.combined_metric,
                source_tag=f"{result.model.name}(seed={seed})",
            )
            sub.write("report.json", report_to_json(report))
            sub.finalize()
        runs.append((seed, [h.as_tuple() for h in result.history], report))

    summary = seed_summary(runs)
    run.write(
        "seed-summary.json",
        json.dumps(
            {
                "seeds": seeds,
                "n_runs": summary.n_runs,
                "mean_combined_f1": summary.mean_combined_f1,
                "std_combined_f1": summary.std_combined_f1,
                "loss_envelope": summary.loss_envelope,
            },
            indent=2,
        ),
    )
    for idx, label in ((0, "min"), (1, "mean"), (2, "max")):
        run.write(
            f"loss-{label}.dat",
            "".join(f"{e} {row[idx]}\n" for e, row in enumerate(summary.loss_envelope)),
        )
    print(
        f"{summary.n_runs} runs: dev combined F1 "
        f"{summary.mean_combined_f1:.4f} +/- {summary.std_combined_f1:.4f}"
    )


# --- parser ---


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", default=None, help="JSON run config (defaults apply)")
    sub.add_argument("--run-dir", required=True, help="output directory for this stage")


def _splits(value: str) -> list[Split]:
    names = [s.strip() for s in value.split(",") if s.strip()]
    if not names or not set(names) <= {split.value for split in Split}:
        raise argparse.ArgumentTypeError(
            f"{value!r}: splits are comma-separated names from train, dev, test"
        )
    return [Split(name) for name in names]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="valnov",
        description="Argument validity/novelty pipeline: data, training, "
        "prompting, baseline, mixing, evaluation.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("prepare-data", help="load/generate corpora, emit stats")
    _add_common(p)
    p.add_argument("--splits", type=_splits, help="comma-separated (default: all the source has)")
    p.add_argument(
        "--synthetic",
        choices=["profile", "separable"],
        default=None,
        help="generate a bundled synthetic corpus instead of reading data files",
    )
    p.set_defaults(func=cmd_prepare_data)

    p = commands.add_parser("train", help="multi-task training with best-epoch selection")
    _add_common(p)
    p.add_argument("--train", default=None, help="override train file")
    p.add_argument("--dev", default=None, help="override dev file")
    p.add_argument("--init-encoder", default=None, help="encoder checkpoint to start from")
    p.set_defaults(func=cmd_train)

    p = commands.add_parser("contrastive-train", help="triplet-loss encoder pretraining")
    _add_common(p)
    p.add_argument("--train", default=None, help="instances to extract triplets from")
    p.add_argument("--triplets", default=None, help="pre-extracted triplets JSONL")
    p.set_defaults(func=cmd_contrastive_train)

    p = commands.add_parser("predict", help="classify with a trained checkpoint")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--on", default=None, help="instances file (default: test path)")
    p.add_argument("--task", choices=["validity", "novelty", "both"], default="both")
    p.set_defaults(func=cmd_predict)

    p = commands.add_parser("prompt-predict", help="few-shot completion classification")
    _add_common(p)
    p.add_argument("--task", choices=["validity", "novelty"], required=True)
    p.add_argument("--train", default=None, help="few-shot example pool")
    p.add_argument("--on", default=None, help="instances file (default: test path)")
    p.add_argument("--cache-dir", default=None, help="override replay cache directory")
    p.set_defaults(func=cmd_prompt_predict)

    p = commands.add_parser("baseline", help="TF-IDF + SVM baseline")
    _add_common(p)
    p.add_argument("--task", choices=["validity", "novelty", "both"], default="both")
    p.add_argument("--train", default=None)
    p.add_argument("--on", default=None)
    p.set_defaults(func=cmd_baseline)

    p = commands.add_parser("mix", help="validity from one file, novelty from another")
    _add_common(p)
    p.add_argument("--validity", required=True)
    p.add_argument("--novelty", required=True)
    p.set_defaults(func=cmd_mix)

    p = commands.add_parser("evaluate", help="score predictions against gold labels")
    _add_common(p)
    p.add_argument("--predictions", required=True)
    p.add_argument("--golds", default=None, help="gold instances (default: test path)")
    p.set_defaults(func=cmd_evaluate)

    p = commands.add_parser("report", help="render a saved report.json")
    p.add_argument("--report", required=True)
    p.add_argument("--out", default=None, help="also write the text table here")
    p.set_defaults(func=cmd_report)

    p = commands.add_parser("seed-sweep", help="train across seeds, aggregate variance")
    _add_common(p)
    p.add_argument("--train", default=None)
    p.add_argument("--dev", default=None)
    p.add_argument("--init-encoder", default=None)
    p.set_defaults(func=cmd_seed_sweep)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand. Every stage but ``report`` runs into its own
    run directory, whose config echo and manifest are written only when
    the stage succeeds. A stage that fails removes the directories it
    created for its run directory (and ``seed-sweep`` those of the sub-run
    that failed), as far as they are still empty."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            args.func(args)
        else:
            run_dir = Path(args.run_dir)
            with _removed_on_error(run_dir):
                run = _RunDir(run_dir, args.command, load_config(args.config))
                args.func(args, run)
                run.finalize()
    except (ValnovError, *_USAGE_ERRORS) as exc:
        category = exc.category if isinstance(exc, ValnovError) else "usage"
        print(f"error: {category}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
