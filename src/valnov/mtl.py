"""Shared-encoder multi-task classifier and its training loop.

One encoder feeds two binary heads (validity, novelty). Training
alternates tasks at random per batch, accumulates gradients, applies
decoupled-weight-decay Adam, and keeps the checkpoint with the best
dev-set combined F1. No parameters are frozen: either task's gradients
flow through the whole encoder; the head that was not selected for a
step is left untouched by that step's update.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import ArgumentInstance, LabelValue, Task, mapped_value
from .decode import decode
from .encoder import EncoderConfig, ReferenceEncoder
from .errors import ConfigurationError, SchemaError, TrainingError
from .evaluation import COMBINED_METRICS, DEFAULT_COMBINED_METRIC, combined_score
from .fsutil import atomic_write_text, pack_params, read_json, unpack_params
from .optim import AdamW
from .predictions import Prediction

# Profile name -> (learning rate, epochs, gradient accumulation). The two
# submission profiles come from the published hyperparameter table; "desk"
# is scaled for the from-scratch reference encoder.
TRAIN_PROFILES: dict[str, tuple[float, int, int]] = {
    "clteaml-2": (1e-5, 9, 1),
    "clteaml-4": (5e-6, 6, 4),
    "desk": (5e-2, 10, 1),
}


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-5
    epochs: int = 9
    grad_accumulation: int = 1
    batch_size: int = 16
    weight_decay: float = 0.01
    seed: int = 0
    task_probabilities: tuple[float, float] = (0.5, 0.5)
    combined_metric: str = DEFAULT_COMBINED_METRIC

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ConfigurationError("learning_rate must be >= 0")
        if self.epochs < 1 or self.grad_accumulation < 1 or self.batch_size < 1:
            raise ConfigurationError("epochs, grad_accumulation, batch_size must be >= 1")
        if self.weight_decay < 0:
            raise ConfigurationError("weight_decay must be >= 0")
        probabilities = self.task_probabilities
        if len(probabilities) != 2 or min(probabilities) < 0 or abs(sum(probabilities) - 1.0) > 1e-9:
            raise ConfigurationError(
                f"task probabilities must be a non-negative pair summing to 1, got {probabilities}"
            )
        if self.combined_metric not in COMBINED_METRICS:
            raise ConfigurationError(
                f"combined_metric {self.combined_metric!r} is unknown; "
                f"known: {sorted(COMBINED_METRICS)}"
            )

    @classmethod
    def from_profile(cls, name: str, **overrides) -> "TrainConfig":
        if name not in TRAIN_PROFILES:
            raise ConfigurationError(
                f"unknown training profile {name!r}; known: {sorted(TRAIN_PROFILES)}"
            )
        lr, epochs, grad_acc = TRAIN_PROFILES[name]
        base = dict(learning_rate=lr, epochs=epochs, grad_accumulation=grad_acc)
        base.update(overrides)
        return cls(**base)


def sample_task(rng: np.random.Generator, probabilities: Sequence[float] = (0.5, 0.5)) -> Task:
    """Bernoulli draw between the two tasks (``TrainConfig`` checks the probabilities)."""
    return Task.VALIDITY if rng.random() < probabilities[0] else Task.NOVELTY


def instance_text(instance: ArgumentInstance) -> str:
    """Single encoder input string; mirrors the prompt block structure."""
    return (
        f"topic: {instance.topic} premise: {instance.premise} "
        f"conclusion: {instance.conclusion}"
    )


class MtlModel:
    """Reference encoder plus one affine head of 2 logits per task.

    Logit order within a pair is (negative, positive), matching the
    confusion-matrix orientation.
    """

    def __init__(
        self,
        encoder_config: EncoderConfig,
        seed: int = 0,
        name: str = "mtl",
        encoder: ReferenceEncoder | None = None,
    ):
        # a pre-trained encoder (e.g. from the contrastive stage) can be
        # passed in; it must match the declared config
        if encoder is not None and encoder.config != encoder_config:
            raise ConfigurationError("provided encoder does not match encoder_config")
        self.encoder = encoder if encoder is not None else ReferenceEncoder(encoder_config)
        self.name = name
        rng = np.random.default_rng(seed)
        dim = encoder_config.projection_dim
        self.heads: dict[Task, dict[str, np.ndarray]] = {
            Task.VALIDITY: {"w": rng.normal(0.0, 0.1, (2, dim)), "b": np.zeros(2)},
            Task.NOVELTY: {"w": rng.normal(0.0, 0.1, (2, dim)), "b": np.zeros(2)},
        }

    def parameters(self) -> dict[str, np.ndarray]:
        params = {f"encoder.{k}": v for k, v in self.encoder.parameters().items()}
        for task in (Task.VALIDITY, Task.NOVELTY):
            params[f"head.{task.value}.w"] = self.heads[task]["w"]
            params[f"head.{task.value}.b"] = self.heads[task]["b"]
        return params

    def snapshot(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.parameters().items()}

    def restore(self, snapshot: dict[str, np.ndarray]) -> None:
        live = self.parameters()
        for key, value in snapshot.items():
            live[key][...] = value

    def predict_both(self, instances: Sequence[ArgumentInstance]) -> list[Prediction]:
        """Validity then novelty predictions from one encoding pass; an
        exact logit tie resolves to negative."""
        embeddings = self.encoder.encode([instance_text(i) for i in instances])
        out = []
        for task in (Task.VALIDITY, Task.NOVELTY):
            head = self.heads[task]
            for inst, pair in zip(instances, embeddings @ head["w"].T + head["b"]):
                value = LabelValue.POSITIVE if pair[1] > pair[0] else LabelValue.NEGATIVE
                out.append(
                    Prediction(instance_id=inst.id, task=task, value=value, source=self.name)
                )
        return out


def cross_entropy_and_grad(
    logits: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean two-class cross-entropy over the batch and dL/dlogits."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    log_probs = shifted - np.log(exp.sum(axis=1, keepdims=True))
    loss = -log_probs[np.arange(n), targets].mean()
    d_logits = probs
    d_logits[np.arange(n), targets] -= 1.0
    return float(loss), d_logits / n


def task_targets(instances: Sequence[ArgumentInstance], task: Task) -> np.ndarray:
    """1 where the mapped label of ``task`` is positive, else 0."""
    return np.array(
        [int(mapped_value(i, task) is LabelValue.POSITIVE) for i in instances]
    )


def batch_loss_and_grads(
    model: MtlModel,
    batch: Sequence[ArgumentInstance],
    task: Task,
    texts: Sequence[str] | None = None,
    targets: np.ndarray | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Cross-entropy on the selected head plus gradients for the encoder
    and that head. ``texts`` and ``targets``, when given, are the batch's
    encoder inputs and 0/1 targets, built once by the caller."""
    task = Task(task)
    if texts is None:
        texts = [instance_text(i) for i in batch]
    if targets is None:
        targets = task_targets(batch, task)
    cache = model.encoder.forward(texts)
    head = model.heads[task]
    logits = cache.outputs @ head["w"].T + head["b"]
    loss, d_logits = cross_entropy_and_grad(logits, targets)
    grads = {
        f"head.{task.value}.w": d_logits.T @ cache.outputs,
        f"head.{task.value}.b": d_logits.sum(axis=0),
    }
    d_embeddings = d_logits @ head["w"]
    for name, grad in model.encoder.backward(cache, d_embeddings).items():
        grads[f"encoder.{name}"] = grad
    return loss, grads


class _TaskStream:
    """Per-task stream of instance indices, shuffled without replacement;
    reshuffles once exhausted."""

    def __init__(self, size: int, rng: np.random.Generator):
        self.size = size
        self.rng = rng
        self.order = np.zeros(0, dtype=np.int64)
        self.cursor = 0

    def next_batch(self, size: int) -> np.ndarray:
        if self.cursor >= len(self.order):
            self.order = self.rng.permutation(self.size)
            self.cursor = 0
        end = min(self.cursor + size, len(self.order))
        batch = self.order[self.cursor:end]
        self.cursor = end
        return batch


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    dev_combined_f1: float

    def as_tuple(self) -> tuple[int, float, float]:
        return (self.epoch, self.train_loss, self.dev_combined_f1)


@dataclass
class TrainResult:
    model: MtlModel
    history: list[EpochRecord]
    best_epoch: int


def select_best(history: Sequence[EpochRecord]) -> int:
    """Epoch index with the highest combined F1; ties go to the earliest."""
    if not history:
        raise ConfigurationError("empty history")
    scores = [h.dev_combined_f1 for h in history]
    return scores.index(max(scores))


def train(
    model: MtlModel,
    train_set: Sequence[ArgumentInstance],
    dev_set: Sequence[ArgumentInstance],
    config: TrainConfig,
) -> TrainResult:
    """Task-alternating training with dev-set checkpoint selection.

    Returns the model restored to the best-epoch parameters plus the
    per-epoch history. Deterministic given config.seed.
    """
    if not train_set or not dev_set:
        raise ConfigurationError("train and dev sets must be non-empty")
    rng = np.random.default_rng(config.seed)
    tasks = (Task.VALIDITY, Task.NOVELTY)
    streams = {
        task: _TaskStream(len(train_set), np.random.default_rng(rng.integers(2**63)))
        for task in tasks
    }
    texts = [instance_text(i) for i in train_set]
    targets = {task: task_targets(train_set, task) for task in tasks}
    optimizer = AdamW(config.learning_rate, weight_decay=config.weight_decay)
    params = model.parameters()
    steps_per_epoch = max(1, -(-len(train_set) // config.batch_size))

    history: list[EpochRecord] = []
    step = 0
    accumulated: dict[str, np.ndarray] = {}
    since_update = 0

    # a diverging run overflows before its loss turns non-finite; the loss
    # check below reports it, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(config.epochs):
            losses = []
            for k in range(steps_per_epoch):
                step += 1
                task = sample_task(rng, config.task_probabilities)
                batch = streams[task].next_batch(config.batch_size)
                loss, grads = batch_loss_and_grads(
                    model,
                    [train_set[i] for i in batch],
                    task,
                    texts=[texts[i] for i in batch],
                    targets=targets[task][batch],
                )
                if not np.isfinite(loss):
                    raise TrainingError(f"non-finite loss at step {step} (task {task.value})")
                losses.append(loss)
                for name, grad in grads.items():
                    if name in accumulated:
                        accumulated[name] += grad
                    else:
                        accumulated[name] = grad  # a fresh array, ours to update
                since_update += 1
                # an epoch's last partial accumulation is applied before its dev score
                if since_update >= config.grad_accumulation or k == steps_per_epoch - 1:
                    if since_update > 1:
                        for name in accumulated:
                            accumulated[name] /= since_update
                    optimizer.step(params, accumulated)
                    accumulated = {}
                    since_update = 0

            dev_f1 = combined_score(
                model.predict_both(dev_set), dev_set, metric=config.combined_metric
            )
            history.append(
                EpochRecord(
                    epoch=epoch,
                    train_loss=float(np.mean(losses)),
                    dev_combined_f1=dev_f1,
                )
            )
            if select_best(history) == epoch:
                best_params = model.snapshot()

    model.restore(best_params)
    return TrainResult(model=model, history=history, best_epoch=select_best(history))


# --- checkpoint format: JSON, format/version header, fsutil parameter records ---

CHECKPOINT_FORMAT = "valnov-mtl-checkpoint"
ENCODER_CHECKPOINT_FORMAT = "valnov-encoder-checkpoint"
CHECKPOINT_VERSION = 2


def _read_checkpoint(path: str | Path, fmt: str, fields: Sequence[str]) -> dict:
    """The decoded checkpoint, after its format, version and field checks."""
    blob = read_json(path)
    if not isinstance(blob, dict) or blob.get("format") != fmt:
        raise ConfigurationError(f"{path}: not a {fmt} file")
    if blob.get("version") != CHECKPOINT_VERSION:
        raise ConfigurationError(f"{path}: unsupported checkpoint version {blob.get('version')} "
                                 f"(not {CHECKPOINT_VERSION}); re-run the stage that wrote it")
    missing = [name for name in fields if name not in blob]
    if missing:
        raise SchemaError(f"{path}: checkpoint lacks {missing}")
    return blob


def _config_from_blob(cls: type, blob: dict, path: str | Path):
    """Rebuild a config dataclass from its ``dataclasses.asdict`` blob,
    which must spell out every field."""
    try:
        return decode(cls, blob, cls.__name__, complete=True)
    except TypeError as exc:
        raise ConfigurationError(f"{path}: checkpoint {exc}") from exc


def save_checkpoint(
    result: TrainResult, config: TrainConfig, path: str | Path
) -> None:
    model = result.model
    blob = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "name": model.name,
        "encoder_config": dataclasses.asdict(model.encoder.config),
        "train_config": dataclasses.asdict(config),
        "best_epoch": result.best_epoch,
        "history": [list(h.as_tuple()) for h in result.history],
    }
    atomic_write_text(Path(path), json.dumps(dict(blob, params=pack_params(model.parameters()))))


def load_checkpoint(path: str | Path) -> tuple[MtlModel, TrainConfig, list[EpochRecord], int]:
    blob = _read_checkpoint(
        path,
        CHECKPOINT_FORMAT,
        ("encoder_config", "train_config", "best_epoch", "history", "params"),
    )
    enc_cfg = _config_from_blob(EncoderConfig, blob["encoder_config"], path)
    config = _config_from_blob(TrainConfig, blob["train_config"], path)
    try:
        name = decode(str, blob.get("name", "mtl"), "name")
        rows = decode(list[tuple[int, float, float]], blob["history"], "history")
        best_epoch = decode(int, blob["best_epoch"], "best_epoch")
    except TypeError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    model = MtlModel(enc_cfg, seed=config.seed, name=name)
    unpack_params(blob["params"], model.parameters(), path)
    return model, config, [EpochRecord(*row) for row in rows], best_epoch


def save_encoder_checkpoint(
    encoder: ReferenceEncoder, epoch_losses: Sequence[float], path: str | Path
) -> None:
    blob = {
        "format": ENCODER_CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "encoder_config": dataclasses.asdict(encoder.config),
        "epoch_losses": [float(x) for x in epoch_losses],
    }
    atomic_write_text(Path(path), json.dumps(dict(blob, params=pack_params(encoder.parameters()))))


def load_encoder_checkpoint(path: str | Path) -> tuple[ReferenceEncoder, list[float]]:
    blob = _read_checkpoint(
        path, ENCODER_CHECKPOINT_FORMAT, ("encoder_config", "epoch_losses", "params")
    )
    encoder = ReferenceEncoder(_config_from_blob(EncoderConfig, blob["encoder_config"], path))
    unpack_params(blob["params"], encoder.parameters(), path)
    try:
        epoch_losses = decode(list[float], blob["epoch_losses"], "epoch_losses")
    except TypeError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    return encoder, epoch_losses
