"""Shared-encoder multi-task classifier and its training loop.

One encoder feeds two binary ``Affine`` heads (validity, novelty).
Training alternates tasks at random per batch, accumulates gradients,
applies decoupled-weight-decay Adam to the arrays of ``MtlModel.groups()``
(the embedding, the projection, each head), and keeps the checkpoint with
the best dev-set combined F1. No parameters are frozen: either task's
gradients flow through the whole encoder; the head that was not selected
for a step is left untouched by that step's update.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, Sequence

import numpy as np

from .corpus import ArgumentInstance, Task, positive
from .decode import check_ranges
from .encoder import Affine, EncoderConfig, ReferenceEncoder
from .errors import ConfigurationError, TrainingError
from .evaluation import COMBINED_METRICS, DEFAULT_COMBINED_METRIC, combined_score
from .fsutil import atomic_write_text, load_model, model_json, pack_params, unpack_params
from .optim import AdamW, RowGradient
from .predictions import Prediction, labelled

# Profile name -> (learning rate, epochs, gradient accumulation). The two
# submission profiles come from the published hyperparameter table; "desk"
# is scaled for the from-scratch reference encoder and gives TrainConfig its defaults.
TRAIN_PROFILES: dict[str, tuple[float, int, int]] = {
    "clteaml-2": (1e-5, 9, 1),
    "clteaml-4": (5e-6, 6, 4),
    "desk": (5e-2, 10, 1),
}


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = field(default=TRAIN_PROFILES["desk"][0], metadata={"min": 0})
    epochs: int = field(default=TRAIN_PROFILES["desk"][1], metadata={"min": 1})
    grad_accumulation: int = field(default=TRAIN_PROFILES["desk"][2], metadata={"min": 1})
    batch_size: int = field(default=16, metadata={"min": 1})
    weight_decay: float = field(default=0.01, metadata={"min": 0})
    seed: int = field(default=0, metadata={"min": 0})
    task_probabilities: tuple[float, float] = (0.5, 0.5)
    combined_metric: str = field(
        default=DEFAULT_COMBINED_METRIC, metadata={"one_of": COMBINED_METRICS}
    )

    def __post_init__(self):
        check_ranges(self)
        probabilities = self.task_probabilities
        if len(probabilities) != 2 or min(probabilities) < 0 or abs(sum(probabilities) - 1.0) > 1e-9:
            raise ConfigurationError(
                f"task_probabilities must be a non-negative pair summing to 1, got {probabilities}"
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
        self.heads: dict[Task, Affine] = {
            task: Affine(rng.normal(0.0, 0.1, (2, dim)))
            for task in (Task.VALIDITY, Task.NOVELTY)
        }

    def parameters(self) -> dict[str, np.ndarray]:
        params = {f"encoder.{k}": v for k, v in self.encoder.parameters().items()}
        for task, head in self.heads.items():
            params[f"head.{task.value}.w"] = head.w
            params[f"head.{task.value}.b"] = head.b
        return params

    def groups(self) -> dict[str, np.ndarray]:
        """The arrays an optimizer steps, one per step count."""
        groups = {f"encoder.{k}": v for k, v in self.encoder.groups().items()}
        for task, head in self.heads.items():
            groups[f"head.{task.value}"] = head.buffer
        return groups

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
        for task, head in self.heads.items():
            logits = head(embeddings)
            out.extend(labelled(instances, task, logits[:, 1] > logits[:, 0], self.name))
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


def batch_loss_and_grads(
    model: MtlModel,
    batch: Sequence[ArgumentInstance] | None,
    task: Task,
    texts: Sequence[str] | None = None,
    targets: np.ndarray | None = None,
    *,
    compact: bool = False,
) -> tuple[float, dict[str, np.ndarray | RowGradient]]:
    """Cross-entropy on the selected head plus gradients for the encoder
    and that head. ``texts`` and ``targets``, when given, are the batch's
    encoder inputs and 0/1 targets, built once by the caller, who may then
    pass no ``batch``; ``compact`` is as in ``ReferenceEncoder.backward``."""
    task = Task(task)
    if texts is None:
        texts = [instance_text(i) for i in batch]
    if targets is None:
        targets = positive(batch, task).astype(np.int64)
    cache = model.encoder.forward(texts)
    head = model.heads[task]
    loss, d_logits = cross_entropy_and_grad(head(cache.outputs), targets)
    d_head, d_embeddings = head.backward(cache.outputs, d_logits)
    if compact:
        grads = {f"head.{task.value}": d_head}
    else:
        d_w, d_b = head.split(d_head)
        grads = {f"head.{task.value}.w": d_w, f"head.{task.value}.b": d_b}
    for name, grad in model.encoder.backward(cache, d_embeddings, compact=compact).items():
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
    targets = {task: positive(train_set, task).astype(np.int64) for task in tasks}
    optimizer = AdamW(config.learning_rate, weight_decay=config.weight_decay)
    groups = model.groups()
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
                    None,
                    task,
                    texts=[texts[i] for i in batch],
                    targets=targets[task][batch],
                    compact=True,
                )
                if not np.isfinite(loss):
                    raise TrainingError(f"non-finite loss at step {step} (task {task.value})")
                losses.append(loss)
                # a RowGradient's + and / build a new one, an array's act in place
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
                    optimizer.step(groups, accumulated)
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


@dataclass(frozen=True)
class Checkpoint:
    """The model file ``train`` writes and ``predict`` reads."""
    FORMAT: ClassVar[str] = "valnov-mtl-checkpoint"
    VERSION: ClassVar[int] = 2
    name: str
    encoder_config: EncoderConfig
    train_config: TrainConfig
    best_epoch: int
    history: list[tuple[int, float, float]]
    params: dict[str, dict]


@dataclass(frozen=True)
class EncoderCheckpoint:
    """The encoder file ``contrastive-train`` writes and ``train --init-encoder`` reads."""
    FORMAT: ClassVar[str] = "valnov-encoder-checkpoint"
    VERSION: ClassVar[int] = 2
    encoder_config: EncoderConfig
    epoch_losses: list[float]
    params: dict[str, dict]


def save_checkpoint(result: TrainResult, config: TrainConfig, path: str | Path) -> None:
    model = result.model
    record = Checkpoint(
        name=model.name,
        encoder_config=model.encoder.config,
        train_config=config,
        best_epoch=result.best_epoch,
        history=[h.as_tuple() for h in result.history],
        params=pack_params(model.parameters()),
    )
    atomic_write_text(Path(path), model_json(record))


def load_checkpoint(path: str | Path) -> tuple[MtlModel, TrainConfig, list[EpochRecord], int]:
    record = load_model(path, Checkpoint)
    config = record.train_config
    model = MtlModel(record.encoder_config, seed=config.seed, name=record.name)
    unpack_params(record.params, model.parameters(), path)
    return model, config, [EpochRecord(*row) for row in record.history], record.best_epoch


def save_encoder_checkpoint(
    encoder: ReferenceEncoder, epoch_losses: Sequence[float], path: str | Path
) -> None:
    record = EncoderCheckpoint(
        encoder_config=encoder.config,
        epoch_losses=[float(x) for x in epoch_losses],
        params=pack_params(encoder.parameters()),
    )
    atomic_write_text(Path(path), model_json(record))


def load_encoder_checkpoint(path: str | Path) -> tuple[ReferenceEncoder, list[float]]:
    record = load_model(path, EncoderCheckpoint)
    encoder = ReferenceEncoder(record.encoder_config)
    unpack_params(record.params, encoder.parameters(), path)
    return encoder, record.epoch_losses
