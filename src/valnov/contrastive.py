"""Triplet-loss contrastive fine-tuning of the encoder.

Applied before multi-task training: pulls each premise's positive-novelty
conclusion closer than its negative-novelty conclusion by a margin.
Distance is cosine (1 - cosine similarity) by default, euclidean as an
alternative; the hinge uses subgradient 0 at and below the kink.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import TripletExample
from .encoder import ReferenceEncoder
from .errors import ConfigurationError, DataError, TrainingError
from .optim import AdamW

DISTANCES = ("cosine", "euclidean")


@dataclass(frozen=True)
class ContrastiveConfig:
    margin: float = 1.0
    learning_rate: float = 1e-5
    epochs: int = 3
    batch_size: int = 16
    distance: str = "cosine"
    seed: int = 0

    def __post_init__(self):
        if self.margin < 0:
            raise ConfigurationError("margin must be >= 0")
        if self.learning_rate < 0:
            raise ConfigurationError("learning_rate must be >= 0")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigurationError("epochs and batch_size must be >= 1")
        if self.distance not in DISTANCES:
            raise ConfigurationError(
                f"distance must be one of {DISTANCES}, got {self.distance!r}"
            )


def _cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise DataError("cosine distance undefined for a zero vector")
    return float(1.0 - a @ b / (na * nb))


def _euclidean_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b))


def distance(a: np.ndarray, b: np.ndarray, kind: str = "cosine") -> float:
    if kind == "cosine":
        return _cosine_distance(a, b)
    if kind == "euclidean":
        return _euclidean_distance(a, b)
    raise ConfigurationError(f"unknown distance {kind!r}")


def triplet_loss(
    anchor: np.ndarray,
    positive: np.ndarray,
    negative: np.ndarray,
    margin: float = 1.0,
    dist: str = "cosine",
) -> float:
    """max(0, d(anchor, positive) - d(anchor, negative) + margin); a NaN
    stays NaN, so the caller's non-finite check sees it."""
    loss = distance(anchor, positive, dist) - distance(anchor, negative, dist) + margin
    return 0.0 if loss <= 0.0 else loss


def _cosine_distance_grads(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """d = 1 - a.b/(|a||b|); returns (dd/da, dd/db)."""
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise DataError("cosine distance undefined for a zero vector")
    dot = a @ b
    grad_a = -(b / (na * nb) - dot * a / (na**3 * nb))
    grad_b = -(a / (na * nb) - dot * b / (na * nb**3))
    return grad_a, grad_b


def _euclidean_distance_grads(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    diff = a - b
    norm = np.linalg.norm(diff)
    if norm == 0.0:
        return np.zeros_like(a), np.zeros_like(b)
    return diff / norm, -diff / norm


def triplet_loss_and_embedding_grads(
    anchor: np.ndarray,
    positive: np.ndarray,
    negative: np.ndarray,
    margin: float,
    dist: str,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Loss plus dL/d(embedding) for each of the three inputs."""
    loss = triplet_loss(anchor, positive, negative, margin, dist)
    if loss <= 0.0:
        z = np.zeros_like(anchor)
        return loss, z, z.copy(), z.copy()
    grads = _cosine_distance_grads if dist == "cosine" else _euclidean_distance_grads
    dap_a, dap_p = grads(anchor, positive)
    dan_a, dan_n = grads(anchor, negative)
    return loss, dap_a - dan_a, dap_p, -dan_n


@dataclass
class ContrastiveResult:
    encoder: ReferenceEncoder
    epoch_losses: list[float]


def contrastive_train(
    encoder: ReferenceEncoder,
    triplets: Sequence[TripletExample],
    config: ContrastiveConfig,
) -> ContrastiveResult:
    """Mini-batch AdamW descent on the mean triplet loss, shuffled per
    epoch by seed. Mutates and returns the encoder with per-epoch mean
    losses. An empty triplet list is a configuration error: skipping the
    stage must be an explicit pipeline choice."""
    if not triplets:
        raise ConfigurationError(
            "no triplets provided; skip the contrastive stage explicitly instead"
        )
    rng = np.random.default_rng(config.seed)
    optimizer = AdamW(config.learning_rate)
    params = encoder.parameters()
    epoch_losses: list[float] = []

    # a diverging run overflows before its loss turns non-finite; the checks
    # below report it, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(config.epochs):
            order = rng.permutation(len(triplets))
            losses = []
            for start in range(0, len(order), config.batch_size):
                batch = [triplets[i] for i in order[start : start + config.batch_size]]
                texts: list[str] = []
                for t in batch:
                    texts.extend((t.anchor, t.positive, t.negative))
                cache = encoder.forward(texts)
                # tanh saturates, so an overflowed pre-activation still
                # gives finite outputs and a finite loss
                if not np.isfinite(cache.pooled @ encoder.proj_w.T + encoder.proj_b).all():
                    raise TrainingError(
                        f"non-finite encoder activation in epoch {epoch} at triplet offset {start}"
                    )
                d_outputs = np.zeros_like(cache.outputs)
                batch_loss = 0.0
                for j, t in enumerate(batch):
                    a, p, n = cache.outputs[3 * j : 3 * j + 3]
                    loss, ga, gp, gn = triplet_loss_and_embedding_grads(
                        a, p, n, config.margin, config.distance
                    )
                    batch_loss += loss
                    d_outputs[3 * j] += ga / len(batch)
                    d_outputs[3 * j + 1] += gp / len(batch)
                    d_outputs[3 * j + 2] += gn / len(batch)
                batch_loss /= len(batch)
                if not np.isfinite(batch_loss):
                    raise TrainingError(
                        f"non-finite contrastive loss in epoch {epoch} at triplet offset {start}"
                    )
                losses.append(batch_loss)
                optimizer.step(params, encoder.backward(cache, d_outputs))
            epoch_losses.append(float(np.mean(losses)))
    return ContrastiveResult(encoder=encoder, epoch_losses=epoch_losses)


def constraint_satisfaction(
    encoder: ReferenceEncoder, triplets: Sequence[TripletExample], dist: str = "cosine"
) -> float:
    """Fraction of triplets with d(anchor, positive) < d(anchor, negative)."""
    if not triplets:
        return 0.0
    satisfied = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for t in triplets:
            a, p, n = encoder.encode([t.anchor, t.positive, t.negative])
            if distance(a, p, dist) < distance(a, n, dist):
                satisfied += 1
    return satisfied / len(triplets)
