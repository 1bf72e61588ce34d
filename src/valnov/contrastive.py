"""Triplet-loss contrastive fine-tuning of the encoder.

Applied before multi-task training: pulls each premise's positive-novelty
conclusion closer than its negative-novelty conclusion by a margin.
Distance is cosine (1 - cosine similarity) by default, euclidean as an
alternative; the hinge uses subgradient 0 at and below the kink.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .corpus import TripletExample
from .decode import check_ranges
from .encoder import ReferenceEncoder
from .errors import ConfigurationError, DataError, TrainingError
from .optim import AdamW


def _cosine(a: np.ndarray, b: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """d = 1 - a.b/(|a||b|); returns (d, dd/da, dd/db)."""
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise DataError("cosine distance undefined for a zero vector")
    dot = a @ b
    grad_a = -(b / (na * nb) - dot * a / (na**3 * nb))
    grad_b = -(a / (na * nb) - dot * b / (na * nb**3))
    return float(1.0 - dot / (na * nb)), grad_a, grad_b


def _euclidean(a: np.ndarray, b: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """d = |a - b|; returns (d, dd/da, dd/db), with zero gradients at d = 0."""
    diff = a - b
    norm = np.linalg.norm(diff)
    if norm == 0.0:
        return float(norm), np.zeros_like(a), np.zeros_like(b)
    return float(norm), diff / norm, -diff / norm


# each distance kind by name: the function giving its (d, dd/da, dd/db)
DISTANCES: dict[str, Callable] = {
    "cosine": _cosine,
    "euclidean": _euclidean,
}


@dataclass(frozen=True)
class ContrastiveConfig:
    margin: float = field(default=1.0, metadata={"min": 0})
    learning_rate: float = field(default=1e-3, metadata={"min": 0})
    epochs: int = field(default=3, metadata={"min": 1})
    batch_size: int = field(default=16, metadata={"min": 1})
    distance: str = field(default="cosine", metadata={"one_of": DISTANCES})

    __post_init__ = check_ranges


def _distance_and_grads(
    a: np.ndarray, b: np.ndarray, kind: str
) -> tuple[float, np.ndarray, np.ndarray]:
    if kind not in DISTANCES:
        raise ConfigurationError(f"unknown distance {kind!r}")
    return DISTANCES[kind](a, b)


def distance(a: np.ndarray, b: np.ndarray, kind: str = "cosine") -> float:
    return _distance_and_grads(a, b, kind)[0]


def triplet_loss(
    anchor: np.ndarray,
    positive: np.ndarray,
    negative: np.ndarray,
    margin: float = 1.0,
    dist: str = "cosine",
) -> float:
    """max(0, d(anchor, positive) - d(anchor, negative) + margin); a NaN
    stays NaN, so the caller's non-finite check sees it."""
    return triplet_loss_and_embedding_grads(anchor, positive, negative, margin, dist)[0]


def triplet_loss_and_embedding_grads(
    anchor: np.ndarray,
    positive: np.ndarray,
    negative: np.ndarray,
    margin: float,
    dist: str,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Loss plus dL/d(embedding) for each of the three inputs."""
    d_ap, dap_a, dap_p = _distance_and_grads(anchor, positive, dist)
    d_an, dan_a, dan_n = _distance_and_grads(anchor, negative, dist)
    loss = d_ap - d_an + margin
    if loss <= 0.0:
        z = np.zeros_like(anchor)
        return 0.0, z, z.copy(), z.copy()
    return loss, dap_a - dan_a, dap_p, -dan_n


@dataclass
class ContrastiveResult:
    encoder: ReferenceEncoder
    epoch_losses: list[float]


def contrastive_train(
    encoder: ReferenceEncoder,
    triplets: Sequence[TripletExample],
    config: ContrastiveConfig,
    seed: int = 0,
) -> ContrastiveResult:
    """Mini-batch AdamW descent on the mean triplet loss, shuffled per
    epoch by ``seed``. Mutates and returns the encoder with per-epoch mean
    losses. An empty triplet list is a configuration error: skipping the
    stage must be an explicit pipeline choice."""
    if not triplets:
        raise ConfigurationError(
            "no triplets provided; skip the contrastive stage explicitly instead"
        )
    rng = np.random.default_rng(seed)
    optimizer = AdamW(config.learning_rate)
    groups = encoder.groups()
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
                if not np.isfinite(cache.projected).all():
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
                optimizer.step(groups, encoder.backward(cache, d_outputs, compact=True))
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
