"""Text-to-vector encoders.

The reference encoder is a desk-scale stand-in for a large pretrained
transformer: token hashing -> embedding lookup -> mean pooling -> affine
projection -> tanh. It is trainable (forward caches + hand-derived
backward), deterministic given its seed, and cheap enough for CPU tests.

Each encoder keeps a memo from text to its int64 bucket ids, so a text
is tokenized and hashed once per encoder however often it is encoded;
the ids depend only on the frozen ``vocab_buckets``, so new parameters
never invalidate it. Pooling adds each text's embedding rows one token
position at a time in text order, the order of a per-row
``embedding[ids].mean(axis=0)``, and backward accumulates into the
embedding gradient token by token in the same order, so outputs and
gradients are bit-identical to the per-row loops. (With ``embed_dim``
1 that mean sums pairwise instead, and pooling may differ from it in
the last bit.)
"""

from __future__ import annotations

import hashlib
import unicodedata
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class EncoderConfig:
    vocab_buckets: int = 2048
    embed_dim: int = 32
    projection_dim: int = 32
    seed: int = 0

    def __post_init__(self):
        for name in ("vocab_buckets", "embed_dim", "projection_dim"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")


def tokenize(text: str) -> list[str]:
    """Lowercase, split on Unicode whitespace, strip leading/trailing
    punctuation per token; tokens that become empty are dropped.

    A token whose first and last characters are alphanumeric is kept
    whole without looking up any category: no code point for which
    ``str.isalnum()`` holds is in a ``P*`` category, so there is nothing
    to strip.
    """
    tokens = []
    for raw in text.lower().split():
        if raw[0].isalnum() and raw[-1].isalnum():
            tokens.append(raw)
            continue
        start, end = 0, len(raw)
        while start < end and unicodedata.category(raw[start]).startswith("P"):
            start += 1
        while end > start and unicodedata.category(raw[end - 1]).startswith("P"):
            end -= 1
        if end > start:
            tokens.append(raw[start:end])
    return tokens


def _hash_token(token: str, buckets: int) -> int:
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") % buckets


@dataclass
class ForwardCache:
    """Per-batch intermediates needed by ReferenceEncoder.backward."""

    token_ids: np.ndarray  # every text's bucket ids, concatenated in batch order
    lengths: np.ndarray  # (n,) token count per text
    pooled: np.ndarray  # (n, embed_dim)
    outputs: np.ndarray  # (n, projection_dim)


class ReferenceEncoder:
    """Trainable hashing encoder; all parameters are float64 numpy arrays."""

    def __init__(self, config: EncoderConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.embedding = rng.normal(0.0, 0.5, (config.vocab_buckets, config.embed_dim))
        self.proj_w = rng.normal(
            0.0, 1.0 / np.sqrt(config.embed_dim), (config.projection_dim, config.embed_dim)
        )
        self.proj_b = np.zeros(config.projection_dim)
        self._ids: dict[str, np.ndarray] = {}

    def parameters(self) -> dict[str, np.ndarray]:
        return {"embedding": self.embedding, "proj_w": self.proj_w, "proj_b": self.proj_b}

    def token_ids(self, text: str) -> np.ndarray:
        """Bucket ids of ``text``'s tokens; ``forward`` memoises them per text."""
        buckets = self.config.vocab_buckets
        return np.array([_hash_token(tok, buckets) for tok in tokenize(text)], dtype=np.int64)

    def forward(self, texts: Sequence[str]) -> ForwardCache:
        rows = []
        for text in texts:
            ids = self._ids.get(text)
            if ids is None:
                ids = self._ids[text] = self.token_ids(text)
            rows.append(ids)
        lengths = np.array([len(r) for r in rows], dtype=np.int64)
        flat = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
        width = int(lengths.max(initial=0))
        present = np.arange(width) < lengths[:, None]  # (n, width)
        padded = np.zeros((len(rows), width), dtype=np.int64)
        padded[present] = flat
        pooled = np.zeros((len(rows), self.config.embed_dim))
        # one token position at a time, so each row sums in text order as a
        # per-row mean(axis=0) does (np.add.reduceat does not)
        for j in range(width):
            np.add(pooled, self.embedding[padded[:, j]], out=pooled, where=present[:, j, None])
        pooled /= np.maximum(lengths, 1)[:, None]  # an empty text pools to zeros
        outputs = np.tanh(pooled @ self.proj_w.T + self.proj_b)
        return ForwardCache(token_ids=flat, lengths=lengths, pooled=pooled, outputs=outputs)

    def encode(self, texts: Sequence[str]) -> np.ndarray:
        return self.forward(texts).outputs

    def backward(self, cache: ForwardCache, d_outputs: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients of a scalar loss w.r.t. parameters, given dL/d(outputs)."""
        d_pre = d_outputs * (1.0 - cache.outputs**2)  # tanh'
        d_pooled = d_pre @ self.proj_w
        lengths = cache.lengths
        contrib = d_pooled / np.maximum(lengths, 1)[:, None]
        # ufunc.at adds in index order, text by text and token by token; on
        # the flat array it takes numpy's fast one-dimensional path
        dim = self.config.embed_dim
        cells = (cache.token_ids[:, None] * dim + np.arange(dim)).ravel()
        d_embedding = np.zeros(self.embedding.size)
        np.add.at(d_embedding, cells, np.repeat(contrib, lengths, axis=0).ravel())
        return {
            "proj_w": d_pre.T @ cache.pooled,
            "proj_b": d_pre.sum(axis=0),
            "embedding": d_embedding.reshape(self.embedding.shape),
        }

