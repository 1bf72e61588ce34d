"""Text-to-vector encoders.

The reference encoder is a desk-scale stand-in for a large pretrained
transformer: token hashing -> embedding lookup -> mean pooling -> affine
projection -> tanh. It is trainable (forward caches + hand-derived
backward), deterministic given its seed, and cheap enough for CPU tests.

Each encoder keeps a memo from text to its int64 bucket ids, so a text
is tokenized once per encoder however often it is encoded, and a memo
from token to bucket, so a token is hashed once per encoder however many
texts hold it; both depend only on the frozen ``vocab_buckets``, so new
parameters never invalidate them.

Pooling gathers a batch's embedding rows in one step, laid out token
position first, sets the padding positions to +0.0, and reduces over
that axis, which adds each text's rows in text order. That is the order
of adding the rows one token position at a time from +0.0, so pooling is
byte-equal to that loop for every ``embed_dim``, and no buffer outlives
a call. Backward accumulates into the embedding gradient token by token
in the same order, so outputs and gradients are bit-identical to the
per-row loops.

The projection is an ``Affine`` layer, its weight and bias views of one
buffer. With ``compact=True``, backward gives the optimizer's form: the
embedding gradient as a ``RowGradient`` of the batch's distinct bucket
ids and their summed values, so its cost follows the batch's tokens and
not ``vocab_buckets``, and the projection's as one flat array. A plain
call scatters the former into a dense table and splits the latter into
per-parameter views, which is what a finite-difference check wants.
"""

from __future__ import annotations

import hashlib
import unicodedata
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .decode import check_ranges
from .optim import RowGradient


@dataclass(frozen=True)
class EncoderConfig:
    vocab_buckets: int = field(default=2048, metadata={"min": 1})
    embed_dim: int = field(default=32, metadata={"min": 1})
    projection_dim: int = field(default=32, metadata={"min": 1})
    seed: int = field(default=0, metadata={"min": 0})

    __post_init__ = check_ranges


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


class Affine:
    """``x @ w.T + b``, with ``w`` (out × in) and then ``b`` (out), which
    starts at zero, as views of one float64 buffer that steps as one array."""

    def __init__(self, w: np.ndarray):
        self.shape = w.shape
        self.buffer = np.concatenate((w.ravel(), np.zeros(len(w))))
        self.w, self.b = self.split(self.buffer)

    def split(self, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The ``w`` and ``b`` parts of a buffer-shaped array, as views."""
        cut = self.buffer.size - self.shape[0]
        return flat[:cut].reshape(self.shape), flat[cut:]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return x @ self.w.T + self.b

    def backward(self, x: np.ndarray, d_out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """dL/d(buffer) and dL/d(x) of the layer given its input ``x`` and
        dL/d(output)."""
        grad = np.empty_like(self.buffer)
        d_w, d_b = self.split(grad)
        np.matmul(d_out.T, x, out=d_w)
        np.sum(d_out, axis=0, out=d_b)
        return grad, d_out @ self.w


@dataclass
class ForwardCache:
    """Per-batch intermediates needed by ReferenceEncoder.backward."""

    token_ids: np.ndarray  # every text's bucket ids, concatenated in batch order
    lengths: np.ndarray  # (n,) token count per text
    pooled: np.ndarray  # (n, embed_dim)
    projected: np.ndarray  # (n, projection_dim), before the tanh
    outputs: np.ndarray  # (n, projection_dim)


class ReferenceEncoder:
    """Trainable hashing encoder; all parameters are float64 numpy arrays."""

    def __init__(self, config: EncoderConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.embedding = rng.normal(0.0, 0.5, (config.vocab_buckets, config.embed_dim))
        scale = 1.0 / np.sqrt(config.embed_dim)
        self.proj = Affine(rng.normal(0.0, scale, (config.projection_dim, config.embed_dim)))
        self.proj_w, self.proj_b = self.proj.w, self.proj.b
        self._ids: dict[str, np.ndarray] = {}
        self._buckets: dict[str, int] = {}

    def parameters(self) -> dict[str, np.ndarray]:
        return {"embedding": self.embedding, "proj_w": self.proj_w, "proj_b": self.proj_b}

    def groups(self) -> dict[str, np.ndarray]:
        """The arrays an optimizer steps, one per step count."""
        return {"embedding": self.embedding, "proj": self.proj.buffer}

    def token_ids(self, text: str) -> np.ndarray:
        """Bucket ids of ``text``'s tokens, each token hashed once per
        encoder; ``forward`` memoises the ids per text."""
        memo = self._buckets
        tokens = tokenize(text)
        for token in tokens:
            if token not in memo:
                memo[token] = _hash_token(token, self.config.vocab_buckets)
        return np.array([memo[token] for token in tokens], dtype=np.int64)

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
        # (position, text): the reduction runs over the outer axis, so each
        # text's rows are added in text order (reduceat is not)
        padded = np.zeros((width, len(rows)), dtype=np.int64)
        padded.T[present] = flat
        gathered = self.embedding[padded]  # (position, text, dim)
        gathered[~present.T] = 0.0
        pooled = np.zeros((len(rows), self.config.embed_dim))
        if pooled.size == 1:  # numpy would sum a lone column pairwise
            pooled[...] = np.add.accumulate(np.append(0.0, gathered.ravel()))[-1]
        else:
            np.add.reduce(gathered, axis=0, out=pooled)
        pooled /= np.maximum(lengths, 1)[:, None]  # an empty text pools to zeros
        projected = self.proj(pooled)
        return ForwardCache(flat, lengths, pooled, projected, np.tanh(projected))

    def encode(self, texts: Sequence[str]) -> np.ndarray:
        return self.forward(texts).outputs

    def backward(
        self, cache: ForwardCache, d_outputs: np.ndarray, *, compact: bool = False
    ) -> dict[str, np.ndarray | RowGradient]:
        """Gradients of a scalar loss w.r.t. parameters, given dL/d(outputs).

        The embedding's is summed over the rows the batch gathered alone;
        ``compact`` returns them keyed as ``groups()``, that ``RowGradient``
        and the projection's flat array, and otherwise keyed as
        ``parameters()``, a dense table and views of the flat array."""
        d_pre = d_outputs * (1.0 - cache.outputs**2)  # tanh'
        d_proj, d_pooled = self.proj.backward(cache.pooled, d_pre)
        lengths = cache.lengths
        contrib = d_pooled / np.maximum(lengths, 1)[:, None]
        # text by text and token by token, as the per-row loops add
        d_embedding = RowGradient.sum_rows(cache.token_ids, np.repeat(contrib, lengths, axis=0))
        if compact:
            return {"proj": d_proj, "embedding": d_embedding}
        dense = np.zeros(self.embedding.shape)
        dense[d_embedding.rows] = d_embedding.values
        d_proj_w, d_proj_b = self.proj.split(d_proj)
        return {"proj_w": d_proj_w, "proj_b": d_proj_b, "embedding": dense}
