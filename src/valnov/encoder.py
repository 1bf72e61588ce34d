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

Pretrained initialization is exposed as an adapter boundary: the
"external" backend delegates encoding to an out-of-process model over a
line protocol (subprocess stdio) or an HTTP endpoint returning a JSON
array of numbers.
"""

from __future__ import annotations

import hashlib
import subprocess
import unicodedata
from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np
import requests

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
    punctuation per token; tokens that become empty are dropped."""
    tokens = []
    for raw in text.lower().split():
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


class Encoder(Protocol):
    """Read-only encoding surface shared by all backends."""

    @property
    def projection_dim(self) -> int: ...

    def encode(self, texts: Sequence[str]) -> np.ndarray: ...


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

    @property
    def projection_dim(self) -> int:
        return self.config.projection_dim

    def parameters(self) -> dict[str, np.ndarray]:
        return {"embedding": self.embedding, "proj_w": self.proj_w, "proj_b": self.proj_b}

    def set_parameters(self, params: dict[str, np.ndarray]) -> None:
        self.embedding = params["embedding"].copy()
        self.proj_w = params["proj_w"].copy()
        self.proj_b = params["proj_b"].copy()

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


class SubprocessEncoder:
    """Encodes by piping lines to a child process and reading one
    space-separated decimal vector per line back."""

    def __init__(self, command: Sequence[str], projection_dim: int):
        self.command = list(command)
        self._projection_dim = projection_dim
        try:
            self._proc = subprocess.Popen(
                self.command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                encoding="utf-8",
            )
        except OSError as exc:
            raise ConfigurationError(f"cannot start external encoder {self.command}: {exc}")

    @property
    def projection_dim(self) -> int:
        return self._projection_dim

    def encode(self, texts: Sequence[str]) -> np.ndarray:
        out = np.zeros((len(texts), self._projection_dim))
        assert self._proc.stdin is not None and self._proc.stdout is not None
        for i, text in enumerate(texts):
            self._proc.stdin.write(text.replace("\n", " ") + "\n")
            self._proc.stdin.flush()
            line = self._proc.stdout.readline()
            if not line:
                raise ConfigurationError("external encoder closed its output stream")
            vec = np.array([float(x) for x in line.split()])
            if vec.shape[0] != self._projection_dim:
                raise ConfigurationError(
                    f"external encoder returned dim {vec.shape[0]}, "
                    f"configured heads expect dim {self._projection_dim}"
                )
            out[i] = vec
        return out

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.terminate()
            self._proc.wait(timeout=5)


class HttpEncoder:
    """Encodes by POSTing UTF-8 text to an endpoint that returns a JSON
    array of numbers."""

    def __init__(self, endpoint: str, projection_dim: int, timeout: float = 10.0):
        self.endpoint = endpoint
        self._projection_dim = projection_dim
        self.timeout = timeout

    @property
    def projection_dim(self) -> int:
        return self._projection_dim

    def encode(self, texts: Sequence[str]) -> np.ndarray:
        out = np.zeros((len(texts), self._projection_dim))
        for i, text in enumerate(texts):
            try:
                resp = requests.post(
                    self.endpoint, data=text.encode("utf-8"), timeout=self.timeout
                )
                resp.raise_for_status()
                vec = np.array(resp.json(), dtype=float)
            except (requests.RequestException, ValueError) as exc:
                raise ConfigurationError(
                    f"external encoder endpoint {self.endpoint} unusable: {exc}"
                )
            if vec.ndim != 1 or vec.shape[0] != self._projection_dim:
                raise ConfigurationError(
                    f"external encoder returned dim {vec.shape[0] if vec.ndim == 1 else vec.shape}, "
                    f"configured heads expect dim {self._projection_dim}"
                )
            out[i] = vec
        return out


@dataclass(frozen=True)
class PretrainedSource:
    """Named checkpoint descriptor for load_pretrained.

    kind "reference" builds a fresh deterministic ReferenceEncoder;
    kind "external" attaches an out-of-process encoder (exactly one of
    ``command`` or ``endpoint`` must be set) and probes it once to verify
    reachability and output dimension.
    """

    kind: str
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    command: tuple[str, ...] | None = None
    endpoint: str | None = None
    probe_text: str = "probe"


def load_pretrained(source: PretrainedSource) -> Encoder:
    if source.kind == "reference":
        return ReferenceEncoder(source.encoder)
    if source.kind == "external":
        dim = source.encoder.projection_dim
        if bool(source.command) == bool(source.endpoint):
            raise ConfigurationError(
                "external encoder needs exactly one of command or endpoint"
            )
        backend: Encoder
        if source.command:
            backend = SubprocessEncoder(source.command, dim)
        else:
            backend = HttpEncoder(source.endpoint, dim)
        backend.encode([source.probe_text])  # reachability + dimension check
        return backend
    raise ConfigurationError(f"unknown pretrained source kind {source.kind!r}")
