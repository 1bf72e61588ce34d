"""TF-IDF + linear SVM baseline.

Stems and counts the concatenated premise/conclusion text, weights
counts by smoothed inverse document frequency with L2 normalization,
and trains one linear SVM per task by projected subgradient descent on
the primal objective (Pegasos-style schedule, tail-averaged iterate).

Each document is tokenized and stemmed once per ``analyse`` call, and
the weighted documents are held as one CSR matrix (``CsrRows``). The
solver keeps the iterate in scaled form ``w = a·v`` with a running
``‖v‖²``, so decay and projection are scalar updates, and it averages
the tail lazily as ``S·v − u`` (``S`` the running sum of ``a``). A step
therefore costs O(nnz(x)), not O(vocabulary).
"""

from __future__ import annotations

import json
import math
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import ArgumentInstance, LabelValue, Task, mapped_value
from .encoder import tokenize
from .errors import ConfigurationError, DataError
from .fsutil import atomic_write_text
from .predictions import Prediction
from .stemming import stem

SparseVector = dict[int, float]

# the solver folds a into v once a falls below this; the lazy tail sum
# then loses at most about machine epsilon / _FOLD_BELOW to cancellation
_FOLD_BELOW = 1e-3


def document_text(instance: ArgumentInstance) -> str:
    return f"{instance.premise} {instance.conclusion}"


def _terms(document: str) -> list[str]:
    return [stem(token) for token in tokenize(document)]


def analyse(documents: Sequence[str]) -> list[list[str]]:
    """Stemmed tokens of each document; each distinct token is stemmed once."""
    memo: dict[str, str] = {}
    stems: dict[str, str] = {}  # one string per distinct stem, to save memory
    analysed = []
    for document in documents:
        terms = []
        for token in tokenize(document):
            term = memo.get(token)
            if term is None:
                term = stem(token)
                term = memo[token] = stems.setdefault(term, term)
            terms.append(term)
        analysed.append(terms)
    return analysed


@dataclass(frozen=True, eq=False)
class CsrRows:
    """Sparse rows: row i holds ``indices``/``values`` over
    ``indptr[i]:indptr[i + 1]``."""

    indptr: np.ndarray  # int64, one longer than the row count
    indices: np.ndarray  # int64
    values: np.ndarray  # float64

    def __len__(self) -> int:
        return len(self.indptr) - 1

    @classmethod
    def from_dicts(cls, rows: Sequence[SparseVector]) -> CsrRows:
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([len(row) for row in rows], out=indptr[1:])
        nnz = int(indptr[-1])
        indices = np.fromiter((i for row in rows for i in row), np.int64, count=nnz)
        values = np.fromiter(
            (v for row in rows for v in row.values()), np.float64, count=nnz
        )
        return cls(indptr=indptr, indices=indices, values=values)

    def dots(self, weights: np.ndarray) -> np.ndarray:
        """w·x for every row."""
        bounds = self.indptr.tolist()
        return np.array(
            [
                weights[self.indices[lo:hi]] @ self.values[lo:hi]
                for lo, hi in zip(bounds, bounds[1:])
            ],
            dtype=np.float64,
        )


def _as_rows(X: CsrRows | Sequence[SparseVector]) -> CsrRows:
    return X if isinstance(X, CsrRows) else CsrRows.from_dicts(X)


@dataclass(frozen=True, eq=False)
class TfidfModel:
    vocabulary: dict[str, int]
    idf: np.ndarray
    document_count: int


def tfidf_fit(documents: Sequence[str] | Sequence[list[str]]) -> TfidfModel:
    """Fit vocabulary and smoothed idf: ln((1 + N) / (1 + df)) + 1.

    ``documents`` are raw texts or their term lists from ``analyse``.
    """
    if not documents:
        raise ConfigurationError("cannot fit TF-IDF on an empty corpus")
    df: Counter[str] = Counter()
    for document in documents:
        df.update(set(_terms(document) if isinstance(document, str) else document))
    vocabulary = {term: idx for idx, term in enumerate(sorted(df))}
    n_docs = len(documents)
    idf = np.zeros(len(vocabulary))
    for term, idx in vocabulary.items():
        idf[idx] = math.log((1 + n_docs) / (1 + df[term])) + 1.0
    return TfidfModel(vocabulary=vocabulary, idf=idf, document_count=n_docs)


def tfidf_rows(model: TfidfModel, analysed: Sequence[list[str]]) -> CsrRows:
    """tf·idf rows of analysed documents, L2-normalized; unseen terms
    dropped, so a document with no known term is an empty row."""
    vocabulary = model.vocabulary
    idf = model.idf.tolist()
    indptr = array("q", [0])
    indices = array("q")
    values = array("d")
    for terms in analysed:
        row = [
            (idx, tf * idf[idx])
            for term, tf in Counter(terms).items()
            if (idx := vocabulary.get(term)) is not None
        ]
        norm = math.sqrt(sum(weight * weight for _, weight in row))
        indices.extend([idx for idx, _ in row])
        values.extend([weight / norm for _, weight in row])
        indptr.append(len(indices))
    return CsrRows(
        indptr=np.frombuffer(indptr, dtype=np.int64),
        indices=np.frombuffer(indices, dtype=np.int64),
        values=np.frombuffer(values, dtype=np.float64),
    )


def featurize(
    train: Sequence[ArgumentInstance], targets: Sequence[ArgumentInstance] = ()
) -> tuple[TfidfModel, CsrRows, CsrRows]:
    """Analyse every document once, fit TF-IDF on ``train``, and weight
    both sets: (model, train rows, target rows)."""
    analysed = analyse([document_text(inst) for inst in (*train, *targets)])
    train_terms, target_terms = analysed[: len(train)], analysed[len(train) :]
    tfidf = tfidf_fit(train_terms)
    return tfidf, tfidf_rows(tfidf, train_terms), tfidf_rows(tfidf, target_terms)


@dataclass(frozen=True, eq=False)
class LinearSvm:
    weights: np.ndarray
    bias: float
    C: float


@dataclass(frozen=True, eq=False)
class SvmFit:
    model: LinearSvm
    objective: float
    steps: int
    violations: int  # steps whose example was inside the margin


def svm_objective(
    weights: np.ndarray,
    bias: float,
    X: CsrRows | Sequence[SparseVector],
    y: Sequence[int],
    C: float,
) -> float:
    """Primal value (1/2)const‖w‖² + C·Σ hinge."""
    margins = np.asarray(y, dtype=np.float64) * (_as_rows(X).dots(weights) + bias)
    hinge = float(np.maximum(0.0, 1.0 - margins).sum())
    return 0.5 * float(weights @ weights) + C * hinge


def svm_train(
    X: CsrRows | Sequence[SparseVector],
    y: Sequence[int],
    dim: int,
    C: float,
    steps: int | None = None,
    seed: int = 0,
) -> SvmFit:
    """Projected subgradient descent on the primal SVM objective.

    λ = 1/(C·n), step size η_t = 1/(λ(t+1)), iterates projected onto the
    ball of radius 1/√λ; the returned model is the average of the second
    half of the trajectory. The bias is updated with the same step size
    but is neither decayed nor projected.

    The iterate is kept as w = a·v with a running ‖v‖², so the decay
    t/(t+1) and the projection rescale the scalar a, and only a violating
    step touches v, at the example's nonzeros. The tail sum Σ w is kept
    as S·v − u: S sums a over the tail, and each change δ to v adds S·δ
    to u. A step costs O(nnz(x)).

    A step gathers v at the example's indices once and takes
    ``ndarray.dot``: for two float64 vectors it calls the same BLAS dot
    as ``@``, without the matmul dispatch that dominates a dot of a few
    dozen elements. The violating update adds to that gathered copy and
    scatters it back, the values ``v[idx] += delta`` would store (the
    indices of a row are distinct).
    """
    n = len(X)
    if n == 0 or set(y) != {-1, 1}:
        raise DataError("svm_train needs at least one example of each class")
    if C <= 0:
        raise ConfigurationError("C must be positive")
    if steps is None:
        steps = 50 * n
    if steps < 1:
        raise ConfigurationError("steps must be >= 1")
    rows = _as_rows(X)
    lam = 1.0 / (C * n)
    radius = 1.0 / math.sqrt(lam)
    rng = np.random.default_rng(seed)

    bounds = rows.indptr.tolist()
    examples = []
    for lo, hi, label in zip(bounds, bounds[1:], y):
        x = rows.values[lo:hi]
        examples.append((rows.indices[lo:hi], x, float(label), float(x @ x)))

    v = np.zeros(dim)
    a = 1.0
    v_sq = 0.0
    b = 0.0
    tail_start = steps // 2
    u = np.zeros(dim)
    a_sum = 0.0  # S
    b_sum = 0.0
    tail_count = 0
    violations = 0
    order: list[int] = []

    for t in range(steps):
        if t % n == 0:
            order = rng.permutation(n).tolist()
        idx, x, label, x_sq = examples[order[t % n]]
        eta = 1.0 / (lam * (t + 1))
        vi = v[idx]
        vx = float(vi.dot(x))
        violates = label * (a * vx + b) < 1.0
        # at t = 0 the decay would zero w, which v = 0 already is
        if t:
            a *= t / (t + 1.0)
        if violates:
            violations += 1
            scale = eta * label / a
            delta = scale * x
            vi += delta
            v[idx] = vi
            # clamped: a step that cancels v can round ‖v‖² below zero
            v_sq = max(0.0, v_sq + scale * (2.0 * vx + scale * x_sq))
            if a_sum:
                ui = u[idx]
                ui += a_sum * delta
                u[idx] = ui
            b += eta * label
        norm = a * math.sqrt(v_sq)
        if norm > radius:
            a *= radius / norm
        if t >= tail_start:
            a_sum += a
            b_sum += b
            tail_count += 1
        if a < _FOLD_BELOW:
            # move the tail sum into u and restart S at 0 before v takes
            # the scale: S/a would grow with every fold, and S·v − u would
            # cancel more of its digits each time
            u -= a_sum * v
            a_sum = 0.0
            v *= a
            v_sq = float(v @ v)
            a = 1.0

    final_w = (a_sum * v - u) / tail_count
    final_b = b_sum / tail_count
    model = LinearSvm(weights=final_w, bias=final_b, C=C)
    return SvmFit(
        model=model,
        objective=svm_objective(final_w, final_b, rows, y, C),
        steps=steps,
        violations=violations,
    )


def task_labels(instances: Sequence[ArgumentInstance], task: Task) -> list[int]:
    """+1 where the task's mapped label is positive, else -1."""
    task = Task(task)
    return [
        1 if mapped_value(inst, task) is LabelValue.POSITIVE else -1
        for inst in instances
    ]


def predict_corpus(
    model: LinearSvm,
    rows: CsrRows,
    instances: Sequence[ArgumentInstance],
    task: Task,
) -> list[Prediction]:
    """Predict every instance from its TF-IDF row (``rows[i]`` is ``instances[i]``)."""
    task = Task(task)
    scores = rows.dots(model.weights) + model.bias
    return [
        Prediction(
            instance_id=inst.id,
            task=task,
            value=LabelValue.POSITIVE if score > 0 else LabelValue.NEGATIVE,
            source="svm",
        )
        for inst, score in zip(instances, scores.tolist())
    ]


def save_baseline(path: str | Path, model: LinearSvm, tfidf: TfidfModel) -> None:
    payload = {
        "vocabulary": tfidf.vocabulary,
        "idf": tfidf.idf,
        "document_count": tfidf.document_count,
        "weights": model.weights,
        "bias": model.bias,
        "C": model.C,
    }
    # the same text as one json.dumps of the payload, encoded a field at a
    # time: json.dumps holds every chunk of its input until it joins them
    fields = ", ".join(
        f"{json.dumps(key)}: "
        + json.dumps(
            value.tolist() if isinstance(value, np.ndarray) else value,
            ensure_ascii=False,
        )
        for key, value in payload.items()
    )
    atomic_write_text(Path(path), "{" + fields + "}")
