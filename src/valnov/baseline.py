"""TF-IDF + linear SVM baseline.

Stems and counts the concatenated premise/conclusion text, weights
counts by smoothed inverse document frequency with L2 normalization,
and trains one linear SVM per task by dual coordinate descent, the
solver of LIBLINEAR, with the bias as a constant feature.

Each document is tokenized and stemmed once per ``analyse`` call, and
the weighted documents are held as one CSR matrix (``CsrRows``). A
solver step reads and updates the weights only at one example's
nonzeros, so it costs O(nnz(x)), not O(vocabulary).
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, Sequence

import numpy as np

from .corpus import ArgumentInstance, LabelValue, Task, mapped_value
from .encoder import tokenize
from .errors import ConfigurationError, DataError
from .fsutil import atomic_write_text, model_json, pack_params
from .predictions import Prediction
from .stemming import stem

SparseVector = dict[int, float]

# svm_train stops after a pass whose projected gradients spread by less
# than this
_TOLERANCE = 1e-3


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
    steps: int  # coordinate steps run
    passes: int  # passes begun over the examples
    spread: float  # max − min projected gradient over the last pass
    converged: bool  # the spread, not the steps cap, ended the solve
    violations: int  # steps whose example was inside the margin


def svm_objective(
    weights: np.ndarray,
    bias: float,
    X: CsrRows | Sequence[SparseVector],
    y: Sequence[int],
    C: float,
) -> float:
    """Primal value (1/2)‖w‖² + C·Σ hinge, the bias unregularised."""
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
    """Dual coordinate descent on the hinge-loss SVM (Hsieh et al., 2008).

    The bias is a constant feature of value 1, so it is regularised by
    ½b² as in LIBLINEAR. Each pass visits the examples in a seeded
    permutation. A step moves one dual variable α_i to the minimum of
    the dual along its coordinate, clipped to [0, C], and adds the
    change times y_i·x_i to w at the example's nonzeros, so it costs
    O(nnz(x)). The solve stops after the first whole pass whose
    projected gradients spread by less than ``_TOLERANCE`` (max − min,
    LIBLINEAR's stopping measure), or after ``steps`` coordinate steps,
    1000 passes by default.

    A step gathers w at the example's indices once and takes
    ``ndarray.dot``: for two float64 vectors it calls the same BLAS dot
    as ``@``, without the matmul dispatch that dominates a dot of a few
    dozen elements. An update adds to that gathered copy and scatters
    it back, the values ``w[idx] += delta`` would store (the indices of
    a row are distinct).
    """
    n = len(X)
    if n == 0 or set(y) != {-1, 1}:
        raise DataError("svm_train needs at least one example of each class")
    if C <= 0:
        raise ConfigurationError("C must be positive")
    if steps is None:
        steps = 1000 * n
    if steps < 1:
        raise ConfigurationError("steps must be >= 1")
    c = float(C)
    if math.isinf(c * n):
        raise ConfigurationError(f"C = {C} is too large for {n} examples: C*n overflows")
    rows = _as_rows(X)
    rng = np.random.default_rng(seed)

    bounds = rows.indptr.tolist()
    examples = []
    for lo, hi, label in zip(bounds, bounds[1:], y):
        x = rows.values[lo:hi]
        examples.append((rows.indices[lo:hi], x, float(label), float(x @ x) + 1.0))

    w = np.zeros(dim)
    b = 0.0
    alpha = [0.0] * n
    taken = passes = violations = 0
    converged = False
    while not converged and taken < steps:
        order = rng.permutation(n).tolist()[: steps - taken]
        pg_max, pg_min = -math.inf, math.inf
        for i in order:
            idx, x, label, q = examples[i]
            wi = w[idx]
            g = label * (float(wi.dot(x)) + b) - 1.0  # dual gradient
            a = alpha[i]
            if g < 0.0:
                violations += 1
                pg = g if a < c else 0.0
            else:
                pg = g if a > 0.0 else 0.0
            if pg > pg_max:
                pg_max = pg
            if pg < pg_min:
                pg_min = pg
            if pg:
                alpha[i] = new = min(max(a - g / q, 0.0), c)
                delta = (new - a) * label
                wi += delta * x
                w[idx] = wi
                b += delta
        taken += len(order)
        passes += 1
        spread = pg_max - pg_min
        converged = len(order) == n and spread < _TOLERANCE

    model = LinearSvm(weights=w, bias=b, C=C)
    return SvmFit(
        model=model,
        objective=svm_objective(w, b, rows, y, C),
        steps=taken,
        passes=passes,
        spread=spread,
        converged=converged,
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


@dataclass(frozen=True)
class BaselineModel:
    """The TF-IDF model (``vocabulary`` lists its terms in index order) and
    each task's SVM (``C`` and ``bias`` in ``tasks``, weights in ``params``)."""

    FORMAT: ClassVar[str] = "valnov-baseline-model"
    VERSION: ClassVar[int] = 1
    document_count: int
    vocabulary: list[str]
    tasks: dict[str, dict[str, float]]
    params: dict[str, dict]


def save_baseline(path: str | Path, tfidf: TfidfModel, models: dict[Task, LinearSvm]) -> None:
    """One model file for the TF-IDF model and each task's SVM."""
    params = {"idf": tfidf.idf}
    params.update({f"{task.value}.weights": model.weights for task, model in models.items()})
    record = BaselineModel(
        document_count=tfidf.document_count,
        vocabulary=sorted(tfidf.vocabulary, key=tfidf.vocabulary.__getitem__),
        tasks={task.value: {"C": model.C, "bias": model.bias} for task, model in models.items()},
        params=pack_params(params),
    )
    atomic_write_text(Path(path), model_json(record))
