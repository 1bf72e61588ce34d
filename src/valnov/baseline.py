"""TF-IDF + linear SVM baseline.

Stems and counts the concatenated premise/conclusion text, weights
counts by smoothed inverse document frequency with L2 normalization,
and trains one linear SVM per task by dual coordinate descent, the
solver of LIBLINEAR, with the bias as a constant feature.

The corpus has one analysed form, ``AnalysedCorpus``: the stem id of
every token in one flat int32 array, each document's offsets into it,
and the stem strings indexed by id. ``analyse`` builds it, tokenizing
each document and stemming each distinct token once. ``tfidf_fit`` and
``tfidf_rows`` work on it ``_BLOCK`` documents at a time with numpy: a
stable sort of (document, stem) keys finds each pair's first token and
count, so a block costs a few array passes instead of a ``Counter`` per
document, and the temporaries stay the size of one block. Given raw
texts, ``tfidf_fit`` stems every token where it occurs, as the
per-document fit did, and builds the same record from the stems with
``AnalysedCorpus.from_terms``.

The rows keep the bytes of the per-document loop they replace. Each row
lists its terms in first-occurrence order, and its norm adds the
squared weights left to right from 0, as ``sum`` of floats does through
Python 3.11 (``np.bincount`` with weights adds in input order; a numpy
reduction would add pairwise). The idf of each document frequency comes
from ``math.log``.

The weighted documents are held as one CSR matrix (``CsrRows``). A
solver step reads and updates the weights only at one example's
nonzeros, so it costs O(nnz(x)), not O(vocabulary).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import compress
from pathlib import Path
from typing import ClassVar, Iterable, Sequence

import numpy as np

from .corpus import ArgumentInstance, Task
from .encoder import tokenize
from .errors import ConfigurationError, DataError
from .fsutil import atomic_write_text, model_json, pack_params
from .predictions import Prediction, labelled
from .stemming import stem

SparseVector = dict[int, float]

# svm_train stops after a pass whose projected gradients spread by less
# than this
_TOLERANCE = 1e-3

# documents per block of the bulk TF-IDF passes
_BLOCK = 128


def document_text(instance: ArgumentInstance) -> str:
    return f"{instance.premise} {instance.conclusion}"


@dataclass(frozen=True, eq=False)
class AnalysedCorpus:
    """Documents as stem ids: document i is ``ids[offsets[i]:offsets[i + 1]]``,
    and id k stands for ``stems[k]``."""

    ids: np.ndarray  # int32, the stem id of every token, document after document
    offsets: np.ndarray  # int64, one longer than the document count
    stems: list[str]  # indexed by stem id

    def __len__(self) -> int:
        return len(self.offsets) - 1

    @classmethod
    def from_terms(cls, documents: Sequence[list[str]]) -> AnalysedCorpus:
        """The record of documents given as their stems, ids numbered in
        order of first occurrence as ``analyse`` numbers them."""
        stem_ids: dict[str, int] = {}
        ids = array(
            "i", [stem_ids.setdefault(term, len(stem_ids)) for terms in documents for term in terms]
        )
        offsets = np.zeros(len(documents) + 1, dtype=np.int64)
        np.cumsum([len(terms) for terms in documents], out=offsets[1:])
        return cls(ids=np.frombuffer(ids, dtype=np.int32), offsets=offsets, stems=list(stem_ids))

    def __getitem__(self, docs: slice) -> AnalysedCorpus:
        """The documents of ``docs`` (a slice of step 1), over the same stems."""
        lo, hi, _ = docs.indices(len(self))
        start = self.offsets[lo]
        return AnalysedCorpus(
            ids=self.ids[start : self.offsets[hi]],
            offsets=self.offsets[lo : hi + 1] - start,
            stems=self.stems,
        )

    def token_documents(self) -> np.ndarray:
        """The document index of every token."""
        return np.repeat(np.arange(len(self), dtype=np.int64), np.diff(self.offsets))


def analyse(documents: Iterable[str]) -> AnalysedCorpus:
    """Tokenize every document and stem each distinct token once; stem
    ids are numbered in order of first occurrence."""
    memo: dict[str, int] = {}  # token -> stem id
    stem_ids: dict[str, int] = {}
    ids = array("i")
    offsets = array("q", [0])
    for document in documents:
        for token in tokenize(document):
            stem_id = memo.get(token)
            if stem_id is None:
                stem_id = memo[token] = stem_ids.setdefault(stem(token), len(stem_ids))
            ids.append(stem_id)
        offsets.append(len(ids))
    return AnalysedCorpus(
        ids=np.frombuffer(ids, dtype=np.int32),
        offsets=np.frombuffer(offsets, dtype=np.int64),
        stems=list(stem_ids),
    )


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


def tfidf_fit(documents: Sequence[str] | AnalysedCorpus) -> TfidfModel:
    """Fit vocabulary and smoothed idf: ln((1 + N) / (1 + df)) + 1.

    ``documents`` are raw texts or an ``analyse`` result.
    """
    if not documents:
        raise ConfigurationError("cannot fit TF-IDF on an empty corpus")
    if not isinstance(documents, AnalysedCorpus):
        # raw texts: stem every token where it occurs, as the per-document
        # fit always has (a traced fit counts one stem call per token)
        documents = AnalysedCorpus.from_terms(
            [[stem(token) for token in tokenize(document)] for document in documents]
        )
    n_stems = len(documents.stems)
    df = np.zeros(n_stems, dtype=np.int64)
    for lo in range(0, len(documents), _BLOCK):
        block = documents[lo : lo + _BLOCK]
        # the first token of each (document, stem)
        first = _first_counts(block.token_documents() * n_stems + block.ids) > 0
        np.add.at(df, block.ids[first], 1)
    present = df > 0
    terms = sorted(compress(documents.stems, present.tolist()))
    vocabulary = dict(zip(terms, range(len(terms))))
    n_docs = len(documents)
    idf_of_df = [math.log((1 + n_docs) / (1 + d)) + 1.0 for d in range(df.max(initial=0) + 1)]
    idf = np.empty(len(terms))
    idf[_columns(vocabulary, documents.stems)[present]] = np.array(idf_of_df)[df[present]]
    return TfidfModel(vocabulary=vocabulary, idf=idf, document_count=n_docs)


def _columns(vocabulary: dict[str, int], stems: list[str]) -> np.ndarray:
    """The column of each stem id, or -1 for a stem not in ``vocabulary``."""
    return np.fromiter((vocabulary.get(term, -1) for term in stems), np.int64, len(stems))


def _first_counts(keys: np.ndarray) -> np.ndarray:
    """How often each key occurs, at the position of its first occurrence;
    0 at every later one.

    ``np.unique(..., return_index=True, return_counts=True)`` gives the
    same, but its first call in a process imports ``numpy.ma``, about
    1.7 MB of resident memory for a baseline stage that peaks near 45.
    """
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    new = np.ones(len(keys), dtype=bool)
    np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    counts = np.zeros(len(keys), dtype=np.int64)
    counts[order[starts]] = np.diff(starts, append=len(keys))
    return counts


def tfidf_rows(model: TfidfModel, analysed: AnalysedCorpus) -> CsrRows:
    """tf·idf rows of analysed documents, L2-normalized; unseen terms
    dropped, so a document with no known term is an empty row.

    Each row lists its terms in first-occurrence order, and its squared
    weights are added left to right, as a loop over the document's
    term counts would add them.
    """
    column = _columns(model.vocabulary, analysed.stems)
    width = len(model.vocabulary)
    # a row has at most one entry per token: fill buffers of that size,
    # then cut them to the entries written
    indptr = np.zeros(len(analysed) + 1, dtype=np.int64)
    indices = np.empty(len(analysed.ids), dtype=np.int64)
    values = np.empty(len(analysed.ids), dtype=np.float64)
    nnz = 0
    for lo in range(0, len(analysed), _BLOCK):
        block = analysed[lo : lo + _BLOCK]
        cols = column[block.ids]
        known = cols >= 0
        row, col = block.token_documents()[known], cols[known]
        # one entry per (document, column), at its first token
        tf = _first_counts(row * width + col)
        first = tf > 0
        row, col = row[first], col[first]
        weight = tf[first] * model.idf[col]
        # bincount adds each row's squares in entry order, starting from 0.0
        norm = np.sqrt(np.bincount(row, weights=weight * weight, minlength=len(block)))
        stop = nnz + len(col)
        indptr[lo + 1 : lo + 1 + len(block)] = nnz + np.cumsum(
            np.bincount(row, minlength=len(block))
        )
        indices[nnz:stop] = col
        np.divide(weight, norm[row], out=values[nnz:stop])
        nnz = stop
    indices.resize(nnz, refcheck=False)
    values.resize(nnz, refcheck=False)
    return CsrRows(indptr=indptr, indices=indices, values=values)


def featurize(
    train: Sequence[ArgumentInstance], targets: Sequence[ArgumentInstance] = ()
) -> tuple[TfidfModel, CsrRows, CsrRows]:
    """Analyse every document once, fit TF-IDF on ``train``, and weight
    both sets: (model, train rows, target rows)."""
    analysed = analyse(document_text(inst) for inst in (*train, *targets))
    train_docs, target_docs = analysed[: len(train)], analysed[len(train) :]
    tfidf = tfidf_fit(train_docs)
    return tfidf, tfidf_rows(tfidf, train_docs), tfidf_rows(tfidf, target_docs)


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


def predict_corpus(
    model: LinearSvm,
    rows: CsrRows,
    instances: Sequence[ArgumentInstance],
    task: Task,
) -> list[Prediction]:
    """Predict every instance from its TF-IDF row (``rows[i]`` is
    ``instances[i]``); a zero score is negative."""
    return labelled(instances, task, rows.dots(model.weights) + model.bias > 0, "svm")


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
