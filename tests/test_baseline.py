"""TF-IDF weighting and the primal-subgradient linear SVM."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valnov.baseline import (
    CsrRows,
    LinearSvm,
    TfidfModel,
    analyse,
    document_text,
    featurize,
    predict_corpus,
    save_baseline,
    svm_objective,
    svm_train,
    task_labels,
    tfidf_fit,
    tfidf_rows,
)
from valnov.cli import main
from valnov.config import BaselineSettings
from valnov.corpus import LabelValue, Split, Task, mapped_value, save_instances_jsonl
from valnov.errors import ConfigurationError, DataError
from valnov.synthetic import make_profile_splits, make_separable_corpus

from conftest import make_instance

# the 4-point toy problem used for the brute-force objective check;
# grid oracle over (w0, w1, b) in linspace(-4, 4, 100)^3 bottoms out at
# 1.352719110294868
TOY_X = [
    {0: 1.0, 1: 0.2},
    {0: 0.6, 1: -0.3},
    {0: -0.8, 1: 0.4},
    {0: -0.5, 1: -0.6},
]
TOY_Y = [1, 1, -1, -1]
TOY_GRID_OBJECTIVE = 1.352719110294868


def _weights(model, text):
    """{column: weight} of the one TF-IDF row of ``text``; {} is the zero vector."""
    row = tfidf_rows(model, analyse([text]))
    return dict(zip(row.indices.tolist(), row.values.tolist()))


class TestDocumentText:
    def test_concatenation(self):
        inst = make_instance(premise="guns kill", conclusion="ban guns")
        assert document_text(inst) == "guns kill ban guns"


class TestTfidf:
    def test_empty_corpus_rejected(self):
        with pytest.raises(ConfigurationError):
            tfidf_fit([])

    def test_idf_hand_values(self):
        model = tfidf_fit(["cats run", "cats sleep"])
        assert model.document_count == 2
        assert model.vocabulary == {"cat": 0, "run": 1, "sleep": 2}
        # smoothed idf: ln((1 + N) / (1 + df)) + 1
        assert model.idf[0] == pytest.approx(math.log(3 / 3) + 1.0)
        assert model.idf[1] == pytest.approx(math.log(3 / 2) + 1.0)
        assert model.idf[2] == pytest.approx(math.log(3 / 2) + 1.0)

    def test_transform_hand_values(self):
        model = tfidf_fit(["cats run", "cats sleep"])
        vec = _weights(model, "cats run")
        w_cat = 1.0 * 1.0
        w_run = 1.0 * (math.log(3 / 2) + 1.0)
        norm = math.hypot(w_cat, w_run)
        assert vec[0] == pytest.approx(w_cat / norm)
        assert vec[1] == pytest.approx(w_run / norm)
        assert set(vec) == {0, 1}

    def test_term_frequency_counts_repeats(self):
        model = tfidf_fit(["cat", "dog"])
        vec_single = _weights(model, "cat dog")
        vec_double = _weights(model, "cat cat dog")
        # same idf, tf 2 vs 1 on "cat" tilts the normalized weight
        assert vec_double[model.vocabulary["cat"]] > vec_single[model.vocabulary["cat"]]

    def test_unseen_terms_dropped(self):
        model = tfidf_fit(["cats run"])
        assert _weights(model, "dogs bark") == {}

    def test_stemming_folds_inflections(self):
        model = tfidf_fit(["run runs running"])
        assert len(model.vocabulary) == 1
        assert _weights(model, "running") == _weights(model, "run")

    def test_document_frequency_ignores_repeats_within_doc(self):
        model = tfidf_fit(["cat cat cat", "cat", "dog"])
        # df(cat)=2 not 4
        assert model.idf[model.vocabulary["cat"]] == pytest.approx(
            math.log(4 / 3) + 1.0
        )

    @settings(max_examples=60)
    @given(st.text(alphabet="abcd ", max_size=40))
    def test_transform_norm_is_one_or_zero(self, text):
        model = tfidf_fit(["ab cd", "ab ab", "dc ba"])
        vec = _weights(model, text)
        norm = math.sqrt(sum(v * v for v in vec.values()))
        assert norm == pytest.approx(1.0) or norm == 0.0


class TestSvmObjective:
    def test_hand_value(self):
        # w=(1,0), b=0: margin of the only point is -2, hinge = 3
        value = svm_objective(np.array([1.0, 0.0]), 0.0, [{0: 2.0}], [-1], C=2.0)
        assert value == pytest.approx(0.5 * 1.0 + 2.0 * 3.0)

    def test_zero_weights(self):
        value = svm_objective(np.zeros(2), 0.0, TOY_X, TOY_Y, C=1.0)
        assert value == pytest.approx(4.0)  # every point at hinge 1


class TestSvmTrain:
    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            svm_train([{0: 1.0}, {0: 2.0}], [1, 1], dim=1, C=1.0)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            svm_train([], [], dim=1, C=1.0)

    def test_nonpositive_c_rejected(self):
        with pytest.raises(ConfigurationError):
            svm_train(TOY_X, TOY_Y, dim=2, C=0.0)

    def test_near_optimal_on_toy_problem(self):
        fit = svm_train(TOY_X, TOY_Y, dim=2, C=1.0, seed=0)
        assert fit.objective <= TOY_GRID_OBJECTIVE * 1.02
        assert fit.objective >= TOY_GRID_OBJECTIVE * 0.98

    def test_deterministic_per_seed(self):
        a = svm_train(TOY_X, TOY_Y, dim=2, C=1.0, seed=3)
        b = svm_train(TOY_X, TOY_Y, dim=2, C=1.0, seed=3)
        assert np.array_equal(a.model.weights, b.model.weights)
        assert a.model.bias == b.model.bias
        assert a.objective == b.objective

    def test_tiny_c_shrinks_weights(self):
        # projection radius is sqrt(C*n)
        fit = svm_train(TOY_X, TOY_Y, dim=2, C=1e-6, steps=400)
        assert float(np.linalg.norm(fit.model.weights)) <= math.sqrt(1e-6 * 4) + 1e-12

    def test_symmetric_1d_bias_vanishes(self):
        fit = svm_train([{0: -1.0}, {0: 1.0}], [-1, 1], dim=1, C=10.0, steps=1000)
        w = float(fit.model.weights[0])
        assert w > 0
        assert abs(fit.model.bias / w) <= 0.1

    def test_tail_average_trace_nearly_monotone(self):
        # the trace of the dense oracle, whose iterates the solver matches
        fit = svm_train(TOY_X, TOY_Y, dim=2, C=1.0, steps=4000)
        *_, trace, _ = _dense_svm_oracle(TOY_X, TOY_Y, 2, C=1.0, steps=4000, trace_every=50)
        assert len(trace) >= 10
        for prev, cur in zip(trace, trace[1:]):
            assert cur <= prev + 1e-3 * max(1.0, abs(prev))
        assert trace[-1] == pytest.approx(fit.objective, rel=1e-6)

    @pytest.mark.parametrize("steps", [0, -1])
    def test_steps_below_one_rejected(self, steps):
        with pytest.raises(ConfigurationError, match="steps"):
            svm_train(TOY_X, TOY_Y, dim=2, C=1.0, steps=steps)


class TestBaselinePredict:
    def toy_models(self, bias):
        tfidf = TfidfModel(vocabulary={"cat": 0}, idf=np.array([1.0]), document_count=1)
        svm = LinearSvm(weights=np.array([2.0]), bias=bias, C=1.0)
        return svm, tfidf

    @staticmethod
    def predict_one(svm, tfidf, inst, task):
        rows = tfidf_rows(tfidf, analyse([document_text(inst)]))
        return predict_corpus(svm, rows, [inst], task)[0]

    def test_positive_half_space(self):
        svm, tfidf = self.toy_models(bias=-1.0)
        inst = make_instance(premise="cat", conclusion="cat")
        pred = self.predict_one(svm, tfidf, inst, Task.VALIDITY)
        assert pred.value is LabelValue.POSITIVE
        assert pred.source == "svm"
        assert not pred.flagged

    def test_zero_score_is_negative(self):
        svm, tfidf = self.toy_models(bias=0.0)
        inst = make_instance(premise="dog", conclusion="dog")  # zero vector
        assert self.predict_one(svm, tfidf, inst, Task.VALIDITY).value is LabelValue.NEGATIVE

    def test_unseen_text_follows_bias_sign(self):
        svm_pos, tfidf = self.toy_models(bias=0.5)
        svm_neg, _ = self.toy_models(bias=-0.5)
        inst = make_instance(premise="dog", conclusion="dog")
        assert self.predict_one(svm_pos, tfidf, inst, Task.NOVELTY).value is LabelValue.POSITIVE
        assert self.predict_one(svm_neg, tfidf, inst, Task.NOVELTY).value is LabelValue.NEGATIVE

    def test_predict_corpus_shape(self):
        svm, tfidf = self.toy_models(bias=1.0)
        instances = [make_instance(id=f"i{k}") for k in range(3)]
        rows = tfidf_rows(tfidf, analyse([document_text(inst) for inst in instances]))
        preds = predict_corpus(svm, rows, instances, Task.NOVELTY)
        assert [p.instance_id for p in preds] == ["i0", "i1", "i2"]
        assert all(p.task is Task.NOVELTY and p.source == "svm" for p in preds)


class TestFitBaseline:
    def test_default_regularization(self):
        settings = BaselineSettings()
        assert (settings.c_validity, settings.c_novelty) == (0.09, 4.7)

    @pytest.mark.parametrize("task", [Task.VALIDITY, Task.NOVELTY])
    def test_separates_marker_corpus(self, task):
        train, _ = make_separable_corpus(n_train=60, n_dev=0)
        tfidf, X, _ = featurize(train)
        y = task_labels(train, task)
        fit = svm_train(X, y, dim=len(tfidf.vocabulary), C=1.0, seed=0)
        preds = predict_corpus(fit.model, X, train, task)
        gold_positive = {
            inst.id for inst in train if mapped_value(inst, task) is LabelValue.POSITIVE
        }
        predicted_positive = {
            p.instance_id for p in preds if p.value is LabelValue.POSITIVE
        }
        assert predicted_positive == gold_positive

    def test_uses_task_default_c(self, tmp_path):
        train, _ = make_separable_corpus(n_train=24, n_dev=0)
        save_instances_jsonl(train, tmp_path / "train.jsonl")
        code = main(
            ["baseline", "--run-dir", str(tmp_path / "run"), "--task", "novelty",
             "--train", str(tmp_path / "train.jsonl"), "--on", str(tmp_path / "train.jsonl")]
        )
        assert code == 0
        model = json.loads((tmp_path / "run" / "model-novelty.json").read_text(encoding="utf-8"))
        assert model["C"] == BaselineSettings().c_novelty


def test_saved_model_is_one_json_document(tmp_path):
    tfidf = TfidfModel(
        vocabulary={"äpfel": 0, "cat": 1}, idf=np.array([1.5, 1.0]), document_count=3
    )
    svm = LinearSvm(weights=np.array([0.25, -1e-13]), bias=-0.5, C=0.09)
    save_baseline(tmp_path / "model.json", svm, tfidf)
    expected = {
        "vocabulary": tfidf.vocabulary,
        "idf": [1.5, 1.0],
        "document_count": 3,
        "weights": [0.25, -1e-13],
        "bias": -0.5,
        "C": 0.09,
    }
    text = (tmp_path / "model.json").read_text(encoding="utf-8")
    assert text == json.dumps(expected, ensure_ascii=False)


def _dense_svm_oracle(X, y, dim, C, steps=None, seed=0, trace_every=0):
    """The dense O(vocabulary)-per-step solver the sparse one replaced,
    kept verbatim apart from counting projections: (w, b, trace, projections)."""

    def sparse_dot(weights, x):
        return sum(weights[idx] * value for idx, value in x.items())

    n = len(X)
    if steps is None:
        steps = 50 * n
    lam = 1.0 / (C * n)
    radius = 1.0 / math.sqrt(lam)
    rng = np.random.default_rng(seed)

    w = np.zeros(dim)
    b = 0.0
    tail_start = steps // 2
    avg_w = np.zeros(dim)
    avg_b = 0.0
    avg_count = 0
    trace = []
    projections = 0
    order = np.empty(0, dtype=np.int64)

    for t in range(steps):
        if t % n == 0:
            order = rng.permutation(n)
        i = int(order[t % n])
        eta = 1.0 / (lam * (t + 1))
        violates = y[i] * (sparse_dot(w, X[i]) + b) < 1.0
        w *= t / (t + 1.0)
        if violates:
            for idx, value in X[i].items():
                w[idx] += eta * y[i] * value
            b += eta * y[i]
        norm = float(np.linalg.norm(w))
        if norm > radius:
            w *= radius / norm
            projections += 1
        if t >= tail_start:
            avg_w += w
            avg_b += b
            avg_count += 1
            if trace_every and avg_count % trace_every == 0:
                trace.append(svm_objective(avg_w / avg_count, avg_b / avg_count, X, y, C))
    return avg_w / avg_count, avg_b / avg_count, trace, projections


def _random_sparse_problem(seed, n, dim, nnz, scale=1.0, noise=0.3):
    """Rows with up to ``nnz`` nonzeros (row 0 has none), labels from a
    noisy hidden hyperplane with both classes present."""
    rng = np.random.default_rng(seed)
    hidden = rng.normal(size=dim)

    def row(k):
        idx = rng.choice(dim, size=int(rng.integers(1, nnz + 1)), replace=False)
        return {int(i): float(v) for i, v in zip(idx, scale * rng.normal(size=len(idx)))}

    X = [{}] + [row(k) for k in range(1, n)]
    y = [
        1 if sum(hidden[i] * v for i, v in x.items()) + noise * rng.normal() > 0 else -1
        for x in X
    ]
    y[1], y[2] = 1, -1
    held_out = [row(k) for k in range(50)]
    return X, y, held_out


class TestSparseSolverMatchesDenseOracle:
    """The scaled-vector solver does the dense loop's arithmetic in
    another order: weights and bias agree to rounding, signs exactly."""

    @staticmethod
    def assert_matches(X, y, dim, held_out, **kwargs):
        fit = svm_train(X, y, dim=dim, **kwargs)
        w, b, _, projections = _dense_svm_oracle(X, y, dim, **kwargs)
        scale = max(1.0, float(np.abs(w).max()))
        assert float(np.abs(fit.model.weights - w).max()) <= 1e-9 * scale
        assert fit.model.bias == pytest.approx(b, rel=1e-9, abs=1e-9)
        for x in held_out:
            ours = sum(fit.model.weights[i] * v for i, v in x.items()) + fit.model.bias
            theirs = sum(w[i] * v for i, v in x.items()) + b
            assert (ours > 0) == (theirs > 0)
        return fit, projections

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_default_schedule(self, seed):
        X, y, held_out = _random_sparse_problem(seed, n=40, dim=60, nnz=8)
        self.assert_matches(X, y, 60, held_out, C=1.0, seed=seed)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_tiny_c(self, seed):
        X, y, held_out = _random_sparse_problem(seed, n=30, dim=50, nnz=6)
        fit, _ = self.assert_matches(X, y, 50, held_out, C=1e-5, steps=900, seed=seed)
        assert float(np.linalg.norm(fit.model.weights)) <= math.sqrt(1e-5 * 30)

    @pytest.mark.parametrize("seed", [5, 6])
    def test_projection_after_every_violation(self, seed):
        # a violating step moves w by about C·n·‖x‖/(t+1), above the
        # radius √(C·n) for t < √(C·n)·‖x‖, about 2000 here, and noisy
        # labels keep 40% of steps violating: the scale a shrinks by
        # orders of magnitude and is folded into v dozens of times
        X, y, held_out = _random_sparse_problem(
            seed, n=60, dim=12, nnz=6, scale=5.0, noise=3.0
        )
        steps = 1000
        _, projections = self.assert_matches(
            X, y, 12, held_out, C=1000.0, steps=steps, seed=seed
        )
        assert projections > steps // 3

    def test_steps_not_a_multiple_of_n(self):
        X, y, held_out = _random_sparse_problem(7, n=37, dim=45, nnz=7)
        self.assert_matches(X, y, 45, held_out, C=0.5, steps=1001, seed=7)

    def test_dict_rows_and_csr_rows_train_identically(self):
        X, y, _ = _random_sparse_problem(8, n=20, dim=30, nnz=5)
        from_dicts = svm_train(X, y, dim=30, C=1.0, seed=1)
        from_csr = svm_train(CsrRows.from_dicts(X), y, dim=30, C=1.0, seed=1)
        assert np.array_equal(from_dicts.model.weights, from_csr.model.weights)
        assert from_dicts.model.bias == from_csr.model.bias
        assert from_dicts.violations == from_csr.violations


# sha256 of predictions.csv from `baseline --task both` on the corpus in
# test_cli_predictions_are_byte_stable, recorded with the dense solver
GOLDEN_PREDICTIONS_SHA256 = "86f88a425b9d00d6065dfc652e5b5f19ad72f452cd74b5e4afeea6c562928d5e"


def test_cli_predictions_are_byte_stable(tmp_path):
    splits = make_profile_splits(seed=0)
    save_instances_jsonl(splits[Split.TRAIN][:240], tmp_path / "train.jsonl")
    save_instances_jsonl(splits[Split.TEST][:120], tmp_path / "test.jsonl")
    # C = 1 for validity so both of its labels are predicted
    (tmp_path / "config.json").write_text(json.dumps({"baseline": {"c_validity": 1.0}}))
    code = main(
        ["baseline", "--config", str(tmp_path / "config.json"),
         "--run-dir", str(tmp_path / "run"), "--train", str(tmp_path / "train.jsonl"),
         "--on", str(tmp_path / "test.jsonl"), "--task", "both"]
    )
    assert code == 0
    data = (tmp_path / "run" / "predictions.csv").read_bytes()
    assert {line.split(b",")[2] for line in data.splitlines()[1:]} == {
        b"positive",
        b"negative",
    }
    assert hashlib.sha256(data).hexdigest() == GOLDEN_PREDICTIONS_SHA256


def _zipf_corpus(seed, n, prefix):
    """Instances over a Zipfian pseudo-word vocabulary with inflections,
    edge punctuation and a few label cue words in the conclusion."""
    rng = np.random.default_rng(seed)
    syllables = [c + v for c in "bdfgklmnprstvz" for v in "aeiouy"]
    vocab = sorted(
        {"".join(rng.choice(syllables, size=rng.integers(2, 5))) for _ in range(3000)}
    )
    weights = 1.0 / np.arange(1, len(vocab) + 1)
    weights /= weights.sum()
    suffixes = ["s", "es", "ed", "ing", "ly", "ness", "ement", "ational", "ies", "fulness"]
    marks = ["", "", "", "", ",", ".", "(", ")", "'s", '"', "—"]

    def text(size, cues=()):
        words = list(rng.choice(vocab, size=size, p=weights)) + list(cues)
        out = []
        for word in words:
            if rng.random() < 0.3:
                word += suffixes[rng.integers(len(suffixes))]
            mark = marks[rng.integers(len(marks))]
            out.append(mark + word if mark in ("(", '"') else word + mark)
        return " ".join(out).capitalize()

    instances = []
    for i in range(n):
        validity, novelty = int(rng.integers(2)) * 2 - 1, int(rng.integers(2)) * 2 - 1
        cues = [f"v{validity + 1}cue", f"n{novelty + 1}cue"] if rng.random() < 0.7 else []
        instances.append(
            make_instance(
                id=f"{prefix}{i:04d}",
                premise=text(int(rng.integers(20, 40))),
                conclusion=text(int(rng.integers(6, 12)), cues),
                validity=validity,
                novelty=novelty,
            )
        )
    return instances


# sha256 of each file `baseline --task both` writes for _zipf_corpus,
# recorded before the tokenize, stemming and solver fast paths
GOLDEN_ZIPF_BASELINE_SHA256 = {
    "model-validity.json": "2cec8a1fdaa2fb0cdf23c0fdf4e58b0051d74da772c59b48e4ebca0b6fd86bda",
    "model-novelty.json": "2bcac1a3141c74081229d83d7a2f03a5e5150692a52f0a19f9826031dff5d4bf",
    "predictions.csv": "3660993fe72c0d22a25551fcd9f8885ba840f003759ab7ff09e05227cf36886e",
    "baseline-stats.json": "1d93900d1b849a2b247884fa930d0347270c78ac1797399b2993ecf4cc335634",
}


def test_zipf_baseline_outputs_are_byte_stable(tmp_path):
    save_instances_jsonl(_zipf_corpus(11, 400, "tr"), tmp_path / "train.jsonl")
    save_instances_jsonl(_zipf_corpus(12, 150, "te"), tmp_path / "test.jsonl")
    # C = 1 for validity so both of its labels are predicted
    (tmp_path / "config.json").write_text(json.dumps({"baseline": {"c_validity": 1.0}}))
    code = main(
        ["baseline", "--config", str(tmp_path / "config.json"), "--run-dir", str(tmp_path / "run"),
         "--train", str(tmp_path / "train.jsonl"), "--on", str(tmp_path / "test.jsonl"),
         "--task", "both"]
    )
    assert code == 0
    rows = (tmp_path / "run" / "predictions.csv").read_text().splitlines()[1:]
    assert {tuple(row.split(",")[1:3]) for row in rows} == {
        (task, value) for task in ("validity", "novelty") for value in ("positive", "negative")
    }
    digests = {
        name: hashlib.sha256((tmp_path / "run" / name).read_bytes()).hexdigest()
        for name in GOLDEN_ZIPF_BASELINE_SHA256
    }
    assert digests == GOLDEN_ZIPF_BASELINE_SHA256
