"""TF-IDF weighting and the dual-coordinate-descent linear SVM."""

import hashlib
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valnov import baseline
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
    tfidf_fit,
    tfidf_rows,
)
from valnov.cli import main
from valnov.config import BaselineSettings, RunConfig
from valnov.corpus import LabelValue, Split, Task, mapped_value, positive, save_instances_jsonl
from valnov.encoder import tokenize
from valnov.errors import ConfigurationError, DataError, TrainingError
from valnov.fsutil import unpack_params
from valnov.stemming import stem
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
        # at the optimum ‖w‖² + b² ≤ Σα ≤ C·n
        fit = svm_train(TOY_X, TOY_Y, dim=2, C=1e-6, steps=400)
        assert float(np.linalg.norm(fit.model.weights)) <= math.sqrt(1e-6 * 4) + 1e-12

    def test_symmetric_1d_bias_vanishes(self):
        fit = svm_train([{0: -1.0}, {0: 1.0}], [-1, 1], dim=1, C=10.0, steps=1000)
        w = float(fit.model.weights[0])
        assert w > 0
        assert abs(fit.model.bias / w) <= 0.1

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
        y = np.where(positive(train, task), 1, -1).tolist()
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
        model = json.loads((tmp_path / "run" / "baseline-model.json").read_text(encoding="utf-8"))
        assert model["tasks"]["novelty"]["C"] == BaselineSettings().c_novelty


@pytest.mark.parametrize("task_arg", ["both", "validity"])
def test_saved_model_decodes_bit_equal_to_the_fit(tmp_path, task_arg):
    train, dev = make_separable_corpus(n_train=24, n_dev=8)
    save_instances_jsonl(train, tmp_path / "train.jsonl")
    save_instances_jsonl(dev, tmp_path / "dev.jsonl")
    code = main(
        ["baseline", "--run-dir", str(tmp_path / "run"), "--task", task_arg,
         "--train", str(tmp_path / "train.jsonl"), "--on", str(tmp_path / "dev.jsonl")]
    )
    assert code == 0
    path = tmp_path / "run" / "baseline-model.json"
    saved = json.loads(path.read_text(encoding="utf-8"))

    settings = BaselineSettings()
    tfidf, X, _ = featurize(train, dev)
    tasks = [Task.VALIDITY, Task.NOVELTY] if task_arg == "both" else [Task.VALIDITY]
    fits = {
        task: svm_train(
            X, np.where(positive(train, task), 1, -1).tolist(), dim=len(tfidf.vocabulary),
            C=getattr(settings, f"c_{task.value}"), steps=settings.steps, seed=RunConfig().seed,
        ).model
        for task in tasks
    }
    expected = {"idf": tfidf.idf}
    expected.update({f"{task.value}.weights": fit.weights for task, fit in fits.items()})
    live = {name: np.full(arr.shape, 7.0) for name, arr in expected.items()}
    unpack_params(saved["params"], live, path)  # exactly these names, or SchemaError
    for name, arr in expected.items():
        assert live[name].tobytes() == arr.tobytes(), name

    assert (saved["format"], saved["version"]) == ("valnov-baseline-model", 1)
    assert saved["document_count"] == len(train)
    assert {term: i for i, term in enumerate(saved["vocabulary"])} == tfidf.vocabulary
    assert saved["tasks"] == {
        task.value: {"C": fit.C, "bias": fit.bias} for task, fit in fits.items()
    }


def test_saved_vocabulary_is_in_index_order(tmp_path):
    tfidf = TfidfModel(
        vocabulary={"cat": 1, "äpfel": 0}, idf=np.array([1.5, 1.0]), document_count=3
    )
    svm = LinearSvm(weights=np.array([0.25, -1e-13]), bias=-0.5, C=0.09)
    save_baseline(tmp_path / "model.json", tfidf, {Task.NOVELTY: svm})
    saved = json.loads((tmp_path / "model.json").read_text(encoding="utf-8"))
    assert saved["vocabulary"] == ["äpfel", "cat"]


def test_non_finite_weight_is_a_training_error(tmp_path):
    tfidf = TfidfModel(vocabulary={"cat": 0, "dog": 1}, idf=np.array([1.5, 1.0]), document_count=3)
    models = {
        Task.VALIDITY: LinearSvm(weights=np.array([0.25, 1.0]), bias=-0.5, C=0.09),
        Task.NOVELTY: LinearSvm(weights=np.array([np.nan, 1.0]), bias=0.5, C=4.7),
    }
    with pytest.raises(TrainingError, match="'novelty.weights' has non-finite values"):
        save_baseline(tmp_path / "model.json", tfidf, models)
    assert list(tmp_path.iterdir()) == []


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
    return X, y


def _regularised_primal(fit, X, y):
    """The objective the solver minimises: ``svm_objective`` plus ½b²."""
    model = fit.model
    return svm_objective(model.weights, model.bias, X, y, model.C) + 0.5 * model.bias**2


# (problem seed, _random_sparse_problem keywords, C), at C = 1e-5, 0.5 and 1
CONVERGING_PROBLEMS = [
    *[(seed, dict(n=40, dim=60, nnz=8), 1.0) for seed in (0, 1, 2)],
    *[(seed, dict(n=30, dim=50, nnz=6), 1e-5) for seed in (3, 4)],
    (7, dict(n=37, dim=45, nnz=7), 0.5),
]

# (problem seed, primal value of the projected-subgradient solver after
# 1000·n steps) at C = 1000, with noisy labels on 12 features
LARGE_C_PROBLEMS = [(5, 257330.45705853967), (6, 122384.12669592214)]


class TestSolverOptimality:
    @pytest.mark.parametrize("seed, shape, C", CONVERGING_PROBLEMS)
    def test_tolerance_solve_is_near_the_tight_one(self, monkeypatch, seed, shape, C):
        X, y = _random_sparse_problem(seed, **shape)
        fit = svm_train(X, y, dim=shape["dim"], C=C, seed=seed)
        monkeypatch.setattr(baseline, "_TOLERANCE", 1e-6)
        tight = svm_train(X, y, dim=shape["dim"], C=C, seed=seed)
        assert fit.converged and tight.converged
        assert fit.spread < 1e-3 and tight.spread < 1e-6
        ours, best = _regularised_primal(fit, X, y), _regularised_primal(tight, X, y)
        assert best <= ours <= best * (1 + 2e-3)

    @pytest.mark.parametrize("seed, subgradient_objective", LARGE_C_PROBLEMS)
    def test_large_c_on_few_features_stops_at_the_cap(self, seed, subgradient_objective):
        # dual coordinate descent converges slowly when C is large and
        # the examples far outnumber the features: the spread stays
        # above the tolerance for all 1000 passes, and the fit says so
        X, y = _random_sparse_problem(seed, n=60, dim=12, nnz=6, scale=5.0, noise=3.0)
        fit = svm_train(X, y, dim=12, C=1000.0, seed=seed)
        assert (fit.steps, fit.passes) == (1000 * 60, 1000)
        assert not fit.converged
        assert fit.spread >= baseline._TOLERANCE
        assert fit.objective <= subgradient_objective

    @pytest.mark.parametrize("steps", [1, 39, 40 + 7])
    def test_steps_cap_ends_the_solve(self, steps):
        X, y = _random_sparse_problem(0, n=40, dim=60, nnz=8)
        fit = svm_train(X, y, dim=60, C=1.0, steps=steps, seed=0)
        assert fit.steps == steps
        assert fit.passes == -(-steps // 40)
        assert not fit.converged

    def test_a_solve_that_converges_stops_at_a_pass_end(self):
        X, y = _random_sparse_problem(0, n=40, dim=60, nnz=8)
        fit = svm_train(X, y, dim=60, C=1.0, seed=0)
        assert fit.converged
        assert fit.steps == 40 * fit.passes
        capped = svm_train(X, y, dim=60, C=1.0, steps=fit.steps, seed=0)
        assert capped.converged
        assert np.array_equal(capped.model.weights, fit.model.weights)

    def test_dict_rows_and_csr_rows_train_identically(self):
        X, y = _random_sparse_problem(8, n=20, dim=30, nnz=5)
        from_dicts = svm_train(X, y, dim=30, C=1.0, seed=1)
        from_csr = svm_train(CsrRows.from_dicts(X), y, dim=30, C=1.0, seed=1)
        assert np.array_equal(from_dicts.model.weights, from_csr.model.weights)
        assert from_dicts.model.bias == from_csr.model.bias
        assert from_dicts.violations == from_csr.violations


# sha256 of predictions.csv from `baseline --task both` on the corpus in
# test_cli_predictions_are_byte_stable, recorded with the dual solver
GOLDEN_PREDICTIONS_SHA256 = "d8fc7da0398d9ac9a8bb412e0fcc365e03bcdb0222a9b67a1b5b4c1381b35306"


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
# recorded with the dual solver
GOLDEN_ZIPF_BASELINE_SHA256 = {
    "baseline-model.json": "6ec891ffec8f59d4dcb68130b39e587fc8fbd6159bb576bf86011e41f52b5515",
    "predictions.csv": "6dba1f647512310ec9f8ba30abd1b8318766a2632496543c9138e866bebe044c",
    "baseline-stats.json": "c82f2582c053bb8ed2fc37f4c2b19117bde1fcd4da8427eb11749be032997937",
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


# novelty primal value on the _zipf_corpus train set (default C and seed)
# of the projected-subgradient solver run for 50·n steps
ZIPF_NOVELTY_SUBGRADIENT_OBJECTIVE = 218.8313268710582


def test_zipf_novelty_objective_beats_the_subgradient_solver(monkeypatch):
    train = _zipf_corpus(11, 400, "tr")
    tfidf, X, _ = featurize(train)
    y = np.where(positive(train, Task.NOVELTY), 1, -1).tolist()
    kwargs = dict(dim=len(tfidf.vocabulary), C=BaselineSettings().c_novelty, seed=RunConfig().seed)
    fit = svm_train(X, y, **kwargs)
    assert fit.converged
    assert fit.objective <= ZIPF_NOVELTY_SUBGRADIENT_OBJECTIVE
    monkeypatch.setattr(baseline, "_TOLERANCE", 1e-6)
    tight = svm_train(X, y, **kwargs)
    best = _regularised_primal(tight, X, y)
    assert best <= _regularised_primal(fit, X, y) <= best * (1 + 2e-3)


def _reference_terms(text):
    return [stem(token) for token in tokenize(text)]


def _reference_tfidf(train_texts, target_texts):
    """The per-document TF-IDF that the bulk passes replace: a ``Counter``
    of each document's stem set for df, and a ``Counter`` of each
    document's stems, in first-occurrence order, for its row."""
    train_terms = [_reference_terms(text) for text in train_texts]
    df = Counter()
    for terms in train_terms:
        df.update(set(terms))
    vocabulary = {term: idx for idx, term in enumerate(sorted(df))}
    idf = np.zeros(len(vocabulary))
    for term, idx in vocabulary.items():
        idf[idx] = math.log((1 + len(train_terms)) / (1 + df[term])) + 1.0

    def rows(texts):
        indptr, indices, values = [0], [], []
        for text in texts:
            row = [
                (idx, tf * idf[idx])
                for term, tf in Counter(_reference_terms(text)).items()
                if (idx := vocabulary.get(term)) is not None
            ]
            # left to right from 0, as sum() of floats adds through Python 3.11
            norm_sq = 0
            for _, weight in row:
                norm_sq += weight * weight
            norm = math.sqrt(norm_sq)
            indices += [idx for idx, _ in row]
            values += [weight / norm for _, weight in row]
            indptr.append(len(indices))
        return (
            np.array(indptr, dtype=np.int64),
            np.array(indices, dtype=np.int64),
            np.array(values, dtype=np.float64),
        )

    return vocabulary, idf, rows(train_texts), rows(target_texts)


def _zipf_texts(seed, n, prefix):
    return [document_text(inst) for inst in _zipf_corpus(seed, n, prefix)]


def _oracle_case(name):
    if name == "separable":
        train, dev = make_separable_corpus(n_train=60, n_dev=20)
        return [document_text(i) for i in train], [document_text(i) for i in dev]
    if name == "zipf":
        return _zipf_texts(11, 400, "tr"), _zipf_texts(12, 150, "te")
    if name == "edges":
        # an empty document on each side; targets made only of unseen
        # stems, opening with unseen stems, and repeating a stem
        train = ["Cats run, cats sleep.", "", "dogs dogs bark", "running cats (again)"]
        targets = ["", "zebra quokka", "zebras quokka cats run", "cats cats CATS dog"]
        return train, targets
    if name == "single":
        return ["walks walk walking walker"], ["walk talk", "walkers"]
    if name.startswith("block"):
        n = baseline._BLOCK + int(name[len("block") :])
        return _zipf_texts(21, n, "tr"), _zipf_texts(22, n, "te")
    raise AssertionError(name)


@pytest.mark.parametrize(
    "case", ["separable", "zipf", "edges", "single", "block-1", "block+0", "block+1"]
)
def test_bulk_tfidf_is_byte_equal_to_the_counter_loop(case):
    train, targets = _oracle_case(case)
    vocabulary, idf, train_rows, target_rows = _reference_tfidf(train, targets)

    analysed = analyse([*train, *targets])
    stems = analysed.stems
    offsets = analysed.offsets.tolist()
    assert [
        [stems[i] for i in analysed.ids[lo:hi].tolist()] for lo, hi in zip(offsets, offsets[1:])
    ] == [_reference_terms(text) for text in [*train, *targets]]

    model = tfidf_fit(analysed[: len(train)])
    for fitted in (model, tfidf_fit(train)):
        assert list(fitted.vocabulary.items()) == list(vocabulary.items())
        assert fitted.idf.tobytes() == idf.tobytes()
        assert fitted.document_count == len(train)
    for docs, expected in (
        (analysed[: len(train)], train_rows),
        (analysed[len(train) :], target_rows),
    ):
        rows = tfidf_rows(model, docs)
        for got, want in zip((rows.indptr, rows.indices, rows.values), expected):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def test_raw_fit_stems_every_token_and_analyse_each_distinct_token(monkeypatch):
    calls = []

    def counting_stem(token):
        calls.append(token)
        return stem(token)

    monkeypatch.setattr(baseline, "stem", counting_stem)
    texts = ["Walking walkers walked", "walked home"]
    tfidf_fit(texts)
    assert len(calls) == 5
    calls.clear()
    analyse(texts)
    assert sorted(calls) == ["home", "walked", "walkers", "walking"]
