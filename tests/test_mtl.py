"""Multi-task model, trainer, and checkpoints."""

import hashlib
import json

import numpy as np
import pytest

from valnov.cli import main
from valnov.corpus import LabelValue, Split, Task, save_instances_jsonl
from valnov.encoder import EncoderConfig
from valnov.errors import ConfigurationError, TrainingError
from valnov.mtl import (
    _checkpoint_text,
    EpochRecord,
    MtlModel,
    TRAIN_PROFILES,
    TrainConfig,
    batch_loss_and_grads,
    cross_entropy_and_grad,
    instance_text,
    load_checkpoint,
    load_encoder_checkpoint,
    sample_task,
    save_checkpoint,
    save_encoder_checkpoint,
    select_best,
    train,
)
from valnov.synthetic import make_profile_splits, make_separable_corpus

from conftest import make_instance

SMALL = EncoderConfig(vocab_buckets=128, embed_dim=8, projection_dim=6, seed=0)


class TestTrainConfig:
    def test_profiles(self):
        assert TRAIN_PROFILES["clteaml-2"] == (1e-5, 9, 1)
        assert TRAIN_PROFILES["clteaml-4"] == (5e-6, 6, 4)
        cfg = TrainConfig.from_profile("clteaml-4")
        assert (cfg.learning_rate, cfg.epochs, cfg.grad_accumulation) == (5e-6, 6, 4)

    def test_profile_overrides(self):
        cfg = TrainConfig.from_profile("desk", epochs=3, seed=11)
        assert cfg.epochs == 3
        assert cfg.seed == 11
        assert cfg.learning_rate == TRAIN_PROFILES["desk"][0]

    def test_unknown_profile(self):
        with pytest.raises(ConfigurationError, match="unknown training profile"):
            TrainConfig.from_profile("gpu-cluster")

    def test_bad_probabilities(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(task_probabilities=(0.7, 0.7))


class TestSampleTask:
    def test_deterministic(self):
        a = [sample_task(np.random.default_rng(5)) for _ in range(20)]
        b = [sample_task(np.random.default_rng(5)) for _ in range(20)]
        assert a == b

    def test_degenerate_probabilities(self):
        rng = np.random.default_rng(0)
        assert all(sample_task(rng, (1.0, 0.0)) is Task.VALIDITY for _ in range(10))
        assert all(sample_task(rng, (0.0, 1.0)) is Task.NOVELTY for _ in range(10))

    def test_roughly_balanced(self):
        rng = np.random.default_rng(0)
        draws = [sample_task(rng) for _ in range(2000)]
        frac = sum(t is Task.VALIDITY for t in draws) / len(draws)
        assert 0.45 < frac < 0.55


def test_instance_text_layout():
    inst = make_instance(topic="guns", premise="p", conclusion="c")
    assert instance_text(inst) == "topic: guns premise: p conclusion: c"


class TestMtlModel:
    def test_heads_differ(self, tiny_corpus):
        model = MtlModel(SMALL)
        for name in ("w", "b"):
            model.heads[Task.NOVELTY][name][...] = -model.heads[Task.VALIDITY][name]
        preds = model.predict_both(tiny_corpus)
        validity = [p.value for p in preds if p.task is Task.VALIDITY]
        novelty = [p.value for p in preds if p.task is Task.NOVELTY]
        assert novelty == [
            LabelValue.NEGATIVE if v is LabelValue.POSITIVE else LabelValue.POSITIVE
            for v in validity
        ]

    def test_tie_resolves_negative(self, tiny_corpus):
        model = MtlModel(SMALL)
        for task in Task:
            model.heads[task]["w"][...] = 0.0
            model.heads[task]["b"][...] = 0.0
        preds = model.predict_both(tiny_corpus)
        assert all(p.value is LabelValue.NEGATIVE for p in preds)

    def test_predict_sources_and_ids(self, tiny_corpus):
        model = MtlModel(SMALL, name="run7")
        preds = model.predict_both(tiny_corpus)
        ids = [i.id for i in tiny_corpus]
        assert [p.instance_id for p in preds] == ids + ids
        assert [p.task for p in preds] == [Task.VALIDITY] * len(ids) + [Task.NOVELTY] * len(ids)
        assert all(p.source == "run7" for p in preds)
        assert model.predict_both([]) == []

    def test_prebuilt_encoder_must_match_config(self):
        from valnov.encoder import ReferenceEncoder

        enc = ReferenceEncoder(SMALL)
        assert MtlModel(SMALL, encoder=enc).encoder is enc
        with pytest.raises(ConfigurationError):
            MtlModel(EncoderConfig(), encoder=enc)

    def test_snapshot_restore_round_trip(self):
        model = MtlModel(SMALL)
        snap = model.snapshot()
        for arr in model.parameters().values():
            arr += 0.5
        assert not any(np.array_equal(arr, snap[k]) for k, arr in model.parameters().items())
        model.restore(snap)
        assert all(np.array_equal(arr, snap[k]) for k, arr in model.parameters().items())


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss, _ = cross_entropy_and_grad(np.zeros((4, 2)), np.array([0, 1, 0, 1]))
        assert loss == pytest.approx(np.log(2))

    def test_confident_correct_is_cheap(self):
        logits = np.array([[10.0, -10.0]])
        loss, _ = cross_entropy_and_grad(logits, np.array([0]))
        assert loss < 1e-6

    def test_grad_rows_sum_to_zero(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(5, 2))
        _, d = cross_entropy_and_grad(logits, np.array([0, 1, 1, 0, 1]))
        assert np.allclose(d.sum(axis=1), 0.0)

    def test_overflow_safe(self):
        loss, d = cross_entropy_and_grad(np.array([[1000.0, -1000.0]]), np.array([1]))
        assert np.isfinite(loss) and np.all(np.isfinite(d))


def test_batch_gradients_match_finite_differences(tiny_corpus):
    model = MtlModel(SMALL, seed=3)
    params = model.parameters()
    for task in Task:
        _, grads = batch_loss_and_grads(model, tiny_corpus, task)
        eps = 1e-6
        for name, grad in grads.items():
            flat = params[name].ravel()
            idx = np.random.default_rng(0).choice(
                flat.size, size=min(10, flat.size), replace=False
            )
            for i in idx:
                orig = flat[i]
                flat[i] = orig + eps
                up, _ = batch_loss_and_grads(model, tiny_corpus, task)
                flat[i] = orig - eps
                down, _ = batch_loss_and_grads(model, tiny_corpus, task)
                flat[i] = orig
                fd = (up - down) / (2 * eps)
                assert grad.ravel()[i] == pytest.approx(fd, rel=1e-4, abs=1e-9), (
                    task,
                    name,
                )


def test_unselected_head_gets_no_gradient(tiny_corpus):
    model = MtlModel(SMALL)
    _, grads = batch_loss_and_grads(model, tiny_corpus, Task.VALIDITY)
    assert "head.validity.w" in grads
    assert "head.novelty.w" not in grads


class TestSelectBest:
    def test_highest_wins(self):
        history = [EpochRecord(0, 1.0, 0.2), EpochRecord(1, 1.0, 0.9), EpochRecord(2, 1.0, 0.5)]
        assert select_best(history) == 1

    def test_tie_goes_earliest(self):
        history = [EpochRecord(0, 1.0, 0.5), EpochRecord(1, 0.5, 0.5), EpochRecord(2, 0.2, 0.4)]
        assert select_best(history) == 0

    def test_epoch_records_accepted(self):
        history = [EpochRecord(0, 1.0, 0.3), EpochRecord(1, 0.5, 0.8)]
        assert select_best(history) == 1

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            select_best([])


class TestTrain:
    def desk_config(self, **overrides):
        base = dict(epochs=4, seed=0, batch_size=16)
        base.update(overrides)
        return TrainConfig.from_profile("desk", **base)

    def test_learns_separable_corpus(self):
        train_set, dev_set = make_separable_corpus(n_train=120, n_dev=40)
        model = MtlModel(SMALL, seed=0)
        result = train(model, train_set, dev_set, self.desk_config(epochs=8))
        assert result.history[result.best_epoch].dev_combined_f1 > 0.9

    def test_deterministic_per_seed(self):
        train_set, dev_set = make_separable_corpus(n_train=60, n_dev=20)
        runs = []
        for _ in range(2):
            model = MtlModel(SMALL, seed=1)
            result = train(model, train_set, dev_set, self.desk_config(seed=1, epochs=2))
            runs.append(
                ([h.as_tuple() for h in result.history], model.snapshot())
            )
        assert runs[0][0] == runs[1][0]
        for key in runs[0][1]:
            assert np.array_equal(runs[0][1][key], runs[1][1][key])

    def test_best_epoch_params_restored(self):
        train_set, dev_set = make_separable_corpus(n_train=60, n_dev=20)
        model = MtlModel(SMALL, seed=0)
        result = train(model, train_set, dev_set, self.desk_config(epochs=3))
        from valnov.evaluation import combined_score

        rescored = combined_score(model.predict_both(dev_set), dev_set)
        assert rescored == pytest.approx(
            result.history[result.best_epoch].dev_combined_f1
        )

    def test_grad_accumulation_runs(self):
        train_set, dev_set = make_separable_corpus(n_train=60, n_dev=20)
        model = MtlModel(SMALL, seed=0)
        result = train(
            model, train_set, dev_set, self.desk_config(epochs=2, grad_accumulation=3)
        )
        assert len(result.history) == 2

    def test_empty_sets_rejected(self):
        with pytest.raises(ConfigurationError):
            train(MtlModel(SMALL), [], [make_instance()], self.desk_config())

    def test_nonfinite_loss_aborts(self):
        train_set, dev_set = make_separable_corpus(n_train=30, n_dev=10)
        model = MtlModel(SMALL)
        model.heads[Task.VALIDITY]["b"][...] = np.nan
        model.heads[Task.NOVELTY]["b"][...] = np.nan
        with pytest.raises(TrainingError, match="non-finite"):
            train(model, train_set, dev_set, self.desk_config())


class TestCheckpoints:
    def test_mtl_round_trip(self, tmp_path):
        train_set, dev_set = make_separable_corpus(n_train=40, n_dev=12)
        model = MtlModel(SMALL, seed=0, name="ckpt-test")
        config = TrainConfig.from_profile("desk", epochs=2)
        result = train(model, train_set, dev_set, config)
        path = tmp_path / "model.json"
        save_checkpoint(result, config, path)

        loaded, loaded_config, history, best_epoch = load_checkpoint(path)
        assert loaded.name == "ckpt-test"
        assert loaded_config == config
        assert [h.as_tuple() for h in history] == [h.as_tuple() for h in result.history]
        assert best_epoch == result.best_epoch
        assert loaded.predict_both(dev_set) == model.predict_both(dev_set)

    @pytest.mark.parametrize("section", ["encoder_config", "train_config"])
    def test_config_blob_must_match_the_dataclass(self, tmp_path, section):
        train_set, dev_set = make_separable_corpus(n_train=20, n_dev=8)
        config = TrainConfig.from_profile("desk", epochs=1)
        path = tmp_path / "model.json"
        save_checkpoint(train(MtlModel(SMALL), train_set, dev_set, config), config, path)
        blob = json.loads(path.read_text())
        surplus = dict(blob[section], surplus=1)
        missing = {k: v for k, v in blob[section].items() if k != "seed"}
        for broken in (surplus, missing):
            path.write_text(json.dumps(dict(blob, **{section: broken})))
            with pytest.raises(ConfigurationError, match="needs exactly the keys"):
                load_checkpoint(path)

    def test_checkpoint_text_is_one_json_dumps(self):
        rng = np.random.default_rng(0)
        params = {
            "empty": np.zeros((0, 3)),
            "scalar": np.array(2.5),
            "two slices": rng.normal(size=(2, 4096)),
            "ragged": rng.normal(size=4097),
            "special": np.array([np.nan, np.inf, -0.0, 1e-300]),
        }
        blob = {"format": "x", "nested": {"a": [1, 2]}}
        packed = {
            name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
            for name, arr in params.items()
        }
        assert _checkpoint_text(blob, params) == json.dumps(dict(blob, params=packed))

    def test_format_header_checked(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "something-else", "version": 1}')
        with pytest.raises(ConfigurationError, match="not a"):
            load_checkpoint(path)

    def test_encoder_round_trip(self, tmp_path):
        from valnov.encoder import ReferenceEncoder

        enc = ReferenceEncoder(SMALL)
        enc.proj_b += 0.25
        path = tmp_path / "enc.json"
        save_encoder_checkpoint(enc, [0.5, 0.3], path)
        loaded, losses = load_encoder_checkpoint(path)
        assert losses == [0.5, 0.3]
        assert np.array_equal(loaded.proj_b, enc.proj_b)
        assert np.array_equal(
            loaded.encode(["check text"]), enc.encode(["check text"])
        )

    def test_encoder_format_checked(self, tmp_path):
        train_set, dev_set = make_separable_corpus(n_train=40, n_dev=12)
        config = TrainConfig.from_profile("desk", epochs=1)
        result = train(MtlModel(SMALL), train_set, dev_set, config)
        path = tmp_path / "model.json"
        save_checkpoint(result, config, path)
        with pytest.raises(ConfigurationError, match="not a"):
            load_encoder_checkpoint(path)


# sha256 of the files written by `contrastive-train`, then `train
# --init-encoder`, then `predict --task both` on the corpus of
# test_cli_mtl_chain_is_byte_stable, recorded with the per-row encoder
# loops and the allocating AdamW step
GOLDEN_ENCODER_CHECKPOINT_SHA256 = (
    "7f3b7b3d36dcbb1ba88ed7236e33c699b7c62abe506ef232bf2571860fa53ce2"
)
GOLDEN_MTL_CHAIN_SHA256 = {
    "desk": (
        "8e87483958eadc8c82ca736c1e18905d7e86a3bc82152f1eb4b6a64eb94ba593",
        "300eea478c5a7747c4c0073c206f8fe66f2028514ca06f5f2e1feeb0e30893e7",
    ),
    "accumulate": (
        "4fce50de4ae976f2ba979b1d716b4ff63ee834023910db05a5869810df02829c",
        "2cc781c118dc79a713c36a8d39b25f9343b26b33573a9c8e89eeca4919f3ddca",
    ),
}


@pytest.mark.parametrize(
    "case,overrides",
    [
        ("desk", {}),
        (
            "accumulate",
            {"epochs": 4, "batch_size": 8, "grad_accumulation": 3,
             "task_probabilities": [0.3, 0.7]},
        ),
    ],
)
def test_cli_mtl_chain_is_byte_stable(tmp_path, case, overrides):
    splits = make_profile_splits(seed=0)
    for split, size in ((Split.TRAIN, 200), (Split.DEV, 60), (Split.TEST, 80)):
        save_instances_jsonl(splits[split][:size], tmp_path / f"{split.value}.jsonl")
    config = {
        "profile": "desk",
        "contrastive": {"learning_rate": 1e-3},
        "train_overrides": overrides,
        "data": {
            "train_path": str(tmp_path / "train.jsonl"),
            "dev_path": str(tmp_path / "dev.jsonl"),
            "test_path": str(tmp_path / "test.jsonl"),
        },
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    c = str(tmp_path / "config.json")
    encoder = tmp_path / "contrastive" / "encoder-checkpoint.json"
    checkpoint = tmp_path / "mtl" / "checkpoint.json"
    assert main(["contrastive-train", "--config", c,
                 "--run-dir", str(tmp_path / "contrastive")]) == 0
    assert main(["train", "--config", c, "--run-dir", str(tmp_path / "mtl"),
                 "--init-encoder", str(encoder)]) == 0
    assert main(["predict", "--config", c, "--run-dir", str(tmp_path / "predict"),
                 "--checkpoint", str(checkpoint), "--task", "both"]) == 0

    def digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    assert digest(encoder) == GOLDEN_ENCODER_CHECKPOINT_SHA256
    assert (
        digest(checkpoint),
        digest(tmp_path / "predict" / "predictions.csv"),
    ) == GOLDEN_MTL_CHAIN_SHA256[case]
