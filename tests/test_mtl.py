"""Multi-task model, trainer, and checkpoints."""

import hashlib
import json

import numpy as np
import pytest

from valnov.cli import main
from valnov.config import RunConfig
from valnov.corpus import LabelValue, Split, Task, save_instances_jsonl
from valnov.encoder import EncoderConfig, ReferenceEncoder
from valnov.errors import ConfigurationError, SchemaError, TrainingError
from valnov.fsutil import pack_params, unpack_params
from valnov.mtl import (
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
from valnov.optim import AdamW, RowGradient
from valnov.synthetic import make_profile_splits, make_separable_corpus

from conftest import make_instance

SMALL = EncoderConfig(vocab_buckets=128, embed_dim=8, projection_dim=6, seed=0)


class TestTrainConfig:
    def test_profiles(self):
        assert TRAIN_PROFILES["clteaml-2"] == (1e-5, 9, 1)
        assert TRAIN_PROFILES["clteaml-4"] == (5e-6, 6, 4)
        cfg = TrainConfig.from_profile("clteaml-4")
        assert (cfg.learning_rate, cfg.epochs, cfg.grad_accumulation) == (5e-6, 6, 4)

    def test_defaults_are_the_desk_profile(self):
        # an empty config's too, so a library caller trains as the CLI does
        assert TrainConfig() == TrainConfig.from_profile("desk") == RunConfig().train_config()

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
            getattr(model.heads[Task.NOVELTY], name)[...] = -getattr(model.heads[Task.VALIDITY], name)
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
            model.heads[task].w[...] = 0.0
            model.heads[task].b[...] = 0.0
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


class TestParameterLayout:
    @pytest.mark.parametrize(
        "make", [lambda: ReferenceEncoder(SMALL), lambda: MtlModel(SMALL)], ids=["encoder", "model"]
    )
    def test_each_parameter_is_a_view_of_one_group_and_the_views_tile_it(self, make):
        layer = make()
        params, groups = layer.parameters(), layer.groups()
        owners = {
            name: [g for g, buffer in groups.items() if np.shares_memory(param, buffer)]
            for name, param in params.items()
        }
        assert all(len(found) == 1 for found in owners.values()), owners
        for group, buffer in groups.items():
            buffer[...] = 0.0
            for name, param in params.items():
                if owners[name] == [group]:
                    param += 1.0
            assert (buffer == 1.0).all(), group  # every cell once, none twice

    def test_the_row_rule_reaches_the_embedding_alone(self):
        # a zero row of a projection or head weight gradient still steps
        # with its layer, as dense AdamW steps it (momentum and decay); an
        # embedding row its gradient lacks keeps value and moments
        model = MtlModel(SMALL, seed=0)
        groups = model.groups()
        layers = {"encoder.proj": model.encoder.proj, "head.validity": model.heads[Task.VALIDITY]}
        lr, decay = 0.05, 0.1
        optimizer = AdamW(lr, weight_decay=decay)
        rng = np.random.default_rng(0)

        def grads(embedding_rows, zero_weight_row):
            values = rng.normal(size=(len(embedding_rows), SMALL.embed_dim))
            out = {"encoder.embedding": RowGradient(np.array(embedding_rows), values)}
            for name, layer in layers.items():
                out[name] = rng.normal(size=layer.buffer.shape)
                if zero_weight_row:
                    layer.split(out[name])[0][0] = 0.0
            return out

        optimizer.step(groups, grads([0, 1, 2], zero_weight_row=False))
        before = {
            name: (groups[name].copy(), optimizer._m[name].copy(), optimizer._v[name].copy())
            for name in groups if name in optimizer._m
        }
        second = grads([2, 3], zero_weight_row=True)
        optimizer.step(groups, second)

        for name in layers:
            p, m, v = (a.copy() for a in before[name])
            g = second[name]
            m = m * 0.9 + 0.1 * g
            v = v * 0.999 + 0.001 * g * g
            p -= lr * (m / (1 - 0.9**2)) / (np.sqrt(v / (1 - 0.999**2)) + 1e-8)
            p -= lr * decay * p
            assert np.allclose(groups[name], p, rtol=1e-12, atol=0.0), name
            assert np.allclose(optimizer._m[name], m, rtol=1e-12, atol=0.0), name
            assert (groups[name] != before[name][0]).all(), name  # the zero row moved too
        embedding, m, v = before["encoder.embedding"]
        for row in (0, 1):
            assert groups["encoder.embedding"][row].tobytes() == embedding[row].tobytes()
            assert optimizer._m["encoder.embedding"][row].tobytes() == m[row].tobytes()
            assert optimizer._v["encoder.embedding"][row].tobytes() == v[row].tobytes()
        assert (groups["encoder.embedding"][[2, 3]] != embedding[[2, 3]]).all()


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

    def test_each_epoch_applies_its_partial_accumulation(self, monkeypatch):
        # 200 instances in batches of 16 are 13 micro-batches an epoch; with
        # accumulation 3 that is 4 full updates and one of the last batch
        steps = []
        real_step = AdamW.step

        def spy(self, params, grads):
            steps.append(len(grads))
            real_step(self, params, grads)

        monkeypatch.setattr(AdamW, "step", spy)
        train_set, dev_set = make_separable_corpus(n_train=200, n_dev=20)
        config = self.desk_config(epochs=2, grad_accumulation=3, batch_size=16)
        train(MtlModel(SMALL, seed=0), train_set, dev_set, config)
        assert len(steps) == 10

    def test_an_accumulated_step_moves_the_union_of_its_micro_batches_rows(self, monkeypatch):
        # AdamW updates the embedding rows the summed gradient touches: with
        # accumulation 3, exactly the rows one of the step's micro-batches
        # gathered, and none other
        import valnov.mtl

        batches, steps = [], []
        real_grads, real_step = valnov.mtl.batch_loss_and_grads, AdamW.step

        def grads_spy(*args, **kwargs):
            loss, grads = real_grads(*args, **kwargs)
            g = grads["encoder.embedding"]  # compact: the rows the batch gathered
            batches.append(set(g.rows[g.values.any(axis=1)].tolist()))
            return loss, grads

        def step_spy(self, params, grads):
            before = params["encoder.embedding"].copy()
            real_step(self, params, grads)
            moved = (params["encoder.embedding"] != before).any(axis=1)
            steps.append((batches[:], set(np.flatnonzero(moved))))
            batches.clear()

        monkeypatch.setattr(valnov.mtl, "batch_loss_and_grads", grads_spy)
        monkeypatch.setattr(AdamW, "step", step_spy)
        train_set, dev_set = make_separable_corpus(n_train=200, n_dev=20)
        config = self.desk_config(epochs=2, grad_accumulation=3, batch_size=16)
        train(MtlModel(SMALL, seed=0), train_set, dev_set, config)
        assert len(steps) == 10
        for micro_batches, moved in steps:
            assert moved == set().union(*micro_batches)
            assert len(moved) < SMALL.vocab_buckets
        # the union is wider than any one micro-batch's rows
        assert all(len(moved) > max(map(len, micro_batches))
                   for micro_batches, moved in steps if len(micro_batches) > 1)

    def test_each_step_updates_the_three_groups_of_its_task(self, monkeypatch):
        seen = []
        real_step = AdamW.step

        def spy(self, params, grads):
            seen.append((set(params), set(grads)))
            real_step(self, params, grads)

        monkeypatch.setattr(AdamW, "step", spy)
        train_set, dev_set = make_separable_corpus(n_train=60, n_dev=20)
        model = MtlModel(SMALL, seed=0)
        train(model, train_set, dev_set, self.desk_config(epochs=2))
        assert seen
        heads = set()
        for params, grads in seen:
            assert params == set(model.groups())
            head = (grads - {"encoder.embedding", "encoder.proj"}).pop()
            assert grads == {"encoder.embedding", "encoder.proj", head}
            assert head in {f"head.{task.value}" for task in Task}
            heads.add(head)
        assert len(heads) == 2

    def test_the_embedding_reaches_adamw_compact(self, monkeypatch):
        # every step's embedding gradient holds the rows its batch gathered,
        # not the table: a return to dense gradients fails here
        entries = []
        real_step = AdamW.step

        def spy(self, params, grads):
            entries.append(grads["encoder.embedding"])
            real_step(self, params, grads)

        monkeypatch.setattr(AdamW, "step", spy)
        train_set, dev_set = make_separable_corpus(n_train=60, n_dev=20)
        for accumulation in (1, 3):
            entries.clear()
            config = self.desk_config(epochs=2, grad_accumulation=accumulation)
            train(MtlModel(SMALL, seed=0), train_set, dev_set, config)
            assert entries
            for g in entries:
                assert isinstance(g, RowGradient)
                assert 0 < len(g.rows) < SMALL.vocab_buckets
                assert g.size == len(g.rows) * SMALL.embed_dim

    def test_empty_sets_rejected(self):
        with pytest.raises(ConfigurationError):
            train(MtlModel(SMALL), [], [make_instance()], self.desk_config())

    def test_nonfinite_loss_aborts(self):
        train_set, dev_set = make_separable_corpus(n_train=30, n_dev=10)
        model = MtlModel(SMALL)
        model.heads[Task.VALIDITY].b[...] = np.nan
        model.heads[Task.NOVELTY].b[...] = np.nan
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
        for broken, message in (
            (surplus, r"unknown \w+ key\(s\) \['surplus'\]"), (missing, "lacks the field 'seed'")
        ):
            path.write_text(json.dumps(dict(blob, **{section: broken})))
            with pytest.raises(SchemaError, match=message):
                load_checkpoint(path)

    def test_parameters_round_trip_bit_for_bit(self, tmp_path):
        extremes = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
        params = {
            "extremes": np.array(extremes),
            "empty": np.zeros((0, 3)),
            "scalar": np.array(2.5),
            "transposed": np.arange(12.0).reshape(3, 4).T,
        }
        path = tmp_path / "params.json"
        path.write_text(json.dumps(pack_params(params)), encoding="utf-8")
        live = {name: np.full(arr.shape, 7.0) for name, arr in params.items()}
        unpack_params(json.loads(path.read_text(encoding="utf-8")), live, path)
        for name, arr in params.items():
            assert live[name].shape == arr.shape
            assert live[name].tobytes() == arr.tobytes(), name

    def test_format_header_checked(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "something-else", "version": 1}')
        with pytest.raises(ConfigurationError, match="not a"):
            load_checkpoint(path)

    def test_version_1_asks_for_a_rerun(self, tmp_path):
        path = tmp_path / "v1.json"
        path.write_text('{"format": "valnov-encoder-checkpoint", "version": 1}')
        with pytest.raises(ConfigurationError, match="version 1 .*re-run the stage"):
            load_encoder_checkpoint(path)

    def test_float_version_is_not_the_version(self, tmp_path):
        path = tmp_path / "v.json"
        path.write_text('{"format": "valnov-encoder-checkpoint", "version": 2.0}')
        with pytest.raises(ConfigurationError, match="unsupported checkpoint version"):
            load_encoder_checkpoint(path)

    def test_encoder_round_trip(self, tmp_path):
        from valnov.encoder import ReferenceEncoder

        enc = ReferenceEncoder(SMALL)
        enc.proj_b += 0.25
        path = tmp_path / "enc.json"
        save_encoder_checkpoint(enc, [0.5, 0.3], path)
        loaded, losses = load_encoder_checkpoint(path)
        assert losses == [0.5, 0.3]
        for name, arr in enc.parameters().items():
            assert loaded.parameters()[name].tobytes() == arr.tobytes(), name
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
# loops; the checkpoint digests are of the version-2 (base64 float64)
# format, whose parameters are bit-equal to the version-1 decimal text
# they replaced. All three were re-recorded when AdamW began to update
# only the embedding rows a batch touches
GOLDEN_ENCODER_CHECKPOINT_SHA256 = (
    "bb60ea764ba8ac1a68a523d01c640f1f8689a86444cf81a1f3ac3c2e94a749fe"
)
GOLDEN_MTL_CHAIN_SHA256 = {
    "desk": (
        "a06c0df0b58893a464ec3afe2feb664344f55ef6f0a38b31e0baa027d035d648",
        "3bc5aa0a75c1b8fb94630d46ebeb04277e6519525144ff12c461a61dd23a93d1",
    ),
    # re-recorded when each epoch's last partial accumulation began to be
    # applied before its dev evaluation (25 micro-batches an epoch here)
    "accumulate": (
        "4e7aa2760c6b86b9eb6de3a4030b6967f5868c1f45e58011b2e57ad5cb26bdeb",
        "82b911969645b495e8df0b2769ae4113ca5d7346bbffc1f7e52d632f63f7c983",
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
