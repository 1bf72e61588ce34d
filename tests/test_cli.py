"""End-to-end subcommand runs through main(), plus the error contract."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import valnov
from valnov.cli import main
from valnov.config import (
    DataSettings,
    PromptSettings,
    RunConfig,
    SweepSettings,
    resolved_config_json,
)
from valnov.corpus import (
    Confidence,
    Split,
    Task,
    load_instances_jsonl,
    save_instances_jsonl,
)
from valnov.predictions import load_predictions, save_predictions, Prediction
from valnov.corpus import LabelValue
from valnov.encoder import EncoderConfig, ReferenceEncoder
from valnov.errors import DataError
from valnov.fsutil import sha256_file
from valnov.mtl import load_checkpoint, load_encoder_checkpoint, save_encoder_checkpoint
from valnov.prompting import PromptRequest, build_prompt, cache_key, select_few_shot
from valnov.synthetic import make_profile_splits, make_separable_corpus

from conftest import make_instance


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Tiny marker corpus, a desk-scale config, and room for run dirs."""
    root = tmp_path_factory.mktemp("cli")
    train, dev = make_separable_corpus(n_train=40, n_dev=16)
    save_instances_jsonl(train, root / "train.jsonl")
    save_instances_jsonl(dev, root / "dev.jsonl")

    config = {
        "profile": "desk",
        "encoder": {"vocab_buckets": 256, "embed_dim": 12, "projection_dim": 8},
        "data": {
            "train_path": str(root / "train.jsonl"),
            "dev_path": str(root / "dev.jsonl"),
            "test_path": str(root / "dev.jsonl"),
        },
        "prompting": {
            "provider": "mock",
            "cache_dir": str(root / "cache"),
        },
        "sweep": {"runs": 2},
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")

    replay = dict(config)
    replay["prompting"] = dict(config["prompting"], provider="replay-only")
    replay_path = root / "config-replay.json"
    replay_path.write_text(json.dumps(replay), encoding="utf-8")

    return {"root": root, "config": str(config_path), "replay": str(replay_path)}


def seeded_config(workspace, seed: int) -> str:
    """The workspace config with the top-level ``seed`` set to ``seed``."""
    config = json.loads(Path(workspace["config"]).read_text(encoding="utf-8"))
    path = workspace["root"] / f"config-seed-{seed}.json"
    path.write_text(json.dumps(dict(config, seed=seed)), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def trained(workspace):
    run_dir = workspace["root"] / "train-run"
    code = main(
        ["train", "--config", workspace["config"], "--run-dir", str(run_dir)]
    )
    assert code == 0
    return run_dir / "checkpoint.json"


class TestPrepareData:
    def test_profile_statistics(self, workspace, capsys):
        run_dir = workspace["root"] / "prep-profile"
        code = main(["prepare-data", "--run-dir", str(run_dir), "--synthetic", "profile"])
        assert code == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["splits"]["train"]["class_distribution"] == [331, 18, 296, 105]
        assert stats["topic_overlaps"] == {
            "train-dev": 0,
            "train-test": 0,
            "dev-test": 8,
        }
        for name in ("train.csv", "instances-train.jsonl", "triplets.jsonl",
                     "stats.json", "config.json", "manifest.json"):
            assert (run_dir / name).is_file()

    def test_separable_respects_splits(self, workspace):
        run_dir = workspace["root"] / "prep-sep"
        code = main(
            ["prepare-data", "--run-dir", str(run_dir), "--synthetic", "separable",
             "--splits", "train"]
        )
        assert code == 0
        assert (run_dir / "train.csv").is_file()
        assert not (run_dir / "dev.csv").exists()
        assert (run_dir / "triplets.jsonl").is_file()

    def test_real_files_recorded_as_inputs(self, workspace, capsys):
        run_dir = workspace["root"] / "prep-real"
        code = main(
            ["prepare-data", "--config", workspace["config"], "--run-dir", str(run_dir),
             "--splits", "train,dev"]
        )
        assert code == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["splits"]["train"]["size"] == 40
        assert stats["splits"]["dev"]["size"] == 16
        manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
        assert set(manifest["inputs"]) == {"train", "dev"}
        for record in manifest["inputs"].values():
            assert len(record["sha256"]) == 64


# sha256 of every file but the config echo and manifest that
# `prepare-data` writes, recorded before the JSONL writers and cache keys
# were built from their dataclasses; "unicode" reads a non-ASCII corpus
GOLDEN_PREPARE_DATA_SHA256 = {
    "profile": {
        "dev.csv": "63f9d9c2f496dac68f1e990ded901776b35ed260cdfd26261d6086b963dff140",
        "instances-dev.jsonl": "3d4342b331dcc4b44eac2e85aadfb8457f0b9d2a3af59d9148a0eff242fe0eb6",
        "instances-test.jsonl": "6b29f8fd9e562cf58ceba4b04ba00274712485abd0fb463527f7f84ea4c46720",
        "instances-train.jsonl": "0fa39c535f3b745a51800e92e9415b09fdf11b5455eeeb0a00dfc37c52b86ae4",
        "stats.json": "15d24542ca7785e98a5ff9cbccb4470dfd287cda7ca7226022a08d30cba8c030",
        "test.csv": "4cb5034cd37f5ea2eaaff6037ed2716238b40a92c864ffc6b28d40705c08a417",
        "train.csv": "5267b2a4bed03997b606c086f88a60b8d6127dd1834e0324c901fe47fb864237",
        "triplets.jsonl": "6b4a4453cb2cec4ac15e6ff686dfe500752cfad650d50ab61ffe1c78bfc6480e",
    },
    "separable": {
        "dev.csv": "a29cc88f20a42a39b44ed6a8122e55a946b8622d7e33640b283956a61c4b9bd4",
        "instances-dev.jsonl": "44209aa6deed35a459cf76532330e3e9c81b39f87c7684dff4e8febb1e92b21c",
        "instances-train.jsonl": "17764f8c0a877bcccac21da9a3f27e257624ced1d8c71408cf4ac7bec2d86ca7",
        "stats.json": "88004ed9acea0343ce22a2f48976022726b94528954474cf9397ddf2cb844a6b",
        "train.csv": "73626e2e34a0079de6b3f7c124e6220c33d0246afec344c9da1e0fe1f806871c",
        "triplets.jsonl": "daf2b52b1c7039cac6a301ce146afe19a10400038d227e56427a2848e53f407e",
    },
    "unicode": {
        "instances-train.jsonl": "0ffad3059516486bdd22d937dbed11a2a5a6b49a48dd89afb505ccce8ea1a3b7",
        "stats.json": "d943cbd2a1b9cb36c378df7d54d3b3a53e3573c9c4c64bd3bd91302ea92d6265",
        "triplets.jsonl": "ba0cbae200bb421c3a64cd0ccfd1d50e1aad25fefbe27db5efe4a956dbec245c",
    },
}
# count and sha256 of the sorted, newline-joined replay-cache keys of a
# mock `prompt-predict` fill for both tasks, recorded at the same point
GOLDEN_FILL_CACHE_KEYS = (126, "fa443d82bb455b7d8d930aa2969d86cfcf26ad73a3f17846806d31e8f1c7a2d3")


def _non_ascii_instances(n, prefix, split=Split.TRAIN):
    """Instances whose text needs UTF-8; pairs share a premise and differ
    in novelty, so they yield triplets."""
    return [
        make_instance(id=f"{prefix}{i}", topic="Énergie", premise=f"Prémisse {i // 2} — “ü”",
                      conclusion=f"Schluss {i} ß 中文", validity=i % 3 - 1,
                      novelty=1 if i % 2 else -1, vconf=Confidence.MAJORITY, split=split)
        for i in range(n)
    ]


def _digests(run_dir):
    return {
        path.name: sha256_file(path)
        for path in sorted(run_dir.iterdir())
        if path.name not in ("config.json", "manifest.json")
    }


class TestGoldenOutputs:
    @pytest.mark.parametrize("corpus", ["profile", "separable", "unicode"])
    def test_prepare_data_files(self, tmp_path, corpus):
        if corpus == "unicode":
            save_instances_jsonl(_non_ascii_instances(6, "x"), tmp_path / "train.jsonl")
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"data": {"train_path": str(tmp_path / "train.jsonl")}}))
            args = ["--config", str(config), "--splits", "train"]
        else:
            args = ["--synthetic", corpus]
        assert main(["prepare-data", "--run-dir", str(tmp_path / "run"), *args]) == 0
        assert _digests(tmp_path / "run") == GOLDEN_PREPARE_DATA_SHA256[corpus]

    def test_mock_fill_cache_keys(self, tmp_path):
        splits = make_profile_splits(seed=0)
        save_instances_jsonl(splits[Split.TRAIN], tmp_path / "train.jsonl")
        targets = splits[Split.TEST][:60] + _non_ascii_instances(3, "u", Split.TEST)
        save_instances_jsonl(targets, tmp_path / "targets.jsonl")
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"prompting": {"provider": "mock", "cache_dir": str(tmp_path / "cache")}}
        ))
        for task in ("validity", "novelty"):
            assert main(
                ["prompt-predict", "--config", str(config), "--run-dir", str(tmp_path / task),
                 "--task", task, "--train", str(tmp_path / "train.jsonl"),
                 "--on", str(tmp_path / "targets.jsonl")]
            ) == 0
        keys = sorted(path.stem for path in (tmp_path / "cache").glob("*.json"))
        digest = hashlib.sha256("\n".join(keys).encode("utf-8")).hexdigest()
        assert (len(keys), digest) == GOLDEN_FILL_CACHE_KEYS


class TestTrain:
    def test_outputs_and_stdout(self, workspace, trained, capsys):
        assert trained.is_file()
        run_dir = trained.parent
        for name in ("train-loss.dat", "dev-combined-f1.dat", "config.json",
                     "manifest.json"):
            assert (run_dir / name).is_file()
        manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["command"] == "train"
        assert "checkpoint.json" in manifest["outputs"]
        assert set(manifest["inputs"]) == {"train", "dev"}

    def test_config_echo_reloads(self, workspace, trained):
        from valnov.config import load_config

        echoed = load_config(trained.parent / "config.json")
        assert echoed == load_config(workspace["config"])

    def test_history_series_files(self, trained):
        _, _, history, _ = load_checkpoint(trained)
        series = {
            "train-loss.dat": [(h.epoch, h.train_loss) for h in history],
            "dev-combined-f1.dat": [(h.epoch, h.dev_combined_f1) for h in history],
        }
        for name, rows in series.items():
            expected = "".join(f"{epoch} {value}\n" for epoch, value in rows)
            assert (trained.parent / name).read_text(encoding="utf-8") == expected

    def test_external_encoder_rejected_for_training(self, workspace, capsys):
        # the external-encoder settings and sweep.parallelism were removed;
        # a config that still sets them fails on the unknown key
        root = workspace["root"]
        stale_settings = [
            ("pretrained", {"pretrained": {"kind": "external", "command": "true"}}),
            ("parallelism", {"sweep": {"runs": 2, "parallelism": 2}}),
            ("output_dir", {"output_dir": "runs"}),
        ]
        for key, stale in stale_settings:
            bad = json.loads((root / "config.json").read_text(encoding="utf-8"))
            bad.update(stale)
            bad_path = root / f"config-{key}.json"
            bad_path.write_text(json.dumps(bad), encoding="utf-8")
            run_dir = root / f"train-{key}"
            code = main(["train", "--config", str(bad_path), "--run-dir", str(run_dir)])
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("error: configuration: ")
            assert err.count("\n") == 1
            assert f"'{key}'" in err
            assert not (run_dir / "checkpoint.json").exists()


class TestPredictEvaluate:
    def test_predict_both_tasks(self, workspace, trained, capsys):
        run_dir = workspace["root"] / "pred-run"
        code = main(
            ["predict", "--config", workspace["config"], "--run-dir", str(run_dir),
             "--checkpoint", str(trained), "--on", workspace["config"].replace(
                 "config.json", "dev.jsonl")]
        )
        assert code == 0
        preds = load_predictions(run_dir / "predictions.csv")
        assert len(preds) == 32  # 16 instances x 2 tasks
        assert {p.task for p in preds} == {Task.VALIDITY, Task.NOVELTY}
        assert {p.source for p in preds} == {"mtl"}

    def test_predict_single_task_filter(self, workspace, trained):
        # each single-task file is the bytes of that task's rows of --task both
        root = workspace["root"]
        for task in ("both", "validity", "novelty"):
            assert main(["predict", "--config", workspace["config"], "--run-dir",
                         str(root / f"pred-{task}"), "--checkpoint", str(trained),
                         "--task", task]) == 0
        both = load_predictions(root / "pred-both" / "predictions.csv")
        for task in (Task.VALIDITY, Task.NOVELTY):
            single = root / f"pred-{task.value}" / "predictions.csv"
            assert {p.task for p in load_predictions(single)} == {task}
            save_predictions([p for p in both if p.task is task], root / f"rows-{task.value}.csv")
            assert single.read_bytes() == (root / f"rows-{task.value}.csv").read_bytes()

    def test_predictions_reproduce_byte_identical(self, workspace, trained):
        dirs = [workspace["root"] / "pred-a", workspace["root"] / "pred-b"]
        for d in dirs:
            code = main(
                ["predict", "--config", workspace["config"], "--run-dir", str(d),
                 "--checkpoint", str(trained)]
            )
            assert code == 0
        a = (dirs[0] / "predictions.csv").read_bytes()
        b = (dirs[1] / "predictions.csv").read_bytes()
        assert a == b

    def test_evaluate_writes_reports(self, workspace, trained, capsys):
        pred_dir = workspace["root"] / "pred-eval"
        main(
            ["predict", "--config", workspace["config"], "--run-dir", str(pred_dir),
             "--checkpoint", str(trained)]
        )
        capsys.readouterr()
        eval_dir = workspace["root"] / "eval-run"
        code = main(
            ["evaluate", "--config", workspace["config"], "--run-dir", str(eval_dir),
             "--predictions", str(pred_dir / "predictions.csv")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "combined score (joint-macro-f1):" in out
        report = json.loads((eval_dir / "report.json").read_text(encoding="utf-8"))
        assert report["n_instances"] == 16
        assert report["source_tag"] == "mtl"
        assert (eval_dir / "report.txt").is_file()

    def test_report_rerenders(self, workspace, trained, capsys):
        eval_dir = workspace["root"] / "eval-run"
        out_path = workspace["root"] / "rendered.txt"
        code = main(
            ["report", "--report", str(eval_dir / "report.json"),
             "--out", str(out_path)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert stdout == out_path.read_text(encoding="utf-8")
        assert "Evaluation over 16 instances" in stdout


@pytest.fixture(scope="module")
def saved_report(workspace, trained):
    """``report.json`` of an evaluate run over the trained model's predictions."""
    root = workspace["root"]
    common = ["--config", workspace["config"]]
    assert main(["predict", *common, "--run-dir", str(root / "pred-report"),
                 "--checkpoint", str(trained)]) == 0
    assert main(["evaluate", *common, "--run-dir", str(root / "eval-report"),
                 "--predictions", str(root / "pred-report" / "predictions.csv")]) == 0
    return root / "eval-report" / "report.json"


class TestPromptPredictCli:
    def test_mock_then_replay_identical(self, workspace, capsys):
        root = workspace["root"]
        warm_dir = root / "gpt-warm"
        code = main(
            ["prompt-predict", "--config", workspace["config"], "--run-dir",
             str(warm_dir), "--task", "validity"]
        )
        assert code == 0
        assert "0 flagged" in capsys.readouterr().out
        few_shot = json.loads((warm_dir / "few-shot.json").read_text(encoding="utf-8"))
        assert few_shot["task"] == "validity"
        assert len(few_shot["example_ids"]) == 4

        replay_dir = root / "gpt-replay"
        code = main(
            ["prompt-predict", "--config", workspace["replay"], "--run-dir",
             str(replay_dir), "--task", "validity"]
        )
        assert code == 0
        assert (warm_dir / "predictions.csv").read_bytes() == (
            replay_dir / "predictions.csv"
        ).read_bytes()

    def test_cold_replay_is_cache_miss(self, workspace, capsys):
        root = workspace["root"]
        code = main(
            ["prompt-predict", "--config", workspace["replay"], "--run-dir",
             str(root / "gpt-cold"), "--task", "novelty",
             "--cache-dir", str(root / "empty-cache")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cache-miss: ")
        assert err.count("\n") == 1
        assert not (root / "empty-cache").exists()  # a miss records nothing


class TestBaselineMix:
    def test_baseline_outputs(self, workspace, capsys):
        run_dir = workspace["root"] / "svm-run"
        code = main(
            ["baseline", "--config", workspace["config"], "--run-dir", str(run_dir)]
        )
        assert code == 0
        preds = load_predictions(run_dir / "predictions.csv")
        assert len(preds) == 32
        assert {p.source for p in preds} == {"svm"}
        stats = json.loads((run_dir / "baseline-stats.json").read_text(encoding="utf-8"))
        assert set(stats["objective"]) == {"validity", "novelty"}
        assert (run_dir / "model-validity.json").is_file()
        assert (run_dir / "model-novelty.json").is_file()

    def test_baseline_counters(self, workspace, capsys):
        root = workspace["root"]
        stats = []
        for name in ("svm-count-a", "svm-count-b"):
            args = ["baseline", "--config", workspace["config"], "--run-dir",
                    str(root / name)]
            assert main(args) == 0
            stats.append(json.loads((root / name / "baseline-stats.json").read_text()))
        assert stats[0] == stats[1]  # deterministic per seed
        model = json.loads((root / "svm-count-a" / "model-novelty.json").read_text())
        counters = stats[0]["counters"]
        assert set(counters) == {"validity", "novelty"}
        for task_counters in counters.values():
            assert task_counters["vocab"] == len(model["vocabulary"])
            assert task_counters["steps"] == 50 * 40  # 40 training instances
            assert 0 < task_counters["violations"] <= task_counters["steps"]
            assert task_counters["train_nnz"] > 0
        header = (root / "svm-count-a" / "predictions.csv").read_text().splitlines()[0]
        assert header == "instance_id,task,value,source,flagged"

    def test_mix_tags_sources(self, workspace, capsys):
        root = workspace["root"]
        svm_file = root / "svm-run" / "predictions.csv"
        gpt_file = root / "gpt-warm" / "predictions.csv"
        mix_dir = root / "mix-run"
        code = main(
            ["mix", "--run-dir", str(mix_dir), "--validity", str(gpt_file),
             "--novelty", str(svm_file)]
        )
        assert code == 0
        assert "mix(gpt3,svm)" in capsys.readouterr().out
        mixed = load_predictions(mix_dir / "predictions.csv")
        by_task = {p.task for p in mixed}
        assert by_task == {Task.VALIDITY, Task.NOVELTY}
        sources = {(p.task, p.source) for p in mixed}
        assert (Task.VALIDITY, "gpt3") in sources
        assert (Task.NOVELTY, "svm") in sources

    def test_mixed_file_evaluates(self, workspace, capsys):
        root = workspace["root"]
        code = main(
            ["evaluate", "--config", workspace["config"], "--run-dir",
             str(root / "mix-eval"), "--predictions",
             str(root / "mix-run" / "predictions.csv")]
        )
        assert code == 0
        assert "combined score" in capsys.readouterr().out


class TestSeedSweep:
    def test_two_seeds(self, workspace, capsys):
        run_dir = workspace["root"] / "sweep-run"
        code = main(
            ["seed-sweep", "--config", seeded_config(workspace, 5), "--run-dir", str(run_dir)]
        )
        assert code == 0
        assert "2 runs: dev combined F1" in capsys.readouterr().out
        summary = json.loads((run_dir / "seed-summary.json").read_text(encoding="utf-8"))
        assert summary["seeds"] == [5, 6]
        assert summary["n_runs"] == 2
        for label in ("min", "mean", "max"):
            assert (run_dir / f"loss-{label}.dat").is_file()
        for seed in (5, 6):
            sub = run_dir / f"seed-{seed}"
            assert (sub / "checkpoint.json").is_file()
            assert (sub / "report.json").is_file()


class TestConfigEcho:
    """A run's config.json is the config the stage ran with."""

    @pytest.mark.parametrize(
        "argv",
        [["train", "--seed", "9"], ["seed-sweep", "--seed", "3"], ["seed-sweep", "--runs", "2"]],
        ids=["train-seed", "sweep-seed", "sweep-runs"],
    )
    def test_removed_flags_are_usage_errors(self, workspace, capsys, argv):
        run_dir = workspace["root"] / f"removed-{'-'.join(argv)}"
        command, *flag = argv
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--config", workspace["config"], "--run-dir", str(run_dir), *flag])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not run_dir.exists()

    def test_mock_reply_key_is_unknown(self, workspace, capsys):
        root = workspace["root"]
        config = json.loads(Path(workspace["config"]).read_text(encoding="utf-8"))
        config["prompting"]["mock_reply"] = "yes"
        config_path = root / "mock-reply.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        run_dir = root / "mock-reply"
        assert main(["prompt-predict", "--config", str(config_path), "--run-dir", str(run_dir),
                     "--task", "validity"]) == 2
        assert capsys.readouterr().err == (
            f"error: configuration: {config_path}: unknown config key(s) ['mock_reply'] "
            "under config.prompting\n"
        )
        assert not run_dir.exists()

    def test_cache_dir_flag_is_echoed(self, workspace):
        root = workspace["root"]
        run_dir, cache_dir = root / "echo-cache-dir", root / "echo-cache"
        assert main(["prompt-predict", "--config", workspace["config"], "--run-dir", str(run_dir),
                     "--task", "novelty", "--cache-dir", str(cache_dir)]) == 0
        echo = json.loads((run_dir / "config.json").read_text(encoding="utf-8"))
        assert echo["prompting"]["cache_dir"] == str(cache_dir)
        assert len(list(cache_dir.glob("*.json"))) == 16  # one record per dev target

    @pytest.mark.parametrize("command", ["train", "seed-sweep"])
    def test_init_encoder_must_match_config_encoder(self, workspace, capsys, command):
        root = workspace["root"]
        encoder = root / "encoder-64-4-4.json"
        other = EncoderConfig(vocab_buckets=64, embed_dim=4, projection_dim=4)
        save_encoder_checkpoint(ReferenceEncoder(other), [0.5], encoder)
        run_dir = root / f"mismatch-{command}"
        assert main([command, "--config", workspace["config"], "--run-dir", str(run_dir),
                     "--init-encoder", str(encoder)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: configuration: {encoder}: encoder_config ")
        assert err.count("\n") == 1
        assert "'vocab_buckets': 64, 'embed_dim': 4, 'projection_dim': 4" in err
        assert "config.encoder {'vocab_buckets': 256, 'embed_dim': 12, 'projection_dim': 8" in err
        assert not run_dir.exists()


@pytest.fixture(scope="module")
def dev_predictions(workspace):
    """Prediction files over the dev instances: one per task, both tasks,
    and a validity file that covers only three instances."""
    dev = load_instances_jsonl(workspace["root"] / "dev.jsonl")
    preds = {
        task.value: [Prediction(inst.id, task, LabelValue.POSITIVE, "svm") for inst in dev]
        for task in (Task.VALIDITY, Task.NOVELTY)
    }
    preds["both"] = preds["validity"] + preds["novelty"]
    preds["partial"] = preds["validity"][:3]
    paths = {name: workspace["root"] / f"dev-{name}.csv" for name in preds}
    for name, path in paths.items():
        save_predictions(preds[name], path)
    return paths


# subcommand -> (extra arguments, manifest input labels, manifest output names)
STAGE_MANIFESTS = {
    "prepare-data": (
        ["--splits", "train,dev"],
        {"train", "dev"},
        {"instances-train.jsonl", "instances-dev.jsonl", "triplets.jsonl", "stats.json"},
    ),
    "train": (
        [], {"train", "dev"}, {"checkpoint.json", "train-loss.dat", "dev-combined-f1.dat"}
    ),
    "contrastive-train": (
        [],
        {"train"},
        {"encoder-checkpoint.json", "contrastive-loss.dat", "contrastive-stats.json"},
    ),
    "predict": (["--checkpoint", "{checkpoint}"], {"checkpoint", "instances"},
                {"predictions.csv"}),
    "prompt-predict": (
        ["--task", "validity", "--cache-dir", "{root}/manifest-cache"],
        {"train", "targets"},
        {"predictions.csv", "few-shot.json"},
    ),
    "baseline": (
        [],
        {"train", "targets"},
        {"model-validity.json", "model-novelty.json", "predictions.csv",
         "baseline-stats.json"},
    ),
    "mix": (["--validity", "{validity}", "--novelty", "{novelty}"],
            {"validity", "novelty"}, {"predictions.csv"}),
    "evaluate": (["--predictions", "{both}"], {"predictions", "golds"},
                 {"report.json", "report.txt"}),
    "seed-sweep": (
        [],
        {"train", "dev"},
        {"seed-summary.json", "loss-min.dat", "loss-mean.dat", "loss-max.dat"},
    ),
}


class TestStageDriver:
    """What every run-directory subcommand leaves behind in its manifest."""

    @pytest.mark.parametrize("command", sorted(STAGE_MANIFESTS))
    def test_manifest_records_stage(self, workspace, trained, dev_predictions, command):
        root = workspace["root"]
        extra, inputs, outputs = STAGE_MANIFESTS[command]
        fill = {"root": root, "checkpoint": trained, **dev_predictions}
        run_dir = root / f"manifest-{command}"
        argv = [command, "--config", workspace["config"], "--run-dir", str(run_dir)]
        assert main(argv + [arg.format(**fill) for arg in extra]) == 0
        manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["command"] == command
        assert set(manifest["inputs"]) == inputs
        assert set(manifest["outputs"]) == outputs | {"config.json"}
        for name, digest in manifest["outputs"].items():
            assert digest == sha256_file(run_dir / name)

    def test_seed_sweep_sub_runs_are_train_manifests(self, workspace):
        run_dir = workspace["root"] / "manifest-sweep-subs"
        argv = ["seed-sweep", "--config", seeded_config(workspace, 3), "--run-dir", str(run_dir)]
        assert main(argv) == 0
        for seed in (3, 4):
            sub = run_dir / f"seed-{seed}"
            echo = json.loads((sub / "config.json").read_text(encoding="utf-8"))
            assert echo["seed"] == seed
            manifest = json.loads((sub / "manifest.json").read_text(encoding="utf-8"))
            assert manifest["command"] == "train"
            assert manifest["inputs"] == {
                label: {"path": str(path), "sha256": sha256_file(path)}
                for label, path in (("train", workspace["root"] / "train.jsonl"),
                                    ("dev", workspace["root"] / "dev.jsonl"))
            }
            assert set(manifest["outputs"]) == {
                "checkpoint.json", "train-loss.dat", "dev-combined-f1.dat", "report.json",
                "config.json",
            }

    def test_seed_sweep_records_init_encoder_once(self, workspace, monkeypatch):
        import valnov.cli

        root = workspace["root"]
        encoder = root / "sweep-encoder.json"
        config = EncoderConfig(vocab_buckets=256, embed_dim=12, projection_dim=8)
        save_encoder_checkpoint(ReferenceEncoder(config), [0.5], encoder)
        hashed = []

        def counting_sha256(path):
            hashed.append(str(path))
            return sha256_file(path)

        loaded = []

        def counting_load(path):
            loaded.append(str(path))
            return load_encoder_checkpoint(path)

        monkeypatch.setattr(valnov.cli, "sha256_file", counting_sha256)
        monkeypatch.setattr(valnov.cli.mtl, "load_encoder_checkpoint", counting_load)
        run_dir = root / "manifest-sweep-init"
        assert main(["seed-sweep", "--config", seeded_config(workspace, 3), "--run-dir",
                     str(run_dir), "--init-encoder", str(encoder)]) == 0
        assert hashed.count(str(encoder)) == 1
        assert loaded == [str(encoder)]
        record = {"path": str(encoder), "sha256": sha256_file(encoder)}
        parent = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
        assert set(parent["inputs"]) == {"train", "dev", "init-encoder"}
        assert parent["inputs"]["init-encoder"] == record
        for seed in (3, 4):
            sub = json.loads((run_dir / f"seed-{seed}" / "manifest.json").read_text("utf-8"))
            assert sub["inputs"] == parent["inputs"]
        # seed 4 trains after seed 3, so an encoder shared across seeds would
        # start it from seed 3's trained weights
        single = root / "train-init-seed-4"
        assert main(["train", "--config", seeded_config(workspace, 4), "--run-dir", str(single),
                     "--init-encoder", str(encoder)]) == 0
        swept = (run_dir / "seed-4" / "checkpoint.json").read_bytes()
        assert swept == (single / "checkpoint.json").read_bytes()

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("train", ["--train", "{root}/nope.jsonl"]),
            ("evaluate", ["--predictions", "{partial}"]),
            ("prompt-predict", ["--task", "novelty", "--cache-dir", "{root}/no-cache"]),
        ],
        ids=["missing-input", "coverage", "cache-miss"],
    )
    def test_failed_stage_writes_no_manifest(
        self, workspace, dev_predictions, capsys, command, extra
    ):
        root = workspace["root"]
        fill = {"root": root, **dev_predictions}
        run_dir = root / f"failed-{command}"
        argv = [command, "--config", workspace["replay"], "--run-dir", str(run_dir)]
        assert main(argv + [arg.format(**fill) for arg in extra]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not run_dir.exists()  # the stage created it, and wrote nothing into it

    @pytest.mark.parametrize(
        "existing", ["", "run", "run/sub", "run/sub/stage"], ids=["none", "run", "sub", "stage"]
    )
    def test_failed_stage_removes_only_the_directories_it_created(
        self, workspace, capsys, tmp_path, existing
    ):
        run_dir = tmp_path / "run" / "sub" / "stage"
        if existing:
            (tmp_path / existing).mkdir(parents=True)
        argv = ["train", "--config", workspace["config"], "--run-dir", str(run_dir),
                "--train", str(workspace["root"] / "nope.jsonl")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: usage: ") and err.count("\n") == 1
        left = sorted(str(path.relative_to(tmp_path)) for path in tmp_path.rglob("*"))
        # the directories that existed before the stage, and nothing else
        assert left == {"": [], "run": ["run"], "run/sub": ["run", "run/sub"],
                        "run/sub/stage": ["run", "run/sub", "run/sub/stage"]}[existing]

    def test_failed_stage_keeps_what_it_wrote(
        self, workspace, dev_predictions, capsys, tmp_path, monkeypatch
    ):
        import valnov.cli

        def failing_render(report):
            raise DataError("cannot render")

        # evaluate writes report.json before it renders the text table
        monkeypatch.setattr(valnov.cli, "render_text", failing_render)
        run_dir = tmp_path / "eval"
        argv = ["evaluate", "--config", workspace["config"], "--run-dir", str(run_dir),
                "--predictions", str(dev_predictions["both"])]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: data: cannot render\n"
        assert [path.name for path in run_dir.iterdir()] == ["report.json"]

    @pytest.fixture
    def diverging_config(self, workspace, tmp_path):
        config = json.loads(Path(workspace["config"]).read_text(encoding="utf-8"))
        config["train_overrides"] = {"learning_rate": 1e300}
        path = tmp_path / "diverging.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        return str(path)

    def test_failed_sweep_removes_its_empty_sub_run(self, diverging_config, capsys, tmp_path):
        run_dir = tmp_path / "sweep"
        argv = ["seed-sweep", "--config", diverging_config, "--run-dir", str(run_dir)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: training: non-finite loss")
        assert not (run_dir / "seed-0").exists()
        assert not run_dir.exists()

    def test_diverging_training_prints_only_the_error_line(self, diverging_config, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(Path(valnov.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "valnov.cli", "seed-sweep", "--config", diverging_config,
             "--run-dir", str(tmp_path / "sweep")],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 2
        assert done.stderr.startswith("error: training: non-finite loss")
        assert done.stderr.count("\n") == 1

    def test_diverging_contrastive_train_fails_cleanly(self, workspace, tmp_path):
        # tanh saturates, so the triplet loss of this run stays finite
        config = json.loads(Path(workspace["config"]).read_text(encoding="utf-8"))
        config["contrastive"] = {"learning_rate": 1e300}
        config_path = tmp_path / "diverging.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        run_dir = tmp_path / "contrastive"
        env = {**os.environ, "PYTHONPATH": str(Path(valnov.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "valnov.cli", "contrastive-train", "--config",
             str(config_path), "--run-dir", str(run_dir)],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 2
        assert done.stderr.startswith("error: training: ")
        assert done.stderr.count("\n") == 1
        assert not (run_dir / "encoder-checkpoint.json").exists()
        assert not run_dir.exists()


def _broken_checkpoint(text: str, case: str) -> str:
    """``text`` of a checkpoint, damaged as ``case`` names."""
    if case == "truncated":
        return text[: len(text) // 2]
    blob = json.loads(text)
    params = blob["params"]
    name = next(n for n, rec in params.items() if len(rec["shape"]) == 2)
    if case == "missing-key":
        del params[name]
    elif case == "extra-key":
        params["extra"] = {"shape": [1], "data": [0.0]}
    elif case == "wrong-shape":  # same number of values, transposed
        params[name]["shape"] = params[name]["shape"][::-1]
    elif case == "short-data":
        params[name]["data"] = params[name]["data"][:-1]
    elif case == "nan":
        params[name]["data"][3] = float("nan")
    elif case == "config-type":
        blob["encoder_config"]["embed_dim"] = "12"
    return json.dumps(blob)


CHECKPOINT_DAMAGE = [
    ("truncated", "parse"),
    ("missing-key", "schema"),
    ("extra-key", "schema"),
    ("wrong-shape", "schema"),
    ("short-data", "schema"),
    ("nan", "schema"),
    ("config-type", "configuration"),
]


class TestErrorContract:
    def run_expecting(self, capsys, argv, category):
        code = main(argv)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {category}: ")
        assert err.count("\n") == 1
        return err

    def test_missing_input_is_usage(self, workspace, capsys):
        self.run_expecting(
            capsys,
            ["train", "--config", workspace["config"], "--run-dir",
             str(workspace["root"] / "e1"), "--train",
             str(workspace["root"] / "nope.jsonl")],
            "usage",
        )

    @pytest.mark.parametrize(
        "config, run_dir",
        [("{root}", "{root}/e-config-dir"), ("{config}", "{file}"),
         ("{config}", "{file}/run")],
        ids=["config-is-directory", "run-dir-is-file", "run-dir-under-file"],
    )
    def test_path_of_wrong_kind_is_usage(self, workspace, capsys, config, run_dir):
        root = workspace["root"]
        fill = {"root": root, "config": workspace["config"], "file": root / "train.jsonl"}
        run_dir = Path(run_dir.format(**fill))
        self.run_expecting(
            capsys,
            ["train", "--config", config.format(**fill), "--run-dir", str(run_dir)],
            "usage",
        )
        assert not run_dir.is_dir()

    @pytest.mark.parametrize(
        "argv",
        [["report", "--report", "{root}"],
         ["evaluate", "--config", "{config}", "--run-dir", "{root}/e-dir-input",
          "--predictions", "{root}"]],
        ids=["report", "evaluate"],
    )
    def test_directory_input_is_not_a_file(self, workspace, capsys, argv):
        root = workspace["root"]
        argv = [arg.format(root=root, config=workspace["config"]) for arg in argv]
        err = self.run_expecting(capsys, argv, "usage")
        assert err == f"error: usage: not a file: {root}\n"
        assert not (root / "e-dir-input").exists()

    def test_unknown_config_key_is_configuration(self, workspace, capsys):
        root = workspace["root"]
        bad = root / "bad-config.json"
        bad.write_text('{"optimiser": "adam"}', encoding="utf-8")
        self.run_expecting(
            capsys,
            ["prepare-data", "--config", str(bad), "--run-dir", str(root / "e2")],
            "configuration",
        )

    def test_bad_prediction_file_is_parse(self, workspace, capsys):
        root = workspace["root"]
        broken = root / "broken.csv"
        broken.write_text("id,task\n", encoding="utf-8")
        self.run_expecting(
            capsys,
            ["evaluate", "--config", workspace["config"], "--run-dir",
             str(root / "e3"), "--predictions", str(broken)],
            "parse",
        )

    def test_partial_predictions_is_coverage(self, workspace, capsys):
        root = workspace["root"]
        partial = root / "partial.csv"
        save_predictions(
            [Prediction("sep-0000", Task.VALIDITY, LabelValue.POSITIVE, "svm")],
            partial,
        )
        self.run_expecting(
            capsys,
            ["evaluate", "--config", workspace["config"], "--run-dir",
             str(root / "e4"), "--predictions", str(partial)],
            "coverage",
        )

    def test_single_class_training_set_is_data(self, workspace, capsys):

        root = workspace["root"]
        skewed = [make_instance(id=f"s{k}", validity=1, novelty=1) for k in range(4)]
        save_instances_jsonl(skewed, root / "skewed.jsonl")
        self.run_expecting(
            capsys,
            ["baseline", "--config", workspace["config"], "--run-dir",
             str(root / "e5"), "--train", str(root / "skewed.jsonl"),
             "--task", "validity"],
            "data",
        )

    @pytest.mark.parametrize("steps", [0, -5])
    def test_baseline_steps_below_one_is_configuration(self, workspace, capsys, steps):
        root = workspace["root"]
        config = json.loads(open(workspace["config"], encoding="utf-8").read())
        config["baseline"] = {"steps": steps}
        config_path = root / f"steps-{steps}.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        run_dir = root / f"e-steps{steps}"
        err = self.run_expecting(
            capsys,
            ["baseline", "--config", str(config_path), "--run-dir", str(run_dir),
             "--task", "both"],
            "configuration",
        )
        assert "steps" in err
        assert not list(run_dir.glob("model-*.json"))

    def test_schema_error_from_bad_csv(self, workspace, capsys):
        root = workspace["root"]
        csv_path = root / "no-conclusion.csv"
        csv_path.write_text(
            "topic,Premise,Validity,Validity-Confidence,Novelty,Novelty-Confidence\n"
            "t,p,1,majority,1,majority\n",
            encoding="utf-8",
        )
        config = {"data": {"train_path": str(csv_path)}}
        config_path = root / "csv-config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        self.run_expecting(
            capsys,
            ["prepare-data", "--config", str(config_path), "--run-dir",
             str(root / "e6"), "--splits", "train"],
            "schema",
        )

    @pytest.mark.parametrize("case, category", CHECKPOINT_DAMAGE)
    def test_predict_on_broken_checkpoint(self, workspace, trained, capsys, case, category):
        root = workspace["root"]
        broken = root / f"checkpoint-{case}.json"
        broken.write_text(
            _broken_checkpoint(trained.read_text(encoding="utf-8"), case), encoding="utf-8"
        )
        run_dir = root / f"pred-{case}"
        err = self.run_expecting(
            capsys,
            ["predict", "--config", workspace["config"], "--run-dir", str(run_dir),
             "--checkpoint", str(broken)],
            category,
        )
        assert str(broken) in err
        assert not (run_dir / "predictions.csv").exists()

    @pytest.mark.parametrize("case, category", CHECKPOINT_DAMAGE)
    def test_train_on_broken_encoder_checkpoint(self, workspace, capsys, case, category):
        root = workspace["root"]
        good = root / "encoder-good.json"
        config = EncoderConfig(vocab_buckets=256, embed_dim=12, projection_dim=8)
        save_encoder_checkpoint(ReferenceEncoder(config), [0.5], good)
        broken = root / f"encoder-{case}.json"
        broken.write_text(
            _broken_checkpoint(good.read_text(encoding="utf-8"), case), encoding="utf-8"
        )
        run_dir = root / f"init-{case}"
        err = self.run_expecting(
            capsys,
            ["train", "--config", workspace["config"], "--run-dir", str(run_dir),
             "--init-encoder", str(broken)],
            category,
        )
        assert str(broken) in err
        assert not (run_dir / "checkpoint.json").exists()

    @pytest.mark.parametrize(
        "case, category, detail",
        [
            ("truncated", "parse", "invalid JSON"),
            ("not-an-object", "schema", "JSON object"),
            ("missing-premise", "schema", "'premise'"),
            ("premise-not-text", "schema", "'premise'"),
            ("bad-split", "schema", "holdout"),
            ("bad-confidence", "schema", "sure"),
            ("fractional-label", "schema", "'validity_raw'"),
            ("boolean-label", "schema", "'novelty_raw'"),
            ("duplicate-id", "data", "duplicate id"),
            ("empty-premise", "data", "empty premise"),
            ("empty-conclusion", "data", "empty conclusion"),
        ],
    )
    def test_broken_instances_jsonl(self, workspace, capsys, case, category, detail):
        root = workspace["root"]
        first, second = (root / "train.jsonl").read_text(encoding="utf-8").splitlines()[:2]
        rec = json.loads(second)
        damaged = {
            "truncated": second[: len(second) // 2],
            "not-an-object": json.dumps([rec]),
            "missing-premise": json.dumps({k: v for k, v in rec.items() if k != "premise"}),
            "premise-not-text": json.dumps(dict(rec, premise=5)),
            "bad-split": json.dumps(dict(rec, split="holdout")),
            "bad-confidence": json.dumps(dict(rec, novelty_confidence="sure")),
            "fractional-label": json.dumps(dict(rec, validity_raw=0.9)),
            "boolean-label": json.dumps(dict(rec, novelty_raw=True)),
            "duplicate-id": json.dumps(dict(rec, id=json.loads(first)["id"])),
            "empty-premise": json.dumps(dict(rec, premise="")),
            "empty-conclusion": json.dumps(dict(rec, conclusion="")),
        }[case]
        path = root / f"instances-{case}.jsonl"
        path.write_text(f"{first}\n\n{damaged}\n", encoding="utf-8")
        run_dir = root / f"train-{case}"
        err = self.run_expecting(
            capsys,
            ["train", "--config", workspace["config"], "--run-dir", str(run_dir),
             "--train", str(path)],
            category,
        )
        assert f"{path}:3: " in err
        assert detail in err
        assert not (run_dir / "checkpoint.json").exists()

    @pytest.mark.parametrize(
        "case, category, detail",
        [
            ("truncated", "parse", "invalid JSON"),
            ("missing-negative", "schema", "'negative'"),
            ("null-negative", "schema", "'negative'"),
        ],
    )
    def test_broken_triplets_jsonl(self, workspace, capsys, case, category, detail):
        root = workspace["root"]
        good = {"anchor": "a", "positive": "p", "negative": "n", "topic": "t"}
        damaged = {
            "truncated": json.dumps(good)[:20],
            "missing-negative": json.dumps({k: v for k, v in good.items() if k != "negative"}),
            "null-negative": json.dumps(dict(good, negative=None)),
        }[case]
        path = root / f"triplets-{case}.jsonl"
        path.write_text(f"{json.dumps(good)}\n{damaged}\n", encoding="utf-8")
        run_dir = root / f"contrastive-{case}"
        err = self.run_expecting(
            capsys,
            ["contrastive-train", "--config", workspace["config"], "--run-dir",
             str(run_dir), "--triplets", str(path)],
            category,
        )
        assert f"{path}:2: " in err
        assert detail in err
        assert not (run_dir / "encoder-checkpoint.json").exists()

    @pytest.mark.parametrize(
        "record",
        ['{"key": "k", "raw_text": "ye', '{"key": "k"}', '{"raw_text": 1}', '["yes"]'],
        ids=["truncated", "no-raw-text", "raw-text-not-a-string", "not-an-object"],
    )
    def test_corrupt_cache_record(self, workspace, capsys, request, record):
        # replay-only and a live provider alike: a corrupt record is never a miss
        root = workspace["root"]
        case = request.node.callspec.id
        cache_dir = root / f"cache-{case}"
        fill = ["prompt-predict", "--config", workspace["config"], "--run-dir",
                str(root / f"fill-{case}"), "--task", "validity",
                "--cache-dir", str(cache_dir)]
        assert main(fill) == 0
        victim = sorted(cache_dir.glob("*.json"))[5]
        victim.write_text(record, encoding="utf-8")
        for provider in ("replay", "config"):
            run_dir = root / f"replay-{case}-{provider}"
            err = self.run_expecting(
                capsys,
                ["prompt-predict", "--config", workspace[provider], "--run-dir",
                 str(run_dir), "--task", "validity",
                 "--cache-dir", str(cache_dir)],
                "parse",
            )
            assert str(victim) in err
            assert not (run_dir / "predictions.csv").exists()
        assert victim.read_text(encoding="utf-8") == record  # never overwritten

    @pytest.mark.parametrize(
        "case, category",
        [("truncated", "parse"), ("not-utf8", "parse"), ("empty-object", "schema"),
         ("support-not-a-count", "schema"), ("topic-row-short", "schema")],
    )
    def test_broken_report(self, workspace, saved_report, capsys, case, category):
        root = workspace["root"]
        text = saved_report.read_text(encoding="utf-8")
        blob = json.loads(text)
        if case == "support-not-a-count":
            blob["validity"]["negative"]["support"] = "8"
        elif case == "topic-row-short":
            blob["topic_errors"]["novelty"] = [["topic", 0.5]]
        damaged = {
            "truncated": text[: len(text) // 2].encode("utf-8"),
            "not-utf8": b'{"source_tag": "\xff\xfe"}',
            "empty-object": b"{}",
        }.get(case, json.dumps(blob).encode("utf-8"))
        broken = root / f"report-{case}.json"
        broken.write_bytes(damaged)
        out_path = root / f"rendered-{case}.txt"
        err = self.run_expecting(
            capsys, ["report", "--report", str(broken), "--out", str(out_path)], category
        )
        assert str(broken) in err
        assert not out_path.exists()

    def test_unknown_split_name_is_rejected_by_parser(self, workspace, capsys):
        run_dir = workspace["root"] / "prep-bogus"
        with pytest.raises(SystemExit) as exit_info:
            main(["prepare-data", "--config", workspace["config"], "--run-dir",
                  str(run_dir), "--splits", "train,bogus"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --splits: 'train,bogus'" in err
        assert "Traceback" not in err
        assert not run_dir.exists()

    def test_non_utf8_csv_is_parse(self, workspace, capsys):
        root = workspace["root"]
        bad = root / "not-utf8.csv"
        bad.write_bytes(
            b"topic,Premise,Conclusion,Validity,Novelty\n"
            b"t,p \xff\xfe,c,1,1\n"
        )
        run_dir = root / "svm-not-utf8"
        err = self.run_expecting(
            capsys,
            ["baseline", "--config", workspace["config"], "--run-dir", str(run_dir),
             "--train", str(bad)],
            "parse",
        )
        assert str(bad) in err
        assert not (run_dir / "predictions.csv").exists()

    def test_non_utf8_config_is_parse(self, workspace, capsys):
        root = workspace["root"]
        bad = root / "config-not-utf8.json"
        bad.write_bytes(b'{"profile": "desk \xff\xfe"}')
        run_dir = root / "train-config-not-utf8"
        err = self.run_expecting(
            capsys, ["train", "--config", str(bad), "--run-dir", str(run_dir)], "parse"
        )
        assert str(bad) in err
        assert not (run_dir / "manifest.json").exists()

    def test_non_utf8_predictions_is_parse(self, workspace, dev_predictions, capsys):
        root = workspace["root"]
        bad = root / "predictions-not-utf8.csv"
        text = dev_predictions["both"].read_bytes()
        bad.write_bytes(text.replace(b",svm,", b",svm \xff\xfe,", 1))
        run_dir = root / "eval-not-utf8"
        err = self.run_expecting(
            capsys,
            ["evaluate", "--config", workspace["config"], "--run-dir", str(run_dir),
             "--predictions", str(bad)],
            "parse",
        )
        assert str(bad) in err
        assert not (run_dir / "manifest.json").exists()


# dotted config key, ill-typed value, subcommand run on it, text the error names
ILL_TYPED_CONFIG = [
    ("seed", "x", "train", "config.seed must be int"),
    ("encoder.embed_dim", 12.5, "train", "config.encoder.embed_dim must be int"),
    ("prompting.parallelism", "4", "prompt-predict",
     "config.prompting.parallelism must be int"),
    ("train_overrides.epochs", "2", "train", "config.train_overrides.epochs must be int"),
    ("train_overrides.epochz", 2, "train", "['epochz'] under config.train_overrides"),
    # any value: the run's seed always wins over this override
    ("train_overrides.seed", "x", "train", "config.train_overrides.seed has no effect"),
    ("train_overrides.task_probabilities", 0.5, "train",
     "config.train_overrides.task_probabilities must be tuple[float, float]"),
    ("sweep.runs", "2", "seed-sweep", "config.sweep.runs must be int"),
    ("baseline.c_validity", "0.1", "baseline", "config.baseline.c_validity must be float"),
    ("profile", ["desk"], "train", "config.profile must be str"),
    ("prompting.temperature", "0", "prompt-predict",
     "config.prompting.temperature must be float"),
    ("baseline.steps", True, "baseline", "config.baseline.steps must be int"),
    ("data.column_map.topic", 5, "prepare-data", "config.data.column_map.topic must be str"),
]

# well-typed values out of range: each fails in load_config as well
OUT_OF_RANGE_CONFIG = [
    ("combined_metric", "nope", "train", "combined_metric 'nope' is unknown"),
    ("combined_metric", "nope", "prompt-predict", "combined_metric 'nope' is unknown"),
    ("combined_metric", "nope", "baseline", "combined_metric 'nope' is unknown"),
    ("train_overrides.combined_metric", "task-mean-macro-f1", "seed-sweep",
     "config.train_overrides.combined_metric has no effect"),
    ("prompting.parallelism", 0, "prompt-predict", "prompting.parallelism must be >= 1"),
    ("prompting.requests_per_second", 0, "prompt-predict",
     "prompting.requests_per_second must be null or > 0"),
    ("prompting.requests_per_second", -1.0, "prompt-predict",
     "prompting.requests_per_second must be null or > 0"),
]

STAGE_ARGS = {
    "prompt-predict": ["--task", "validity", "--cache-dir", "{root}/typed-cache"],
    "prepare-data": ["--splits", "train"],
}


def _set_key(config: dict, dotted: str, value) -> dict:
    """A deep copy of ``config`` with the dotted key set to ``value``."""
    config = json.loads(json.dumps(config))
    *sections, name = dotted.split(".")
    node = config
    for section in sections:
        node = node.setdefault(section, {})
    node[name] = value
    return config


class TestIllTypedInputs:
    @pytest.mark.parametrize(
        "dotted, value, command, detail",
        ILL_TYPED_CONFIG + OUT_OF_RANGE_CONFIG,
        ids=[c[0] for c in ILL_TYPED_CONFIG]
        + [f"{c[0]}={c[1]}-{c[2]}" for c in OUT_OF_RANGE_CONFIG],
    )
    def test_ill_typed_config_value_is_configuration(
        self, workspace, capsys, dotted, value, command, detail
    ):
        root = workspace["root"]
        config = json.loads(open(workspace["config"], encoding="utf-8").read())
        config_path = root / f"typed-{dotted}.json"
        config_path.write_text(json.dumps(_set_key(config, dotted, value)), encoding="utf-8")
        run_dir = root / f"typed-{dotted}"
        extra = [arg.format(root=root) for arg in STAGE_ARGS.get(command, [])]
        code = main([command, "--config", str(config_path), "--run-dir", str(run_dir), *extra])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: configuration: ") and err.count("\n") == 1
        assert detail in err
        assert "Traceback" not in err
        assert not run_dir.exists()

    def test_seed_sweep_of_one_run_is_rejected_before_training(self, workspace, capsys):
        root = workspace["root"]
        config = json.loads(open(workspace["config"], encoding="utf-8").read())
        config_path = root / "sweep-one-run.json"
        config_path.write_text(json.dumps(_set_key(config, "sweep.runs", 1)), encoding="utf-8")
        run_dir = root / "sweep-one-run"
        assert main(["seed-sweep", "--config", str(config_path), "--run-dir", str(run_dir)]) == 2
        assert capsys.readouterr().err == (
            "error: configuration: sweep.runs must be >= 2: "
            "a seed summary needs at least 2 runs\n"
        )
        assert not run_dir.exists()

    def _damaged_checkpoint(self, workspace, trained, name, damage):
        blob = json.loads(trained.read_text(encoding="utf-8"))
        damage(blob)
        path = workspace["root"] / f"checkpoint-{name}.json"
        path.write_text(json.dumps(blob), encoding="utf-8")
        return path

    def test_checkpoint_train_config_type_is_configuration(self, workspace, trained, capsys):
        def damage(blob):
            blob["train_config"]["seed"] = "3"

        broken = self._damaged_checkpoint(workspace, trained, "seed-text", damage)
        run_dir = workspace["root"] / "pred-seed-text"
        code = main(["predict", "--config", workspace["config"], "--run-dir", str(run_dir),
                     "--checkpoint", str(broken)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == (
            f"error: configuration: {broken}: checkpoint TrainConfig.seed must be int, got '3'\n"
        )
        assert not (run_dir / "predictions.csv").exists()

    @pytest.mark.parametrize(
        "field, value, detail",
        [
            ("best_epoch", "1", "best_epoch must be int"),
            ("best_epoch", 1.7, "best_epoch must be int"),
            ("best_epoch", True, "best_epoch must be int"),
            ("history", "0.5", "history[0][1] must be float"),
            ("name", 5, "name must be str"),
        ],
        ids=["best-epoch-text", "best-epoch-fraction", "best-epoch-bool", "history-cell-text",
             "name-not-text"],
    )
    def test_ill_typed_checkpoint_metadata_is_schema(
        self, workspace, trained, capsys, field, value, detail
    ):
        def damage(blob):
            if field == "history":
                blob["history"][0][1] = value
            else:
                blob[field] = value

        broken = self._damaged_checkpoint(workspace, trained, f"{field}-{value}", damage)
        run_dir = workspace["root"] / f"pred-meta-{field}-{value}"
        code = main(["predict", "--config", workspace["config"], "--run-dir", str(run_dir),
                     "--checkpoint", str(broken)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: schema: {broken}: ") and err.count("\n") == 1
        assert detail in err
        assert not (run_dir / "predictions.csv").exists()

    def test_ill_typed_encoder_epoch_losses_is_schema(self, workspace, capsys):
        root = workspace["root"]
        good = root / "encoder-losses.json"
        config = EncoderConfig(vocab_buckets=256, embed_dim=12, projection_dim=8)
        save_encoder_checkpoint(ReferenceEncoder(config), [0.5, 0.25], good)
        blob = json.loads(good.read_text(encoding="utf-8"))
        blob["epoch_losses"][1] = "0.25"
        broken = root / "encoder-losses-text.json"
        broken.write_text(json.dumps(blob), encoding="utf-8")
        run_dir = root / "init-losses-text"
        code = main(["train", "--config", workspace["config"], "--run-dir", str(run_dir),
                     "--init-encoder", str(broken)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: schema: {broken}: epoch_losses[1] must be float, got '0.25'\n"
        assert not (run_dir / "checkpoint.json").exists()

    def test_int_temperature_keeps_echo_and_cache_keys(self, workspace):
        # no coercion: 0 stays 0, so the echo and every cache key are the
        # bytes a config written with 0 has always produced
        root = workspace["root"]
        config = json.loads(open(workspace["config"], encoding="utf-8").read())
        config_path = root / "int-temperature.json"
        config_path.write_text(
            json.dumps(_set_key(config, "prompting.temperature", 0)), encoding="utf-8"
        )
        run_dir, cache_dir = root / "int-temperature", root / "int-temperature-cache"
        assert main(["prompt-predict", "--config", str(config_path), "--run-dir", str(run_dir),
                     "--task", "validity", "--cache-dir", str(cache_dir)]) == 0

        # --cache-dir is echoed as the prompting.cache_dir the stage used
        settings = PromptSettings(
            **dict(config["prompting"], temperature=0, cache_dir=str(cache_dir))
        )
        expected = RunConfig(
            data=DataSettings(**config["data"]),
            encoder=EncoderConfig(**config["encoder"]),
            profile="desk",
            prompting=settings,
            sweep=SweepSettings(**config["sweep"]),
        )
        assert (run_dir / "config.json").read_text(encoding="utf-8") == resolved_config_json(
            expected
        )
        assert '"temperature": 0\n' in (run_dir / "config.json").read_text(encoding="utf-8")

        train = load_instances_jsonl(root / "train.jsonl")
        few_shot = select_few_shot(train, Task.VALIDITY)
        targets = load_instances_jsonl(root / "dev.jsonl")

        def keys(decoding):
            return {
                cache_key(PromptRequest(build_prompt(few_shot, t, Task.VALIDITY), **decoding))
                for t in targets
            }

        written = {path.stem for path in cache_dir.glob("*.json")}
        assert written == keys(settings.decoding())
        assert written.isdisjoint(keys(dict(settings.decoding(), temperature=0.0)))
