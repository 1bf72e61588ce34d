"""scripts/recipes.py: every paper recipe runs end to end on synthetic data."""

import importlib.util
from pathlib import Path

from valnov.evaluation import load_report

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "recipes.py"


def test_every_recipe_runs_and_replay_reproduces_recipe1(tmp_path, capsys, monkeypatch):
    spec = importlib.util.spec_from_file_location("recipes", SCRIPT)
    recipes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(recipes)
    stage_log = []  # (subcommand, exit code) of every stage run

    def logged(argv, stage=recipes.valnov):
        stage_log.append((argv[0], stage(argv)))
        return stage_log[-1][1]

    monkeypatch.setattr(recipes, "valnov", logged)

    data = tmp_path / "data"
    recipes.main(["prepare", "--out", str(data)])
    for name in recipes.RECIPES:
        recipes.main(["run", name, "--data", str(data), "--workdir", str(tmp_path / name)])
    recipes.main(["run", "recipe1", "--data", str(data), "--workdir", str(tmp_path / "replay"),
                  "--replay"])

    chains = [recipes.PREPARE, *(stages for _, stages in recipes.RECIPES.values()),
              recipes.RECIPES["recipe1"][1]]
    assert stage_log == [(command, 0) for chain in chains for command, _, _ in chain]
    mix = Path("mix", "predictions.csv")
    assert (tmp_path / "replay" / mix).read_bytes() == (tmp_path / "recipe1" / mix).read_bytes()

    out = capsys.readouterr().out
    for name, (_, stages) in recipes.RECIPES.items():
        for command, run_dir, _ in stages:
            if command == "evaluate":
                report = load_report(tmp_path / name / run_dir / "report.json")
                assert f"{name} {run_dir}: combined F1 {report.combined:.4f}\n" in out
    replayed = load_report(tmp_path / "replay" / "eval" / "report.json")
    assert replayed == load_report(tmp_path / "recipe1" / "eval" / "report.json")
