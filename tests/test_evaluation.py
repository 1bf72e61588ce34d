"""Metrics, combined scoring, error analysis, reports, seed aggregation."""

import hashlib
import math
from dataclasses import replace

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valnov.corpus import Confidence, LabelValue, Split, Task
from valnov.errors import ConfigurationError, CoverageError
from valnov import evaluation
from valnov.evaluation import (
    COMBINED_METRICS,
    DEFAULT_COMBINED_METRIC,
    EvalReport,
    combined_score,
    confusion,
    evaluate,
    load_report,
    macro_f1,
    prf,
    render_text,
    report_to_json,
    seed_summary,
)
from valnov.predictions import Prediction, task_index
from valnov.synthetic import make_profile_split, make_random_eval_fixture

from conftest import make_instance


def pred(id, task, positive, source="m", flagged=False):
    return Prediction(
        instance_id=id,
        task=task,
        value=LabelValue.POSITIVE if positive else LabelValue.NEGATIVE,
        source=source,
        flagged=flagged,
    )


def joint_fixture():
    """8 instances, 2 per joint class, with hand-scored predictions.

    Joint macro F1 works out to (0.5+1.0+0.5+0.5)/4 = 0.625 and both
    per-task matrices to ((3,1),(1,3)), macro 0.75 each.
    """
    truth = [  # (validity, novelty) raw labels
        (1, 1), (1, 1), (1, -1), (1, -1), (-1, 1), (-1, 1), (-1, -1), (-1, -1),
    ]
    guessed = [  # predicted (validity, novelty) as booleans
        (True, True), (True, False), (True, False), (False, False),
        (False, True), (False, True), (False, False), (True, True),
    ]
    golds = [
        make_instance(id=f"i{k}", validity=v, novelty=n)
        for k, (v, n) in enumerate(truth)
    ]
    preds = []
    for k, (val, nov) in enumerate(guessed):
        preds.append(pred(f"i{k}", Task.VALIDITY, val))
        preds.append(pred(f"i{k}", Task.NOVELTY, nov))
    return golds, preds


class TestConfusion:
    def test_orientation_rows_true_negative_first(self):
        golds = [
            make_instance(id="a", validity=1),
            make_instance(id="b", validity=1),
            make_instance(id="c", validity=-1),
        ]
        preds = [
            pred("a", Task.VALIDITY, True),
            pred("b", Task.VALIDITY, False),
            pred("c", Task.VALIDITY, False),
        ]
        assert confusion(preds, golds, Task.VALIDITY) == ((1, 0), (1, 1))

    def test_middle_class_counts_as_negative(self):
        golds = [make_instance(id="a", validity=0)]
        matrix = confusion([pred("a", Task.VALIDITY, False)], golds, Task.VALIDITY)
        assert matrix == ((1, 0), (0, 0))

    def test_missing_prediction_lists_ids(self):
        golds = [make_instance(id="a"), make_instance(id="b")]
        with pytest.raises(CoverageError, match=r"\['b'\]"):
            confusion([pred("a", Task.VALIDITY, True)], golds, Task.VALIDITY)

    def test_duplicate_prediction_rejected(self):
        golds = [make_instance(id="a")]
        doubled = [pred("a", Task.VALIDITY, True), pred("a", Task.VALIDITY, False)]
        with pytest.raises(CoverageError, match="multiple"):
            confusion(doubled, golds, Task.VALIDITY)

    def test_other_task_rows_ignored(self):
        golds = [make_instance(id="a", validity=1)]
        preds = [pred("a", Task.VALIDITY, True), pred("a", Task.NOVELTY, False)]
        assert confusion(preds, golds, Task.VALIDITY) == ((0, 0), (0, 1))


class TestPrf:
    def test_hand_values(self):
        per_class = prf(((3, 1), (2, 4)))
        neg, pos = per_class["negative"], per_class["positive"]
        assert neg.precision == pytest.approx(3 / 5)
        assert neg.recall == pytest.approx(3 / 4)
        assert neg.f1 == pytest.approx(2 * 0.6 * 0.75 / 1.35)
        assert neg.support == 4
        assert pos.precision == pytest.approx(4 / 5)
        assert pos.recall == pytest.approx(4 / 6)
        assert pos.f1 == pytest.approx(2 * 0.8 * (4 / 6) / (0.8 + 4 / 6))
        assert pos.support == 6

    def test_accepts_confusion_object(self):
        golds = [make_instance(id="a", validity=1)]
        matrix = confusion([pred("a", Task.VALIDITY, True)], golds, Task.VALIDITY)
        assert prf(matrix)["positive"].f1 == 1.0

    def test_zero_division_yields_zero(self):
        per_class = prf(((2, 0), (3, 0)))  # nothing predicted positive
        assert per_class["positive"].precision == 0.0
        assert per_class["positive"].recall == 0.0
        assert per_class["positive"].f1 == 0.0
        assert per_class["negative"].recall == 1.0

    def test_published_novelty_matrix(self):
        # large-model novelty confusion from the replication target
        per_class = prf(((240, 54), (181, 45)))
        assert per_class["negative"].f1 == pytest.approx(0.671, abs=5e-4)
        assert per_class["positive"].f1 == pytest.approx(0.277, abs=5e-4)

    def test_macro_is_mean_of_class_f1(self):
        per_class = prf(((3, 1), (2, 4)))
        assert macro_f1(((3, 1), (2, 4))) == pytest.approx(
            (per_class["negative"].f1 + per_class["positive"].f1) / 2
        )

    @settings(max_examples=100)
    @given(st.tuples(*[st.integers(min_value=0, max_value=30)] * 4))
    def test_macro_invariant_under_class_swap(self, cells):
        a, b, c, d = cells
        matrix = ((a, b), (c, d))
        swapped = ((d, c), (b, a))
        assert macro_f1(matrix) == pytest.approx(macro_f1(swapped))

    @settings(max_examples=100)
    @given(st.tuples(*[st.integers(min_value=0, max_value=30)] * 4))
    def test_bounds(self, cells):
        a, b, c, d = cells
        value = macro_f1(((a, b), (c, d)))
        assert 0.0 <= value <= 1.0


class TestCombinedScore:
    def test_joint_macro_hand_value(self):
        golds, preds = joint_fixture()
        assert combined_score(preds, golds, "joint-macro-f1") == pytest.approx(0.625)

    def test_task_mean_hand_value(self):
        golds, preds = joint_fixture()
        assert combined_score(preds, golds, "task-mean-macro-f1") == pytest.approx(0.75)

    def test_default_is_joint(self):
        assert DEFAULT_COMBINED_METRIC == "joint-macro-f1"
        assert set(COMBINED_METRICS) >= {"joint-macro-f1", "task-mean-macro-f1"}

    def test_unknown_metric(self):
        golds, preds = joint_fixture()
        with pytest.raises(ConfigurationError, match="unknown combined metric"):
            combined_score(preds, golds, "vibes")

    def test_perfect_predictions_score_one(self):
        golds, _ = joint_fixture()
        preds = []
        for g in golds:
            for task in (Task.VALIDITY, Task.NOVELTY):
                positive = (
                    g.validity_raw if task is Task.VALIDITY else g.novelty_raw
                ) == 1
                preds.append(pred(g.id, task, positive))
        assert combined_score(preds, golds, "joint-macro-f1") == pytest.approx(1.0)
        assert combined_score(preds, golds, "task-mean-macro-f1") == pytest.approx(1.0)

    def test_joint_oracle_brute_force(self):
        # recompute the joint macro with an independent per-class loop
        golds, preds = joint_fixture()
        val = {p.instance_id: p.value for p in preds if p.task is Task.VALIDITY}
        nov = {p.instance_id: p.value for p in preds if p.task is Task.NOVELTY}
        pos = LabelValue.POSITIVE

        def joint_true(g):
            return (g.validity_raw == 1, g.novelty_raw == 1)

        def joint_pred(g):
            return (val[g.id] is pos, nov[g.id] is pos)

        classes = [(False, False), (False, True), (True, False), (True, True)]
        f1s = []
        for cls in classes:
            tp = sum(1 for g in golds if joint_true(g) == cls and joint_pred(g) == cls)
            fp = sum(1 for g in golds if joint_true(g) != cls and joint_pred(g) == cls)
            fn = sum(1 for g in golds if joint_true(g) == cls and joint_pred(g) != cls)
            p = tp / (tp + fp) if tp + fp else 0.0
            r = tp / (tp + fn) if tp + fn else 0.0
            f1s.append(2 * p * r / (p + r) if p + r else 0.0)
        oracle = sum(f1s) / len(f1s)
        assert combined_score(preds, golds, "joint-macro-f1") == pytest.approx(oracle)


class TestConfidenceBuckets:
    def test_fractions_by_gold_confidence(self):
        golds = [
            make_instance(id="a", validity=1, vconf=Confidence.MAJORITY),
            make_instance(id="b", validity=1, vconf=Confidence.MAJORITY),
            make_instance(id="c", validity=-1, vconf=Confidence.CONFIDENT),
        ]
        preds = [
            pred("a", Task.VALIDITY, True),   # correct
            pred("b", Task.VALIDITY, False),  # wrong
            pred("c", Task.VALIDITY, False),  # correct
        ]
        buckets = evaluate(preds, golds).confidence_buckets["validity"]
        assert set(buckets) == {"majority", "confident"}
        assert buckets["majority"].correct_fraction == pytest.approx(0.5)
        assert buckets["majority"].error_fraction == pytest.approx(0.5)
        assert buckets["majority"].count == 2
        assert buckets["confident"].correct_fraction == 1.0
        assert buckets["confident"].count == 1

    def test_unknown_reported_separately(self):
        golds = [make_instance(id="a", vconf=Confidence.UNKNOWN, validity=1)]
        report = evaluate([pred("a", Task.VALIDITY, True)], golds)
        assert set(report.confidence_buckets["validity"]) == {"unknown"}


class TestTopicErrorRates:
    def fixture(self):
        rows = [
            ("a1", "apples", 1, False),   # wrong
            ("a2", "apples", 1, False),   # wrong
            ("b1", "bricks", 1, True),    # correct
            ("b2", "bricks", -1, True),   # wrong
            ("c1", "cars", 1, True),      # correct
        ]
        golds = [make_instance(id=i, topic=t, validity=v) for i, t, v, _ in rows]
        preds = [pred(i, Task.VALIDITY, guess) for i, _, _, guess in rows]
        return golds, preds

    def test_ranked_highest_error_first(self):
        golds, preds = self.fixture()
        ranked = evaluate(preds, golds).topic_errors["validity"]
        assert ranked == [
            ("apples", 1.0, 2),
            ("bricks", 0.5, 2),
            ("cars", 0.0, 1),
        ]

    def test_ties_break_alphabetically(self):
        golds = [
            make_instance(id="z1", topic="zinc", validity=1),
            make_instance(id="a1", topic="art", validity=1),
        ]
        preds = [pred("z1", Task.VALIDITY, False), pred("a1", Task.VALIDITY, False)]
        ranked = evaluate(preds, golds).topic_errors["validity"]
        assert [t for t, _, _ in ranked] == ["art", "zinc"]


class TestSeedSummary:
    def run(self, combined, history=((0, 1.0, 0.3), (1, 0.8, 0.5))):
        report = EvalReport(n_instances=4, combined_metric="joint-macro-f1",
                            combined=combined)
        return (0, list(history), report)

    def test_mean_and_sample_std(self):
        summary = seed_summary([self.run(0.4), self.run(0.6)])
        assert summary.n_runs == 2
        assert summary.mean_combined_f1 == pytest.approx(0.5)
        assert summary.std_combined_f1 == pytest.approx(math.sqrt(0.02))

    def test_loss_envelope_truncates_to_shortest(self):
        runs = [
            self.run(0.4, history=[(0, 1.0, 0.3), (1, 0.8, 0.5)]),
            self.run(0.6, history=[(0, 1.2, 0.2), (1, 0.6, 0.4), (2, 0.5, 0.6)]),
        ]
        summary = seed_summary(runs)
        assert summary.loss_envelope == [(1.0, 1.1, 1.2), (0.6, 0.7, 0.8)]

    def test_needs_two_runs(self):
        with pytest.raises(ConfigurationError, match="at least 2"):
            seed_summary([self.run(0.4)])

    def test_needs_combined_scores(self):
        with pytest.raises(ConfigurationError, match="combined"):
            seed_summary([self.run(0.4), self.run(None)])


class TestEvaluate:
    def test_full_report(self):
        golds, preds = joint_fixture()
        report = evaluate(preds, golds, source_tag="mix(gpt3,svm)")
        assert report.n_instances == 8
        assert report.validity is not None and report.novelty is not None
        assert report.validity.macro_f1 == pytest.approx(0.75)
        assert report.novelty.macro_f1 == pytest.approx(0.75)
        assert report.validity.confusion == ((3, 1), (1, 3))
        assert report.combined == pytest.approx(0.625)
        assert report.combined_metric == "joint-macro-f1"
        assert report.source_tag == "mix(gpt3,svm)"
        assert set(report.confidence_buckets) == {"validity", "novelty"}
        assert set(report.topic_errors) == {"validity", "novelty"}

    def test_single_task_has_no_combined(self):
        golds, preds = joint_fixture()
        validity_only = [p for p in preds if p.task is Task.VALIDITY]
        report = evaluate(validity_only, golds)
        assert report.novelty is None
        assert report.combined is None

    def test_unknown_metric_rejected_for_a_single_task_too(self):
        golds, preds = joint_fixture()
        novelty_only = [p for p in preds if p.task is Task.NOVELTY]
        with pytest.raises(ConfigurationError, match="unknown combined metric"):
            evaluate(novelty_only, golds, metric="vibes")

    def test_flagged_count(self):
        golds = [make_instance(id="a", validity=1)]
        report = evaluate([pred("a", Task.VALIDITY, True, flagged=True)], golds)
        assert report.flagged_count == 1

    @pytest.mark.parametrize("metric", sorted(COMBINED_METRICS))
    def test_each_task_is_paired_once(self, monkeypatch, metric):
        calls = []

        def spy(predictions, task):
            calls.append(task)
            return task_index(predictions, task)

        monkeypatch.setattr(evaluation, "task_index", spy)
        golds, preds = joint_fixture()
        evaluate(preds, golds, metric=metric)
        assert calls == [Task.VALIDITY, Task.NOVELTY]
        calls.clear()
        evaluate([p for p in preds if p.task is Task.NOVELTY], golds, metric=metric)
        assert calls == [Task.NOVELTY]

    def test_metric_selection(self):
        golds, preds = joint_fixture()
        report = evaluate(preds, golds, metric="task-mean-macro-f1")
        assert report.combined == pytest.approx(0.75)
        assert report.combined_metric == "task-mean-macro-f1"


class TestReportSerialization:
    def test_json_round_trip_through_a_file(self, tmp_path):
        golds, preds = joint_fixture()
        report = evaluate(preds, golds, source_tag="svm")
        path = tmp_path / "report.json"
        path.write_text(report_to_json(report), encoding="utf-8")
        assert load_report(path) == report

    def test_single_task_round_trip_through_a_file(self, tmp_path):
        golds, preds = joint_fixture()
        report = evaluate([p for p in preds if p.task is Task.NOVELTY], golds)
        path = tmp_path / "report.json"
        path.write_text(report_to_json(report), encoding="utf-8")
        assert load_report(path) == report

    def test_render_text_layout(self):
        golds, preds = joint_fixture()
        flagged = [
            Prediction(p.instance_id, p.task, p.value, p.source, flagged=True)
            for p in preds[:1]
        ] + list(preds[1:])
        report = evaluate(flagged, golds, source_tag="mix(gpt3,svm)")
        text = render_text(report)
        assert "Evaluation over 8 instances [mix(gpt3,svm)]" in text
        assert "validity  (macro F1 0.750)" in text
        assert "novelty  (macro F1 0.750)" in text
        assert "confusion (rows true -/+): [[3, 1], [1, 3]]" in text
        assert "combined score (joint-macro-f1): 0.625" in text
        assert "flagged predictions: 1" in text
        assert text.endswith("\n")

    def test_render_single_task_says_na(self):
        golds, preds = joint_fixture()
        report = evaluate([p for p in preds if p.task is Task.VALIDITY], golds)
        assert "n/a (single task)" in render_text(report)



def _golden_report_texts():
    """Reports over random fixtures of several sizes (both combined metrics,
    both tasks and novelty only) and over the profile test split, re-tagged
    so every confidence value occurs, with seeded random predictions."""
    rng = np.random.default_rng(2024)
    texts = []
    for n in (1, 2, 5, 37, 520):
        golds, preds, _ = make_random_eval_fixture(rng, n)
        novelty_only = [p for p in preds if p.task is Task.NOVELTY]
        for metric in ("joint-macro-f1", "task-mean-macro-f1"):
            for covered in (preds, novelty_only):
                texts.append(report_to_json(evaluate(covered, golds, metric)))
    tags = list(Confidence)
    golds = [
        replace(g, validity_confidence=tags[k % 5], novelty_confidence=tags[k % 7 % 5])
        if k % 4 == 0 else g
        for k, g in enumerate(make_profile_split(Split.TEST))
    ]
    preds = [
        Prediction(
            g.id,
            task,
            LabelValue.POSITIVE if rng.random() < 0.4 else LabelValue.NEGATIVE,
            "rnd",
            flagged=rng.random() < 0.05,
        )
        for g in golds
        for task in Task
    ]
    for metric in ("joint-macro-f1", "task-mean-macro-f1"):
        report = evaluate(preds, golds, metric, source_tag="profile")
        texts.append(report_to_json(report))
        texts.append(render_text(report))
    return texts


# sha256 of the reports above, recorded before evaluate paired each task
# once; a scoring change that moves a single byte of report.json or
# report.txt shows here
GOLDEN_REPORTS_SHA256 = "e371bc0c6f66123ad3ae4b27c101893720ee84778dee4ff4bd057a15796ea965"


def test_reports_are_byte_stable():
    text = "\n".join(_golden_report_texts())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_REPORTS_SHA256
