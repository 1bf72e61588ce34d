"""Scoring and error analysis.

Confusion matrices, per-label precision/recall/F1, macro F1, the
configurable combined two-task score, confidence-bucket accuracy,
per-topic error rates, seed-variance aggregation, and report emission
(JSON for machines, an aligned table for humans).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from .corpus import (
    ArgumentInstance,
    Confidence,
    LabelValue,
    Task,
    confidence_for,
    mapped_value,
)
from .decode import decode
from .errors import ConfigurationError, CoverageError, SchemaError
from .fsutil import read_json
from .predictions import Prediction, task_index

# 2x2 confusion counts; rows = true label, columns = predicted label,
# negative first on both axes.
Matrix = tuple[tuple[int, int], tuple[int, int]]


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int  # true count (row sum)


@dataclass(frozen=True)
class TaskReport:
    negative: ClassMetrics
    positive: ClassMetrics
    macro_f1: float
    confusion: Matrix


@dataclass(frozen=True)
class BucketStats:
    correct_fraction: float
    error_fraction: float
    count: int


@dataclass
class EvalReport:
    n_instances: int
    combined_metric: str
    combined: float | None = None
    validity: TaskReport | None = None
    novelty: TaskReport | None = None
    confidence_buckets: dict[str, dict[str, BucketStats]] = field(default_factory=dict)
    topic_errors: dict[str, list[tuple[str, float, int]]] = field(default_factory=dict)
    flagged_count: int = 0
    source_tag: str = ""


def _pairs(
    predictions: Sequence[Prediction],
    golds: Sequence[ArgumentInstance],
    task: Task,
) -> list[tuple[ArgumentInstance, Prediction]]:
    task = Task(task)
    by_id = task_index(predictions, task)
    missing = [g.id for g in golds if g.id not in by_id]
    if missing:
        raise CoverageError(f"missing {task.value} predictions for ids: {sorted(missing)}")
    return [(g, by_id[g.id]) for g in golds]


def confusion(
    predictions: Sequence[Prediction],
    golds: Sequence[ArgumentInstance],
    task: Task,
) -> Matrix:
    counts = [[0, 0], [0, 0]]
    for gold, pred in _pairs(predictions, golds, task):
        t = int(mapped_value(gold, task) is LabelValue.POSITIVE)
        p = int(pred.value is LabelValue.POSITIVE)
        counts[t][p] += 1
    return (tuple(counts[0]), tuple(counts[1]))


def _safe_div(num: float, den: float) -> float:
    return num / den if den else 0.0


def prf(matrix: Matrix) -> dict[str, ClassMetrics]:
    """Per-class precision/recall/F1/support. Division by zero yields 0,
    which keeps degenerate all-one-class predictions scoreable."""
    out = {}
    for c, name in ((0, "negative"), (1, "positive")):
        col = matrix[0][c] + matrix[1][c]
        row = matrix[c][0] + matrix[c][1]
        precision = _safe_div(matrix[c][c], col)
        recall = _safe_div(matrix[c][c], row)
        f1 = _safe_div(2 * precision * recall, precision + recall)
        out[name] = ClassMetrics(precision=precision, recall=recall, f1=f1, support=row)
    return out


def macro_f1(matrix: Matrix) -> float:
    per_class = prf(matrix)
    return (per_class["negative"].f1 + per_class["positive"].f1) / 2.0


def _joint_macro_f1(
    predictions: Sequence[Prediction], golds: Sequence[ArgumentInstance]
) -> float:
    """Macro F1 over the four joint (validity, novelty) classes present in
    the golds or the predictions."""
    val = dict((g.id, p) for g, p in _pairs(predictions, golds, Task.VALIDITY))
    nov = dict((g.id, p) for g, p in _pairs(predictions, golds, Task.NOVELTY))
    true_cls, pred_cls = [], []
    for g in golds:
        true_cls.append((mapped_value(g, Task.VALIDITY), mapped_value(g, Task.NOVELTY)))
        pred_cls.append((val[g.id].value, nov[g.id].value))
    classes = sorted(set(true_cls) | set(pred_cls), key=lambda c: (c[0].value, c[1].value))
    f1s = []
    for cls in classes:
        tp = sum(1 for t, p in zip(true_cls, pred_cls) if t == cls and p == cls)
        fp = sum(1 for t, p in zip(true_cls, pred_cls) if t != cls and p == cls)
        fn = sum(1 for t, p in zip(true_cls, pred_cls) if t == cls and p != cls)
        precision = _safe_div(tp, tp + fp)
        recall = _safe_div(tp, tp + fn)
        f1s.append(_safe_div(2 * precision * recall, precision + recall))
    return sum(f1s) / len(f1s) if f1s else 0.0


def _task_mean_macro_f1(
    predictions: Sequence[Prediction], golds: Sequence[ArgumentInstance]
) -> float:
    return (
        macro_f1(confusion(predictions, golds, Task.VALIDITY))
        + macro_f1(confusion(predictions, golds, Task.NOVELTY))
    ) / 2.0


# The shared-task organizer's exact combined metric is not public; the
# default joint four-class macro F1 is recorded in every report, and other
# definitions can be registered here.
COMBINED_METRICS: dict[
    str, Callable[[Sequence[Prediction], Sequence[ArgumentInstance]], float]
] = {
    "joint-macro-f1": _joint_macro_f1,
    "task-mean-macro-f1": _task_mean_macro_f1,
}

DEFAULT_COMBINED_METRIC = "joint-macro-f1"


def combined_score(
    predictions: Sequence[Prediction],
    golds: Sequence[ArgumentInstance],
    metric: str = DEFAULT_COMBINED_METRIC,
) -> float:
    if metric not in COMBINED_METRICS:
        raise ConfigurationError(
            f"unknown combined metric {metric!r}; known: {sorted(COMBINED_METRICS)}"
        )
    return COMBINED_METRICS[metric](predictions, golds)


def confidence_buckets(
    predictions: Sequence[Prediction],
    golds: Sequence[ArgumentInstance],
    task: Task,
) -> dict[str, BucketStats]:
    """Correct/error fractions grouped by the annotator-confidence tag of
    the gold label. The unknown bucket is reported separately like any
    other value it takes."""
    tallies: dict[str, list[int]] = {}
    for gold, pred in _pairs(predictions, golds, task):
        bucket = confidence_for(gold, task).value
        correct = int(pred.value is mapped_value(gold, task))
        t = tallies.setdefault(bucket, [0, 0])
        t[0] += correct
        t[1] += 1
    out = {}
    for bucket in [c.value for c in Confidence]:
        if bucket not in tallies:
            continue
        correct, count = tallies[bucket]
        out[bucket] = BucketStats(
            correct_fraction=correct / count,
            error_fraction=(count - correct) / count,
            count=count,
        )
    return out


def topic_error_rates(
    predictions: Sequence[Prediction],
    golds: Sequence[ArgumentInstance],
    task: Task,
) -> list[tuple[str, float, int]]:
    """Per-topic error fractions, highest first; ties break on the topic
    string."""
    tallies: dict[str, list[int]] = {}
    for gold, pred in _pairs(predictions, golds, task):
        wrong = int(pred.value is not mapped_value(gold, task))
        t = tallies.setdefault(gold.topic, [0, 0])
        t[0] += wrong
        t[1] += 1
    return sorted(
        ((topic, wrong / count, count) for topic, (wrong, count) in tallies.items()),
        key=lambda item: (-item[1], item[0]),
    )


@dataclass(frozen=True)
class SeedSummary:
    n_runs: int
    mean_combined_f1: float
    std_combined_f1: float
    loss_envelope: list[tuple[float, float, float]]  # per epoch (min, mean, max)


def seed_summary(
    runs: Sequence[tuple[int, Sequence[tuple[int, float, float]], "EvalReport"]],
) -> SeedSummary:
    """Aggregate multiple training runs. Each run is
    (seed, history rows (epoch, train_loss, dev_combined_f1), final report)."""
    if len(runs) < 2:
        raise ConfigurationError("seed summary needs at least 2 runs")
    finals = [report.combined for _, _, report in runs]
    if any(f is None for f in finals):
        raise ConfigurationError("seed summary needs reports with a combined score")
    n = len(finals)
    mean = sum(finals) / n
    std = math.sqrt(sum((f - mean) ** 2 for f in finals) / (n - 1))
    n_epochs = min(len(history) for _, history, _ in runs)
    envelope = []
    for e in range(n_epochs):
        losses = [history[e][1] for _, history, _ in runs]
        envelope.append((min(losses), sum(losses) / len(losses), max(losses)))
    return SeedSummary(
        n_runs=n, mean_combined_f1=mean, std_combined_f1=std, loss_envelope=envelope
    )


def evaluate(
    predictions: Sequence[Prediction],
    golds: Sequence[ArgumentInstance],
    metric: str = DEFAULT_COMBINED_METRIC,
    source_tag: str = "",
) -> EvalReport:
    """Full report over whichever tasks the predictions cover. The combined
    score is only computed when both tasks are covered."""
    report = EvalReport(
        n_instances=len(golds),
        combined_metric=metric,
        flagged_count=sum(1 for p in predictions if p.flagged),
        source_tag=source_tag,
    )
    covered = []
    for task in (Task.VALIDITY, Task.NOVELTY):
        if not any(p.task is task for p in predictions):
            continue
        covered.append(task)
        matrix = confusion(predictions, golds, task)
        per_class = prf(matrix)
        task_report = TaskReport(
            negative=per_class["negative"],
            positive=per_class["positive"],
            macro_f1=macro_f1(matrix),
            confusion=matrix,
        )
        if task is Task.VALIDITY:
            report.validity = task_report
        else:
            report.novelty = task_report
        report.confidence_buckets[task.value] = confidence_buckets(
            predictions, golds, task
        )
        report.topic_errors[task.value] = topic_error_rates(predictions, golds, task)
    if len(covered) == 2:
        report.combined = combined_score(predictions, golds, metric)
    return report


def report_to_json(report: EvalReport) -> str:
    return json.dumps(asdict(report), indent=2, ensure_ascii=False)


def load_report(path: str | Path) -> EvalReport:
    """The inverse of report_to_json, for a saved ``report.json``. Bytes
    that are not JSON are a ParseError, a missing or ill-typed field a
    SchemaError; both messages name ``path``."""
    try:
        return decode(EvalReport, read_json(path), "report")
    except TypeError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def render_text(report: EvalReport) -> str:
    """Aligned plain-text table for humans."""
    lines = []
    tag = f" [{report.source_tag}]" if report.source_tag else ""
    lines.append(f"Evaluation over {report.n_instances} instances{tag}")
    for name, task_report in (("validity", report.validity), ("novelty", report.novelty)):
        if task_report is None:
            continue
        lines.append("")
        lines.append(f"{name}  (macro F1 {task_report.macro_f1:.3f})")
        lines.append(f"  {'class':<10} {'prec':>6} {'rec':>6} {'f1':>6} {'support':>8}")
        for cls_name, m in (("negative", task_report.negative), ("positive", task_report.positive)):
            lines.append(
                f"  {cls_name:<10} {m.precision:6.3f} {m.recall:6.3f} "
                f"{m.f1:6.3f} {m.support:8d}"
            )
        c = task_report.confusion
        lines.append(f"  confusion (rows true -/+): [[{c[0][0]}, {c[0][1]}], [{c[1][0]}, {c[1][1]}]]")
        buckets = report.confidence_buckets.get(name, {})
        if buckets:
            parts = [
                f"{bucket}: {stats.correct_fraction:.2f} correct of {stats.count}"
                for bucket, stats in buckets.items()
            ]
            lines.append(f"  confidence   {'; '.join(parts)}")
        topics = report.topic_errors.get(name, [])
        if topics:
            worst = "; ".join(f"{t} ({rate:.0%} of {n})" for t, rate, n in topics[:3])
            lines.append(f"  worst topics {worst}")
    lines.append("")
    if report.combined is not None:
        lines.append(f"combined score ({report.combined_metric}): {report.combined:.3f}")
    else:
        lines.append(f"combined score ({report.combined_metric}): n/a (single task)")
    if report.flagged_count:
        lines.append(f"flagged predictions: {report.flagged_count}")
    return "\n".join(lines) + "\n"
