"""Scoring and error analysis.

Confusion matrices, per-label precision/recall/F1, macro F1, the
configurable combined two-task score, confidence-bucket accuracy,
per-topic error rates, seed-variance aggregation, and report emission
(JSON for machines, an aligned table for humans).

``evaluate`` pairs each covered task's predictions with the golds once,
and every score in its report comes from those pairs; precision, recall
and F1 are computed from (tp, fp, fn) in one place.
"""

from __future__ import annotations

import json
import math
from collections import Counter
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


Pairs = list[tuple[ArgumentInstance, Prediction]]


def _pairs(
    predictions: Sequence[Prediction],
    golds: Sequence[ArgumentInstance],
    task: Task,
) -> Pairs:
    task = Task(task)
    by_id = task_index(predictions, task)
    missing = [g.id for g in golds if g.id not in by_id]
    if missing:
        raise CoverageError(f"missing {task.value} predictions for ids: {sorted(missing)}")
    return [(g, by_id[g.id]) for g in golds]


def _tally(
    pairs: Pairs, task: Task
) -> tuple[Matrix, dict[str, BucketStats], list[tuple[str, float, int]]]:
    """The one pass over a task's pairs: its confusion matrix, accuracy per
    gold-confidence tag (``Confidence`` order, empty ones left out) and
    error rate per topic (highest first, ties broken on the topic)."""
    counts = [[0, 0], [0, 0]]
    by_confidence: dict[str, list[int]] = {}
    by_topic: dict[str, list[int]] = {}
    for gold, pred in pairs:
        t = int(mapped_value(gold, task) is LabelValue.POSITIVE)
        p = int(pred.value is LabelValue.POSITIVE)
        counts[t][p] += 1
        for tally in (
            by_confidence.setdefault(confidence_for(gold, task).value, [0, 0]),
            by_topic.setdefault(gold.topic, [0, 0]),
        ):
            tally[0] += t != p
            tally[1] += 1
    buckets = {}
    for bucket in [c.value for c in Confidence]:
        if bucket in by_confidence:
            wrong, count = by_confidence[bucket]
            buckets[bucket] = BucketStats(
                correct_fraction=(count - wrong) / count,
                error_fraction=wrong / count,
                count=count,
            )
    topics = sorted(
        ((topic, wrong / count, count) for topic, (wrong, count) in by_topic.items()),
        key=lambda item: (-item[1], item[0]),
    )
    return (tuple(counts[0]), tuple(counts[1])), buckets, topics


def confusion(
    predictions: Sequence[Prediction],
    golds: Sequence[ArgumentInstance],
    task: Task,
) -> Matrix:
    return _tally(_pairs(predictions, golds, task), task)[0]


def _safe_div(num: float, den: float) -> float:
    return num / den if den else 0.0


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """Precision, recall and F1; division by zero yields 0, which keeps
    degenerate all-one-class predictions scoreable."""
    precision = _safe_div(tp, tp + fp)
    recall = _safe_div(tp, tp + fn)
    return precision, recall, _safe_div(2 * precision * recall, precision + recall)


def prf(matrix: Matrix) -> dict[str, ClassMetrics]:
    """Per-class precision/recall/F1/support."""
    out = {}
    for c, name in ((0, "negative"), (1, "positive")):
        tp, fp, fn = matrix[c][c], matrix[1 - c][c], matrix[c][1 - c]
        out[name] = ClassMetrics(*_prf(tp, fp, fn), support=tp + fn)
    return out


def macro_f1(matrix: Matrix) -> float:
    per_class = prf(matrix)
    return (per_class["negative"].f1 + per_class["positive"].f1) / 2.0


def _joint_macro_f1(validity: Pairs, novelty: Pairs) -> float:
    """Macro F1 over the four joint (validity, novelty) classes present in
    the golds or the predictions."""
    joint = Counter(
        (
            (mapped_value(g, Task.VALIDITY), mapped_value(g, Task.NOVELTY)),
            (v.value, n.value),
        )
        for (g, v), (_, n) in zip(validity, novelty)
    )
    true_count, pred_count = Counter(), Counter()
    for (t, p), k in joint.items():
        true_count[t] += k
        pred_count[p] += k
    classes = sorted(true_count | pred_count, key=lambda c: (c[0].value, c[1].value))
    f1s = [
        _prf(joint[c, c], pred_count[c] - joint[c, c], true_count[c] - joint[c, c])[2]
        for c in classes
    ]
    return sum(f1s) / len(f1s) if f1s else 0.0


def _task_mean_macro_f1(validity: Pairs, novelty: Pairs) -> float:
    return (
        macro_f1(_tally(validity, Task.VALIDITY)[0])
        + macro_f1(_tally(novelty, Task.NOVELTY)[0])
    ) / 2.0


# The shared-task organizer's exact combined metric is not public; the
# default joint four-class macro F1 is recorded in every report, and other
# definitions can be registered here. Each takes the validity and the
# novelty pairs, both in gold order.
COMBINED_METRICS: dict[str, Callable[[Pairs, Pairs], float]] = {
    "joint-macro-f1": _joint_macro_f1,
    "task-mean-macro-f1": _task_mean_macro_f1,
}

DEFAULT_COMBINED_METRIC = "joint-macro-f1"


def _combined_metric(metric: str) -> Callable[[Pairs, Pairs], float]:
    if metric not in COMBINED_METRICS:
        raise ConfigurationError(
            f"unknown combined metric {metric!r}; known: {sorted(COMBINED_METRICS)}"
        )
    return COMBINED_METRICS[metric]


def combined_score(
    predictions: Sequence[Prediction],
    golds: Sequence[ArgumentInstance],
    metric: str = DEFAULT_COMBINED_METRIC,
) -> float:
    score = _combined_metric(metric)
    return score(
        _pairs(predictions, golds, Task.VALIDITY), _pairs(predictions, golds, Task.NOVELTY)
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
    score is only computed when both tasks are covered; an unknown metric
    is an error either way."""
    score = _combined_metric(metric)
    report = EvalReport(
        n_instances=len(golds),
        combined_metric=metric,
        flagged_count=sum(1 for p in predictions if p.flagged),
        source_tag=source_tag,
    )
    pairs = {}
    for task in (Task.VALIDITY, Task.NOVELTY):
        if not any(p.task is task for p in predictions):
            continue
        pairs[task] = _pairs(predictions, golds, task)
        matrix, buckets, topics = _tally(pairs[task], task)
        per_class = prf(matrix)
        task_report = TaskReport(
            negative=per_class["negative"],
            positive=per_class["positive"],
            macro_f1=macro_f1(matrix),
            confusion=matrix,
        )
        setattr(report, task.value, task_report)  # report.validity or report.novelty
        report.confidence_buckets[task.value] = buckets
        report.topic_errors[task.value] = topics
    if len(pairs) == 2:
        report.combined = score(pairs[Task.VALIDITY], pairs[Task.NOVELTY])
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
