"""Prediction records, delimited-file serialization, and per-task mixing.

Mixing takes each task's labels from a different source set: validity
from one, novelty from the other. That is the whole mechanism behind the
best combined submissions.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import LabelValue, Task
from .errors import CoverageError, ParseError
from .fsutil import atomic_write_text

FILE_HEADER = ["instance_id", "task", "value", "source", "flagged"]


@dataclass(frozen=True)
class Prediction:
    instance_id: str
    task: Task
    value: LabelValue
    source: str
    flagged: bool = False  # set when the value came from a parse fallback


def _check_unique(predictions: Iterable[Prediction], context: str = "") -> None:
    seen = set()
    for p in predictions:
        key = (p.instance_id, p.task.value, p.source)
        if key in seen:
            where = f"{context}: " if context else ""
            raise ParseError(f"{where}duplicate prediction for {key}")
        seen.add(key)


def task_index(predictions: Sequence[Prediction], task: Task) -> dict[str, Prediction]:
    """``task``'s predictions by instance id; a second one for an id is a
    CoverageError."""
    by_id: dict[str, Prediction] = {}
    for p in predictions:
        if p.task is not task:
            continue
        if p.instance_id in by_id:
            raise CoverageError(
                f"multiple {task.value} predictions for id {p.instance_id!r} "
                f"(sources {by_id[p.instance_id].source!r}, {p.source!r})"
            )
        by_id[p.instance_id] = p
    return by_id


def source_label(predictions: Sequence[Prediction], task: Task) -> str:
    sources = sorted({p.source for p in predictions if p.task is Task(task)})
    return "+".join(sources)


def mix(
    validity_set: Sequence[Prediction], novelty_set: Sequence[Prediction]
) -> list[Prediction]:
    """Merge two prediction sets: validity labels from the first, novelty
    labels from the second, each ordered by instance id. Both must cover
    the same instance-id universe for their respective task."""
    validity = task_index(validity_set, Task.VALIDITY)
    novelty = task_index(novelty_set, Task.NOVELTY)
    missing_nov = sorted(set(validity) - set(novelty))
    missing_val = sorted(set(novelty) - set(validity))
    if missing_nov or missing_val:
        parts = []
        if missing_val:
            parts.append(f"ids missing validity predictions: {missing_val}")
        if missing_nov:
            parts.append(f"ids missing novelty predictions: {missing_nov}")
        raise CoverageError("; ".join(parts))

    return [validity[i] for i in sorted(validity)] + [novelty[i] for i in sorted(novelty)]


def save_predictions(predictions: Sequence[Prediction], path: str | Path) -> None:
    """Write the delimited prediction file, rows ordered by (id, task)."""
    _check_unique(predictions)
    rows = sorted(predictions, key=lambda p: (p.instance_id, p.task.value))
    buffer = io.StringIO()  # keeps the writer's \r\n line ends
    writer = csv.writer(buffer)
    writer.writerow(FILE_HEADER)
    for p in rows:
        writer.writerow(
            [p.instance_id, p.task.value, p.value.value, p.source,
             "true" if p.flagged else "false"]
        )
    atomic_write_text(path, buffer.getvalue())


def load_predictions(path: str | Path) -> list[Prediction]:
    path = Path(path)
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    predictions: list[Prediction] = []
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header != FILE_HEADER:
        raise ParseError(f"{path}:1: bad header {header!r}")
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(FILE_HEADER):
            raise ParseError(f"{path}:{line_no}: expected {len(FILE_HEADER)} fields")
        inst_id, task_s, value_s, source, flagged_s = row
        try:
            task = Task(task_s)
        except ValueError:
            raise ParseError(f"{path}:{line_no}: unknown task {task_s!r}")
        try:
            value = LabelValue(value_s)
        except ValueError:
            raise ParseError(f"{path}:{line_no}: unknown value {value_s!r}")
        if flagged_s not in ("true", "false"):
            raise ParseError(f"{path}:{line_no}: bad flagged value {flagged_s!r}")
        predictions.append(
            Prediction(
                instance_id=inst_id,
                task=task,
                value=value,
                source=source,
                flagged=flagged_s == "true",
            )
        )
    _check_unique(predictions, context=str(path))
    return predictions
