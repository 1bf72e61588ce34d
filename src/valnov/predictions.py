"""Prediction records, delimited-file serialization, and per-task mixing.

``labelled`` is where a model's binary decisions, one bool per
instance, become ``Prediction`` records; only it, the file loader and
the prompting parser build them.

Mixing takes each task's labels from a different source set: validity
from one, novelty from the other. That is the whole mechanism behind the
best combined submissions.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Collection, Iterable, Sequence

import numpy as np

from .corpus import ArgumentInstance, LabelValue, Task
from .errors import CoverageError, ParseError
from .fsutil import open_text, write_csv

FILE_HEADER = ["instance_id", "task", "value", "source", "flagged"]


@dataclass(frozen=True)
class Prediction:
    instance_id: str
    task: Task
    value: LabelValue
    source: str
    flagged: bool = False  # set when the value came from a parse fallback


def labelled(
    instances: Sequence[ArgumentInstance],
    task: Task,
    positive: Sequence[bool] | np.ndarray,
    source: str,
) -> list[Prediction]:
    """``source``'s ``task`` predictions for ``instances``, in order:
    positive where ``positive`` (one bool per instance) holds, else negative."""
    task = Task(task)
    return [
        Prediction(inst.id, task, LabelValue.POSITIVE if pos else LabelValue.NEGATIVE, source)
        for inst, pos in zip(instances, np.asarray(positive, dtype=bool).tolist(), strict=True)
    ]


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


def require_same_ids(
    expected: Collection[str], given: Collection[str], missing: str, extra: str
) -> None:
    """One CoverageError unless ``given`` holds exactly the ids of
    ``expected``: ``missing`` heads the sorted ids only ``expected`` holds,
    ``extra`` those only ``given`` holds, the two parts joined by "; "."""
    expected, given = set(expected), set(given)
    parts = [
        f"{label}{sorted(ids)}"
        for label, ids in ((missing, expected - given), (extra, given - expected))
        if ids
    ]
    if parts:
        raise CoverageError("; ".join(parts))


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
    require_same_ids(
        novelty, validity,
        missing="ids missing validity predictions: ",
        extra="ids missing novelty predictions: ",
    )
    return [validity[i] for i in sorted(validity)] + [novelty[i] for i in sorted(novelty)]


def save_predictions(predictions: Sequence[Prediction], path: str | Path) -> None:
    """Write the delimited prediction file, rows ordered by (id, task)."""
    _check_unique(predictions)
    rows = sorted(predictions, key=lambda p: (p.instance_id, p.task.value))
    write_csv(path, FILE_HEADER, (
        [p.instance_id, p.task.value, p.value.value, p.source, "true" if p.flagged else "false"]
        for p in rows
    ))


def load_predictions(path: str | Path) -> list[Prediction]:
    path = Path(path)
    predictions: list[Prediction] = []
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != FILE_HEADER:
            raise ParseError(f"{path}:1: bad header {header!r}")
        for row in reader:
            # the physical line the row ends on: a quoted field may span lines
            line_no = reader.line_num
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
            predictions.append(Prediction(
                instance_id=inst_id, task=task, value=value, source=source,
                flagged=flagged_s == "true",
            ))
    _check_unique(predictions, context=str(path))
    return predictions
