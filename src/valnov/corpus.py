"""Shared-task corpus handling.

Loads delimited data files into ArgumentInstance records and writes
them back under one column map, maps the raw tri-valued labels onto
binary task labels, computes dataset statistics (class distribution,
topic overlap), and extracts contrastive triplets. Apart from the
readers and writers, all operations are pure.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .errors import DataError, ParseError, SchemaError
from .fsutil import atomic_write_text


class Task(str, Enum):
    VALIDITY = "validity"
    NOVELTY = "novelty"


class LabelValue(str, Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"


class Confidence(str, Enum):
    VERY_CONFIDENT = "very-confident"
    CONFIDENT = "confident"
    MAJORITY = "majority"
    DEFEASIBLE = "defeasible"
    UNKNOWN = "unknown"


class Split(str, Enum):
    TRAIN = "train"
    DEV = "dev"
    TEST = "test"


@dataclass(frozen=True)
class ArgumentInstance:
    """One labeled (topic, premise, conclusion) row.

    Raw labels live in {-1, 0, 1}; 0 is the middle class ("defeasibly"
    valid / "somewhat" novel) that the label mapping folds into negative.
    """

    id: str
    topic: str
    premise: str
    conclusion: str
    validity_raw: int
    novelty_raw: int
    validity_confidence: Confidence = Confidence.UNKNOWN
    novelty_confidence: Confidence = Confidence.UNKNOWN
    split: Split = Split.TRAIN


@dataclass(frozen=True)
class ClassDistribution:
    """Joint mapped-label counts, ordered
    (non-valid & non-novel, non-valid & novel, valid & non-novel, valid & novel).
    """

    counts: tuple[int, int, int, int]

    @property
    def total(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class TripletExample:
    """(anchor premise, positive-novelty conclusion, negative-novelty conclusion)."""

    anchor: str
    positive: str
    negative: str
    topic: str


# Canonical field -> default column name in the data files.
DEFAULT_COLUMN_MAP: dict[str, str] = {
    "topic": "topic",
    "premise": "Premise",
    "conclusion": "Conclusion",
    "validity": "Validity",
    "validity_confidence": "Validity-Confidence",
    "novelty": "Novelty",
    "novelty_confidence": "Novelty-Confidence",
}

# Raw cell value -> integer raw label.
_RAW_LABELS: dict[str, int] = {"-1": -1, "0": 0, "1": 1}

_CONFIDENCE_ALIASES = {
    "very confident": Confidence.VERY_CONFIDENT,
    "very-confident": Confidence.VERY_CONFIDENT,
    "confident": Confidence.CONFIDENT,
    "majority": Confidence.MAJORITY,
    "defeasible": Confidence.DEFEASIBLE,
    "unknown": Confidence.UNKNOWN,
    "": Confidence.UNKNOWN,
}


def _parse_confidence(cell: str, row: int) -> Confidence:
    key = cell.strip().lower()
    if key not in _CONFIDENCE_ALIASES:
        raise DataError(f"row {row}: unknown confidence value {cell!r}")
    return _CONFIDENCE_ALIASES[key]


def load_corpus(
    path: str | Path,
    column_map: Mapping[str, str] | None = None,
    split: Split = Split.TRAIN,
) -> list[ArgumentInstance]:
    """Load a delimited data file (comma or tab, sniffed from the header).

    Confidence columns may be absent (-> unknown); an ``id`` column is used
    when mapped, otherwise ids are row indices. Raises SchemaError for a
    missing required column, DataError for bad cell values (message names
    the data row index, 0-based), ParseError for a file that is not UTF-8.
    """
    path = Path(path)
    columns = dict(DEFAULT_COLUMN_MAP)
    if column_map:
        columns.update(column_map)
    split = Split(split)
    try:
        return _checked(_read_corpus(path, columns, split))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def _checked(located: Iterable[tuple[str, ArgumentInstance]]) -> list[ArgumentInstance]:
    """The instances of ``located``, each paired with the place it was read
    from. An empty premise or conclusion, or an id read before, is a
    DataError naming that place; both instance loaders check here."""
    instances: list[ArgumentInstance] = []
    seen_ids: set[str] = set()
    for where, inst in located:
        for name in ("premise", "conclusion"):
            if not getattr(inst, name):
                raise DataError(f"{where}: empty {name}")
        if inst.id in seen_ids:
            raise DataError(f"{where}: duplicate id {inst.id!r}")
        seen_ids.add(inst.id)
        instances.append(inst)
    return instances


def _read_corpus(
    path: Path, columns: Mapping[str, str], split: Split
) -> Iterator[tuple[str, ArgumentInstance]]:
    with open(path, encoding="utf-8", newline="") as fh:
        header_line = fh.readline()
        if not header_line:
            raise SchemaError(f"{path}: empty file")
        delimiter = "\t" if "\t" in header_line else ","
        fh.seek(0)
        reader = csv.DictReader(fh, delimiter=delimiter)
        fieldnames = reader.fieldnames or []

        required = ["topic", "premise", "conclusion", "validity", "novelty"]
        for field in required:
            if columns[field] not in fieldnames:
                raise SchemaError(f"{path}: missing column {columns[field]!r}")
        has_id = "id" in columns and columns["id"] in fieldnames
        has_vconf = columns["validity_confidence"] in fieldnames
        has_nconf = columns["novelty_confidence"] in fieldnames

        for row_idx, row in enumerate(reader):
            def cell(field: str) -> str:
                return (row.get(columns[field]) or "").strip()

            def raw_label(field: str) -> int:
                text = cell(field)
                if text not in _RAW_LABELS:
                    raise DataError(
                        f"row {row_idx}: {field} value {text!r} not in "
                        f"{sorted(_RAW_LABELS)}"
                    )
                return _RAW_LABELS[text]

            yield f"row {row_idx}", ArgumentInstance(
                id=cell("id") if has_id else str(row_idx),
                topic=cell("topic"),
                premise=cell("premise"),
                conclusion=cell("conclusion"),
                validity_raw=raw_label("validity"),
                novelty_raw=raw_label("novelty"),
                validity_confidence=(
                    _parse_confidence(cell("validity_confidence"), row_idx)
                    if has_vconf
                    else Confidence.UNKNOWN
                ),
                novelty_confidence=(
                    _parse_confidence(cell("novelty_confidence"), row_idx)
                    if has_nconf
                    else Confidence.UNKNOWN
                ),
                split=split,
            )


def write_instances_csv(instances: Sequence[ArgumentInstance], path: str | Path) -> Path:
    """Write instances under the ``DEFAULT_COLUMN_MAP`` header, which
    ``load_corpus`` reads back."""
    path = Path(path)
    buffer = io.StringIO()  # keeps the writer's \r\n line ends
    writer = csv.writer(buffer)
    writer.writerow(DEFAULT_COLUMN_MAP.values())
    for inst in instances:
        writer.writerow(
            [
                inst.topic,
                inst.premise,
                inst.conclusion,
                inst.validity_raw,
                inst.validity_confidence.value,
                inst.novelty_raw,
                inst.novelty_confidence.value,
            ]
        )
    atomic_write_text(path, buffer.getvalue())
    return path


def map_label(raw: int) -> LabelValue:
    """Map a raw tri-valued label to a binary label.

    1 -> positive; 0 (the "defeasibly"/"somewhat" middle class) and
    -1 -> negative.
    """
    if raw not in (-1, 0, 1):
        raise DataError(f"raw label {raw!r} outside {{-1, 0, 1}}")
    return LabelValue.POSITIVE if raw == 1 else LabelValue.NEGATIVE


def mapped_value(instance: ArgumentInstance, task: Task) -> LabelValue:
    """Binary label of ``instance`` for ``task``."""
    raw = instance.validity_raw if Task(task) is Task.VALIDITY else instance.novelty_raw
    return map_label(raw)


def confidence_for(instance: ArgumentInstance, task: Task) -> Confidence:
    return (
        instance.validity_confidence
        if Task(task) is Task.VALIDITY
        else instance.novelty_confidence
    )


def class_distribution(instances: Sequence[ArgumentInstance]) -> ClassDistribution:
    """Joint mapped-label counts in the fixed (VN) order."""
    counts = [0, 0, 0, 0]
    for inst in instances:
        valid = mapped_value(inst, Task.VALIDITY) is LabelValue.POSITIVE
        novel = mapped_value(inst, Task.NOVELTY) is LabelValue.POSITIVE
        counts[2 * valid + novel] += 1
    return ClassDistribution(counts=tuple(counts))


def topic_overlap(
    a: Sequence[ArgumentInstance], b: Sequence[ArgumentInstance]
) -> int:
    """Number of topics shared by the two lists (exact match after trimming)."""
    topics_a = {inst.topic.strip() for inst in a}
    topics_b = {inst.topic.strip() for inst in b}
    return len(topics_a & topics_b)


def extract_triplets(instances: Sequence[ArgumentInstance]) -> list[TripletExample]:
    """Contrastive triplets: group by (topic, exact premise string), then for
    each group holding both novelty labels emit the Cartesian product of
    (positive, negative) conclusion pairs. Order is deterministic: groups in
    first-encounter order, pairs in encounter order. Pairs whose two
    conclusions are the same string are skipped (contradictory annotation).
    """
    groups: dict[tuple[str, str], tuple[list[str], list[str]]] = {}
    for inst in instances:
        key = (inst.topic, inst.premise)
        pos, neg = groups.setdefault(key, ([], []))
        if mapped_value(inst, Task.NOVELTY) is LabelValue.POSITIVE:
            pos.append(inst.conclusion)
        else:
            neg.append(inst.conclusion)

    triplets: list[TripletExample] = []
    for (topic, premise), (pos, neg) in groups.items():
        for p in pos:
            for n in neg:
                if p == n:
                    continue
                triplets.append(
                    TripletExample(anchor=premise, positive=p, negative=n, topic=topic)
                )
    return triplets


# --- canonical JSONL serialization used between pipeline stages ---

def save_instances_jsonl(instances: Iterable[ArgumentInstance], path: str | Path) -> None:
    # the enum fields are str subclasses, which json writes as their values
    atomic_write_text(
        path, "".join(json.dumps(vars(inst), ensure_ascii=False) + "\n" for inst in instances)
    )


def _load_jsonl(path: str | Path, build: Callable[[dict], Any]) -> Iterator[tuple[str, Any]]:
    """``path:line`` and ``build`` applied to that line's JSON object, for
    each non-blank line. Undecodable lines raise ParseError, records with a
    missing or ill-typed field SchemaError; both messages carry ``path:line``."""
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                where = f"{path}:{line_no}"
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ParseError(f"{where}: invalid JSON ({exc.msg})") from exc
                if not isinstance(rec, dict):
                    raise SchemaError(f"{where}: expected a JSON object")
                try:
                    built = build(rec)
                except KeyError as exc:
                    raise SchemaError(f"{where}: missing field {exc}") from exc
                except (TypeError, ValueError) as exc:
                    raise SchemaError(f"{where}: {exc}") from exc
                yield where, built
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def _text(rec: Mapping[str, Any], name: str) -> str:
    value = rec[name]
    if not isinstance(value, str):
        raise TypeError(f"field {name!r} must be a string")
    return value


def _raw_label(rec: Mapping[str, Any], name: str) -> int:
    value = rec[name]
    # bool is an int subclass, and int() would truncate 0.9 to a valid 0
    if type(value) is not int or value not in (-1, 0, 1):
        raise ValueError(f"field {name!r} must be -1, 0 or 1, got {value!r}")
    return value


def _instance_from_record(rec: Mapping[str, Any]) -> ArgumentInstance:
    return ArgumentInstance(
        id=_text(rec, "id"),
        topic=_text(rec, "topic"),
        premise=_text(rec, "premise"),
        conclusion=_text(rec, "conclusion"),
        validity_raw=_raw_label(rec, "validity_raw"),
        novelty_raw=_raw_label(rec, "novelty_raw"),
        validity_confidence=Confidence(rec["validity_confidence"]),
        novelty_confidence=Confidence(rec["novelty_confidence"]),
        split=Split(rec["split"]),
    )


def load_instances_jsonl(path: str | Path) -> list[ArgumentInstance]:
    return _checked(_load_jsonl(path, _instance_from_record))


def save_triplets_jsonl(triplets: Iterable[TripletExample], path: str | Path) -> None:
    atomic_write_text(
        path, "".join(json.dumps(vars(t), ensure_ascii=False) + "\n" for t in triplets)
    )


def load_triplets_jsonl(path: str | Path) -> list[TripletExample]:
    located = _load_jsonl(
        path,
        lambda rec: TripletExample(
            anchor=_text(rec, "anchor"),
            positive=_text(rec, "positive"),
            negative=_text(rec, "negative"),
            topic=_text(rec, "topic"),
        ),
    )
    return [triplet for _, triplet in located]
