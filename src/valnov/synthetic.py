"""Synthetic corpora for tests and desk-scale runs.

Three generators: a bundled statistics fixture whose split sizes, joint
class distributions, topic counts, and topic overlaps match the
shared-task data profile; a linearly separable marker-token corpus for
fast end-to-end training checks; and confusion-matrix fixtures that
realize a given 2x2 count table as gold instances plus predictions.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .corpus import ArgumentInstance, Confidence, LabelValue, Split, Task
from .predictions import Prediction, PredictionSet

# Per split: joint class counts in the order
# (non-valid & non-novel, non-valid & novel, valid & non-novel, valid & novel)
# and the number of distinct topics.
SPLIT_CLASS_COUNTS: dict[Split, tuple[int, int, int, int]] = {
    Split.TRAIN: (331, 18, 296, 105),
    Split.DEV: (33, 44, 87, 38),
    Split.TEST: (110, 96, 184, 130),
}
SPLIT_TOPIC_COUNTS: dict[Split, int] = {Split.TRAIN: 22, Split.DEV: 8, Split.TEST: 15}
# Topics shared between dev and test; train shares none with either.
SHARED_DEV_TEST_TOPICS = 8

_CONFIDENCE_CYCLE = (
    Confidence.VERY_CONFIDENT,
    Confidence.CONFIDENT,
    Confidence.MAJORITY,
)


def _topics_for(split: Split) -> list[str]:
    if split is Split.TRAIN:
        return [f"train topic {i:02d}" for i in range(SPLIT_TOPIC_COUNTS[split])]
    shared = [f"shared topic {i:02d}" for i in range(SHARED_DEV_TEST_TOPICS)]
    if split is Split.DEV:
        return shared
    extra = SPLIT_TOPIC_COUNTS[Split.TEST] - SHARED_DEV_TEST_TOPICS
    return shared + [f"test topic {i:02d}" for i in range(extra)]


def make_profile_split(split: Split, seed: int = 0) -> list[ArgumentInstance]:
    """One split of the statistics fixture.

    Joint labels are expanded from the fixed counts and shuffled
    deterministically; topics are assigned round-robin so every topic is
    populated; consecutive instances within a topic share a premise so
    the fixture also yields contrastive triplets.
    """
    split = Split(split)
    counts = SPLIT_CLASS_COUNTS[split]
    labels: list[tuple[bool, bool]] = []
    for joint, count in enumerate(counts):
        labels.extend([(joint >= 2, joint % 2 == 1)] * count)
    rng = np.random.default_rng(seed + {"train": 0, "dev": 1, "test": 2}[split.value])
    order = rng.permutation(len(labels))
    topics = _topics_for(split)

    instances = []
    per_topic: dict[str, int] = {}
    for i, j in enumerate(order):
        valid, novel = labels[int(j)]
        topic = topics[i % len(topics)]
        k = per_topic.get(topic, 0)
        per_topic[topic] = k + 1
        # 0 is a legal raw value mapping to negative; sprinkle some into
        # the train split so the middle class is exercised
        validity_raw = 1 if valid else (0 if split is Split.TRAIN and i % 7 == 0 else -1)
        novelty_raw = 1 if novel else (0 if split is Split.TRAIN and i % 11 == 0 else -1)
        instances.append(
            ArgumentInstance(
                id=f"{split.value}-{i:04d}",
                topic=topic,
                premise=f"{split.value} {topic} premise {k // 2}",
                conclusion=(
                    f"{split.value} conclusion {i} "
                    + ("novel" if novel else "known")
                ),
                validity_raw=validity_raw,
                novelty_raw=novelty_raw,
                validity_confidence=_CONFIDENCE_CYCLE[i % 3],
                novelty_confidence=_CONFIDENCE_CYCLE[(i + 1) % 3],
                split=split,
            )
        )
    return instances


def make_profile_splits(seed: int = 0) -> dict[Split, list[ArgumentInstance]]:
    return {split: make_profile_split(split, seed=seed) for split in Split}


_VALIDITY_MARKER = {True: "affirmed", False: "retracted"}
_NOVELTY_MARKER = {True: "fresh", False: "stale"}
_JOINT_CYCLE = ((False, False), (False, True), (True, False), (True, True))
_ALL_CONFIDENCES = tuple(Confidence)


def make_separable_corpus(
    n_train: int = 300, n_dev: int = 100
) -> tuple[list[ArgumentInstance], list[ArgumentInstance]]:
    """Marker-token corpus: one premise token decides validity, one
    conclusion token decides novelty.

    Instances cycle through the four joint classes, so both splits are
    balanced. Consecutive instances (pairs 2k, 2k+1) share a premise and
    differ in novelty, so every premise yields a contrastive triplet.
    """
    total = n_train + n_dev
    instances = []
    for i in range(total):
        valid, novel = _JOINT_CYCLE[i % 4]
        split = Split.TRAIN if i < n_train else Split.DEV
        k = i // 2
        instances.append(
            ArgumentInstance(
                id=f"sep-{i:04d}",
                topic=f"topic {k % 5}",
                premise=f"record {k} {_VALIDITY_MARKER[valid]} claim",
                conclusion=f"reading {i} {_NOVELTY_MARKER[novel]} outcome",
                validity_raw=1 if valid else -1,
                novelty_raw=1 if novel else -1,
                validity_confidence=_ALL_CONFIDENCES[i % 5],
                novelty_confidence=_ALL_CONFIDENCES[(i + 2) % 5],
                split=split,
            )
        )
    return instances[:n_train], instances[n_train:]


def make_confusion_fixture(
    task: Task,
    counts: Sequence[Sequence[int]],
    prefix: str = "cm",
    source: str = "fixture",
) -> tuple[list[ArgumentInstance], PredictionSet]:
    """Gold instances + predictions realizing the 2x2 count table
    (rows = true label, columns = predicted, negative first)."""
    task = Task(task)
    instances = []
    predictions = []
    for t in (0, 1):
        for p in (0, 1):
            for m in range(counts[t][p]):
                inst_id = f"{prefix}-{t}{p}-{m:04d}"
                raw = 1 if t else -1
                instances.append(
                    ArgumentInstance(
                        id=inst_id,
                        topic=f"topic {t}{p}",
                        premise=f"premise {inst_id}",
                        conclusion=f"conclusion {inst_id}",
                        validity_raw=raw if task is Task.VALIDITY else -1,
                        novelty_raw=raw if task is Task.NOVELTY else -1,
                    )
                )
                predictions.append(
                    Prediction(
                        instance_id=inst_id,
                        task=task,
                        value=LabelValue.POSITIVE if p else LabelValue.NEGATIVE,
                        source=source,
                    )
                )
    return instances, PredictionSet(predictions=predictions, source_tag=source)


def make_random_eval_fixture(
    rng: np.random.Generator,
    n: int,
    sources: tuple[str, str] = ("a", "b"),
) -> tuple[list[ArgumentInstance], PredictionSet, PredictionSet]:
    """Random golds plus two full prediction sets over the same ids, for
    exercising the mixing operator."""
    golds = []
    preds: dict[str, list[Prediction]] = {s: [] for s in sources}
    for i in range(n):
        inst_id = f"rnd-{i:04d}"
        golds.append(
            ArgumentInstance(
                id=inst_id,
                topic=f"topic {i % 3}",
                premise=f"premise {i}",
                conclusion=f"conclusion {i}",
                validity_raw=int(rng.choice((-1, 1))),
                novelty_raw=int(rng.choice((-1, 1))),
            )
        )
        for source in sources:
            for task in Task:
                preds[source].append(
                    Prediction(
                        instance_id=inst_id,
                        task=task,
                        value=(
                            LabelValue.POSITIVE
                            if rng.random() < 0.5
                            else LabelValue.NEGATIVE
                        ),
                        source=source,
                    )
                )
    set_a = PredictionSet(predictions=preds[sources[0]], source_tag=sources[0])
    set_b = PredictionSet(predictions=preds[sources[1]], source_tag=sources[1])
    return golds, set_a, set_b
