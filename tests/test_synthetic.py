"""Shape and label guarantees of the bundled synthetic corpora."""

import csv
import hashlib

import numpy as np
import pytest

from valnov.corpus import (
    DEFAULT_COLUMN_MAP,
    Confidence,
    Split,
    Task,
    class_distribution,
    extract_triplets,
    load_corpus,
    mapped_value,
    topic_overlap,
    write_instances_csv,
)
from valnov.evaluation import confusion
from valnov.synthetic import (
    SPLIT_CLASS_COUNTS,
    make_confusion_fixture,
    make_profile_split,
    make_profile_splits,
    make_random_eval_fixture,
    make_separable_corpus,
)

from conftest import make_instance


class TestProfileFixture:
    def test_joint_class_counts(self):
        splits = make_profile_splits()
        assert class_distribution(splits[Split.TRAIN]).counts == (331, 18, 296, 105)
        assert class_distribution(splits[Split.DEV]).counts == (33, 44, 87, 38)
        assert class_distribution(splits[Split.TEST]).counts == (110, 96, 184, 130)

    def test_topic_counts_and_overlaps(self):
        splits = make_profile_splits()
        topics = {s: {i.topic for i in insts} for s, insts in splits.items()}
        assert len(topics[Split.TRAIN]) == 22
        assert len(topics[Split.DEV]) == 8
        assert len(topics[Split.TEST]) == 15
        assert topic_overlap(splits[Split.TRAIN], splits[Split.DEV]) == 0
        assert topic_overlap(splits[Split.TRAIN], splits[Split.TEST]) == 0
        assert topic_overlap(splits[Split.DEV], splits[Split.TEST]) == 8

    def test_sizes_follow_counts(self):
        for split, counts in SPLIT_CLASS_COUNTS.items():
            assert len(make_profile_split(split)) == sum(counts)

    def test_deterministic_per_seed(self):
        assert make_profile_split(Split.DEV, seed=1) == make_profile_split(
            Split.DEV, seed=1
        )
        a = [i.id for i in make_profile_split(Split.DEV, seed=1)]
        b = [(i.validity_raw, i.novelty_raw) for i in make_profile_split(Split.DEV, seed=1)]
        c = [(i.validity_raw, i.novelty_raw) for i in make_profile_split(Split.DEV, seed=2)]
        assert len(a) == len(set(a))
        assert b != c

    def test_middle_class_only_in_train(self):
        splits = make_profile_splits()
        train_raws = {i.validity_raw for i in splits[Split.TRAIN]} | {
            i.novelty_raw for i in splits[Split.TRAIN]
        }
        assert 0 in train_raws
        for split in (Split.DEV, Split.TEST):
            raws = {i.validity_raw for i in splits[split]} | {
                i.novelty_raw for i in splits[split]
            }
            assert 0 not in raws

    def test_train_yields_triplets(self):
        train = make_profile_split(Split.TRAIN)
        assert len(extract_triplets(train)) > 0

    def test_csv_round_trip_preserves_statistics(self, tmp_path):
        path = write_instances_csv(make_profile_split(Split.TRAIN), tmp_path / "train.csv")
        loaded = load_corpus(path, split=Split.TRAIN)
        assert class_distribution(loaded).counts == (331, 18, 296, 105)
        assert len({i.topic for i in loaded}) == 22
        assert all(i.split is Split.TRAIN for i in loaded)


class TestInstancesCsv:
    def test_bytes(self, tmp_path):
        path = tmp_path / "one.csv"
        inst = make_instance(id="a", topic='t, "q"', premise="p\nline", conclusion="c")
        assert write_instances_csv([inst], path) == path
        assert path.read_bytes() == (
            b"topic,Premise,Conclusion,Validity,Validity-Confidence,Novelty,"
            b'Novelty-Confidence\r\n"t, ""q""","p\nline",c,1,unknown,1,unknown\r\n'
        )

    def test_profile_csv_digests(self, tmp_path):
        # recorded from the writer that streamed rows straight into the file
        expected = {
            Split.TRAIN: "5267b2a4bed03997b606c086f88a60b8d6127dd1834e0324c901fe47fb864237",
            Split.DEV: "63f9d9c2f496dac68f1e990ded901776b35ed260cdfd26261d6086b963dff140",
            Split.TEST: "4cb5034cd37f5ea2eaaff6037ed2716238b40a92c864ffc6b28d40705c08a417",
        }
        for split, instances in make_profile_splits().items():
            path = write_instances_csv(instances, tmp_path / f"{split.value}.csv")
            assert hashlib.sha256(path.read_bytes()).hexdigest() == expected[split]

    def test_header_is_the_default_column_map(self, tmp_path):
        # load_corpus numbers rows from 0 when the file has no id column
        inst = make_instance(id="0", validity=0, novelty=-1, vconf=Confidence.MAJORITY,
                             nconf=Confidence.CONFIDENT)
        path = write_instances_csv([inst], tmp_path / "one.csv")
        with open(path, encoding="utf-8", newline="") as fh:
            assert next(csv.reader(fh)) == list(DEFAULT_COLUMN_MAP.values())
        assert load_corpus(path) == [inst]

    @pytest.mark.parametrize("existing", [None, b"old contents\n"])
    def test_failed_write_leaves_no_partial_file(self, tmp_path, existing):
        path = tmp_path / "train.csv"
        if existing is not None:
            path.write_bytes(existing)
        # the lone surrogate cannot be encoded, so the write fails after
        # the rows before it are rendered
        rows = [make_instance(id="a"), make_instance(id="b", premise="p \ud800")]
        with pytest.raises(UnicodeEncodeError):
            write_instances_csv(rows, path)
        if existing is None:
            assert list(tmp_path.iterdir()) == []
        else:
            assert [p.name for p in tmp_path.iterdir()] == ["train.csv"]
            assert path.read_bytes() == existing


class TestSeparableCorpus:
    def test_markers_decide_labels(self):
        train, dev = make_separable_corpus(n_train=40, n_dev=12)
        for inst in train + dev:
            assert ("affirmed" in inst.premise) == (inst.validity_raw == 1)
            assert ("retracted" in inst.premise) == (inst.validity_raw == -1)
            assert ("fresh" in inst.conclusion) == (inst.novelty_raw == 1)
            assert ("stale" in inst.conclusion) == (inst.novelty_raw == -1)

    def test_balanced_joint_classes(self):
        train, dev = make_separable_corpus(n_train=40, n_dev=20)
        assert class_distribution(train).counts == (10, 10, 10, 10)
        assert class_distribution(dev).counts == (5, 5, 5, 5)

    def test_pairs_share_premise_and_topic(self):
        train, _ = make_separable_corpus(n_train=20, n_dev=0)
        for k in range(10):
            a, b = train[2 * k], train[2 * k + 1]
            assert a.premise == b.premise
            assert a.topic == b.topic
            assert a.novelty_raw != b.novelty_raw

    def test_every_pair_yields_a_triplet(self):
        train, _ = make_separable_corpus(n_train=60, n_dev=0)
        assert len(extract_triplets(train)) == 30

    def test_split_assignment_and_ids(self):
        train, dev = make_separable_corpus(n_train=8, n_dev=4)
        assert all(i.split is Split.TRAIN for i in train)
        assert all(i.split is Split.DEV for i in dev)
        ids = [i.id for i in train + dev]
        assert len(ids) == len(set(ids)) == 12


class TestConfusionFixture:
    @pytest.mark.parametrize(
        "counts",
        [
            ((240, 54), (181, 45)),
            ((265, 29), (145, 81)),
            ((120, 86), (59, 255)),
            ((75, 131), (18, 296)),
            ((0, 3), (2, 0)),
        ],
    )
    def test_realizes_requested_matrix(self, counts):
        golds, preds = make_confusion_fixture(Task.NOVELTY, counts)
        matrix = confusion(list(preds), golds, Task.NOVELTY)
        assert matrix.counts == counts
        assert len(golds) == sum(map(sum, counts))

    def test_task_and_naming(self):
        golds, preds = make_confusion_fixture(
            Task.VALIDITY, ((1, 1), (1, 1)), prefix="vx", source="oracle"
        )
        assert all(g.id.startswith("vx-") for g in golds)
        assert all(p.task is Task.VALIDITY and p.source == "oracle" for p in preds)
        assert preds.source_tag == "oracle"


class TestRandomEvalFixture:
    def test_full_coverage_both_sides(self):
        rng = np.random.default_rng(0)
        golds, set_a, set_b = make_random_eval_fixture(rng, n=10)
        assert len(golds) == 10
        for ps, tag in ((set_a, "a"), (set_b, "b")):
            assert ps.source_tag == tag
            assert len(ps) == 20
            for task in Task:
                covered = {p.instance_id for p in ps.for_task(task)}
                assert covered == {g.id for g in golds}

    def test_labels_are_binary(self):
        rng = np.random.default_rng(1)
        golds, _, _ = make_random_eval_fixture(rng, n=6)
        for g in golds:
            assert g.validity_raw in (-1, 1)
            assert g.novelty_raw in (-1, 1)
            for task in Task:
                mapped_value(g, task)  # must not raise
