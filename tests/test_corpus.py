"""Corpus loading, label mapping, statistics, and triplet extraction."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from valnov.corpus import (
    ArgumentInstance,
    Confidence,
    LabelValue,
    Split,
    Task,
    TripletExample,
    class_distribution,
    confidence_for,
    extract_triplets,
    load_corpus,
    load_instances_jsonl,
    load_triplets_jsonl,
    map_label,
    mapped_value,
    positive,
    save_instances_jsonl,
    save_triplets_jsonl,
    topic_overlap,
)
from valnov.errors import DataError, SchemaError

from conftest import make_instance

CSV_HEADER = "topic,Premise,Conclusion,Validity,Validity-Confidence,Novelty,Novelty-Confidence\n"


def write_csv(path, rows, header=CSV_HEADER):
    path.write_text(header + "".join(rows), encoding="utf-8")
    return path


class TestLoadCorpus:
    def test_well_formed_rows_get_index_ids(self, tmp_path):
        path = write_csv(
            tmp_path / "d.csv",
            [
                "guns,p1,c1,1,confident,-1,majority\n",
                "guns,p2,c2,0,very confident,1,confident\n",
                "tax,p3,c3,-1,majority,0,unknown\n",
            ],
        )
        instances = load_corpus(path)
        assert [i.id for i in instances] == ["0", "1", "2"]
        assert instances[0].validity_raw == 1
        assert instances[0].novelty_raw == -1
        assert instances[1].validity_confidence is Confidence.VERY_CONFIDENT
        assert instances[2].topic == "tax"
        assert all(i.split is Split.TRAIN for i in instances)

    def test_tab_delimited_sniffed_from_header(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text(
            "topic\tPremise\tConclusion\tValidity\tNovelty\n"
            "guns\tp1\tc1\t1\t-1\n",
            encoding="utf-8",
        )
        instances = load_corpus(path, split=Split.DEV)
        assert instances[0].premise == "p1"
        assert instances[0].split is Split.DEV
        # absent confidence columns default to unknown
        assert instances[0].validity_confidence is Confidence.UNKNOWN

    def test_missing_conclusion_column_names_it(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("topic,Premise,Validity,Novelty\nguns,p,1,1\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="Conclusion"):
            load_corpus(path)

    @pytest.mark.parametrize(
        "column_map,column",
        [
            ({"id": "ID", "validity_confidence": "VConf"}, "ID"),
            ({"validity_confidence": "VConf"}, "VConf"),
            ({"novelty_confidence": "Novelty-Confidence"}, "Novelty-Confidence"),
        ],
    )
    def test_a_column_the_map_names_must_be_in_the_file(self, tmp_path, column_map, column):
        # only the default map's confidence columns may be absent
        path = tmp_path / "d.csv"
        path.write_text("topic,Premise,Conclusion,Validity,Novelty\nguns,p,c,1,1\n", "utf-8")
        with pytest.raises(SchemaError) as info:
            load_corpus(path, column_map=column_map)
        assert str(info.value) == f"{path}: missing column {column!r}"

    def test_out_of_range_label_cites_row(self, tmp_path):
        path = write_csv(
            tmp_path / "d.csv",
            ["guns,p1,c1,1,,1,\n", "guns,p2,c2,2,,1,\n"],
        )
        with pytest.raises(DataError, match="row 1"):
            load_corpus(path)

    def test_empty_premise_rejected(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["guns,,c1,1,,1,\n"])
        with pytest.raises(DataError, match="empty premise"):
            load_corpus(path)

    def test_column_map_override_and_id_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "id,subject,text_a,text_b,val,nov\n"
            "x7,guns,p1,c1,1,-1\n",
            encoding="utf-8",
        )
        instances = load_corpus(
            path,
            column_map={
                "id": "id",
                "topic": "subject",
                "premise": "text_a",
                "conclusion": "text_b",
                "validity": "val",
                "novelty": "nov",
            },
        )
        assert instances[0].id == "x7"

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "id,topic,Premise,Conclusion,Validity,Novelty\n"
            "a,t,p1,c1,1,1\na,t,p2,c2,1,1\n",
            encoding="utf-8",
        )
        with pytest.raises(DataError, match="duplicate id"):
            load_corpus(path, column_map={"id": "id"})


# a defect of the second of two records -> its fields and the DataError detail
RECORD_DEFECTS = {
    "duplicate-id": ({"id": "i0"}, "duplicate id 'i0'"),
    "empty-premise": ({"premise": ""}, "empty premise"),
    "empty-conclusion": ({"conclusion": ""}, "empty conclusion"),
}


class TestRecordChecks:
    """The CSV and the JSONL instance loader reject the same records."""

    @pytest.mark.parametrize("case", sorted(RECORD_DEFECTS))
    def test_jsonl_cites_path_and_line(self, tmp_path, case):
        fields, detail = RECORD_DEFECTS[case]
        path = tmp_path / "d.jsonl"
        save_instances_jsonl([make_instance(id="i0"), make_instance(**{"id": "i1", **fields})],
                             path)
        with pytest.raises(DataError) as info:
            load_instances_jsonl(path)
        assert str(info.value) == f"{path}:2: {detail}"

    @pytest.mark.parametrize("case", sorted(RECORD_DEFECTS))
    def test_csv_cites_row(self, tmp_path, case):
        fields, detail = RECORD_DEFECTS[case]
        second = {"id": "i1", "premise": "p", "conclusion": "c", **fields}
        rows = ["i0,t,p,c,1,1\n", "{id},t,{premise},{conclusion},1,1\n".format(**second)]
        path = write_csv(
            tmp_path / "d.csv", rows, header="id,topic,Premise,Conclusion,Validity,Novelty\n"
        )
        with pytest.raises(DataError) as info:
            load_corpus(path, column_map={"id": "id"})
        assert str(info.value) == f"{path}: row 1: {detail}"


class TestMapLabel:
    def test_one_is_positive(self):
        assert map_label(1) is LabelValue.POSITIVE

    def test_middle_class_maps_negative(self):
        assert map_label(0) is LabelValue.NEGATIVE

    def test_minus_one_is_negative(self):
        assert map_label(-1) is LabelValue.NEGATIVE

    def test_out_of_domain(self):
        with pytest.raises(DataError):
            map_label(2)

    @given(st.sampled_from([-1, 0, 1]))
    def test_idempotent_under_reencoding(self, raw):
        label = map_label(raw)
        reencoded = 1 if label is LabelValue.POSITIVE else -1
        assert map_label(reencoded) is label


def test_mapped_value_and_confidence_for():
    inst = make_instance(
        validity=0, novelty=1, vconf=Confidence.MAJORITY, nconf=Confidence.CONFIDENT
    )
    assert mapped_value(inst, Task.VALIDITY) is LabelValue.NEGATIVE
    assert mapped_value(inst, Task.NOVELTY) is LabelValue.POSITIVE
    assert confidence_for(inst, Task.VALIDITY) is Confidence.MAJORITY
    assert confidence_for(inst, Task.NOVELTY) is Confidence.CONFIDENT


class TestPositive:
    @given(
        st.lists(
            st.tuples(st.sampled_from([-1, 0, 1]), st.sampled_from([-1, 0, 1])),
            max_size=50,
        )
    )
    def test_is_the_mapped_value_of_each_instance(self, labels):
        instances = [
            make_instance(id=str(k), validity=v, novelty=n) for k, (v, n) in enumerate(labels)
        ]
        for task in Task:
            got = positive(instances, task)
            assert got.dtype == bool and got.shape == (len(instances),)
            assert got.tolist() == [
                mapped_value(inst, task) is LabelValue.POSITIVE for inst in instances
            ]

    @pytest.mark.parametrize("task", list(Task))
    def test_a_raw_label_outside_the_domain_is_the_map_label_error(self, task):
        instances = [make_instance(id="a"), make_instance(id="b", **{task.value: 2})]
        with pytest.raises(DataError) as mapped:
            map_label(2)
        with pytest.raises(DataError) as raised:
            positive(instances, task)
        assert str(raised.value) == str(mapped.value)


def _per_instance_class_distribution(instances):
    """The per-instance loop that one ``np.bincount`` replaced."""
    counts = [0, 0, 0, 0]
    for inst in instances:
        valid = mapped_value(inst, Task.VALIDITY) is LabelValue.POSITIVE
        novel = mapped_value(inst, Task.NOVELTY) is LabelValue.POSITIVE
        counts[2 * valid + novel] += 1
    return tuple(counts)


class TestClassDistribution:
    @pytest.mark.parametrize("n", [0, 1, 7, 60, 500])
    def test_equals_the_per_instance_loop(self, n):
        rng = np.random.default_rng(n)
        instances = [
            make_instance(id=str(k), validity=int(v), novelty=int(m))
            for k, (v, m) in enumerate(rng.choice((-1, 0, 1), size=(n, 2)))
        ]
        counts = class_distribution(instances).counts
        assert counts == _per_instance_class_distribution(instances)
        assert all(type(c) is int for c in counts)

    def test_empty(self):
        assert class_distribution([]).counts == (0, 0, 0, 0)

    def test_joint_order(self, tiny_corpus):
        # a0:(V,N) a1:(V,-) a2:(-,-) a3:(-,N) a4:(V,-) a5:(-,N)
        assert class_distribution(tiny_corpus).counts == (1, 2, 2, 1)

    @given(
        st.lists(
            st.tuples(st.sampled_from([-1, 0, 1]), st.sampled_from([-1, 0, 1])),
            max_size=50,
        )
    )
    def test_counts_sum_to_length(self, labels):
        instances = [
            make_instance(id=str(k), validity=v, novelty=n)
            for k, (v, n) in enumerate(labels)
        ]
        assert class_distribution(instances).total == len(instances)


class TestTopicOverlap:
    def test_self_overlap_is_topic_count(self, tiny_corpus):
        assert topic_overlap(tiny_corpus, tiny_corpus) == 2

    def test_trimmed_exact_match(self):
        a = [make_instance(id="a", topic=" guns ")]
        b = [make_instance(id="b", topic="guns")]
        assert topic_overlap(a, b) == 1

    @given(
        st.lists(st.sampled_from(["t1", "t2", "t3"]), max_size=8),
        st.lists(st.sampled_from(["t2", "t3", "t4"]), max_size=8),
    )
    def test_symmetric(self, topics_a, topics_b):
        a = [make_instance(id=f"a{k}", topic=t) for k, t in enumerate(topics_a)]
        b = [make_instance(id=f"b{k}", topic=t) for k, t in enumerate(topics_b)]
        assert topic_overlap(a, b) == topic_overlap(b, a)


class TestExtractTriplets:
    def test_single_pair(self):
        instances = [
            make_instance(id="a", premise="p", conclusion="c1", novelty=1),
            make_instance(id="b", premise="p", conclusion="c2", novelty=-1),
        ]
        triplets = extract_triplets(instances)
        assert len(triplets) == 1
        t = triplets[0]
        assert (t.anchor, t.positive, t.negative) == ("p", "c1", "c2")

    def test_cartesian_product(self):
        instances = [
            make_instance(id="a", premise="p", conclusion="c1", novelty=1),
            make_instance(id="b", premise="p", conclusion="c2", novelty=1),
            make_instance(id="c", premise="p", conclusion="c3", novelty=-1),
            make_instance(id="d", premise="p", conclusion="c4", novelty=0),
        ]
        triplets = extract_triplets(instances)
        assert len(triplets) == 4
        assert {(t.positive, t.negative) for t in triplets} == {
            ("c1", "c3"), ("c1", "c4"), ("c2", "c3"), ("c2", "c4"),
        }

    def test_lonely_premises_give_nothing(self):
        instances = [
            make_instance(id=str(k), premise=f"p{k}", conclusion=f"c{k}")
            for k in range(4)
        ]
        assert extract_triplets(instances) == []

    def test_grouping_respects_topic(self):
        instances = [
            make_instance(id="a", topic="t1", premise="p", conclusion="c1", novelty=1),
            make_instance(id="b", topic="t2", premise="p", conclusion="c2", novelty=-1),
        ]
        assert extract_triplets(instances) == []

    def test_identical_conclusions_skipped(self):
        instances = [
            make_instance(id="a", premise="p", conclusion="same", novelty=1),
            make_instance(id="b", premise="p", conclusion="same", novelty=-1),
        ]
        assert extract_triplets(instances) == []

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["p1", "p2"]),
                st.sampled_from(["c1", "c2", "c3", "c4"]),
                st.sampled_from([-1, 0, 1]),
            ),
            max_size=12,
        )
    )
    def test_no_triplet_mixes_labels(self, rows):
        instances = [
            make_instance(id=str(k), premise=p, conclusion=c, novelty=n)
            for k, (p, c, n) in enumerate(rows)
        ]
        for t in extract_triplets(instances):
            assert t.positive != t.negative


class TestJsonlRoundTrip:
    def test_instances(self, tmp_path, tiny_corpus):
        path = tmp_path / "inst.jsonl"
        save_instances_jsonl(tiny_corpus, path)
        assert load_instances_jsonl(path) == tiny_corpus

    def test_triplets(self, tmp_path, tiny_corpus):
        triplets = extract_triplets(tiny_corpus)
        assert triplets  # fixture shares premises within topics
        path = tmp_path / "trip.jsonl"
        save_triplets_jsonl(triplets, path)
        assert load_triplets_jsonl(path) == triplets

    @given(
        st.text(
            alphabet=st.characters(blacklist_categories=("Cs", "Cc")),
            min_size=1,
            max_size=40,
        )
    )
    def test_arbitrary_text_survives(self, tmp_path_factory, text):
        inst = make_instance(premise=text, conclusion=text, topic=text)
        path = tmp_path_factory.mktemp("jsonl") / "one.jsonl"
        save_instances_jsonl([inst], path)
        assert load_instances_jsonl(path) == [inst]


@pytest.mark.parametrize("kind", ["instances", "triplets"])
def test_failed_jsonl_write_leaves_no_partial_file(tmp_path, tiny_corpus, kind):
    # a lone surrogate cannot be encoded, so the write fails mid-file
    broken = make_instance(id="z", premise="p \ud800", conclusion="c")
    path = tmp_path / "out.jsonl"
    with pytest.raises(UnicodeEncodeError):
        if kind == "instances":
            save_instances_jsonl([*tiny_corpus, broken], path)
        else:
            triplets = extract_triplets(tiny_corpus)
            save_triplets_jsonl([*triplets, TripletExample("\ud800", "p", "n", "t")], path)
    assert list(tmp_path.iterdir()) == []


def test_frozen_instances_are_hashable():
    assert len({make_instance(id="a"), make_instance(id="a")}) == 1
