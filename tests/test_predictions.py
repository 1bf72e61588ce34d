"""Prediction records, mixing, and the delimited on-disk format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valnov.corpus import LabelValue, Task
from valnov.errors import CoverageError, ParseError
from valnov.predictions import (
    FILE_HEADER,
    Prediction,
    load_predictions,
    mix,
    save_predictions,
    source_label,
)


def pred(id, task, value, source="m", flagged=False):
    return Prediction(
        instance_id=id,
        task=task,
        value=LabelValue.POSITIVE if value > 0 else LabelValue.NEGATIVE,
        source=source,
        flagged=flagged,
    )


def both_task_sets(ids=("a", "b", "c")):
    validity = [pred(i, Task.VALIDITY, 1, source="gpt3") for i in ids]
    novelty = [pred(i, Task.NOVELTY, -1, source="svm") for i in ids]
    return validity, novelty


class TestSourceLabel:
    def test_sorted_and_joined(self):
        preds = [
            pred("a", Task.VALIDITY, 1, source="svm"),
            pred("b", Task.VALIDITY, 1, source="gpt3"),
            pred("c", Task.NOVELTY, 1, source="other"),
        ]
        assert source_label(preds, Task.VALIDITY) == "gpt3+svm"


class TestMix:
    def test_takes_each_task_from_its_set(self):
        validity, novelty = both_task_sets()
        mixed = mix(validity, novelty)
        assert mixed == validity + novelty
        assert source_label(mixed, Task.VALIDITY) == "gpt3"
        assert source_label(mixed, Task.NOVELTY) == "svm"

    def test_ignores_other_task_rows_in_each_input(self):
        # each side may carry both tasks; only its own task is read
        validity, novelty = both_task_sets()
        noisy_validity = validity + [pred("a", Task.NOVELTY, 1, source="gpt3")]
        noisy_novelty = novelty + [pred("b", Task.VALIDITY, 1, source="svm")]
        mixed = mix(noisy_validity, noisy_novelty)
        by_key = {(p.instance_id, p.task): p for p in mixed}
        assert by_key[("a", Task.NOVELTY)].source == "svm"
        assert by_key[("b", Task.VALIDITY)].source == "gpt3"

    def test_identity_when_sides_agree(self):
        validity, novelty = both_task_sets()
        joint = validity + novelty
        mixed = mix(joint, joint)
        assert sorted(mixed, key=lambda p: (p.instance_id, p.task.value)) == sorted(
            joint, key=lambda p: (p.instance_id, p.task.value)
        )

    def test_idempotent(self):
        validity, novelty = both_task_sets()
        once = mix(validity, novelty)
        assert mix(once, once) == once

    def test_missing_ids_listed(self):
        validity, novelty = both_task_sets()
        with pytest.raises(CoverageError, match=r"missing novelty.*\['c'\]"):
            mix(validity, novelty[:2])
        with pytest.raises(CoverageError, match=r"missing validity.*\['a', 'b'\]"):
            mix(validity[2:], novelty)

    def test_duplicate_ids_rejected(self):
        validity, novelty = both_task_sets()
        with pytest.raises(CoverageError, match="multiple validity"):
            mix(validity + [pred("a", Task.VALIDITY, -1, source="other")], novelty)

    def test_preserves_flags(self):
        validity = [pred("a", Task.VALIDITY, 1, flagged=True)]
        novelty = [pred("a", Task.NOVELTY, 1)]
        mixed = mix(validity, novelty)
        assert [p.flagged for p in mixed] == [True, False]

    @settings(max_examples=50)
    @given(st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=8, unique=True))
    def test_output_ordering(self, ids):
        validity = [pred(i, Task.VALIDITY, 1) for i in ids]
        novelty = [pred(i, Task.NOVELTY, 1) for i in ids]
        mixed = mix(validity, novelty)
        n = len(ids)
        assert [p.instance_id for p in mixed[:n]] == sorted(ids)
        assert [p.instance_id for p in mixed[n:]] == sorted(ids)
        assert {p.task for p in mixed[:n]} == {Task.VALIDITY}
        assert {p.task for p in mixed[n:]} == {Task.NOVELTY}


class TestSaveLoad:
    def test_round_trip_sorted(self, tmp_path):
        preds = [
            pred("b", Task.NOVELTY, 1, source="svm"),
            pred("a", Task.VALIDITY, -1, source="gpt3", flagged=True),
            pred("b", Task.VALIDITY, 1, source="gpt3"),
            pred("a", Task.NOVELTY, -1, source="svm"),
        ]
        path = tmp_path / "preds.csv"
        save_predictions(preds, path)
        loaded = load_predictions(path)
        assert loaded == sorted(preds, key=lambda p: (p.instance_id, p.task.value))
        assert loaded[0].flagged is False or loaded[0].instance_id == "a"

    def test_header_and_flag_encoding(self, tmp_path):
        path = tmp_path / "preds.csv"
        save_predictions([pred("a", Task.VALIDITY, 1, flagged=True)], path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ",".join(FILE_HEADER)
        assert lines[1] == "a,validity,positive,m,true"

    def test_save_rejects_duplicates(self, tmp_path):
        preds = [pred("a", Task.VALIDITY, 1), pred("a", Task.VALIDITY, -1)]
        with pytest.raises(ParseError, match="duplicate"):
            save_predictions(preds, tmp_path / "preds.csv")

    def test_crlf_line_ends(self, tmp_path):
        path = tmp_path / "preds.csv"
        save_predictions([pred("a", Task.VALIDITY, 1)], path)
        assert path.read_bytes() == (
            b"instance_id,task,value,source,flagged\r\na,validity,positive,m,false\r\n"
        )

    @pytest.mark.parametrize("existing", [None, b"old contents\n"])
    def test_failed_write_leaves_no_partial_file(self, tmp_path, existing):
        path = tmp_path / "preds.csv"
        if existing is not None:
            path.write_bytes(existing)
        # the lone surrogate cannot be encoded, so the write fails after
        # the rows before it are rendered
        preds = [pred("a", Task.VALIDITY, 1), pred("b\ud800", Task.VALIDITY, 1)]
        with pytest.raises(UnicodeEncodeError):
            save_predictions(preds, path)
        if existing is None:
            assert list(tmp_path.iterdir()) == []
        else:
            assert [p.name for p in tmp_path.iterdir()] == ["preds.csv"]
            assert path.read_bytes() == existing

    def test_byte_identical_rewrites(self, tmp_path):
        validity, novelty = both_task_sets()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_predictions(validity + novelty, a)
        save_predictions(list(reversed(validity + novelty)), b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "row,message",
        [
            ("a,angularity,positive,m,false", "unknown task"),
            ("a,validity,maybe,m,false", "unknown value"),
            ("a,validity,positive,m,yes", "bad flagged"),
            ("a,validity,positive,m", "expected 5 fields"),
        ],
    )
    def test_bad_rows_cite_line(self, tmp_path, row, message):
        path = tmp_path / "preds.csv"
        path.write_text(",".join(FILE_HEADER) + "\n" + row + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=message) as err:
            load_predictions(path)
        assert ":2:" in str(err.value)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("id,task\n", encoding="utf-8")
        with pytest.raises(ParseError, match="bad header"):
            load_predictions(path)

    def test_duplicate_rows_cite_file(self, tmp_path):
        path = tmp_path / "preds.csv"
        rows = ["a,validity,positive,m,false", "a,validity,negative,m,false"]
        path.write_text(",".join(FILE_HEADER) + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match="duplicate"):
            load_predictions(path)

    def test_duplicate_names_the_task_value(self, tmp_path):
        preds = [pred("a", Task.NOVELTY, 1), pred("a", Task.NOVELTY, -1)]
        with pytest.raises(ParseError) as info:
            save_predictions(preds, tmp_path / "preds.csv")
        assert str(info.value) == "duplicate prediction for ('a', 'novelty', 'm')"

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text(
            ",".join(FILE_HEADER) + "\n\na,validity,positive,m,false\n\n",
            encoding="utf-8",
        )
        assert len(load_predictions(path)) == 1

    def test_same_id_different_sources_allowed(self, tmp_path):
        preds = [
            pred("a", Task.VALIDITY, 1, source="svm"),
            pred("a", Task.VALIDITY, -1, source="gpt3"),
        ]
        path = tmp_path / "preds.csv"
        save_predictions(preds, path)
        assert len(load_predictions(path)) == 2
