"""The typed JSON decoder, and the config loader's use of it."""

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, get_args, get_origin, get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valnov.config import RunConfig, load_config
from valnov.decode import decode
from valnov.errors import ConfigurationError
from valnov.mtl import TrainConfig


@dataclass(frozen=True)
class Inner:
    rate: float
    count: int = 1
    name: str | None = None


@dataclass(frozen=True)
class Outer:
    inner: Inner
    rows: list[tuple[int, float]] = field(default_factory=list)
    tags: dict[str, str] = field(default_factory=dict)
    extra: dict[str, Any] = field(default_factory=dict)
    flag: bool = False


class TestDecode:
    def test_rebuilds_nested_types(self):
        value = {
            "inner": {"rate": 0.5, "name": "n"},
            "rows": [[1, 2.5], [2, 3]],
            "tags": {"a": "b"},
            "extra": {"anything": [1, {"x": None}]},
            "flag": True,
        }
        assert decode(Outer, value, "doc") == Outer(
            inner=Inner(rate=0.5, name="n"),
            rows=[(1, 2.5), (2, 3)],
            tags={"a": "b"},
            extra={"anything": [1, {"x": None}]},
            flag=True,
        )

    def test_int_in_float_field_stays_int(self):
        decoded = decode(Inner, {"rate": 0}, "doc")
        assert decoded.rate == 0 and type(decoded.rate) is int
        assert json.dumps(dataclasses.asdict(decoded)) == json.dumps(
            {"rate": 0, "count": 1, "name": None}
        )

    @pytest.mark.parametrize(
        "value, path",
        [
            ({"inner": {"rate": "0.5"}}, "doc.inner.rate must be float"),
            ({"inner": {"rate": True}}, "doc.inner.rate must be float"),
            ({"inner": {"rate": 1, "count": 2.0}}, "doc.inner.count must be int"),
            ({"inner": {"rate": 1, "count": False}}, "doc.inner.count must be int"),
            ({"inner": {"rate": 1, "name": 3}}, "doc.inner.name must be str"),
            ({"inner": {"rate": 1}, "rows": [[1, 2.0, 3]]}, "doc.rows[0] must be"),
            ({"inner": {"rate": 1}, "rows": [[1, "2"]]}, "doc.rows[0][1] must be float"),
            ({"inner": {"rate": 1}, "tags": {"a": 1}}, "doc.tags.a must be str"),
            ({"inner": {"rate": 1}, "tags": []}, "doc.tags must be dict"),
            ({"inner": {"rate": 1}, "flag": 1}, "doc.flag must be bool"),
            ({"inner": []}, "doc.inner must be an object"),
            ({"inner": {}}, "doc.inner lacks the field 'rate'"),
        ],
    )
    def test_mismatch_names_the_path(self, value, path):
        with pytest.raises(TypeError, match=path.replace("[", r"\[").replace("]", r"\]")):
            decode(Outer, value, "doc")

    def test_unknown_keys_rejected_at_every_level(self):
        with pytest.raises(TypeError, match=r"unknown doc key\(s\) \['bogus'\] under doc$"):
            decode(Outer, {"inner": {"rate": 1}, "bogus": 1}, "doc")
        with pytest.raises(TypeError, match=r"\['bogus'\] under doc.inner$"):
            decode(Outer, {"inner": {"rate": 1, "bogus": 1}}, "doc")


# --- every settable config key, given a JSON value of another type ---

_TEXT = st.text(max_size=5)
_NUMBER = st.integers(-5, 5) | st.floats(-5, 5, allow_nan=False)
_CONTAINER = st.lists(st.integers(0, 3), max_size=2) | st.dictionaries(
    _TEXT, st.integers(), max_size=2
)


def _wrong_values(tp: Any) -> st.SearchStrategy:
    """JSON values that are not of the annotated type ``tp``."""
    if dataclasses.is_dataclass(tp) or get_origin(tp) is dict:
        return _TEXT | _NUMBER | st.booleans() | st.lists(st.integers(), max_size=2)
    nullable = type(None) in get_args(tp)
    tp = get_args(tp)[0] if nullable else tp
    others = {
        str: _NUMBER | st.booleans() | _CONTAINER,
        int: _TEXT | st.booleans() | _CONTAINER | st.floats(allow_nan=False),
        float: _TEXT | st.booleans() | _CONTAINER,
        tuple: _TEXT | _NUMBER | st.lists(st.floats(0, 1), min_size=3, max_size=3),
    }[get_origin(tp) or tp]
    return others if nullable else others | st.none()


def _field_keys(cls: type, prefix: tuple[str, ...] = ()) -> list[tuple[tuple[str, ...], Any]]:
    """(key path, annotated type) of every field of ``cls``, nested ones too."""
    keys = []
    for name, tp in get_type_hints(cls).items():
        keys.append((prefix + (name,), tp))
        if dataclasses.is_dataclass(tp):
            keys.extend(_field_keys(tp, prefix + (name,)))
    return keys


# the RunConfig tree plus the TrainConfig fields ``train_overrides`` may
# set; ``seed`` and ``combined_metric`` are not among them: a run takes
# both from the top level, and ``train_overrides`` rejects them whatever
# their value
CONFIG_KEYS = _field_keys(RunConfig) + [
    (path, tp) for path, tp in _field_keys(TrainConfig, ("train_overrides",))
    if path[-1] not in ("seed", "combined_metric")
]


@st.composite
def ill_typed_configs(draw):
    path, tp = draw(st.sampled_from(CONFIG_KEYS))
    value = draw(_wrong_values(tp))
    doc: dict = {}
    node = doc
    for name in path[:-1]:
        node = node.setdefault(name, {})
    node[path[-1]] = value
    return ".".join(path), doc


@settings(max_examples=150, derandomize=True, deadline=None)
@given(ill_typed_configs())
def test_ill_typed_config_value_names_its_key(tmp_path_factory, case):
    dotted, doc = case
    path = tmp_path_factory.getbasetemp() / "ill-typed.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ConfigurationError) as info:
        load_config(path)
    assert f"config.{dotted} must be" in str(info.value)

