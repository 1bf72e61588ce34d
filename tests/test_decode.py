"""The typed JSON decoder, and the config loader's use of it."""

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Any, get_args, get_origin, get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valnov.config import RunConfig, load_config
from valnov.decode import check_ranges, decode
from valnov.encoder import EncoderConfig
from valnov.errors import ConfigurationError
from valnov.fsutil import load_model, model_json
from valnov.mtl import Checkpoint, EncoderCheckpoint, TrainConfig


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


@dataclass(frozen=True)
class Bounded:
    count: int = field(default=1, metadata={"min": 1})
    rate: float | None = field(default=None, metadata={"gt": 0})
    kind: str = field(default="a", metadata={"one_of": ("a", "b")})

    __post_init__ = check_ranges


@dataclass(frozen=True)
class Holder:
    bounded: Bounded
    rows: list[Bounded] = field(default_factory=list)


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

    def test_complete_requires_defaulted_fields(self):
        assert decode(Inner, {"rate": 1}, "doc") == Inner(rate=1)
        with pytest.raises(TypeError, match="doc lacks the field 'count'"):
            decode(Inner, {"rate": 1}, "doc", complete=True)
        full = {"rate": 1, "count": 2, "name": None}
        assert decode(Inner, full, "doc", complete=True) == Inner(rate=1, count=2)

    @pytest.mark.parametrize(
        "tp, value, path",
        [
            (list[Inner], [{"rate": 1, "count": 1, "name": None}, {"rate": 1}], r"doc\[1\]"),
            (Inner | None, {"rate": 1, "count": 1}, "doc"),
            (dict[str, Inner], {"a": {"rate": 1, "name": "n"}}, "doc.a"),
            (tuple[Inner, int], [{"rate": 1}, 2], r"doc\[0\]"),
        ],
        ids=["list", "optional", "dict", "tuple"],
    )
    def test_complete_applies_inside_containers(self, tp, value, path):
        decode(tp, value, "doc")  # without ``complete`` the defaults fill in
        with pytest.raises(TypeError, match=f"^{path} lacks the field"):
            decode(tp, value, "doc", complete=True)

    def test_unknown_keys_rejected_at_every_level(self):
        with pytest.raises(TypeError, match=r"unknown doc key\(s\) \['bogus'\] under doc$"):
            decode(Outer, {"inner": {"rate": 1}, "bogus": 1}, "doc")
        with pytest.raises(TypeError, match=r"\['bogus'\] under doc.inner$"):
            decode(Outer, {"inner": {"rate": 1, "bogus": 1}}, "doc")


class TestCheckRanges:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"count": 0}, "count must be >= 1"),
            ({"rate": 0}, "rate must be null or > 0"),
            ({"rate": float("nan")}, "rate must be null or > 0"),
            ({"kind": "c"}, "kind 'c' is unknown; known: ['a', 'b']"),
        ],
        ids=["min", "gt", "gt-nan", "one_of"],
    )
    def test_direct_construction_names_the_field(self, kwargs, message):
        with pytest.raises(ConfigurationError) as info:
            Bounded(**kwargs)
        assert str(info.value) == message

    def test_in_range_and_null_pass(self):
        assert Bounded(count=1, rate=1e-9, kind="b").rate == 1e-9
        assert Bounded(rate=None).rate is None

    @pytest.mark.parametrize(
        "value, message",
        [
            ({"bounded": {"count": 0}}, "doc.bounded.count must be >= 1"),
            ({"bounded": {}, "rows": [{}, {"rate": -1}]}, "doc.rows[1].rate must be null or > 0"),
        ],
        ids=["nested", "in-list"],
    )
    def test_decode_prefixes_the_dotted_path_once(self, value, message):
        with pytest.raises(ConfigurationError) as info:
            decode(Holder, value, "doc")
        assert str(info.value) == message


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



# --- every field that declares a range, given a value just outside it ---


def _bounded_fields(cls: type, prefix: tuple[str, ...] = ()) -> list[tuple[str, Any, Any]]:
    """(dotted key, annotated type, field) of every field of ``cls``, nested
    ones too, whose metadata declares a range."""
    keys = []
    hints = get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(hints[f.name]):
            keys.extend(_bounded_fields(hints[f.name], prefix + (f.name,)))
        elif f.metadata:
            keys.append((".".join(prefix + (f.name,)), hints[f.name], f))
    return keys


def _just_outside(tp: Any, f: dataclasses.Field) -> tuple[Any, str]:
    """A value just outside the range ``f`` declares, and the message that
    refuses it, after the field's name."""
    ((kind, limit),) = f.metadata.items()
    if kind == "one_of":
        return "nope", f" 'nope' is unknown; known: {sorted(limit)}"
    null = "null or " if f.default is None else ""
    if kind == "gt":
        return limit, f" must be {null}> {limit}"
    below = limit - 1 if int in (tp, *get_args(tp)) else math.nextafter(limit, -math.inf)
    return below, f" must be {null}>= {limit}"


def _ids(keys):
    return [key for key, *_ in keys]


# as CONFIG_KEYS: the RunConfig tree plus what ``train_overrides`` may set
BOUNDED_CONFIG_KEYS = _bounded_fields(RunConfig) + [
    (f"train_overrides.{key}", tp, f) for key, tp, f in _bounded_fields(TrainConfig)
    if key not in ("seed", "combined_metric")
]
# each model file record with the configs it stores, and an instance of it
MODEL_RECORDS = {
    Checkpoint: Checkpoint(name="m", encoder_config=EncoderConfig(), train_config=TrainConfig(),
                           best_epoch=0, history=[], params={}),
    EncoderCheckpoint: EncoderCheckpoint(encoder_config=EncoderConfig(), epoch_losses=[],
                                         params={}),
}
BOUNDED_MODEL_KEYS = [
    (cls, key, tp, f) for cls in MODEL_RECORDS for key, tp, f in _bounded_fields(cls)
]


@pytest.mark.parametrize("dotted, tp, f", BOUNDED_CONFIG_KEYS, ids=_ids(BOUNDED_CONFIG_KEYS))
def test_config_value_out_of_range_names_its_key(tmp_path, dotted, tp, f):
    value, refusal = _just_outside(tp, f)
    doc: dict = {}
    *sections, name = dotted.split(".")
    node = doc
    for section in sections:
        node = node.setdefault(section, {})
    node[name] = value
    path = tmp_path / "out-of-range.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ConfigurationError) as info:
        load_config(path)
    assert str(info.value) == f"{path}: config.{dotted}{refusal}"


@pytest.mark.parametrize(
    "cls, dotted, tp, f", BOUNDED_MODEL_KEYS,
    ids=[f"{cls.__name__}-{key}" for cls, key, *_ in BOUNDED_MODEL_KEYS],
)
def test_stored_value_out_of_range_names_file_and_key(tmp_path, cls, dotted, tp, f):
    value, refusal = _just_outside(tp, f)
    blob = json.loads(model_json(MODEL_RECORDS[cls]))
    section, name = dotted.split(".")
    blob[section][name] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(blob), encoding="utf-8")
    with pytest.raises(ConfigurationError) as info:
        load_model(path, cls)
    assert str(info.value) == f"{path}: checkpoint.{dotted}{refusal}"
