"""One atomic writer, one reader, one decoder, one JSON parser, one CSV
framing, one model-file format, one range check and one binary-label
form: no module but fsutil.py creates, writes or opens a file, parses
JSON, builds a CSV writer, encodes parameters as base64, or spells out a
model file's ``format``/``version`` header; only ``fsutil.open_text``
catches a ``UnicodeDecodeError``; no config check spells out a range by
hand; no module but corpus.py reads a raw label field; and no module but
predictions.py and prompting.py builds a ``Prediction``.

Every artifact then gets the same write-then-rename and the same mode,
every CSV file the same quoting and CRLF line ends, every input the
same UTF-8 decoding and the same error for a file that cannot be
decoded, every JSON text the same refusal of an escape that no UTF-8
text can hold, every model file the same header checks and the same
parameter records, and every setting's range is declared once, on its
field, where ``decode.check_ranges`` reads it. Every binary label is
``corpus.positive``'s bool array on the way in and
``predictions.labelled``'s records on the way out.
"""

import ast
from pathlib import Path

import pytest

import valnov

SRC = Path(valnov.__file__).parent
WRITE_MODE_LETTERS = set("wax+")
FILE_WRITERS = {"write_text", "write_bytes", "tofile"}  # methods, whatever the object
NUMPY_WRITERS = {"save", "savez", "savez_compressed", "savetxt"}  # np.<name>
FILE_READERS = {"open", "read_text", "read_bytes"}  # Path.open, io.open, os.open, ...
NUMPY_READERS = {"load", "loadtxt", "genfromtxt", "fromfile"}  # np.<name>
JSON_PARSERS = {"load", "loads"}  # json.<name>: fsutil.parse_json is the one caller
CSV_WRITERS = {"writer", "DictWriter"}  # csv.<name>: fsutil.write_csv is the one caller
DECODE_ERRORS = {"UnicodeDecodeError", "UnicodeError"}  # caught by fsutil.open_text alone
HEADER_KEYS = {"format", "version"}  # a model file's header, written and checked by fsutil
CONFIG_CHECKS = {"__post_init__", "_check_settings"}  # the functions that check a config
RANGE_WORDS = ("must be >", "must be null or")  # a bound spelled out in a message
RAW_LABEL_FIELDS = {"validity_raw", "novelty_raw"}  # read by corpus.py alone
PREDICTION_BUILDERS = {"predictions.py", "prompting.py"}  # labelled, the loader, the parser


def _mode(call: ast.Call, position: int) -> ast.expr | None:
    if len(call.args) > position:
        return call.args[position]
    return next((k.value for k in call.keywords if k.arg == "mode"), None)


def _writes(tree: ast.AST) -> list[str]:
    """``line: what`` for each file write or creation in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import | ast.ImportFrom):
            modules = [node.module] if isinstance(node, ast.ImportFrom) else [
                alias.name for alias in node.names
            ]
            if "tempfile" in modules:
                found.append(f"{node.lineno}: tempfile")
            continue
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode = _mode(node, 1)  # open(file, mode)
        elif isinstance(func, ast.Attribute) and func.attr in FILE_WRITERS:
            found.append(f"{node.lineno}: {func.attr}")
            continue
        elif (
            isinstance(func, ast.Attribute)
            and func.attr in NUMPY_WRITERS
            and isinstance(func.value, ast.Name)
            and func.value.id in ("np", "numpy")
        ):
            found.append(f"{node.lineno}: {func.value.id}.{func.attr}")
            continue
        elif isinstance(func, ast.Attribute) and func.attr == "open":
            if isinstance(func.value, ast.Name) and func.value.id == "os":
                found.append(f"{node.lineno}: os.open")
                continue
            mode = _mode(node, 0)  # path.open(mode)
        else:
            continue
        # a mode the source does not spell out counts as a write
        if mode is not None and not (
            isinstance(mode, ast.Constant) and not WRITE_MODE_LETTERS & set(str(mode.value))
        ):
            found.append(f"{node.lineno}: open({ast.unparse(mode)})")
    return found


def _reads(tree: ast.AST) -> list[str]:
    """``line: what`` for each file opened or read in ``tree``. A stream that
    is not a file, such as an HTTP response, is not opened by these calls."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            found.append(f"{node.lineno}: open")
        elif isinstance(func, ast.Attribute) and func.attr in FILE_READERS:
            found.append(f"{node.lineno}: {func.attr}")
        elif (
            isinstance(func, ast.Attribute)
            and func.attr in NUMPY_READERS
            and isinstance(func.value, ast.Name)
            and func.value.id in ("np", "numpy")
        ):
            found.append(f"{node.lineno}: {func.value.id}.{func.attr}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_fsutil_writes_files(path):
    writes = _writes(ast.parse(path.read_text(encoding="utf-8")))
    if path.name == "fsutil.py":
        assert writes, "the checker no longer sees the atomic writer"
    else:
        assert writes == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_fsutil_opens_files(path):
    reads = _reads(ast.parse(path.read_text(encoding="utf-8")))
    if path.name == "fsutil.py":
        assert reads, "the checker no longer sees the reader"
    else:
        assert reads == []


@pytest.mark.parametrize(
    "source",
    ["open(p)", 'open(p, "rb")', 'p.open(encoding="utf-8")', "io.open(p)", "os.open(p, flags)",
     "p.read_text()", "p.read_bytes()", "np.load(p)", "numpy.loadtxt(p)", "np.fromfile(p)"],
)
def test_checker_sees_each_kind_of_read(source):
    assert _reads(ast.parse(source))


@pytest.mark.parametrize(
    "source", ["json.load(response)", "read_json(p)", "open_text(p)", "urlopen(request)",
               "np.frombuffer(b)", "fh.read()"]
)
def test_checker_passes_reads_through_the_reader(source):
    assert _reads(ast.parse(source)) == []


def _json_parses(tree: ast.AST) -> list[str]:
    """``line: what`` for each call of, or import from ``json`` of, a JSON parser in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            found += [f"{node.lineno}: {a.name}" for a in node.names if a.name in JSON_PARSERS]
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in JSON_PARSERS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "json"
        ):
            found.append(f"{node.lineno}: json.{node.func.attr}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_fsutil_parses_json(path):
    parses = _json_parses(ast.parse(path.read_text(encoding="utf-8")))
    if path.name == "fsutil.py":
        assert parses, "the checker no longer sees the parser"
    else:
        assert parses == []


@pytest.mark.parametrize(
    "source", ["json.load(fh)", "json.loads(text)", "from json import loads",
               "from json import dumps, load"]
)
def test_checker_sees_each_kind_of_json_parse(source):
    assert _json_parses(ast.parse(source))


@pytest.mark.parametrize(
    "source", ["json.dumps(value)", "parse_json(text, where)", "read_json(p)", "read_jsonl(p)",
               "pickle.loads(b)", "from json import dumps"]
)
def test_checker_passes_json_writes_and_the_parser(source):
    assert _json_parses(ast.parse(source)) == []


def _csv_writers(tree: ast.AST) -> list[str]:
    """``line: what`` for each call of, or import from ``csv`` of, a CSV writer in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "csv":
            found += [f"{node.lineno}: {a.name}" for a in node.names if a.name in CSV_WRITERS]
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in CSV_WRITERS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "csv"
        ):
            found.append(f"{node.lineno}: csv.{node.func.attr}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_fsutil_writes_csv(path):
    writers = _csv_writers(ast.parse(path.read_text(encoding="utf-8")))
    if path.name == "fsutil.py":
        assert writers, "the checker no longer sees the CSV writer"
    else:
        assert writers == []


@pytest.mark.parametrize(
    "source", ["csv.writer(buffer)", "csv.DictWriter(buffer, fields)", "from csv import writer"]
)
def test_checker_sees_each_kind_of_csv_writer(source):
    assert _csv_writers(ast.parse(source))


@pytest.mark.parametrize(
    "source", ["csv.reader(fh)", "csv.DictReader(fh)", "write_csv(p, header, rows)",
               "from csv import reader", "writer.writerow(row)"]
)
def test_checker_passes_csv_readers_and_the_writer(source):
    assert _csv_writers(ast.parse(source)) == []


def _decode_handlers(tree: ast.AST) -> list[str]:
    """The innermost function around each handler in ``tree`` that catches a
    decode error, ``<module>`` when there is none."""
    functions = [
        node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef)
    ]
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler) or node.type is None:
            continue
        if not DECODE_ERRORS & {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}:
            continue
        around = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
        found.append(max(around, key=lambda f: f.lineno).name if around else "<module>")
    return found


def test_only_open_text_catches_decode_errors():
    found = [
        f"{path.name}: {where}"
        for path in sorted(SRC.glob("*.py"))
        for where in _decode_handlers(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == ["fsutil.py: open_text"]


@pytest.mark.parametrize(
    "source, found",
    [("try:\n    f()\nexcept UnicodeDecodeError:\n    pass", ["<module>"]),
     ("def g():\n    try:\n        f()\n    except (OSError, UnicodeError) as e:\n        raise",
      ["g"]),
     ("def g():\n    def h():\n        try:\n            f()\n"
      "        except UnicodeDecodeError:\n            pass", ["h"])],
    ids=["module", "tuple", "nested-function"],
)
def test_checker_sees_each_decode_handler(source, found):
    assert _decode_handlers(ast.parse(source)) == found


@pytest.mark.parametrize(
    "source", ["try:\n    f()\nexcept UnicodeEncodeError:\n    pass",
               "try:\n    f()\nexcept ValueError:\n    pass",
               "try:\n    f()\nexcept:\n    pass"]
)
def test_checker_passes_other_handlers(source):
    assert _decode_handlers(ast.parse(source)) == []


def _imports(tree: ast.AST) -> set[str]:
    """Top-level names of the modules ``tree`` imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_fsutil_imports_base64(path):
    imported = "base64" in _imports(ast.parse(path.read_text(encoding="utf-8")))
    assert imported == (path.name == "fsutil.py")


@pytest.mark.parametrize(
    "source",
    ['open(p, "w")', 'open(p, mode="a")', "open(p, m)", 'p.open("wb")', "p.write_text(t)",
     "p.write_bytes(b)", "os.open(p, flags)", "import tempfile", "from tempfile import mkstemp",
     "np.save(p, a)", "np.savez(p, a=a)", "numpy.savez_compressed(p, a=a)", "np.savetxt(p, a)",
     "a.tofile(p)"],
)
def test_checker_sees_each_kind_of_write(source):
    assert _writes(ast.parse(source))


@pytest.mark.parametrize(
    "source", ["open(p)", 'open(p, "rb")', 'p.open(encoding="utf-8")', "np.load(p)", "cache.save()"]
)
def test_checker_passes_reads(source):
    assert _writes(ast.parse(source)) == []


@pytest.mark.parametrize(
    "source", ["import base64", "import base64 as b", "from base64 import b64encode"]
)
def test_checker_sees_each_kind_of_base64_import(source):
    assert "base64" in _imports(ast.parse(source))


def _header_keys(tree: ast.AST) -> list[str]:
    """``line: key`` for each string constant in ``tree`` that names a header key."""
    return [
        f"{node.lineno}: {node.value}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in HEADER_KEYS
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_fsutil_spells_the_model_header(path):
    keys = _header_keys(ast.parse(path.read_text(encoding="utf-8")))
    if path.name == "fsutil.py":
        assert keys, "the checker no longer sees the header"
    else:
        assert keys == []


@pytest.mark.parametrize(
    "source", ['{"format": f}', 'blob.get("version")', 'x = "format"', 'f(key="version")']
)
def test_checker_sees_each_header_key(source):
    assert _header_keys(ast.parse(source))


def _hand_ranges(tree: ast.AST) -> list[str]:
    """``line: text`` for each string constant in a config check in ``tree``
    that spells out a range."""
    return [
        f"{node.lineno}: {node.value}"
        for check in ast.walk(tree)
        if isinstance(check, ast.FunctionDef) and check.name in CONFIG_CHECKS
        for node in ast.walk(check)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and any(words in node.value for words in RANGE_WORDS)
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_config_check_spells_a_range(path):
    assert _hand_ranges(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize(
    "source",
    ['def __post_init__(self):\n    raise E("n must be >= 1")',
     'def _check_settings(s):\n    raise E(f"{s.x} must be null or > 0")',
     'class C:\n    def __post_init__(self):\n        if x:\n            raise E(f"{n} must be > 0")'],
)
def test_checker_sees_each_hand_range(source):
    assert _hand_ranges(ast.parse(source))


def test_checker_passes_ranges_outside_config_checks():
    assert _hand_ranges(ast.parse('def svm_train(C):\n    raise E("steps must be >= 1")')) == []


def _raw_label_reads(tree: ast.AST) -> list[str]:
    """``line: field`` for each raw label field ``tree`` names, as an
    attribute or as a string such as ``getattr`` takes; passing one as a
    keyword argument builds an instance and is not a read."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant):
            name = node.value
        else:
            continue
        if name in RAW_LABEL_FIELDS:
            found.append(f"{node.lineno}: {name}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_corpus_reads_raw_labels(path):
    reads = _raw_label_reads(ast.parse(path.read_text(encoding="utf-8")))
    if path.name == "corpus.py":
        assert reads, "the checker no longer sees the label mapping"
    else:
        assert reads == []  # synthetic.py draws raw labels as keywords, which read none


@pytest.mark.parametrize(
    "source", ["inst.validity_raw", 'getattr(inst, "novelty_raw")', 'rec["validity_raw"]',
               "[i.novelty_raw for i in instances]"]
)
def test_checker_sees_each_raw_label_read(source):
    assert _raw_label_reads(ast.parse(source))


@pytest.mark.parametrize(
    "source", ["ArgumentInstance(validity_raw=1, novelty_raw=-1)", "positive(instances, task)",
               "mapped_value(inst, task)", 'getattr(inst, field)', "inst.validity_confidence"]
)
def test_checker_passes_what_reads_no_raw_label(source):
    assert _raw_label_reads(ast.parse(source)) == []


def _prediction_builds(tree: ast.AST) -> list[str]:
    """``line`` for each call of ``Prediction`` in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Name) and func.id == "Prediction") or (
            isinstance(func, ast.Attribute) and func.attr == "Prediction"
        ):
            found.append(str(node.lineno))
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_predictions_and_prompting_build_predictions(path):
    builds = _prediction_builds(ast.parse(path.read_text(encoding="utf-8")))
    if path.name in PREDICTION_BUILDERS:
        assert builds, "the checker no longer sees the record builders"
    else:
        assert builds == []


@pytest.mark.parametrize(
    "source", ['Prediction("i", task, value, "m")', "predictions.Prediction(**fields)",
               "[Prediction(i, t, v, s) for i, t, v, s in rows]"]
)
def test_checker_sees_each_prediction_build(source):
    assert _prediction_builds(ast.parse(source))


@pytest.mark.parametrize(
    "source", ['labelled(instances, task, positive, "m")', "x: list[Prediction] = []",
               "isinstance(p, Prediction)", "decode(Prediction, record)"]
)
def test_checker_passes_what_builds_no_prediction(source):
    assert _prediction_builds(ast.parse(source)) == []
