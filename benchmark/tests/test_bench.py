"""Tests of the benchmark's own code: generator, spans, wrappers, names.

    python3 -m pytest benchmark/tests
"""

import importlib
import json
import pkgutil
import re
from pathlib import Path

import pytest

import gen
import layers
import run
from spans import Span, Tracer, self_times, traceable

import valnov

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _modules():
    return [
        importlib.import_module(f"valnov.{m.name}") for m in pkgutil.iter_modules(valnov.__path__)
    ]


def test_generator_is_deterministic_per_seed():
    sizes = {"train": 30, "test": 20}
    assert gen.generate(7, sizes) == gen.generate(7, sizes)
    assert gen.generate(7, sizes) != gen.generate(8, sizes)


def test_generator_labels_and_lengths():
    records = gen.generate(3, {"train": 40})["train"]
    for task in ("validity_raw", "novelty_raw"):
        labels = [r[task] for r in records]
        assert labels.count(1) >= 2 and labels.count(-1) >= 2
    for field, mean in (("premise", gen.PREMISE_TOKENS), ("conclusion", gen.CONCLUSION_TOKENS)):
        spread = round(mean * gen.LENGTH_JITTER)
        for r in records:
            assert mean - spread <= len(r[field].split()) <= mean + spread


def test_text_stats_counts_forms_and_stems():
    records = [{"premise": "Walk walked", "conclusion": "walking talk"}]
    stats = gen.text_stats(records, stem=lambda w: w[:4])
    assert stats == {"instances": 1, "tokens": 4, "distinct_forms": 4, "distinct_stems": 2}


def test_self_time_of_nested_spans():
    spans = [
        Span("root", 0.0, 10.0, -1, 1, 0.0),
        Span("a", 1.0, 4.0, 0, 1, 0.0),
        Span("b", 5.0, 9.0, 0, 1, 0.0),
        Span("c", 6.0, 7.0, 2, 1, 0.0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("root", 0.0, 10.0, -1, 1, 0.0),
        Span("a", 1.0, 5.0, 0, 1, 0.0),
        Span("b", 3.0, 7.0, 0, 1, 0.0),
        Span("c", 3.5, 4.0, 0, 1, 0.0),
        Span("d", 9.0, 12.0, 0, 1, 0.0),  # clipped to the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_wrappers_restore_the_original_functions():
    modules = _modules()
    before = [(owner, attr, original) for owner, attr, original, _ in traceable(modules)]
    tracer = Tracer()
    assert tracer.install(modules) == len(before)
    import valnov.baseline
    import valnov.encoder

    # one wrapper per function, at every module attribute it is reachable by
    assert valnov.baseline.tokenize is valnov.encoder.tokenize
    assert all(getattr(owner, attr) is not original for owner, attr, original in before)
    tracer.uninstall()
    assert all(getattr(owner, attr) is original for owner, attr, original in before)


def test_sites_cover_directly_imported_names():
    names = {
        (getattr(owner, "__name__", ""), attr) for owner, attr, _, _ in traceable(_modules())
    }
    for site in [
        ("valnov.baseline", "tokenize"),
        ("valnov.baseline", "stem"),
        ("valnov.cli", "contrastive_train"),
        ("valnov.mtl", "combined_score"),
        ("valnov.mtl", "atomic_write_text"),
        ("valnov.prompting", "atomic_write_text"),
        ("ReferenceEncoder", "forward"),
        ("AdamW", "step"),
        ("ReplayCache", "get"),
    ]:
        assert site in names


def test_traced_calls_nest_and_feed_layer_metrics():
    modules = _modules()
    tracer = Tracer(layers.VALUE_HOOKS, layers.DISTINCT_HOOKS)
    tracer.iteration = 4
    tracer.install(modules)
    try:
        import valnov.baseline

        with tracer.span("bench.fit"):
            valnov.baseline.tfidf_fit(["Walking walkers walked", "walked home"])
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    names = [s.name for s in spans]
    assert names[:3] == ["bench.fit", "baseline.tfidf_fit", "encoder.tokenize"]
    fit = names.index("baseline.tfidf_fit")
    assert all(spans[i].parent == fit for i, n in enumerate(names) if n == "stemming.stem")
    metrics = layers.iteration_metrics(spans, self_times(spans), 4, tracer.distinct)
    assert metrics["encoder.tokens"] == 5
    assert metrics["stemming.stem_calls"] == 5
    assert metrics["stemming.distinct_ratio"] == pytest.approx(4 / 5)
    assert metrics["baseline.vocab"] == 3  # walk, walker, home
    assert metrics["optim.step_s"] == 0.0
    assert set(metrics) == set(layers.metric_names())


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads(BENCHMARK_JSON.read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert list(per_layer) == run.per_layer_names()
    assert all(unit == run.unit_of(name) for name, unit in per_layer.items())
    names = [m["name"] for m in spec["end_to_end"]] + list(per_layer) + [
        w["name"] for w in spec["workloads"]
    ]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
