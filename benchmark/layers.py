"""Per-layer metrics of one traced iteration, computed from its spans.

Span names are ``<module>.<function>`` or ``<module>.<Class>.<method>``;
the module is the layer. Times are self times unless a metric says
otherwise, so the ``<layer>.self_s`` totals add up to the traced chain.
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Any

from spans import Span

LAYERS = (
    "baseline",
    "cli",
    "config",
    "contrastive",
    "corpus",
    "encoder",
    "evaluation",
    "fsutil",
    "mtl",
    "optim",
    "predictions",
    "prompting",
    "stemming",
)


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return kwargs[name] if name in kwargs else args[index] if len(args) > index else None


# Numbers recorded on a span when its call returns. Methods see ``self``
# as args[0].
VALUE_HOOKS = {
    "encoder.tokenize": lambda a, k, r: len(r),
    "encoder.ReferenceEncoder.forward": lambda a, k, r: len(_arg(a, k, 1, "texts")),
    "optim.AdamW.step": lambda a, k, r: sum(g.size for g in _arg(a, k, 2, "grads").values()),
    "contrastive.contrastive_train": lambda a, k, r: len(_arg(a, k, 1, "triplets")),
    "baseline.tfidf_fit": lambda a, k, r: len(r.vocabulary),
    # svm_train runs 50 steps per example unless told otherwise
    "baseline.svm_train": lambda a, k, r: _arg(a, k, 4, "steps") or 50 * len(_arg(a, k, 0, "X")),
    "prompting.build_prompt": lambda a, k, r: len(r.encode("utf-8")),
    "prompting.ReplayCache.get": lambda a, k, r: r is not None,
    "prompting.prompt_predict": lambda a, k, r: sum(1 for p in r if p.flagged),
    "fsutil.atomic_write_text": lambda a, k, r: len(_arg(a, k, 1, "text").encode("utf-8")),
    "fsutil.sha256_file": lambda a, k, r: os.path.getsize(_arg(a, k, 0, "path")),
}

# Keys whose distinct count over an iteration measures repeated work.
DISTINCT_HOOKS = {
    "encoder.ReferenceEncoder.forward": lambda a, k: _arg(a, k, 1, "texts"),
    "stemming.stem": lambda a, k: (_arg(a, k, 0, "token"),),
}

SELF, CALLS, TOTAL, MAX = "self", "calls", "total", "max"

# metric -> (what to sum over the spans, span names)
SPAN_METRICS: dict[str, tuple[str, tuple[str, ...]]] = {
    "encoder.tokenize_s": (SELF, ("encoder.tokenize",)),
    "encoder.tokenize_calls": (CALLS, ("encoder.tokenize",)),
    "encoder.tokens": (TOTAL, ("encoder.tokenize",)),
    "encoder.token_ids_s": (SELF, ("encoder.ReferenceEncoder.token_ids",)),
    "encoder.forward_s": (SELF, ("encoder.ReferenceEncoder.forward",)),
    "encoder.forward_texts": (TOTAL, ("encoder.ReferenceEncoder.forward",)),
    "encoder.backward_s": (SELF, ("encoder.ReferenceEncoder.backward",)),
    "optim.step_s": (SELF, ("optim.AdamW.step",)),
    "optim.step_calls": (CALLS, ("optim.AdamW.step",)),
    "optim.elements_updated": (TOTAL, ("optim.AdamW.step",)),
    "mtl.train_s": (SELF, ("mtl.train",)),
    "mtl.steps": (CALLS, ("mtl.batch_loss_and_grads",)),
    "mtl.batch_grad_s": (SELF, ("mtl.batch_loss_and_grads",)),
    "mtl.checkpoint_save_s": (SELF, ("mtl.save_checkpoint", "mtl.save_encoder_checkpoint")),
    "mtl.checkpoint_load_s": (SELF, ("mtl.load_checkpoint", "mtl.load_encoder_checkpoint")),
    "contrastive.train_s": (SELF, ("contrastive.contrastive_train",)),
    "contrastive.triplets": (TOTAL, ("contrastive.contrastive_train",)),
    "contrastive.satisfaction_s": (SELF, ("contrastive.constraint_satisfaction",)),
    "baseline.tfidf_fit_s": (SELF, ("baseline.tfidf_fit",)),
    "baseline.tfidf_transform_s": (SELF, ("baseline.tfidf_transform",)),
    "baseline.tfidf_transform_calls": (CALLS, ("baseline.tfidf_transform",)),
    "baseline.svm_train_s": (SELF, ("baseline.svm_train",)),
    "baseline.svm_steps": (TOTAL, ("baseline.svm_train",)),
    "baseline.vocab": (MAX, ("baseline.tfidf_fit",)),
    "baseline.predict_s": (SELF, ("baseline.predict_corpus", "baseline.baseline_predict")),
    "stemming.stem_s": (SELF, ("stemming.stem",)),
    "stemming.stem_calls": (CALLS, ("stemming.stem",)),
    "prompting.build_prompt_s": (SELF, ("prompting.build_prompt",)),
    "prompting.cache_key_s": (SELF, ("prompting.cache_key",)),
    "prompting.cache_get_s": (SELF, ("prompting.ReplayCache.get",)),
    "prompting.cache_put_s": (SELF, ("prompting.ReplayCache.put",)),
    "prompting.hits": (TOTAL, ("prompting.ReplayCache.get",)),
    "prompting.flagged": (TOTAL, ("prompting.prompt_predict",)),
    "prompting.prompt_bytes": (TOTAL, ("prompting.build_prompt",)),
    "prompting.parse_s": (SELF, ("prompting.parse_response",)),
    "predictions.save_s": (SELF, ("predictions.save_predictions",)),
    "predictions.load_s": (SELF, ("predictions.load_predictions",)),
    "predictions.mix_s": (SELF, ("predictions.mix",)),
    "evaluation.evaluate_s": (SELF, ("evaluation.evaluate",)),
    "evaluation.combined_score_s": (SELF, ("evaluation.combined_score",)),
    "evaluation.combined_score_calls": (CALLS, ("evaluation.combined_score",)),
    "corpus.load_s": (
        SELF,
        ("corpus.load_instances_jsonl", "corpus.load_corpus", "corpus.load_triplets_jsonl"),
    ),
    "fsutil.atomic_write_s": (SELF, ("fsutil.atomic_write_text",)),
    "fsutil.atomic_writes": (CALLS, ("fsutil.atomic_write_text",)),
    "fsutil.sha256_s": (SELF, ("fsutil.sha256_file",)),
    "fsutil.sha256_bytes": (TOTAL, ("fsutil.sha256_file",)),
}

_CHECKPOINT_SAVES = ("mtl.save_checkpoint", "mtl.save_encoder_checkpoint")

# Derived from spans by ``iteration_metrics`` rather than by SPAN_METRICS.
DERIVED_METRICS = (
    "encoder.distinct_text_ratio",
    "mtl.dev_eval_s",
    "mtl.checkpoint_bytes",
    "stemming.distinct_ratio",
    "prompting.misses",
)

LAYER_TOTALS = tuple(f"{layer}.self_s" for layer in LAYERS)


def metric_names() -> list[str]:
    return list(SPAN_METRICS) + list(DERIVED_METRICS) + list(LAYER_TOTALS)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def iteration_metrics(
    spans: list[Span],
    selfs: list[float],
    iteration: int,
    distinct: dict[tuple[str, int], set],
) -> dict[str, float]:
    """Every name of ``metric_names()`` for the spans of ``iteration``."""
    self_by_name: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    largest: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    dev_eval = checkpoint_bytes = 0.0
    for i, s in enumerate(spans):
        if s.iteration != iteration:
            continue
        self_by_name[s.name] += selfs[i]
        calls[s.name] += 1
        total[s.name] += s.value
        largest[s.name] = max(largest[s.name], s.value)
        layer_self[s.name.split(".", 1)[0]] += selfs[i]
        parent = spans[s.parent].name if s.parent >= 0 else ""
        if s.name == "fsutil.atomic_write_text" and parent in _CHECKPOINT_SAVES:
            checkpoint_bytes += s.value
        elif s.name == "mtl.MtlModel.predict_both" and _has_ancestor(spans, s, "mtl.train"):
            dev_eval += s.end - s.start  # inclusive: the encoder work is the point

    kinds = {SELF: self_by_name, CALLS: calls, TOTAL: total, MAX: largest}
    out = {
        metric: float(sum(kinds[kind][name] for name in names))
        for metric, (kind, names) in SPAN_METRICS.items()
    }
    forward = "encoder.ReferenceEncoder.forward"
    out["encoder.distinct_text_ratio"] = _ratio(
        len(distinct.get((forward, iteration), ())), total[forward]
    )
    out["mtl.dev_eval_s"] = dev_eval
    out["mtl.checkpoint_bytes"] = checkpoint_bytes
    out["stemming.distinct_ratio"] = _ratio(
        len(distinct.get(("stemming.stem", iteration), ())), calls["stemming.stem"]
    )
    get = "prompting.ReplayCache.get"
    out["prompting.misses"] = calls[get] - total[get]
    for name in LAYER_TOTALS:
        out[name] = layer_self[name.split(".", 1)[0]]
    return out


def _has_ancestor(spans: list[Span], span: Span, name: str) -> bool:
    while span.parent >= 0:
        span = spans[span.parent]
        if span.name == name:
            return True
    return False
