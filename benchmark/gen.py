"""Seeded instance generator for the svm-lexical and prompt-replay workloads.

Text is drawn from a Zipfian pseudo-word vocabulary, so the corpus has the
long lexical tail of real argument text (the bundled profile corpus has
under a thousand distinct terms). A share of tokens carries an English
inflection, so stemming folds several surface forms onto one stem. Each
(task, label) pair owns a few cue words planted in the conclusion, which
keeps the labels learnable and the scores stable from seed to seed.

Records are written in the package's canonical instance JSONL schema
without importing the package, so generation cost does not depend on the
code under test.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable

import numpy as np

CONSONANTS = "bcdfghjklmnprstvwz"
VOWELS = "aeiou"
SUFFIXES = ("s", "ed", "ing", "ly", "ness", "ment", "ful", "ation")
CONFIDENCES = ("very-confident", "confident", "majority")
# Shares of the joint classes (non-valid & non-novel, non-valid & novel,
# valid & non-novel, valid & novel); every class is populated, so both
# labels of each task occur far more than the two few-shot selection needs.
JOINT_SHARES = (0.35, 0.15, 0.30, 0.20)
VOCAB_SIZE = 20000
ZIPF_EXPONENT = 1.0
PREMISE_TOKENS = 50
CONCLUSION_TOKENS = 20
LENGTH_JITTER = 0.1  # text lengths vary uniformly by this share
SUFFIX_RATE = 0.3  # share of tokens that carry an inflection
CUE_WORDS = 4  # per (task, label)
CUE_TOKENS = 4  # planted per task in a cued conclusion
CUE_RATE = 0.85  # exact share of instances whose conclusion has cues
TOPICS = 20


_SYLLABLES = [c + v for c in CONSONANTS for v in VOWELS]
_CODAS = [""] * len(CONSONANTS) + list(CONSONANTS)  # half the words end closed


def _pseudo_words(rng: np.random.Generator, n: int, taken: set[str]) -> list[str]:
    """``n`` new words of 2-4 consonant-vowel syllables, none in ``taken``."""
    words: list[str] = []
    while len(words) < n:
        batch = n - len(words) + 16
        lengths = rng.integers(2, 5, size=batch)
        syllables = rng.integers(len(_SYLLABLES), size=(batch, 4))
        codas = rng.integers(len(_CODAS), size=batch)
        for k, row, coda in zip(lengths, syllables, codas):
            word = "".join(_SYLLABLES[s] for s in row[:k]) + _CODAS[coda]
            if word not in taken and len(words) < n:
                taken.add(word)
                words.append(word)
    return words


class Generator:
    """Vocabulary, Zipf weights and cue words for one seed."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        taken: set[str] = set()
        self.vocabulary = _pseudo_words(self.rng, VOCAB_SIZE, taken)
        weights = np.arange(1, VOCAB_SIZE + 1, dtype=float) ** -ZIPF_EXPONENT
        self.cdf = np.cumsum(weights / weights.sum())
        self.cues = {
            (task, positive): _pseudo_words(self.rng, CUE_WORDS, taken)
            for task in ("validity", "novelty")
            for positive in (False, True)
        }
        self.topic_names = [" ".join(_pseudo_words(self.rng, 2, taken)) for _ in range(TOPICS)]

    def _tokens(self, mean: int) -> list[str]:
        spread = max(1, round(mean * LENGTH_JITTER))
        n = int(self.rng.integers(mean - spread, mean + spread + 1))
        idx = np.searchsorted(self.cdf, self.rng.random(n), side="right")
        inflect = self.rng.random(n) < SUFFIX_RATE
        suffix = self.rng.integers(len(SUFFIXES), size=n)
        return [
            self.vocabulary[min(int(i), VOCAB_SIZE - 1)]
            + (SUFFIXES[int(s)] if f else "")
            for i, f, s in zip(idx, inflect, suffix)
        ]

    def _plant_cues(self, tokens: list[str], valid: bool, novel: bool) -> None:
        for task, positive in (("validity", valid), ("novelty", novel)):
            words = self.cues[(task, positive)]
            for pos in self.rng.integers(len(tokens), size=CUE_TOKENS):
                tokens[pos] = words[int(self.rng.integers(len(words)))]

    def split(self, name: str, n: int) -> list[dict]:
        """``n`` instances with the joint class shares, shuffled."""
        counts = [int(round(share * n)) for share in JOINT_SHARES]
        counts[-1] = n - sum(counts[:-1])
        labels = [(j >= 2, j % 2 == 1) for j, c in enumerate(counts) for _ in range(c)]
        order = self.rng.permutation(n)
        cued = set(self.rng.permutation(n)[: round(CUE_RATE * n)].tolist())
        records = []
        for i, j in enumerate(order):
            valid, novel = labels[int(j)]
            premise = self._tokens(PREMISE_TOKENS)
            conclusion = self._tokens(CONCLUSION_TOKENS)
            if i in cued:
                self._plant_cues(conclusion, valid, novel)
            records.append(
                {
                    "id": f"{name}-{i:05d}",
                    "topic": self.topic_names[int(self.rng.integers(TOPICS))],
                    "premise": " ".join(premise),
                    "conclusion": " ".join(conclusion),
                    "validity_raw": 1 if valid else -1,
                    "novelty_raw": 1 if novel else -1,
                    "validity_confidence": CONFIDENCES[int(self.rng.integers(3))],
                    "novelty_confidence": CONFIDENCES[int(self.rng.integers(3))],
                    "split": name,
                }
            )
        return records


def generate(seed: int, sizes: dict[str, int]) -> dict[str, list[dict]]:
    """Splits named by ``sizes`` (train, dev or test), in that order."""
    gen = Generator(seed)
    return {name: gen.split(name, n) for name, n in sizes.items()}


def write_jsonl(records: list[dict], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def text_stats(records: list[dict], stem: Callable[[str], str]) -> dict[str, int]:
    """Instances, whitespace tokens in premise and conclusion, distinct
    lowercased token forms, and distinct stems of those forms."""
    forms: set[str] = set()
    tokens = 0
    for rec in records:
        for field in ("premise", "conclusion"):
            words = rec[field].lower().split()
            tokens += len(words)
            forms.update(words)
    return {
        "instances": len(records),
        "tokens": tokens,
        "distinct_forms": len(forms),
        "distinct_stems": len({stem(form) for form in forms}),
    }
