"""Few-shot prompting pipeline.

Builds static few-shot prompts per task, sends them through a pluggable
completion provider behind a deterministic on-disk replay cache, and
parses raw completions back into task labels.  With a warm cache every
run is fully offline and bit-reproducible.

This module owns the prompting policy: ``PromptSettings`` (the config's
``prompting`` section) is defined and checked here, and its decoding
fields, their defaults and their ranges are those of ``PromptRequest``.
"""

from __future__ import annotations

import hashlib
import json
import os
import string
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, make_dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Mapping, Protocol, Sequence

from .corpus import (
    ArgumentInstance,
    Confidence,
    LabelValue,
    Task,
    confidence_for,
    mapped_value,
)
from .decode import check_ranges
from .errors import CacheMissError, ConfigurationError, DataError, ParseError, ProviderError
from .fsutil import atomic_write_text, parse_json, read_json
from .predictions import Prediction

_TASK_WORDS = {Task.VALIDITY: "valid", Task.NOVELTY: "novel"}

# Lower rank = lower annotation agreement = preferred as a few-shot example.
_CONFIDENCE_RANK = {
    Confidence.MAJORITY: 0,
    Confidence.CONFIDENT: 1,
    Confidence.VERY_CONFIDENT: 2,
    Confidence.DEFEASIBLE: 3,
    Confidence.UNKNOWN: 4,
}


@dataclass(frozen=True)
class PromptRequest:
    """One completion call; the decoding defaults are the upstream settings."""

    prompt: str
    model_id: str = "text-davinci-002"
    temperature: float = 0.0
    frequency_penalty: float = 0.0
    presence_penalty: float = 0.0
    max_tokens: int = field(default=4, metadata={"min": 1})

    def __post_init__(self) -> None:
        if not self.prompt:
            raise ConfigurationError("prompt must be non-empty")
        check_ranges(self)


# every field of a request but its prompt, with its upstream default
_DECODING = tuple(f for f in fields(PromptRequest) if f.name != "prompt")


def _check_settings(settings: PromptSettings) -> None:
    if settings.provider not in _PROVIDERS:
        raise ConfigurationError(
            f"provider {settings.provider!r} is unknown; registered: {', '.join(_PROVIDERS)}"
        )
    if settings.provider == HttpProvider.name and not settings.endpoint:
        raise ConfigurationError(f"endpoint is needed by {HttpProvider.name}")
    check_ranges(settings)


def _decoding(settings: PromptSettings) -> dict[str, Any]:
    """The settings' decoding fields, as ``PromptRequest`` keywords."""
    return {f.name: getattr(settings, f.name) for f in _DECODING}


# The config's ``prompting`` section: the provider and its endpoint, the
# replay cache, the decoding fields of ``PromptRequest`` and the pacing.
PromptSettings = make_dataclass(
    "PromptSettings",
    [
        ("provider", str, field(default="replay-only")),
        ("endpoint", str | None, field(default=None)),
        ("api_key_env", str, field(default="COMPLETION_API_KEY")),
        ("cache_dir", str, field(default="cache/completions")),
        *((f.name, f.type, field(default=f.default, metadata=f.metadata)) for f in _DECODING),
        ("parallelism", int, field(default=1, metadata={"min": 1})),
        ("requests_per_second", float | None, field(default=None, metadata={"gt": 0})),
    ],
    namespace={"__module__": __name__, "__post_init__": _check_settings, "decoding": _decoding},
    frozen=True,
)


@dataclass(frozen=True)
class FewShotSet:
    task: Task
    examples: tuple[ArgumentInstance, ...]

    def __post_init__(self) -> None:
        if len(self.examples) != 4:
            raise ConfigurationError(
                f"few-shot set needs exactly 4 examples, got {len(self.examples)}"
            )
        labels = {mapped_value(ex, self.task) for ex in self.examples}
        if labels != {LabelValue.POSITIVE, LabelValue.NEGATIVE}:
            raise ConfigurationError("few-shot set must represent both labels")

    @cached_property
    def prefix(self) -> str:
        """The four answered blocks every prompt of this set starts with,
        rendered once per set rather than once per target."""
        parts = []
        for example in self.examples:
            positive = mapped_value(example, self.task) is LabelValue.POSITIVE
            parts.append(_block(example, self.task) + (" yes\n\n" if positive else " no\n\n"))
        return "".join(parts)


def _rank_key(instance: ArgumentInstance, task: Task) -> tuple[int, int, str]:
    return (
        _CONFIDENCE_RANK[confidence_for(instance, task)],
        len(instance.premise) + len(instance.conclusion),
        instance.id,
    )


def select_few_shot(train: Sequence[ArgumentInstance], task: Task) -> FewShotSet:
    """Pick the 4 static examples for ``task``.

    Rank by annotation agreement ascending (majority first), then by total
    premise+conclusion length ascending, then by id. The top 4 are taken;
    if they all share one label, position 4 is swapped for the best-ranked
    instance of the missing label.
    """
    task = Task(task)
    by_label: dict[LabelValue, int] = {LabelValue.POSITIVE: 0, LabelValue.NEGATIVE: 0}
    for inst in train:
        by_label[mapped_value(inst, task)] += 1
    for label, count in by_label.items():
        if count < 2:
            raise DataError(
                f"need at least 2 {label.value} instances for task "
                f"{task.value}, found {count}"
            )

    ranked = sorted(train, key=lambda inst: _rank_key(inst, task))
    chosen = list(ranked[:4])
    present = {mapped_value(inst, task) for inst in chosen}
    for label in (LabelValue.POSITIVE, LabelValue.NEGATIVE):
        if label not in present:
            chosen[3] = next(
                inst for inst in ranked if mapped_value(inst, task) is label
            )
    return FewShotSet(task=task, examples=tuple(chosen))


def _block(instance: ArgumentInstance, task: Task) -> str:
    """The block of ``instance``, open after the task word for an answer."""
    return (
        f"topic: {instance.topic}\n"
        f"premise: {instance.premise}\n"
        f"conclusion: {instance.conclusion}\n"
        f"{_TASK_WORDS[task]}:"
    )


def build_prompt(few_shot: FewShotSet, target: ArgumentInstance, task: Task) -> str:
    """Render the static prompt: 4 answered blocks, then the open target block."""
    task = Task(task)
    if few_shot.task is not task:
        raise ConfigurationError(
            f"few-shot set is for task {few_shot.task.value}, not {task.value}"
        )
    return few_shot.prefix + _block(target, task)


def request_json(request: PromptRequest) -> str:
    """The canonical JSON text of every field of the request: its cache
    key is the sha256 of this text, and its cache record embeds it verbatim."""
    return json.dumps(vars(request), sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def cache_key(request: PromptRequest) -> str:
    """Stable content hash of everything that determines a completion."""
    return hashlib.sha256(request_json(request).encode("utf-8")).hexdigest()


class ReplayCache:
    """Directory of JSON completion records, one file per cache key.

    A record is one line of JSON with the fields ``key``, ``request`` (the
    request's ``request_json`` text, whose sha256 is the key), ``raw_text``
    and ``timestamp``. Only ``key`` and ``raw_text`` are read back, so
    records written in any other JSON layout replay too; a record whose
    ``key`` is not the one it is filed under answers another request, and
    is refused.

    Records are written atomically (temp file + rename), so concurrent
    readers only ever see complete records. The directory is created by
    the first ``put``, so a run that only misses leaves none behind.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self._prefix = os.path.join(self.directory, "")
        self._created = False

    def _path(self, key: str) -> str:
        return f"{self._prefix}{key}.json"

    def get(self, key: str) -> str | None:
        """The recorded completion, or None when ``key`` has no record. A
        record that cannot be read, or that is filed under another key, is
        an error, never a miss or a replay: either would silently answer
        the request with something other than its own completion."""
        path = self._path(key)
        try:
            record = read_json(path)
        except FileNotFoundError:
            return None
        if not isinstance(record, dict) or not isinstance(record.get("raw_text"), str):
            raise ParseError(f"{path}: cache record has no string raw_text")
        if record.get("key") != key:
            raise ParseError(f"{path}: cache record has key {record.get('key')!r}, not {key!r}")
        return record["raw_text"]

    def put(self, key: str, request_text: str, raw_text: str) -> None:
        """Record ``raw_text`` under ``key``, the sha256 of ``request_text``."""
        if not self._created:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._created = True
        raw = json.dumps(raw_text, ensure_ascii=False)
        atomic_write_text(
            self._path(key),
            f'{{"key":"{key}","request":{request_text},"raw_text":{raw},'
            f'"timestamp":{time.time()!r}}}\n',
        )

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.json"))


class CompletionProvider(Protocol):
    name: str

    def generate(self, request: PromptRequest) -> str: ...


class MockProvider:
    """Scripted provider: the same reply to every prompt."""

    name = "mock"

    def __init__(self, reply: str = "yes"):
        self.reply = reply
        self.calls = 0

    def generate(self, request: PromptRequest) -> str:
        self.calls += 1
        return self.reply


class ReplayOnlyProvider:
    """Never calls out; a cache miss is an error by construction."""

    name = "replay-only"

    def generate(self, request: PromptRequest) -> str:
        raise CacheMissError(cache_key(request))


class HttpProvider:
    """OpenAI-compatible completions endpoint."""

    name = "http-openai-compatible"

    def __init__(self, endpoint: str, api_key: str | None = None, timeout: float = 30.0):
        self.endpoint = endpoint
        self.api_key = api_key
        self.timeout = timeout

    def generate(self, request: PromptRequest) -> str:
        # imported here: only this provider talks to the network
        import http.client
        import urllib.request

        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        body = dict(vars(request))
        body["model"] = body.pop("model_id")
        post = urllib.request.Request(
            self.endpoint, data=json.dumps(body).encode("utf-8"), headers=headers
        )
        try:
            # an HTTP error status, a refused connection and a timeout are all OSErrors
            with urllib.request.urlopen(post, timeout=self.timeout) as response:
                reply = parse_json(response.read().decode("utf-8"), "completion body")
            text = reply["choices"][0]["text"]
            if not isinstance(text, str):
                raise TypeError(f"choice text is {text!r}")
        except (OSError, http.client.HTTPException, LookupError, TypeError, ValueError) as exc:
            raise ProviderError(
                f"completion call to {self.endpoint} failed ({exc}); "
                "check endpoint/API key and retry"
            ) from exc
        return text


# every provider by its configured name, built from checked settings and an API key
_PROVIDERS = {
    HttpProvider.name: lambda settings, api_key: HttpProvider(settings.endpoint, api_key),
    MockProvider.name: lambda settings, api_key: MockProvider(),
    ReplayOnlyProvider.name: lambda settings, api_key: ReplayOnlyProvider(),
}


def make_provider(settings: PromptSettings, api_key: str | None = None) -> CompletionProvider:
    """The provider ``settings`` names; building the settings checked both
    the name and, for the HTTP provider, the endpoint."""
    return _PROVIDERS[settings.provider](settings, api_key)


def complete(
    provider: CompletionProvider,
    request: PromptRequest,
    cache: ReplayCache,
    limiter: _TokenBucket | None = None,
) -> str:
    """The raw completion: from the cache when possible, else from the
    provider, paced by ``limiter``, and recorded."""
    request_text = request_json(request)
    key = hashlib.sha256(request_text.encode("utf-8")).hexdigest()
    cached = cache.get(key)
    if cached is not None:
        return cached
    if limiter is not None:
        limiter.acquire()
    raw_text = provider.generate(request)
    cache.put(key, request_text, raw_text)
    return raw_text


def parse_response(raw_text: str, task: Task) -> LabelValue | None:
    """Map a raw completion to a label; None signals a parse failure."""
    task = Task(task)
    adjective = _TASK_WORDS[task]
    tokens = [
        token.strip(string.punctuation)
        for token in raw_text.strip().lower().split()
    ]
    tokens = [token for token in tokens if token]
    if not tokens:
        return None
    head = tokens[0]
    if head == "yes" or head == adjective:
        return LabelValue.POSITIVE
    if head == "no" or head == "in" + adjective:
        return LabelValue.NEGATIVE
    if head == "not" and (len(tokens) == 1 or tokens[1] == adjective):
        return LabelValue.NEGATIVE
    return None


class _TokenBucket:
    """Blocking token-bucket limiter shared across worker threads."""

    def __init__(self, rate: float):
        if rate <= 0:
            raise ConfigurationError("requests_per_second must be positive")
        self.rate = rate
        self.capacity = max(1.0, rate)
        self.tokens = self.capacity
        self.stamp = time.monotonic()
        self.lock = threading.Lock()

    def acquire(self) -> None:
        while True:
            with self.lock:
                now = time.monotonic()
                self.tokens = min(
                    self.capacity, self.tokens + (now - self.stamp) * self.rate
                )
                self.stamp = now
                if self.tokens >= 1.0:
                    self.tokens -= 1.0
                    return
                wait = (1.0 - self.tokens) / self.rate
            time.sleep(wait)


def prompt_predict(
    targets: Sequence[ArgumentInstance],
    few_shot: FewShotSet,
    provider: CompletionProvider,
    cache: ReplayCache,
    decoding: Mapping[str, object] | None = None,
    parallelism: int = 1,
    requests_per_second: float | None = None,
) -> list[Prediction]:
    """Classify every target with one completion each.

    ``requests_per_second`` paces provider calls only; cache hits never
    wait. None leaves the calls unpaced, and a rate <= 0 is a
    ConfigurationError. Unparseable completions fall back to the negative
    label and the prediction is flagged for audit.
    """
    if parallelism < 1:
        raise ConfigurationError("parallelism must be >= 1")
    task = few_shot.task
    limiter = None if requests_per_second is None else _TokenBucket(requests_per_second)

    def classify(target: ArgumentInstance) -> Prediction:
        request = PromptRequest(
            prompt=build_prompt(few_shot, target, task), **dict(decoding or {})
        )
        value = parse_response(complete(provider, request, cache, limiter), task)
        return Prediction(
            instance_id=target.id,
            task=task,
            value=LabelValue.NEGATIVE if value is None else value,
            source="gpt3",
            flagged=value is None,
        )

    if parallelism == 1:
        return [classify(target) for target in targets]
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        return list(pool.map(classify, targets))
