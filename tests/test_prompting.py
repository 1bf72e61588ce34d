"""Prompt construction, completion providers, replay cache, parsing."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import valnov
from valnov.corpus import Confidence, LabelValue, Task
from valnov.errors import (
    CacheMissError,
    ConfigurationError,
    DataError,
    ProviderError,
)
from valnov.predictions import save_predictions
from valnov.prompting import (
    FewShotSet,
    MockProvider,
    PromptRequest,
    PromptSettings,
    ReplayCache,
    ReplayOnlyProvider,
    build_prompt,
    cache_key,
    complete,
    make_provider,
    parse_response,
    prompt_predict,
    request_json,
    select_few_shot,
)

from conftest import make_instance

DATA = Path(__file__).parent / "data"


def golden_examples():
    def inst(id, topic, premise, conclusion, validity, novelty, vconf, nconf):
        return make_instance(
            id=id, topic=topic, premise=premise, conclusion=conclusion,
            validity=validity, novelty=novelty, vconf=vconf, nconf=nconf,
        )

    return (
        inst("g1", "school uniforms",
             "Uniforms erase visible class differences among pupils.",
             "Schools should adopt uniforms.",
             1, -1, Confidence.MAJORITY, Confidence.MAJORITY),
        inst("g2", "school uniforms",
             "Uniforms erase visible class differences among pupils.",
             "Pupils will stop forming friendship groups entirely.",
             -1, 1, Confidence.MAJORITY, Confidence.CONFIDENT),
        inst("g3", "speed limits",
             "Lower limits reduce the energy released in crashes.",
             "Lower speed limits make crashes more survivable.",
             1, 1, Confidence.CONFIDENT, Confidence.MAJORITY),
        inst("g4", "speed limits",
             "Lower limits reduce the energy released in crashes.",
             "Lower limits reduce crash energy.",
             0, -1, Confidence.CONFIDENT, Confidence.VERY_CONFIDENT),
    )


def golden_target():
    return make_instance(
        id="t1", topic="compulsory voting",
        premise="Mandatory turnout makes parliaments mirror the whole electorate.",
        conclusion="Compulsory voting improves representativeness.",
    )


class TestPromptRequest:
    def test_paper_defaults(self):
        req = PromptRequest(prompt="p")
        assert req.model_id == "text-davinci-002"
        assert req.temperature == 0.0
        assert req.frequency_penalty == 0.0
        assert req.presence_penalty == 0.0
        assert req.max_tokens == 4

    def test_empty_prompt_rejected(self):
        with pytest.raises(ConfigurationError):
            PromptRequest(prompt="")

    def test_max_tokens_positive(self):
        with pytest.raises(ConfigurationError):
            PromptRequest(prompt="p", max_tokens=0)


class TestFewShotSet:
    def test_needs_exactly_four(self):
        with pytest.raises(ConfigurationError, match="4"):
            FewShotSet(task=Task.VALIDITY, examples=golden_examples()[:3])

    def test_needs_both_labels(self):
        all_pos = tuple(
            make_instance(id=f"p{k}", validity=1, novelty=1) for k in range(4)
        )
        with pytest.raises(ConfigurationError, match="both labels"):
            FewShotSet(task=Task.VALIDITY, examples=all_pos)


class TestSelectFewShot:
    def ranking_fixture(self):
        # rank key = (confidence rank, premise+conclusion length, id);
        # hand ranking: f1 (0,4) < f2 (0,5) < f8 (0,20)
        #             < f3 (1,2) < f4 (1,3) < f5 (2,2) < f6 (3,2) < f7 (4,2)
        rows = [
            ("f1", "pp", "cc", 1, Confidence.MAJORITY),
            ("f2", "ppp", "cc", -1, Confidence.MAJORITY),
            ("f3", "p", "c", 1, Confidence.CONFIDENT),
            ("f4", "p", "cc", 1, Confidence.CONFIDENT),
            ("f5", "p", "c", -1, Confidence.VERY_CONFIDENT),
            ("f6", "p", "c", 1, Confidence.DEFEASIBLE),
            ("f7", "p", "c", 1, Confidence.UNKNOWN),
            ("f8", "pppppppppp", "cccccccccc", 1, Confidence.MAJORITY),
        ]
        return [
            make_instance(id=i, premise=p, conclusion=c, validity=v, vconf=conf)
            for i, p, c, v, conf in rows
        ]

    def test_hand_ranked_ids(self):
        chosen = select_few_shot(self.ranking_fixture(), Task.VALIDITY)
        assert [ex.id for ex in chosen.examples] == ["f1", "f2", "f8", "f3"]

    def test_swap_when_top_four_share_label(self):
        rows = [
            ("s1", Confidence.MAJORITY, 1),
            ("s2", Confidence.MAJORITY, 1),
            ("s3", Confidence.MAJORITY, 1),
            ("s4", Confidence.MAJORITY, 1),
            ("s5", Confidence.CONFIDENT, -1),
            ("s6", Confidence.UNKNOWN, -1),
        ]
        train = [
            make_instance(id=i, premise="p", conclusion="c", validity=v, vconf=conf)
            for i, conf, v in rows
        ]
        chosen = select_few_shot(train, Task.VALIDITY)
        assert [ex.id for ex in chosen.examples] == ["s1", "s2", "s3", "s5"]

    def test_missing_label_is_data_error(self):
        train = [
            make_instance(id=f"n{k}", validity=-1, novelty=1) for k in range(6)
        ]
        with pytest.raises(DataError, match="positive"):
            select_few_shot(train, Task.VALIDITY)

    def test_deterministic(self):
        fixture = self.ranking_fixture()
        a = select_few_shot(fixture, Task.VALIDITY)
        b = select_few_shot(list(reversed(fixture)), Task.VALIDITY)
        assert [e.id for e in a.examples] == [e.id for e in b.examples]


class TestBuildPrompt:
    @pytest.mark.parametrize(
        "task,golden",
        [
            (Task.VALIDITY, "golden_prompt_validity.txt"),
            (Task.NOVELTY, "golden_prompt_novelty.txt"),
        ],
    )
    def test_golden_files_byte_exact(self, task, golden):
        few_shot = FewShotSet(task=task, examples=golden_examples())
        text = build_prompt(few_shot, golden_target(), task)
        expected = (DATA / golden).read_bytes().decode("utf-8")
        assert text == expected

    def test_block_structure(self):
        few_shot = FewShotSet(task=Task.VALIDITY, examples=golden_examples())
        text = build_prompt(few_shot, golden_target(), Task.VALIDITY)
        assert text.endswith("valid:")
        assert text.count("valid:") == 5
        assert text.count("valid: yes") + text.count("valid: no") == 4
        assert text.count("topic: ") == 5

    def test_task_mismatch_rejected(self):
        few_shot = FewShotSet(task=Task.VALIDITY, examples=golden_examples())
        with pytest.raises(ConfigurationError, match="validity"):
            build_prompt(few_shot, golden_target(), Task.NOVELTY)

    def test_byte_identical_across_calls(self):
        few_shot = FewShotSet(task=Task.NOVELTY, examples=golden_examples())
        assert build_prompt(few_shot, golden_target(), Task.NOVELTY) == build_prompt(
            few_shot, golden_target(), Task.NOVELTY
        )


class TestCacheKey:
    def test_stable(self):
        assert cache_key(PromptRequest(prompt="p")) == cache_key(PromptRequest(prompt="p"))

    def test_sensitive_to_every_field(self):
        base = PromptRequest(prompt="p")
        variants = [
            PromptRequest(prompt="q"),
            PromptRequest(prompt="p", model_id="other-model"),
            PromptRequest(prompt="p", temperature=0.5),
            PromptRequest(prompt="p", frequency_penalty=0.1),
            PromptRequest(prompt="p", presence_penalty=0.1),
            PromptRequest(prompt="p", max_tokens=8),
        ]
        keys = {cache_key(base)} | {cache_key(v) for v in variants}
        assert len(keys) == 7

    @settings(max_examples=200)
    @given(
        st.text(min_size=1, max_size=50),
        st.floats(min_value=0, max_value=2, allow_nan=False),
        st.integers(min_value=1, max_value=64),
    )
    def test_key_shape(self, prompt, temperature, max_tokens):
        key = cache_key(
            PromptRequest(prompt=prompt, temperature=temperature, max_tokens=max_tokens)
        )
        assert len(key) == 64
        assert all(c in "0123456789abcdef" for c in key)

    # recorded before the key was hashed from the request's own fields;
    # an int temperature stays an int in the hashed JSON
    @pytest.mark.parametrize(
        "request_, key",
        [
            (PromptRequest(prompt="Prämisse — “ü” 中文", temperature=0, max_tokens=3),
             "582d08e27febfd4fddd0b92b7b57edc0ed063249d616026703d23f57e305b137"),
            (PromptRequest(prompt="p", temperature=0.5, presence_penalty=0.25),
             "da243034c573b5a6e17c9639aa76c6af3d78c9f08ae8dd3252908b1de3561fcb"),
        ],
        ids=["non-ascii", "decoding"],
    )
    def test_pinned_keys(self, request_, key):
        assert cache_key(request_) == key

    def test_no_collisions_over_fuzz_set(self):
        keys = set()
        n = 10_000
        for i in range(n):
            keys.add(cache_key(PromptRequest(prompt=f"prompt {i}", max_tokens=1 + i % 7)))
        assert len(keys) == n


class TestReplayCache:
    def test_round_trip(self, tmp_path):
        cache = ReplayCache(tmp_path / "cache")
        req = PromptRequest(prompt="p")
        key = cache_key(req)
        assert cache.get(key) is None
        cache.put(key, request_json(req), " yes")
        assert cache.get(key) == " yes"
        assert len(cache) == 1

    def test_record_fields(self, tmp_path):
        cache = ReplayCache(tmp_path)
        req = PromptRequest(prompt="p", max_tokens=2)
        key = cache_key(req)
        cache.put(key, request_json(req), "no")
        record = json.loads((tmp_path / f"{key}.json").read_text(encoding="utf-8"))
        assert record["key"] == key
        assert record["raw_text"] == "no"
        assert record["request"]["prompt"] == "p"
        assert record["request"]["max_tokens"] == 2
        assert "timestamp" in record

    def test_no_partial_files_after_put(self, tmp_path):
        cache = ReplayCache(tmp_path)
        req = PromptRequest(prompt="p")
        cache.put(cache_key(req), request_json(req), "yes")
        assert [p.suffix for p in tmp_path.iterdir()] == [".json"]

    def test_record_is_one_line_whose_request_text_hashes_to_its_name(self, tmp_path):
        cache = ReplayCache(tmp_path)
        for request in (
            PromptRequest(prompt="Prämisse — “ü” 中文\n\"quoted\"", temperature=0, max_tokens=3),
            PromptRequest(prompt="p", temperature=0.5, presence_penalty=0.25),
        ):
            complete(MockProvider("multi\nline"), request, cache)
        for path in tmp_path.iterdir():
            text = path.read_text(encoding="utf-8")
            assert text.endswith("}\n") and text.count("\n") == 1
            start = text.index('"request":') + len('"request":')
            _, end = json.JSONDecoder().raw_decode(text, start)
            assert hashlib.sha256(text[start:end].encode("utf-8")).hexdigest() == path.stem

    def test_record_removed_before_open_is_a_miss(self, tmp_path, monkeypatch):
        cache = ReplayCache(tmp_path)
        req = PromptRequest(prompt="p")
        key = cache_key(req)
        cache.put(key, request_json(req), "yes")

        def vanishing_open(path, *args, **kwargs):
            os.unlink(path)  # another process removes the record first
            return open(path, *args, **kwargs)

        monkeypatch.setattr("valnov.fsutil.open", vanishing_open, raising=False)
        assert cache.get(key) is None


class TestComplete:
    def test_miss_calls_provider_then_hit_does_not(self, tmp_path):
        cache = ReplayCache(tmp_path)
        provider = MockProvider(reply="yes")
        req = PromptRequest(prompt="p")

        assert complete(provider, req, cache) == "yes"
        assert provider.calls == 1

        assert complete(provider, req, cache) == "yes"
        assert provider.calls == 1  # served from cache

    def test_replay_only_miss_carries_key(self, tmp_path):
        cache = ReplayCache(tmp_path)
        req = PromptRequest(prompt="p")
        with pytest.raises(CacheMissError) as err:
            complete(ReplayOnlyProvider(), req, cache)
        assert err.value.key == cache_key(req)

    def test_replay_only_hit_succeeds(self, tmp_path):
        cache = ReplayCache(tmp_path)
        req = PromptRequest(prompt="p")
        cache.put(cache_key(req), request_json(req), "no")
        assert complete(ReplayOnlyProvider(), req, cache) == "no"


def _http_settings(endpoint: str) -> PromptSettings:
    return PromptSettings(provider="http-openai-compatible", endpoint=endpoint)


class TestMakeProvider:
    def test_registered_names(self):
        for name in ("mock", "replay-only"):
            assert make_provider(PromptSettings(provider=name)).name == name
        assert make_provider(_http_settings("http://x/v1")).name == "http-openai-compatible"

    def test_http_failure_has_retry_advice(self, tmp_path):
        provider = make_provider(_http_settings("http://127.0.0.1:1/v1"), api_key="k")
        provider.timeout = 0.2
        with pytest.raises(ProviderError, match="retry"):
            complete(provider, PromptRequest(prompt="p"), ReplayCache(tmp_path))


class TestHttpProvider:
    REQUEST = PromptRequest(prompt="topic: t\nvalid:", temperature=0.5, max_tokens=3)

    @pytest.mark.parametrize("api_key", ["k-123", None])
    def test_success_returns_text_and_posts_the_request(self, completion_server, api_key):
        completion_server.reply = (200, json.dumps({"choices": [{"text": " yes"}]}).encode())
        provider = make_provider(_http_settings(completion_server.endpoint), api_key)
        assert provider.generate(self.REQUEST) == " yes"
        [(headers, body)] = completion_server.seen
        assert body == {
            "model": "text-davinci-002",
            "prompt": "topic: t\nvalid:",
            "temperature": 0.5,
            "frequency_penalty": 0.0,
            "presence_penalty": 0.0,
            "max_tokens": 3,
        }
        assert headers["Content-Type"] == "application/json"
        if api_key:
            assert headers["Authorization"] == "Bearer k-123"
        else:
            assert "Authorization" not in headers

    @pytest.mark.parametrize(
        "status, payload",
        [
            (500, b'{"error": "overloaded"}'),
            (200, b"<html>not json</html>"),
            (200, b'{"choices": []}'),
            (200, b'{"object": "text_completion"}'),
            (200, b'{"choices": [{"text": 5}]}'),
            (200, b"\xff\xfe"),
        ],
        ids=["http-500", "not-json", "no-choices", "no-choices-key", "text-not-a-string",
             "not-utf8"],
    )
    def test_failure_is_one_provider_error(self, completion_server, status, payload):
        completion_server.reply = (status, payload)
        provider = make_provider(_http_settings(completion_server.endpoint))
        with pytest.raises(ProviderError, match=f"call to {completion_server.endpoint} failed"):
            provider.generate(self.REQUEST)

    def test_timeout_is_a_provider_error(self, completion_server):
        completion_server.release.clear()  # the server answers only after the test
        provider = make_provider(_http_settings(completion_server.endpoint))
        provider.timeout = 0.2
        with pytest.raises(ProviderError, match="timed out"):
            provider.generate(self.REQUEST)


def test_cli_import_leaves_requests_unloaded():
    env = {**os.environ, "PYTHONPATH": str(Path(valnov.__file__).parents[1])}
    code = "import sys, valnov.cli; print('requests' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "False"


class TestParseResponse:
    @pytest.mark.parametrize(
        "raw,task,expected",
        [
            (" Yes.", Task.VALIDITY, LabelValue.POSITIVE),
            ("no", Task.VALIDITY, LabelValue.NEGATIVE),
            ("YES", Task.NOVELTY, LabelValue.POSITIVE),
            ("  No!\n", Task.NOVELTY, LabelValue.NEGATIVE),
            ("valid", Task.VALIDITY, LabelValue.POSITIVE),
            ("invalid", Task.VALIDITY, LabelValue.NEGATIVE),
            ("novel", Task.NOVELTY, LabelValue.POSITIVE),
            ("not novel", Task.NOVELTY, LabelValue.NEGATIVE),
            ("not", Task.VALIDITY, LabelValue.NEGATIVE),
            ("not valid.", Task.VALIDITY, LabelValue.NEGATIVE),
        ],
    )
    def test_parse_table(self, raw, task, expected):
        assert parse_response(raw, task) is expected

    @pytest.mark.parametrize(
        "raw,task",
        [
            ("perhaps", Task.VALIDITY),
            ("", Task.VALIDITY),
            ("...", Task.NOVELTY),
            ("novel", Task.VALIDITY),  # wrong task adjective
            ("not sure", Task.NOVELTY),
        ],
    )
    def test_parse_failures(self, raw, task):
        assert parse_response(raw, task) is None


class TestPromptPredict:
    def targets(self, n=6):
        return [
            make_instance(id=f"t{k}", premise=f"premise {k}", conclusion=f"conclusion {k}")
            for k in range(n)
        ]

    def few_shot(self, task=Task.VALIDITY):
        return FewShotSet(task=task, examples=golden_examples())

    def test_mock_end_to_end(self, tmp_path):
        preds = prompt_predict(
            self.targets(), self.few_shot(), MockProvider("yes"), ReplayCache(tmp_path)
        )
        assert len(preds) == 6
        assert all(p.value is LabelValue.POSITIVE and not p.flagged for p in preds)
        assert {p.source for p in preds} == {"gpt3"}

    def test_unparseable_falls_back_flagged_negative(self, tmp_path):
        preds = prompt_predict(
            self.targets(2),
            self.few_shot(),
            MockProvider("hmm, unclear"),
            ReplayCache(tmp_path),
        )
        assert all(p.value is LabelValue.NEGATIVE and p.flagged for p in preds)

    def test_replay_bit_reproducible(self, tmp_path):
        targets = self.targets()
        warm = prompt_predict(
            targets, self.few_shot(), MockProvider("yes"), ReplayCache(tmp_path)
        )
        for parallelism in (1, 4):
            replayed = prompt_predict(
                targets,
                self.few_shot(),
                ReplayOnlyProvider(),
                ReplayCache(tmp_path),
                parallelism=parallelism,
            )
            assert replayed == warm

    def test_indented_records_replay_byte_identically(self, tmp_path):
        targets = self.targets(5) + [
            make_instance(id="t-u", premise="Prämisse — “ü” 中文", conclusion="\"quoted\"")
        ]
        few_shot = self.few_shot()
        replies = ["yes", "no", "Not valid.", "hmm", " Yes", "invalid\n"]
        by_prompt = {
            build_prompt(few_shot, t, Task.VALIDITY): reply for t, reply in zip(targets, replies)
        }

        class ScriptedProvider:
            name = "scripted"

            def generate(self, request):
                return by_prompt[request.prompt]

        fill = prompt_predict(targets, few_shot, ScriptedProvider(), ReplayCache(tmp_path / "new"))
        # records as written before they were one JSON line: indented, the
        # request's fields in declaration order
        old = tmp_path / "old"
        old.mkdir()
        for prompt, reply in by_prompt.items():
            request = PromptRequest(prompt=prompt)
            record = {"key": cache_key(request), "request": vars(request),
                      "raw_text": reply, "timestamp": 1700000000.5}
            (old / f"{record['key']}.json").write_text(
                json.dumps(record, ensure_ascii=False, indent=2), encoding="utf-8"
            )
        replayed = prompt_predict(targets, few_shot, ReplayOnlyProvider(), ReplayCache(old))
        save_predictions(fill, tmp_path / "fill.csv")
        save_predictions(replayed, tmp_path / "replayed.csv")
        assert (tmp_path / "replayed.csv").read_bytes() == (tmp_path / "fill.csv").read_bytes()
        assert sorted(os.listdir(old)) == sorted(os.listdir(tmp_path / "new"))

    def test_cold_replay_fails(self, tmp_path):
        with pytest.raises(CacheMissError):
            prompt_predict(
                self.targets(1),
                self.few_shot(),
                ReplayOnlyProvider(),
                ReplayCache(tmp_path),
            )

    def test_decoding_overrides_reach_cache_key(self, tmp_path):
        cache = ReplayCache(tmp_path)
        prompt_predict(
            self.targets(1), self.few_shot(), MockProvider("yes"), cache,
            decoding={"max_tokens": 2},
        )
        prompt_predict(
            self.targets(1), self.few_shot(), MockProvider("yes"), cache,
            decoding={"max_tokens": 3},
        )
        assert len(cache) == 2

    def test_parallel_runs_thread_safe(self, tmp_path):
        # one shared cache, many threads, all targets answered
        provider = MockProvider("no")
        preds = prompt_predict(
            self.targets(24),
            self.few_shot(Task.NOVELTY),
            provider,
            ReplayCache(tmp_path),
            parallelism=8,
        )
        assert len(preds) == 24
        assert {p.instance_id for p in preds} == {f"t{k}" for k in range(24)}

    def test_negative_rate_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            prompt_predict(
                self.targets(1),
                self.few_shot(),
                MockProvider(),
                ReplayCache(tmp_path),
                requests_per_second=-1.0,
            )

    def test_zero_rate_rejected(self, tmp_path):
        # 0 is a rate like any other, not a way to switch pacing off
        with pytest.raises(ConfigurationError, match="requests_per_second"):
            prompt_predict(
                self.targets(1),
                self.few_shot(),
                MockProvider(),
                ReplayCache(tmp_path),
                requests_per_second=0,
            )

    def test_no_rate_runs_unpaced(self, tmp_path, monkeypatch):
        def sleep(seconds):
            raise AssertionError(f"slept {seconds} s")

        monkeypatch.setattr("valnov.prompting.time.sleep", sleep)
        provider = MockProvider("yes")
        preds = prompt_predict(
            self.targets(), self.few_shot(), provider, ReplayCache(tmp_path),
            requests_per_second=None,
        )
        assert len(preds) == provider.calls == 6

    def test_rate_limiter_path(self, tmp_path):
        preds = prompt_predict(
            self.targets(3),
            self.few_shot(),
            MockProvider("yes"),
            ReplayCache(tmp_path),
            requests_per_second=10_000.0,
        )
        assert len(preds) == 3

    def test_rate_limit_paces_provider_calls_only(self, tmp_path, monkeypatch):
        class Slept(Exception):
            pass

        def sleep(seconds):
            raise Slept(seconds)

        monkeypatch.setattr("valnov.prompting.time.sleep", sleep)
        targets, few_shot = self.targets(), self.few_shot()
        warm = prompt_predict(targets, few_shot, MockProvider("yes"), ReplayCache(tmp_path))
        replayed = prompt_predict(
            targets, few_shot, ReplayOnlyProvider(), ReplayCache(tmp_path),
            requests_per_second=1.0,
        )
        assert replayed == warm  # six hits at one request per second, none waited
        with pytest.raises(Slept):  # the second of two misses waits for its token
            prompt_predict(
                self.targets(2), few_shot, MockProvider("yes"),
                ReplayCache(tmp_path / "cold"), requests_per_second=1.0,
            )

    def test_bad_parallelism(self, tmp_path):
        with pytest.raises(ConfigurationError):
            prompt_predict(
                self.targets(1),
                self.few_shot(),
                MockProvider(),
                ReplayCache(tmp_path),
                parallelism=0,
            )
