"""Reference encoder: tokenization, forward/backward, token-id memo."""

import sys
import unicodedata

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from valnov import encoder as encoder_mod
from valnov.encoder import (
    EncoderConfig,
    ReferenceEncoder,
    _hash_token,
    tokenize,
)
from valnov.errors import ConfigurationError


class TestTokenize:
    def test_lowercase_split_strip(self):
        assert tokenize("The cat, the hat!") == ["the", "cat", "the", "hat"]

    def test_inner_punctuation_kept(self):
        assert tokenize("don't co-op") == ["don't", "co-op"]

    def test_pure_punctuation_dropped(self):
        assert tokenize("... -- !!") == []

    def test_empty(self):
        assert tokenize("") == []


def test_alphanumeric_code_points_are_never_punctuation():
    # the fact tokenize's fast path rests on, over every code point
    clashes = [
        hex(cp)
        for cp in range(sys.maxunicode + 1)
        if chr(cp).isalnum() and unicodedata.category(chr(cp)).startswith("P")
    ]
    assert clashes == []


def scan_tokenize(text):
    """tokenize as a category scan of both ends of every token."""
    tokens = []
    for raw in text.lower().split():
        start, end = 0, len(raw)
        while start < end and unicodedata.category(raw[start]).startswith("P"):
            start += 1
        while end > start and unicodedata.category(raw[end - 1]).startswith("P"):
            end -= 1
        if end > start:
            tokens.append(raw[start:end])
    return tokens


# punctuation (ASCII and not), symbols, marks, digits, cased letters that
# change under lower(), and whitespace
_PUNCTUATION_HEAVY = st.text(
    alphabet=st.one_of(
        st.sampled_from(
            list(".,;:!?'\"()[]{}-_/\\@#%&*«»¿¡—–…、。「」‘’“”·$+<=>^`|~²½")
            + ["\u0301", "\u0308"]  # combining marks: neither punctuation nor alphanumeric
            + list("aZ9ßİΣσK٣")
            + [" ", "\t", "\n", "\u00a0", "\u2003", "\u3000"]
        ),
        st.characters(),
    ),
    max_size=60,
)


@given(_PUNCTUATION_HEAVY)
def test_tokenize_matches_category_scan(text):
    assert tokenize(text) == scan_tokenize(text)


def small_encoder(seed=0):
    return ReferenceEncoder(
        EncoderConfig(vocab_buckets=64, embed_dim=6, projection_dim=4, seed=seed)
    )


class TestReferenceEncoder:
    def test_deterministic_per_seed(self):
        a = small_encoder(seed=3).encode(["some text", "more text"])
        b = small_encoder(seed=3).encode(["some text", "more text"])
        assert np.array_equal(a, b)

    def test_seed_changes_weights(self):
        a = small_encoder(seed=0).encode(["some text"])
        b = small_encoder(seed=1).encode(["some text"])
        assert not np.allclose(a, b)

    def test_output_shape_and_range(self):
        out = small_encoder().encode(["a b c", "d"])
        assert out.shape == (2, 4)
        assert np.all(np.abs(out) <= 1.0)  # tanh

    def test_empty_text_pools_to_bias_only(self):
        enc = small_encoder()
        out = enc.encode(["..."])  # tokenizes to nothing
        assert np.allclose(out[0], np.tanh(enc.proj_b))

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            EncoderConfig(vocab_buckets=0)


def test_backward_matches_finite_differences():
    enc = small_encoder(seed=7)
    texts = ["alpha beta gamma", "beta beta", "..."]
    target = np.random.default_rng(0).normal(size=(3, 4))

    def loss_value():
        return 0.5 * float(((enc.forward(texts).outputs - target) ** 2).sum())

    cache = enc.forward(texts)
    grads = enc.backward(cache, cache.outputs - target)

    eps = 1e-6
    for name, param in enc.parameters().items():
        flat = param.ravel()
        idx = np.random.default_rng(1).choice(flat.size, size=min(12, flat.size), replace=False)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + eps
            up = loss_value()
            flat[i] = orig - eps
            down = loss_value()
            flat[i] = orig
            fd = (up - down) / (2 * eps)
            an = grads[name].ravel()[i]
            assert an == pytest.approx(fd, rel=1e-5, abs=1e-8), name


def loop_forward(enc, texts):
    """The per-row pooling loop the vectorised forward must reproduce bit
    for bit: (token ids per text, pooled, outputs)."""
    buckets = enc.config.vocab_buckets
    ids = [[_hash_token(tok, buckets) for tok in tokenize(t)] for t in texts]
    pooled = np.zeros((len(texts), enc.config.embed_dim))
    for i, row in enumerate(ids):
        if row:
            pooled[i] = enc.embedding[row].mean(axis=0)
    outputs = np.tanh(pooled @ enc.proj_w.T + enc.proj_b)
    return ids, pooled, outputs


def loop_backward(enc, ids, pooled, outputs, d_outputs):
    """The per-token accumulation loop the vectorised backward must
    reproduce bit for bit."""
    d_pre = d_outputs * (1.0 - outputs**2)
    grads = {
        "proj_w": d_pre.T @ pooled,
        "proj_b": d_pre.sum(axis=0),
        "embedding": np.zeros_like(enc.embedding),
    }
    d_pooled = d_pre @ enc.proj_w
    for i, row in enumerate(ids):
        if row:
            contrib = d_pooled[i] / len(row)
            for bucket in row:
                grads["embedding"][bucket] += contrib
    return grads


def _word_salad(seed, n, max_len):
    rng = np.random.default_rng(seed)
    words = [f"w{k}" for k in range(40)] + ["...", "Don't!", "co-op,"]
    return [
        " ".join(rng.choice(words, size=rng.integers(0, max_len + 1)))
        for _ in range(n)
    ]


ORACLE_BATCHES = {
    "empty text": ["alpha beta", "...", ""],
    "bucket repeated within a text": ["beta beta gamma beta", "delta"],
    "text repeated within a batch": ["x y z", "a b", "x y z", "a b"],
    "batch of one": ["only one text here"],
    "only empty texts": ["", "!!"],
    "ragged word salad": _word_salad(0, 40, 60),
}


class TestMatchesPerRowLoops:
    @pytest.mark.parametrize("batch", list(ORACLE_BATCHES), ids=list(ORACLE_BATCHES))
    @pytest.mark.parametrize(
        "config",
        [
            EncoderConfig(vocab_buckets=64, embed_dim=6, projection_dim=4, seed=1),
            # 8 buckets: most tokens of a text share a bucket with another
            EncoderConfig(vocab_buckets=8, embed_dim=3, projection_dim=5, seed=2),
            EncoderConfig(seed=3),
        ],
        ids=["small", "colliding", "default"],
    )
    def test_forward_and_backward_bit_identical(self, batch, config):
        texts = ORACLE_BATCHES[batch]
        enc = ReferenceEncoder(config)
        # move the parameters off their initial values
        rng = np.random.default_rng(4)
        for param in enc.parameters().values():
            param += rng.normal(0.0, 0.3, param.shape)

        ids, pooled, outputs = loop_forward(enc, texts)
        cache = enc.forward(texts)
        assert np.array_equal(cache.token_ids, [b for row in ids for b in row])
        assert np.array_equal(cache.lengths, [len(row) for row in ids])
        assert np.array_equal(cache.pooled, pooled)
        assert np.array_equal(cache.outputs, outputs)

        d_outputs = rng.normal(size=outputs.shape)
        expected = loop_backward(enc, ids, pooled, outputs, d_outputs)
        grads = enc.backward(cache, d_outputs)
        assert grads.keys() == expected.keys()
        for name in expected:
            assert grads[name].shape == expected[name].shape
            assert np.array_equal(grads[name], expected[name]), name

    def test_many_rows_and_long_texts(self):
        enc = ReferenceEncoder(EncoderConfig(vocab_buckets=128, embed_dim=16, seed=5))
        texts = _word_salad(1, 300, 250)
        ids, pooled, outputs = loop_forward(enc, texts)
        cache = enc.forward(texts)
        assert np.array_equal(cache.pooled, pooled)
        assert np.array_equal(cache.outputs, outputs)
        d_outputs = np.random.default_rng(2).normal(size=outputs.shape)
        expected = loop_backward(enc, ids, pooled, outputs, d_outputs)
        assert np.array_equal(enc.backward(cache, d_outputs)["embedding"], expected["embedding"])


class TestTokenIdMemo:
    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []

        def counting_tokenize(text):
            calls.append(text)
            return tokenize(text)

        monkeypatch.setattr(encoder_mod, "tokenize", counting_tokenize)
        return calls

    def test_each_distinct_text_is_tokenized_once(self, counted):
        enc = small_encoder()
        enc.forward(["a b", "c d", "a b"])
        enc.forward(["c d", "e f"])
        enc.encode(["a b", "e f"])
        assert sorted(counted) == ["a b", "c d", "e f"]

    def test_memo_is_per_encoder(self, counted):
        small_encoder().encode(["a b"])
        small_encoder().encode(["a b"])
        assert counted == ["a b", "a b"]

    def test_new_parameters_keep_the_ids(self, counted):
        enc = small_encoder(seed=0)
        enc.encode(["alpha beta", "gamma"])
        other = small_encoder(seed=9)
        for name, value in other.parameters().items():
            enc.parameters()[name][...] = value  # copied in, as MtlModel.restore does
        assert np.array_equal(
            enc.encode(["alpha beta", "gamma"]), other.encode(["alpha beta", "gamma"])
        )
        assert counted.count("alpha beta") == 2  # once per encoder

