"""Adam with decoupled weight decay."""

import warnings

import numpy as np
import pytest

from valnov import optim
from valnov.optim import AdamW


def test_first_step_matches_hand_computation():
    opt = AdamW(learning_rate=0.1)
    p = np.array([1.0])
    g = np.array([2.0])
    opt.step({"w": p}, {"w": g})
    # bias-corrected first step moves by lr * g/(|g| + eps)
    expected = 1.0 - 0.1 * 2.0 / (2.0 + 1e-8)
    np.testing.assert_allclose(p[0], expected, rtol=1e-12)


def test_two_steps_against_reference_formula():
    lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
    opt = AdamW(lr, beta1=b1, beta2=b2, eps=eps)
    p = np.array([0.3, -0.7])
    grads = [np.array([0.1, -0.2]), np.array([-0.4, 0.5])]

    ref = p.copy()
    m = np.zeros_like(ref)
    v = np.zeros_like(ref)
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        ref -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)

    for g in grads:
        opt.step({"w": p}, {"w": g})
    np.testing.assert_allclose(p, ref, rtol=1e-12)


def test_weight_decay_is_decoupled():
    # with zero gradient, decay still shrinks the parameter multiplicatively
    opt = AdamW(learning_rate=0.1, weight_decay=0.5)
    p = np.array([2.0])
    opt.step({"w": p}, {"w": np.array([0.0])})
    assert p[0] == 2.0 * (1 - 0.1 * 0.5)


def test_only_parameters_with_gradients_move():
    opt = AdamW(learning_rate=0.1, weight_decay=0.01)
    params = {"a": np.array([1.0]), "b": np.array([1.0])}
    opt.step(params, {"a": np.array([1.0])})
    assert params["a"][0] != 1.0
    assert params["b"][0] == 1.0


def test_per_parameter_step_counts():
    # "b" joining later must get fresh bias correction, not "a"'s count
    opt = AdamW(learning_rate=0.1)
    params = {"a": np.array([0.0]), "b": np.array([0.0])}
    for _ in range(3):
        opt.step(params, {"a": np.array([1.0])})
    opt.step(params, {"b": np.array([1.0])})
    fresh = AdamW(learning_rate=0.1)
    q = {"b": np.array([0.0])}
    fresh.step(q, {"b": np.array([1.0])})
    assert params["b"][0] == q["b"][0]


def test_updates_in_place():
    opt = AdamW(learning_rate=0.1)
    p = np.array([1.0])
    params = {"w": p}
    opt.step(params, {"w": np.array([1.0])})
    assert params["w"] is p


class AllocatingAdamW:
    """The textbook update, one temporary per operation: the oracle the
    in-place step must reproduce bit for bit."""

    def __init__(self, learning_rate, weight_decay=0.0, beta1=0.9, beta2=0.999, eps=1e-8):
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m, self.v, self.t = {}, {}, {}

    def step(self, params, grads):
        for name in sorted(grads):
            g = grads[name]
            p = params[name]
            if name not in self.m:
                self.m[name] = np.zeros_like(p)
                self.v[name] = np.zeros_like(p)
                self.t[name] = 0
            self.t[name] += 1
            t = self.t[name]
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / (1.0 - self.beta1**t)
            v_hat = v / (1.0 - self.beta2**t)
            p -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)
            if self.weight_decay:
                p -= self.learning_rate * self.weight_decay * p


SHAPES = {"embedding": (50, 8), "proj_w": (4, 8), "proj_b": (4,)}


def _params(seed):
    rng = np.random.default_rng(seed)
    return {name: rng.normal(size=shape) for name, shape in SHAPES.items()}


@pytest.mark.parametrize("weight_decay", [0.0, 0.01, 0.3])
def test_steps_bit_identical_to_allocating_update(weight_decay):
    fused, oracle = AdamW(0.05, weight_decay=weight_decay), AllocatingAdamW(
        0.05, weight_decay=weight_decay
    )
    params, expected = _params(0), _params(0)
    rng = np.random.default_rng(1)
    for _ in range(25):
        grads = {name: rng.normal(size=shape) for name, shape in SHAPES.items()}
        # mostly-zero rows, as the embedding gradient of one batch is
        grads["embedding"][rng.random(50) < 0.8] = 0.0
        fused.step(params, grads)
        oracle.step(expected, grads)
        for name in SHAPES:
            assert np.array_equal(params[name], expected[name]), name


def test_subset_steps_bit_identical_and_absent_names_untouched():
    fused, oracle = AdamW(0.1, weight_decay=0.05), AllocatingAdamW(0.1, weight_decay=0.05)
    params, expected = _params(2), _params(2)
    rng = np.random.default_rng(3)
    subsets = [("embedding", "proj_b"), ("proj_w",), ("embedding", "proj_w", "proj_b"),
               ("proj_b",), ("embedding",), ("proj_w", "proj_b")]
    for subset in subsets * 3:
        grads = {name: rng.normal(size=SHAPES[name]) for name in subset}
        before = {name: p.copy() for name, p in params.items()}
        fused.step(params, grads)
        oracle.step(expected, grads)
        for name in SHAPES:
            assert np.array_equal(params[name], expected[name]), name
            if name not in subset:
                assert np.array_equal(params[name], before[name]), name
    # per-name step counts: each advanced only on the steps that named it
    assert fused._t == oracle.t == {"embedding": 9, "proj_w": 9, "proj_b": 12}


# the default encoder's embedding: at least optim._SPLIT_MIN values, so
# its update is split with the worker thread when several CPUs may run
SPLIT_SHAPES = {"embedding": (2048, 32), "proj_w": (32, 32), "proj_b": (32,)}


@pytest.fixture
def submitted(monkeypatch):
    """Forces the split path and counts the halves handed to the worker."""
    calls = []
    real_submit = optim._submit

    def counting_submit(*args):
        calls.append(args[1].shape)
        return real_submit(*args)

    monkeypatch.setattr(optim, "_may_use_several_cpus", lambda: True)
    monkeypatch.setattr(optim, "_submit", counting_submit)
    return calls


def _split_run(optimizer):
    """Steps on subsets of names with mostly-zero embedding rows; returns
    the parameters after each step."""
    rng = np.random.default_rng(5)
    params = {name: rng.normal(size=shape) for name, shape in SPLIT_SHAPES.items()}
    subsets = [("embedding", "proj_w", "proj_b"), ("embedding",), ("proj_w",),
               ("embedding", "proj_b")]
    trajectory = []
    for subset in subsets * 3:
        grads = {name: rng.normal(size=SPLIT_SHAPES[name]) for name in subset}
        if "embedding" in grads:
            grads["embedding"][rng.random(2048) < 0.9] = 0.0
        optimizer.step(params, grads)
        trajectory.append({name: p.tobytes() for name, p in params.items()})
    return trajectory


@pytest.mark.parametrize("weight_decay", [0.0, 0.01, 0.3])
def test_split_steps_byte_equal_to_allocating_and_serial_updates(
    weight_decay, submitted, monkeypatch
):
    split = AdamW(0.05, weight_decay=weight_decay)
    split_run = _split_run(split)
    assert submitted == [(2048 * 32 // 2,)] * 9  # the upper half, on every embedding step

    oracle = AllocatingAdamW(0.05, weight_decay=weight_decay)
    assert _split_run(oracle) == split_run

    monkeypatch.setattr(optim, "_may_use_several_cpus", lambda: False)
    serial = AdamW(0.05, weight_decay=weight_decay)
    assert _split_run(serial) == split_run
    assert len(submitted) == 9  # the serial run submitted nothing

    assert split._t == serial._t == oracle.t == {"embedding": 9, "proj_w": 6, "proj_b": 6}


def test_a_non_contiguous_parameter_is_updated_serially(submitted):
    rng = np.random.default_rng(6)
    params = {"w": np.asfortranarray(rng.normal(size=(2048, 32)))}
    expected = {"w": params["w"].copy()}
    opt, oracle = AdamW(0.05, weight_decay=0.01), AllocatingAdamW(0.05, weight_decay=0.01)
    for _ in range(3):
        grads = {"w": rng.normal(size=(2048, 32))}
        opt.step(params, grads)
        oracle.step(expected, grads)
    assert submitted == []
    assert params["w"].tobytes() == expected["w"].tobytes()


def test_worker_half_runs_under_the_callers_errstate(submitted):
    opt = AdamW(1e300)
    p = np.ones(2 * optim._SPLIT_MIN)
    g = np.zeros_like(p)
    g[optim._SPLIT_MIN:] = 1e300  # g*g overflows, in the worker's half only
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            opt.step({"w": p}, {"w": g})
    assert submitted == [(optim._SPLIT_MIN,)]
    assert np.all(p[: optim._SPLIT_MIN] == 1.0)
    assert not np.isfinite(p[optim._SPLIT_MIN :]).any()


def test_an_error_in_the_worker_half_is_raised_by_step(submitted):
    opt = AdamW(0.1)
    p = np.ones(2 * optim._SPLIT_MIN)
    g = np.zeros_like(p)
    g[-1] = 1e300
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            opt.step({"w": p}, {"w": g})


def test_the_cpu_decision_reads_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(optim.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert optim._may_use_several_cpus() is False
    monkeypatch.setattr(optim.os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    assert optim._may_use_several_cpus() is True
    monkeypatch.delattr(optim.os, "sched_getaffinity")
    monkeypatch.setattr(optim.os, "cpu_count", lambda: 1)
    assert optim._may_use_several_cpus() is False
    monkeypatch.setattr(optim.os, "cpu_count", lambda: None)
    assert optim._may_use_several_cpus() is False
    monkeypatch.setattr(optim.os, "cpu_count", lambda: 4)
    assert optim._may_use_several_cpus() is True
