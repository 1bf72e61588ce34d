"""Adam with decoupled weight decay."""

import numpy as np
import pytest

from valnov.optim import AdamW, RowGradient


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


def textbook_update(opt, p, g, m, v, t):
    """The textbook AdamW update of ``p``, ``m`` and ``v`` in place, one
    temporary per operation."""
    m *= opt.beta1
    m += (1.0 - opt.beta1) * g
    v *= opt.beta2
    v += (1.0 - opt.beta2) * g * g
    m_hat = m / (1.0 - opt.beta1**t)
    v_hat = v / (1.0 - opt.beta2**t)
    p -= opt.learning_rate * m_hat / (np.sqrt(v_hat) + opt.eps)
    if opt.weight_decay:
        p -= opt.learning_rate * opt.weight_decay * p


class AllocatingAdamW:
    """The textbook update of every value, one temporary per operation: the
    oracle of a step whose gradients touch every row."""

    def __init__(self, learning_rate, weight_decay=0.0, beta1=0.9, beta2=0.999, eps=1e-8):
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m, self.v, self.t = {}, {}, {}

    def step(self, params, grads):
        for name in sorted(grads):
            p = params[name]
            if name not in self.m:
                self.m[name] = np.zeros_like(p)
                self.v[name] = np.zeros_like(p)
                self.t[name] = 0
            self.t[name] += 1
            self.update(name, p, grads[name])

    def update(self, name, p, g):
        textbook_update(self, p, g, self.m[name], self.v[name], self.t[name])


class RowwiseAllocatingAdamW(AllocatingAdamW):
    """The row rule, spelled out: of a table, the textbook update of the rows
    whose gradient holds a nonzero value, gathered into fresh arrays and
    written back; a vector updates whole."""

    def update(self, name, p, g):
        if p.ndim == 1:
            return super().update(name, p, g)
        rows = [i for i in range(len(p)) if np.any(g[i] != 0)]
        m, v = self.m[name], self.v[name]
        p_rows, m_rows, v_rows = p[rows], m[rows], v[rows]
        textbook_update(self, p_rows, g[rows], m_rows, v_rows, self.t[name])
        p[rows], m[rows], v[rows] = p_rows, m_rows, v_rows


SHAPES = {"embedding": (50, 8), "proj_w": (4, 8), "proj_b": (4,)}


def _params(seed):
    rng = np.random.default_rng(seed)
    return {name: rng.normal(size=shape) for name, shape in SHAPES.items()}


def _sparse_grads(rng, names=SHAPES):
    """Gradients of ``names``; the embedding's rows mostly zero, as one
    batch leaves them, and one proj_w row zero."""
    grads = {name: rng.normal(size=SHAPES[name]) for name in names}
    if "embedding" in grads:
        grads["embedding"][rng.random(50) < 0.8] = 0.0
    if "proj_w" in grads:
        grads["proj_w"][rng.integers(4)] = 0.0
    return grads


def _state(opt, name):
    return opt._m[name].tobytes(), opt._v[name].tobytes(), opt._t[name]


@pytest.mark.parametrize("weight_decay", [0.0, 0.01, 0.3])
def test_steps_bit_identical_to_allocating_update(weight_decay):
    fused = AdamW(0.05, weight_decay=weight_decay)
    oracle = RowwiseAllocatingAdamW(0.05, weight_decay=weight_decay)
    params, expected = _params(0), _params(0)
    rng = np.random.default_rng(1)
    for _ in range(25):
        grads = _sparse_grads(rng)
        fused.step(params, grads)
        oracle.step(expected, grads)
        for name in SHAPES:
            assert params[name].tobytes() == expected[name].tobytes(), name
            assert _state(fused, name) == (
                oracle.m[name].tobytes(), oracle.v[name].tobytes(), oracle.t[name]
            ), name


def test_a_non_contiguous_table_follows_the_row_rule():
    fused = AdamW(0.05, weight_decay=0.01)
    oracle = RowwiseAllocatingAdamW(0.05, weight_decay=0.01)
    params = {name: np.asfortranarray(p) for name, p in _params(8).items()}
    expected = {name: p.copy() for name, p in params.items()}
    rng = np.random.default_rng(9)
    for _ in range(5):
        grads = _sparse_grads(rng)
        fused.step(params, grads)
        oracle.step(expected, grads)
        for name in SHAPES:
            assert params[name].tobytes() == expected[name].tobytes(), name
    assert params["embedding"].flags.f_contiguous  # updated in place


@pytest.mark.parametrize("weight_decay", [0.0, 0.3])
def test_untouched_rows_keep_value_and_moments_bit_for_bit(weight_decay):
    opt = AdamW(0.05, weight_decay=weight_decay)
    params = _params(4)
    rng = np.random.default_rng(5)
    opt.step(params, {name: rng.normal(size=shape) for name, shape in SHAPES.items()})
    for _ in range(10):
        grads = _sparse_grads(rng)
        before = {name: (params[name].copy(), opt._m[name].copy(), opt._v[name].copy())
                  for name in SHAPES}
        opt.step(params, grads)
        for name in ("embedding", "proj_w"):
            untouched = ~grads[name].any(axis=1)
            assert untouched.any()
            now = (params[name], opt._m[name], opt._v[name])
            for new, old in zip(now, before[name]):
                assert new[untouched].tobytes() == old[untouched].tobytes(), name
                # and every touched row moved
                assert (new[~untouched] != old[~untouched]).any(axis=1).all(), name


@pytest.mark.parametrize("weight_decay", [0.0, 0.3])
def test_touched_rows_equal_the_allocating_update_of_those_rows(weight_decay):
    # from the state of a trained table, the touched rows alone, given to
    # the dense oracle with their own moments, come out byte for byte
    opt = AdamW(0.05, weight_decay=weight_decay)
    params = _params(6)
    rng = np.random.default_rng(7)
    for _ in range(6):
        opt.step(params, _sparse_grads(rng))
    for _ in range(6):
        grads = _sparse_grads(rng)
        rows = np.flatnonzero(grads["embedding"].any(axis=1))
        oracle = AllocatingAdamW(0.05, weight_decay=weight_decay)
        sub = {"embedding": params["embedding"][rows]}
        oracle.m["embedding"] = opt._m["embedding"][rows]
        oracle.v["embedding"] = opt._v["embedding"][rows]
        oracle.t["embedding"] = opt._t["embedding"]
        oracle.step(sub, {"embedding": grads["embedding"][rows]})
        opt.step(params, grads)
        assert params["embedding"][rows].tobytes() == sub["embedding"].tobytes()
        assert opt._m["embedding"][rows].tobytes() == oracle.m["embedding"].tobytes()
        assert opt._v["embedding"][rows].tobytes() == oracle.v["embedding"].tobytes()
        assert opt._t["embedding"] == oracle.t["embedding"]


def test_a_vector_updates_whole():
    # zero entries of a vector's gradient still decay, as dense AdamW does
    opt, oracle = AdamW(0.1, weight_decay=0.5), AllocatingAdamW(0.1, weight_decay=0.5)
    p, expected = np.array([1.0, 2.0, -3.0]), np.array([1.0, 2.0, -3.0])
    for g in (np.array([0.5, 0.0, 0.0]), np.array([0.0, 0.0, 0.0])):
        opt.step({"b": p}, {"b": g})
        oracle.step({"b": expected}, {"b": g})
        assert p.tobytes() == expected.tobytes()
    assert (p != np.array([1.0, 2.0, -3.0])).all()


def test_a_row_with_a_nan_gradient_is_touched():
    # a diverging gradient must reach the parameters, not be skipped as zero
    opt = AdamW(0.1)
    p = np.ones((3, 2))
    g = np.zeros((3, 2))
    g[1, 0] = np.nan
    with np.errstate(invalid="ignore"):
        opt.step({"w": p}, {"w": g})
    assert np.isnan(p[1, 0]) and np.isnan(opt._m["w"][1, 0])
    assert (p[[0, 2]] == 1.0).all()


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


def _compact(table, gathered=()):
    """``table``'s nonzero rows plus the ``gathered`` rows, as a RowGradient."""
    rows = np.array(sorted(set(np.flatnonzero(table.any(axis=1))) | set(gathered)), dtype=np.int64)
    return RowGradient(rows, table[rows])


@pytest.mark.parametrize("weight_decay", [0.0, 0.01, 0.3])
def test_a_compact_gradient_steps_as_the_dense_one_with_the_same_cells(weight_decay):
    dense, compact = AdamW(0.05, weight_decay=weight_decay), AdamW(0.05, weight_decay=weight_decay)
    dense_params, compact_params = _params(10), _params(10)
    rng = np.random.default_rng(11)
    for step in range(25):
        grads = _sparse_grads(rng)
        table = grads["embedding"]
        if step == 17:
            table[rng.integers(50), 3] = np.nan
        # two all-zero rows that the batch gathered: not updated either way
        zero_rows = np.flatnonzero(~table.any(axis=1))[:2]
        compact_grads = dict(grads, embedding=_compact(table, zero_rows))
        assert compact_grads["embedding"].size == (table.any(axis=1).sum() + 2) * 8
        before = [a[zero_rows].tobytes() for a in (
            compact_params["embedding"], compact._m.get("embedding", np.zeros((50, 8))),
            compact._v.get("embedding", np.zeros((50, 8))))]
        with np.errstate(invalid="ignore"):
            dense.step(dense_params, grads)
            compact.step(compact_params, compact_grads)
        after = [a[zero_rows].tobytes() for a in (
            compact_params["embedding"], compact._m["embedding"], compact._v["embedding"])]
        assert after == before
        for name in SHAPES:
            assert compact_params[name].tobytes() == dense_params[name].tobytes(), name
            assert _state(compact, name) == _state(dense, name), name
    assert np.isnan(compact_params["embedding"]).any()


def test_merged_micro_batch_gradients_equal_the_dense_sum():
    rng = np.random.default_rng(12)
    tables = [_sparse_grads(rng, ["embedding"])["embedding"] for _ in range(3)]
    total = tables[0].copy()
    total += tables[1]
    total += tables[2]
    total /= 3
    merged = _compact(tables[0])
    merged += _compact(tables[1])
    merged += _compact(tables[2])
    merged /= 3
    union = set().union(*(np.flatnonzero(t.any(axis=1)) for t in tables))
    assert merged.rows.tolist() == sorted(union)
    assert merged.values.tobytes() == total[merged.rows].tobytes()
    assert not np.delete(total, merged.rows, axis=0).any()
    assert merged.size == len(union) * 8


def test_sum_rows_adds_each_row_in_index_order():
    # repeated rows in an order whose float sums depend on it
    rng = np.random.default_rng(13)
    indices = rng.integers(0, 20, size=300)
    values = rng.normal(size=(300, 3)) * 10.0 ** rng.integers(-8, 8, size=(300, 1))
    expected = np.zeros((20, 3))
    np.add.at(expected, indices, values)
    summed = RowGradient.sum_rows(indices, values)
    assert summed.rows.tolist() == sorted(set(indices.tolist()))
    assert summed.values.tobytes() == expected[summed.rows].tobytes()
    empty = RowGradient.sum_rows(np.zeros(0, dtype=np.int64), np.zeros((0, 3)))
    assert empty.rows.shape == (0,) and empty.values.shape == (0, 3) and empty.size == 0
