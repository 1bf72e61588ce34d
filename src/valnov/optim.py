"""Adam with decoupled weight decay, shared by the training stages.

Moment state and step counts are kept per parameter name, so a step may
update any subset of parameters (the multi-task trainer only updates the
head that was selected for the batch).

A parameter with two or more axes is a table of rows, and a step updates
only the rows whose gradient holds a nonzero value: their value, both
moments and the decoupled decay go through the textbook update, and every
other row keeps its value and moments bit for bit. This is the row-sparse
("lazy") Adam that embedding tables are trained with, as in TensorFlow
Addons' ``LazyAdam`` and PyTorch's ``SparseAdam``, on top of AdamW's
decoupled decay (Loshchilov & Hutter, ICLR 2019). Dense AdamW would also
decay every row a batch did not gather and move it by its stale
momentum; here a batch that gathers 41 of the embedding's 2,048 rows
updates those 41 alone. The step count stays per parameter, so a row's
bias correction counts the steps of its table, not the steps that
touched the row. A vector updates whole, so its decay applies on every
step that names it, zero gradient or not.
"""

from __future__ import annotations

import numpy as np


def _touched_rows(g: np.ndarray) -> np.ndarray:
    """Indices of the rows of ``g`` that hold a nonzero (or NaN) value.

    A row's sum of absolute values is zero only when every term is: adding
    a non-negative float never rounds a sum below it.
    """
    table = g.reshape(len(g), -1)
    return np.flatnonzero(np.abs(table) @ np.ones(table.shape[1]))


class AdamW:
    def __init__(
        self,
        learning_rate: float,
        weight_decay: float = 0.0,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._t: dict[str, int] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """Update in place every parameter that has a gradient entry: a
        vector whole, a table only in the rows its gradient touches."""
        for name in sorted(grads):
            g = grads[name]
            p = params[name]
            if name not in self._m:
                self._m[name] = np.zeros_like(p)
                self._v[name] = np.zeros_like(p)
                self._t[name] = 0
            self._t[name] += 1
            m, v, t = self._m[name], self._v[name], self._t[name]
            rows = _touched_rows(g) if p.ndim > 1 else None
            if rows is None or len(rows) == len(p):
                self._update(p, g, m, v, t)
            else:
                # indexing by rows copies, so the updated rows are written back
                p_rows, m_rows, v_rows = p[rows], m[rows], v[rows]
                self._update(p_rows, g[rows], m_rows, v_rows, t)
                p[rows], m[rows], v[rows] = p_rows, m_rows, v_rows

    def _update(self, p, g, m, v, t: int) -> None:
        """The textbook AdamW update of ``p``, ``m`` and ``v`` in place:
        m̂ / (√v̂ + ε), then the decoupled decay."""
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * g * g
        m_hat = m / (1.0 - self.beta1**t)
        v_hat = v / (1.0 - self.beta2**t)
        p -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)
        if self.weight_decay:
            p -= self.learning_rate * self.weight_decay * p
