"""Adam with decoupled weight decay, shared by the training stages.

Moment state and step counts are kept per name, one for each array the
trainers pass: a group whose parameters always step together, the
embedding table or an affine layer's weight and bias as one flat buffer.
A step may update any subset (the multi-task trainer only updates the
head that was selected for the batch).

An array with two or more axes is a table of rows (of the trainers'
groups, the embedding alone), and a step updates only the rows whose
gradient holds a nonzero value: their value, both moments and the
decoupled decay go through the textbook update, and every other row
keeps its value and moments bit for bit. This is the row-sparse ("lazy")
Adam that embedding tables are trained with, as in TensorFlow Addons'
``LazyAdam`` and PyTorch's ``SparseAdam``, on top of AdamW's decoupled
decay (Loshchilov & Hutter, ICLR 2019). Dense AdamW would also decay
every row a batch did not gather and move it by its stale momentum; here
a batch that gathers 41 of the embedding's 2,048 rows updates those 41
alone. The step count stays per array, so a row's bias correction counts
the steps of its table, not the steps that touched the row. A flat
buffer updates whole, so its decay and momentum apply on every step that
names it, zero gradient or not.

A table's gradient arrives either dense, an array of the table's shape,
or compact, a ``RowGradient`` of the rows a batch gathered and their
values, as TensorFlow's ``IndexedSlices`` and the gradient of PyTorch's
``nn.Embedding(sparse=True)`` carry it. The trainers pass compact ones,
so no step allocates or scans a whole table; both forms go through the
same update, of the rows that hold a nonzero value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RowGradient:
    """The gradient of a two-axis table as the rows it touches: ``rows``
    are sorted distinct row indices and ``values[i]`` is the gradient of
    row ``rows[i]``; every other row's gradient is zero.

    ``+`` merges two gradients of one table and ``/`` divides the values,
    each cell as the dense arrays' ``+`` and ``/`` compute it: a cell that
    one side lacks is that side's +0.0, and a sum started from +0.0 is
    never -0.0, so adding it first changes no bit.
    """

    rows: np.ndarray
    values: np.ndarray

    @classmethod
    def sum_rows(cls, indices: np.ndarray, values: np.ndarray) -> "RowGradient":
        """The gradient that adds ``values[k]`` into row ``indices[k]``, for
        ``k`` in order, each row from +0.0: cell for cell what ``np.add.at``
        into a zero table adds."""
        present = np.zeros(int(indices.max(initial=-1)) + 1, dtype=bool)
        present[indices] = True
        rows = present.nonzero()[0]
        slot = np.empty(len(present), dtype=np.int64)
        slot[rows] = np.arange(len(rows))
        width = values.shape[1]
        # ufunc.at adds in index order; on the flat array it takes numpy's
        # fast one-dimensional path
        cells = (slot[indices][:, None] * width + np.arange(width)).ravel()
        summed = np.zeros(len(rows) * width)
        np.add.at(summed, cells, values.ravel())
        return cls(rows, summed.reshape(len(rows), width))

    @property
    def size(self) -> int:
        """Number of values held, as a dense array's ``size`` counts them."""
        return self.values.size

    def __add__(self, other: "RowGradient") -> "RowGradient":
        return RowGradient.sum_rows(
            np.concatenate((self.rows, other.rows)),
            np.concatenate((self.values, other.values)),
        )

    def __truediv__(self, divisor: float) -> "RowGradient":
        return RowGradient(self.rows, self.values / divisor)


def _touched_rows(g: np.ndarray) -> np.ndarray:
    """Indices of the rows of ``g`` that hold a nonzero (or NaN) value:
    ``any`` counts NaN as true and ±0.0 as false."""
    return g.reshape(len(g), -1).any(axis=1).nonzero()[0]


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

    def step(
        self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray | RowGradient]
    ) -> None:
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
            rows = None  # every row of p, in order
            if isinstance(g, RowGradient):
                rows, g = g.rows, g.values
            if p.ndim > 1:
                touched = _touched_rows(g)
                if len(touched) < len(g):
                    rows = touched if rows is None else rows[touched]
                    g = g[touched]
            if rows is None or len(rows) == len(p):
                self._update(p, g, m, v, t)
            else:
                # indexing by rows copies, so the updated rows are written back
                p_rows, m_rows, v_rows = p[rows], m[rows], v[rows]
                self._update(p_rows, g, m_rows, v_rows, t)
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
