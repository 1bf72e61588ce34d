"""Adam with decoupled weight decay, shared by the training stages.

Moment state and step counts are kept per parameter name, so a step may
update any subset of parameters (the multi-task trainer only updates the
head that was selected for the batch).
"""

from __future__ import annotations

import numpy as np


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
        self._scratch: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """Update in place every parameter that has a gradient entry.

        Works through two preallocated buffers per parameter; the
        operations and their order are those of the textbook update
        m̂ / (√v̂ + ε), so the result does not depend on the buffering.
        """
        for name in sorted(grads):
            g = grads[name]
            p = params[name]
            if name not in self._m:
                self._m[name] = np.zeros_like(p)
                self._v[name] = np.zeros_like(p)
                self._t[name] = 0
                self._scratch[name] = (np.empty_like(p), np.empty_like(p))
            self._t[name] += 1
            t = self._t[name]
            m = self._m[name]
            v = self._v[name]
            a, b = self._scratch[name]
            m *= self.beta1
            m += np.multiply(g, 1.0 - self.beta1, out=a)
            v *= self.beta2
            np.multiply(g, 1.0 - self.beta2, out=a)
            v += np.multiply(a, g, out=a)
            np.divide(m, 1.0 - self.beta1**t, out=a)  # m_hat
            a *= self.learning_rate
            np.divide(v, 1.0 - self.beta2**t, out=b)  # v_hat
            np.sqrt(b, out=b)
            b += self.eps
            p -= np.divide(a, b, out=a)
            if self.weight_decay:
                p -= np.multiply(p, self.learning_rate * self.weight_decay, out=a)
