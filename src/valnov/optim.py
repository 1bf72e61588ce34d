"""Adam with decoupled weight decay, shared by the training stages.

Moment state and step counts are kept per parameter name, so a step may
update any subset of parameters (the multi-task trainer only updates the
head that was selected for the batch).

The update is elementwise, so a parameter can be updated in pieces
without changing a byte. When the process may run on more than one CPU,
each parameter of at least ``_SPLIT_MIN`` (16,384) values has the upper
half of its update done by one worker thread while the caller does the
lower half and the other parameters; numpy releases the GIL inside
these loops, so the halves run at once. The worker runs in a copy of the
caller's context, so the caller's ``np.errstate`` covers it too. Output
bytes are the same with or without the worker.
"""

from __future__ import annotations

import contextvars
import os

import numpy as np

_SPLIT_MIN = 16_384
_worker = None  # the ThreadPoolExecutor, created on first use


def _may_use_several_cpus() -> bool:
    try:
        return len(os.sched_getaffinity(0)) > 1
    except AttributeError:  # no sched_getaffinity on this platform
        return (os.cpu_count() or 1) > 1


def _submit(fn, *args):
    global _worker
    if _worker is None:
        # imported here: imported with this module, ahead of valnov.prompting's
        # own import of it, it raised prompt-replay's peak RSS by about 0.2 MB
        from concurrent.futures import ThreadPoolExecutor

        _worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="valnov-adamw")
    return _worker.submit(contextvars.copy_context().run, fn, *args)


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

        Large parameters are split with the worker thread (see the module
        docstring); an error the worker hit is re-raised here.
        """
        split = _may_use_several_cpus()
        pending = []
        try:
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
                arrays = (p, g, self._m[name], self._v[name], *self._scratch[name])
                # reshape(-1) must return views: of a non-contiguous array it copies
                if split and p.size >= _SPLIT_MIN and all(x.flags.c_contiguous for x in arrays):
                    flat = [x.reshape(-1) for x in arrays]
                    half = p.size // 2
                    pending.append(_submit(self._update, *(x[half:] for x in flat), t))
                    self._update(*(x[:half] for x in flat), t)
                else:
                    self._update(*arrays, t)
        finally:
            # no worker is left writing once step returns or raises
            for future in pending:
                future.result()

    def _update(self, p, g, m, v, a, b, t: int) -> None:
        """One AdamW update of ``p`` in place, through the scratch buffers
        ``a`` and ``b``; the operations and their order are those of the
        textbook update m̂ / (√v̂ + ε), so the result does not depend on
        the buffering."""
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
