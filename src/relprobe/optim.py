"""Optimizers (SGD, Adagrad, Adadelta, Adam) and learning-rate schedules."""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass

import numpy as np


class Optimizer:
    """Updates a dict of name -> Tensor parameters in place.

    l2_groups is a list of (name-pattern, coefficient) pairs; matching
    parameters get coeff * p added to their gradient before the update.

    A parameter with a row-sparse gradient (Tensor.row_grad) steps only
    those rows when the optimizer defines _update_rows and no l2 group
    matches it. SGD and Adagrad do: with a zero gradient their update
    leaves a row's parameter and state bytes as they were, so stepping the
    gradient's rows alone gives the dense step's bytes. Adam and Adadelta
    decay their state on zero rows, so they step the gradient made dense.
    """

    _update_rows = None  # (name, p, rows, g): the update of rows `rows` of p

    def __init__(self, lr, l2_groups=None):
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.lr = float(lr)
        self.l2_groups = list(l2_groups or [])
        self.state = {}

    def _effective_grad(self, name, p):
        g = p.grad
        if g is None:
            g = np.zeros_like(p.data)
        for pattern, coeff in self.l2_groups:
            if fnmatch.fnmatch(name, pattern):
                g = g + coeff * p.data
        return g

    def step(self, params):
        for name, p in params.items():
            if p.grad_rows is not None and self._update_rows is not None \
                    and not any(fnmatch.fnmatch(name, pattern) for pattern, _ in self.l2_groups):
                self._update_rows(name, p, *p.row_grad())
            else:
                self._update(name, p, self._effective_grad(name, p))

    def _update(self, name, p, g):
        raise NotImplementedError


class SGD(Optimizer):
    def _update(self, name, p, g):
        p.data -= self.lr * g

    def _update_rows(self, name, p, rows, g):
        p.data[rows] -= self.lr * g


class Adagrad(Optimizer):
    eps = 1e-8

    def _accumulator(self, name, p):
        acc = self.state.get(name)
        if acc is None:
            acc = self.state[name] = np.zeros_like(p.data)
        return acc

    def _update(self, name, p, g):
        acc = self._accumulator(name, p)
        acc += g * g
        p.data -= self.lr * g / np.sqrt(acc + self.eps)

    def _update_rows(self, name, p, rows, g):
        acc = self._accumulator(name, p)
        a = acc[rows] + g * g
        acc[rows] = a
        p.data[rows] -= self.lr * g / np.sqrt(a + self.eps)


class Adadelta(Optimizer):
    rho = 0.95
    eps = 1e-8

    def _update(self, name, p, g):
        st = self.state.get(name)
        if st is None:
            st = self.state[name] = {"g2": np.zeros_like(p.data), "dx2": np.zeros_like(p.data)}
        g2, dx2 = st["g2"], st["dx2"]
        g2 *= self.rho
        g2 += (1 - self.rho) * g * g
        dx = -np.sqrt(dx2 + self.eps) / np.sqrt(g2 + self.eps) * g
        dx2 *= self.rho
        dx2 += (1 - self.rho) * dx * dx
        p.data += self.lr * dx


def adam_step(p, g, m, v, u, s, lr, t):
    """Step the array p by Adam in place, given its gradient g, its moments
    m and v (updated in place), scratch arrays u and s of p's shape, a
    Python float lr and the 1-based step count t. Allocates no array when
    all six arrays have p's dtype. Each in-place operation rounds as its
    term of the textbook update does."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    m *= b1                                   # m = b1 * m + (1 - b1) * g
    m += np.multiply(g, 1 - b1, out=u)
    v *= b2                                   # v = b2 * v + (1 - b2) * g * g
    np.multiply(g, 1 - b2, out=u)
    v += np.multiply(u, g, out=u)
    np.divide(m, 1 - b1 ** t, out=u)          # u = lr * m_hat
    u *= lr
    np.divide(v, 1 - b2 ** t, out=s)          # s = sqrt(v_hat) + eps
    np.sqrt(s, out=s)
    s += eps
    u /= s
    p -= u


class Adam(Optimizer):
    """adam_step on each parameter, with its moments and two scratch buffers
    allocated on the parameter's first step: a step allocates no array when
    the parameter has a dense gradient of its own dtype and no l2 group
    matches it."""

    def __init__(self, lr, l2_groups=None):
        super().__init__(lr, l2_groups)
        self.t = 0
        self._scratch = {}

    def step(self, params):
        self.t += 1
        super().step(params)

    def _update(self, name, p, g):
        st = self.state.get(name)
        if st is None:
            st = self.state[name] = {"m": np.zeros_like(p.data), "v": np.zeros_like(p.data)}
            self._scratch[name] = (np.empty_like(p.data), np.empty_like(p.data))
        adam_step(p.data, g, st["m"], st["v"], *self._scratch[name], self.lr, self.t)


_OPTIMIZERS = {"sgd": SGD, "adagrad": Adagrad, "adadelta": Adadelta, "adam": Adam}


def make_optimizer(kind, lr, l2_groups=None):
    try:
        cls = _OPTIMIZERS[kind]
    except KeyError:
        raise ValueError("unknown optimizer kind: %s" % kind)
    return cls(lr, l2_groups=l2_groups)


@dataclass(frozen=True)
class Plateau:
    """Decay lr by `factor` after `patience` epochs without an improvement
    of more than `min_delta` over the best validation score so far."""

    factor: float = 0.9
    patience: int = 2
    min_delta: float = 1e-4


@dataclass(frozen=True)
class EpochDecay:
    """Decay lr by `factor` every epoch from `start_epoch` (1-based) on."""

    factor: float = 0.9
    start_epoch: int = 15


class Scheduler:
    """Stateful schedule driver; lr never increases."""

    def __init__(self, policy, lr0):
        self.policy = policy
        self.lr = float(lr0)
        self._best = -np.inf
        self._stale = 0

    def start_epoch(self, epoch):
        """Called at the start of each 1-based epoch; returns the lr to use."""
        if isinstance(self.policy, EpochDecay) and epoch >= self.policy.start_epoch:
            self.lr *= self.policy.factor
        return self.lr

    def end_epoch(self, val_metric):
        """Called after validation; returns the (possibly decayed) lr."""
        if isinstance(self.policy, Plateau):
            if val_metric > self._best + self.policy.min_delta:
                self._best = val_metric
                self._stale = 0
            else:
                self._stale += 1
                if self._stale >= self.policy.patience:
                    self.lr *= self.policy.factor
                    self._stale = 0
        return self.lr
