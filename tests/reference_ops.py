"""Autodiff ops that only the test references build graphs from.

The per-head attention of tests/test_attention.py, the per-step LSTM of
tests/test_lstm_sequence.py, the last-row slice and the reshapes of
tests/reference_encoders.py and conv1d_add_at, and the summed losses of the
differential tests compose these with the ops of relprobe.autodiff, which
carries only what the encoders run. Each one is gradchecked in tests/test_autodiff.py.

gather_rows_add_at, amax_add_at and conv1d_add_at are gather_rows, amax
and conv1d with np.add.at as their scatter-add: tests/test_scatter.py
compares the gradients of the ops' own scatter kernels with theirs, byte
for byte. segment_matmul is the op of the same name as one matmul per
segment, forward and backward, the oracle of its batched blocks.
"""

import itertools

import numpy as np

from relprobe.autodiff import Tensor, concat, current_dtype, dropout_mask, linear, mul


def reshape(a, shape):
    in_shape = a.data.shape

    def back(g):
        if a.requires_grad:
            a._accum(g.reshape(in_shape))

    return Tensor(a.data.reshape(shape), parents=(a,), backward=back)


def scale(a, s):
    s = current_dtype()(s)

    def back(g):
        if a.requires_grad:
            a._accum(g * s)

    return Tensor(a.data * s, parents=(a,), backward=back)


def dropout(a, p, rng, train):
    """Inverted dropout: train-mode expectation equals the input."""
    if not train or p <= 0.0:
        return a
    return mul(a, Tensor(dropout_mask(a.data.shape, p, rng)))


def transpose(a):
    def back(g):
        if a.requires_grad:
            a._accum(g.T)

    return Tensor(a.data.T, parents=(a,), backward=back)


def slice_rows(a, start, stop):
    def back(g):
        if a.requires_grad:
            a._grad_buffer()[start:stop] += g

    return Tensor(a.data[start:stop], parents=(a,), backward=back)


def slice_cols(a, start, stop):
    def back(g):
        if a.requires_grad:
            a._grad_buffer()[..., start:stop] += g

    return Tensor(a.data[..., start:stop], parents=(a,), backward=back)


def softmax(a):
    """Row-wise softmax over the last axis."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def back(g):
        if a.requires_grad:
            dot = (g * out_data).sum(axis=-1, keepdims=True)
            a._accum(out_data * (g - dot))

    return Tensor(out_data, parents=(a,), backward=back)


def gather_rows_add_at(a, idx):
    idx = np.asarray(idx, dtype=np.int64)

    def back(g):
        if a.requires_grad:
            np.add.at(a._grad_buffer(), idx, g)

    return Tensor(a.data[idx], parents=(a,), backward=back)


def amax_add_at(a, starts):
    pairs = list(zip(starts[:-1], starts[1:]))
    out_data = np.array([a.data[lo:hi].max(axis=0) for lo, hi in pairs])

    def back(g):
        if a.requires_grad:
            rows = [lo + a.data[lo:hi].argmax(axis=0) for lo, hi in pairs]
            np.add.at(a._grad_buffer(), (np.array(rows), np.arange(g.shape[1])), g)

    return Tensor(out_data, parents=(a,), backward=back)


def conv1d_add_at(x, w, b, starts):
    """All windows as one np.add.at gather: the slots past a short
    segment's end read k - (shortest length) zero rows that all such
    windows share."""
    t, d = x.data.shape
    k = w.data.shape[0] // d
    idx, ends = [], []
    for lo, hi in zip(starts[:-1], starts[1:]):
        n_win = max(hi - lo - k + 1, 1)
        idx.append(lo + np.arange(n_win)[:, None] + np.arange(k))
        ends += [hi] * n_win
    idx = np.concatenate(idx)
    end = np.array(ends)[:, None]
    idx = np.where(idx < end, idx, t + idx - end)
    shortest = int(np.diff(starts).min())
    if shortest < k:
        x = concat([x, Tensor(np.zeros((k - shortest, d)))], axis=0)
    return linear(reshape(gather_rows_add_at(x, idx), (len(idx), k * d)), w, b)


def segment_matmul(plan, x):
    """ad.segment_matmul by one 2-D matmul per segment, in segment order,
    each segment's matrix read off the plan's blocks at its slots: a drop-in
    for it."""
    mats = [np.asarray(plan.blocks[b][j], dtype=current_dtype()) for b, j in plan.slots.T.tolist()]
    pairs = list(itertools.pairwise(np.asarray(plan.starts).tolist()))
    out_data = np.concatenate([m @ x.data[lo:hi] for m, (lo, hi) in zip(mats, pairs)])

    def back(g):
        if x.requires_grad:
            x._accum(np.concatenate([m.T @ g[lo:hi] for m, (lo, hi) in zip(mats, pairs)]))

    return Tensor(out_data, parents=(x,), backward=back)
