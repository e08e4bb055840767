"""Autodiff ops that only the test references build graphs from.

The per-head attention of tests/test_attention.py, the per-step LSTM of
tests/test_lstm_sequence.py, the last-row slice of
tests/reference_encoders.py and the summed losses of the differential tests
compose these with the ops of relprobe.autodiff, which carries only what
the encoders run. Each one is gradchecked in tests/test_autodiff.py.
"""

import numpy as np

from relprobe.autodiff import Tensor, current_dtype, dropout_mask, mul


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
