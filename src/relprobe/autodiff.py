"""Minimal dense-tensor reverse-mode autodiff on numpy buffers.

Dynamic tape: every op returns a Tensor holding its inputs and a closure
that scatters the incoming gradient back to them. The operator set is
exactly what the sentence encoders need. float32 by default; gradient
checking switches to float64 via use_dtype(). Eval-mode forward passes run
inside no_tape(), which records no tape.
"""

from __future__ import annotations

import math
import operator
from contextlib import contextmanager

import numpy as np

_DTYPE = np.float32
_RECORD = True  # whether new tensors keep their parents and backward closure


def current_dtype():
    return _DTYPE


@contextmanager
def use_dtype(dtype):
    global _DTYPE
    old = _DTYPE
    _DTYPE = np.dtype(dtype).type
    try:
        yield
    finally:
        _DTYPE = old


@contextmanager
def no_tape():
    """Ops inside record no tape: their results keep no parents and no
    backward closure, so each intermediate array is freed as soon as nothing
    else holds it. For forward passes that never call backward."""
    global _RECORD
    old = _RECORD
    _RECORD = False
    try:
        yield
    finally:
        _RECORD = old


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(self, data, requires_grad=False, parents=(), backward=None, name=None):
        self.data = np.asarray(data, dtype=_DTYPE)
        self.grad = None
        if not _RECORD:
            parents, backward = (), None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._parents = parents
        self._backward = backward
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def _accum(self, g):
        if self.grad is None:
            # a copy: add and reshape pass one g (or a view) to several tensors
            self.grad = np.empty_like(self.data)
            self.grad[...] = g
        else:
            self.grad += g

    def _grad_buffer(self):
        """The gradient array, zero-filled on first use, for scatter-adds."""
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        return self.grad

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward requires a scalar loss, got shape %s" % (self.shape,))
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen and p.requires_grad:
                    stack.append((p, False))
        self._accum(np.ones_like(self.data))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self):
        return "Tensor(shape=%s, requires_grad=%s)" % (self.shape, self.requires_grad)


def param(data, name=None):
    return Tensor(data, requires_grad=True, name=name)


def constant(data):
    return Tensor(data)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g, shape):
    """Sum gradient g down to `shape` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, dim in enumerate(shape):
        if dim == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data + b.data

    def back(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g, b.data.shape))

    return Tensor(out_data, parents=(a, b), backward=back)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data * b.data

    def back(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g * a.data, b.data.shape))

    return Tensor(out_data, parents=(a, b), backward=back)


def scale(a, s):
    a = _as_tensor(a)
    s = _DTYPE(s)

    def back(g):
        if a.requires_grad:
            a._accum(g * s)

    return Tensor(a.data * s, parents=(a,), backward=back)


def matmul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data @ b.data

    def back(g):
        if a.requires_grad:
            a._accum(g @ b.data.T)
        if b.requires_grad:
            # one row of a: an outer product, which BLAS gemm runs several
            # times slower with its inner dimension of 1
            if a.data.ndim == 1 or a.data.shape[0] == 1:
                b._accum(np.outer(a.data, g))
            else:
                b._accum(a.data.T @ g)

    return Tensor(out_data, parents=(a, b), backward=back)


def transpose(a):
    a = _as_tensor(a)

    def back(g):
        if a.requires_grad:
            a._accum(g.T)

    return Tensor(a.data.T, parents=(a,), backward=back)


def tanh(a):
    a = _as_tensor(a)
    out_data = np.tanh(a.data)

    def back(g):
        if a.requires_grad:
            a._accum(g * (1.0 - out_data * out_data))

    return Tensor(out_data, parents=(a,), backward=back)


def relu(a):
    a = _as_tensor(a)
    mask = a.data > 0
    out_data = a.data * mask

    def back(g):
        if a.requires_grad:
            a._accum(g * mask)

    return Tensor(out_data, parents=(a,), backward=back)


def reshape(a, shape):
    a = _as_tensor(a)
    in_shape = a.data.shape

    def back(g):
        if a.requires_grad:
            a._accum(g.reshape(in_shape))

    return Tensor(a.data.reshape(shape), parents=(a,), backward=back)


def concat(tensors, axis=0):
    tensors = [_as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + sizes)

    def back(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accum(g[tuple(idx)])

    return Tensor(out_data, parents=tuple(tensors), backward=back)


def gather_rows(a, idx):
    """Index rows of a 2-D tensor with an integer array (any idx shape)."""
    a = _as_tensor(a)
    idx = np.asarray(idx, dtype=np.int64)
    out_data = a.data[idx]

    def back(g):
        if a.requires_grad:
            np.add.at(a._grad_buffer(), idx, g)

    return Tensor(out_data, parents=(a,), backward=back)


def slice_rows(a, start, stop):
    a = _as_tensor(a)

    def back(g):
        if a.requires_grad:
            a._grad_buffer()[start:stop] += g

    return Tensor(a.data[start:stop], parents=(a,), backward=back)


def slice_cols(a, start, stop):
    a = _as_tensor(a)

    def back(g):
        if a.requires_grad:
            a._grad_buffer()[..., start:stop] += g

    return Tensor(a.data[..., start:stop], parents=(a,), backward=back)


def _segments(starts, n_rows):
    """Segment starts (B+1 row bounds covering n_rows rows) as a list of ints.

    An empty segment is a ValueError: reduceat-style code would silently
    read the next segment's first row for it.
    """
    bounds = starts.tolist() if isinstance(starts, np.ndarray) else list(starts)
    if len(bounds) < 2 or bounds[0] != 0 or bounds[-1] != n_rows:
        raise ValueError("segment starts %s do not cover %d rows" % (bounds, n_rows))
    if not all(map(operator.lt, bounds, bounds[1:])):
        empty = next(i for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])) if hi <= lo)
        raise ValueError("empty segment %d in starts %s" % (empty, bounds))
    return bounds


def amax(a, axis=0, starts=None):
    """Max along an axis; gradient flows to the first argmax per slice.

    With segment starts (B+1 row bounds), the max over each segment's rows
    of a 2-D tensor: one output row per segment.
    """
    a = _as_tensor(a)
    bounds = None
    if starts is not None:
        if axis != 0:
            raise ValueError("segment max runs over axis 0")
        bounds = _segments(starts, a.data.shape[0])
    if bounds is None or len(bounds) == 2:
        out_data = a.data.max(axis=axis, keepdims=bounds is not None)

        def back(g):
            if a.requires_grad:
                arg = a.data.argmax(axis=axis)
                index = list(np.indices(arg.shape))
                index.insert(axis, arg)
                np.add.at(a._grad_buffer(), tuple(index), g.reshape(arg.shape))

        return Tensor(out_data, parents=(a,), backward=back)
    # not np.maximum.reduceat, which runs several times slower on wide rows
    out_data = np.array([a.data[lo:hi].max(axis=0) for lo, hi in zip(bounds, bounds[1:])])

    def back_segments(g):
        if a.requires_grad:
            rows = [lo + a.data[lo:hi].argmax(axis=0) for lo, hi in zip(bounds, bounds[1:])]
            np.add.at(a._grad_buffer(), (np.array(rows), np.arange(g.shape[1])), g)

    return Tensor(out_data, parents=(a,), backward=back_segments)


def sum_all(a):
    a = _as_tensor(a)

    def back(g):
        if a.requires_grad:
            a._accum(np.full_like(a.data, g))

    return Tensor(a.data.sum(), parents=(a,), backward=back)


def sum_axis(a, axis=0, starts=None):
    """Sum along an axis. With segment starts (B+1 row bounds), the sum over
    each segment's rows of a 2-D tensor, one output row per segment, each
    reduced exactly as the whole-tensor sum reduces its rows."""
    a = _as_tensor(a)
    bounds = None
    if starts is not None:
        if axis != 0:
            raise ValueError("segment sum runs over axis 0")
        bounds = _segments(starts, a.data.shape[0])
    if bounds is None or len(bounds) == 2:
        keepdims = bounds is not None

        def back(g):
            if a.requires_grad:
                g = g if keepdims else np.expand_dims(g, axis)
                a._accum(np.repeat(g, a.data.shape[axis], axis=axis))

        return Tensor(a.data.sum(axis=axis, keepdims=keepdims), parents=(a,), backward=back)
    # not np.add.reduceat, whose summation order differs from sum(axis=0)
    out_data = np.array([a.data[lo:hi].sum(axis=0) for lo, hi in zip(bounds, bounds[1:])])
    counts = np.diff(bounds)

    def back_segments(g):
        if a.requires_grad:
            a._accum(g.repeat(counts, axis=0))

    return Tensor(out_data, parents=(a,), backward=back_segments)


def softmax(a):
    """Row-wise softmax over the last axis."""
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def back(g):
        if a.requires_grad:
            dot = (g * out_data).sum(axis=-1, keepdims=True)
            a._accum(out_data * (g - dot))

    return Tensor(out_data, parents=(a,), backward=back)


def cross_entropy_logits(logits, labels):
    """Mean negative log-likelihood of integer labels under softmax(logits).

    logits: (N, C) or (C,); labels: length-N int array (scalar for (C,)).
    """
    logits = _as_tensor(logits)
    x = logits.data
    if x.ndim == 1:
        x = x[None, :]
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    n = x.shape[0]
    shifted = x - x.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logz
    loss = -logp[np.arange(n), labels].mean()
    probs = np.exp(logp)

    def back(g):
        if logits.requires_grad:
            d = probs.copy()
            d[np.arange(n), labels] -= 1.0
            d *= g / n
            logits._accum(d.reshape(logits.data.shape))

    return Tensor(loss, parents=(logits,), backward=back)


def dropout(a, p, rng, train):
    """Inverted dropout: train-mode expectation equals the input."""
    a = _as_tensor(a)
    if not train or p <= 0.0:
        return a
    keep = 1.0 - p
    mask = (rng.random(a.data.shape) < keep).astype(a.data.dtype) / _DTYPE(keep)
    return mul(a, Tensor(mask))


def linear(x, w, b=None):
    out = matmul(x, w)
    return add(out, b) if b is not None else out


def conv1d(x, w, b=None, starts=None):
    """Valid 1-d convolution over rows of x (T, d) with filters w (k*d, F).

    starts (B+1 row bounds; default: all of x) splits the rows into
    segments, and windows never cross a segment. The result holds each
    segment's max(len - k + 1, 1) window rows in segment order: a segment
    shorter than k is zero-padded on the right so that one window exists.
    """
    x = _as_tensor(x)
    t, d = x.data.shape
    k = w.data.shape[0] // d
    bounds = _segments((0, t) if starts is None else starts, t)
    if len(bounds) == 2:  # one segment: windows start at rows 0 .. max(t - k, 0)
        idx = np.arange(max(t - k + 1, 1))[:, None] + np.arange(k)
    else:
        starts = np.asarray(bounds)
        n_win = np.maximum(starts[1:] - starts[:-1] - (k - 1), 1)
        ends = n_win.cumsum()
        # window j of segment i starts at row starts[i] + j
        idx = (np.arange(ends[-1]) + (starts[:-1] - ends + n_win).repeat(n_win))[:, None] \
            + np.arange(k)
        # rows past a short segment's end read the zero rows appended below
        end = starts[1:].repeat(n_win)[:, None]
        idx = np.where(idx < end, idx, t + idx - end)
    shortest = min(map(operator.sub, bounds[1:], bounds))
    if shortest < k:
        x = concat([x, Tensor(np.zeros((k - shortest, d)))], axis=0)
    windows = reshape(gather_rows(x, idx), (len(idx), k * d))
    return linear(windows, w, b)


def segment_matmul(mats, x, starts):
    """Rows [starts[i], starts[i+1]) of x (N, d) multiplied by the constant
    square matrix mats[i], for each segment i.

    Each product is one matmul of the segment's own rows, so the result
    equals per-segment matmuls bit for bit; no block-diagonal matrix is
    formed. Gradients flow to x only.
    """
    x = _as_tensor(x)
    bounds = _segments(starts, x.data.shape[0])
    if len(mats) != len(bounds) - 1:
        raise ValueError("%d matrices for %d segments" % (len(mats), len(bounds) - 1))
    mats = [np.asarray(m, dtype=_DTYPE) for m in mats]
    if len(mats) == 1:
        out_data = mats[0] @ x.data

        def back(g):
            if x.requires_grad:
                x._accum(mats[0].T @ g)

        return Tensor(out_data, parents=(x,), backward=back)
    pairs = list(zip(bounds, bounds[1:]))
    out_data = np.concatenate([m @ x.data[lo:hi] for m, (lo, hi) in zip(mats, pairs)])

    def back_segments(g):
        if x.requires_grad:
            x._accum(np.concatenate([m.T @ g[lo:hi] for m, (lo, hi) in zip(mats, pairs)]))

    return Tensor(out_data, parents=(x,), backward=back_segments)


def lstm_sequence(x, wx, wh, b, rmask=None, reverse=False, starts=None):
    """One LSTM direction over each sentence in the rows of x (ΣT, d);
    returns H (ΣT, h) in the row order of x.

    starts (B+1 row bounds; default: all of x) splits the rows into
    sentences, each run from a zero state. Gate columns of wx (d, 4h),
    wh (h, 4h) and b (4h,) are ordered input, forget, cell, output. rmask,
    a fixed array of h values or None, multiplies h_{t-1} before it enters
    the gates (variational recurrent dropout). With reverse=True each
    sentence is read from its own last row; row t of H is always the state
    after reading row t of x.

    The input projection X·Wx + b is one matmul over all rows. Several
    sentences run as one recurrence of T_max steps, sorted by decreasing
    length, so that the ones still active at step t are the first n_t and
    their rows at that step lie next to each other in a time-major copy
    (cf. PyTorch's pack_padded_sequence): one (n_t, h)·Wh product per step.
    A lone sentence steps through the rows of x themselves.
    Backpropagation through time runs inside the backward closure, so each
    weight gradient is one matmul over all rows (Appleyard, Kočiský &
    Blunsom 2016, arXiv 1604.01946).
    """
    x, wx, wh, b = (_as_tensor(t) for t in (x, wx, wh, b))
    n_rows, h_dim = x.data.shape[0], wh.data.shape[0]
    bounds = _segments((0, n_rows) if starts is None else starts, n_rows)
    act = x.data @ wx.data + b.data  # gate pre-activations, then activations
    dtype = act.dtype
    # per step: the rows it reads (time-major for several sentences) and the
    # active part of the state
    if len(bounds) == 2:
        rows = None
        state = np.zeros(h_dim, dtype)
        steps = [(t, slice(None)) for t in (range(n_rows - 1, -1, -1) if reverse
                                            else range(n_rows))]
    else:
        bounds = np.asarray(bounds)
        lengths = np.diff(bounds)
        by_len = np.argsort(-lengths, kind="stable")
        step = np.arange(lengths[by_len[0]])[:, None]
        running = lengths[by_len] > step  # sentence j by length reads a row at step t
        rows = (bounds[by_len + 1] - 1 - step if reverse else bounds[by_len] + step)[running]
        pos = np.empty_like(rows)  # the time-major position of each row of x
        pos[rows] = np.arange(n_rows)
        act = act[rows]
        state = np.zeros((len(lengths), h_dim), dtype)
        ends = np.cumsum(running.sum(axis=1)).tolist()
        steps = [(slice(lo, hi), slice(0, hi - lo)) for lo, hi in zip([0] + ends, ends)]
    mask = None if rmask is None else np.asarray(rmask, dtype=_DTYPE).reshape(h_dim)
    act4 = act.reshape(n_rows, 4, h_dim)
    h_in = np.empty((n_rows, h_dim), dtype)    # h_{t-1} as fed to wh
    c_prev = np.empty((n_rows, h_dim), dtype)  # c_{t-1}
    tc = np.empty((n_rows, h_dim), dtype)      # tanh(c_t)
    out = np.empty((n_rows, h_dim), dtype)
    h = cell = state
    # exp(-z) may overflow on the cell-gate columns, whose sigmoid is
    # overwritten, and on saturated gates, where 1/(1+inf) = 0 is exact
    with np.errstate(over="ignore"):
        for at, live in steps:
            h, cell = h[live], cell[live]
            h_in[at] = h if mask is None else h * mask
            z = act[at]
            z += h_in[at] @ wh.data
            g = np.tanh(z[..., 2 * h_dim:3 * h_dim])
            np.divide(1.0, 1.0 + np.exp(-z), out=z)
            z[..., 2 * h_dim:3 * h_dim] = g
            i, f, g, o = act4[at].swapaxes(-2, 0)
            c_prev[at] = cell
            cell = f * cell + i * g
            np.tanh(cell, out=tc[at])
            h = np.multiply(o, tc[at], out=out[at])

    def back(g_out):
        if rows is not None:
            g_out = g_out[rows]
        i, f, g, o = act4.swapaxes(0, 1)
        # dL/dz = dc * q for the i, f and g columns and dh * q for the o column
        q = np.empty_like(act4)
        q[:, 0] = g * i * (1.0 - i)
        q[:, 1] = c_prev * f * (1.0 - f)
        q[:, 2] = i * (1.0 - g * g)
        q[:, 3] = tc * o * (1.0 - o)
        dc_dh = o * (1.0 - tc * tc)
        d_gates = np.empty_like(act)
        d_gates4 = d_gates.reshape(n_rows, 4, h_dim)
        # a sentence's state stays zero until its last step comes up
        dh_rec = np.zeros_like(state)
        dc_next = np.zeros_like(state)
        wh_t = wh.data.T
        for at, live in reversed(steps):
            dh = g_out[at] + dh_rec[live]
            dc = dh * dc_dh[at] + dc_next[live]
            np.multiply(q[at, :3], dc[..., None, :], out=d_gates4[at, :3])
            np.multiply(q[at, 3], dh, out=d_gates4[at, 3])
            np.multiply(dc, f[at], out=dc_next[live])
            np.matmul(d_gates[at], wh_t, out=dh_rec[live])
            if mask is not None:
                dh_rec[live] *= mask
        h_fed = h_in
        if rows is not None:  # back to the row order of x
            d_gates, h_fed = d_gates[pos], h_in[pos]
        if x.requires_grad:
            x._accum(d_gates @ wx.data.T)
        if wx.requires_grad:
            wx._accum(x.data.T @ d_gates)
        if wh.requires_grad:
            wh._accum(h_fed.T @ d_gates)
        if b.requires_grad:
            b._accum(d_gates.sum(axis=0))

    return Tensor(out if rows is None else out[pos], parents=(x, wx, wh, b), backward=back)


def multihead_attention(q, k, v, heads, drop=None, starts=None):
    """Scaled dot-product attention of `heads` heads over q, k, v (ΣT, H·d),
    each sentence attending to its own rows only.

    starts (B+1 row bounds; default: all rows) splits the rows into
    sentences. Head i reads columns [i·d, (i+1)·d) of each input: its
    weights are softmax(q_i k_iᵀ / √d) over the sentence's keys, multiplied
    by drop[j][i] for sentence j when a sequence of B fixed (H, T_j, T_j)
    dropout arrays is given, and its output (weights · v_i) fills the same
    columns of the (ΣT, H·d) result (Vaswani et al. 2017, arXiv 1706.03762).

    The layer is one tape node. The sentences of each length run together
    as stacked (n, H, T, d) matmuls, so nothing is padded, and the backward
    closure applies the chain rule of scale, softmax, dropout and both
    products in the order the per-head ops did: each sentence's arithmetic
    is that of the per-head ops on its own rows.
    """
    q, k, v = (_as_tensor(t) for t in (q, k, v))
    n_rows, width = q.data.shape
    d = width // heads
    s = _DTYPE(1.0 / math.sqrt(d))
    bounds = _segments((0, n_rows) if starts is None else starts, n_rows)
    # per distinct length: its sentences, their rows and the length
    groups = [((0,), slice(0, n_rows), n_rows)]
    if len(bounds) > 2:
        bounds = np.asarray(bounds)
        lengths = np.diff(bounds)
        groups = []
        for t_len in np.unique(lengths).tolist():
            sents = np.flatnonzero(lengths == t_len)
            groups.append((sents, (bounds[sents, None] + np.arange(t_len)).ravel(), t_len))

    def split(m, t_len):
        """(n·T, H·d) rows as (n, H, T, d) head blocks."""
        return m.reshape(-1, t_len, heads, d).swapaxes(1, 2)

    def merge(m):
        """(n, H, T, d) head blocks as (n·T, H·d) rows."""
        return m.swapaxes(1, 2).reshape(-1, width)

    out = np.empty_like(q.data)
    saved = []
    for sents, rows, t_len in groups:
        qh, kh, vh = (split(t.data[rows], t_len) for t in (q, k, v))
        scores = (qh @ kh.swapaxes(2, 3)) * s
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        p = e / e.sum(axis=-1, keepdims=True)
        dg = None
        if drop is not None:
            dg = np.stack([np.asarray(drop[j], dtype=_DTYPE).reshape(heads, t_len, t_len)
                           for j in sents])
        pd = p if dg is None else p * dg
        out[rows] = merge(pd @ vh)
        saved.append((qh, kh, vh, p, pd, dg))

    def back(g):
        for (_, rows, t_len), (qh, kh, vh, p, pd, dg) in zip(groups, saved):
            gh = np.ascontiguousarray(split(g[rows], t_len))
            if v.requires_grad:
                v._grad_buffer()[rows] += merge(pd.swapaxes(2, 3) @ gh)
            if q.requires_grad or k.requires_grad:
                dp = gh @ vh.swapaxes(2, 3)
                if dg is not None:
                    dp *= dg
                ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) * s
                if q.requires_grad:
                    q._grad_buffer()[rows] += merge(ds @ kh)
                if k.requires_grad:
                    k._grad_buffer()[rows] += merge((qh.swapaxes(2, 3) @ ds).swapaxes(2, 3))

    return Tensor(out, parents=(q, k, v), backward=back)


def gradcheck(fn, params, eps=1e-5):
    """Max relative error between analytic and central-difference gradients.

    fn rebuilds the scalar loss from `params` (dict name -> Tensor) on every
    call; must be deterministic. Run under use_dtype(np.float64).
    """
    for p in params.values():
        p.zero_grad()
    loss = fn()
    if not np.isfinite(loss.data).all():
        raise ValueError("non-finite loss in gradcheck")
    loss.backward()
    analytic = {k: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for k, p in params.items()}
    max_err = 0.0
    for name, p in params.items():
        flat = p.data.reshape(-1)
        ana = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lp = fn().item()
            flat[i] = orig - eps
            lm = fn().item()
            flat[i] = orig
            num = (lp - lm) / (2.0 * eps)
            if not np.isfinite(num):
                raise ValueError("non-finite numeric gradient for %s[%d]" % (name, i))
            err = abs(ana[i] - num) / max(1.0, abs(ana[i]), abs(num))
            max_err = max(max_err, err)
    return max_err
