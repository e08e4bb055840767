"""Minimal dense-tensor reverse-mode autodiff on numpy buffers.

Dynamic tape: every op returns a Tensor holding its inputs and a closure
that scatters the incoming gradient back to them; backward frees the tape
as it runs. The operator set is exactly what the sentence encoders need.
float32 by default; gradient checking switches to float64 via use_dtype().
Eval-mode forward passes run inside no_tape(), which records no tape.

Gradients are dense, with one exception. When gather_rows reads a leaf
table that has no gradient yet and more rows than the gather has ids, its
backward fills a compact (unique ids, d) buffer, and Tensor.grad_rows holds
the ids: an embedding table's gradient then costs what the batch's ids
cost, not what the vocabulary costs. Its rows equal the dense gradient's
rows byte for byte. Any other accumulation into the table, and reading
Tensor.grad, first makes the gradient dense.
"""

from __future__ import annotations

import itertools
import math
import operator
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

_DTYPE = np.float32
_RECORD = True  # whether new tensors keep their parents and backward closure
# Tensor._scatter_rows sums each id's rows in one reduce once ids x (row
# width - 16) reaches this: per id the grouped sum costs about what np.add.at
# spends on 16 columns, plus a fixed cost per call. Measured float32
# break-even: about 1,000 ids of rows 32 wide, 500 of 48, under 60 of 300.
_GROUPED_MIN = 1 << 14
# gather_rows on a leaf table without a gradient keeps its gradient row-sparse
# when the table has more than _ROWS_PER_ID rows per id of the gather. Measured
# float32 backward plus SGD or Adagrad step: 1.1-1.5x faster than dense at one
# row per id on rows 300 wide; up to 10% slower (under 0.05 ms) below about
# three rows per id on rows 32-50 wide, which no full desk batch reaches.
_ROWS_PER_ID = 1
# amax reduces segments of rows up to this wide with np.maximum.reduceat and
# wider ones in a loop. For 50 segments of 1-60 rows, float32 and float64,
# the reduceat forward took 0.2-0.85x the loop's time at widths 16-48,
# 0.45-1.5x at 64 and 0.5-1.9x at 96; it grows with rows x width, the loop
# with the segment count.
_REDUCEAT_MAX_WIDTH = 48


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
    __slots__ = ("data", "_grad", "grad_rows", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        self.data = np.asarray(data, dtype=_DTYPE)
        self._grad = None
        self.grad_rows = None  # sorted unique row ids of a row-sparse gradient
        if not _RECORD:
            parents, backward = (), None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        return float(self.data)

    @property
    def grad(self):
        """The gradient as a dense array (made dense if it is row-sparse), or
        None before any."""
        return self._grad if self.grad_rows is None else self._grad_buffer()

    @grad.setter
    def grad(self, g):
        self._grad, self.grad_rows = g, None

    def row_grad(self):
        """(grad_rows, their gradient rows) when the gradient is row-sparse,
        else None. Every other row's gradient is +0.0."""
        return None if self.grad_rows is None else (self.grad_rows, self._grad)

    def zero_grad(self):
        self.grad = None

    def _accum(self, g):
        if self._grad is None:
            # a copy: an op such as add passes one g (or a view) to several tensors
            self._grad = np.empty_like(self.data)
            self._grad[...] = g
        else:
            grad = self._grad_buffer()
            grad += g

    def _grad_buffer(self):
        """The dense gradient array, zero-filled on first use, for scatter-adds.
        A row-sparse gradient is made dense."""
        if self._grad is None:
            self._grad = np.zeros_like(self.data)
        elif self.grad_rows is not None:
            dense = np.zeros_like(self.data)
            dense[self.grad_rows] = self._grad
            self._grad, self.grad_rows = dense, None
        return self._grad

    def _scatter_rows(self, idx, g):
        """np.add.at(grad, idx, g) on this 2-D tensor's gradient, bit for bit.

        np.add.at adds a row's entries of g one at a time in the C order of
        idx. From the _GROUPED_MIN crossover on, the rows of each id are
        instead stacked after the row's current gradient, as (ids, m + 1, d)
        for the ids that occur m times, and summed by one np.add.reduce over
        axis 1, which adds in that order because axis 1 is not the innermost
        one. Width-1 rows always take np.add.at: there the reduced axis is
        the innermost one, which numpy sums pairwise.

        A leaf with no gradient yet and more than _ROWS_PER_ID rows per id
        gets a row-sparse gradient: the same adds run on a +0.0 buffer of
        its distinct ids' rows, so each row equals the dense one."""
        n_rows = len(self.data)
        if self._grad is None and not self._parents and n_rows > _ROWS_PER_ID * idx.size:
            # ravel first: the shape of np.unique's inverse varies across numpy 2.x
            self.grad_rows, idx = np.unique(idx.ravel() % n_rows, return_inverse=True)
            self._grad = grad = np.zeros((len(self.grad_rows), self.data.shape[1]),
                                         self.data.dtype)
            g = g.reshape(idx.size, -1)
        else:
            grad = self._grad_buffer()
        d = grad.shape[1]
        ids = idx.ravel()
        if d == 1 or ids.size * (d - 16) < _GROUPED_MIN:
            np.add.at(grad, idx, g)
            return
        rows = g.reshape(-1, d)
        ids = ids % len(grad)  # a negative id names the row it indexes
        order = np.argsort(ids, kind="stable")  # each id's positions in increasing order
        by_id = ids[order]
        first = np.flatnonzero(np.concatenate(([True], by_id[1:] != by_id[:-1])))
        counts = np.diff(first, append=len(by_id))
        # ids in order of their count: each count's ids are one slice
        by_count = np.argsort(counts, kind="stable")
        first, counts = first[by_count], counts[by_count]
        ms, lo = np.unique(counts, return_index=True)
        for m, heads in zip(ms.tolist(), np.split(first, lo[1:])):
            u = by_id[heads]
            if m == 1:  # each id once: one add per row, as np.add.at does
                grad[u] += rows[order[heads]]
                continue
            stack = np.concatenate([grad[u][:, None], rows[order[heads[:, None] + np.arange(m)]]],
                                   axis=1)
            grad[u] = np.add.reduce(stack, axis=1)

    def backward(self):
        """Gradients of this scalar loss into the leaves. A node drops its
        parents, closure and gradient once its closure has run, so the tape
        is freed as backward proceeds and only the leaves keep a gradient."""
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
        while order:
            node = order.pop()
            if node._backward is not None and node._grad is not None:
                node._backward(node._grad)
            if node._parents:
                node._parents, node._backward, node._grad = (), None, None

    def __repr__(self):
        return "Tensor(shape=%s, requires_grad=%s)" % (self.shape, self.requires_grad)


def param(data):
    return Tensor(data, requires_grad=True)


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
            a._scatter_rows(idx, g)

    return Tensor(out_data, parents=(a,), backward=back)


def _windows(a, idx):
    """Rows idx (n, k) of a 2-D tensor (T, d), each window's k rows as one
    (n, k*d) row.

    idx holds sliding windows, as conv1d builds them: a row that several
    windows read sits one column lower in each later one, and no row
    repeats within a column. np.add.at(grad, idx, g) adds a row's
    gradients window by window, so in decreasing column order; one fancy
    add per column, last column first, adds the same values in the same
    order."""
    n, k = idx.shape
    out_data = a.data[idx].reshape(n, -1)

    def back(g):
        if a.requires_grad:
            grad = a._grad_buffer()
            g = g.reshape(n, k, -1)
            for j in reversed(range(k)):
                grad[idx[:, j]] += g[:, j]

    return Tensor(out_data, parents=(a,), backward=back)


def _segments(starts, n_rows):
    """Segment starts (B+1 row bounds of n_rows rows; None: one segment) as a list of ints.

    An empty segment is a ValueError: reduceat-style code would silently
    read the next segment's first row for it.
    """
    bounds = [0, n_rows] if starts is None else np.asarray(starts).tolist()
    if len(bounds) < 2 or bounds[0] != 0 or bounds[-1] != n_rows:
        raise ValueError("segment starts %s do not cover %d rows" % (bounds, n_rows))
    if not all(map(operator.lt, bounds, bounds[1:])):
        empty = next(i for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])) if hi <= lo)
        raise ValueError("empty segment %d in starts %s" % (empty, bounds))
    return bounds


def amax(a, starts=None):
    """Max over each segment's rows of a 2-D tensor (starts: B+1 row bounds;
    default: all rows), one output row per segment; gradient flows to the
    first argmax per column."""
    a = _as_tensor(a)
    x = a.data
    bounds = _segments(starts, x.shape[0])
    # Rows up to _REDUCEAT_MAX_WIDTH wide reduce in one np.maximum.reduceat
    # pass, wider ones per segment. reduceat equals the loop byte for byte
    # unless a max is NaN, which the one-pass argmax cannot find, or is a zero
    # the input holds as both +0.0 and -0.0, where either sign may win: those
    # inputs take the loop too.
    fast = x.shape[1] <= _REDUCEAT_MAX_WIDTH
    if fast:
        out_data = np.maximum.reduceat(x, bounds[:-1], axis=0)
        if np.isnan(out_data).any():
            fast = False
        elif (out_data == 0).any():
            zeros = x == 0
            fast = not 0 < np.count_nonzero(zeros & np.signbit(x)) < np.count_nonzero(zeros)
    if not fast:
        out_data = np.array([x[lo:hi].max(axis=0) for lo, hi in itertools.pairwise(bounds)])

    def back(g):
        if a.requires_grad:
            if fast:
                # the first row of each segment and column that holds its max
                n = x.shape[0]
                hit = x == out_data.repeat(np.diff(bounds), axis=0)
                rows = np.minimum.reduceat(np.where(hit, np.arange(n)[:, None], n),
                                           bounds[:-1], axis=0)
            else:
                rows = np.array([lo + x[lo:hi].argmax(axis=0)
                                 for lo, hi in itertools.pairwise(bounds)])
            # each (row, column) pair occurs once: a fancy add is np.add.at
            a._grad_buffer()[rows, np.arange(g.shape[1])] += g

    return Tensor(out_data, parents=(a,), backward=back)


def sum_all(a):
    a = _as_tensor(a)

    def back(g):
        if a.requires_grad:
            a._accum(np.full_like(a.data, g))

    return Tensor(a.data.sum(), parents=(a,), backward=back)


def sum_axis(a, starts=None):
    """Sum over each segment's rows of a 2-D tensor (starts: B+1 row bounds;
    default: all rows), one output row per segment."""
    a = _as_tensor(a)
    bounds = _segments(starts, a.data.shape[0])
    # not np.add.reduceat, whose summation order differs from sum(axis=0)
    out_data = np.array([a.data[lo:hi].sum(axis=0) for lo, hi in itertools.pairwise(bounds)])
    counts = np.diff(bounds)

    def back(g):
        if a.requires_grad:
            a._accum(g.repeat(counts, axis=0))

    return Tensor(out_data, parents=(a,), backward=back)


def cross_entropy_logits(logits, labels):
    """Mean negative log-likelihood of integer labels under softmax(logits).

    logits: (N, C); labels: N ints.
    """
    logits = _as_tensor(logits)
    x = logits.data
    labels = np.asarray(labels, dtype=np.int64)
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
            logits._accum(d)

    return Tensor(loss, parents=(logits,), backward=back)


def dropout_mask(shape, p, rng):
    """Inverted-dropout mask of `shape` for a rate 0 < p < 1: 1/keep where a
    uniform draw falls below keep = 1 - p, else 0, so its expectation is 1."""
    keep = 1.0 - p
    return (rng.random(shape) < keep).astype(_DTYPE) / _DTYPE(keep)


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
    starts = np.asarray(_segments(starts, t))
    lengths = np.diff(starts)
    n_win = np.maximum(lengths - (k - 1), 1)
    ends = n_win.cumsum()
    # window j of segment i starts at row starts[i] + j
    idx = (np.arange(ends[-1]) + (starts[:-1] - ends + n_win).repeat(n_win))[:, None] \
        + np.arange(k)
    # a slot past a short segment's end reads a zero row appended below, one
    # row per slot, so that no row repeats within a column of idx
    past = idx >= starts[1:].repeat(n_win)[:, None]
    n_pad = int(np.count_nonzero(past))
    if n_pad:
        idx[past] = t + np.arange(n_pad)
        x = concat([x, Tensor(np.zeros((n_pad, d)))], axis=0)
    return linear(_windows(x, idx), w, b)


class SegmentPlan(NamedTuple):
    """segment_matmul's rows and matrices, as segment_plan builds them."""

    blocks: tuple       # the matrix blocks it was built from
    slots: np.ndarray   # (2, B) block index and item of each segment's matrix
    starts: np.ndarray  # (B+1,) segment starts
    rows: np.ndarray    # the rows of the stacks' segments, stack after stack
    stacks: tuple       # (mats, its slice of rows) per block of m >= 2 segments
    singles: tuple      # (matrix, its segment's row slice) per block of one segment


def segment_plan(blocks, slots, starts):
    """The plan of segment_matmul over B segments of rows [starts[i],
    starts[i+1]), each multiplied by its own constant square matrix: item
    slots[1, i] of blocks[slots[0, i]], an (m, n, n) array of matrices, for
    segment i, which is n rows long. Built once, a plan serves every
    segment_matmul over those segments, forward and backward.

    One stable argsort of the block indices groups the segments by block.
    The m >= 2 segments of a block become a stack: their matrices, by one
    fancy index or as a view when they are consecutive items, and their
    rows. A segment alone in its block becomes a single: its matrix and its
    row slice. ValueError unless the slots name, for each segment, an
    existing matrix as wide as the segment is long."""
    _segments(starts, starts[-1])
    bounds = np.asarray(starts)
    slots = np.asarray(slots, dtype=np.int64)
    if slots.shape != (2, len(bounds) - 1):
        raise ValueError("slots of shape %s for %d segments" % (slots.shape, len(bounds) - 1))
    order = slots[0].argsort(kind="stable")
    by_block, items = slots[0][order], slots[1][order]
    cuts = [0, *((by_block[1:] != by_block[:-1]).nonzero()[0] + 1).tolist(), len(order)]
    # the rows of each segment, segments grouped by block
    lo = bounds[order]
    lengths = bounds[order + 1] - lo
    ends = lengths.cumsum()
    rows = np.arange(len(ends) and ends[-1]) + (lo - ends + lengths).repeat(lengths)
    firsts, lengths, ends = lo.tolist(), lengths.tolist(), [0, *ends.tolist()]
    named_blocks, named_items = by_block.tolist(), items.tolist()
    stacks, singles, stacked, top = [], [], [], 0
    for at, end in zip(cuts, cuts[1:]):
        b, m, n, named = named_blocks[at], end - at, lengths[at], named_items[at:end]
        mats = np.asarray(blocks[b], dtype=_DTYPE) if 0 <= b < len(blocks) else None
        if mats is None or mats.shape[1:] != (n, n) or lengths[at:end].count(n) != m \
                or min(named) < 0 or max(named) >= len(mats):
            raise _slot_error(blocks, slots, bounds)
        if m == 1:
            singles.append((mats[named[0]], slice(firsts[at], firsts[at] + n)))
            continue
        first = named[0]  # consecutive items, as a range of sentences names them: a view
        stacks.append((mats[first:first + m] if named == [*range(first, first + m)]
                       else mats[items[at:end]], slice(top, top + m * n)))
        stacked.append(rows[ends[at]:ends[end]])
        top += m * n
    rows = np.concatenate(stacked) if stacked else rows[:0]
    return SegmentPlan(tuple(blocks), slots, bounds, rows, tuple(stacks), tuple(singles))


def _slot_error(blocks, slots, bounds):
    """The ValueError naming the first segment whose slots name no matrix as
    wide as the segment is long."""
    for i, (b, j) in enumerate(slots.T.tolist()):
        n = int(bounds[i + 1] - bounds[i])
        if not (0 <= b < len(blocks) and 0 <= j < len(blocks[b])
                and np.shape(blocks[b])[1:] == (n, n)):
            return ValueError("segment %d of %d rows names item %d of block %d of %d, "
                              "not a %dx%d matrix" % (i, n, j, b, len(blocks), n, n))


def segment_matmul(plan, x):
    """Each segment's rows of x (N, d) multiplied by its constant square
    matrix, by a segment_plan of N rows.

    The rows of the blocks of m >= 2 segments are gathered once, block after
    block; each block then runs as one batched (m, n, n) @ (m, n, d) matmul
    on its slice of them, each item of which is the 2-D product of one
    segment's own rows, and the results are scattered back at once. A block
    of one segment multiplies its row slice of x. So the result equals
    per-segment matmuls bit for bit, and no block-diagonal matrix is formed.
    The backward runs the transposed matrices the same way. Gradients flow
    to x only.
    """
    x = _as_tensor(x)
    if x.data.shape[0] != plan.starts[-1]:
        raise ValueError("a plan of %d rows for %d rows" % (plan.starts[-1], x.data.shape[0]))

    def apply(transpose, a):
        out = np.empty_like(a)
        if plan.stacks:
            gathered = a[plan.rows]
            done = np.empty_like(gathered)
            for mats, rows in plan.stacks:
                m, n = mats.shape[:2]
                np.matmul(mats.swapaxes(1, 2) if transpose else mats,
                          gathered[rows].reshape(m, n, -1), out=done[rows].reshape(m, n, -1))
            out[plan.rows] = done
        for mat, rows in plan.singles:
            np.matmul(mat.T if transpose else mat, a[rows], out=out[rows])
        return out

    def back(g):
        if x.requires_grad:
            x._accum(apply(True, g))

    return Tensor(apply(False, x.data), parents=(x,), backward=back)


def lstm_sequence(x, wx, wh, b, rmask=None, reverse=False, starts=None):
    """One LSTM direction over each sentence in the rows of x (ΣT, d);
    returns H (ΣT, h) in the row order of x.

    starts (B+1 row bounds; default: all of x) splits the rows into
    sentences, each run from a zero state. Gate columns of wx (d, 4h),
    wh (h, 4h) and b (4h,) are ordered input, forget, cell, output. rmask,
    a fixed (B, h) array (one row per sentence) or None, multiplies each
    sentence's h_{t-1} before it enters the gates (variational recurrent
    dropout). With reverse=True each sentence is read from its own last
    row; row t of H is always the state after reading row t of x.

    The input projection X·Wx + b is one matmul over all rows. The
    sentences run as one recurrence of T_max steps, sorted by decreasing
    length, so that the ones still active at step t are the first n_t and
    their rows at that step lie next to each other in a time-major copy
    (cf. PyTorch's pack_padded_sequence): one (n_t, h)·Wh product per step.
    Backpropagation through time runs inside the backward closure, so each
    weight gradient is one matmul over all rows (Appleyard, Kočiský &
    Blunsom 2016, arXiv 1604.01946).
    """
    x, wx, wh, b = (_as_tensor(t) for t in (x, wx, wh, b))
    n_rows, h_dim = x.data.shape[0], wh.data.shape[0]
    bounds = np.asarray(_segments(starts, n_rows))
    lengths = np.diff(bounds)
    by_len = np.argsort(-lengths, kind="stable")
    step = np.arange(lengths[by_len[0]])[:, None]
    running = lengths[by_len] > step  # sentence j by length reads a row at step t
    rows = (bounds[by_len + 1] - 1 - step if reverse else bounds[by_len] + step)[running]
    pos = np.empty_like(rows)  # the time-major position of each row of x
    pos[rows] = np.arange(n_rows)
    act = (x.data @ wx.data + b.data)[rows]  # gate pre-activations, then activations
    dtype = act.dtype
    state = np.zeros((len(lengths), h_dim), dtype)
    # per step: its rows of the time-major copy and the active part of the state
    ends = np.cumsum(running.sum(axis=1)).tolist()
    steps = [(slice(lo, hi), slice(0, hi - lo)) for lo, hi in zip([0] + ends, ends)]
    mask = None if rmask is None else np.asarray(rmask, dtype=_DTYPE)[by_len]
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
            h_in[at] = h if mask is None else h * mask[live]
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
                dh_rec[live] *= mask[live]
        d_gates, h_fed = d_gates[pos], h_in[pos]  # back to the row order of x
        if x.requires_grad:
            x._accum(d_gates @ wx.data.T)
        if wx.requires_grad:
            wx._accum(x.data.T @ d_gates)
        if wh.requires_grad:
            wh._accum(h_fed.T @ d_gates)
        if b.requires_grad:
            b._accum(d_gates.sum(axis=0))

    return Tensor(out[pos], parents=(x, wx, wh, b), backward=back)


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
    bounds = np.asarray(_segments(starts, n_rows))
    lengths = np.diff(bounds)
    # per distinct length: its sentences, their rows and the length
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
        out[rows] = merge((p if dg is None else p * dg) @ vh)
        saved.append((p, dg))  # the rest is recomputed, not kept on the tape

    def back(g):
        for (_, rows, t_len), (p, dg) in zip(groups, saved):
            qh, kh, vh = (split(t.data[rows], t_len) for t in (q, k, v))
            pd = p if dg is None else p * dg
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
