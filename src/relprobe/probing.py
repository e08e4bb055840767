"""Frozen-encoder representation extraction, baselines, and logistic-regression
probes with l2 grid search."""

from __future__ import annotations

import hashlib
import math
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import probegen
from .corpus import ExactReader, write_text
from .optim import Adam

L2_GRID = (0.0, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)

BASELINES = ("length", "argdist", "boe")

REP_MAGIC = b"REPR"


@dataclass
class RepMatrix:
    ids: tuple
    rows: np.ndarray  # N x D float32
    source: str

    def __post_init__(self):
        if len(self.ids) != self.rows.shape[0]:
            raise ValueError("id count does not match row count")

    def row_for(self, sid):
        if not hasattr(self, "_index"):
            self._index = {sid: i for i, sid in enumerate(self.ids)}
        i = self._index.get(sid)
        if i is None:
            raise KeyError("no representation for sentence %s" % sid)
        return self.rows[i]

    def sha256(self):
        h = hashlib.sha256()
        for sid in self.ids:
            h.update(sid.encode("utf-8"))
        h.update(np.ascontiguousarray(self.rows, dtype="<f4").tobytes())
        return h.hexdigest()


def save_reps(rep: RepMatrix, path):
    with open(path, "wb") as f:
        f.write(REP_MAGIC)
        f.write(struct.pack("<I", 1))
        n, d = rep.rows.shape
        f.write(struct.pack("<QQ", n, d))
        for sid in rep.ids:
            write_text(f, sid)
        f.write(np.ascontiguousarray(rep.rows, dtype="<f4").tobytes())
        write_text(f, rep.source)


def load_reps(path) -> RepMatrix:
    """RepMatrix from a REPR file; ValueError on a malformed, truncated or
    overlong one, on a repeated id and on a NaN or infinite value."""
    with open(path, "rb") as f:
        r = ExactReader(f, path)
        r.header(REP_MAGIC, 1)
        n, d = r.unpack("<QQ")
        ids = {}
        for _ in range(n):
            sid = r.text()
            if sid in ids:
                raise ValueError("%s: duplicate id %r" % (path, sid))
            ids[sid] = None
        rows = np.frombuffer(r.read(4 * n * d), dtype="<f4").reshape(n, d).copy()
        source = r.text()
        offset = f.tell()
        if offset < r.size:
            raise ValueError("%s: %d trailing bytes at byte offset %d"
                             % (path, r.size - offset, offset))
    ids = tuple(ids)
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise ValueError("%s: non-finite value in row %r" % (path, ids[np.argmin(finite)]))
    return RepMatrix(ids=ids, rows=rows, source=source)


def extract_reps(model, sentences, source=None, contextual=None) -> RepMatrix:
    """Eval-mode (dropout-free) representations for a list of sentences, one
    tape-free forward pass per packed chunk of EVAL_BATCH sentences."""
    with ad.no_tape():
        rows = [model.encode(f).data for f in model.featurize_chunks(sentences, contextual)]
    rows = np.concatenate(rows).astype(np.float32) if rows \
        else np.zeros((0, model.rep_dim), np.float32)
    return RepMatrix(ids=tuple(s.id for s in sentences), rows=rows,
                     source=source or "encoder:%s" % model.enc_cfg.kind)


def baseline_features(kind, s, table=None):
    """Per-sentence feature vector for one of the reference baselines."""
    if kind == "length":
        return np.asarray([float(len(s))], dtype=np.float32)
    if kind == "argdist":
        return np.asarray([float(probegen._arg_distance(s))], dtype=np.float32)
    if kind == "boe":
        if table is None:
            raise ValueError("boe baseline requires an embedding table")
        return np.sum([table.lookup(t) for t in s.tokens], axis=0).astype(np.float32)
    raise ValueError("unknown baseline kind: %s" % kind)


def baseline_reps(kind, sentences, table=None) -> RepMatrix:
    rows = np.stack([baseline_features(kind, s, table) for s in sentences])
    return RepMatrix(ids=tuple(s.id for s in sentences), rows=rows.astype(np.float32),
                     source="baseline:%s" % kind)


@dataclass(frozen=True)
class ProbeResult:
    task: str
    source: str
    chosen_l2: float
    val_accuracy: float
    test_accuracy: float
    epochs: int       # epochs the chosen l2's fit ran
    converged: bool   # whether that fit met tol; False when it stopped at max_epochs


def _design(reps: RepMatrix, items, labels):
    index = {l: i for i, l in enumerate(labels)}
    x = np.stack([reps.row_for(sid) for sid, _ in items]) if items else \
        np.zeros((0, reps.rows.shape[1]), np.float32)
    # labels unseen in train get -1 and can never be predicted correctly
    y = np.asarray([index.get(label, -1) for _, label in items], dtype=np.int64)
    return x, y


def _fit_softmax(x, y, n_classes, l2, lr=0.1, max_epochs=500, tol=1e-6, init_seed=None):
    """Full-batch multinomial logistic regression via adaptive-moment updates
    on the closed-form gradient of mean cross-entropy + l2 * sum(w**2).

    Returns (w, b, last loss, epochs run, whether the loss changed by less
    than tol before max_epochs ran out).

    Each epoch must round as the taped fit in the tests does, byte for byte,
    so only these rewrites are exact:
    - `w` and `b` are views of one flat parameter, and their gradients views
      of one flat buffer. Adam's update is elementwise, so one step over the
      flat array rounds as one step per array.
    - Results go to preallocated buffers (`out=`, in-place operators): where
      a result is stored does not change how it rounds.
    - The row maxima are taken over a class-major copy of the logits. A
      maximum rounds nothing, and no logit is -0.0 (a sum is -0.0 only when
      both terms are, and `b` starts and stays off -0.0), so any order gives
      the same maxima.
    - A one-hot matrix is subtracted from the probabilities: x - 0.0 is x.
    - Every sum stays an `np.add.reduce` over the same axis of an array of
      the same layout, as the `ndarray.sum` it replaces: numpy's summation
      order, and so the rounding, depends on the axis and the layout.
    - The loss is the sum of the picked log-probabilities divided by an
      `np.intp` count, as `ndarray.mean` divides it (in float64, then
      rounded to the dtype). The loss must stay bytewise equal: through
      `tol` it decides how many epochs a fit runs.
    """
    d = x.shape[1]
    if init_seed is None:
        w0 = np.zeros((d, n_classes))
        b0 = np.zeros(n_classes)
    else:
        rng = np.random.default_rng(init_seed)
        w0 = rng.normal(0, 0.01, size=(d, n_classes))
        b0 = rng.normal(0, 0.01, size=n_classes)
    theta = ad.param(np.concatenate([w0.ravel(), b0]))
    theta.grad = np.empty_like(theta.data)
    n_w = d * n_classes
    w, b = theta.data[:n_w].reshape(d, n_classes), theta.data[n_w:]
    gw, gb = theta.grad[:n_w].reshape(d, n_classes), theta.grad[n_w:]
    params = {"theta": theta}
    opt = Adam(lr)
    dtype = theta.data.dtype.type
    mask = y >= 0
    y_fit = y[mask]
    x_fit = np.asarray(x[mask], dtype=dtype)
    n = len(y_fit)
    picks = np.arange(n) * n_classes + y_fit  # flat indices of the label logits
    hot = np.zeros((n, n_classes), dtype)
    hot.ravel()[picks] = 1.0
    n_items = np.intp(n)
    inv_n = dtype(1.0) / n
    l2_t = dtype(l2)
    z = np.empty((n, n_classes), dtype)       # logits, shifted logits, log-probabilities
    z_t = np.empty((n_classes, n), dtype)     # the logits class-major, for the row maxima
    e = np.empty_like(z)                      # exp(shifted), then the gradient
    row = np.empty((n, 1), dtype)             # row maxima, then log of the row sums
    picked = np.empty(n, dtype)
    l2w = np.empty_like(w)
    prev = np.inf
    loss_val = np.inf
    epochs, converged = 0, False
    while epochs < max_epochs and not converged:
        epochs += 1
        np.matmul(x_fit, w, out=z)
        z += b
        np.copyto(z_t, z.T)
        np.maximum.reduce(z_t, axis=0, out=row[:, 0])
        z -= row
        np.exp(z, out=e)
        np.add.reduce(e, axis=1, keepdims=True, out=row)
        np.log(row, out=row)
        z -= row
        total = np.add.reduce(z.take(picks, out=picked))
        loss = -dtype(total / n_items)
        g = np.exp(z, out=e)
        g -= hot
        g *= inv_n
        np.matmul(x_fit.T, g, out=gw)
        np.add.reduce(g, axis=0, out=gb)
        if l2:
            np.multiply(w, l2_t, out=l2w)
            gw += l2w  # once per factor of w*w, rounded as the chain rule adds it
            gw += l2w
            loss = loss + np.add.reduce(np.multiply(w, w, out=l2w), axis=None) * l2_t
        opt.step(params)
        loss_val = float(loss)
        converged = abs(prev - loss_val) < tol
        prev = loss_val
    return w.copy(), b.copy(), loss_val, epochs, converged


def _accuracy(w, b, x, y):
    if len(y) == 0:
        return 0.0
    preds = np.argmax(x @ w + b, axis=1)
    return float(np.mean(preds == y))


def check_grid(grid):
    """ValueError unless the l2 grid is non-empty and each value is finite
    and >= 0: a nan penalty makes every fit nan, a negative one rewards
    large weights."""
    if not grid:
        raise ValueError("empty l2 grid")
    for l2 in grid:
        if not 0.0 <= l2 < math.inf:
            raise ValueError("l2 values must be finite and >= 0, got %s" % l2)


def train_probe(reps_by_split, task: probegen.ProbingDataset, grid=L2_GRID,
                standardize=False, lr=0.1, max_epochs=500, tol=1e-6,
                init_seed=None) -> ProbeResult:
    """Grid-search the l2 penalty on validation accuracy (ties -> smaller l2)."""
    check_grid(grid)
    labels = task.labels
    x_tr, y_tr = _design(reps_by_split["train"], task.splits["train"], labels)
    x_va, y_va = _design(reps_by_split["validation"], task.splits["validation"], labels)
    x_te, y_te = _design(reps_by_split["test"], task.splits["test"], labels)
    if standardize:
        mu = x_tr.mean(axis=0)
        sd = x_tr.std(axis=0)
        sd[sd == 0] = 1.0
        x_tr, x_va, x_te = (x_tr - mu) / sd, (x_va - mu) / sd, (x_te - mu) / sd
    best = None
    for l2 in sorted(grid):
        w, b, _, epochs, converged = _fit_softmax(x_tr, y_tr, len(labels), l2, lr=lr,
                                                  max_epochs=max_epochs, tol=tol,
                                                  init_seed=init_seed)
        val_acc = _accuracy(w, b, x_va, y_va)
        if best is None or val_acc > best[0]:
            best = (val_acc, l2, w, b, epochs, converged)
    val_acc, chosen_l2, w, b, epochs, converged = best
    test_acc = _accuracy(w, b, x_te, y_te)
    source = reps_by_split["train"].source
    return ProbeResult(task=task.task, source=source, chosen_l2=chosen_l2,
                       val_accuracy=val_acc, test_accuracy=test_acc, epochs=epochs,
                       converged=converged)


def run_suite(sources, tasks, grid=L2_GRID, standardize=False, jobs=1):
    """Probe every (source, task) pair; returns ProbeResults in stable order.

    sources: list of (name, reps_by_split) pairs.
    """
    pairs = [(name, reps, task) for name, reps in sources for task in tasks]

    def work(args):
        name, reps, task = args
        return train_probe(reps, task, grid=grid, standardize=standardize)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(work, pairs))
    else:
        results = [work(p) for p in pairs]
    return results


def suite_table(results, sources, tasks):
    """Accuracy matrix as (header row, data rows) of strings."""
    task_names = [t.task for t in tasks]
    header = ["source"] + task_names
    by_key = {(r.source, r.task): r for r in results}
    rows = []
    for name, reps in sources:
        row = [name]
        for t in task_names:
            r = by_key.get((reps["train"].source, t))
            row.append("%.4f" % r.test_accuracy if r else "")
        rows.append(row)
    return header, rows


def render_csv(header, rows):
    lines = [",".join(header)]
    lines += [",".join(r) for r in rows]
    return "\n".join(lines) + "\n"


def render_text_table(header, rows):
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
    def fmt(row):
        return "  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip()
    lines = [fmt(header), fmt(["-" * w for w in widths])]
    lines += [fmt(r) for r in rows]
    return "\n".join(lines) + "\n"
