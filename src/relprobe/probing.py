"""Frozen-encoder representation extraction, baselines, and logistic-regression
probes with l2 grid search."""

from __future__ import annotations

import hashlib
import math
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import autodiff as ad
from . import deptree, probegen
from .corpus import ExactReader, write_text
from .optim import adam_step

L2_GRID = (0.0, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)

BASELINES = ("length", "argdist", "boe")

BOE_BLOCK = 512  # sentences whose boe rows are summed together

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


def baseline_reps(kind, sentences, table=None) -> RepMatrix:
    """One float32 row per sentence of a reference baseline: length (its
    token count) and argdist (the tokens strictly between its argument
    spans) are 1 wide, boe (the sum of its tokens' table rows) table.dim
    wide. ValueError for an unknown kind and for boe without a table, before
    any sentence is read."""
    if kind not in BASELINES:
        raise ValueError("unknown baseline kind: %s" % kind)
    if kind == "boe" and table is None:
        raise ValueError("boe baseline requires an embedding table")
    starts = deptree.packed_starts(sentences)
    if kind == "length":
        rows = np.diff(starts)[:, None]
    elif kind == "argdist":
        hs, ts, he, te = deptree.argument_bounds(sentences, starts)
        rows = np.where(he < ts, ts - he - 1, hs - te - 1)[:, None]
    else:
        rows = _bag_of_embeddings(sentences, starts, table)
    return RepMatrix(ids=tuple(s.id for s in sentences), rows=rows.astype(np.float32),
                     source="baseline:%s" % kind)


def _bag_of_embeddings(sentences, starts, table):
    """Each sentence's table rows summed in float32 in token order from
    +0.0, as np.sum of their list along axis 0 sums them (an all -0.0
    sentence gives +0.0).

    The sentences are stable-sorted by decreasing length and summed
    BOE_BLOCK at a time into one accumulator, which stays in cache: the n_t
    sentences longer than t are a prefix of the block, and position t adds
    the row of each one's token t to that prefix. A 1-wide table sums each
    sentence on its own, because numpy sums one column pairwise."""
    ids = table.rows(chain.from_iterable(s.tokens for s in sentences))
    if table.dim == 1:
        column = table.matrix[ids, 0]
        return np.array([np.add.reduce(column[a:b])
                         for a, b in zip(starts[:-1].tolist(), starts[1:].tolist())],
                        dtype=np.float32).reshape(-1, 1)
    lengths = np.diff(starts)
    out = np.empty((len(sentences), table.dim), dtype=np.float32)
    order = np.argsort(-lengths, kind="stable")
    for lo in range(0, len(order), BOE_BLOCK):
        block = order[lo:lo + BOE_BLOCK]
        first = starts[block]
        longer = len(block) - np.cumsum(np.bincount(lengths[block]))  # sentences longer than t
        acc = np.zeros((len(block), table.dim), dtype=np.float32)
        for t, n in enumerate(longer[:-1].tolist()):
            acc[:n] += table.matrix[ids[first[:n] + t]]
        out[block] = acc
    return out


@dataclass(frozen=True)
class ProbeResult:
    task: str
    source: str
    chosen_l2: float
    val_accuracy: float
    test_accuracy: float
    epochs: int       # epochs the chosen l2's fit ran
    converged: bool   # whether that fit met tol; False when it stopped at max_epochs


def _rows(reps: RepMatrix, items):
    return np.stack([reps.row_for(sid) for sid, _ in items]) if items else \
        np.zeros((0, reps.rows.shape[1]), np.float32)


def _targets(items, labels):
    index = {l: i for i, l in enumerate(labels)}
    # labels unseen in train get -1 and can never be predicted correctly
    return np.asarray([index.get(label, -1) for _, label in items], dtype=np.int64)


def _fit_softmax(x, ys, n_classes, l2s, lr=0.1, max_epochs=500, tol=1e-6, init_seed=None):
    """A stack of full-batch multinomial logistic regressions on the same
    rows x, one per member k: labels ys[k] and penalty l2s[k]. Rows labelled
    -1 are left out, and every member must leave out the same rows. Each
    fits by adaptive-moment updates on the closed-form gradient of mean
    cross-entropy + l2 * sum(w**2).

    Returns one (w, b, last loss, epochs run, whether the loss changed by
    less than tol before max_epochs ran out) per member.

    The members' w and b are the rows of one flat array theta, seen as
    (G, d*c + c), that `adam_step` updates once per epoch (t = the epoch).
    A member leaves the stack at the epoch its loss meets tol: its row of
    theta and of Adam's moments is cut out. The l2 terms run if any l2 is
    non-zero, so a caller stacks l2 == 0 apart from the other values.

    Each member must round as the taped fit in the tests does, byte for
    byte, so only these rewrites are exact:
    - A member's `w` and `b` are views of its row of theta, and their
      gradients views of its row of one flat buffer. Adam's update is
      elementwise, so one step over the stack rounds as one step per array
      of each member.
    - The 3-D `np.matmul` against the shared x runs one BLAS product per
      member, as the 2-D product does on that member alone. A stack of one
      runs on the 2-D arrays themselves.
    - Results go to preallocated buffers (`out=`, in-place operators): where
      a result is stored does not change how it rounds.
    - The row maxima are taken over a class-major copy of the logits. A
      maximum rounds nothing, and no logit is -0.0 (a sum is -0.0 only when
      both terms are, and `b` starts and stays off -0.0), so any order gives
      the same maxima.
    - A one-hot matrix is subtracted from the probabilities: x - 0.0 is x.
    - Every sum stays an `np.add.reduce` over the same axis of each member's
      block, in the same layout, as the `ndarray.sum` of the 2-D fit:
      numpy's summation order, and so the rounding, depends on the axis and
      the layout.
    - The loss is the sum of the picked log-probabilities divided by an
      `np.intp` count, as `ndarray.mean` divides it (in float64, then
      rounded to the dtype), and negated. With the l2 term it is taken as
      term - quotient: IEEE addition commutes, so that rounds as
      -quotient + term. The loss must stay bytewise equal: through `tol` it
      decides how many epochs a fit runs.
    """
    ys = np.asarray(ys, dtype=np.intp)
    mask = ys[0] >= 0
    ys = ys[:, mask]
    d, c = x.shape[1], n_classes
    if init_seed is None:
        w0 = np.zeros((d, c))
        b0 = np.zeros(c)
    else:
        rng = np.random.default_rng(init_seed)
        w0 = rng.normal(0, 0.01, size=(d, c))
        b0 = rng.normal(0, 0.01, size=c)
    dtype = ad.current_dtype()
    theta = np.concatenate([w0.ravel(), b0] * len(ys)).astype(dtype)
    m, v = np.zeros_like(theta), np.zeros_like(theta)  # Adam's moments
    lr = float(lr)
    if lr <= 0:
        raise ValueError("lr must be positive")
    x = np.asarray(x[mask], dtype=dtype)
    x_t = x.T
    n, n_w = len(x), d * c
    n_items = np.intp(n)
    inv_n = dtype(1.0) / n
    penalized = any(l2s)
    l2_all = np.asarray(l2s, dtype)
    live = np.arange(len(ys))      # the members still in the stack
    prev = [math.inf] * len(ys)    # each live member's last loss
    fits = [None] * len(ys)
    epochs = 0
    while True:
        n_live = len(live)
        # a lone member runs on 2-D arrays: numpy steps them faster
        lead = (n_live,) if n_live > 1 else ()
        grad, u, s = (np.empty_like(theta) for _ in range(3))  # u, s: Adam's scratch
        rows, grads = theta.reshape(n_live, -1), grad.reshape(n_live, -1)
        w, b = rows[:, :n_w].reshape(lead + (d, c)), rows[:, n_w:].reshape(lead + (1, c))
        gw, gb = grads[:, :n_w].reshape(lead + (d, c)), grads[:, n_w:].reshape(lead + (c,))
        # flat indices of the label logits
        picks = (np.arange(n_live * n).reshape(n_live, n) * c + ys[live]).reshape(lead + (n,))
        hot = np.zeros(lead + (n, c), dtype)
        hot.reshape(-1)[picks] = 1.0
        z = np.empty(lead + (n, c), dtype)      # logits, shifted logits, log-probabilities
        z_flat = z.reshape(-1)
        z_t = np.empty(lead + (c, n), dtype)    # the logits class-major, for the row maxima
        z_cm = np.swapaxes(z, -1, -2)
        e = np.empty_like(z)                    # exp(shifted), then the gradient
        row = np.empty(lead + (n, 1), dtype)    # row maxima, then log of the row sums
        row_max = row[..., 0]
        total = np.empty(lead, dtype)           # sum of picked log-probabilities, then the l2 terms
        loss = np.empty(lead, dtype)
        losses = loss.reshape(n_live)
        if penalized:
            l2_t = l2_all[live].reshape(lead)
            l2_wide = np.empty(lead + (d, c), dtype)  # each member's l2 in the shape of its w
            l2_wide[...] = l2_t[..., None, None]
            l2w = np.empty(lead + (d, c), dtype)
            w_sq = l2w.reshape(lead + (n_w,))
        stop = [False] * n_live
        while epochs < max_epochs and not any(stop):
            epochs += 1
            np.matmul(x, w, out=z)
            z += b
            np.copyto(z_t, z_cm)
            np.maximum.reduce(z_t, axis=-2, out=row_max)
            z -= row
            np.exp(z, out=e)
            np.add.reduce(e, axis=-1, keepdims=True, out=row)
            np.log(row, out=row)
            z -= row
            np.add.reduce(z_flat[picks], axis=-1, out=total)
            np.divide(total, n_items, out=loss, casting="same_kind")  # -loss, rounded
            g = np.exp(z, out=e)
            g -= hot
            g *= inv_n
            np.matmul(x_t, g, out=gw)
            np.add.reduce(g, axis=-2, out=gb)
            if penalized:
                np.multiply(w, l2_wide, out=l2w)
                gw += l2w  # once per factor of w*w, rounded as the chain rule adds it
                gw += l2w
                np.multiply(w, w, out=l2w)
                np.multiply(np.add.reduce(w_sq, axis=-1, out=total), l2_t, out=total)
                np.subtract(total, loss, out=loss)
            else:
                np.negative(loss, out=loss)
            adam_step(theta, grad, m, v, u, s, lr, epochs)
            cur = losses.tolist()
            stop = [abs(old - new) < tol for old, new in zip(prev, cur)]
            prev = cur
        leave = [True] * n_live if epochs >= max_epochs else stop
        for k, gone in enumerate(leave):
            if gone:
                fits[live[k]] = (rows[k, :n_w].reshape(d, c).copy(), rows[k, n_w:].copy(),
                                 prev[k], epochs, stop[k])
        if all(leave):
            return fits
        keep = np.logical_not(leave)
        live, prev = live[keep], [a for a, gone in zip(prev, leave) if not gone]
        keep = np.repeat(keep, n_w + c)
        theta, m, v = theta[keep], m[keep], v[keep]


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


def _probe_all(pairs, grid, standardize, jobs=1, **fit):
    """ProbeResult of each (reps_by_split, task) pair: grid-search the l2
    penalty on validation accuracy (ties -> smaller l2).

    The (pair, l2) fits run as stacks: fits on the same train RepMatrix and
    train items, with the same labelled items, the same class count and
    the same l2 == 0 flag are one _fit_softmax call on one shared x. Stacks
    run on `jobs` threads."""
    check_grid(grid)
    grid = sorted(grid)
    trains, stacks, targets = {}, {}, []
    for i, (reps, task) in enumerate(pairs):
        items = task.splits["train"]
        src = (id(reps["train"]), tuple(sid for sid, _ in items))
        if src not in trains:
            x = _rows(reps["train"], items)
            mu = sd = None
            if standardize:
                mu = x.mean(axis=0)
                sd = x.std(axis=0)
                sd[sd == 0] = 1.0
                x = (x - mu) / sd
            trains[src] = (x, mu, sd)
        y = _targets(items, task.labels)
        fitted = y >= 0
        if not fitted.any():
            raise ValueError("task %s: no train item has one of its labels" % task.task)
        targets.append((src, y))
        for j, l2 in enumerate(grid):
            key = (src, fitted.tobytes(), len(task.labels), l2 == 0)
            stacks.setdefault(key, []).append((i, j))

    def run(key):
        src, _, n_classes, _ = key
        members = stacks[key]
        return _fit_softmax(trains[src][0], [targets[i][1] for i, _ in members], n_classes,
                            [grid[j] for _, j in members], **fit)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outs = list(pool.map(run, stacks))
    else:
        outs = [run(key) for key in stacks]
    fits = {}
    for members, out in zip(stacks.values(), outs):
        fits.update(zip(members, out))
    results = []
    for i, (reps, task) in enumerate(pairs):
        _, mu, sd = trains[targets[i][0]]
        held_out = []
        for split in ("validation", "test"):
            items = task.splits[split]
            x = _rows(reps[split], items)
            held_out.append((x if mu is None else (x - mu) / sd, _targets(items, task.labels)))
        (x_va, y_va), (x_te, y_te) = held_out
        best = None
        for j, l2 in enumerate(grid):
            w, b, _, epochs, converged = fits[i, j]
            val_acc = _accuracy(w, b, x_va, y_va)
            if best is None or val_acc > best[0]:
                best = (val_acc, l2, w, b, epochs, converged)
        val_acc, chosen_l2, w, b, epochs, converged = best
        results.append(ProbeResult(task=task.task, source=reps["train"].source,
                                   chosen_l2=chosen_l2, val_accuracy=val_acc,
                                   test_accuracy=_accuracy(w, b, x_te, y_te),
                                   epochs=epochs, converged=converged))
    return results


def train_probe(reps_by_split, task: probegen.ProbingDataset, grid=L2_GRID,
                standardize=False, lr=0.1, max_epochs=500, tol=1e-6,
                init_seed=None) -> ProbeResult:
    """Grid-search the l2 penalty on validation accuracy (ties -> smaller
    l2); ValueError when no train item has one of the task's labels."""
    return _probe_all([(reps_by_split, task)], grid, standardize, lr=lr,
                      max_epochs=max_epochs, tol=tol, init_seed=init_seed)[0]


def run_suite(sources, tasks, grid=L2_GRID, standardize=False, jobs=1):
    """Probe every (source, task) pair; returns ProbeResults in stable order.

    sources: list of (name, reps_by_split) pairs.
    """
    return _probe_all([(reps, task) for _, reps in sources for task in tasks],
                      grid, standardize, jobs)


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
