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
from .encoders import eval_chunks
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
    """Eval-mode (dropout-free) representations for a list of sentences,
    featurized once, one tape-free forward pass per chunk of EVAL_BATCH
    sentences (encoders.eval_chunks); contextual maps sentence ids to rows."""
    ctx = {} if contextual is None else contextual
    features = model.featurize_batch(sentences, [ctx.get(s.id) for s in sentences])
    with ad.no_tape():
        rows = [model.encode(f).data for f in eval_chunks(features, len(sentences))]
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
    sentences = deptree.packed(sentences)
    starts = sentences.starts
    if kind == "length":
        rows = np.diff(starts)[:, None]
    elif kind == "argdist":
        hs, ts, he, te = sentences.bounds
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
    rows x, one per member k: labels ys[k], class count n_classes[k] (or
    one int for all) and penalty l2s[k]. Rows labelled -1 are left out, and
    every member must leave out the same rows. Each fits by adaptive-moment
    updates on the closed-form gradient of mean cross-entropy +
    l2 * sum(w**2).

    Returns one (w, b, last loss, epochs run, whether the loss changed by
    less than tol before max_epochs ran out) per member, in the order given.

    The members run ordered by class count. Their parameters are one flat
    array theta: every member's w, then every member's b. `adam_step`
    updates it once per epoch (t = the epoch). The members of one class
    count c are a group, whose w and b are (G, d, c) and (G, 1, c) views of
    theta. The logits, exponentials and one-hot labels of all groups share
    one flat buffer, and the row terms another. A member leaves the stack
    at the epoch its loss meets tol: its w, b and Adam moments are cut out
    and the buffers rebuilt for the members left. The l2 terms run if any
    l2 is non-zero, so a caller stacks l2 == 0 apart from the other values.

    Each member must round as the taped fit in the tests does, byte for
    byte, so only these rewrites are exact:
    - A member's `w` and `b` are views of theta, and their gradients views
      of one flat buffer in the same layout. Adam's update and every pass
      over a whole flat buffer (`exp`, `log`, the one-hot subtraction, the
      scaling by 1/n, the l2 products and additions) are elementwise: each
      element rounds as it would in an array of its member alone, wherever
      it is stored.
    - The forward and backward products, the row maxima and sums and the
      `b` and `w**2` sums run once per group, on arrays of the shapes a
      stack of that class count alone has. The 3-D `np.matmul` against the
      shared x runs one BLAS product per member, as the 2-D product does on
      that member alone. A group of one runs on the 2-D arrays themselves.
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
      the layout. The picked log-probabilities of all members are one
      (members, n) array summed along its rows.
    - The loss is the sum of the picked log-probabilities divided by an
      `np.intp` count, as `ndarray.mean` divides it (in float64, then
      rounded to the dtype), and negated. With the l2 term it is taken as
      term - quotient: IEEE addition commutes, so that rounds as
      -quotient + term. The loss must stay bytewise equal: through `tol` it
      decides how many epochs a fit runs.
    """
    lr = float(lr)
    if lr <= 0:
        raise ValueError("lr must be positive")
    ys = np.asarray(ys, dtype=np.intp)
    mask = ys[0] >= 0
    ys = ys[:, mask]
    d = x.shape[1]
    cs = np.broadcast_to(np.asarray(n_classes, dtype=np.intp), len(ys))
    live = np.argsort(cs, kind="stable")  # the members still in the stack, by class count
    inits = {}
    for c in set(cs.tolist()):
        if init_seed is None:
            inits[c] = (np.zeros(d * c), np.zeros(c))
        else:
            rng = np.random.default_rng(init_seed)
            inits[c] = (rng.normal(0, 0.01, size=(d, c)).ravel(), rng.normal(0, 0.01, size=c))
    dtype = ad.current_dtype()
    order = cs[live].tolist()
    theta = np.concatenate([inits[c][0] for c in order] + [inits[c][1] for c in order]).astype(dtype)
    m, v = np.zeros_like(theta), np.zeros_like(theta)  # Adam's moments
    # the fit only reads x: all-labelled C-contiguous rows of the fit dtype are not copied
    x = np.ascontiguousarray(x if mask.all() else x[mask], dtype)
    x_t = x.T
    n = len(x)
    n_items = np.intp(n)
    inv_n = dtype(1.0) / n
    penalized = any(l2s)
    l2_all = np.asarray(l2s, dtype)
    prev = [math.inf] * len(ys)    # each live member's last loss
    fits = [None] * len(ys)
    epochs = 0
    while True:
        n_live = len(live)
        c_live = cs[live]
        ends = np.cumsum(c_live)      # each live member's end in the class-wise layout
        firsts = ends - c_live
        n_w = d * int(ends[-1])       # theta is every w, then every b
        grad, u, s = (np.empty_like(theta) for _ in range(3))  # u, s: Adam's scratch
        w_all, gw_all = theta[:n_w], grad[:n_w]
        z_all = np.empty(n * int(ends[-1]), dtype)  # logits, shifted logits, log-probabilities
        e_all = np.empty_like(z_all)                # exp(shifted), then the gradient
        # flat indices of the label logits
        picks = (n * firsts)[:, None] + np.arange(n) * c_live[:, None] + ys[live]
        hot = np.zeros_like(z_all)
        hot[picks] = 1.0
        row_all = np.empty(n_live * n, dtype)  # row maxima, then log of the row sums
        total = np.empty(n_live, dtype)        # sum of picked log-probabilities, then the l2 terms
        loss = np.empty(n_live, dtype)
        if penalized:
            l2_t = l2_all[live]
            l2_wide = np.repeat(l2_t, d * c_live)  # each member's l2 in the layout of its w
            l2w = np.empty(n_w, dtype)
        # one entry per class-count group, for the calls that keep its shapes
        fwd, sums, subs, back, sq = [], [], [], [], []
        bounds = [0] + (np.flatnonzero(np.diff(c_live)) + 1).tolist() + [n_live]
        for k0, k1 in zip(bounds[:-1], bounds[1:]):
            c, lo, hi = int(c_live[k0]), int(firsts[k0]), int(ends[k1 - 1])
            # a group of one runs on 2-D arrays: numpy steps them faster
            lead = (k1 - k0,) if k1 - k0 > 1 else ()
            z = z_all[n * lo:n * hi].reshape(lead + (n, c))
            e = e_all[n * lo:n * hi].reshape(lead + (n, c))
            row = row_all[n * k0:n * k1].reshape(lead + (n, 1))
            z_t = np.empty(lead + (c, n), dtype)  # the logits class-major, for the row maxima
            fwd.append((w_all[d * lo:d * hi].reshape(lead + (d, c)),
                        theta[n_w + lo:n_w + hi].reshape(lead + (1, c)),
                        z, z_t, np.swapaxes(z, -1, -2), row, row[..., 0]))
            sums.append((e, row))
            subs.append((z, row))
            back.append((e, gw_all[d * lo:d * hi].reshape(lead + (d, c)),
                         grad[n_w + lo:n_w + hi].reshape(lead + (c,))))
            if penalized:
                sq.append((l2w[d * lo:d * hi].reshape(lead + (d * c,)), total[k0:k1].reshape(lead)))
        stop = [False] * n_live
        while epochs < max_epochs and not any(stop):
            epochs += 1
            for w, b, z, z_t, z_cm, row, row_max in fwd:
                np.matmul(x, w, out=z)
                z += b
                np.copyto(z_t, z_cm)
                np.maximum.reduce(z_t, axis=-2, out=row_max)
                z -= row
            np.exp(z_all, out=e_all)
            for e, row in sums:
                np.add.reduce(e, axis=-1, keepdims=True, out=row)
            np.log(row_all, out=row_all)
            for z, row in subs:
                z -= row
            np.add.reduce(z_all[picks], axis=-1, out=total)
            np.divide(total, n_items, out=loss, casting="same_kind")  # -loss, rounded
            g = np.exp(z_all, out=e_all)
            g -= hot
            g *= inv_n
            for e, gw, gb in back:
                np.matmul(x_t, e, out=gw)
                np.add.reduce(e, axis=-2, out=gb)
            if penalized:
                np.multiply(w_all, l2_wide, out=l2w)
                gw_all += l2w  # once per factor of w*w, rounded as the chain rule adds it
                gw_all += l2w
                np.multiply(w_all, w_all, out=l2w)
                for w_sq, t in sq:
                    np.add.reduce(w_sq, axis=-1, out=t)
                np.multiply(total, l2_t, out=total)
                np.subtract(total, loss, out=loss)
            else:
                np.negative(loss, out=loss)
            adam_step(theta, grad, m, v, u, s, lr, epochs)
            cur = loss.tolist()
            stop = [abs(old - new) < tol for old, new in zip(prev, cur)]
            prev = cur
        leave = [True] * n_live if epochs >= max_epochs else stop
        for k, gone in enumerate(leave):
            if gone:
                lo, hi = int(firsts[k]), int(ends[k])
                fits[live[k]] = (w_all[d * lo:d * hi].reshape(d, hi - lo).copy(),
                                 theta[n_w + lo:n_w + hi].copy(), prev[k], epochs, stop[k])
        if all(leave):
            return fits
        keep = np.logical_not(leave)
        live, prev = live[keep], [a for a, gone in zip(prev, leave) if not gone]
        keep = np.concatenate([np.repeat(keep, d * c_live), np.repeat(keep, c_live)])
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
    train items, with the same labelled items and the same l2 == 0 flag are
    one _fit_softmax call on one shared x, whatever their class counts.
    Stacks run on `jobs` threads. The train rows, and the validation and
    test rows, are gathered and standardized once per RepMatrix and items."""
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
            key = (src, fitted.tobytes(), l2 == 0)
            stacks.setdefault(key, []).append((i, j))

    def run(key):
        members = stacks[key]
        return _fit_softmax(trains[key[0]][0], [targets[i][1] for i, _ in members],
                            [len(pairs[i][1].labels) for i, _ in members],
                            [grid[j] for _, j in members], **fit)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outs = list(pool.map(run, stacks))
    else:
        outs = [run(key) for key in stacks]
    fits = {}
    for members, out in zip(stacks.values(), outs):
        fits.update(zip(members, out))
    results, held = [], {}
    for i, (reps, task) in enumerate(pairs):
        src = targets[i][0]
        held_out = []
        for split in ("validation", "test"):
            items = task.splits[split]
            key = (src, id(reps[split]), tuple(sid for sid, _ in items))
            if key not in held:
                _, mu, sd = trains[src]
                x = _rows(reps[split], items)
                held[key] = x if mu is None else (x - mu) / sd
            held_out.append((held[key], _targets(items, task.labels)))
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
    """Accuracy matrix as (header row, data rows) of strings, one row per
    source; results are in run_suite's order, each source's tasks in turn."""
    n = len(tasks)
    rows = [[name] + ["%.4f" % r.test_accuracy for r in results[i * n:(i + 1) * n]]
            for i, (name, _) in enumerate(sources)]
    return ["source"] + [t.task for t in tasks], rows


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
