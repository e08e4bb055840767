import math
import re
from dataclasses import replace

import numpy as np
import pytest

from relprobe import autodiff as ad
from relprobe import probegen, probing
from relprobe.corpus import random_embeddings
from relprobe.encoders import EncoderConfig
from relprobe.probing import (RepMatrix, baseline_reps,
                              extract_reps, load_reps, render_csv,
                              render_text_table, run_suite, save_reps,
                              suite_table, train_probe)
from relprobe.training import desk_input_config
from relprobe.encoders import REModel, Vocab
from relprobe.optim import Adam, Optimizer

from conftest import make_sentence
from reference_ops import scale


def _rep(ids, rows, source="test"):
    return RepMatrix(ids=tuple(ids), rows=np.asarray(rows, dtype=np.float32),
                     source=source)


# ------------------------------------------------------------- rep matrix

def test_rep_matrix_row_lookup():
    rep = _rep(["a", "b"], [[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(rep.row_for("b"), [3.0, 4.0])
    with pytest.raises(KeyError):
        rep.row_for("c")


def test_rep_matrix_count_mismatch():
    with pytest.raises(ValueError):
        _rep(["a"], [[1.0], [2.0]])


def test_rep_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    rep = _rep(["s-%d" % i for i in range(7)], rng.normal(size=(7, 5)), source="encoder:cnn")
    p = str(tmp_path / "reps.bin")
    save_reps(rep, p)
    loaded = load_reps(p)
    assert loaded.ids == rep.ids
    assert loaded.source == rep.source
    np.testing.assert_array_equal(loaded.rows, rep.rows)
    assert loaded.sha256() == rep.sha256()


def test_rep_truncated_at_any_offset_is_value_error(tmp_path):
    full = str(tmp_path / "full.repr")
    save_reps(_rep(["a", "bc"], np.ones((2, 3)), source="encoder:bilstm"), full)
    raw = open(full, "rb").read()
    cut = str(tmp_path / "cut.repr")
    for n in range(len(raw)):
        with open(cut, "wb") as f:
            f.write(raw[:n])
        with pytest.raises(ValueError, match=re.escape(cut)):
            load_reps(cut)


def test_rep_bad_utf8_id_names_path_and_offset(tmp_path):
    p = str(tmp_path / "bad.repr")
    save_reps(_rep(["s1"], np.ones((1, 2))), p)
    raw = bytearray(open(p, "rb").read())
    raw[28] = 0xFF  # first id byte, after magic, version, N, D and the id length
    open(p, "wb").write(bytes(raw))
    with pytest.raises(ValueError, match=re.escape("%s: bad UTF-8 at byte offset 28" % p)):
        load_reps(p)


def test_rep_trailing_bytes_rejected(tmp_path):
    p = str(tmp_path / "long.repr")
    save_reps(_rep(["a", "b"], np.ones((2, 3))), p)
    size = len(open(p, "rb").read())
    with open(p, "ab") as f:
        f.write(b"junk")
    with pytest.raises(ValueError, match=re.escape(
            "%s: 4 trailing bytes at byte offset %d" % (p, size))):
        load_reps(p)


def test_rep_duplicate_id_rejected(tmp_path):
    p = str(tmp_path / "dup.repr")
    save_reps(_rep(["s1", "s2", "s1"], np.arange(6.0).reshape(3, 2)), p)
    with pytest.raises(ValueError, match=re.escape("%s: duplicate id 's1'" % p)):
        load_reps(p)


@pytest.mark.parametrize("value", (np.nan, np.inf, -np.inf))
def test_rep_non_finite_row_rejected(tmp_path, value):
    p = str(tmp_path / "nan.repr")
    rows = np.ones((3, 2))
    rows[1, 1] = value
    save_reps(_rep(["s1", "s2", "s3"], rows), p)
    with pytest.raises(ValueError, match=re.escape("%s: non-finite value in row 's2'" % p)):
        load_reps(p)


def test_rep_bad_magic(tmp_path):
    p = str(tmp_path / "bad.bin")
    with open(p, "wb") as f:
        f.write(b"XXXX" + b"\x00" * 24)
    with pytest.raises(ValueError, match="magic"):
        load_reps(p)


def test_sha256_sensitive_to_rows_and_ids():
    a = _rep(["x"], [[1.0, 2.0]])
    b = _rep(["x"], [[1.0, 2.5]])
    c = _rep(["y"], [[1.0, 2.0]])
    assert len({a.sha256(), b.sha256(), c.sha256()}) == 3


def test_extract_reps_from_model():
    vocab = Vocab(["tok%d" % i for i in range(5)])
    model = REModel(vocab, ("a", "b"), desk_input_config(), EncoderConfig(kind="boe"))
    sents = [make_sentence([2, 0, 2], sid="s%d" % i) for i in range(3)]
    rep = extract_reps(model, sents)
    assert rep.rows.shape == (3, model.rep_dim)
    assert rep.source == "encoder:boe"
    assert rep.ids == ("s0", "s1", "s2")


# -------------------------------------------------------------- baselines

def test_length_and_argdist_features():
    s = make_sentence([2, 0, 2, 2, 2])
    assert baseline_reps("length", [s]).rows.tolist() == [[5.0]]
    assert baseline_reps("argdist", [s]).rows.tolist() == [[3.0]]


def test_boe_baseline_needs_table():
    s = make_sentence([2, 0, 2])
    for sentences in ([s], []):
        with pytest.raises(ValueError, match="table"):
            baseline_reps("boe", sentences)
    table = random_embeddings(s.tokens, 4, seed=0)
    feat = baseline_reps("boe", [s], table).rows[0]
    expected = sum(table.lookup(t) for t in s.tokens)
    np.testing.assert_allclose(feat, expected, rtol=1e-6)


def test_unknown_baseline():
    for sentences in ([make_sentence([0])], []):
        with pytest.raises(ValueError, match="unknown baseline"):
            baseline_reps("tfidf", sentences)


# ----------------------------------------------------------------- probes

def _tape_fit_softmax(x, y, n_classes, l2, lr=0.1, max_epochs=500, tol=1e-6,
                      init_seed=None):
    """Reference fit: the same loss and Adam steps, differentiated by the
    autodiff tape, with `w` and `b` as two parameters of their own."""
    d = x.shape[1]
    if init_seed is None:
        w0 = np.zeros((d, n_classes))
        b0 = np.zeros(n_classes)
    else:
        rng = np.random.default_rng(init_seed)
        w0 = rng.normal(0, 0.01, size=(d, n_classes))
        b0 = rng.normal(0, 0.01, size=n_classes)
    w = ad.param(w0)
    b = ad.param(b0)
    params = {"w": w, "b": b}
    opt = Adam(lr)
    mask = y >= 0
    xt = ad.constant(x[mask])
    y_fit = y[mask]
    prev = np.inf
    loss_val = np.inf
    epochs, converged = 0, False
    for epochs in range(1, max_epochs + 1):
        w.zero_grad()
        b.zero_grad()
        loss = ad.cross_entropy_logits(ad.linear(xt, w, b), y_fit)
        if l2:
            loss = ad.add(loss, scale(ad.sum_all(ad.mul(w, w)), l2))
        loss.backward()
        opt.step(params)
        loss_val = loss.item()
        if abs(prev - loss_val) < tol:
            converged = True
            break
        prev = loss_val
    return w.data.copy(), b.data.copy(), loss_val, epochs, converged


# c = 12: numpy sums a row of 9 or more classes pairwise, not in sequence
@pytest.mark.parametrize("n,d,c,unlabeled", [(1, 3, 2, False), (40, 5, 1, False),
                                             (60, 6, 4, True), (25, 1, 3, True),
                                             (80, 5, 12, True)])
@pytest.mark.parametrize("init_seed", (None, 7))
def test_fit_softmax_bitwise_equals_tape_fit(n, d, c, unlabeled, init_seed):
    rng = np.random.default_rng(n * 100 + d * 10 + c)
    x = rng.normal(size=(n, d)).astype(np.float32)
    y = rng.integers(0, c, size=n)
    if unlabeled:
        y[::3] = -1
    for dtype in (np.float32, np.float64):
        for l2 in probing.L2_GRID:
            with ad.use_dtype(dtype):
                want = _tape_fit_softmax(x, y, c, l2, init_seed=init_seed)
                got, = probing._fit_softmax(x, [y], c, [l2], init_seed=init_seed)
            assert got[0].dtype == got[1].dtype == dtype
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()
            assert got[2:] == want[2:]


@pytest.mark.parametrize("dtype", (np.float32, np.float64))
@pytest.mark.parametrize("init_seed", (None, 7))
def test_stacked_fits_equal_tape_fits(dtype, init_seed):
    """Every member of a stack (two tasks times the whole l2 grid, with
    unlabelled rows) equals its own taped fit, whichever epoch it leaves at."""
    rng = np.random.default_rng(12)
    x = rng.normal(size=(40, 5)).astype(np.float32)
    unlabeled = rng.random(40) < 0.25
    penalized = [l2 for l2 in probing.L2_GRID if l2]
    assert len(penalized) == len(probing.L2_GRID) - 1  # the grid holds 0.0
    left_at, converged = set(), set()
    for c in (1, 3, 12):
        ys = [np.where(unlabeled, -1, rng.integers(0, c, size=40)) for _ in range(2)]
        for grid in ((0.0,), penalized):
            members = [(y, l2) for y in ys for l2 in grid]
            with ad.use_dtype(dtype):
                got = probing._fit_softmax(x, [y for y, _ in members], c,
                                           [l2 for _, l2 in members], max_epochs=80,
                                           init_seed=init_seed)
                for (y, l2), fit in zip(members, got):
                    want = _tape_fit_softmax(x, y, c, l2, max_epochs=80, init_seed=init_seed)
                    assert fit[0].dtype == fit[1].dtype == dtype
                    assert fit[0].tobytes() == want[0].tobytes()
                    assert fit[1].tobytes() == want[1].tobytes()
                    assert fit[2:] == want[2:]
                    assert math.copysign(1.0, fit[2]) == math.copysign(1.0, want[2])  # -0.0
                    left_at.add(fit[3])
                    converged.add(fit[4])
    assert len(left_at) > 5 and 80 in left_at and converged == {True, False}


def _per_fit_probe(reps, task, grid, standardize):
    """train_probe from one one-member stack per l2, the way each probe was
    fitted before fits were stacked: the reference for the grouping."""
    index = {l: i for i, l in enumerate(task.labels)}
    xs, ys = {}, {}
    for split in ("train", "validation", "test"):
        xs[split] = np.stack([reps[split].row_for(sid) for sid, _ in task.splits[split]])
        ys[split] = np.asarray([index.get(l, -1) for _, l in task.splits[split]])
    if standardize:
        mu, sd = xs["train"].mean(axis=0), xs["train"].std(axis=0)
        sd[sd == 0] = 1.0
        xs = {k: (v - mu) / sd for k, v in xs.items()}
    best = None
    for l2 in sorted(grid):
        (w, b, _, epochs, converged), = probing._fit_softmax(xs["train"], [ys["train"]],
                                                             len(task.labels), [l2])
        val = float(np.mean(np.argmax(xs["validation"] @ w + b, axis=1) == ys["validation"]))
        if best is None or val > best[0]:
            best = (val, l2, w, b, epochs, converged)
    val, l2, w, b, epochs, converged = best
    test = float(np.mean(np.argmax(xs["test"] @ w + b, axis=1) == ys["test"]))
    return probing.ProbeResult(task=task.task, source=reps["train"].source, chosen_l2=l2,
                               val_accuracy=val, test_accuracy=test, epochs=epochs,
                               converged=converged)


@pytest.mark.parametrize("standardize", (False, True))
def test_run_suite_equals_per_fit_probes(small_corpus, standardize):
    """Stacked suites give every ProbeResult field of the per-fit path, also
    for tasks with unlabelled train items or their train items reordered."""
    corpus = small_corpus
    tasks = probegen.build_tasks(["SentLen", "ArgDist", "EntExist", "SDPTreeDepth", "ArgOrd",
                                  "PosHeadR", "PosTailL"], corpus)
    sent_len, pos = tasks[0], tasks[-1]
    tasks.append(replace(pos, task="PosPartial", labels=pos.labels[1:]))
    tasks.append(replace(sent_len, task="SentLenReversed",
                         splits={**sent_len.splits, "train": sent_len.splits["train"][::-1]}))
    splits = {"train": corpus.train, "validation": corpus.validation, "test": corpus.test}
    table = random_embeddings({t for s in corpus.all_sentences() for t in s.tokens}, 6, 0)
    sources = [(kind, {sp: baseline_reps(kind, ss, table) for sp, ss in splits.items()})
               for kind in ("length", "boe")]
    grid = (0.0, 0.01, 1.0)
    got = run_suite(sources, tasks, grid=grid, standardize=standardize)
    assert got == [_per_fit_probe(reps, task, grid, standardize)
                   for _, reps in sources for task in tasks]


@pytest.mark.parametrize("train", ("empty", "unlabelled"))
def test_probe_without_a_labelled_train_item_names_the_task(train):
    reps, task = _separable_setup()
    items = () if train == "empty" else tuple((sid, "zzz") for sid, _ in task.splits["train"])
    bad = replace(task, task="Bad", splits={**task.splits, "train": items})
    with pytest.raises(ValueError, match="^task Bad: no train item"):
        train_probe(reps, bad)
    with pytest.raises(ValueError, match="^task Bad: no train item"):
        run_suite([("enc", reps)], [task, bad])


def test_probes_fit_without_the_tape(monkeypatch):
    def no_tape(self):
        raise AssertionError("probe fit used the autodiff tape")

    monkeypatch.setattr(ad.Tensor, "backward", no_tape)
    sources, tasks = _suite_inputs()
    assert len(run_suite(sources, tasks, grid=(0.0, 0.1))) == 4
    reps, task = _separable_setup()
    assert train_probe(reps, task).test_accuracy == 1.0


@pytest.mark.parametrize("lr", (0.0, -0.1))
def test_probe_lr_must_be_positive(lr):
    reps, task = _separable_setup()
    with pytest.raises(ValueError, match="lr must be positive"):
        train_probe(reps, task, lr=lr)


def test_fit_softmax_builds_no_tensor_and_steps_no_optimizer(monkeypatch):
    """The fit updates arrays it owns: no autodiff.Tensor, no Optimizer.step.
    The taped reference fit shows that the counters see both."""
    calls = []
    init, step = ad.Tensor.__init__, Optimizer.step

    def counting_init(self, *args, **kwargs):
        calls.append("Tensor")
        init(self, *args, **kwargs)

    def counting_step(self, params):
        calls.append("step")
        step(self, params)

    monkeypatch.setattr(ad.Tensor, "__init__", counting_init)
    monkeypatch.setattr(Optimizer, "step", counting_step)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(30, 4)).astype(np.float32)
    y = rng.integers(0, 3, size=30)
    _tape_fit_softmax(x, y, 3, 0.1, max_epochs=2)
    assert calls.count("step") == 2 and "Tensor" in calls
    del calls[:]
    fits = probing._fit_softmax(x, [y] * 6, 3, probing.L2_GRID[1:], max_epochs=200)
    assert len({epochs for _, _, _, epochs, _ in fits}) > 1  # members left the stack
    assert calls == []


def _toy_task(ids_by_split, labels_by_split, task="Toy", labels=None):
    splits = {name: tuple(zip(ids_by_split[name], labels_by_split[name]))
              for name in ("train", "validation", "test")}
    labels = labels or tuple(sorted(set(labels_by_split["train"])))
    return probegen.ProbingDataset(task=task, labels=labels, splits=splits)


def _separable_setup(n=60, d=4, seed=0, flip=0.0):
    """Two linearly separable gaussian blobs per split."""
    rng = np.random.default_rng(seed)
    reps, ids, labs = {}, {}, {}
    for split, m in (("train", n), ("validation", n // 2), ("test", n // 2)):
        y = rng.integers(0, 2, size=m)
        x = rng.normal(size=(m, d)) * 0.1
        x[:, 0] += np.where(y == 1, 3.0, -3.0)
        sid = ["%s-%d" % (split, i) for i in range(m)]
        reps[split] = _rep(sid, x)
        ids[split] = sid
        if flip > 0:
            y = np.where(rng.random(m) < flip, 1 - y, y)
        labs[split] = ["pos" if v else "neg" for v in y]
    return reps, _toy_task(ids, labs)


def test_probe_separable_reaches_one():
    reps, task = _separable_setup()
    res = train_probe(reps, task)
    assert res.val_accuracy == 1.0
    assert res.test_accuracy == 1.0
    assert res.converged and 1 < res.epochs < 500


def test_probe_reports_a_fit_capped_by_max_epochs():
    reps, task = _separable_setup()
    capped = train_probe(reps, task, max_epochs=1)
    assert (capped.epochs, capped.converged) == (1, False)
    x, y = np.asarray(reps["train"].rows), np.zeros(60, dtype=np.int64)
    assert probing._fit_softmax(x, [y], 2, [0.0], max_epochs=1)[0][3:] == (1, False)
    assert probing._fit_softmax(x, [y], 2, [0.0], max_epochs=0)[0][3:] == (0, False)


@pytest.mark.parametrize("grid,bad", (((), "empty l2 grid"), ((float("nan"),), "got nan"),
                                      ((0.01, float("inf")), "got inf"), ((-0.5, 0.01), "got -0.5")))
def test_probe_rejects_a_bad_l2_grid(grid, bad):
    reps, task = _separable_setup()
    with pytest.raises(ValueError, match=bad):
        train_probe(reps, task, grid=grid)


def test_probe_random_labels_near_chance():
    rng = np.random.default_rng(1)
    reps, ids, labs = {}, {}, {}
    for split, m in (("train", 1000), ("validation", 1000), ("test", 1000)):
        sid = ["%s-%d" % (split, i) for i in range(m)]
        reps[split] = _rep(sid, rng.normal(size=(m, 6)))
        ids[split] = sid
        labs[split] = ["a" if v else "b" for v in rng.integers(0, 2, size=m)]
    res = train_probe(reps, _toy_task(ids, labs), grid=(0.0, 0.1), max_epochs=100)
    assert abs(res.test_accuracy - 0.5) < 0.05


def test_probe_tie_prefers_smaller_l2():
    reps, task = _separable_setup()
    res = train_probe(reps, task, grid=(10.0, 0.0, 1e-3))
    # every grid point separates the blobs perfectly; smallest l2 wins
    assert res.chosen_l2 == 0.0


def test_probe_chooses_by_validation_accuracy():
    reps, task = _separable_setup()
    res = train_probe(reps, task, grid=probing.L2_GRID)
    # exhaustive check of the argmax property against a manual sweep
    accs = {l2: train_probe(reps, task, grid=(l2,)).val_accuracy
            for l2 in probing.L2_GRID}
    assert res.val_accuracy == max(accs.values())
    assert accs[res.chosen_l2] == res.val_accuracy


def test_probe_unseen_label_never_correct():
    reps, ids, labs = {}, {}, {}
    rng = np.random.default_rng(2)
    for split, m in (("train", 20), ("validation", 10), ("test", 10)):
        sid = ["%s-%d" % (split, i) for i in range(m)]
        reps[split] = _rep(sid, rng.normal(size=(m, 3)))
        ids[split] = sid
        labs[split] = ["a"] * m
    labs["test"] = ["zzz"] * 10  # label absent from train
    task = _toy_task(ids, labs, labels=("a",))
    res = train_probe(reps, task)
    assert res.test_accuracy == 0.0


def test_probe_standardize_scaling_invariance():
    reps, task = _separable_setup(seed=3, flip=0.2)
    scaled = {k: _rep(r.ids, r.rows * 1000.0, r.source) for k, r in reps.items()}
    a = train_probe(reps, task, grid=(0.0,), standardize=True)
    b = train_probe(scaled, task, grid=(0.0,), standardize=True)
    assert a.val_accuracy == b.val_accuracy
    assert a.test_accuracy == b.test_accuracy


def test_probe_init_seed_convexity():
    """The regularized objective is convex, so different inits land on the
    same optimum (accuracies match across random restarts)."""
    reps, task = _separable_setup(seed=4, flip=0.15)
    base = train_probe(reps, task, grid=(1e-2,), max_epochs=2000, tol=1e-9)
    for init_seed in (1, 2):
        other = train_probe(reps, task, grid=(1e-2,), max_epochs=2000, tol=1e-9,
                            init_seed=init_seed)
        assert abs(other.val_accuracy - base.val_accuracy) <= 1e-4 + 1e-12


def test_probe_empty_grid():
    reps, task = _separable_setup()
    with pytest.raises(ValueError, match="grid"):
        train_probe(reps, task, grid=())


# ------------------------------------------------------------------ suite

def _suite_inputs():
    reps_a, task1 = _separable_setup(seed=5)
    task2 = probegen.ProbingDataset(task="Toy2", labels=task1.labels,
                                    splits=task1.splits)
    reps_b = {k: _rep(r.ids, r.rows + 1.0, "baseline:length")
              for k, r in reps_a.items()}
    sources = [("enc", reps_a), ("len", reps_b)]
    return sources, [task1, task2]


def test_run_suite_covers_all_pairs():
    sources, tasks = _suite_inputs()
    results = run_suite(sources, tasks)
    assert len(results) == 4
    assert [(r.source, r.task) for r in results] == [
        ("test", "Toy"), ("test", "Toy2"),
        ("baseline:length", "Toy"), ("baseline:length", "Toy2")]


def test_run_suite_stacks_fits_by_source_and_l2_flag(monkeypatch):
    """Tasks with the same train items and class count share a stack per
    source; l2 == 0 runs apart from the other values."""
    calls = []
    fit = probing._fit_softmax

    def spy(x, ys, n_classes, l2s, **kwargs):
        calls.append((len(ys), sorted(l2s)))
        return fit(x, ys, n_classes, l2s, **kwargs)

    monkeypatch.setattr(probing, "_fit_softmax", spy)
    sources, tasks = _suite_inputs()
    run_suite(sources, tasks, grid=(1.0, 0.0, 0.1))
    assert calls == [(2, [0.0, 0.0]), (4, [0.1, 0.1, 1.0, 1.0])] * 2


def test_run_suite_parallel_matches_serial():
    sources, tasks = _suite_inputs()
    assert run_suite(sources, tasks, jobs=3) == run_suite(sources, tasks, jobs=1)


def test_suite_table_and_renderers():
    sources, tasks = _suite_inputs()
    results = run_suite(sources, tasks)
    header, rows = suite_table(results, sources, tasks)
    assert header == ["source", "Toy", "Toy2"]
    assert [r[0] for r in rows] == ["enc", "len"]
    csv = render_csv(header, rows)
    assert csv.startswith("source,Toy,Toy2\n")
    txt = render_text_table(header, rows)
    assert "source" in txt.splitlines()[0]
    assert len(txt.splitlines()) == 4


def test_baseline_reps_shapes():
    sents = [make_sentence([2, 0, 2, 2], sid="x%d" % i) for i in range(4)]
    rep = baseline_reps("length", sents)
    assert rep.rows.shape == (4, 1)
    assert rep.source == "baseline:length"
    # an empty split, as a corpus without validation.jsonl has
    table = random_embeddings([], 5)
    for kind, d in (("length", 1), ("argdist", 1), ("boe", 5)):
        empty = baseline_reps(kind, [], table)
        assert empty.rows.shape == (0, d) and empty.rows.dtype == np.float32
        assert empty.ids == ()
