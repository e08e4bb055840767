import re

import numpy as np
import pytest

from relprobe import autodiff as ad
from relprobe import probegen, probing, synth
from relprobe.corpus import random_embeddings
from relprobe.encoders import EncoderConfig
from relprobe.probing import (RepMatrix, baseline_features, baseline_reps,
                              extract_reps, load_reps, render_csv,
                              render_text_table, run_suite, save_reps,
                              suite_table, train_probe)
from relprobe.training import desk_input_config
from relprobe.encoders import REModel, Vocab
from relprobe.optim import Adam

from conftest import make_sentence


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
    assert baseline_features("length", s) == np.float32(5.0)
    assert baseline_features("argdist", s) == np.float32(3.0)


def test_boe_baseline_needs_table():
    s = make_sentence([2, 0, 2])
    with pytest.raises(ValueError, match="table"):
        baseline_features("boe", s)
    table = random_embeddings(s.tokens, 4, seed=0)
    feat = baseline_features("boe", s, table)
    expected = sum(table.lookup(t) for t in s.tokens)
    np.testing.assert_allclose(feat, expected, rtol=1e-6)


def test_unknown_baseline():
    with pytest.raises(ValueError, match="unknown baseline"):
        baseline_features("tfidf", make_sentence([0]))


# ----------------------------------------------------------------- probes

def _tape_fit_softmax(x, y, n_classes, l2, lr=0.1, max_epochs=500, tol=1e-6,
                      init_seed=None):
    """Reference fit: the same loss and Adam steps, differentiated by the
    autodiff tape."""
    d = x.shape[1]
    if init_seed is None:
        w0 = np.zeros((d, n_classes))
        b0 = np.zeros(n_classes)
    else:
        rng = np.random.default_rng(init_seed)
        w0 = rng.normal(0, 0.01, size=(d, n_classes))
        b0 = rng.normal(0, 0.01, size=n_classes)
    w = ad.param(w0, name="w")
    b = ad.param(b0, name="b")
    params = {"w": w, "b": b}
    opt = Adam(lr)
    mask = y >= 0
    xt = ad.constant(x[mask])
    y_fit = y[mask]
    prev = np.inf
    loss_val = np.inf
    for _ in range(max_epochs):
        w.zero_grad()
        b.zero_grad()
        loss = ad.cross_entropy_logits(ad.linear(xt, w, b), y_fit)
        if l2:
            loss = ad.add(loss, ad.scale(ad.sum_all(ad.mul(w, w)), l2))
        loss.backward()
        opt.step(params)
        loss_val = loss.item()
        if abs(prev - loss_val) < tol:
            break
        prev = loss_val
    return w.data.copy(), b.data.copy(), loss_val


@pytest.mark.parametrize("n,d,c,unlabeled", [(1, 3, 2, False), (40, 5, 1, False),
                                             (60, 6, 4, True), (25, 1, 3, True)])
@pytest.mark.parametrize("init_seed", (None, 7))
def test_fit_softmax_bitwise_equals_tape_fit(n, d, c, unlabeled, init_seed):
    rng = np.random.default_rng(n * 100 + d * 10 + c)
    x = rng.normal(size=(n, d)).astype(np.float32)
    y = rng.integers(0, c, size=n)
    if unlabeled:
        y[::3] = -1
    for l2 in probing.L2_GRID:
        want = _tape_fit_softmax(x, y, c, l2, init_seed=init_seed)
        got = probing._fit_softmax(x, y, c, l2, init_seed=init_seed)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        assert got[2] == want[2]


def test_probes_fit_without_the_tape(monkeypatch):
    def no_tape(self):
        raise AssertionError("probe fit used the autodiff tape")

    monkeypatch.setattr(ad.Tensor, "backward", no_tape)
    sources, tasks = _suite_inputs()
    assert len(run_suite(sources, tasks, grid=(0.0, 0.1))) == 4
    reps, task = _separable_setup()
    assert train_probe(reps, task).test_accuracy == 1.0


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
    assert probing._fit_softmax(x, y, 2, 0.0, max_epochs=1)[3:] == (1, False)
    assert probing._fit_softmax(x, y, 2, 0.0, max_epochs=0)[3:] == (0, False)


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
