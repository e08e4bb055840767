"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single PASS/FAIL line.
Run with `pytest -v tests/test_acceptance.py` (add -s to see the lines live).
"""

import os
import subprocess
import sys
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import relprobe
from relprobe import deptree, probegen, synth
from relprobe.corpus import random_embeddings
from relprobe.encoders import REModel, Vocab
from relprobe.probing import baseline_reps, extract_reps, train_probe
from relprobe.training import (desk_encoder_config, desk_input_config,
                               macro_f1_directional, micro_f1, presets,
                               train_re)
from relprobe.verify import gradcheck_all

import reference_trees
from conftest import random_parents


def report(n, ok, desc):
    print("criterion %2d: %s - %s" % (n, "PASS" if ok else "FAIL", desc))
    assert ok, "criterion %d failed: %s" % (n, desc)


# --------------------------------------------------------------- criterion 1

def test_criterion_1_gradcheck():
    start = time.time()
    results = gradcheck_all()
    elapsed = time.time() - start
    worst = max(results.values())
    ok = worst < 1e-4 and elapsed < 60.0
    report(1, ok, "gradcheck of %d ops/encoders, max err %.2e, %.1fs"
           % (len(results), worst, elapsed))


# --------------------------------------------------------------- criterion 2

def test_criterion_2_tree_oracles():
    """The per-sentence oracle and the packed passes the pipeline runs, each
    against Floyd-Warshall paths, tree depth and a BFS distance filter."""
    rng = np.random.default_rng(42)
    failures = 0
    for _ in range(1000):
        n = int(rng.integers(5, 41))
        dep_head = random_parents(rng, n)
        tree = reference_trees.build_tree(dep_head)
        a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
        a, b = min(a, b), max(a, b)
        res = reference_trees.sdp(tree, a, b)
        fw_path = reference_trees.floyd_warshall_path(dep_head, a, b)[0]
        parent, depth, _ = deptree.packed_trees(dep_head, np.array([0, n]))
        mask = deptree.path_mask(parent, depth, np.array([a]), np.array([b]))
        packed_sdp_depth = (mask.sum() - 1 + abs(depth[a] - depth[b])) // 2
        if list(res.path) != fw_path or np.flatnonzero(mask).tolist() != sorted(fw_path):
            failures += 1
            continue
        if res.depth > reference_trees.tree_depth(tree) or packed_sdp_depth > depth.max():
            failures += 1
            continue
        for k in (0, 1, 2):
            kept = reference_trees.bfs_filter(dep_head, res.path, k)
            if (reference_trees.prune(tree, res, k) != kept
                    or set(np.flatnonzero(deptree.grow(mask, parent, k)).tolist()) != kept):
                failures += 1
                break
    report(2, failures == 0,
           "1000 random trees: sdp/prune/depth and path_mask/grow/packed depth vs oracles,"
           " %d failures" % failures)


# ------------------------------------------------------- shared big corpus

@pytest.fixture(scope="module")
def big_corpus():
    cfg = synth.SynthConfig(n_train=2000, n_val=400, n_test=400,
                            templates=synth.default_templates(),
                            lexicons=synth.default_lexicons(), seed=5, pad_max=60)
    return synth.generate(cfg)


def _splits_reps(kind, corpus, table=None):
    return {name: baseline_reps(kind, corpus.split(name), table)
            for name in ("train", "validation", "test")}


# --------------------------------------------------------------- criterion 3

def test_criterion_3_trivial_baselines(big_corpus):
    accs = {}
    for kind, task_name in (("length", "SentLen"), ("argdist", "ArgDist")):
        task = probegen.build_tasks([task_name], big_corpus, "tacred")[0]
        reps = _splits_reps(kind, big_corpus)
        res = train_probe(reps, task, standardize=True, lr=0.5, max_epochs=2000)
        accs[task_name] = res.test_accuracy
    ok = all(a >= 0.99 for a in accs.values())
    report(3, ok, "trivial solvability: SentLen %.4f, ArgDist %.4f (>= 0.99)"
           % (accs["SentLen"], accs["ArgDist"]))


# --------------------------------------------------------------- criterion 4

def test_criterion_4_boe_argord_chance():
    cfg = synth.SynthConfig(n_train=600, n_val=100, n_test=250,
                            templates=(), lexicons=synth.default_lexicons(),
                            seed=11, pad_max=0)
    corpus = synth.generate_order_controlled(cfg)
    assert len(corpus.test) >= 500
    table = random_embeddings({t for s in corpus.all_sentences() for t in s.tokens},
                              16, seed=0)
    task = probegen.build_tasks(["ArgOrd"], corpus, "tacred")[0]
    res = train_probe(_splits_reps("boe", corpus, table), task)
    ok = abs(res.test_accuracy - 0.5) <= 0.05
    report(4, ok, "BoE on order-controlled ArgOrd: %.4f (0.50 +/- 0.05)"
           % res.test_accuracy)


# --------------------------------------------------------------- criterion 5

def test_criterion_5_overfit_sanity():
    cfg = synth.SynthConfig(n_train=64, n_val=16, n_test=16,
                            templates=synth.default_templates(),
                            lexicons=synth.default_lexicons(), seed=13, pad_max=4)
    corpus = synth.generate(cfg)
    corpus = replace(corpus, validation=corpus.train)  # track train F1 directly
    profile, _ = presets()["desk-small"]
    lines = []
    all_ok = True
    for kind in ("cnn", "bilstm", "gcn", "attn"):
        start = time.time()
        _, history = train_re(corpus, desk_input_config(), desk_encoder_config(kind),
                              profile, seed=0, early_stop_f1=0.99)
        elapsed = time.time() - start
        f1 = history.best_f1()
        ok = f1 >= 0.99 and len(history.epochs) <= 200 and elapsed < 300.0
        all_ok = all_ok and ok
        lines.append("%s %.3f/%ds" % (kind, f1, int(elapsed)))
    report(5, all_ok, "overfit train F1 >= 0.99 within 200 epochs: %s"
           % ", ".join(lines))


# --------------------------------------------------------------- criterion 6

def test_criterion_6_type_probes():
    cfg = synth.SynthConfig(n_train=512, n_val=128, n_test=256,
                            templates=synth.type_pair_templates(),
                            lexicons=synth.default_lexicons(), seed=21, pad_max=3)
    corpus = synth.generate(cfg)
    profile, _ = presets()["desk-small"]
    model, _ = train_re(corpus, desk_input_config(), desk_encoder_config("cnn"),
                        profile, seed=4, early_stop_f1=0.999)
    enc_reps = {name: extract_reps(model, corpus.split(name))
                for name in ("train", "validation", "test")}
    table = random_embeddings({t for s in corpus.all_sentences() for t in s.tokens},
                              16, seed=0)
    boe_reps = _splits_reps("boe", corpus, table)
    all_ok = True
    parts = []
    for task_name in ("TypeHead", "TypeTail"):
        task = probegen.build_tasks([task_name], corpus, "tacred")[0]
        enc = train_probe(enc_reps, task).test_accuracy
        boe = train_probe(boe_reps, task).test_accuracy
        ok = enc >= 0.90 and enc > boe
        all_ok = all_ok and ok
        parts.append("%s enc %.3f vs boe %.3f" % (task_name, enc, boe))
    report(6, all_ok, "; ".join(parts))


# --------------------------------------------------------------- criterion 7

def test_criterion_7_metric_fixtures():
    neg = "no_relation"
    p, r, f1 = micro_f1(["A", neg, neg, "A"], ["A", "A", neg, "B"], neg)
    micro_ok = (p, r, f1) == (0.5, 1.0 / 3.0, pytest.approx(0.4, abs=1e-15))
    a, b, o = "A(e1,e2)", "B(e1,e2)", "Other"
    golds = [a, a, a, a, b, b, b, b, o, o, o, o]
    preds = [a, a, b, o, b, b, a, o, a, b, o, o]
    macro = macro_f1_directional(preds, golds, "Other")
    macro_ok = abs(macro - 0.5) <= 1e-12
    flipped = macro_f1_directional(["A(e2,e1)"] * 4, ["A(e1,e2)"] * 4, "Other")
    flip_ok = flipped == 0.0
    report(7, micro_ok and macro_ok and flip_ok,
           "micro (%.3f, %.3f, %.3f); macro %.12f; wrong-direction %.1f"
           % (p, r, f1, macro, flipped))


# --------------------------------------------------------------- criterion 8

def test_criterion_8_binning_uniformity(big_corpus):
    lengths = [len(s) for s in big_corpus.train]
    distinct = len(set(lengths))
    task = probegen.build_tasks(["SentLen"], big_corpus, {"SentLen": 10})[0]
    masses = Counter(label for _, label in task.splits["train"])
    ratio = max(masses.values()) / min(masses.values())
    ok = distinct >= 50 and task.bin_spec.n_bins == 10 and ratio <= 2.0
    report(8, ok, "SentLen bins: %d distinct lengths, %d bins, mass ratio %.3f"
           % (distinct, task.bin_spec.n_bins, ratio))


# --------------------------------------------------------------- criterion 9

def test_criterion_9_suite_determinism(tmp_path):
    corpus_dir = str(tmp_path / "corpus")
    # the subprocesses import the same relprobe as this test
    src = os.path.dirname(os.path.dirname(relprobe.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=path)
    subprocess.run([sys.executable, "-m", "relprobe.cli", "synth",
                    "--out", corpus_dir, "--n-train", "60", "--n-val", "20",
                    "--n-test", "20", "--seed", "3", "--pad-max", "5"],
                   check=True, env=env, capture_output=True)
    outputs = []
    for run in (1, 2):
        out = str(tmp_path / ("run%d" % run))
        cfg = tmp_path / ("suite%d.cfg" % run)
        cfg.write_text("corpus = %s\nseed = 1\ntasks = SentLen,ArgDist,ArgOrd\n"
                       "sources = length,argdist,boe\ngrid = 0,0.01\n"
                       "out = %s\n" % (corpus_dir, out))
        proc = subprocess.run([sys.executable, "-m", "relprobe.cli", "suite",
                               "--config", str(cfg)],
                              env=env, capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(open(os.path.join(out, "suite.csv"), "rb").read())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    report(9, ok, "two suite runs, identical %d-byte suite.csv" % len(outputs[0]))


# -------------------------------------------------------------- criterion 10

def _swap_mentions(corpus):
    """Replace every mention string with a fresh surface form."""
    def fix(s):
        tokens = list(s.tokens)
        for span in (s.head, s.tail):
            for i in range(span.start, span.end + 1):
                tokens[i] = "swapped%d" % i
        return replace(s, tokens=tuple(tokens))
    return replace(corpus,
                   train=tuple(fix(s) for s in corpus.train),
                   validation=tuple(fix(s) for s in corpus.validation),
                   test=tuple(fix(s) for s in corpus.test))


def test_criterion_10_mask_independence():
    from relprobe.corpus import masked_tokens
    cfg = synth.SynthConfig(n_train=40, n_val=10, n_test=10,
                            templates=synth.default_templates(),
                            lexicons=synth.default_lexicons(), seed=17, pad_max=4)
    corpus = synth.generate(cfg)
    vocab = Vocab.from_tokens(masked_tokens(corpus.train))
    model = REModel(vocab, corpus.label_inventory,
                    desk_input_config(masking=True), desk_encoder_config("cnn"),
                    seed=0)
    before = extract_reps(model, corpus.all_sentences())
    after = extract_reps(model, _swap_mentions(corpus).all_sentences())
    ok = before.sha256() == after.sha256()
    report(10, ok, "masked representations unchanged by mention replacement "
           "(sha256 %s)" % ("equal" if ok else "differ"))
