"""The probing baselines and the column tasks: the REPR bytes of
baseline_reps pinned on two synth corpora, and baseline_reps and
probegen.column_values against the per-sentence oracles of
reference_columns."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from relprobe import probing, synth
from relprobe.corpus import EmbeddingTable, Span, load_embeddings, random_embeddings
from relprobe.probegen import COLUMN_TASKS, column_values
from relprobe.probing import BASELINES, baseline_reps, save_reps

from conftest import make_sentence
from reference_columns import baseline_features, extract


def _tacred_corpus():
    return synth.generate(synth.SynthConfig(
        n_train=200, n_val=50, n_test=50,
        templates=synth.default_templates() + synth.type_pair_templates(),
        lexicons=synth.default_lexicons(), seed=27, pad_max=8))


def _semeval_corpus():
    return synth.generate(synth.SynthConfig(
        n_train=200, n_val=50, n_test=50, templates=synth.default_templates(),
        lexicons=synth.default_lexicons(), seed=20, pad_max=8))


def _corpus_tokens(corpus):
    return sorted({t for s in corpus.all_sentences() for t in s.tokens})


def _write_embeddings(path, tokens, dim, seed):
    """An embeddings file of every other token of `tokens`, the first of them
    all -0.0, and one token of none of them."""
    rng = np.random.default_rng(seed)
    kept = tokens[::2] + ["<absent-from-corpus>"]
    with open(path, "w", encoding="utf-8") as f:
        for i, tok in enumerate(kept):
            values = ["-0.0"] * dim if i == 0 else ["%.6g" % v for v in rng.normal(0, 1, dim)]
            f.write("%s %s\n" % (tok, " ".join(values)))


def _pinned_tables(tmp_path):
    """(corpus, table) per pinned corpus: a random table for the tacred
    corpus, a load_embeddings file for the semeval one."""
    tacred, semeval = _tacred_corpus(), _semeval_corpus()
    path = tmp_path / "emb.txt"
    _write_embeddings(path, _corpus_tokens(semeval), 8, 4)
    return {"tacred": (tacred, random_embeddings(_corpus_tokens(tacred), 16, seed=3)),
            "semeval": (semeval, load_embeddings(str(path), 8))}


# sha256 of the save_reps file of each baseline and split on the corpora
# and tables of _pinned_tables
_PINNED = {
    "tacred": {
        "length/train": "8ee438e7117066c04d979ba9986547d22d90718622ddaa43b55902c8beeab8c0",
        "length/validation": "16614b3fb179e8c89d339140a639ae56161c8b9317d7cbdc592a029c113a4ccf",
        "length/test": "db9b02941d457b47fec10e64f04d1d57cd941b33bfea725d6a93af77840f3862",
        "argdist/train": "20be1ef05866d238b60392320edda80d5bd4fd9c944ab8b6277d6e8a7a7e4a20",
        "argdist/validation": "9de2c30c94def64b8dbe45e2e293d2f18bfb4521fd4bc652da62872a426bd0a1",
        "argdist/test": "b990adc768f3ac43457d9fddcea94acd8c346e41eaffc0e6392e02606b2701e9",
        "boe/train": "2b4b6b9d1974d3c787dc878f1066555ab63c723d32688f2bea40cfc9788becf2",
        "boe/validation": "5c0a9d69aa28c03f22cb296881b3c56b535d6d94150f30904bfc4607155f215e",
        "boe/test": "00f88eb4aaeb1abb40c9458049297350e5cd7b5bbe9b9061b4bbfce0523e5f26",
    },
    "semeval": {
        "length/train": "724fa617215f7fa92cc0abd0a5e78b978a10bd8eef141eae79fe4ef68d2e44da",
        "length/validation": "66762de060619cc68aa7da9aec76128dadf115267c0682d3a2eaaad15555358e",
        "length/test": "7a03a38c7125ed191da2971a5429b2de6066e310cda05e9aa1b543196c9da451",
        "argdist/train": "b016fad4cfee89f103a815ef5c2b7d476a9fe9563ad2fc308ce06116ad1a6520",
        "argdist/validation": "9124582ea5cc832eeb541a89c0d589c0cf5285da7f55c9d5b0237ed320cf8e92",
        "argdist/test": "2aed0c2fc7740d26a63fbfe99178225a56b54908f7b9990d70fe1e9df9a51f29",
        "boe/train": "db0064f3e8eea6a787ea7387f96d634772e6733da3646b273fb0b42ccd74f1bb",
        "boe/validation": "03ad54720410829ea35b46d4c2cc841ef155c9a965b9256f994a4b452c7bbe03",
        "boe/test": "3362f6893950a26be82de1f9ef227b04c85455d61a1b40ed241146262b0db887",
    },
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_baseline_files_are_pinned(tmp_path, name):
    corpus, table = _pinned_tables(tmp_path)[name]
    got = {}
    for kind in BASELINES:
        for split in ("train", "validation", "test"):
            path = tmp_path / ("%s-%s.repr" % (kind, split))
            save_reps(baseline_reps(kind, corpus.split(split), table), str(path))
            got["%s/%s" % (kind, split)] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == _PINNED[name]


# ------------------------------------------------- against the oracles

def _oracle_rows(kind, sentences, table=None):
    return np.stack([baseline_features(kind, s, table) for s in sentences]) if sentences \
        else np.zeros((0, table.dim if kind == "boe" else 1), np.float32)


def _assert_as_oracle(kind, sentences, table=None):
    rep = baseline_reps(kind, sentences, table)
    want = _oracle_rows(kind, sentences, table)
    assert rep.rows.dtype == np.float32 and rep.rows.shape == want.shape
    assert rep.rows.tobytes() == want.tobytes()
    assert rep.ids == tuple(s.id for s in sentences)


def _sentence(tokens, sid, head=None, tail=None):
    s = make_sentence([0] + [1] * (len(tokens) - 1), head=head, tail=tail, sid=sid)
    return replace(s, tokens=tuple(tokens))


def _table(vectors, dim, unk=None):
    """A table of the token -> row dict `vectors`; its unk row `unk`."""
    rows = list(vectors.values()) + [np.zeros(dim) if unk is None else unk]
    return EmbeddingTable(matrix=np.asarray(rows, dtype=np.float32).reshape(-1, dim),
                          index=dict(zip(vectors, range(len(vectors)))))


def _random_sentences(rng, n, vocab, max_len):
    """n sentences of 1..max_len tokens drawn from vocab, with tied lengths."""
    return [_sentence(rng.choice(vocab, int(rng.integers(1, max_len + 1))).tolist(), "r%d" % i)
            for i in range(n)]


_VOCAB = ["w%d" % i for i in range(30)] + ["unknown%d" % i for i in range(5)]


@pytest.mark.parametrize("dim", (1, 2, 3, 8, 300))
def test_boe_rows_equal_the_oracle(dim):
    """Known and unknown words, tied lengths, one-token sentences, and more
    sentences than one block, of lengths on both sides of numpy's pairwise
    summation block of 8 (a 1-wide table sums a column pairwise)."""
    rng = np.random.default_rng(dim)
    table = random_embeddings(_VOCAB[:30], dim, seed=dim)
    sentences = _random_sentences(rng, probing.BOE_BLOCK + 77, _VOCAB, 40)
    sentences += [_sentence(["w3"], "one"), _sentence(["unknown0"], "one-unknown")]
    _assert_as_oracle("boe", sentences, table)
    # scaled so that the order of the additions shows in the last bits
    table.matrix *= np.float32(10.0) ** rng.integers(-4, 5, size=table.matrix.shape)
    _assert_as_oracle("boe", sentences, table)


def test_boe_of_negative_zero_rows_is_positive_zero():
    neg = np.full(4, -0.0)
    table = _table({"z": neg, "y": neg, "a": np.arange(4.0)}, 4, unk=neg)
    sentences = [_sentence(tokens, "s%d" % i) for i, tokens in enumerate(
        (["z"], ["z", "y", "z"], ["absent", "z"], ["z", "a", "z"], ["a"]))]
    rows = baseline_reps("boe", sentences, table).rows
    assert not np.signbit(rows[:3]).any()
    _assert_as_oracle("boe", sentences, table)


@pytest.mark.parametrize("vectors", ({}, {"w0": np.linspace(-1.0, 1.0, 5)}),
                         ids=("empty", "one-token"))
def test_boe_small_tables_equal_the_oracle(vectors):
    table = _table(vectors, 5, unk=np.full(5, 0.25))
    assert len(table) == len(vectors)
    sentences = _random_sentences(np.random.default_rng(1), 40, _VOCAB, 12)
    _assert_as_oracle("boe", sentences, table)


def test_tables_from_both_constructors(tmp_path):
    """random_embeddings and load_embeddings build the matrix with the unk row
    last, the mean of the others, and zeros for a table of no tokens."""
    path = tmp_path / "emb.txt"
    path.write_text("b 1 2\na 3 4\nb 5 6\n")
    table = load_embeddings(str(path), 2)
    assert table.index == {"b": 0, "a": 1}
    assert table.matrix.tolist() == [[5, 6], [3, 4], [4, 5]]
    assert table.lookup("absent").tolist() == [4, 5] and table.unk_row == 2
    path.write_text("\n")
    for empty in (load_embeddings(str(path), 3), random_embeddings([], 3)):
        assert empty.matrix.tolist() == [[0, 0, 0]] and len(empty) == 0
    table = random_embeddings(["y", "x", "y"], 4, seed=2)
    assert list(table.index) == ["x", "y"] and table.matrix.dtype == np.float32
    np.testing.assert_array_equal(table.matrix[2], table.matrix[:2].mean(axis=0))


@pytest.mark.parametrize("kind", BASELINES)
def test_empty_split_equals_the_oracle(kind):
    _assert_as_oracle(kind, [], random_embeddings(["a"], 7))


def _spanned_sentences(rng, n):
    """Sentences of 2..12 tokens with random NE and POS tags and two random
    spans, one on each side of a random cut, in either order."""
    out = []
    for i in range(n):
        length = int(rng.integers(2, 13))
        cut = int(rng.integers(1, length))
        first = Span(*sorted(rng.integers(0, cut, size=2).tolist()))
        second = Span(*sorted(rng.integers(cut, length, size=2).tolist()))
        head, tail = (first, second) if rng.random() < 0.5 else (second, first)
        s = _sentence(["w%d" % j for j in range(length)], "p%d" % i, head, tail)
        out.append(replace(s, ner=tuple(rng.choice(["O", "O", "PER", "ORG"], length).tolist()),
                           pos=tuple(rng.choice(["NN", "VB", "DT", "IN"], length).tolist())))
    return out


@pytest.mark.parametrize("kind", ("length", "argdist"))
def test_length_and_argdist_equal_the_oracle(kind):
    _assert_as_oracle(kind, _spanned_sentences(np.random.default_rng(5), 300))
    _assert_as_oracle(kind, list(_tacred_corpus().train))


def test_column_values_equal_the_oracle():
    sentences = _spanned_sentences(np.random.default_rng(6), 500) + list(_tacred_corpus().train)
    spans = [(s.head, s.tail) for s in sentences]
    assert any(h.start == 0 for h, _ in spans) and any(t.start == 0 for _, t in spans)
    assert any(h.end == len(s) - 1 for s, (h, _) in zip(sentences, spans))
    assert any(t.end == len(s) - 1 for s, (_, t) in zip(sentences, spans))
    for task, got in zip(COLUMN_TASKS, column_values(sentences)):
        want = [extract(task, s) for s in sentences]
        assert got == want, task
        assert [type(v) for v in got] == [type(v) for v in want], task
    assert column_values([]) == tuple([] for _ in COLUMN_TASKS)
