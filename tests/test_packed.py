"""Packed Features: B sentences through one tape, against the per-sentence
forward pass they replaced (tests/reference_encoders.py).

Training runs each minibatch as one packed tape: at batch size 1 it is
bit-identical to per-sentence training in float32, and at batch size 8 it
matches it within 1e-10 in float64. Eval-mode passes take chunks of
EVAL_BATCH sentences; in float64 their rows equal the per-sentence ones
within 1e-10, and in float32 they move only by rounding.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

import reference_encoders as ref
import reference_trees
from reference_ops import reshape, scale
from relprobe import autodiff as ad
from relprobe import deptree
from relprobe.corpus import Corpus, Span, masked_tokens
from relprobe.encoders import EVAL_BATCH, EncoderConfig, InputConfig, REModel, Vocab
from relprobe.probing import extract_reps
from relprobe.training import HyperProfile, train_re
from relprobe.verify import op_checks

from conftest import make_sentence, random_parents

KINDS = ("cnn", "bilstm", "gcn", "attn", "boe")

# ------------------------------------------------------------ segment ops


def test_segment_ops_match_per_segment_ops():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(7, 3))
    starts = (0, 2, 7)
    w = rng.normal(size=(9, 4))  # k = 3: the first segment is one padded window
    mats = [rng.normal(size=(2, 2)), rng.normal(size=(5, 5))]
    with ad.use_dtype(np.float64):
        # one matmul over all windows rounds differently from one per segment
        np.testing.assert_allclose(ad.conv1d(x, w, starts=starts).data,
                                   np.concatenate([ad.conv1d(x[:2], w).data,
                                                   ad.conv1d(x[2:], w).data]),
                                   rtol=1e-12, atol=0)
        np.testing.assert_array_equal(ad.amax(x, starts=starts).data,
                                      [x[:2].max(axis=0), x[2:].max(axis=0)])
        np.testing.assert_array_equal(ad.sum_axis(x, starts=starts).data,
                                      [x[:2].sum(axis=0), x[2:].sum(axis=0)])
        np.testing.assert_array_equal(ad.segment_matmul(mats, x, starts).data,
                                      np.concatenate([mats[0] @ x[:2], mats[1] @ x[2:]]))


@pytest.mark.parametrize("op", ("conv1d", "amax", "sum_axis", "segment_matmul"))
def test_segment_ops_reject_an_empty_segment(op):
    x = ad.constant(np.ones((5, 2)))
    starts = (0, 2, 2, 5)
    call = {
        "conv1d": lambda: ad.conv1d(x, ad.constant(np.ones((4, 3))), starts=starts),
        "amax": lambda: ad.amax(x, starts=starts),
        "sum_axis": lambda: ad.sum_axis(x, starts=starts),
        "segment_matmul": lambda: ad.segment_matmul(
            [np.eye(2), np.eye(0), np.eye(3)], x, starts),
    }[op]
    with pytest.raises(ValueError, match="empty segment 1"):
        call()


def test_no_tape_records_nothing_and_computes_the_same():
    w = ad.param(np.arange(6.0).reshape(2, 3))
    taped = ad.relu(ad.matmul(ad.constant(np.ones((4, 2))), w))
    with ad.no_tape():
        free = ad.relu(ad.matmul(ad.constant(np.ones((4, 2))), w))
    assert free._parents == () and free._backward is None and not free.requires_grad
    assert taped._parents and taped.requires_grad
    np.testing.assert_array_equal(free.data, taped.data)
    ad.sum_all(ad.relu(ad.matmul(ad.constant(np.ones((4, 2))), w))).backward()
    assert w.grad is not None  # recording resumes after the block


def test_gradcheck_registry_covers_every_segment_op():
    results = op_checks()
    names = ("conv1d:segments", "conv1d:short-segments", "gather_rows:grouped",
             "amax:segments", "amax:wide", "sum_axis:segments", "segment_matmul",
             "lstm_sequence:segments", "lstm_sequence:segments:reverse",
             "lstm_sequence:segments:rmask", "multihead_attention:segments")
    assert set(names) <= set(results)
    assert max(results[n] for n in names) < 1e-6


# ------------------------------------------------------------- sentences

ENCODERS = {
    "cnn": EncoderConfig(kind="cnn", cnn_filters=4, cnn_sizes=(2, 3, 5)),
    "bilstm": EncoderConfig(kind="bilstm", lstm_layers=1, lstm_hidden=3),
    "gcn": EncoderConfig(kind="gcn", gcn_layers=2, gcn_dim=4, gcn_ff_layers=1, gcn_prune_k=1),
    "attn": EncoderConfig(kind="attn", attn_layers=1, attn_heads=2, attn_kv_dim=4,
                          attn_ff_dim=5, attn_model_dim=4, attn_dropout=0.0),
    "boe": EncoderConfig(kind="boe"),
}
LABELS = ("a", "b", "c")
CTX_DIM = 3


def _sentences(n):
    """n sentences: a 1-token one, 2-token ones shorter than the widest
    filter, and random trees with head and tail at the sentence ends."""
    rng = np.random.default_rng(7)
    out = [make_sentence([0], head=Span(0, 0), tail=Span(0, 0), sid="one"),
           make_sentence([0, 1], head=Span(0, 0), tail=Span(1, 1), sid="two")]
    while len(out) < n:
        t = int(rng.integers(3, 12))
        head, tail = (Span(0, 1), Span(t - 1, t - 1)) if len(out) % 2 else \
            (Span(t - 2, t - 1), Span(0, 0))
        out.append(make_sentence(random_parents(rng, t), head=head, tail=tail,
                                 sid="s%d" % len(out), relation=LABELS[len(out) % 3]))
    return out


def _contextual(sentences):
    rng = np.random.default_rng(8)
    return {s.id: rng.normal(size=(len(s), CTX_DIM)) for s in sentences}


def _model(kind, masking, enc_cfg=None, vocab=None, **dropout):
    cfg = InputConfig(word_dim=4, pos_dim=2, max_offset=3, masking=masking,
                      use_contextual=True, contextual_dim=CTX_DIM, **dropout)
    if vocab is None:
        vocab = Vocab(["tok%d" % i for i in range(0, 12, 2)] + ["SUBJ-O"])
    return REModel(vocab, LABELS, cfg, enc_cfg or ENCODERS[kind], seed=4)


@pytest.mark.parametrize("kind", KINDS)
def test_take_packs_as_featurize_batch(kind):
    sentences = _sentences(9)
    ctx = _contextual(sentences)
    model = _model(kind, masking=True)
    record = model.featurize_batch(sentences, [ctx[s.id] for s in sentences])
    for picked in ([4, 0, 7, 7, 2], range(2, 7)):  # a range takes views of its rows
        got = record.take(picked)
        want = model.featurize_batch([sentences[i] for i in picked],
                                     [ctx[sentences[i].id] for i in picked])
        for field in ("ids", "offsets", "ctx", "starts"):
            np.testing.assert_array_equal(getattr(got, field), getattr(want, field),
                                          err_msg=field)
        if kind == "gcn":
            for name, a, b in zip(("keep", "head", "tail"), got.graph, want.graph):
                np.testing.assert_array_equal(a, b, err_msg=name)
            for j, s in enumerate(sentences[i] for i in picked):
                _assert_graph_is_reference(got, j, ref.featurize(model, s, ctx[s.id]))


@pytest.mark.parametrize("masking", (False, True))
@pytest.mark.parametrize("kind", KINDS)
def test_featurize_batch_packs_per_sentence_features(kind, masking):
    sentences = _sentences(9)
    ctx = _contextual(sentences)
    model = _model(kind, masking)
    packed = model.featurize_batch(sentences, [ctx[s.id] for s in sentences])
    starts = packed.starts
    for i, s in enumerate(sentences):
        want = ref.featurize(model, s, ctx[s.id])
        rows = slice(starts[i], starts[i + 1])
        np.testing.assert_array_equal(packed.ids[rows], want.ids)
        for got, off in zip(packed.offsets, want.offsets):
            np.testing.assert_array_equal(got[rows], off)
        np.testing.assert_array_equal(packed.ctx[rows], want.ctx)
        if kind == "gcn":
            _assert_graph_is_reference(packed, i, want)


def _assert_same_features(got, want):
    """got and want hold the same arrays, field by field, byte for byte."""
    pairs = [("ids", got.ids, want.ids), ("starts", got.starts, want.starts),
             ("ctx", got.ctx, want.ctx)]
    assert len(got.offsets) == len(want.offsets)
    pairs += [("offsets", a, b) for a, b in zip(got.offsets, want.offsets)]
    assert (got.graph is None) == (want.graph is None)
    if got.graph is not None:
        *masks, adjs = got.graph
        *want_masks, want_adjs = want.graph
        assert len(adjs) == len(want_adjs)
        pairs += [("graph", a, b) for a, b in zip(masks + adjs, want_masks + want_adjs)]
    for field, a, b in pairs:
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), field


def _masking_cases(kind, small_corpus):
    """(model, sentences) pairs for masking on ids: spans on a sentence's
    and the pack's first and last tokens and a one-token sentence, a synth
    split under a vocabulary of half the masked training tokens, and for
    all but gcn the any-heads sentences of the masking oracle test."""
    from test_corpus import _masking_sentence

    masked_train = sorted({t for ts in masked_tokens(small_corpus.train) for t in ts})
    cases = [(_model(kind, masking=True), _sentences(12)),
             (_model(kind, masking=True, vocab=Vocab(masked_train[::2])), small_corpus.test)]
    if kind != "gcn":  # heads that are not one tree: gcn rejects them
        rng = np.random.default_rng(30)
        tags = ["%s-E%d" % (p, j) for p in ("SUBJ", "OBJ") for j in range(0, 16, 3)]
        vocab = Vocab(["tok%d" % j for j in range(0, 16, 2)] + tags)
        cases.append((_model(kind, masking=True, vocab=vocab),
                      [_masking_sentence(rng, i) for i in range(300)]))
    return cases


@pytest.mark.parametrize("kind", KINDS)
def test_masking_on_ids_equals_featurizing_masked_tokens(kind, small_corpus):
    """Masked featurize_batch, which masks on vocab ids, gives the Features
    of the masked_tokens strings byte for byte, also for tokens that are
    already masked, whose ids it leaves as they are; a mask token missing
    from the vocab reads as UNK on both paths."""
    for model, sentences in _masking_cases(kind, small_corpus):
        again = [dataclasses.replace(s, tokens=tokens)
                 for s, tokens in zip(sentences, masked_tokens(sentences))]
        ctx = _contextual(sentences)
        rows = [ctx[s.id] for s in sentences]
        got = model.featurize_batch(sentences, rows)
        want = model._featurize_tokens(sentences, rows, masked_tokens(sentences))
        _assert_same_features(got, want)
        assert (want.ids == model.vocab.stoi["<UNK>"]).any()
        twice = model.featurize_batch(again, rows)
        _assert_same_features(twice, model._featurize_tokens(again, rows, masked_tokens(again)))
        _assert_same_features(twice, got)


@pytest.mark.parametrize("kind", ("cnn", "gcn"))
@pytest.mark.parametrize("where", (0, 4))
def test_masked_featurization_names_dep_head_of_another_length(kind, where):
    sentences = _sentences(9)
    s = sentences[where]
    sentences[where] = dataclasses.replace(s, dep_head=s.dep_head + (1,))
    message = "^%d dep_head values for the %d tokens of sentence %s$" % (len(s) + 1, len(s), s.id)
    model = _model(kind, masking=True)
    with pytest.raises(ValueError, match=message):
        model.featurize_batch(sentences, [_contextual(sentences)[x.id] for x in sentences])


def _sentence_graph(features, i):
    """Sentence i's kept tokens, adjacency, and head and tail pooling rows
    (positions among its kept tokens), read off the packed token masks."""
    keep, head, tail, adjs = features.graph
    assert not (head & ~keep).any() and not (tail & ~keep).any()
    rows = slice(features.starts[i], features.starts[i + 1])
    kept = keep[rows]
    return (np.flatnonzero(kept), adjs[i],
            np.flatnonzero(head[rows][kept]), np.flatnonzero(tail[rows][kept]))


def _assert_graph_is_reference(features, i, want):
    kept, adj, heads, tails = _sentence_graph(features, i)
    want_kept, want_adj, want_heads, want_tails = want.graph
    np.testing.assert_array_equal(kept, want_kept)
    assert adj.dtype == want_adj.dtype and adj.tobytes() == want_adj.tobytes()
    np.testing.assert_array_equal(heads, want_heads)
    np.testing.assert_array_equal(tails, want_tails)


def _crossing(dep_head):
    """Whether two arcs of the tree cross (the tree is non-projective)."""
    arcs = [tuple(sorted((i, h - 1))) for i, h in enumerate(dep_head) if h]
    return any(a < c < b < d for a, b in arcs for c, d in arcs)


def _gcn_model(k):
    """A one-layer GCN over 2-wide word vectors that prunes at distance k."""
    return REModel(Vocab(["tok0"]), LABELS, InputConfig(word_dim=2, pos_dim=0),
                   EncoderConfig(kind="gcn", gcn_layers=1, gcn_dim=2, gcn_ff_layers=0,
                                 gcn_prune_k=k), seed=1)


@pytest.mark.parametrize("k", (0, 1, 2, math.inf))
def test_gcn_pools_are_never_empty(k):
    """Each span root is an SDP endpoint, so every k keeps a token of the
    head span and one of the tail span: random trees, non-projective ones
    among them, with spans of up to four tokens."""
    rng = np.random.default_rng(11)

    def span(t):
        start = int(rng.integers(t))
        return Span(start, min(start + int(rng.integers(4)), t - 1))

    sentences = []
    for i in range(200):
        t = int(rng.integers(2, 16))
        sentences.append(make_sentence(random_parents(rng, t), head=span(t), tail=span(t),
                                       sid="s%d" % i))
    assert sum(_crossing(s.dep_head) for s in sentences) > 50
    assert sum(len(s.head) > 1 and len(s.tail) > 1 for s in sentences) > 50
    model = _gcn_model(k)
    features = model.featurize_batch(sentences)
    for i, s in enumerate(sentences):
        kept, _, heads, tails = _sentence_graph(features, i)
        assert len(heads) and len(tails), s.id
        if k == math.inf:
            assert len(kept) == len(s)
    assert model.encode(features).data.shape == (len(sentences), 3 * 2)


def _gcn_sentences(rng, n):
    """Three 1-token sentences, then random trees (non-projective ones among
    them) whose spans cover span_root's cases, in turn: any two spans
    (which may overlap), a head span holding the sentence root, a multi-token
    head span whose root is its last token (each other token hangs off the
    next) and adjacent head and tail spans."""
    out = [make_sentence([0], sid="one%d" % i) for i in range(3)]

    def span(t):
        a, b = sorted(rng.integers(t, size=2).tolist())
        return Span(a, b)

    while len(out) < n:
        t = int(rng.integers(2, 16))
        heads, head, tail = random_parents(rng, t), span(t), span(t)
        case = len(out) % 4
        if case == 1:
            root = heads.index(0)
            head = Span(min(head.start, root), max(head.end, root))
        elif case == 2:
            heads[head.start:head.end] = range(head.start + 2, head.end + 2)
            if len(head) < 2 or deptree.head_problems(heads):
                continue
        elif case == 3:
            if head.end + 1 == t:
                continue
            tail = Span(head.end + 1, int(rng.integers(head.end + 1, t)))
        out.append(make_sentence(heads, head=head, tail=tail, sid="s%d" % len(out)))
    return out


@pytest.mark.parametrize("dtype", (np.float32, np.float64), ids=("float32", "float64"))
@pytest.mark.parametrize("k", (0, 1, 2, math.inf, None))
def test_gcn_graph_of_a_pack_matches_per_sentence_reference(k, dtype):
    """The kept, head and tail rows and the adjacency bytes of 50 packed
    sentences equal the per-sentence reference's and those of each sentence
    featurized alone (B = 1)."""
    sentences = _gcn_sentences(np.random.default_rng(12), EVAL_BATCH)
    overlap = [s.head.start <= s.tail.end and s.tail.start <= s.head.end for s in sentences]
    assert sum(overlap[3:]) > 5 and sum(map(_crossing, (s.dep_head for s in sentences))) > 5
    assert sum(s.dep_head.index(0) in s.head for s in sentences[3:]) > 10
    assert sum(len(s.head) > 1 and reference_trees.span_root(s.dep_head, s.head) == s.head.end
               for s in sentences) > 10
    assert sum(s.tail.start == s.head.end + 1 for s in sentences) > 10
    with ad.use_dtype(dtype):
        model = _gcn_model(k)
        packed = model.featurize_batch(sentences)
        for i, s in enumerate(sentences):
            want = ref.featurize(model, s)
            _assert_graph_is_reference(packed, i, want)
            alone = model.featurize_batch([s])
            _assert_graph_is_reference(alone, 0, want)
            rows = slice(packed.starts[i], packed.starts[i + 1])
            for one, many in zip(alone.graph[:3], packed.graph[:3]):
                np.testing.assert_array_equal(one, many[rows])
            assert alone.graph[3][0].tobytes() == packed.graph[3][i].tobytes()


BAD_HEADS = {"cycle": [2, 3, 2, 0], "out of range": [0, 7, 1], "negative": [0, -1, 1],
             "two roots": [0, 0, 1], "no root": [2, 3, 1]}


@pytest.mark.parametrize("case", sorted(BAD_HEADS))
def test_gcn_featurization_names_a_sentence_that_is_not_one_tree(case):
    """One bad dep_head inside a 50-sentence pack fails up front, naming the
    sentence and its head_problems, instead of looping or reading another
    sentence's rows."""
    sentences = _gcn_sentences(np.random.default_rng(13), EVAL_BATCH)
    heads = BAD_HEADS[case]
    sentences[17] = make_sentence(heads, sid="bad")
    model = _gcn_model(1)
    message = "sentence bad: %s" % "; ".join(deptree.head_problems(heads))
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        model.featurize_batch(sentences)


def test_gcn_featurization_rejects_dep_head_of_another_length():
    sentences = _sentences(9)
    sentences[4] = dataclasses.replace(sentences[4], dep_head=sentences[4].dep_head + (1,))
    with pytest.raises(ValueError, match="values for the %d tokens of sentence s4"
                       % len(sentences[4])):
        _gcn_model(1).featurize_batch(sentences)


def test_featurize_batch_rejects_contextual_rows_of_another_length():
    # packed, a short matrix would shift the next sentence's rows
    sentences = _sentences(3)
    rows = [np.zeros((len(s) + (i == 1), CTX_DIM)) for i, s in enumerate(sentences)]
    with pytest.raises(ValueError, match="contextual rows for the 2 tokens of sentence two"):
        _model("cnn", masking=False).featurize_batch(sentences, rows)


@pytest.mark.parametrize("masking", (False, True))
@pytest.mark.parametrize("kind", KINDS)
def test_packed_eval_matches_per_sentence_float64(kind, masking):
    sentences = _sentences(12)
    ctx = _contextual(sentences)
    with ad.use_dtype(np.float64):
        model = _model(kind, masking)
        features = model.featurize_batch(sentences, [ctx[s.id] for s in sentences])
        logits = model.logits(features).data
        reps = model.encode(features).data
        want = [ref.featurize(model, s, ctx[s.id]) for s in sentences]
        want_logits = np.stack([ref.logits(model, f).data for f in want])
        want_reps = np.stack([ref.encode(model, f).data for f in want])
    assert logits.shape == (len(sentences), len(LABELS))
    assert reps.shape == (len(sentences), model.rep_dim)
    np.testing.assert_allclose(logits, want_logits, rtol=0, atol=1e-10)
    np.testing.assert_allclose(reps, want_reps, rtol=0, atol=1e-10)


RECURRENT_AND_ATTENTION = {
    "bilstm:1": EncoderConfig(kind="bilstm", lstm_layers=1, lstm_hidden=3),
    "bilstm:2": EncoderConfig(kind="bilstm", lstm_layers=2, lstm_hidden=3),
    "attn:H1": EncoderConfig(kind="attn", attn_layers=2, attn_heads=1, attn_kv_dim=4,
                             attn_ff_dim=5, attn_model_dim=4, attn_dropout=0.0),
    "attn:H2": EncoderConfig(kind="attn", attn_layers=2, attn_heads=2, attn_kv_dim=4,
                             attn_ff_dim=5, attn_model_dim=4, attn_dropout=0.0),
}


@pytest.mark.parametrize("name", sorted(RECURRENT_AND_ATTENTION))
def test_packed_chunk_gradients_match_per_sentence_float64(name):
    """One packed tape over sentences of 1 to 11 tokens: logits,
    representations and every parameter gradient of the summed loss equal
    those of the per-sentence tapes."""
    sentences = _sentences(20)
    assert {len(s) for s in sentences} >= {1, 2} and max(map(len, sentences)) <= 11
    ctx = _contextual(sentences)
    labels = [i % len(LABELS) for i in range(len(sentences))]
    enc_cfg = RECURRENT_AND_ATTENTION[name]
    with ad.use_dtype(np.float64):
        model = _model(enc_cfg.kind, False, enc_cfg)
        features = model.featurize_batch(sentences, [ctx[s.id] for s in sentences])
        reps = model.encode(features).data
        logits = model.logits(features)
        scale(ad.cross_entropy_logits(logits, labels), len(sentences)).backward()
        packed = {k: p.grad.copy() for k, p in model.params.items()}
        model.zero_grads()
        want_reps, want_logits = [], []
        for s, y in zip(sentences, labels):
            f = ref.featurize(model, s, ctx[s.id])
            want_reps.append(ref.encode(model, f).data)
            out = ref.logits(model, f)
            want_logits.append(out.data)
            ad.cross_entropy_logits(reshape(out, (1, -1)), [y]).backward()  # gradients add up
    np.testing.assert_allclose(reps, np.stack(want_reps), rtol=0, atol=1e-10)
    np.testing.assert_allclose(logits.data, np.stack(want_logits), rtol=0, atol=1e-10)
    assert set(packed) == {k for k, p in model.params.items() if p.grad is not None}
    for k, p in model.params.items():
        np.testing.assert_allclose(packed[k], p.grad, rtol=0, atol=1e-10, err_msg=k)


@pytest.mark.parametrize("kind", KINDS)
def test_extract_reps_float32_matches_per_sentence(kind):
    sentences = _sentences(EVAL_BATCH + 7)  # two chunks
    ctx = _contextual(sentences)
    model = _model(kind, masking=True)
    rows = extract_reps(model, sentences, contextual=ctx).rows
    want = np.stack([ref.encode(model, ref.featurize(model, s, ctx[s.id])).data
                     for s in sentences])
    assert rows.dtype == np.float32 and rows.shape == want.shape
    err = np.linalg.norm(rows - want, axis=1)
    assert (err <= 1e-5 * np.linalg.norm(want, axis=1)).all()
    for s, row in zip(sentences, want):
        assert model.encode_np(s, ctx[s.id]).tobytes() == row.tobytes(), s.id


def test_extract_reps_runs_one_forward_pass_per_chunk(monkeypatch):
    sentences = _sentences(2 * EVAL_BATCH + 3)
    model = _model("cnn", masking=False)
    ctx = _contextual(sentences)
    sizes, parents = [], []
    real = REModel.encode

    def counting(self, features, train=False):
        sizes.append(len(features.starts) - 1)
        out = real(self, features, train)
        parents.append(out._parents)
        return out

    monkeypatch.setattr(REModel, "encode", counting)
    assert extract_reps(model, sentences, contextual=ctx).rows.shape[0] == len(sentences)
    assert sizes == [EVAL_BATCH, EVAL_BATCH, 3]
    assert parents == [(), (), ()]  # no tape kept


@pytest.mark.parametrize("name,op,per_chunk", (("bilstm:2", "lstm_sequence", 4),
                                               ("attn:H2", "multihead_attention", 2)))
def test_extract_reps_runs_each_fused_op_once_per_chunk(monkeypatch, name, op, per_chunk):
    sentences = _sentences(2 * EVAL_BATCH + 3)
    enc_cfg = RECURRENT_AND_ATTENTION[name]
    model = _model(enc_cfg.kind, False, enc_cfg)
    sizes = []
    real = getattr(ad, op)

    def counting(*args, **kwargs):
        sizes.append(len(kwargs["starts"]) - 1)
        return real(*args, **kwargs)

    monkeypatch.setattr(ad, op, counting)
    extract_reps(model, sentences, contextual=_contextual(sentences))
    assert sizes == [EVAL_BATCH] * per_chunk + [EVAL_BATCH] * per_chunk + [3] * per_chunk


# ------------------------------------------------------- training, float32

TRAIN_ENCODERS = {
    "cnn": EncoderConfig(kind="cnn", cnn_filters=6, cnn_sizes=(2, 3, 4), encoder_dropout=0.3),
    "bilstm": EncoderConfig(kind="bilstm", lstm_layers=2, lstm_hidden=5, recurrent_dropout=0.3,
                            encoder_dropout=0.3),
    "attn": EncoderConfig(kind="attn", attn_layers=2, attn_heads=2, attn_kv_dim=6,
                          attn_ff_dim=7, attn_model_dim=6, attn_dropout=0.2,
                          encoder_dropout=0.3),
    "gcn": EncoderConfig(kind="gcn", gcn_layers=2, gcn_dim=6, gcn_ff_layers=1, gcn_prune_k=1,
                         gcn_dropout=0.3, encoder_dropout=0.3),
    "boe": EncoderConfig(kind="boe", encoder_dropout=0.3),
}


@pytest.fixture(scope="module")
def corpus(small_corpus):
    """24 training sentences; 56 validation sentences, two eval chunks."""
    train = small_corpus.train
    return Corpus(train=train[:24], validation=train[24:] + small_corpus.validation,
                  test=small_corpus.test[:8], label_inventory=small_corpus.label_inventory,
                  negative_label=small_corpus.negative_label)


class _LoggingRng:
    """A seeded generator that logs the shape of every draw."""

    def __init__(self, seed):
        self.gen = np.random.default_rng(seed)
        self.shapes = []

    def random(self, shape):
        self.shapes.append(tuple(np.atleast_1d(shape).tolist()))
        return self.gen.random(shape)


def _one_sentence_draws(model, t_len, kept):
    """The shapes one sentence's train-mode pass draws, in order."""
    enc = model.enc_cfg
    shapes = [(t_len,), (t_len, model.input_cfg.width)]
    if enc.kind == "bilstm":
        shapes += [(1, enc.lstm_hidden)] * (2 * enc.lstm_layers)
    elif enc.kind == "gcn":
        shapes += [(kept, enc.gcn_dim)] * (enc.gcn_layers - 1)
    elif enc.kind == "attn":
        shapes += [(enc.attn_heads, t_len, t_len)] * enc.attn_layers
    return shapes + [(1, model.rep_dim)]


@pytest.mark.parametrize("kind", sorted(TRAIN_ENCODERS))
def test_packed_train_pass_draws_the_masks_of_per_sentence_passes(monkeypatch, kind):
    """One train-mode pass over B packed sentences draws what B passes of
    the per-sentence reference draw, in the same order and shapes, leaves
    the generator in the same state and applies the masks where they do."""
    sentences = _sentences(9)
    ctx = _contextual(sentences)
    plans = []
    real = REModel.dropout_masks

    def recording(self, lengths, kept=None):
        plans.append(real(self, lengths, kept))
        return plans[-1]

    monkeypatch.setattr(REModel, "dropout_masks", recording)
    with ad.use_dtype(np.float64):
        model = _model(kind, True, TRAIN_ENCODERS[kind], word_dropout=0.2,
                       embedding_dropout=0.3)
        features = model.featurize_batch(sentences, [ctx[s.id] for s in sentences])
        model.rng = packed_rng = _LoggingRng(9)
        logits = model.logits(features, train=True).data
        model.rng = reference_rng = _LoggingRng(9)
        want_logits = np.stack([ref.logits(model, ref.featurize(model, s, ctx[s.id]),
                                           train=True).data for s in sentences])
    kept = [len(ref.featurize(model, s, ctx[s.id]).graph[0]) if kind == "gcn" else 0
            for s in sentences]
    assert packed_rng.shapes == [shape for s, k in zip(sentences, kept)
                                 for shape in _one_sentence_draws(model, len(s), k)]
    assert reference_rng.shapes == packed_rng.shapes
    assert packed_rng.gen.bit_generator.state == reference_rng.gen.bit_generator.state
    packed, per_sentence = plans[0], plans[1:]
    assert len(per_sentence) == len(sentences)
    for site, mask in packed.items():
        parts = [plan[site] for plan in per_sentence]
        if site.startswith("attn"):
            assert [m.tobytes() for m in mask] == [m.tobytes() for m, in parts], site
        else:
            assert mask.tobytes() == np.concatenate(parts).tobytes(), site
    np.testing.assert_allclose(logits, want_logits, rtol=0, atol=1e-10)


def _train(corpus, kind, batch_size):
    input_cfg = InputConfig(word_dim=8, pos_dim=3, max_offset=5, masking=True,
                            word_dropout=0.1, embedding_dropout=0.2)
    profile = HyperProfile("t", "adam", 1e-2, 2, batch_size)
    model, history = train_re(corpus, input_cfg, TRAIN_ENCODERS[kind], profile, seed=3)
    return history.epochs, {k: p.data.copy() for k, p in model.params.items()}


def _assert_trains_as_reference(monkeypatch, corpus, kind):
    """Batch size 1, float32: the same bytes as per-sentence training.
    Batch size 8, float64: history and parameters within 1e-10."""
    assert ad.current_dtype() is np.float32
    runs = []
    for install in (False, True):
        with monkeypatch.context() as m:
            if install:
                ref.install(m)
            one = _train(corpus, kind, 1)
            with ad.use_dtype(np.float64):
                runs.append((one, _train(corpus, kind, 8)))
    (packed, packed64), (reference, reference64) = runs
    assert packed[0] == reference[0]
    assert {k: v.tobytes() for k, v in packed[1].items()} == \
        {k: v.tobytes() for k, v in reference[1].items()}
    assert len(packed64[0]) == len(reference64[0])
    for got, want in zip(packed64[0], reference64[0]):
        assert got.keys() == want.keys()
        np.testing.assert_allclose([got[k] for k in got], [want[k] for k in got],
                                   rtol=0, atol=1e-10)
    assert packed64[1].keys() == reference64[1].keys()
    for k, v in packed64[1].items():
        assert v.dtype == np.float64
        np.testing.assert_allclose(v, reference64[1][k], rtol=0, atol=1e-10, err_msg=k)


@pytest.mark.parametrize("kind", sorted(TRAIN_ENCODERS))
def test_training_is_bit_identical_to_per_sentence_reference(monkeypatch, corpus, kind):
    assert len(corpus.validation) > EVAL_BATCH
    _assert_trains_as_reference(monkeypatch, corpus, kind)


def test_training_without_a_validation_split_matches_reference(monkeypatch, corpus):
    # validation runs packed chunks of the training record
    _assert_trains_as_reference(monkeypatch, dataclasses.replace(corpus, validation=()), "cnn")


def test_train_re_runs_one_packed_tape_per_minibatch(monkeypatch, corpus):
    sizes, losses = [], []
    logits, backward = REModel.logits, ad.Tensor.backward

    def counting_logits(self, features, train=False):
        if train:
            sizes.append(len(features.starts) - 1)
        return logits(self, features, train)

    def counting_backward(self):
        losses.append(self)
        return backward(self)

    monkeypatch.setattr(REModel, "logits", counting_logits)
    monkeypatch.setattr(ad.Tensor, "backward", counting_backward)
    _train(corpus, "gcn", 10)
    assert len(corpus.train) == 24
    assert sizes == [10, 10, 4] * 2  # two epochs
    assert len(losses) == len(sizes)
    assert all(loss._parents == () for loss in losses)  # each tape freed
