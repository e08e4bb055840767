"""Packed Features: B sentences through one tape, against the per-sentence
forward pass they replaced (tests/reference_encoders.py).

Training passes one sentence at a time and must stay bit-identical in
float32. Eval-mode passes take chunks of EVAL_BATCH sentences; in float64
their rows equal the per-sentence ones within 1e-10, and in float32 they
move only by rounding.
"""

import dataclasses

import numpy as np
import pytest

import reference_encoders as ref
from relprobe import autodiff as ad
from relprobe.corpus import Corpus, Span
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
        np.testing.assert_array_equal(ad.amax(x, axis=0, starts=starts).data,
                                      [x[:2].max(axis=0), x[2:].max(axis=0)])
        np.testing.assert_array_equal(ad.sum_axis(x, axis=0, starts=starts).data,
                                      [x[:2].sum(axis=0), x[2:].sum(axis=0)])
        np.testing.assert_array_equal(ad.segment_matmul(mats, x, starts).data,
                                      np.concatenate([mats[0] @ x[:2], mats[1] @ x[2:]]))


@pytest.mark.parametrize("op", ("conv1d", "amax", "sum_axis", "segment_matmul"))
def test_segment_ops_reject_an_empty_segment(op):
    x = ad.constant(np.ones((5, 2)))
    starts = (0, 2, 2, 5)
    call = {
        "conv1d": lambda: ad.conv1d(x, ad.constant(np.ones((4, 3))), starts=starts),
        "amax": lambda: ad.amax(x, axis=0, starts=starts),
        "sum_axis": lambda: ad.sum_axis(x, axis=0, starts=starts),
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


@pytest.mark.parametrize("op", ("amax", "sum_axis", "segment_matmul"))
def test_lone_segment_is_byte_equal_to_the_whole_array_op(op):
    rng = np.random.default_rng(5)
    x_data = rng.normal(size=(6, 4)).astype(np.float32)
    m = rng.normal(size=(6, 6))
    lone = {"amax": lambda x: ad.amax(x, axis=0, starts=(0, 6)),
            "sum_axis": lambda x: ad.sum_axis(x, axis=0, starts=(0, 6)),
            "segment_matmul": lambda x: ad.segment_matmul([m], x, (0, 6))}[op]
    whole = {"amax": lambda x: ad.amax(x, axis=0),
             "sum_axis": lambda x: ad.sum_axis(x, axis=0),
             "segment_matmul": lambda x: ad.matmul(ad.constant(m), x)}[op]
    outs, grads, weights = [], [], None
    for fn in (lone, whole):
        x = ad.param(x_data.copy())
        out = fn(x)
        if weights is None:
            weights = rng.normal(size=out.shape)
        ad.sum_all(ad.mul(out, ad.constant(weights.reshape(out.shape)))).backward()
        outs.append(out.data.tobytes())
        grads.append(x.grad.tobytes())
    assert outs[0] == outs[1] and grads[0] == grads[1]


def test_gradcheck_registry_covers_every_segment_op():
    results = op_checks()
    names = ("conv1d:segments", "amax:segments", "sum_axis:segments", "segment_matmul",
             "lstm_sequence:segments", "lstm_sequence:segments:reverse",
             "multihead_attention:segments")
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


def _model(kind, masking, enc_cfg=None):
    cfg = InputConfig(word_dim=4, pos_dim=2, max_offset=3, masking=masking,
                      use_contextual=True, contextual_dim=CTX_DIM)
    vocab = Vocab(["tok%d" % i for i in range(0, 12, 2)] + ["SUBJ-O"])
    return REModel(vocab, LABELS, cfg, enc_cfg or ENCODERS[kind], seed=4)


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
            kept, kept_starts, adjs, heads, head_starts, tails, tail_starts = packed.graph
            lo, hi = kept_starts[i], kept_starts[i + 1]
            np.testing.assert_array_equal(kept[lo:hi] - starts[i], want.graph[0])
            np.testing.assert_array_equal(adjs[i], want.graph[1])
            for rows_, seg, w in ((heads, head_starts, want.graph[2]),
                                  (tails, tail_starts, want.graph[3])):
                np.testing.assert_array_equal(rows_[seg[i]:seg[i + 1]] - lo, w)


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
        ad.scale(ad.cross_entropy_logits(logits, labels), len(sentences)).backward()
        packed = {k: p.grad.copy() for k, p in model.params.items()}
        model.zero_grads()
        want_reps, want_logits = [], []
        for s, y in zip(sentences, labels):
            f = ref.featurize(model, s, ctx[s.id])
            want_reps.append(ref.encode(model, f).data)
            out = ref.logits(model, f)
            want_logits.append(out.data)
            ad.cross_entropy_logits(out, y).backward()  # gradients add up over sentences
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


def _train(corpus, kind):
    input_cfg = InputConfig(word_dim=8, pos_dim=3, max_offset=5, masking=True,
                            word_dropout=0.1, embedding_dropout=0.2)
    profile = HyperProfile("t", "adam", 1e-2, 2, 8)
    model, history = train_re(corpus, input_cfg, TRAIN_ENCODERS[kind], profile, seed=3)
    return history.epochs, {k: p.data.tobytes() for k, p in model.params.items()}


@pytest.mark.parametrize("kind", sorted(TRAIN_ENCODERS))
def test_training_is_bit_identical_to_per_sentence_reference(monkeypatch, corpus, kind):
    assert len(corpus.validation) > EVAL_BATCH
    assert ad.current_dtype() is np.float32
    packed = _train(corpus, kind)
    ref.install(monkeypatch)
    reference = _train(corpus, kind)
    assert packed[0] == reference[0]
    assert packed[1] == reference[1]


def test_training_without_a_validation_split_matches_reference(monkeypatch, corpus):
    # validation falls back to the training sentences, one at a time
    no_validation = dataclasses.replace(corpus, validation=())
    packed = _train(no_validation, "cnn")
    ref.install(monkeypatch)
    assert packed == _train(no_validation, "cnn")
