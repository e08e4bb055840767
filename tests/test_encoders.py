import math
from dataclasses import replace

import numpy as np
import pytest

from relprobe import autodiff as ad
from relprobe.corpus import Span, random_embeddings
from relprobe.encoders import (EncoderConfig, InputConfig, REModel, Vocab,
                               position_offsets)

from conftest import make_sentence


def _input_cfg(**kw):
    base = dict(word_dim=8, pos_dim=4, max_offset=5)
    base.update(kw)
    return InputConfig(**base)


def _model(kind="boe", input_cfg=None, seed=0, labels=("a", "b"), vocab_tokens=None, **enc_kw):
    enc_defaults = {
        "cnn": dict(cnn_filters=6, cnn_sizes=(2, 3)),
        "bilstm": dict(lstm_layers=1, lstm_hidden=5),
        "gcn": dict(gcn_layers=2, gcn_dim=6, gcn_ff_layers=1, gcn_prune_k=1),
        "attn": dict(attn_layers=1, attn_heads=2, attn_kv_dim=8, attn_ff_dim=10,
                     attn_model_dim=6, attn_dropout=0.0),
        "boe": {},
    }[kind]
    enc_defaults.update(enc_kw)
    vocab = Vocab(vocab_tokens or ["tok%d" % i for i in range(8)])
    return REModel(vocab, labels, input_cfg or _input_cfg(),
                   EncoderConfig(kind=kind, **enc_defaults), seed=seed)


# ----------------------------------------------------------------- inputs

def test_position_offsets_singleton_span():
    off = position_offsets(Span(2, 2), 5, clip=10)
    np.testing.assert_array_equal(off, [-2, -1, 0, 1, 2])


def test_position_offsets_clip_and_span_interior():
    off = position_offsets(Span(1, 3), 7, clip=2)
    np.testing.assert_array_equal(off, [-1, 0, 0, 0, 1, 2, 2])


def test_input_width():
    assert _input_cfg(word_dim=4, pos_dim=2).width == 8
    assert _input_cfg(use_contextual=True, contextual_dim=16).width == 8 + 8 + 16


def test_input_config_validation():
    with pytest.raises(ValueError):
        InputConfig(word_dim=0)
    with pytest.raises(ValueError):
        EncoderConfig(kind="transformer")
    with pytest.raises(ValueError):
        EncoderConfig(kind="attn", attn_heads=3, attn_kv_dim=8)


@pytest.mark.parametrize("k", (0, 1, 3, 2.0, math.inf, None))
def test_gcn_prune_k_takes_a_whole_number_or_inf(k):
    s = make_sentence([2, 0, 2, 3], head=Span(0, 0), tail=Span(2, 2))
    assert _model("gcn", gcn_prune_k=k).encode_np(s).shape == (6,)


@pytest.mark.parametrize("k", ("x", -1, 1.5, math.nan, -math.inf, True))
def test_gcn_prune_k_rejects_other_values(k):
    # 1.5 and nan once kept every token, "x" failed at featurization
    with pytest.raises(ValueError, match="gcn_prune_k must be a whole number >= 0 or inf"):
        EncoderConfig(kind="gcn", gcn_prune_k=k)


def test_vocab_reserved_ids():
    v = Vocab(["b", "a"])
    assert v.itos[0] == "<PAD>" and v.itos[1] == "<UNK>"
    assert list(v.ids(["a", "never-seen"])) == [v.stoi["a"], 1]


def test_embed_inputs_shape_and_pad_row():
    m = _model("boe")
    s = make_sentence([2, 0, 2, 2], head=Span(0, 0), tail=Span(3, 3))
    x = m.embed_inputs(m.featurize(s))
    assert x.shape == (4, m.input_cfg.width)
    np.testing.assert_array_equal(m.params["word_emb"].data[0], 0.0)


def test_contextual_rows_required_and_used():
    cfg = _input_cfg(use_contextual=True, contextual_dim=3)
    m = _model("boe", input_cfg=cfg)
    s = make_sentence([2, 0, 2], head=Span(0, 0), tail=Span(2, 2))
    with pytest.raises(ValueError, match="contextual"):
        m.featurize(s)
    ctx = np.arange(9, dtype=np.float32).reshape(3, 3)
    x = m.embed_inputs(m.featurize(s, ctx_row=ctx))
    np.testing.assert_allclose(x.data[:, -3:], ctx)


# --------------------------------------------------------------- encoders

ALL_KINDS = ("cnn", "bilstm", "gcn", "attn", "boe")


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_rep_dim_matches_output(kind):
    m = _model(kind)
    s = make_sentence([2, 0, 2, 2, 2], head=Span(0, 0), tail=Span(4, 4))
    rep = m.encode_np(s)
    assert rep.shape == (m.rep_dim,)
    assert np.isfinite(rep).all()


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_eval_encoding_deterministic(kind):
    m = _model(kind)
    s = make_sentence([2, 0, 2, 2], head=Span(0, 0), tail=Span(3, 3))
    np.testing.assert_array_equal(m.encode_np(s), m.encode_np(s))


@pytest.mark.parametrize("kind", ("cnn", "bilstm", "attn"))
def test_single_token_spans_single_token(kind):
    # minimal sentences must still encode (conv right-pads, T=1 attention)
    m = _model(kind)
    s = make_sentence([0, 1], head=Span(0, 0), tail=Span(1, 1))
    assert m.encode_np(s).shape == (m.rep_dim,)


def test_boe_is_token_order_invariant_in_word_part():
    cfg = _input_cfg(pos_dim=0)
    m = _model("boe", input_cfg=cfg)
    a = make_sentence([2, 0, 2, 2], head=Span(0, 0), tail=Span(3, 3))
    b = replace(a, tokens=(a.tokens[2], a.tokens[1], a.tokens[0], a.tokens[3]))
    np.testing.assert_allclose(m.encode_np(a), m.encode_np(b), rtol=1e-5)


def test_boe_sums_embedding_rows():
    cfg = _input_cfg(pos_dim=0)
    m = _model("boe", input_cfg=cfg)
    s = make_sentence([2, 0, 2], head=Span(0, 0), tail=Span(2, 2))
    ids = m.vocab.ids(s.tokens)
    expected = m.params["word_emb"].data[ids].sum(axis=0)
    np.testing.assert_allclose(m.encode_np(s), expected, rtol=1e-5)


def test_cnn_max_over_time_dominates():
    # duplicating the max-scoring window leaves the representation unchanged
    m = _model("cnn")
    s = make_sentence([2, 0, 2, 2], head=Span(0, 0), tail=Span(3, 3))
    rep1 = m.encode_np(s)
    assert rep1.shape == (12,)  # 6 filters x 2 sizes
    assert np.all(rep1 <= 1.0) and np.all(rep1 >= -1.0)  # tanh range


def test_attn_uniform_weights_with_zero_qk():
    """With wq = wk = 0 every attention row is uniform, so a single
    one-layer one-head block reduces to an average over value rows."""
    m = _model("attn", attn_layers=1, attn_heads=1, attn_kv_dim=6, attn_dropout=0.0)
    for name in ("attn0_wq", "attn0_wk"):
        m.params[name].data[:] = 0.0
    s = make_sentence([2, 0, 2, 2], head=Span(0, 0), tail=Span(3, 3))
    x = m.embed_inputs(m.featurize(s))
    h = (x.data @ m.params["attn_in_w"].data) + m.params["attn_in_b"].data
    v = h @ m.params["attn0_wv"].data
    ctx = np.tile(v.mean(axis=0), (h.shape[0], 1))
    after_attn = h + ctx @ m.params["attn0_wo"].data + m.params["attn0_bo"].data
    ff = np.maximum(after_attn @ m.params["attn0_ff1_w"].data + m.params["attn0_ff1_b"].data, 0)
    expected = (after_attn + ff @ m.params["attn0_ff2_w"].data + m.params["attn0_ff2_b"].data)[-1]
    np.testing.assert_allclose(m.encode_np(s), expected, rtol=1e-4, atol=1e-5)


def test_attn_softmax_scaling():
    m = _model("attn", attn_layers=1, attn_heads=2, attn_kv_dim=8)
    s = make_sentence([2, 0, 2], head=Span(0, 0), tail=Span(2, 2))
    x = m.embed_inputs(m.featurize(s))
    p = {name: t.data for name, t in m.params.items()}
    h = x.data @ p["attn_in_w"] + p["attn_in_b"]
    q, k, v = (h @ p["attn0_w" + n] for n in "qkv")
    out = ad.multihead_attention(ad.constant(q), ad.constant(k), ad.constant(v), 2).data
    d_head = 4
    for hd in range(2):
        cols = slice(hd * d_head, (hd + 1) * d_head)
        scores = (q[:, cols] @ k[:, cols].T) / math.sqrt(d_head)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        np.testing.assert_allclose(out[:, cols], e / e.sum(axis=-1, keepdims=True) @ v[:, cols],
                                   rtol=1e-5, atol=1e-6)
    # the encoder runs the same attention: residual, feed-forward, last row
    h = h + out @ p["attn0_wo"] + p["attn0_bo"]
    ff = np.maximum(h @ p["attn0_ff1_w"] + p["attn0_ff1_b"], 0)
    expected = (h + ff @ p["attn0_ff2_w"] + p["attn0_ff2_b"])[-1]
    np.testing.assert_allclose(m.encode_np(s), expected, rtol=1e-5, atol=1e-6)


def test_gcn_ignores_pruned_tokens():
    """Perturbing the word embedding of a token outside the pruned subtree
    must not change the representation."""
    m = _model("gcn", gcn_prune_k=0)
    # chain: 0 <- 1 <- 2 <- 3 <- 4; args 0 and 2, so 3 and 4 are pruned at K=0
    s = make_sentence([0, 1, 2, 3, 4], head=Span(0, 0), tail=Span(2, 2))
    before = m.encode_np(s)
    excluded_id = m.vocab.ids([s.tokens[4]])[0]
    m.params["word_emb"].data[excluded_id] += 5.0
    np.testing.assert_array_equal(m.encode_np(s), before)
    kept_id = m.vocab.ids([s.tokens[1]])[0]
    m.params["word_emb"].data[kept_id] += 5.0
    assert not np.array_equal(m.encode_np(s), before)


def test_gcn_no_ff_uses_triple_pooling():
    m = _model("gcn", gcn_ff_layers=0, gcn_dim=6)
    assert m.rep_dim == 18
    s = make_sentence([2, 0, 2], head=Span(0, 0), tail=Span(2, 2))
    assert m.encode_np(s).shape == (18,)


def test_masking_hides_mention_strings():
    cfg = _input_cfg(masking=True)
    tokens = ("alice", "met", "bob")
    vocab = ["SUBJ-O", "OBJ-O", "met", "alice", "bob", "carol"]
    m = _model("boe", input_cfg=cfg, vocab_tokens=vocab)
    s = make_sentence([2, 0, 2], head=Span(0, 0), tail=Span(2, 2))
    s = replace(s, tokens=tokens)
    swapped = replace(s, tokens=("carol", "met", "bob"))
    np.testing.assert_array_equal(m.encode_np(s), m.encode_np(swapped))


# ----------------------------------------------------------- classifier

def _predict(m, s):
    return m.labels[int(np.argmax(m.logits(m.featurize(s)).data))]


def test_logits_shape_and_predict():
    m = _model("boe", labels=("x", "y", "z"))
    s = make_sentence([2, 0, 2], head=Span(0, 0), tail=Span(2, 2))
    logits = m.logits(m.featurize(s))
    assert logits.shape == (1, 3)
    assert _predict(m, s) in ("x", "y", "z")


def test_zero_classifier_gives_uniform_probs():
    m = _model("boe", labels=("x", "y", "z"))
    m.params["cls_w"].data[:] = 0.0
    m.params["cls_b"].data[:] = 0.0
    s = make_sentence([2, 0, 2], head=Span(0, 0), tail=Span(2, 2))
    logits = m.logits(m.featurize(s))
    for label in range(3):
        loss = ad.cross_entropy_logits(logits, label).item()
        assert loss == pytest.approx(math.log(3.0), rel=1e-6)


def test_logit_shift_invariance_of_prediction():
    m = _model("boe", labels=("x", "y"))
    s = make_sentence([2, 0, 2], head=Span(0, 0), tail=Span(2, 2))
    before = _predict(m, s)
    m.params["cls_b"].data += 10.0  # same shift on every class
    assert _predict(m, s) == before


def test_pretrained_embeddings_injected():
    table = random_embeddings(["tok0", "tok1"], 8, seed=3)
    m = _model("boe", vocab_tokens=["tok0", "tok1", "tok2"])
    m2 = REModel(m.vocab, ("a", "b"), _input_cfg(), EncoderConfig(kind="boe"),
                 seed=0, embeddings=table)
    np.testing.assert_allclose(m2.params["word_emb"].data[m.vocab.stoi["tok0"]],
                               table.lookup("tok0"), rtol=1e-6)
    # tokens without a pretrained vector keep the random init
    assert not np.allclose(m2.params["word_emb"].data[m.vocab.stoi["tok2"]], 0.0)


def test_same_seed_same_params():
    a, b = _model("cnn", seed=5), _model("cnn", seed=5)
    for name in a.params:
        np.testing.assert_array_equal(a.params[name].data, b.params[name].data)
    c = _model("cnn", seed=6)
    assert any(not np.array_equal(a.params[n].data, c.params[n].data) for n in a.params)
