import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from relprobe import autodiff as ad
from relprobe.corpus import Span, random_embeddings
from relprobe.encoders import (EncoderConfig, InputConfig, REModel, Vocab,
                               position_offsets)
from relprobe.training import desk_encoder_config, desk_input_config, presets

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


# sha256 of the names and float64 bytes of the initial parameters, in order,
# as drawn before the parameter table existed: desk kinds at pos_dim 0 and 8,
# with and without pretrained vectors for every third token, and the paper
# presets at word_dim 300
INITIAL_PARAMS_SHA256 = {
    "desk-cnn-pos0": "64128b610d5e2c095eb1383ed803cf0a8cef4bac2d8c46123b70835043888c1f",
    "desk-cnn-pos0-emb": "6831c3f8e4711f9ad976fa678a7a3ae78495cc37793345ae8c229bc235804aa5",
    "desk-cnn-pos8": "d31226dae08fe2be8f8cd893cbe28e3f7b94dc776cf2f498093938e657ad9cfd",
    "desk-cnn-pos8-emb": "956ffcfdb7f5bc3d3293013fe424bb933b6caf8fdecab4c7596a4e337242bc58",
    "desk-bilstm-pos0": "0cc8d4f18efb17819f491bfb8cf41e70b28b88d1037e20e705a88b8e67d2d047",
    "desk-bilstm-pos0-emb": "db2b4c07b51fe2342d3b8ae699adfb1a9fb134e2e345945b24fd1412e1055f6a",
    "desk-bilstm-pos8": "b3a2a90709654eb2e5da2014218453d795d6ec9aec68ee7920bc1b655054879d",
    "desk-bilstm-pos8-emb": "9925894ecc8140b174eeb7daf2ceadf863a9351d358e2bc032027842ff34b326",
    "desk-gcn-pos0": "8437c972018d90f41b18232dba8bfc3c9c8b66d07777801a3beb7612be1dc9c3",
    "desk-gcn-pos0-emb": "9e95d3788579dc312b3136d5c632e1eff8fd04023bf8de5a309b9ab7bfd7ff5e",
    "desk-gcn-pos8": "20e83afc1df8760ae5fd34aef6f14cba50d05fc450ed60f46d4f918a862e1528",
    "desk-gcn-pos8-emb": "39848116a5bc3624c6816edce351db2ecfe0588e37e3678b09919207bc81e9e3",
    "desk-attn-pos0": "d48fa0bdf380d9b8fde9210b33dbf86d9956760ca71c92120c8cdd3c68fad40a",
    "desk-attn-pos0-emb": "abbb9c1e1866e702f6e26bf74ee138e638ba1fa1c9dd7ea26bc95259f7e01184",
    "desk-attn-pos8": "7ae135c8273cadb3c10e4ded65f2098da30ff5287ee99d0bd37d97b118fa3be4",
    "desk-attn-pos8-emb": "a8f54d291f251dd5bf5fdc6b790f6c7dccf7fa95267cd5ddca36fe02b4bd691a",
    "desk-boe-pos0": "a20c5fe9847b6b3b75d382d22c7e2bbd8b2197fa2565f29b916edd40d37bc250",
    "desk-boe-pos0-emb": "9caa3224ae16e605be65b83f324c79c47477865c00df7f126fe47479760d17b5",
    "desk-boe-pos8": "76c8a816df7d0d0eb35903945b71ce6f21c42032c569661f0a8e1804700d7594",
    "desk-boe-pos8-emb": "7e2a16850dae710e7344bb80f59bd14d85d41381749ba324652721dccaae3203",
    "semeval-attn": "b8b96f9058c349029aeaf7ebc7cb967ff5773b449fb4364a9b55a92651c9bac7",
    "semeval-bilstm": "c7c2ceb143bee3fa6ff059179c81b6026034ab60fce3cd01276b0dc9d41e66ec",
    "semeval-cnn": "487c182dc4f2a122ed71f98e865a2d413624baaaf89c6da62b6f4efa8bae3ae8",
    "semeval-gcn": "34b2b111dedf561d422e607f12e353c51a93982bba65f8c97c9844db20d78801",
    "tacred-attn": "19aea0a623113c6a57b5dffe59ed57f5928761c30daf16d8ef4ca42205778236",
    "tacred-bilstm": "b2bb53059c766a8a95c8cfdf9ca8b9ac917f20e668534b20ba0dcbcdca8f13c6",
    "tacred-cnn": "3da46f934fe996fb2510c1d1f3f4766163b4f9d6d02a2420dfee3a2cc6a6a91f",
    "tacred-gcn": "2d3eafedbbaffa6a1e1507351271d6fc8ad1d41d7986fb839c4dd61903aaa01b",
}


def _pinned_config(name):
    """(input config, encoder config, with pretrained vectors) of a pin."""
    if name.startswith("desk-"):
        _, kind, pos, *emb = name.split("-")
        return (desk_input_config(pos_dim=int(pos[3:])), desk_encoder_config(kind), bool(emb))
    profile, enc_cfg = presets()[name]
    return InputConfig(word_dim=300, pos_dim=profile.pos_dim), enc_cfg, False


@pytest.mark.parametrize("name", sorted(INITIAL_PARAMS_SHA256))
def test_initial_params_are_pinned(name):
    input_cfg, enc_cfg, pretrained = _pinned_config(name)
    tokens = ["tok%d" % i for i in range(12)]
    table = random_embeddings(tokens[::3], input_cfg.word_dim, seed=5) if pretrained else None
    m = REModel(Vocab(tokens), ("no_relation", "per:x", "org:y"), input_cfg, enc_cfg,
                seed=11, embeddings=table)
    assert [(n, p.shape) for n, p in m.params.items()] == m.param_shapes()
    h = hashlib.sha256()
    for n, p in m.params.items():
        h.update(n.encode())
        h.update(p.data.tobytes())
    assert h.hexdigest() == INITIAL_PARAMS_SHA256[name]
