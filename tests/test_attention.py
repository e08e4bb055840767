"""The fused multihead_attention op against the per-head attention it replaced.

The reference below is REModel._encode_attn with the attention core as it
was before the fused op: for each sentence and head, three slice_cols, a
transpose, two matmuls, a scale, a softmax and a dropout, then a concat of
the heads and of the sentences. Both paths draw the same dropout stream; in
float64 they agree within 1e-10, and in float32 training gives bit-identical
losses, parameters and packed representations.
"""

import dataclasses
import math

import numpy as np
import pytest

from relprobe import autodiff as ad
from relprobe.corpus import Corpus, Span
from relprobe.encoders import EncoderConfig, InputConfig, REModel, Vocab
from relprobe.probing import extract_reps
from relprobe.training import presets, train_re
from relprobe.verify import op_checks

from conftest import make_sentence


def _reference_encode_attn(self, x, starts, train):
    """Per-head self-attention encoder built from primitive ops. The
    projections run over all rows, as in REModel._encode_attn; the attention
    core runs one sentence and one head at a time."""
    enc = self.enc_cfg
    bounds = list(zip(starts[:-1].tolist(), starts[1:].tolist()))
    h = ad.linear(x, self.params["attn_in_w"], self.params["attn_in_b"])
    for layer in range(enc.attn_layers):
        q = ad.matmul(h, self.params["attn%d_wq" % layer])
        k = ad.matmul(h, self.params["attn%d_wk" % layer])
        v = ad.matmul(h, self.params["attn%d_wv" % layer])
        if len(bounds) == 1:
            merged = _reference_attn_core(self, q, k, v, train)
        else:
            merged = ad.concat([_reference_attn_core(self, *(ad.slice_rows(t, lo, hi)
                                                             for t in (q, k, v)), train)
                                for lo, hi in bounds], axis=0)
        h = ad.add(h, ad.linear(merged, self.params["attn%d_wo" % layer],
                                self.params["attn%d_bo" % layer]))
        ff = ad.relu(ad.linear(h, self.params["attn%d_ff1_w" % layer],
                               self.params["attn%d_ff1_b" % layer]))
        h = ad.add(h, ad.linear(ff, self.params["attn%d_ff2_w" % layer],
                                self.params["attn%d_ff2_b" % layer]))
    last = [ad.slice_rows(h, hi - 1, hi) for _, hi in bounds]
    return ad.concat(last, axis=0) if len(last) > 1 else last[0]


def _reference_attn_core(self, q, k, v, train):
    """Attention of one sentence's q, k, v rows: per head, three slice_cols,
    a transpose, two matmuls, a scale, a softmax and a dropout."""
    enc = self.enc_cfg
    d_head = enc.attn_kv_dim // enc.attn_heads
    head_outs = []
    for hd in range(enc.attn_heads):
        lo, hi = hd * d_head, (hd + 1) * d_head
        qh, kh, vh = (ad.slice_cols(t, lo, hi) for t in (q, k, v))
        scores = ad.scale(ad.matmul(qh, ad.transpose(kh)), 1.0 / math.sqrt(d_head))
        attn = ad.softmax(scores)
        attn = ad.dropout(attn, enc.attn_dropout, self.rng, train)
        head_outs.append(ad.matmul(attn, vh))
    return ad.concat(head_outs, axis=1) if len(head_outs) > 1 else head_outs[0]


def _train_step(model, sentence):
    """Logits, parameter gradients and dropout-rng state after one step."""
    model.rng = np.random.default_rng(11)
    model.zero_grads()
    logits = model.logits(model.featurize(sentence), train=True)
    ad.cross_entropy_logits(logits, model.label_index[sentence.relation]).backward()
    grads = {k: p.grad.copy() for k, p in model.params.items() if p.grad is not None}
    return logits.data.copy(), grads, model.rng.bit_generator.state


@pytest.mark.parametrize("n_tokens", (1, 6))
@pytest.mark.parametrize("heads", (1, 2))
def test_fused_attention_matches_per_head_reference(monkeypatch, heads, n_tokens):
    sentence = make_sentence([0] + [1] * (n_tokens - 1), head=Span(0, 0),
                             tail=Span(n_tokens - 1, n_tokens - 1), relation="b")
    input_cfg = InputConfig(word_dim=4, pos_dim=2, max_offset=3, word_dropout=0.3,
                            embedding_dropout=0.2)
    enc_cfg = EncoderConfig(kind="attn", attn_layers=2, attn_heads=heads, attn_kv_dim=6,
                            attn_ff_dim=5, attn_model_dim=4, attn_dropout=0.4,
                            encoder_dropout=0.25)
    with ad.use_dtype(np.float64):
        model = REModel(Vocab.from_sentences([sentence]), ("a", "b", "c"), input_cfg,
                        enc_cfg, seed=5)
        fused = _train_step(model, sentence)
        monkeypatch.setattr(REModel, "_encode_attn", _reference_encode_attn)
        reference = _train_step(model, sentence)
    np.testing.assert_allclose(fused[0], reference[0], rtol=0, atol=1e-10)
    assert set(fused[1]) == set(reference[1]) == set(model.params)
    for name in model.params:
        np.testing.assert_allclose(fused[1][name], reference[1][name], rtol=0, atol=1e-10,
                                   err_msg=name)
    assert fused[2] == reference[2]


def _paper_attn_run(corpus):
    """Two epochs of the tacred-attn preset on 20 masked sentences, float32."""
    profile, enc_cfg = presets()["tacred-attn"]
    profile = dataclasses.replace(profile, epochs=2, batch_size=8)
    input_cfg = InputConfig(word_dim=300, pos_dim=profile.pos_dim, masking=True,
                            word_dropout=profile.word_dropout,
                            embedding_dropout=profile.embedding_dropout)
    model, history = train_re(corpus, input_cfg, enc_cfg, profile, seed=3)
    params = {k: p.data.copy() for k, p in model.params.items()}
    return history.epochs, params, extract_reps(model, corpus.test).rows


def test_fused_attention_trains_bit_identically_in_float32(monkeypatch, small_corpus):
    corpus = Corpus(train=small_corpus.train[:20], validation=small_corpus.validation[:6],
                    test=small_corpus.test[:6], label_inventory=small_corpus.label_inventory,
                    negative_label=small_corpus.negative_label)
    assert ad.current_dtype() is np.float32
    fused = _paper_attn_run(corpus)
    monkeypatch.setattr(REModel, "_encode_attn", _reference_encode_attn)
    reference = _paper_attn_run(corpus)
    assert fused[0] == reference[0]
    assert set(fused[1]) == set(reference[1])
    for name in fused[1]:
        assert fused[1][name].tobytes() == reference[1][name].tobytes(), name
    assert fused[2].tobytes() == reference[2].tobytes()


def test_gradcheck_registry_covers_every_attention_variant():
    results = {k: v for k, v in op_checks().items() if k.startswith("multihead_attention")}
    assert sorted(results) == sorted(
        ["multihead_attention:H%d:T%d%s" % (h, t, d)
         for h in (1, 2) for t in (1, 4) for d in ("", ":drop")]
        + ["multihead_attention:segments"])
    assert max(results.values()) < 1e-6
