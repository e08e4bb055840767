"""The fused lstm_sequence op against the per-timestep LSTM it replaced.

The reference below builds one direction step by step from primitive ops,
as REModel._lstm_direction did before the fused op: about 15 tape nodes per
time step, with the sigmoid written through tanh. Both paths run in float64
on the same model, seed and dropout stream.
"""

import numpy as np
import pytest

from relprobe import autodiff as ad
from relprobe.corpus import Span
from relprobe.encoders import EncoderConfig, InputConfig, REModel, Vocab

from conftest import make_sentence


def _sigmoid(a):
    return ad.add(ad.scale(ad.tanh(ad.scale(a, 0.5)), 0.5), 0.5)


def _reference_direction(self, x, starts, layer, dirn, train):
    """Per-timestep LSTM direction of one sentence (starts bounds all of x);
    same dropout draws as the fused path."""
    enc = self.enc_cfg
    h_dim = enc.lstm_hidden
    wx = self.params["lstm%d_%s_wx" % (layer, dirn)]
    wh = self.params["lstm%d_%s_wh" % (layer, dirn)]
    b = self.params["lstm%d_%s_b" % (layer, dirn)]
    t_len = x.shape[0]
    if train and enc.recurrent_dropout > 0:
        keep = 1.0 - enc.recurrent_dropout
        mask = (self.rng.random((1, h_dim)) < keep).astype(ad.current_dtype()) / keep
        rmask = ad.constant(mask)
    else:
        rmask = None
    h = ad.constant(np.zeros((1, h_dim)))
    c = ad.constant(np.zeros((1, h_dim)))
    order = range(t_len) if dirn == "f" else range(t_len - 1, -1, -1)
    outputs = [None] * t_len
    for t in order:
        x_t = ad.slice_rows(x, t, t + 1)
        h_in = ad.mul(h, rmask) if rmask is not None else h
        gates = ad.add(ad.add(ad.matmul(x_t, wx), ad.matmul(h_in, wh)), b)
        i = _sigmoid(ad.slice_cols(gates, 0, h_dim))
        f = _sigmoid(ad.slice_cols(gates, h_dim, 2 * h_dim))
        g = ad.tanh(ad.slice_cols(gates, 2 * h_dim, 3 * h_dim))
        o = _sigmoid(ad.slice_cols(gates, 3 * h_dim, 4 * h_dim))
        c = ad.add(ad.mul(f, c), ad.mul(i, g))
        h = ad.mul(o, ad.tanh(c))
        outputs[t] = h
    return ad.concat(outputs, axis=0)


def _train_step(model, sentence):
    """Logits, parameter gradients and dropout-rng state after one step."""
    model.rng = np.random.default_rng(11)
    model.zero_grads()
    logits = model.logits(model.featurize(sentence), train=True)
    ad.cross_entropy_logits(logits, model.label_index[sentence.relation]).backward()
    grads = {k: p.grad.copy() for k, p in model.params.items() if p.grad is not None}
    return logits.data.copy(), grads, model.rng.bit_generator.state


@pytest.mark.parametrize("n_tokens", (1, 6))
def test_fused_lstm_matches_per_step_reference(monkeypatch, n_tokens):
    sentence = make_sentence([0] + [1] * (n_tokens - 1), head=Span(0, 0),
                             tail=Span(n_tokens - 1, n_tokens - 1), relation="b")
    input_cfg = InputConfig(word_dim=4, pos_dim=2, max_offset=3, word_dropout=0.3,
                            embedding_dropout=0.2)
    enc_cfg = EncoderConfig(kind="bilstm", lstm_layers=2, lstm_hidden=3,
                            recurrent_dropout=0.4, encoder_dropout=0.25)
    with ad.use_dtype(np.float64):
        model = REModel(Vocab.from_sentences([sentence]), ("a", "b", "c"), input_cfg,
                        enc_cfg, seed=5)
        fused = _train_step(model, sentence)
        monkeypatch.setattr(REModel, "_lstm_direction", _reference_direction)
        reference = _train_step(model, sentence)
    np.testing.assert_allclose(fused[0], reference[0], rtol=0, atol=1e-10)
    assert set(fused[1]) == set(reference[1]) == set(model.params)
    for name in model.params:
        np.testing.assert_allclose(fused[1][name], reference[1][name], rtol=0, atol=1e-10,
                                   err_msg=name)
    assert fused[2] == reference[2]

