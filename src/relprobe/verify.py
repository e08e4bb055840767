"""Gradient-checking suite: every autodiff op plus the full encoder graphs.

Runs in float64 and compares analytic gradients against central differences.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import autodiff as ad
from .corpus import Sentence, Span
from .encoders import EncoderConfig, InputConfig, REModel, Vocab


def _rand(rng, *shape):
    return rng.normal(0.0, 1.0, size=shape)


def op_checks(seed=0, eps=1e-5):
    """Gradcheck each primitive op at a random point; returns name -> error."""
    results = {}
    with ad.use_dtype(np.float64):
        rng = np.random.default_rng(seed)

        def check(name, make_params, build):
            params = {k: ad.param(v, name=k) for k, v in make_params(rng).items()}
            results[name] = ad.gradcheck(lambda: build(params), params, eps=eps)

        check("add", lambda r: {"a": _rand(r, 3, 4), "b": _rand(r, 3, 4)},
              lambda p: ad.sum_all(ad.add(p["a"], p["b"])))
        check("add_broadcast", lambda r: {"a": _rand(r, 3, 4), "b": _rand(r, 4)},
              lambda p: ad.sum_all(ad.mul(ad.add(p["a"], p["b"]), ad.add(p["a"], p["b"]))))
        check("mul", lambda r: {"a": _rand(r, 3, 4), "b": _rand(r, 3, 4)},
              lambda p: ad.sum_all(ad.mul(p["a"], p["b"])))
        check("scale", lambda r: {"a": _rand(r, 5)},
              lambda p: ad.sum_all(ad.scale(p["a"], 2.5)))
        check("matmul", lambda r: {"a": _rand(r, 3, 4), "b": _rand(r, 4, 2)},
              lambda p: ad.sum_all(ad.mul(ad.matmul(p["a"], p["b"]),
                                          ad.matmul(p["a"], p["b"]))))
        check("matmul_vec", lambda r: {"a": _rand(r, 4), "b": _rand(r, 4, 2)},
              lambda p: ad.sum_all(ad.mul(ad.matmul(p["a"], p["b"]),
                                          ad.matmul(p["a"], p["b"]))))
        check("transpose", lambda r: {"a": _rand(r, 3, 4)},
              lambda p: ad.sum_all(ad.mul(ad.transpose(p["a"]), ad.transpose(p["a"]))))
        check("tanh", lambda r: {"a": _rand(r, 3, 4)},
              lambda p: ad.sum_all(ad.tanh(p["a"])))
        check("relu", lambda r: {"a": _rand(r, 3, 4)},
              lambda p: ad.sum_all(ad.relu(p["a"])))
        check("reshape", lambda r: {"a": _rand(r, 3, 4)},
              lambda p: ad.sum_all(ad.mul(ad.reshape(p["a"], (4, 3)),
                                          ad.reshape(p["a"], (4, 3)))))
        check("concat", lambda r: {"a": _rand(r, 2, 3), "b": _rand(r, 2, 3)},
              lambda p: ad.sum_all(ad.mul(ad.concat([p["a"], p["b"]], axis=1),
                                          ad.concat([p["a"], p["b"]], axis=1))))
        check("gather_rows", lambda r: {"a": _rand(r, 5, 3)},
              lambda p: ad.sum_all(ad.mul(ad.gather_rows(p["a"], np.array([0, 2, 2, 4])),
                                          ad.gather_rows(p["a"], np.array([0, 2, 2, 4])))))
        check("slice_rows", lambda r: {"a": _rand(r, 5, 3)},
              lambda p: ad.sum_all(ad.mul(ad.slice_rows(p["a"], 1, 4),
                                          ad.slice_rows(p["a"], 1, 4))))
        check("slice_cols", lambda r: {"a": _rand(r, 3, 6)},
              lambda p: ad.sum_all(ad.mul(ad.slice_cols(p["a"], 1, 4),
                                          ad.slice_cols(p["a"], 1, 4))))
        check("amax", lambda r: {"a": _rand(r, 6, 4)},
              lambda p: ad.sum_all(ad.mul(ad.amax(p["a"], axis=0),
                                          ad.amax(p["a"], axis=0))))
        check("sum_axis", lambda r: {"a": _rand(r, 4, 3)},
              lambda p: ad.sum_all(ad.mul(ad.sum_axis(p["a"], axis=0),
                                          ad.sum_axis(p["a"], axis=0))))
        check("softmax", lambda r: {"a": _rand(r, 3, 5)},
              lambda p: ad.sum_all(ad.mul(ad.softmax(p["a"]), ad.softmax(p["a"]))))
        check("cross_entropy", lambda r: {"a": _rand(r, 4, 3)},
              lambda p: ad.cross_entropy_logits(p["a"], np.array([0, 2, 1, 1])))
        check("linear", lambda r: {"x": _rand(r, 3, 4), "w": _rand(r, 4, 2),
                                   "b": _rand(r, 2)},
              lambda p: ad.sum_all(ad.mul(ad.linear(p["x"], p["w"], p["b"]),
                                          ad.linear(p["x"], p["w"], p["b"]))))
        check("conv1d", lambda r: {"x": _rand(r, 5, 3), "w": _rand(r, 6, 2),
                                   "b": _rand(r, 2)},
              lambda p: ad.sum_all(ad.mul(ad.conv1d(p["x"], p["w"], p["b"]),
                                          ad.conv1d(p["x"], p["w"], p["b"]))))
        # two segments, the first shorter than the filter width k = 3
        check("conv1d:segments", lambda r: {"x": _rand(r, 6, 2), "w": _rand(r, 6, 2),
                                            "b": _rand(r, 2)},
              lambda p: ad.sum_all(ad.mul(ad.conv1d(p["x"], p["w"], p["b"], starts=(0, 2, 6)),
                                          ad.conv1d(p["x"], p["w"], p["b"], starts=(0, 2, 6)))))
        check("amax:segments", lambda r: {"a": _rand(r, 6, 3)},
              lambda p: ad.sum_all(ad.mul(ad.amax(p["a"], axis=0, starts=(0, 1, 4, 6)),
                                          ad.amax(p["a"], axis=0, starts=(0, 1, 4, 6)))))
        check("sum_axis:segments", lambda r: {"a": _rand(r, 5, 3)},
              lambda p: ad.sum_all(ad.mul(ad.sum_axis(p["a"], axis=0, starts=(0, 2, 5)),
                                          ad.sum_axis(p["a"], axis=0, starts=(0, 2, 5)))))
        mats = [_rand(rng, 2, 2), _rand(rng, 3, 3)]
        check("segment_matmul", lambda r: {"x": _rand(r, 5, 2)},
              lambda p: ad.sum_all(ad.mul(ad.segment_matmul(mats, p["x"], (0, 2, 5)),
                                          ad.segment_matmul(mats, p["x"], (0, 2, 5)))))
        for t_len, reverse, masked in itertools.product((1, 4), (False, True), (False, True)):
            rmask = rng.uniform(0.0, 2.0, size=(1, 3)) if masked else None

            def lstm_loss(p):
                h = ad.lstm_sequence(p["x"], p["wx"], p["wh"], p["b"], rmask=rmask,
                                     reverse=reverse)
                return ad.sum_all(ad.mul(h, h))

            check("lstm_sequence:T%d%s%s" % (t_len, ":reverse" * reverse, ":rmask" * masked),
                  lambda r: {"x": _rand(r, t_len, 2), "wx": _rand(r, 2, 12),
                             "wh": _rand(r, 3, 12), "b": _rand(r, 12)},
                  lstm_loss)
        # three sentences of 2, 1 and 3 rows, each its own recurrence
        for reverse in (False, True):
            def lstm_segments_loss(p):
                h = ad.lstm_sequence(p["x"], p["wx"], p["wh"], p["b"], reverse=reverse,
                                     starts=(0, 2, 3, 6))
                return ad.sum_all(ad.mul(h, h))

            check("lstm_sequence:segments%s" % (":reverse" * reverse),
                  lambda r: {"x": _rand(r, 6, 2), "wx": _rand(r, 2, 12),
                             "wh": _rand(r, 3, 12), "b": _rand(r, 12)},
                  lstm_segments_loss)
        for heads, t_len, dropped in itertools.product((1, 2), (1, 4), (False, True)):
            drop = rng.uniform(0.0, 2.0, size=(heads, t_len, t_len)) if dropped else None

            def attention_loss(p):
                out = ad.multihead_attention(p["q"], p["k"], p["v"], heads,
                                             drop=None if drop is None else [drop])
                return ad.sum_all(ad.mul(out, out))

            check("multihead_attention:H%d:T%d%s" % (heads, t_len, ":drop" * dropped),
                  lambda r: {"q": _rand(r, t_len, 4), "k": _rand(r, t_len, 4),
                             "v": _rand(r, t_len, 4)},
                  attention_loss)
        # sentences of 3, 1, 2 and 3 rows: the two of 3 run as one stacked block
        seg_drop = [rng.uniform(0.0, 2.0, size=(2, t, t)) for t in (3, 1, 2, 3)]

        def attention_segments_loss(p):
            out = ad.multihead_attention(p["q"], p["k"], p["v"], 2, drop=seg_drop,
                                         starts=(0, 3, 4, 6, 9))
            return ad.sum_all(ad.mul(out, out))

        check("multihead_attention:segments",
              lambda r: {"q": _rand(r, 9, 4), "k": _rand(r, 9, 4), "v": _rand(r, 9, 4)},
              attention_segments_loss)
    return results


def _toy_sentence():
    return Sentence(
        id="toy-0",
        tokens=("ada", "met", "bo", "co"),
        pos=("NNP", "VBD", "NNP", "NNP"),
        ner=("PER", "O", "PER", "O"),
        dep_head=(2, 0, 2, 3),
        dep_label=("nsubj", "root", "dobj", "compound"),
        head=Span(0, 0),
        tail=Span(2, 2),
        relation="a",
    )


def _toy_encoder_config(kind):
    if kind == "cnn":
        return EncoderConfig(kind="cnn", cnn_filters=2, cnn_sizes=(2, 3),
                             cnn_activation="tanh")
    if kind == "bilstm":
        return EncoderConfig(kind="bilstm", lstm_layers=1, lstm_hidden=3)
    if kind == "gcn":
        return EncoderConfig(kind="gcn", gcn_layers=1, gcn_dim=3, gcn_ff_layers=1,
                             gcn_prune_k=1)
    if kind == "attn":
        return EncoderConfig(kind="attn", attn_layers=1, attn_heads=2, attn_kv_dim=4,
                             attn_ff_dim=5, attn_model_dim=4, attn_dropout=0.0)
    raise ValueError(kind)


def encoder_checks(eps=1e-5):
    """Gradcheck each full encoder graph (loss wrt every parameter)."""
    results = {}
    s = _toy_sentence()
    with ad.use_dtype(np.float64):
        for kind in ("cnn", "bilstm", "gcn", "attn"):
            input_cfg = InputConfig(word_dim=3, pos_dim=2, max_offset=3)
            vocab = Vocab.from_sentences([s])
            model = REModel(vocab, ("a", "b"), input_cfg, _toy_encoder_config(kind),
                            seed=7)
            features = model.featurize(s)

            def loss():
                return ad.cross_entropy_logits(model.logits(features),
                                               model.label_index[s.relation])

            results["encoder:%s" % kind] = ad.gradcheck(loss, model.params, eps=eps)
    return results


def gradcheck_all(eps=1e-5):
    results = op_checks(eps=eps)
    results.update(encoder_checks(eps=eps))
    return results
