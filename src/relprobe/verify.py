"""Gradient-checking suite: every autodiff op plus the full encoder graphs.

Runs in float64 and compares analytic gradients against central differences.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import autodiff as ad
from .corpus import Sentence, Span
from .encoders import EncoderConfig, InputConfig, REModel, Vocab


def _squares(t):
    """sum(t * t): a loss whose gradient depends on every entry of t."""
    return ad.sum_all(ad.mul(t, t))


def op_checks(seed=0, eps=1e-5):
    """Gradcheck each autodiff op at a random point; returns name -> error.

    Every public op has an entry named after it, or several named
    "<op>:<variant>"."""
    results = {}
    with ad.use_dtype(np.float64):
        rng = np.random.default_rng(seed)

        def check(name, shapes, build):
            """build(params) is the loss; params are standard normal draws of
            the given shapes."""
            params = {k: ad.param(rng.normal(0.0, 1.0, size=shape))
                      for k, shape in shapes.items()}
            results[name] = ad.gradcheck(lambda: build(params), params, eps=eps)

        check("add", {"a": (3, 4), "b": (3, 4)}, lambda p: ad.sum_all(ad.add(p["a"], p["b"])))
        check("add:broadcast", {"a": (3, 4), "b": (4,)},
              lambda p: _squares(ad.add(p["a"], p["b"])))
        check("mul", {"a": (3, 4), "b": (3, 4)}, lambda p: ad.sum_all(ad.mul(p["a"], p["b"])))
        check("matmul", {"a": (3, 4), "b": (4, 2)},
              lambda p: _squares(ad.matmul(p["a"], p["b"])))
        check("matmul:vec", {"a": (4,), "b": (4, 2)},
              lambda p: _squares(ad.matmul(p["a"], p["b"])))
        check("tanh", {"a": (3, 4)}, lambda p: ad.sum_all(ad.tanh(p["a"])))
        check("relu", {"a": (3, 4)}, lambda p: ad.sum_all(ad.relu(p["a"])))
        check("concat", {"a": (2, 3), "b": (2, 3)},
              lambda p: _squares(ad.concat([p["a"], p["b"]], axis=1)))
        # as many ids as rows: the backward scatters into the whole table
        check("gather_rows", {"a": (4, 3)},
              lambda p: _squares(ad.gather_rows(p["a"], np.array([0, 2, 2, 3]))))
        # more rows than ids: a row-sparse gradient; id -2 names row 7 again
        check("gather_rows:rows", {"a": (9, 3)},
              lambda p: _squares(ad.gather_rows(p["a"], np.array([[1, 7, 4], [4, -2, 0]]))))
        # 1,100 ids of 32-wide rows: past the crossover, so the backward
        # sums each row's repeats in one grouped reduce
        many = rng.integers(0, 5, size=(275, 4))
        check("gather_rows:grouped", {"a": (5, 32)},
              lambda p: _squares(ad.gather_rows(p["a"], many)))
        check("amax", {"a": (6, 4)}, lambda p: _squares(ad.amax(p["a"])))
        check("amax:segments", {"a": (6, 3)},
              lambda p: _squares(ad.amax(p["a"], starts=(0, 1, 4, 6))))
        # rows wider than amax's reduceat crossover: one max per segment
        check("amax:wide", {"a": (7, ad._REDUCEAT_MAX_WIDTH + 1)},
              lambda p: _squares(ad.amax(p["a"], starts=(0, 2, 3, 7))))
        check("sum_all", {"a": (3, 4)}, lambda p: ad.sum_all(p["a"]))
        check("sum_axis", {"a": (4, 3)}, lambda p: _squares(ad.sum_axis(p["a"])))
        check("sum_axis:segments", {"a": (5, 3)},
              lambda p: _squares(ad.sum_axis(p["a"], starts=(0, 2, 5))))
        check("cross_entropy_logits", {"a": (4, 3)},
              lambda p: ad.cross_entropy_logits(p["a"], np.array([0, 2, 1, 1])))
        check("linear", {"x": (3, 4), "w": (4, 2), "b": (2,)},
              lambda p: _squares(ad.linear(p["x"], p["w"], p["b"])))
        check("conv1d", {"x": (5, 3), "w": (6, 2), "b": (2,)},
              lambda p: _squares(ad.conv1d(p["x"], p["w"], p["b"])))
        # two segments, the first shorter than the filter width k = 3
        check("conv1d:segments", {"x": (6, 2), "w": (6, 2), "b": (2,)},
              lambda p: _squares(ad.conv1d(p["x"], p["w"], p["b"], starts=(0, 2, 6))))
        # segments of 1, 4, 2 and 1 rows: three zero-padded windows
        check("conv1d:short-segments", {"x": (8, 2), "w": (6, 2), "b": (2,)},
              lambda p: _squares(ad.conv1d(p["x"], p["w"], p["b"], starts=(0, 1, 5, 7, 8))))
        mats = [rng.normal(size=(2, 2)), rng.normal(size=(3, 3))]
        check("segment_matmul", {"x": (5, 2)},
              lambda p: _squares(ad.segment_matmul(mats, p["x"], (0, 2, 5))))
        lstm_shapes = {"wx": (2, 12), "wh": (3, 12), "b": (12,)}
        for t_len, reverse, masked in itertools.product((1, 4), (False, True), (False, True)):
            rmask = rng.uniform(0.0, 2.0, size=(1, 3)) if masked else None
            check("lstm_sequence:T%d%s%s" % (t_len, ":reverse" * reverse, ":rmask" * masked),
                  {"x": (t_len, 2), **lstm_shapes},
                  lambda p: _squares(ad.lstm_sequence(p["x"], p["wx"], p["wh"], p["b"],
                                                      rmask=rmask, reverse=reverse)))
        # three sentences of 2, 1 and 3 rows, each its own recurrence
        for reverse in (False, True):
            check("lstm_sequence:segments%s" % (":reverse" * reverse),
                  {"x": (6, 2), **lstm_shapes},
                  lambda p: _squares(ad.lstm_sequence(p["x"], p["wx"], p["wh"], p["b"],
                                                      reverse=reverse, starts=(0, 2, 3, 6))))
        # one recurrent-dropout row per sentence
        seg_rmask = rng.uniform(0.0, 2.0, size=(3, 3))
        check("lstm_sequence:segments:rmask", {"x": (6, 2), **lstm_shapes},
              lambda p: _squares(ad.lstm_sequence(p["x"], p["wx"], p["wh"], p["b"],
                                                  rmask=seg_rmask, starts=(0, 2, 3, 6))))
        for heads, t_len, dropped in itertools.product((1, 2), (1, 4), (False, True)):
            drop = [rng.uniform(0.0, 2.0, size=(heads, t_len, t_len))] if dropped else None
            check("multihead_attention:H%d:T%d%s" % (heads, t_len, ":drop" * dropped),
                  dict.fromkeys("qkv", (t_len, 4)),
                  lambda p: _squares(ad.multihead_attention(p["q"], p["k"], p["v"], heads,
                                                            drop=drop)))
        # sentences of 3, 1, 2 and 3 rows: the two of 3 run as one stacked block
        seg_drop = [rng.uniform(0.0, 2.0, size=(2, t, t)) for t in (3, 1, 2, 3)]
        check("multihead_attention:segments", dict.fromkeys("qkv", (9, 4)),
              lambda p: _squares(ad.multihead_attention(p["q"], p["k"], p["v"], 2,
                                                        drop=seg_drop, starts=(0, 3, 4, 6, 9))))
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
                                               [model.label_index[s.relation]])

            results["encoder:%s" % kind] = ad.gradcheck(loss, model.params, eps=eps)
    return results


def gradcheck_all(eps=1e-5):
    results = op_checks(eps=eps)
    results.update(encoder_checks(eps=eps))
    return results
