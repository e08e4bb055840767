"""The per-sentence forward pass that packed Features replaced.

REModel used to featurize, embed, encode and classify one sentence at a
time: a tape per sentence, a (rep_dim,) representation and (C,) logits.
These functions are that code, kept as the differential reference for the
packed path; `install` routes REModel's forward methods through them, so
that train_re, _evaluate and extract_reps run the old arithmetic one
sentence at a time. A train-mode pass reads its masks from
REModel.dropout_masks for its one sentence, so B reference passes draw the
stream of one packed pass over the B sentences.
"""

import math
from collections import namedtuple

import numpy as np

from relprobe import autodiff as ad
from relprobe.encoders import UNK, REModel

import reference_trees
from reference_ops import reshape, slice_rows

SentenceFeatures = namedtuple("SentenceFeatures", "ids offsets ctx graph")


class SentenceList(list):
    """The SentenceFeatures of several sentences, which train_re takes
    minibatches of as it takes them of a packed Features record."""

    def take(self, indices):
        return SentenceList(self[i] for i in indices)


def _dropped(x, mask):
    return x if mask is None else ad.mul(x, ad.constant(mask))


def position_offsets(span, length, clip):
    idx = np.arange(length)
    off = np.where(idx < span.start, idx - span.start,
                   np.where(idx > span.end, idx - span.end, 0))
    return np.clip(off, -clip, clip)


def featurize(self, sentence, ctx_row=None):
    cfg, enc = self.input_cfg, self.enc_cfg
    if cfg.use_contextual and ctx_row is None:
        raise ValueError("missing contextual vectors for sentence %s" % sentence.id)
    tokens = reference_trees.masked_tokens(sentence) if cfg.masking else sentence.tokens
    offsets = ()
    if cfg.pos_dim > 0:
        offsets = tuple(position_offsets(span, len(sentence), cfg.max_offset) + cfg.max_offset
                        for span in (sentence.head, sentence.tail))
    graph = None
    if enc.kind == "gcn":
        tree = reference_trees.build_tree(sentence.dep_head)
        roots = [reference_trees.span_root(sentence.dep_head, span)
                 for span in (sentence.head, sentence.tail)]
        path = reference_trees.sdp(tree, *roots)
        k = math.inf if enc.gcn_prune_k in (None, math.inf) else enc.gcn_prune_k
        kept = sorted(reference_trees.prune(tree, path, k))
        pos = {tok: i for i, tok in enumerate(kept)}
        adj = np.eye(len(kept), dtype=ad.current_dtype())
        for tok in kept:
            p = tree.parent[tok]
            if p is not None and p in pos:
                adj[pos[tok], pos[p]] = 1.0
                adj[pos[p], pos[tok]] = 1.0
        adj /= adj.sum(axis=1, keepdims=True)
        pools = [[pos[t] for t in kept if t in span] or [pos[root]]
                 for span, root in zip((sentence.head, sentence.tail), roots)]
        graph = (np.asarray(kept), adj, *map(np.asarray, pools))
    return SentenceFeatures(self.vocab.ids(tokens), offsets,
                            ctx_row if cfg.use_contextual else None, graph)


def embed_inputs(self, features, masks):
    ids = features.ids
    if "word" in masks:
        ids = np.where(masks["word"], self.vocab.stoi[UNK], ids)
    parts = [ad.gather_rows(self.params["word_emb"], ids)]
    for table, rows in zip(("pos_head_emb", "pos_tail_emb"), features.offsets):
        parts.append(ad.gather_rows(self.params[table], rows))
    if features.ctx is not None:
        parts.append(ad.constant(features.ctx))
    x = ad.concat(parts, axis=1) if len(parts) > 1 else parts[0]
    return _dropped(x, masks.get("embed"))


def conv1d(x, w, b=None):
    k = w.data.shape[0] // x.data.shape[1]
    t, d = x.data.shape
    if t < k:
        pad = ad.Tensor(np.zeros((k - t, d)))
        x = ad.concat([x, pad], axis=0)
        t = k
    idx = np.arange(t - k + 1)[:, None] + np.arange(k)[None, :]
    windows = reshape(ad.gather_rows(x, idx), (t - k + 1, k * d))
    return ad.linear(windows, w, b)


def encode_cnn(self, x):
    enc = self.enc_cfg
    act = ad.tanh if enc.cnn_activation == "tanh" else ad.relu
    pools = []
    for k in enc.cnn_sizes:
        h = act(conv1d(x, self.params["cnn_w%d" % k], self.params["cnn_b%d" % k]))
        pools.append(reshape(ad.amax(h), (-1,)))
    return ad.concat(pools, axis=0) if len(pools) > 1 else pools[0]


def lstm_direction(self, x, layer, dirn, masks):
    name = "lstm%d_%s" % (layer, dirn)
    return ad.lstm_sequence(x, self.params[name + "_wx"], self.params[name + "_wh"],
                            self.params[name + "_b"], rmask=masks.get(name),
                            reverse=dirn == "b")


def encode_bilstm(self, x, masks):
    h = x
    for layer in range(self.enc_cfg.lstm_layers):
        fwd = lstm_direction(self, h, layer, "f", masks)
        bwd = lstm_direction(self, h, layer, "b", masks)
        h = ad.concat([fwd, bwd], axis=1)
    return reshape(ad.amax(h), (-1,))


def encode_gcn(self, x, graph, masks):
    enc = self.enc_cfg
    kept, adj, head_rows, tail_rows = graph
    m = ad.constant(adj)
    h = ad.gather_rows(x, kept)
    for layer in range(enc.gcn_layers):
        h = ad.relu(ad.matmul(m, ad.linear(h, self.params["gcn%d_w" % layer],
                                           self.params["gcn%d_b" % layer])))
        if layer < enc.gcn_layers - 1:
            h = _dropped(h, masks.get("gcn%d" % layer))
    pools = [reshape(ad.amax(h), (-1,))]
    for rows in (head_rows, tail_rows):
        pools.append(reshape(ad.amax(ad.gather_rows(h, rows)), (-1,)))
    rep = ad.concat(pools, axis=0)
    for j in range(enc.gcn_ff_layers):
        rep = ad.relu(ad.linear(rep, self.params["gcn_ff%d_w" % j],
                                self.params["gcn_ff%d_b" % j]))
    return rep


def encode_attn(self, x, masks):
    enc = self.enc_cfg
    h = ad.linear(x, self.params["attn_in_w"], self.params["attn_in_b"])
    for layer in range(enc.attn_layers):
        q = ad.matmul(h, self.params["attn%d_wq" % layer])
        k = ad.matmul(h, self.params["attn%d_wk" % layer])
        v = ad.matmul(h, self.params["attn%d_wv" % layer])
        merged = ad.multihead_attention(q, k, v, enc.attn_heads,
                                        drop=masks.get("attn%d" % layer))
        h = ad.add(h, ad.linear(merged, self.params["attn%d_wo" % layer],
                                self.params["attn%d_bo" % layer]))
        ff = ad.relu(ad.linear(h, self.params["attn%d_ff1_w" % layer],
                               self.params["attn%d_ff1_b" % layer]))
        h = ad.add(h, ad.linear(ff, self.params["attn%d_ff2_w" % layer],
                                self.params["attn%d_ff2_b" % layer]))
    last = h.shape[0] - 1
    return reshape(slice_rows(h, last, last + 1), (enc.attn_model_dim,))


def encode(self, features, train=False):
    """(rep_dim,) representation of one sentence's SentenceFeatures."""
    enc = self.enc_cfg
    masks = {}
    if train:
        kept = None if features.graph is None else [len(features.graph[0])]
        masks = self.dropout_masks([len(features.ids)], kept)
    x = embed_inputs(self, features, masks)
    if enc.kind == "cnn":
        rep = encode_cnn(self, x)
    elif enc.kind == "bilstm":
        rep = encode_bilstm(self, x, masks)
    elif enc.kind == "gcn":
        rep = encode_gcn(self, x, features.graph, masks)
    elif enc.kind == "attn":
        rep = encode_attn(self, x, masks)
    else:
        rep = reshape(ad.sum_axis(x), (-1,))
    mask = masks.get("encoder")
    return _dropped(rep, None if mask is None else mask.reshape(-1))


def logits(self, features, train=False):
    """(C,) logits of one sentence's SentenceFeatures."""
    rep = encode(self, features, train=train)
    return ad.linear(rep, self.params["cls_w"], self.params["cls_b"])


def _stacked(fn):
    """fn over one SentenceFeatures or a list of them, as (B, width) rows."""
    def method(self, features, train=False):
        single = isinstance(features, SentenceFeatures)
        rows = [reshape(fn(self, f, train), (1, -1))
                for f in ([features] if single else features)]
        return rows[0] if len(rows) == 1 else ad.concat(rows, axis=0)
    return method


def _featurize_batch(self, sentences, ctx_rows=None):
    ctx_rows = [None] * len(sentences) if ctx_rows is None else ctx_rows
    return SentenceList(featurize(self, s, c) for s, c in zip(sentences, ctx_rows))


def _featurize_tokens(self, sentences, ctx_rows, token_lists):
    return _featurize_batch(self, sentences, ctx_rows)  # featurize masks for itself


def install(monkeypatch):
    """Route REModel's featurize, featurize_batch (and _featurize_tokens,
    which train_re calls), encode and logits through the per-sentence
    reference."""
    monkeypatch.setattr(REModel, "featurize", featurize)
    monkeypatch.setattr(REModel, "featurize_batch", _featurize_batch)
    monkeypatch.setattr(REModel, "_featurize_tokens", _featurize_tokens)
    monkeypatch.setattr(REModel, "encode", _stacked(encode))
    monkeypatch.setattr(REModel, "logits", _stacked(logits))
