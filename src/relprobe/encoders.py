"""Input featurization and the sentence encoders (CNN, BiLSTM, GCN,
multi-headed self-attention, bag-of-embeddings) plus the relation
classification head.

REModel.featurize_batch turns B sentences into one packed Features record
once per run: their token rows one after another, with segment starts.
Every token is then embedded as the concatenation of its word vector, a
learned head-offset embedding, a learned tail-offset embedding and
(optionally) a precomputed contextual vector. Encoders map the resulting
ΣT x d_in matrix to one fixed-size representation row per sentence, each
op running once over the whole pack: windows, recurrences, attention,
graph products and pools never cross a sentence, so each row is computed
from its own sentence only. Training passes one sentence at a time;
eval-mode passes take chunks of EVAL_BATCH sentences.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from . import deptree
from .corpus import Span, masked_tokens

PAD = "<PAD>"
UNK = "<UNK>"
EVAL_BATCH = 50  # sentences per eval-mode forward pass: the paper's TACRED batch size


@dataclass(frozen=True)
class InputConfig:
    word_dim: int = 32
    pos_dim: int = 8          # positional-offset embedding width (0 disables)
    max_offset: int = 50      # offsets clipped to [-max_offset, +max_offset]
    use_contextual: bool = False
    contextual_dim: int = 0
    masking: bool = False
    word_dropout: float = 0.0
    embedding_dropout: float = 0.0

    def __post_init__(self):
        if self.word_dim <= 0 or self.pos_dim < 0 or self.max_offset < 1:
            raise ValueError("invalid input config")

    @property
    def width(self):
        return self.word_dim + 2 * self.pos_dim + (self.contextual_dim if self.use_contextual else 0)


@dataclass(frozen=True)
class EncoderConfig:
    kind: str = "cnn"
    cnn_filters: int = 500
    cnn_sizes: tuple = (2, 3, 4, 5)
    cnn_activation: str = "tanh"
    lstm_layers: int = 2
    lstm_hidden: int = 500
    recurrent_dropout: float = 0.0
    gcn_layers: int = 2
    gcn_dim: int = 200
    gcn_ff_layers: int = 2
    gcn_prune_k: float = 1
    gcn_dropout: float = 0.0
    attn_layers: int = 8
    attn_heads: int = 8
    attn_kv_dim: int = 256
    attn_ff_dim: int = 512
    attn_model_dim: int = 128
    attn_dropout: float = 0.1
    encoder_dropout: float = 0.0

    def __post_init__(self):
        if self.kind not in ("cnn", "bilstm", "gcn", "attn", "boe"):
            raise ValueError("unknown encoder kind: %s" % self.kind)
        if self.cnn_activation not in ("tanh", "relu"):
            raise ValueError("unknown cnn_activation: %s" % self.cnn_activation)
        if self.kind == "attn" and self.attn_kv_dim % self.attn_heads != 0:
            raise ValueError("attn_kv_dim must be divisible by attn_heads")


class Vocab:
    """Token inventory with PAD=0 and UNK=1."""

    def __init__(self, tokens):
        self.itos = [PAD, UNK] + [t for t in tokens if t not in (PAD, UNK)]
        self.stoi = {t: i for i, t in enumerate(self.itos)}

    @classmethod
    def from_tokens(cls, token_lists):
        return cls(sorted({t for tokens in token_lists for t in tokens}))

    @classmethod
    def from_sentences(cls, sentences):
        return cls.from_tokens(s.tokens for s in sentences)

    @classmethod
    def from_itos(cls, itos):
        v = cls.__new__(cls)
        v.itos = list(itos)
        v.stoi = {t: i for i, t in enumerate(v.itos)}
        return v

    def ids(self, tokens):
        return np.fromiter(map(self.stoi.get, tokens, itertools.repeat(self.stoi[UNK])),
                           dtype=np.int64)

    def __len__(self):
        return len(self.itos)


def position_offsets(span, length, clip):
    """Signed clipped distance of each of `length` tokens to the span (0
    inside it). The span bounds may also be arrays, one bound per token."""
    idx = np.arange(length)
    off = np.minimum(idx - span.start, 0) + np.maximum(idx - span.end, 0)
    return np.minimum(np.maximum(off, -clip), clip)


@dataclass(frozen=True)
class Features:
    """Model inputs of B >= 1 sentences packed row after row, as
    REModel.featurize_batch prepares them. Sentence i owns the token rows
    [starts[i], starts[i+1]).

    graph, for gcn only, is (kept, kept_starts, adjs, head_rows, head_starts,
    tail_rows, tail_starts): the token rows kept around each sentence's SDP
    and their segment starts, one normalized adjacency per sentence, and the
    head and tail pooling rows (into the kept rows) with their segment starts.
    """

    ids: np.ndarray          # (ΣT,) vocab ids of the (masked) tokens
    offsets: tuple           # head and tail offset-embedding rows, (ΣT,) each; () when pos_dim == 0
    ctx: np.ndarray | None   # (ΣT, c) contextual rows when the input config uses them
    graph: tuple | None      # gcn: see above
    starts: np.ndarray       # (B+1,) segment starts of the token rows


def _packed(lists, shifts):
    """One index array of lists[i] + shifts[i], and its segment starts."""
    flat, starts = [], [0]
    for items, shift in zip(lists, shifts):
        flat.extend([shift + i for i in items])
        starts.append(len(flat))
    return np.array(flat, dtype=np.int64), np.array(starts, dtype=np.int64)


def _glorot(rng, shape):
    fan_in, fan_out = (shape[0], shape[-1]) if len(shape) > 1 else (shape[0], shape[0])
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class REModel:
    """Sentence encoder + relation classification head over a fixed vocab."""

    def __init__(self, vocab, labels, input_cfg: InputConfig, enc_cfg: EncoderConfig,
                 seed=0, embeddings=None, negative_label=None):
        self.vocab = vocab
        self.labels = tuple(labels)
        self.label_index = {l: i for i, l in enumerate(self.labels)}
        self.input_cfg = input_cfg
        self.enc_cfg = enc_cfg
        self.negative_label = negative_label
        self.seed = seed
        self.rng = np.random.default_rng(seed)  # dropout rng; reseed per run
        self.params = {}
        self._init_params(np.random.default_rng(seed), embeddings)

    # ---------------------------------------------------------------- setup

    def _add(self, name, data):
        self.params[name] = ad.param(np.asarray(data, dtype=ad.current_dtype()), name=name)

    def _init_params(self, rng, embeddings):
        cfg, enc = self.input_cfg, self.enc_cfg
        word = rng.uniform(-0.1, 0.1, size=(len(self.vocab), cfg.word_dim))
        if embeddings is not None:
            for tok, i in self.vocab.stoi.items():
                vec = embeddings.vectors.get(tok)
                if vec is not None:
                    word[i] = vec[: cfg.word_dim]
        word[0] = 0.0  # PAD row
        self._add("word_emb", word)
        if cfg.pos_dim > 0:
            rows = 2 * cfg.max_offset + 1
            self._add("pos_head_emb", rng.uniform(-0.1, 0.1, size=(rows, cfg.pos_dim)))
            self._add("pos_tail_emb", rng.uniform(-0.1, 0.1, size=(rows, cfg.pos_dim)))
        d_in = cfg.width
        if enc.kind == "cnn":
            for k in enc.cnn_sizes:
                self._add("cnn_w%d" % k, _glorot(rng, (k * d_in, enc.cnn_filters)))
                self._add("cnn_b%d" % k, np.zeros(enc.cnn_filters))
        elif enc.kind == "bilstm":
            size = d_in
            for layer in range(enc.lstm_layers):
                for dirn in ("f", "b"):
                    h = enc.lstm_hidden
                    self._add("lstm%d_%s_wx" % (layer, dirn), _glorot(rng, (size, 4 * h)))
                    self._add("lstm%d_%s_wh" % (layer, dirn), _glorot(rng, (h, 4 * h)))
                    bias = np.zeros(4 * h)
                    bias[h:2 * h] = 1.0  # forget-gate bias
                    self._add("lstm%d_%s_b" % (layer, dirn), bias)
                size = 2 * enc.lstm_hidden
        elif enc.kind == "gcn":
            size = d_in
            for layer in range(enc.gcn_layers):
                self._add("gcn%d_w" % layer, _glorot(rng, (size, enc.gcn_dim)))
                self._add("gcn%d_b" % layer, np.zeros(enc.gcn_dim))
                size = enc.gcn_dim
            size = 3 * enc.gcn_dim
            for j in range(enc.gcn_ff_layers):
                self._add("gcn_ff%d_w" % j, _glorot(rng, (size, enc.gcn_dim)))
                self._add("gcn_ff%d_b" % j, np.zeros(enc.gcn_dim))
                size = enc.gcn_dim
        elif enc.kind == "attn":
            m = enc.attn_model_dim
            self._add("attn_in_w", _glorot(rng, (d_in, m)))
            self._add("attn_in_b", np.zeros(m))
            for layer in range(enc.attn_layers):
                for proj in ("wq", "wk", "wv"):
                    self._add("attn%d_%s" % (layer, proj), _glorot(rng, (m, enc.attn_kv_dim)))
                self._add("attn%d_wo" % layer, _glorot(rng, (enc.attn_kv_dim, m)))
                self._add("attn%d_bo" % layer, np.zeros(m))
                self._add("attn%d_ff1_w" % layer, _glorot(rng, (m, enc.attn_ff_dim)))
                self._add("attn%d_ff1_b" % layer, np.zeros(enc.attn_ff_dim))
                self._add("attn%d_ff2_w" % layer, _glorot(rng, (enc.attn_ff_dim, m)))
                self._add("attn%d_ff2_b" % layer, np.zeros(m))
        self._add("cls_w", _glorot(rng, (self.rep_dim, len(self.labels))))
        self._add("cls_b", np.zeros(len(self.labels)))

    @property
    def rep_dim(self):
        enc = self.enc_cfg
        if enc.kind == "cnn":
            return enc.cnn_filters * len(enc.cnn_sizes)
        if enc.kind == "bilstm":
            return 2 * enc.lstm_hidden
        if enc.kind == "gcn":
            return enc.gcn_dim if enc.gcn_ff_layers > 0 else 3 * enc.gcn_dim
        if enc.kind == "attn":
            return enc.attn_model_dim
        return self.input_cfg.width  # boe

    # -------------------------------------------------------------- forward

    def featurize(self, sentence, ctx_row=None, tree=None):
        """The Features of one sentence (B = 1)."""
        return self.featurize_batch((sentence,), (ctx_row,), None if tree is None else (tree,))

    def featurize_batch(self, sentences, ctx_rows=None, trees=None):
        """The packed Features of a sequence of sentences, computed once and
        reused by every forward pass. Trees (the sentences' DepTrees unless
        given) are built once per sentence, and only for masking or GCN. For
        GCN: the tokens kept around the SDP, their row-normalized adjacency
        (self loops included) and the head and tail pooling rows."""
        cfg, enc = self.input_cfg, self.enc_cfg
        n = len(sentences)
        ctx_rows = (None,) * n if ctx_rows is None else ctx_rows
        if cfg.use_contextual:
            for s, row in zip(sentences, ctx_rows):
                if row is None:
                    raise ValueError("missing contextual vectors for sentence %s" % s.id)
                if len(row) != len(s):
                    raise ValueError("%d contextual rows for the %d tokens of sentence %s"
                                     % (len(row), len(s), s.id))
        lengths = np.fromiter(map(len, sentences), dtype=np.int64, count=n)
        starts = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lengths, out=starts[1:])
        if trees is None and (cfg.masking or enc.kind == "gcn"):
            trees = [deptree.build_tree(s.dep_head) for s in sentences]
        token_lists = map(masked_tokens, sentences, trees) if cfg.masking \
            else (s.tokens for s in sentences)
        ids = self.vocab.ids(itertools.chain.from_iterable(token_lists))
        offsets = ()
        if cfg.pos_dim > 0:
            # rows: head start, tail start, head end, tail end of each token's
            # sentence, in packed row numbers
            spans = np.array([(s.head.start, s.tail.start, s.head.end, s.tail.end)
                              for s in sentences]).T
            spans = (spans + starts[:-1]).repeat(lengths, axis=1)
            off = position_offsets(Span(spans[:2], spans[2:]), starts[-1], cfg.max_offset)
            offsets = tuple(off + cfg.max_offset)
        graph = None
        if enc.kind == "gcn":
            kept, adjs, heads, tails = zip(*map(self._pruned_graph, sentences, trees))
            kept, kept_starts = _packed(kept, starts.tolist())
            shifts = kept_starts.tolist()
            graph = (kept, kept_starts, adjs, *_packed(heads, shifts), *_packed(tails, shifts))
        ctx = np.concatenate(ctx_rows) if cfg.use_contextual else None
        return Features(ids, offsets, ctx, graph, starts)

    def _pruned_graph(self, sentence, tree):
        """Kept tokens, normalized adjacency, head and tail pooling rows
        (positions among the kept tokens) of one sentence."""
        path = deptree.sdp(tree, sentence.head, sentence.tail)
        k = math.inf if self.enc_cfg.gcn_prune_k in (None, math.inf) else self.enc_cfg.gcn_prune_k
        kept = sorted(deptree.prune(tree, path, k))
        if not kept:
            raise ValueError("pruning removed every token")
        pos = {tok: i for i, tok in enumerate(kept)}
        adj = np.eye(len(kept), dtype=ad.current_dtype())
        for tok in kept:
            p = tree.parent[tok]
            if p is not None and p in pos:
                adj[pos[tok], pos[p]] = 1.0
                adj[pos[p], pos[tok]] = 1.0
        adj /= adj.sum(axis=1, keepdims=True)
        pools = [[pos[t] for t in kept if t in span] or [pos[deptree.span_root(tree, span)]]
                 for span in (sentence.head, sentence.tail)]
        return (kept, adj, *pools)

    def featurize_chunks(self, sentences, contextual=None):
        """Packed Features of consecutive chunks of EVAL_BATCH sentences, for
        eval-mode forward passes; contextual maps sentence ids to rows."""
        ctx = {} if contextual is None else contextual
        for lo in range(0, len(sentences), EVAL_BATCH):
            chunk = sentences[lo:lo + EVAL_BATCH]
            yield self.featurize_batch(chunk, [ctx.get(s.id) for s in chunk])

    def embed_inputs(self, features, train=False):
        """Per-token input matrix (ΣT x width) as an autodiff tensor."""
        cfg = self.input_cfg
        ids = features.ids
        if train and cfg.word_dropout > 0:
            drop = self.rng.random(len(ids)) < cfg.word_dropout
            ids = np.where(drop, self.vocab.stoi[UNK], ids)
        parts = [ad.gather_rows(self.params["word_emb"], ids)]
        for table, rows in zip(("pos_head_emb", "pos_tail_emb"), features.offsets):
            parts.append(ad.gather_rows(self.params[table], rows))
        if features.ctx is not None:
            parts.append(ad.constant(features.ctx))
        x = ad.concat(parts, axis=1) if len(parts) > 1 else parts[0]
        return ad.dropout(x, cfg.embedding_dropout, self.rng, train)

    def encode(self, features, train=False):
        """Sentence representations (B x rep_dim) of packed Features."""
        enc = self.enc_cfg
        x = self.embed_inputs(features, train=train)
        starts = features.starts
        if enc.kind == "cnn":
            rep = self._encode_cnn(x, starts)
        elif enc.kind == "gcn":
            rep = self._encode_gcn(x, features.graph, train)
        elif enc.kind == "bilstm":
            rep = self._encode_bilstm(x, starts, train)
        elif enc.kind == "attn":
            rep = self._encode_attn(x, starts, train)
        else:
            rep = ad.sum_axis(x, axis=0, starts=starts)
        return ad.dropout(rep, enc.encoder_dropout, self.rng, train)

    def logits(self, features, train=False):
        """Class scores (B x C) of packed Features."""
        rep = self.encode(features, train=train)
        return ad.linear(rep, self.params["cls_w"], self.params["cls_b"])

    def _encode_cnn(self, x, starts):
        enc = self.enc_cfg
        act = ad.tanh if enc.cnn_activation == "tanh" else ad.relu
        lengths = (starts[1:] - starts[:-1]).tolist()
        pools = []
        for k in enc.cnn_sizes:
            h = act(ad.conv1d(x, self.params["cnn_w%d" % k], self.params["cnn_b%d" % k],
                              starts=starts))
            # segment starts of conv1d's rows: max(len - k + 1, 1) windows per sentence
            windows = [0, *itertools.accumulate(max(n - k + 1, 1) for n in lengths)]
            pools.append(ad.amax(h, axis=0, starts=windows))
        return ad.concat(pools, axis=1) if len(pools) > 1 else pools[0]

    def _lstm_direction(self, x, starts, layer, dirn, train):
        """H (ΣT, h) of one direction ("f" or "b") of one BiLSTM layer."""
        enc = self.enc_cfg
        # variational recurrent dropout: one mask reused across time steps
        rmask = None
        if train and enc.recurrent_dropout > 0:
            keep = 1.0 - enc.recurrent_dropout
            rmask = (self.rng.random((1, enc.lstm_hidden)) < keep).astype(ad.current_dtype()) / keep
        name = "lstm%d_%s_" % (layer, dirn)
        return ad.lstm_sequence(x, self.params[name + "wx"], self.params[name + "wh"],
                                self.params[name + "b"], rmask=rmask, reverse=dirn == "b",
                                starts=starts)

    def _encode_bilstm(self, x, starts, train):
        enc = self.enc_cfg
        h = x
        for layer in range(enc.lstm_layers):
            fwd = self._lstm_direction(h, starts, layer, "f", train)
            bwd = self._lstm_direction(h, starts, layer, "b", train)
            h = ad.concat([fwd, bwd], axis=1)
        return ad.amax(h, axis=0, starts=starts)

    def _encode_gcn(self, x, graph, train):
        enc = self.enc_cfg
        kept, kept_starts, adjs, head_rows, head_starts, tail_rows, tail_starts = graph
        h = ad.gather_rows(x, kept)
        for layer in range(enc.gcn_layers):
            h = ad.relu(ad.segment_matmul(adjs, ad.linear(h, self.params["gcn%d_w" % layer],
                                                          self.params["gcn%d_b" % layer]),
                                          kept_starts))
            if layer < enc.gcn_layers - 1:
                h = ad.dropout(h, enc.gcn_dropout, self.rng, train)
        pools = [ad.amax(h, axis=0, starts=kept_starts)]
        for rows, starts in ((head_rows, head_starts), (tail_rows, tail_starts)):
            pools.append(ad.amax(ad.gather_rows(h, rows), axis=0, starts=starts))
        rep = ad.concat(pools, axis=1)
        for j in range(enc.gcn_ff_layers):
            rep = ad.relu(ad.linear(rep, self.params["gcn_ff%d_w" % j],
                                    self.params["gcn_ff%d_b" % j]))
        return rep

    def _encode_attn(self, x, starts, train):
        enc = self.enc_cfg
        h = ad.linear(x, self.params["attn_in_w"], self.params["attn_in_b"])
        for layer in range(enc.attn_layers):
            q = ad.matmul(h, self.params["attn%d_wq" % layer])
            k = ad.matmul(h, self.params["attn%d_wk" % layer])
            v = ad.matmul(h, self.params["attn%d_wv" % layer])
            # one draw for all heads of a sentence: the stream of one (T, T)
            # draw per head
            drop = None
            if train and enc.attn_dropout > 0:
                keep = 1.0 - enc.attn_dropout
                dtype = ad.current_dtype()
                drop = [(self.rng.random((enc.attn_heads, t, t)) < keep).astype(dtype)
                        / dtype(keep) for t in np.diff(starts).tolist()]
            merged = ad.multihead_attention(q, k, v, enc.attn_heads, drop=drop, starts=starts)
            h = ad.add(h, ad.linear(merged, self.params["attn%d_wo" % layer],
                                    self.params["attn%d_bo" % layer]))
            ff = ad.relu(ad.linear(h, self.params["attn%d_ff1_w" % layer],
                                   self.params["attn%d_ff1_b" % layer]))
            h = ad.add(h, ad.linear(ff, self.params["attn%d_ff2_w" % layer],
                                    self.params["attn%d_ff2_b" % layer]))
        return ad.gather_rows(h, starts[1:] - 1)  # each sentence's last row

    # ------------------------------------------------------------- utility

    def encode_np(self, sentence, ctx_row=None):
        """Eval-mode representation as a plain float32 vector."""
        rep = self.encode(self.featurize(sentence, ctx_row))
        return np.asarray(rep.data[0], dtype=np.float32)

    def predict(self, sentence, ctx_row=None):
        logits = self.logits(self.featurize(sentence, ctx_row))
        return self.labels[int(np.argmax(logits.data))]

    def zero_grads(self):
        for p in self.params.values():
            p.zero_grad()

    def config_blob(self):
        return {
            "input_cfg": asdict(self.input_cfg),
            "encoder_cfg": asdict(self.enc_cfg),
            "vocab": self.vocab.itos,
            "labels": list(self.labels),
            "negative_label": self.negative_label,
            "seed": self.seed,
        }
