"""Input featurization and the sentence encoders (CNN, BiLSTM, GCN,
multi-headed self-attention, bag-of-embeddings) plus the relation
classification head.

REModel.featurize_batch turns B sentences into one packed Features record
once per run: their token rows one after another, with segment starts.
With entity masking it overwrites each span's rows with the id of its
SUBJ-/OBJ- token (corpus.entity_masks, the rule masked_tokens applies to
the strings that train_re builds its vocabulary and training ids from).
Every token is then embedded as the concatenation of its word vector, a
learned head-offset embedding, a learned tail-offset embedding and
(optionally) a precomputed contextual vector. Encoders map the resulting
ΣT x d_in matrix to one fixed-size representation row per sentence, each
op running once over the whole pack: windows, recurrences, attention,
graph products and pools never cross a sentence, so each row is computed
from its own sentence only. Training passes a minibatch taken from the
training record (Features.take), with the dropout masks of
REModel.dropout_masks; eval-mode passes take chunks of EVAL_BATCH
sentences of a split featurized once (eval_chunks).
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from . import deptree
from .corpus import Span, entity_masks, masked_tokens

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

    def tokens(self, sentences):
        """The token sequences train_re builds its vocabulary from and reads
        the training ids off: masked_tokens when masking."""
        return masked_tokens(sentences) if self.masking else [s.tokens for s in sentences]


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
        if self.attn_heads < 1:
            raise ValueError("attn_heads must be >= 1, not %r" % (self.attn_heads,))
        if self.kind == "attn" and self.attn_kv_dim % self.attn_heads != 0:
            raise ValueError("attn_kv_dim must be divisible by attn_heads")
        k = self.gcn_prune_k  # None means inf
        if not (k in (None, math.inf) or isinstance(k, numbers.Real)
                and not isinstance(k, bool) and k >= 0 and k == int(k)):
            raise ValueError("gcn_prune_k must be a whole number >= 0 or inf, not %r" % (k,))


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
        """The vocab of a saved id list; ValueError unless it starts with
        PAD and UNK and no token repeats."""
        v = cls.__new__(cls)
        v.itos = list(itos)
        v.stoi = {t: i for i, t in enumerate(v.itos)}
        if v.itos[:2] != [PAD, UNK]:
            raise ValueError("vocab must start %s, %s" % (PAD, UNK))
        _check_unique("vocab token", v.itos, v.stoi)
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

    graph, for gcn only, is (keep, head, tail, blocks, slots): three (ΣT,)
    bool masks of the token rows, marking the tokens kept around each
    sentence's SDP and the kept tokens inside its head and tail spans; and
    the normalized adjacency over each sentence's kept tokens, as item
    slots[1, i] of blocks[slots[0, i]] for sentence i. featurize_batch
    builds one (m, n, n) block per kept count n, in increasing n, of the m
    sentences that keep n tokens, in sentence order; a Features taken from
    it shares its blocks, and its (2, B) slots name its sentences' items.
    """

    ids: np.ndarray          # (ΣT,) vocab ids of the (masked) tokens
    offsets: tuple           # head and tail offset-embedding rows, (ΣT,) each; () when pos_dim == 0
    ctx: np.ndarray | None   # (ΣT, c) contextual rows when the input config uses them
    graph: tuple | None      # gcn: see above
    starts: np.ndarray       # (B+1,) segment starts of the token rows

    def take(self, indices):
        """The Features of sentences `indices`, in that order, as
        featurize_batch packs them, sharing its adjacency blocks; a range of
        consecutive sentences takes views of their rows."""
        if isinstance(indices, range) and indices.step == 1:
            lo = self.starts[indices.start]
            starts = self.starts[indices.start:indices.stop + 1] - lo
            rows = slice(lo, lo + starts[-1])
            indices = slice(indices.start, indices.stop)
        else:
            lengths = np.diff(self.starts)[indices]
            starts = np.concatenate(([0], np.cumsum(lengths)))
            rows = np.arange(starts[-1]) - (starts[:-1] - self.starts[indices]).repeat(lengths)
        graph = None
        if self.graph is not None:
            *masks, blocks, slots = self.graph
            graph = (*(m[rows] for m in masks), blocks, slots[:, indices])
        return Features(self.ids[rows], tuple(o[rows] for o in self.offsets),
                        None if self.ctx is None else self.ctx[rows], graph, starts)


def eval_chunks(features, n):
    """The Features of n sentences cut by take into consecutive chunks of
    EVAL_BATCH sentences, for eval-mode forward passes; at most EVAL_BATCH
    sentences are one chunk as they are."""
    if n <= EVAL_BATCH:
        return [features] if n else []
    return [features.take(range(lo, min(lo + EVAL_BATCH, n))) for lo in range(0, n, EVAL_BATCH)]


def _adjacencies(keep, parent, starts):
    """Row-normalized adjacency (self loops included) over each sentence's
    kept rows, in kept-row order: the blocks and slots of Features.graph,
    one (m, n, n) block for the m sentences that keep n rows."""
    kept = np.flatnonzero(keep)
    bounds = np.searchsorted(kept, starts)
    counts = np.diff(bounds)
    sentence = np.repeat(np.arange(len(counts)), counts)  # of each kept row
    where = np.zeros(len(keep), dtype=np.int64)
    where[kept] = np.arange(len(kept)) - bounds[sentence]  # among its sentence's kept rows
    up = parent[kept]
    edge = up >= 0
    edge[edge] = keep[up[edge]]  # kept rows whose parent is kept
    child, up, edge_sentence = where[kept[edge]], where[up[edge]], sentence[edge]
    # each sentence's block, by its kept count, and its item there
    order = counts.argsort(kind="stable")
    by_count = counts[order]
    new = np.ones(len(counts), dtype=bool)  # the first sentence of its count
    new[1:] = by_count[1:] != by_count[:-1]
    slots = np.empty((2, len(counts)), dtype=np.int64)
    slots[0, order] = new.cumsum() - 1
    first = np.flatnonzero(new)
    slots[1, order] = np.arange(len(counts)) - first[slots[0, order]]
    edge_block, edge_item = slots[0][edge_sentence], slots[1][edge_sentence]
    blocks = []
    sizes, members = by_count[first], np.diff(first, append=len(counts))
    for b, (size, m) in enumerate(zip(sizes.tolist(), members.tolist())):
        block = np.zeros((m, size, size), dtype=ad.current_dtype())
        block.reshape(m, -1)[:, ::size + 1] = 1.0
        sel = edge_block == b
        item, c, p = edge_item[sel], child[sel], up[sel]
        block[item, c, p] = 1.0
        block[item, p, c] = 1.0
        block /= block.sum(axis=2, keepdims=True)
        blocks.append(block)
    return tuple(blocks), slots


def check_contextual_rows(sentences, ctx_rows):
    """ValueError naming the first sentence whose contextual rows, given in
    order by ctx_rows, are None or not one row per token."""
    for s, rows in zip(sentences, ctx_rows):
        if rows is None:
            raise ValueError("no contextual vectors for sentence %s" % s.id)
        if len(rows) != len(s):
            raise ValueError("%d contextual rows for the %d tokens of sentence %s"
                             % (len(rows), len(s), s.id))


def _dropped(x, mask):
    """x times a dropout mask, or x itself when the mask is None."""
    return x if mask is None else ad.mul(x, ad.constant(mask))


def _gcn_rows(graph, starts):
    """(kept, kept_starts, plan, pools) of a packed gcn graph: the kept
    token rows and their segment starts, the segment_matmul plan of the
    adjacency blocks over them, and the head and tail pooling rows
    (positions among the kept rows) with their starts."""
    keep, head, tail, blocks, slots = graph
    kept = np.flatnonzero(keep)
    kept_starts = np.searchsorted(kept, starts)
    pools = [np.flatnonzero(span[kept]) for span in (head, tail)]
    return kept, kept_starts, ad.segment_plan(blocks, slots, kept_starts), \
        [(rows, np.searchsorted(rows, kept_starts)) for rows in pools]


def _glorot(rng, shape):
    limit = math.sqrt(6.0 / (shape[0] + shape[-1]))
    return rng.uniform(-limit, limit, size=shape)


def _dense(w, b, n_in, n_out):
    """Table entries of an n_in x n_out weight `w` and its bias `b`."""
    return [(w, (n_in, n_out)), (b, (n_out,))]


def _check_unique(what, items, index):
    """ValueError naming the first repeated item when `index`, each item's
    last position, is shorter than `items`."""
    if len(index) < len(items):
        raise ValueError("repeated %s %r" % (what, next(t for i, t in enumerate(items)
                                                         if index[t] != i)))


class REModel:
    """Sentence encoder + relation classification head over a fixed vocab."""

    def __init__(self, vocab, labels, input_cfg: InputConfig, enc_cfg: EncoderConfig,
                 seed=0, embeddings=None, negative_label=None, params=None):
        self.vocab = vocab
        self.labels = tuple(labels)
        self.label_index = {l: i for i, l in enumerate(self.labels)}
        _check_unique("label", self.labels, self.label_index)
        self.input_cfg = input_cfg
        self.enc_cfg = enc_cfg
        self.negative_label = negative_label
        self.seed = seed
        self.rng = np.random.default_rng(seed)  # dropout rng; reseed per run
        if params is None:  # else a loaded checkpoint's arrays, by table name
            params = self._init_params(np.random.default_rng(seed), embeddings)
        self.params = {name: ad.param(data) for name, data in params.items()}

    # ---------------------------------------------------------------- setup

    def param_shapes(self):
        """(name, shape) of every parameter, in draw, save and load order."""
        cfg, enc = self.input_cfg, self.enc_cfg
        table = [("word_emb", (len(self.vocab), cfg.word_dim))]
        if cfg.pos_dim > 0:
            rows = 2 * cfg.max_offset + 1
            table += [("pos_head_emb", (rows, cfg.pos_dim)), ("pos_tail_emb", (rows, cfg.pos_dim))]
        d_in = cfg.width
        if enc.kind == "cnn":
            for k in enc.cnn_sizes:
                table += _dense("cnn_w%d" % k, "cnn_b%d" % k, k * d_in, enc.cnn_filters)
        elif enc.kind == "bilstm":
            h = enc.lstm_hidden
            for layer, dirn in itertools.product(range(enc.lstm_layers), "fb"):
                p = "lstm%d_%s_" % (layer, dirn)
                table.append((p + "wx", (d_in if layer == 0 else 2 * h, 4 * h)))
                table += _dense(p + "wh", p + "b", h, 4 * h)
        elif enc.kind == "gcn":
            for layer in range(enc.gcn_layers):
                table += _dense("gcn%d_w" % layer, "gcn%d_b" % layer,
                                d_in if layer == 0 else enc.gcn_dim, enc.gcn_dim)
            for j in range(enc.gcn_ff_layers):
                table += _dense("gcn_ff%d_w" % j, "gcn_ff%d_b" % j,
                                3 * enc.gcn_dim if j == 0 else enc.gcn_dim, enc.gcn_dim)
        elif enc.kind == "attn":
            m, kv, ff = enc.attn_model_dim, enc.attn_kv_dim, enc.attn_ff_dim
            table += _dense("attn_in_w", "attn_in_b", d_in, m)
            for layer in range(enc.attn_layers):
                p = "attn%d_" % layer
                table += [(p + proj, (m, kv)) for proj in ("wq", "wk", "wv")]
                table += _dense(p + "wo", p + "bo", kv, m) + _dense(p + "ff1_w", p + "ff1_b", m, ff)
                table += _dense(p + "ff2_w", p + "ff2_b", ff, m)
        return table + _dense("cls_w", "cls_b", self.rep_dim, len(self.labels))

    def _init_params(self, rng, embeddings):
        """The table drawn in order, then word_emb's pretrained and PAD rows."""
        params = {}
        for name, shape in self.param_shapes():
            if name.endswith("_emb"):
                params[name] = rng.uniform(-0.1, 0.1, size=shape)
            elif len(shape) > 1:
                params[name] = _glorot(rng, shape)
            else:
                params[name] = np.zeros(shape)
                if name.startswith("lstm"):
                    params[name][shape[0] // 4:shape[0] // 2] = 1.0  # forget-gate bias
        if embeddings is not None:
            for tok, i in self.vocab.stoi.items():
                row = embeddings.index.get(tok)
                if row is not None:
                    params["word_emb"][i] = embeddings.matrix[row, : self.input_cfg.word_dim]
        params["word_emb"][0] = 0.0  # PAD row
        return params

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

    def featurize(self, sentence, ctx_row=None):
        """The Features of one sentence (B = 1)."""
        return self.featurize_batch((sentence,), (ctx_row,))

    def featurize_batch(self, sentences, ctx_rows=None):
        """The packed Features of a sequence of sentences, computed once and
        reused by every forward pass. With masking, each head span's rows
        take the id of its SUBJ- token, then each tail span's rows that of
        its OBJ- token, the span roots read off the GCN tree when there is
        one. For GCN: the tokens kept around each SDP, their row-normalized
        adjacency (self loops included) and the kept tokens of the head and
        tail spans, from a few array passes of deptree over the whole pack;
        ValueError names the first sentence whose dep_head is not one tree."""
        return self._featurize_tokens(sentences, ctx_rows)

    def _featurize_tokens(self, sentences, ctx_rows, token_lists=None):
        """featurize_batch, reading the ids off token_lists when given (the
        input_cfg.tokens of the sentences, already masked when masking)."""
        cfg, enc = self.input_cfg, self.enc_cfg
        n = len(sentences)
        ctx_rows = (None,) * n if ctx_rows is None else ctx_rows
        if cfg.use_contextual:
            check_contextual_rows(sentences, ctx_rows)
        sentences = deptree.packed(sentences)
        starts, bounds = sentences.starts, sentences.bounds
        lengths = np.diff(starts)
        tokens = (s.tokens for s in sentences) if token_lists is None else token_lists
        ids = self.vocab.ids(itertools.chain.from_iterable(tokens))
        rows = bounds.repeat(lengths, axis=1)
        off = position_offsets(Span(rows[:2], rows[2:]), starts[-1], cfg.max_offset)
        spans = off == 0  # the head and the tail span rows: off is 0 inside a span
        offsets = tuple(off + cfg.max_offset) if cfg.pos_dim > 0 else ()
        graph = None
        if enc.kind == "gcn":
            parent, depth = sentences.tree  # read first: the roots then come off it
            k = enc.gcn_prune_k
            keep = deptree.grow(deptree.path_mask(parent, depth, *sentences.roots),
                                parent, math.inf if k is None else k)
            graph = (keep, *(keep & spans), *_adjacencies(keep, parent, starts))
        if cfg.masking and token_lists is None:
            roots = sentences.roots - starts[:-1]  # positions, as argument_roots
            span_lengths = bounds[2:] - bounds[:2] + 1
            for span, masks, count in zip(spans, entity_masks(sentences, roots), span_lengths):
                ids[span] = self.vocab.ids(masks).repeat(count)
        ctx = np.concatenate(ctx_rows) if cfg.use_contextual else None
        return Features(ids, offsets, ctx, graph, starts)

    def dropout_masks(self, lengths, kept=None):
        """Train-mode dropout masks, by site, of B sentences of `lengths`
        tokens (and, for GCN, `kept` pruned-tree tokens). Each sentence's
        masks are drawn from self.rng in the order its own forward pass
        applies them, sentence after sentence, so B packed sentences draw
        the stream of B one-sentence passes; a site's masks are then joined
        row block after row block (attention's stay one (H, T, T) array per
        sentence). "word" is True where a token becomes UNK, the others are
        inverted-dropout masks, and a site without dropout has no entry."""
        cfg, enc = self.input_cfg, self.enc_cfg
        draws = {}
        for i, t in enumerate(lengths):
            sites = [("word", cfg.word_dropout, t), ("embed", cfg.embedding_dropout, (t, cfg.width))]
            if enc.kind == "bilstm":
                sites += [("lstm%d_%s" % (layer, dirn), enc.recurrent_dropout, (1, enc.lstm_hidden))
                          for layer in range(enc.lstm_layers) for dirn in "fb"]
            elif enc.kind == "gcn":
                sites += [("gcn%d" % layer, enc.gcn_dropout, (kept[i], enc.gcn_dim))
                          for layer in range(enc.gcn_layers - 1)]
            elif enc.kind == "attn":
                sites += [("attn%d" % layer, enc.attn_dropout, (enc.attn_heads, t, t))
                          for layer in range(enc.attn_layers)]
            sites.append(("encoder", enc.encoder_dropout, (1, self.rep_dim)))
            for site, p, shape in sites:
                if p > 0:
                    draws.setdefault(site, []).append(
                        self.rng.random(shape) < p if site == "word"
                        else ad.dropout_mask(shape, p, self.rng))
        return {site: parts if site.startswith("attn") else np.concatenate(parts)
                for site, parts in draws.items()}

    def embed_inputs(self, features, masks=None):
        """Per-token input matrix (ΣT x width) as an autodiff tensor, with
        the word and embedding dropout of `masks` (see dropout_masks)."""
        masks = masks or {}
        word = masks.get("word")
        ids = features.ids if word is None else np.where(word, self.vocab.stoi[UNK], features.ids)
        parts = [ad.gather_rows(self.params["word_emb"], ids)]
        for table, rows in zip(("pos_head_emb", "pos_tail_emb"), features.offsets):
            parts.append(ad.gather_rows(self.params[table], rows))
        if features.ctx is not None:
            parts.append(ad.constant(features.ctx))
        x = ad.concat(parts, axis=1) if len(parts) > 1 else parts[0]
        return _dropped(x, masks.get("embed"))

    def encode(self, features, train=False):
        """Sentence representations (B x rep_dim) of packed Features; with
        train=True, dropout masks are drawn for them (dropout_masks)."""
        enc = self.enc_cfg
        starts = features.starts
        graph = kept = None
        if features.graph is not None:
            graph = _gcn_rows(features.graph, starts)
            kept = np.diff(graph[1])
        masks = self.dropout_masks(np.diff(starts), kept) if train else {}
        x = self.embed_inputs(features, masks)
        if enc.kind == "cnn":
            rep = self._encode_cnn(x, starts)
        elif enc.kind == "gcn":
            rep = self._encode_gcn(x, graph, masks)
        elif enc.kind == "bilstm":
            rep = self._encode_bilstm(x, starts, masks)
        elif enc.kind == "attn":
            rep = self._encode_attn(x, starts, masks)
        else:
            rep = ad.sum_axis(x, starts=starts)
        return _dropped(rep, masks.get("encoder"))

    def logits(self, features, train=False):
        """Class scores (B x C) of packed Features."""
        rep = self.encode(features, train=train)
        return ad.linear(rep, self.params["cls_w"], self.params["cls_b"])

    def _encode_cnn(self, x, starts):
        enc = self.enc_cfg
        act = ad.tanh if enc.cnn_activation == "tanh" else ad.relu
        lengths = np.diff(starts)
        pools = []
        for k in enc.cnn_sizes:
            h = act(ad.conv1d(x, self.params["cnn_w%d" % k], self.params["cnn_b%d" % k],
                              starts=starts))
            # segment starts of conv1d's rows: max(len - k + 1, 1) windows per sentence
            windows = np.concatenate(([0], np.maximum(lengths - k + 1, 1).cumsum()))
            pools.append(ad.amax(h, starts=windows))
        return ad.concat(pools, axis=1) if len(pools) > 1 else pools[0]

    def _lstm_direction(self, x, starts, layer, dirn, rmask):
        """H (ΣT, h) of one direction ("f" or "b") of one BiLSTM layer;
        rmask: its (B, h) recurrent-dropout mask or None."""
        name = "lstm%d_%s_" % (layer, dirn)
        return ad.lstm_sequence(x, self.params[name + "wx"], self.params[name + "wh"],
                                self.params[name + "b"], rmask=rmask, reverse=dirn == "b",
                                starts=starts)

    def _encode_bilstm(self, x, starts, masks):
        enc = self.enc_cfg
        h = x
        for layer in range(enc.lstm_layers):
            fwd = self._lstm_direction(h, starts, layer, "f", masks.get("lstm%d_f" % layer))
            bwd = self._lstm_direction(h, starts, layer, "b", masks.get("lstm%d_b" % layer))
            h = ad.concat([fwd, bwd], axis=1)
        return ad.amax(h, starts=starts)

    def _encode_gcn(self, x, graph, masks):
        """graph: the (kept, kept_starts, plan, pools) of _gcn_rows."""
        enc = self.enc_cfg
        kept, kept_starts, plan, pools = graph
        h = ad.gather_rows(x, kept)
        for layer in range(enc.gcn_layers):
            h = ad.relu(ad.segment_matmul(plan, ad.linear(h, self.params["gcn%d_w" % layer],
                                                          self.params["gcn%d_b" % layer])))
            h = _dropped(h, masks.get("gcn%d" % layer))  # inner layers only
        rep = ad.concat([ad.amax(h, starts=kept_starts)] +
                        [ad.amax(ad.gather_rows(h, rows), starts=starts) for rows, starts in pools],
                        axis=1)
        for j in range(enc.gcn_ff_layers):
            rep = ad.relu(ad.linear(rep, self.params["gcn_ff%d_w" % j],
                                    self.params["gcn_ff%d_b" % j]))
        return rep

    def _encode_attn(self, x, starts, masks):
        enc = self.enc_cfg
        h = ad.linear(x, self.params["attn_in_w"], self.params["attn_in_b"])
        for layer in range(enc.attn_layers):
            q = ad.matmul(h, self.params["attn%d_wq" % layer])
            k = ad.matmul(h, self.params["attn%d_wk" % layer])
            v = ad.matmul(h, self.params["attn%d_wv" % layer])
            merged = ad.multihead_attention(q, k, v, enc.attn_heads,
                                            drop=masks.get("attn%d" % layer), starts=starts)
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
