"""Dependency trees of sentences packed row after row.

The pipeline works on whole splits or batches at once, as 0-based packed
parent rows (-1 for a root). A Packed split computes their facts once and
keeps them: token starts, argument bounds, the tree that pack_trees checks
and packs, and the span roots. load_corpus fills in the starts and the tree
from its own check; probegen, the baselines and featurization read the
facts through packed(), which wraps a plain list or a slice on the same
path. span_roots, path_mask and grow answer for every sentence of the pack
with a few numpy passes. head_problems words the faults pack_trees finds
in one sentence, on the error path and for synth templates.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def head_problems(dep_head):
    """Why 1-based parent indices (0 marks the root) are not one tree; empty
    if they are. Words the faults packed_trees finds in a one-sentence pack."""
    if len(dep_head) == 0:
        return ["empty dep_head"]
    roots, outside, cycle = (fact[0] for fact in _tree_pass(*_pack([dep_head]))[2:])
    problems = ["no root token"] if roots == 0 else ["multiple root tokens"] if roots > 1 else []
    if outside:
        return problems + ["dep_head value out of range"]
    return problems + ["cycle detected"] * bool(cycle)


# ------------------------------------------------- packed sentences


def packed_starts(sequences):
    """(B + 1,) starts of sequences packed row after row, then the total
    length: sequence i owns rows [starts[i], starts[i+1]). Of sentences,
    these are their token rows."""
    starts = np.zeros(len(sequences) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, sequences), dtype=np.int64, count=len(sequences)),
              out=starts[1:])
    return starts


def _pack(dep_heads):
    """(heads, starts) of pack_trees: the sequences concatenated as int64."""
    starts = packed_starts(dep_heads)
    values = itertools.chain.from_iterable
    try:
        heads = np.fromiter(values(dep_heads), dtype=np.int64, count=starts[-1])
    except OverflowError:  # a value outside int64 reads as -1, out of range
        heads = np.fromiter((h if -2**63 <= h < 2**63 else -1 for h in values(dep_heads)),
                            dtype=np.int64, count=starts[-1])
    return heads, starts


def pack_trees(dep_heads):
    """(starts, parent, depth, bad): the 1-based dep_head sequences dep_heads
    packed row after row, sequence i owning rows [starts[i], starts[i+1]),
    and packed_trees of them."""
    heads, starts = _pack(dep_heads)
    return (starts, *packed_trees(heads, starts))


class Packed(tuple):
    """Sentences, as a tuple that computes their packed facts on first read
    and keeps them in its __dict__ (a slice is a plain tuple, which keeps
    none). A fact set on it, as the loader sets starts and tree, is never
    computed:
    - starts, the (B + 1,) packed_starts of their tokens;
    - bounds, the (4, B) packed rows of each one's head start, tail start,
      head end and tail end;
    - tree, (parent, depth) of pack_trees over their dep_head, else
      ValueError naming the first sentence whose dep_head does not hold one
      value per token, else the first that is not one tree;
    - roots, the (2, B) packed rows of each one's head and tail span root
      (span_roots), with no tree check but the lengths': off the tree when
      it is known, else off the heads of the spans of several tokens alone,
      as a one-token span's token is its root whatever its head.

    Each fact is a plain attribute once known, so a read takes no
    descriptor: __getattr__ runs only for a fact not yet computed.
    """

    def __getattr__(self, name):
        if name not in _FACTS:
            raise AttributeError("%r object has no attribute %r" % (type(self).__name__, name))
        value = self.__dict__[name] = _FACTS[name](self)
        return value


def _bounds(sentences):
    bounds = itertools.chain.from_iterable((s.head.start, s.tail.start, s.head.end, s.tail.end)
                                           for s in sentences)
    return np.fromiter(bounds, dtype=np.int64, count=4 * len(sentences)).reshape(-1, 4).T \
        + sentences.starts[:-1]


def _tree(sentences):
    head_starts, parent, depth, bad = pack_trees([s.dep_head for s in sentences])
    _check_lengths(sentences, head_starts)
    if len(bad):
        s = sentences[bad[0]]
        raise ValueError("sentence %s: %s" % (s.id, "; ".join(head_problems(s.dep_head))))
    return parent, depth


def _roots(sentences):
    first, last = sentences.bounds[:2].ravel(), sentences.bounds[2:].ravel()
    if "tree" in sentences.__dict__:
        return span_roots(sentences.tree[0], first, last).reshape(2, -1)
    _check_lengths(sentences, packed_starts([s.dep_head for s in sentences]))
    roots, n = first.copy(), len(sentences)
    for i in np.flatnonzero(last > first).tolist():  # head spans, then tail spans
        s = sentences[i % n]
        span = s.head if i < n else s.tail
        inside = [span.start < h <= span.end + 1 for h in s.dep_head[span.start:span.end + 1]]
        roots[i] += inside.index(False) if False in inside else len(span) - 1
    return roots.reshape(2, -1)


_FACTS = {"starts": packed_starts, "bounds": _bounds, "tree": _tree, "roots": _roots}


def packed(sentences):
    """The sentences as a Packed: themselves when they are one, so the facts
    read are kept with them, else a new one, which computes them again."""
    return sentences if isinstance(sentences, Packed) else Packed(sentences)


def _check_lengths(sentences, head_starts):
    """ValueError naming the first Packed sentence whose dep_head is not one
    value per token: the first whose end in head_starts, the packed starts
    of the dep_heads, differs from its end in the starts of the tokens."""
    mismatch = np.flatnonzero(head_starts[1:] != sentences.starts[1:])
    if len(mismatch):
        s = sentences[mismatch[0]]
        raise ValueError("%d dep_head values for the %d tokens of sentence %s"
                         % (len(s.dep_head), len(s), s.id))


def packed_trees(heads, starts):
    """(parent, depth, bad) of sentences packed row after row, sentence i
    owning rows [starts[i], starts[i+1]); heads is their concatenated 1-based
    dep_head (0 marks the root).

    parent[r] is the packed row of row r's head, -1 for a root. depth[r]
    counts the edges up to the root, by pointer jumping in ceil(log2(T_max))
    rounds (Hillis & Steele 1986, CACM 29(12)): after round j each row
    points 2**j edges up, or at its root. bad lists, in order, the sentences
    that are not one tree: no root or several, a head outside 0..len, or a
    row those rounds leave off a root (a cycle).
    """
    parent, depth, roots, outside, cycle = _tree_pass(heads, starts)
    return parent, depth, np.flatnonzero((roots != 1) | outside | cycle)


def _tree_pass(heads, starts):
    """packed_trees' parent and depth, and per sentence the three facts bad
    is made of: its root count, whether a head is out of range (it reads as a
    root, so no row points into another sentence) and whether it has a cycle."""
    heads = np.asarray(heads, dtype=np.int64)
    lengths = np.diff(starts)
    sentence = np.repeat(np.arange(len(lengths)), lengths)
    wrong = (heads < 0) | (heads > lengths[sentence])
    parent = np.where((heads > 0) & ~wrong, heads - 1 + starts[sentence], -1)
    up = np.where(parent < 0, np.arange(len(parent)), parent)  # a root points at itself
    depth = (parent >= 0).astype(np.int64)
    for _ in range(int(lengths.max(initial=1) - 1).bit_length()):
        depth += depth[up]
        up = up[up]
    roots, outside, cycle = (np.bincount(sentence[rows], minlength=len(lengths))
                             for rows in (heads == 0, wrong, parent[up] >= 0))
    return parent, depth, roots, outside > 0, cycle > 0


def span_roots(parent, first, last):
    """The root of every span of packed rows [first[i], last[i]] at once:
    the first row of the span whose parent lies outside it (a root's always
    does), else last[i], which takes a cycle inside the span."""
    lengths = last - first + 1
    offsets = np.cumsum(lengths) - lengths
    rows = np.arange(lengths.sum()) + np.repeat(first - offsets, lengths)
    lo, hi = np.repeat(first, lengths), np.repeat(last, lengths)
    inside = (parent[rows] >= lo) & (parent[rows] <= hi)
    return np.minimum.reduceat(np.where(inside, hi, rows), offsets)


def argument_roots(sentences):
    """(2, B) positions of each sentence's head and tail span roots: the
    Packed roots, with no tree check, less the sentence starts."""
    sentences = packed(sentences)
    return sentences.roots - sentences.starts[:-1]


def path_mask(parent, depth, a, b):
    """Mask of the rows on the tree path between rows a[i] and b[i], for
    every i at once: the deeper endpoint climbs until the depths align, then
    both climb together until they meet at their lowest common ancestor."""
    mask = np.zeros(len(parent), dtype=bool)
    mask[a] = True
    mask[b] = True
    apart = a != b
    x, y = a[apart], b[apart]
    while len(x):
        dx, dy = depth[x], depth[y]
        x = np.where(dx >= dy, parent[x], x)
        y = np.where(dy >= dx, parent[y], y)
        mask[x] = True
        mask[y] = True
        apart = x != y
        x, y = x[apart], y[apart]
    return mask


def grow(mask, parent, k):
    """Rows within undirected tree distance k of a row of mask: k rounds of
    adding the parents and the children of the rows kept so far, stopping
    once a round adds nothing; k = math.inf keeps every row. With the SDP as
    mask, this is the path-centric pruning of Zhang, Qi & Manning (2018,
    EMNLP)."""
    if math.isinf(k):
        return np.ones_like(mask)
    up = np.where(parent < 0, np.arange(len(parent)), parent)  # a root points at itself
    for _ in range(int(k)):
        grown = mask | mask[up]
        grown[up[mask]] = True
        if np.array_equal(grown, mask):
            break
        mask = grown
    return mask
