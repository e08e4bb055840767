"""Dependency trees of sentences packed row after row.

The pipeline works on whole splits or batches at once, as 0-based packed
parent rows (-1 for a root): pack_trees checks and packs them, and
span_roots, path_mask and grow answer for every sentence of the pack with a
few numpy passes. The corpus loader, probegen's depth tasks and GCN
featurization all go through pack_trees. head_problems words why one
sentence's dep_head is not a tree, and span_root finds one span's root for
masking and the type and role tasks.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def head_problems(dep_head):
    """Why 1-based parent indices (0 marks the root) are not one tree; empty
    if they are. O(n): all tokens must be reachable from a root (no cycles)."""
    n = len(dep_head)
    if n == 0:
        return ["empty dep_head"]
    problems = []
    roots = [i for i, h in enumerate(dep_head) if h == 0]
    if not roots:
        problems.append("no root token")
    elif len(roots) > 1:
        problems.append("multiple root tokens")
    if not all(0 <= h <= n for h in dep_head):
        return problems + ["dep_head value out of range"]
    children = [[] for _ in range(n)]
    for i, h in enumerate(dep_head):
        if h:
            children[h - 1].append(i)
    stack, reached = roots, len(roots)
    while stack:
        below = children[stack.pop()]
        reached += len(below)
        stack.extend(below)
    if reached < n:
        problems.append("cycle detected")
    return problems


def span_root(dep_head, span) -> int:
    """Token in the span whose head (1-based dep_head) lies outside it.

    Leftmost such token if the annotation is non-projective; span.end when
    every token's head is internal (degenerate annotation). The root token
    (head 0) always counts as outside.
    """
    for i in range(span.start, span.end + 1):
        if not span.start < dep_head[i] <= span.end + 1:
            return i
    return span.end


# ------------------------------------------------- packed sentences


def pack_trees(dep_heads):
    """(starts, parent, depth, bad): the 1-based dep_head sequences dep_heads
    packed row after row, sequence i owning rows [starts[i], starts[i+1]),
    and packed_trees of them."""
    lengths = np.fromiter(map(len, dep_heads), dtype=np.int64, count=len(dep_heads))
    starts = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=starts[1:])
    heads = np.fromiter(itertools.chain.from_iterable(dep_heads), dtype=np.int64,
                        count=starts[-1])
    return (starts, *packed_trees(heads, starts))


def sentence_trees(sentences):
    """(starts, parent, depth) of pack_trees over the sentences' dep_head;
    ValueError naming the first sentence whose dep_head does not hold one
    value per token, else the first that is not one tree."""
    starts, parent, depth, bad = pack_trees([s.dep_head for s in sentences])
    lengths = np.fromiter(map(len, sentences), dtype=np.int64, count=len(sentences))
    mismatch = np.flatnonzero(lengths != np.diff(starts))
    if len(mismatch):
        s = sentences[mismatch[0]]
        raise ValueError("%d dep_head values for the %d tokens of sentence %s"
                         % (len(s.dep_head), len(s), s.id))
    if len(bad):
        s = sentences[bad[0]]
        raise ValueError("sentence %s: %s" % (s.id, "; ".join(head_problems(s.dep_head))))
    return starts, parent, depth


def packed_trees(heads, starts):
    """(parent, depth, bad) of sentences packed row after row, sentence i
    owning rows [starts[i], starts[i+1]); heads is their concatenated 1-based
    dep_head (0 marks the root).

    parent[r] is the packed row of row r's head, -1 for a root. depth[r]
    counts the edges up to the root, by pointer jumping in ceil(log2(T_max))
    rounds (Hillis & Steele 1986, CACM 29(12)): after round j each row
    points 2**j edges up, or at its root. bad lists, in order, the sentences
    that are not one tree: a head outside 0..len, no root or several, or a
    row those rounds leave off a root (a cycle). An out-of-range head reads
    as a root, so no row points into another sentence.
    """
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
    wrong |= parent[up] >= 0
    bad = np.bincount(sentence[heads == 0], minlength=len(lengths)) != 1
    bad[sentence[wrong]] = True
    return parent, depth, np.flatnonzero(bad)


def span_roots(parent, first, last):
    """span_root of every span of packed rows [first[i], last[i]] at once:
    the first row of the span whose parent lies outside it (a root's always
    does), else last[i]."""
    lengths = last - first + 1
    offsets = np.cumsum(lengths) - lengths
    rows = np.arange(lengths.sum()) + np.repeat(first - offsets, lengths)
    lo, hi = np.repeat(first, lengths), np.repeat(last, lengths)
    inside = (parent[rows] >= lo) & (parent[rows] <= hi)
    return np.minimum.reduceat(np.where(inside, hi, rows), offsets)


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
