"""The per-sentence dependency tree code that deptree's packed passes replaced.

The pipeline packs whole splits or batches of sentences and answers for all
of them at once (relprobe.deptree: packed_trees, span_roots, path_mask,
grow, argument_roots). DepTree and the functions that take one (build_tree,
tree_depth, sdp, prune), span_root and the entity masking built on it
(masked_tokens) work one sentence at a time, as the pipeline once did; they
are the oracle the packed passes are tested against, and
tests/reference_encoders.py builds its inputs with them. floyd_warshall_path
and bfs_filter are the brute-force oracles both implementations are checked
against in turn.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from relprobe.deptree import grow, head_problems


@dataclass(frozen=True)
class DepTree:
    """Rooted tree over token indices. parent[i] is None for the root."""

    root: int
    parent: tuple
    children: tuple

    def __len__(self):
        return len(self.parent)


@dataclass(frozen=True)
class SdpResult:
    """Shortest dependency path between two tokens.

    path runs from the first endpoint to the second; lca is the deepest
    common ancestor; depth = max(#edges lca->first, #edges lca->second).
    """

    path: tuple
    lca: int
    depth: int


def build_tree(dep_head):
    """Build a DepTree from 1-based parent indices (0 marks the root token)."""
    problems = head_problems(dep_head)
    if problems:
        raise ValueError("; ".join(problems))
    parent = tuple(h - 1 if h > 0 else None for h in dep_head)
    children = [[] for _ in parent]
    for i, p in enumerate(parent):
        if p is not None:
            children[p].append(i)
    return DepTree(root=parent.index(None), parent=parent,
                   children=tuple(map(tuple, children)))


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


def masked_tokens(s) -> tuple:
    """The tokens of one sentence with head tokens replaced by SUBJ-<TYPE>
    and tail tokens by OBJ-<TYPE>, <TYPE> the NE tag of the span_root; read
    off s.dep_head with no tree built, so a cyclic dep_head does not raise."""
    tokens = list(s.tokens)
    for prefix, span in (("SUBJ", s.head), ("OBJ", s.tail)):
        mask = "%s-%s" % (prefix, s.ner[span_root(s.dep_head, span)])
        tokens[span.start:span.end + 1] = [mask] * len(span)
    return tuple(tokens)


def tree_depth(t: DepTree) -> int:
    """Maximum number of edges on any root-to-leaf path (single node -> 0)."""
    best = 0
    stack = [(t.root, 0)]
    while stack:
        node, d = stack.pop()
        best = max(best, d)
        for c in t.children[node]:
            stack.append((c, d + 1))
    return best


def _depth_of(t: DepTree, node: int) -> int:
    d = 0
    while t.parent[node] is not None:
        node = t.parent[node]
        d += 1
    return d


def sdp(t: DepTree, a: int, b: int) -> SdpResult:
    """Unique tree path between tokens a and b."""
    da, db = _depth_of(t, a), _depth_of(t, b)
    up_a, up_b = [a], [b]
    x, y = a, b
    while da > db:
        x = t.parent[x]
        up_a.append(x)
        da -= 1
    while db > da:
        y = t.parent[y]
        up_b.append(y)
        db -= 1
    while x != y:
        x = t.parent[x]
        y = t.parent[y]
        up_a.append(x)
        up_b.append(y)
    lca = x
    # up_a ends at lca; up_b ends at lca as well
    path = tuple(up_a + up_b[-2::-1]) if len(up_b) > 1 else tuple(up_a)
    depth = max(len(up_a) - 1, len(up_b) - 1)
    return SdpResult(path=path, lca=lca, depth=depth)


def prune(t: DepTree, p: SdpResult, k) -> set:
    """Token indices within undirected tree distance k of any SDP node: the
    one-sentence case of grow. k may be math.inf to keep every token.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    mask = np.zeros(len(t), dtype=bool)
    mask[list(p.path)] = True
    parent = np.array([-1 if q is None else q for q in t.parent], dtype=np.int64)
    return set(np.flatnonzero(grow(mask, parent, k)).tolist())


# ------------------------------------------------------ brute-force oracles


def floyd_warshall_path(dep_head, a, b):
    """(path from a to b as a node list, all-pairs distance matrix) of the
    undirected tree, by Floyd-Warshall with path reconstruction."""
    n = len(dep_head)
    dist = np.full((n, n), np.inf)
    nxt = np.full((n, n), -1, dtype=int)
    np.fill_diagonal(dist, 0)
    nxt[np.arange(n), np.arange(n)] = np.arange(n)
    for i, h in enumerate(dep_head):
        if h > 0:
            j = h - 1
            dist[i, j] = dist[j, i] = 1
            nxt[i, j] = j
            nxt[j, i] = i
    for k in range(n):
        alt = dist[:, k, None] + dist[None, k, :]
        better = alt < dist
        dist = np.where(better, alt, dist)
        nxt = np.where(better, nxt[:, k, None], nxt)
    path = [a]
    while path[-1] != b:
        path.append(int(nxt[path[-1], b]))
    return path, dist


def bfs_filter(dep_head, path_nodes, k):
    """Tokens within undirected distance k of a node of path_nodes, by a
    breadth-first search from each of them."""
    n = len(dep_head)
    adj = [[] for _ in range(n)]
    for i, h in enumerate(dep_head):
        if h > 0:
            adj[i].append(h - 1)
            adj[h - 1].append(i)
    kept = set()
    for src in path_nodes:
        dist = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        kept |= {v for v, d in dist.items() if d <= k}
    return kept
