"""Dependency tree algorithms: construction, depth, span roots, shortest paths, pruning."""

from __future__ import annotations

import math
from dataclasses import dataclass


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


def head_problems(dep_head):
    """Why 1-based parent indices (0 marks the root) are not one tree; empty
    if they are. O(n): all tokens must be reachable from a root (no cycles)."""
    return _walk(dep_head)[0]


def _walk(dep_head):
    """(head_problems, children lists) of 1-based parent indices; children
    is None when a value is out of range."""
    n = len(dep_head)
    if n == 0:
        return ["empty dep_head"], None
    problems = []
    roots = [i for i, h in enumerate(dep_head) if h == 0]
    if not roots:
        problems.append("no root token")
    elif len(roots) > 1:
        problems.append("multiple root tokens")
    if not all(0 <= h <= n for h in dep_head):
        return problems + ["dep_head value out of range"], None
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
    return problems, children


def build_tree(dep_head):
    """Build a DepTree from 1-based parent indices (0 marks the root token)."""
    problems, children = _walk(dep_head)
    if problems:
        raise ValueError("; ".join(problems))
    parent = tuple(h - 1 if h > 0 else None for h in dep_head)
    return DepTree(root=parent.index(None), parent=parent,
                   children=tuple(map(tuple, children)))


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
    """Token indices within undirected tree distance k of any SDP node.

    k may be math.inf to keep every token.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if math.isinf(k):
        return set(range(len(t)))
    kept = frontier = set(p.path)
    for _ in range(int(k)):  # each round adds the neighbours of the last one
        frontier = {t.parent[i] for i in frontier}.union(
            *(t.children[i] for i in frontier)) - kept - {None}
        if not frontier:
            break
        kept = kept | frontier
    return kept
