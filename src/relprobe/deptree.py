"""Dependency tree algorithms: construction, depth, span roots, shortest paths, pruning."""

from __future__ import annotations

import math
from collections import deque
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
    """Shortest dependency path between two span-root tokens.

    path runs from the head-side endpoint to the tail-side endpoint; lca is
    the deepest common ancestor; depth = max(#edges lca->head endpoint,
    #edges lca->tail endpoint).
    """

    path: tuple
    lca: int
    depth: int


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
                   children=tuple(tuple(c) for c in children))


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


def span_root(t: DepTree, span) -> int:
    """Token in the span whose parent lies outside it.

    Leftmost such token if the annotation is non-projective; span.end when
    every token's parent is internal (degenerate annotation).
    """
    members = set(range(span.start, span.end + 1))
    for i in range(span.start, span.end + 1):
        p = t.parent[i]
        if p is None or p not in members:
            return i
    return span.end


def _depth_of(t: DepTree, node: int) -> int:
    d = 0
    while t.parent[node] is not None:
        node = t.parent[node]
        d += 1
    return d


def sdp(t: DepTree, head, tail) -> SdpResult:
    """Unique tree path between span_root(head) and span_root(tail)."""
    a = span_root(t, head)
    b = span_root(t, tail)
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
    n = len(t)
    if math.isinf(k):
        return set(range(n))
    neighbors = [list(t.children[i]) for i in range(n)]
    for i in range(n):
        if t.parent[i] is not None:
            neighbors[i].append(t.parent[i])
    dist = {node: 0 for node in p.path}
    q = deque(p.path)
    while q:
        node = q.popleft()
        if dist[node] == k:
            continue
        for nb in neighbors[node]:
            if nb not in dist:
                dist[nb] = dist[node] + 1
                q.append(nb)
    return set(dist)
