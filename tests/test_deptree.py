"""relprobe.deptree's checks and packed passes, and the per-sentence oracle
of tests/reference_trees.py that they are compared with."""

import math
from collections import Counter

import numpy as np
import pytest

from relprobe.corpus import Span
from relprobe.deptree import head_problems, packed_trees, path_mask, span_roots

from conftest import random_parents
from reference_trees import (bfs_filter, build_tree, floyd_warshall_path, prune, sdp,
                             span_root, tree_depth)


# ------------------------------------------------------------------ oracles

def bfs_depth_oracle(dep_head):
    """Max root-to-leaf edge count via breadth-first search."""
    tree = build_tree(dep_head)
    frontier = [tree.root]
    depth = -1
    while frontier:
        depth += 1
        frontier = [c for node in frontier for c in tree.children[node]]
    return depth


# ------------------------------------------------------------------- build

def test_build_tree_basic():
    t = build_tree([2, 0, 2])
    assert t.root == 1
    assert set(t.children[1]) == {0, 2}
    assert t.parent[1] is None


def test_build_tree_single_node():
    t = build_tree([0])
    assert t.root == 0
    assert len(t) == 1


def test_build_tree_no_root():
    with pytest.raises(ValueError, match="no root"):
        build_tree([2, 1])


def test_build_tree_multiple_roots():
    with pytest.raises(ValueError, match="multiple root"):
        build_tree([0, 0])


def test_build_tree_cycle():
    with pytest.raises(ValueError, match="cycle"):
        build_tree([2, 3, 2, 0])


def test_build_tree_reserializes_parents():
    rng = np.random.default_rng(0)
    for _ in range(50):
        dep_head = random_parents(rng, int(rng.integers(2, 20)))
        t = build_tree(dep_head)
        rebuilt = [0 if t.parent[i] is None else t.parent[i] + 1 for i in range(len(t))]
        assert rebuilt == list(dep_head)


def walk_problems_oracle(dep_head):
    """head_problems by definition: count roots, check the range, then walk
    up from every token; more than n steps means a cycle."""
    n = len(dep_head)
    roots = sum(1 for h in dep_head if h == 0)
    problems = ["no root token"] if roots == 0 else ["multiple root tokens"] if roots > 1 else []
    if any(not (0 <= h <= n) for h in dep_head):
        return problems + ["dep_head value out of range"]
    for i in range(n):
        steps = 0
        while dep_head[i] != 0 and steps <= n:
            i, steps = dep_head[i] - 1, steps + 1
        if steps > n:
            return problems + ["cycle detected"]
    return problems


def _random_heads(rng, n, case):
    if case == "tree":
        return random_parents(rng, n)
    if case == "any":  # mostly cycles, zero or several roots
        return [int(h) for h in rng.integers(0, n + 1, size=n)]
    heads = random_parents(rng, n)
    i = int(rng.integers(n))
    if case == "two roots":
        heads[i] = 0
        heads[(heads.index(0) + 1 + int(rng.integers(n - 1))) % n] = 0
    elif case == "cycle":  # point a token at one of its descendants or itself
        below = [j for j in range(n) if _reaches(heads, j, i)]
        heads[i] = below[int(rng.integers(len(below)))] + 1
    else:  # out of range
        heads[i] = int(rng.choice([-1, n + 1, n + 5]))
    return heads


def _reaches(heads, j, i):
    """Whether token i lies on the walk from token j up to the root."""
    while True:
        if j == i:
            return True
        if heads[j] == 0:
            return False
        j = heads[j] - 1


def test_head_problems_property_random_heads():
    rng = np.random.default_rng(11)
    seen = Counter()
    for trial in range(3000):
        case = ("tree", "any", "two roots", "cycle", "out of range")[trial % 5]
        heads = _random_heads(rng, int(rng.integers(2 if case == "two roots" else 1, 12)), case)
        problems = head_problems(heads)
        assert problems == walk_problems_oracle(heads), heads
        seen.update(problems or ["valid"])
        if problems:
            with pytest.raises(ValueError) as err:
                build_tree(heads)
            assert str(err.value) == "; ".join(problems)
        else:
            assert len(build_tree(heads)) == len(heads)
    assert set(seen) == {"valid", "no root token", "multiple root tokens",
                         "dep_head value out of range", "cycle detected"}, seen


def test_head_problems_no_root_cycle():
    assert head_problems([2, 3, 1]) == ["no root token", "cycle detected"]
    assert head_problems([]) == ["empty dep_head"]


# ------------------------------------------------------------------- depth

def test_tree_depth_chain():
    assert tree_depth(build_tree([0, 1, 2])) == 2


def test_tree_depth_single():
    assert tree_depth(build_tree([0])) == 0


def test_tree_depth_matches_bfs_oracle():
    rng = np.random.default_rng(1)
    for _ in range(100):
        dep_head = random_parents(rng, 12)
        assert tree_depth(build_tree(dep_head)) == bfs_depth_oracle(dep_head)


# --------------------------------------------------------------- span root

def test_span_root_singleton():
    assert span_root([2, 0, 2], Span(0, 0)) == 0


def test_span_root_internal_head():
    # "Larry Page met X": Page(1) attaches to the verb, Larry(0) to Page
    assert span_root([2, 3, 0, 3], Span(0, 1)) == 1


def test_span_root_degenerate_falls_back_to_end():
    # span covering the whole sentence: root has no external parent but is
    # found first; restrict to a subtree whose parents are all internal
    assert span_root([0, 1, 2], Span(0, 2)) == 0  # root's head 0 -> external


def test_span_root_all_heads_internal_is_span_end():
    # a 2-cycle inside the span: no tree, and both heads are internal
    assert span_root([2, 1, 0], Span(0, 1)) == 1


def tree_span_root_oracle(dep_head, span):
    """The span root as defined on the built tree: the first span token whose
    parent is None or outside the span, else span.end."""
    t = build_tree(dep_head)
    for i in range(span.start, span.end + 1):
        p = t.parent[i]
        if p is None or not span.start <= p <= span.end:
            return i
    return span.end


def test_span_root_matches_tree_definition():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 16))
        dep_head = random_parents(rng, n)
        for start in range(n):
            for end in range(start, n):
                span = Span(start, end)
                assert span_root(dep_head, span) == tree_span_root_oracle(dep_head, span)


# --------------------------------------------------------------------- sdp

def test_sdp_three_tokens():
    t = build_tree([2, 0, 2])
    r = sdp(t, 0, 2)
    assert r.path == (0, 1, 2)
    assert r.lca == 1
    assert r.depth == 1


def test_sdp_ancestor_chain():
    # chain 0 <- 1 <- 2 <- 3 : head root is an ancestor at distance 3
    t = build_tree([0, 1, 2, 3])
    r = sdp(t, 0, 3)
    assert r.lca == 0
    assert r.depth == 3
    assert r.path == (0, 1, 2, 3)


def test_sdp_matches_floyd_warshall():
    rng = np.random.default_rng(2)
    for _ in range(500):
        n = int(rng.integers(3, 25))
        dep_head = random_parents(rng, n)
        a, b = rng.choice(n, size=2, replace=False)
        a, b = int(min(a, b)), int(max(a, b))
        t = build_tree(dep_head)
        r = sdp(t, a, b)
        oracle_path, dist = floyd_warshall_path(dep_head, a, b)
        assert list(r.path) == oracle_path
        # lca is the path node closest to the root
        assert r.lca in r.path
        assert r.depth == max(dist[r.lca, a], dist[r.lca, b])


def test_sdp_symmetric_up_to_reversal():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(3, 20))
        dep_head = random_parents(rng, n)
        t = build_tree(dep_head)
        a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
        r1 = sdp(t, min(a, b), max(a, b))
        r2 = sdp(t, max(a, b), min(a, b))
        assert r1.path == r2.path[::-1]
        assert r1.lca == r2.lca
        assert r1.depth == r2.depth


def test_sdp_depth_bounded_by_tree_depth():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        n = int(rng.integers(2, 30))
        dep_head = random_parents(rng, n)
        t = build_tree(dep_head)
        a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
        r = sdp(t, min(a, b), max(a, b))
        assert r.depth <= tree_depth(t)


# ------------------------------------------------------------------- prune

def test_prune_k0_is_path():
    t = build_tree([2, 0, 2, 1])
    r = sdp(t, 0, 2)
    assert prune(t, r, 0) == set(r.path)


def test_prune_infinity_keeps_all():
    dep_head = [0, 1, 1, 2, 2, 3, 3, 4, 4, 5]
    t = build_tree(dep_head)
    r = sdp(t, 0, 9)
    assert prune(t, r, math.inf) == set(range(10))


def test_prune_matches_bfs_filter():
    rng = np.random.default_rng(5)
    for _ in range(500):
        n = int(rng.integers(3, 25))
        dep_head = random_parents(rng, n)
        t = build_tree(dep_head)
        a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
        r = sdp(t, min(a, b), max(a, b))
        for k in (0, 1, 2, 3, n):  # n: farther than any two tokens are apart
            assert prune(t, r, k) == bfs_filter(dep_head, r.path, k)


def test_prune_monotone_in_k():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = int(rng.integers(3, 25))
        dep_head = random_parents(rng, n)
        t = build_tree(dep_head)
        a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
        r = sdp(t, min(a, b), max(a, b))
        prev = set()
        for k in (0, 1, 2, 3):
            cur = prune(t, r, k)
            assert prev <= cur
            prev = cur


# ---------------------------------------------------------- packed passes

def _pack(head_lists):
    """Concatenated heads and segment starts of sentences packed row after row."""
    starts = np.concatenate(([0], np.cumsum([len(h) for h in head_lists])))
    return np.concatenate([np.asarray(h, dtype=np.int64) for h in head_lists]), starts


def _oracle_depth(dep_head, i):
    """Edges from token i up to the root, walking dep_head."""
    d = 0
    while dep_head[i]:
        i, d = dep_head[i] - 1, d + 1
    return d


def test_packed_trees_flag_exactly_the_sentences_the_walk_oracle_flags():
    """Packs of 40 random heads (trees, cycles, zero or several roots, values
    out of range): bad lists the sentences walk_problems_oracle rejects, and
    every valid sentence gets its own parent rows and the walked depth of
    each token."""
    rng = np.random.default_rng(21)
    for _ in range(30):
        cases = [("tree", "any", "two roots", "cycle", "out of range")[j % 5]
                 for j in rng.permutation(40)]
        lists = [_random_heads(rng, int(rng.integers(2, 40)), case) for case in cases]
        heads, starts = _pack(lists)
        parent, depth, bad = packed_trees(heads, starts)
        assert bad.tolist() == [i for i, h in enumerate(lists) if walk_problems_oracle(h)]
        for i, h in enumerate(lists):
            if i not in bad:
                rows = slice(starts[i], starts[i + 1])
                assert parent[rows].tolist() == [p - 1 + starts[i] if p else -1 for p in h]
                assert depth[rows].tolist() == [_oracle_depth(h, j) for j in range(len(h))]


def test_span_roots_match_span_root_on_any_heads():
    """Every span of random heads, trees or not: one packed pass agrees with
    span_root, including its span.end fallback when every head of the span
    is internal (which takes a cycle)."""
    rng = np.random.default_rng(22)
    lists = [_random_heads(rng, int(rng.integers(1, 12)), ("tree", "any", "cycle")[i % 3])
             for i in range(120)]
    heads, starts = _pack(lists)
    parent = packed_trees(heads, starts)[0]
    spans = [(i, Span(a, b)) for i, h in enumerate(lists)
             for a in range(len(h)) for b in range(a, len(h))]
    first = np.array([starts[i] + sp.start for i, sp in spans])
    last = np.array([starts[i] + sp.end for i, sp in spans])
    got = span_roots(parent, first, last) - starts[[i for i, _ in spans]]
    want = [span_root(lists[i], sp) for i, sp in spans]
    assert got.tolist() == want
    fallback = sum(all(sp.start < lists[i][j] <= sp.end + 1 for j in range(sp.start, sp.end + 1))
                   for i, sp in spans)
    assert fallback > 20


def test_path_mask_marks_each_sdp_of_a_pack():
    rng = np.random.default_rng(23)
    lists = [random_parents(rng, int(rng.integers(1, 30))) for _ in range(200)]
    heads, starts = _pack(lists)
    parent, depth, bad = packed_trees(heads, starts)
    assert len(bad) == 0
    ends = [tuple(rng.integers(len(h), size=2).tolist()) for h in lists]
    mask = path_mask(parent, depth, *(np.array([starts[i] + e[j] for i, e in enumerate(ends)])
                                      for j in (0, 1)))
    for i, (h, (a, b)) in enumerate(zip(lists, ends)):
        assert np.flatnonzero(mask[starts[i]:starts[i + 1]]).tolist() == \
            sorted(sdp(build_tree(h), a, b).path)
