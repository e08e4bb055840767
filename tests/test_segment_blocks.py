"""segment_matmul by blocks: one batched matmul per block of m >= 2 segments
and one row-slice product per block of one, against the per-segment loop of
tests/reference_ops.py, byte for byte, forward and backward; and the blocks
that featurization builds and Features.take regroups."""

import dataclasses

import numpy as np
import pytest

import reference_ops
from relprobe import autodiff as ad
from relprobe.corpus import Span
from relprobe.encoders import EncoderConfig, InputConfig, REModel, Vocab, _gcn_rows
from relprobe.training import HyperProfile, desk_encoder_config, desk_input_config, train_re

from conftest import make_sentence, random_parents

DTYPES = pytest.mark.parametrize("dtype", (np.float32, np.float64), ids=("f32", "f64"))


def _shuffled_blocks(rng, counts):
    """Segments of every length n with counts[n] segments each, in shuffled
    order: their starts, one block of random matrices per length, with one
    spare matrix, and the slots of the segments' matrices in shuffled order."""
    lengths = rng.permutation(np.repeat(np.arange(len(counts)), counts))
    starts = np.concatenate(([0], np.cumsum(lengths)))
    sizes = [n for n, m in enumerate(counts) if m]
    blocks = [rng.normal(size=(counts[n] + 1, n, n)) for n in sizes]
    slots = np.zeros((2, len(lengths)), dtype=np.int64)
    for b, n in enumerate(sizes):
        members = np.flatnonzero(lengths == n)
        slots[0, members] = b
        slots[1, members] = rng.permutation(counts[n] + 1)[:len(members)]
    return starts, blocks, slots


def _assert_both_ways_equal(plan, x_data, rng):
    """Forward rows and the gradient of x under a random upstream gradient:
    segment_matmul's bytes equal the oracle's."""
    g = rng.normal(size=x_data.shape)
    got = []
    for op in (ad.segment_matmul, reference_ops.segment_matmul):
        x = ad.param(x_data)
        out = op(plan, x)
        ad.sum_all(ad.mul(out, ad.constant(g))).backward()
        got.append((out.data.dtype, out.data.tobytes(), x.grad.tobytes()))
    assert got[0] == got[1]


@DTYPES
@pytest.mark.parametrize("width", (32, 300))
def test_blocks_equal_per_segment_matmuls(dtype, width):
    """Lengths n of 1-35 rows, n times 7 mod 30 plus 1 segments each, so
    every m of 1-30 occurs; shuffled, so each stack's rows are scattered."""
    rng = np.random.default_rng(width)
    counts = [0] + [1 + 7 * n % 30 for n in range(1, 36)]
    assert sorted(set(counts[1:])) == list(range(1, 31))
    with ad.use_dtype(dtype):
        starts, blocks, slots = _shuffled_blocks(rng, counts)
        plan = ad.segment_plan(blocks, slots, starts)
        assert (len(plan.singles), len(plan.stacks)) == (1, 34)
        _assert_both_ways_equal(plan, rng.normal(size=(starts[-1], width)), rng)


@DTYPES
def test_stacks_and_singles(dtype):
    rng = np.random.default_rng(3)
    with ad.use_dtype(dtype):
        for counts in ([0, 0, 0, 30], [0, 1, 1, 1, 1], [0, 1], [0, 4, 0, 2]):
            starts, blocks, slots = _shuffled_blocks(rng, counts)
            _assert_both_ways_equal(ad.segment_plan(blocks, slots, starts),
                                    rng.normal(size=(starts[-1], 32)), rng)
        blocks = [rng.normal(size=(5, 2, 2)), rng.normal(size=(1, 3, 3)).astype(dtype)]
        plan = ad.segment_plan(blocks, [[0, 0, 1, 0], [3, 1, 0, 2]], (0, 2, 4, 7, 9))
        (mats, rows), = plan.stacks
        assert mats.dtype == dtype and rows == slice(0, 6)
        np.testing.assert_array_equal(mats, blocks[0][[3, 1, 2]].astype(dtype))
        (mat, rows), = plan.singles
        assert rows == slice(4, 7) and np.shares_memory(mat, blocks[1])
        _assert_both_ways_equal(plan, rng.normal(size=(9, 32)), rng)
        plan = ad.segment_plan(blocks[:1] + [blocks[1]], [[0, 0, 1, 0], [1, 2, 0, 3]],
                               (0, 2, 4, 7, 9))
        if dtype == np.float64:  # consecutive items 1-3 of a block in the dtype: a view
            assert plan.stacks[0][0].base is blocks[0]
        _assert_both_ways_equal(plan, rng.normal(size=(9, 32)), rng)


def _plan_error(slots, blocks=None, starts=(0, 2, 5, 7)):
    blocks = [np.ones((2, 2, 2)), np.ones((1, 3, 3))] if blocks is None else blocks
    with pytest.raises(ValueError) as error:
        ad.segment_plan(blocks, slots, starts)
    return str(error.value)


def test_a_plan_names_one_matrix_of_its_length_per_segment():
    assert _plan_error([[0, 1], [0, 0]]) == "slots of shape (2, 2) for 3 segments"
    assert _plan_error([[0, 1, 0, 0], [0, 0, 1, 1]]) == "slots of shape (2, 4) for 3 segments"
    named = "segment %d of %d rows names item %d of block %d of 2, not a %dx%d matrix"
    assert _plan_error([[0, 1, 2], [0, 0, 0]]) == named % (2, 2, 0, 2, 2, 2)
    assert _plan_error([[0, 1, -1], [0, 0, 0]]) == named % (2, 2, 0, -1, 2, 2)
    assert _plan_error([[0, 1, 0], [0, 0, 2]]) == named % (2, 2, 2, 0, 2, 2)
    assert _plan_error([[0, 1, 0], [0, -1, 1]]) == named % (1, 3, -1, 1, 3, 3)
    assert _plan_error([[0, 0, 1], [0, 1, 0]]) == named % (1, 3, 1, 0, 3, 3)
    # the first segment of block 0 fits its 2x2 matrices, the last does not
    assert _plan_error([[0, 1, 0], [0, 0, 1]], starts=(0, 2, 5, 8)) == named % (2, 3, 1, 0, 3, 3)
    assert _plan_error([[0, 1, 0], [0, 0, 1]], [np.ones((2, 2, 3)), np.ones((1, 3, 3))]) \
        == named % (0, 2, 0, 0, 2, 2)
    assert _plan_error([[0, 1, 0], [0, 0, 1]], starts=(0, 2, 2, 7)) \
        == "empty segment 1 in starts [0, 2, 2, 7]"
    plan = ad.segment_plan([np.ones((2, 2, 2)), np.ones((1, 3, 3))], [[0, 1, 0], [0, 0, 1]],
                           (0, 2, 5, 7))
    with pytest.raises(ValueError, match="^a plan of 7 rows for 8 rows$"):
        ad.segment_matmul(plan, np.ones((8, 2)))


def _gcn_sentences(rng, n):
    """n random trees of 1-19 tokens with one-token head and tail spans."""
    out = []
    for i in range(n):
        t = int(rng.integers(1, 20))
        a, b = rng.integers(t, size=2).tolist()
        out.append(make_sentence(random_parents(rng, t), head=Span(a, a), tail=Span(b, b),
                                 sid="s%d" % i))
    return out


@DTYPES
@pytest.mark.parametrize("k", (1, None))
def test_taken_blocks_equal_featurized_ones_and_the_oracle(dtype, k):
    """Shuffled batches (repeats included) and ranges taken from a featurized
    record share its blocks, and each sentence's slots name the adjacency of
    featurizing the sentences alone; their plan multiplies as the oracle does."""
    rng = np.random.default_rng(5)
    sentences = _gcn_sentences(rng, 120)
    with ad.use_dtype(dtype):
        model = REModel(Vocab(["tok0"]), ("a",), InputConfig(word_dim=2, pos_dim=0),
                        EncoderConfig(kind="gcn", gcn_layers=1, gcn_dim=2, gcn_ff_layers=0,
                                      gcn_prune_k=k), seed=1)
        record = model.featurize_batch(sentences)
        for picked in (rng.permutation(120)[:50], rng.integers(0, 120, size=50),
                       range(30, 80), range(0, 1), [7]):
            taken = record.take(picked)
            blocks, slots = taken.graph[3:]
            assert blocks is record.graph[3]
            want_blocks, want_slots = model.featurize_batch([sentences[i] for i in picked]).graph[3:]
            for (b, j), (want_b, want_j) in zip(slots.T, want_slots.T):
                adj, want = blocks[b][j], want_blocks[want_b][want_j]
                assert adj.dtype == want.dtype and adj.tobytes() == want.tobytes()
            kept, _, plan, _ = _gcn_rows(taken.graph, taken.starts)
            _assert_both_ways_equal(plan, rng.normal(size=(len(kept), 32)), rng)


@pytest.mark.parametrize("masking", (False, True))
def test_gcn_training_and_extraction_bytes_equal_the_oracle(small_corpus, monkeypatch, masking):
    """Two desk epochs with dropout, and the representations of the trained
    model, are the same bytes when segment_matmul runs per segment."""
    profile = HyperProfile("t", "sgd", 0.3, 2, 8, word_dropout=0.04, embedding_dropout=0.5)
    enc = dataclasses.replace(desk_encoder_config("gcn"), gcn_dropout=0.5)
    runs = []
    for op in (ad.segment_matmul, reference_ops.segment_matmul):
        monkeypatch.setattr(ad, "segment_matmul", op)
        model, history = train_re(small_corpus, desk_input_config(masking=masking), enc, profile,
                                  seed=3)
        with ad.no_tape():
            reps = model.encode(model.featurize_batch(small_corpus.test)).data
        runs.append(([(k, t.data.tobytes()) for k, t in model.params.items()],
                     history.to_csv(), reps.tobytes()))
    assert runs[0] == runs[1]
