"""autodiff.amax against the per-segment loop of tests/reference_ops.py.

Rows up to ad._REDUCEAT_MAX_WIDTH wide reduce in one np.maximum.reduceat
pass; wider rows, and inputs where a max is NaN or is a zero held as both
+0.0 and -0.0, take the per-segment loop. On every path the forward bytes and
the gradient bytes (so the argmax rows) must equal the loop's.
"""

import itertools
import types

import numpy as np
import pytest

import reference_ops as ref
from relprobe import autodiff as ad
from relprobe.corpus import Corpus
from relprobe.probing import extract_reps
from relprobe.training import HyperProfile, desk_encoder_config, desk_input_config, train_re

DTYPES = pytest.mark.parametrize("dtype", (np.float32, np.float64), ids=("f32", "f64"))
NARROW = ad._REDUCEAT_MAX_WIDTH

# 17 rows of one segment, both zeros in both columns, every max a zero: with
# numpy 2.4.6, np.maximum.reduceat and x.max(axis=0) return zeros of
# different signs for it, in float32 and in float64
MIXED_ZEROS = [[-1.0, -0.0], [-1.0, -0.0], [-0.0, 0.0], [0.0, -1.0], [0.0, 0.0],
               [-1.0, -1.0], [-1.0, -0.0], [0.0, -0.0], [-1.0, 0.0], [0.0, 0.0],
               [0.0, -1.0], [-0.0, -1.0], [-0.0, 0.0], [0.0, 0.0], [-0.0, 0.0],
               [0.0, -0.0], [-0.0, -1.0]]


@pytest.fixture
def loops(monkeypatch):
    """Counts the per-segment loops relprobe.autodiff runs: each one iterates
    itertools.pairwise over the segment bounds."""
    calls = []

    def pairwise(bounds):
        calls.append(1)
        return itertools.pairwise(bounds)

    monkeypatch.setattr(ad, "itertools", types.SimpleNamespace(pairwise=pairwise))
    return calls


def _check(x, starts):
    """amax(x, starts) leaves the loop reference's forward and gradient bytes."""
    g = np.random.default_rng(1).normal(size=(1 if starts is None else len(starts) - 1,
                                              x.shape[1]))
    with ad.use_dtype(x.dtype.type):
        got, want = ad.param(x), ad.param(x.copy())
        out = ad.amax(got, starts=starts)
        out_ref = ref.amax_add_at(want, [0, len(x)] if starts is None else list(starts))
        assert out.data.tobytes() == out_ref.data.tobytes()
        for t in (out, out_ref):
            ad.sum_all(ad.mul(t, ad.constant(g.astype(x.dtype)))).backward()
    assert got.grad.tobytes() == want.grad.tobytes()


def _segments(rng, n_segments, longest):
    """Segment bounds of 1..longest rows each, one-row segments included."""
    lengths = rng.integers(1, longest + 1, size=n_segments)
    lengths[::3] = 1
    return [0, *itertools.accumulate(lengths.tolist())]


def _inputs(rng, n_rows, width, dtype):
    """Normal draws, 5% of them -0.0; small integers, with ties and +0.0
    zeros; and the relu of nonzero small integers, with ties and only -0.0
    zeros (the relu of an exact 0.0 is +0.0)."""
    normal = rng.normal(size=(n_rows, width))
    normal[rng.random(normal.shape) < 0.05] = -0.0
    ints = rng.integers(-3, 3, size=(n_rows, width)).astype(np.float64)
    nonzero = ints + (ints >= 0)
    return [v.astype(dtype) for v in (normal, ints, nonzero * (nonzero > 0))]


@DTYPES
@pytest.mark.parametrize("width", (1, 16, NARROW, NARROW + 1, 64, 130))
def test_amax_equals_the_loop_on_both_sides_of_the_crossover(loops, dtype, width):
    rng = np.random.default_rng(width)
    for n_segments, longest in ((1, 9), (7, 5), (40, 30)):
        starts = _segments(rng, n_segments, longest)
        for x in _inputs(rng, starts[-1], width, dtype):
            del loops[:]
            _check(x, starts)
            # the loop runs once forward and once backward, or never
            assert len(loops) == (0 if width <= NARROW else 2)


@DTYPES
@pytest.mark.parametrize("width", (3, NARROW + 1))
def test_amax_ties_and_one_row_segments(loops, dtype, width):
    x = np.zeros((6, width), dtype)  # all ties: the first row of each segment wins
    x[4] = 1.0
    x[5, 0] = 1.0
    for starts in (None, [0, 6], list(range(7)), [0, 1, 4, 5, 6]):
        _check(x, starts)


@DTYPES
def test_mixed_signed_zeros_take_the_loop(loops, dtype):
    x = np.array(MIXED_ZEROS, dtype)
    want = x.max(axis=0, keepdims=True)
    if np.__version__ == "2.4.6":  # the numpy the input was found with
        assert np.maximum.reduceat(x, [0], axis=0).tobytes() != want.tobytes()
    _check(x, [0, 17])
    assert loops
    # both zeros under a nonzero max: reduceat has only one answer
    del loops[:]
    x[16] = 1.0
    _check(x, [0, 17])
    assert not loops


@DTYPES
def test_nan_takes_the_loop(loops, dtype):
    x = np.random.default_rng(3).normal(size=(9, 4)).astype(dtype)
    x[5, 2] = np.nan
    x[1, 0] = np.nan
    for starts in ([0, 3, 4, 9], [0, 9], None):
        del loops[:]
        _check(x, starts)  # the one-pass argmax would index row 9 of 9
        assert loops


@pytest.mark.parametrize("kind", ("cnn", "gcn"))
def test_desk_cnn_and_gcn_take_one_pass(small_corpus, monkeypatch, loops, kind):
    """Every amax call of desk training and extraction takes reduceat, equal
    to the loop, so a silent fallback cannot hide."""
    calls = []
    real = ad.amax

    def recording(a, starts=None):
        calls.append((ad._as_tensor(a).data.copy(), starts))
        return real(a, starts=starts)

    monkeypatch.setattr(ad, "amax", recording)
    corpus = Corpus(train=small_corpus.train[:24], validation=small_corpus.validation[:8],
                    test=small_corpus.test[:8], label_inventory=small_corpus.label_inventory,
                    negative_label=small_corpus.negative_label)
    model, _ = train_re(corpus, desk_input_config(), desk_encoder_config(kind),
                        HyperProfile("t", "adam", 1e-2, 1, 8, pos_dim=8))
    extract_reps(model, corpus.test)
    monkeypatch.setattr(ad, "amax", real)
    assert calls
    del loops[:]  # those of the other segment ops
    for x, starts in calls:
        assert x.shape[1] <= NARROW
        _check(x, None if starts is None else np.asarray(starts).tolist())
    assert not loops
