"""The scatter-adds of gather_rows, conv1d and amax against np.add.at.

Each op's backward must leave the gradient bytes that np.add.at leaves (the
references in tests/reference_ops.py): the fixed-seed check and the bitwise
training tests pin trained parameters byte for byte. np.add.at adds a row's
contributions one at a time in index order; float addition is not
associative, so any other order shows here.
"""

import types

import numpy as np
import pytest

import reference_ops as ref
from relprobe import autodiff as ad

DTYPES = pytest.mark.parametrize("dtype", (np.float32, np.float64), ids=("f32", "f64"))


class _NumpySpy:
    """numpy as relprobe.autodiff sees it, counting np.add.at calls."""

    def __init__(self):
        self.add_at_calls = 0
        self.add = types.SimpleNamespace(at=self._add_at, reduce=np.add.reduce)

    def _add_at(self, *args):
        self.add_at_calls += 1
        np.add.at(*args)

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.fixture
def spy(monkeypatch):
    s = _NumpySpy()
    monkeypatch.setattr(ad, "np", s)
    return s


def _values(rng, shape, dtype):
    """Normal draws over six orders of magnitude, about 5% of them -0.0."""
    v = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    v[rng.random(shape) < 0.05] = -0.0
    return v.astype(dtype)


def _backprop(out, g):
    """Backward with g as the gradient into out: the loss sum(out * g)
    hands out exactly 1 * g = g."""
    ad.sum_all(ad.mul(out, ad.constant(g))).backward()


def _param(data, init):
    """A parameter whose gradient already holds `init` (None: no gradient)."""
    p = ad.param(data)
    p.grad = None if init is None else init.copy()
    return p


def _gather_case(dtype, width, n, ids_2d, nonzero_init, seed=0):
    """Table, ids and gradient with ids drawn Zipf-like over 50 rows, and
    every fourth id the first one, so that at least one id repeats more
    than 9 times and most ids a few times."""
    rng = np.random.default_rng(seed)
    table = _values(rng, (50, width), dtype)
    ids = rng.permutation(50)[np.minimum(rng.zipf(1.3, size=n) - 1, 49)]
    ids[::4] = ids[0]
    if ids_2d:
        ids = ids.reshape(-1, 4 if n % 4 == 0 else 1)
    g = _values(rng, ids.shape + (width,), dtype)
    init = _values(rng, table.shape, dtype) if nonzero_init else None
    if nonzero_init:
        init[0] = -0.0  # a whole row of -0.0: -0.0 + -0.0 stays -0.0
    return table, ids, g, init


def _gather_grads(table, ids, g, init):
    with ad.use_dtype(table.dtype):
        got, want = _param(table, init), _param(table, init)
        out = ad.gather_rows(got, ids)
        _backprop(out, g)
        _backprop(ref.gather_rows_add_at(want, ids), g)
    assert out.data.tobytes() == table[ids].tobytes()
    assert np.bincount(np.ravel(ids) % len(table)).max() > 9
    return got.grad, want.grad


# (width, ids, takes the grouped kernel): each width on both sides of the
# crossover, where it has one; rows 1 wide never leave np.add.at
GATHER_CASES = [(1, 40, False), (1, 4096, False), (2, 40, False), (2, 4096, False),
                (3, 40, False), (3, 4096, False), (32, 40, False), (32, 1100, True),
                (300, 40, False), (300, 100, True)]


@DTYPES
@pytest.mark.parametrize("width,n,grouped", GATHER_CASES,
                         ids=["w%d-n%d" % c[:2] for c in GATHER_CASES])
@pytest.mark.parametrize("ids_2d", (False, True), ids=("ids1d", "ids2d"))
@pytest.mark.parametrize("nonzero_init", (False, True), ids=("zero", "init"))
def test_gather_rows_backward_is_np_add_at(spy, dtype, width, n, grouped, ids_2d,
                                           nonzero_init):
    case = _gather_case(dtype, width, n, ids_2d, nonzero_init)
    got, want = _gather_grads(*case)
    assert got.tobytes() == want.tobytes()
    assert spy.add_at_calls == (0 if grouped else 1)


@DTYPES
@pytest.mark.parametrize("width", (1, 2, 3, 32))
@pytest.mark.parametrize("ids_2d", (False, True), ids=("ids1d", "ids2d"))
@pytest.mark.parametrize("nonzero_init", (False, True), ids=("zero", "init"))
def test_grouped_kernel_is_np_add_at_at_every_width_but_one(monkeypatch, spy, dtype, width,
                                                            ids_2d, nonzero_init):
    # no crossover: every width takes the grouped kernel, except width 1,
    # where np.add.reduce over the (ids, m + 1, 1) stack would sum pairwise
    monkeypatch.setattr(ad, "_GROUPED_MIN", -np.inf)
    for seed in range(3):
        spy.add_at_calls = 0
        case = _gather_case(dtype, width, 200, ids_2d, nonzero_init, seed=seed)
        got, want = _gather_grads(*case)
        assert got.tobytes() == want.tobytes()
        assert spy.add_at_calls == (1 if width == 1 else 0)


def test_grouped_kernel_reads_a_negative_id_as_the_row_it_names(monkeypatch):
    monkeypatch.setattr(ad, "_GROUPED_MIN", -np.inf)
    table, ids, g, init = _gather_case(np.float64, 3, 200, False, True)
    ids = np.where(np.arange(len(ids)) % 2 == 0, ids - 50, ids)  # every other id as r - 50
    got, want = _gather_grads(table, ids, g, init)
    assert got.tobytes() == want.tobytes()


# sentence lengths: segments shorter than k = 2..5 between longer ones, and
# none shorter than 5 (no zero-padded windows)
LENGTHS = {"short": (6, 1, 7, 2, 1, 9, 3, 4), "long": (6, 7, 9, 5, 8)}


@DTYPES
@pytest.mark.parametrize("k", (2, 3, 4, 5))
@pytest.mark.parametrize("lengths", sorted(LENGTHS))
@pytest.mark.parametrize("nonzero_init", (False, True), ids=("zero", "init"))
def test_conv1d_backward_is_np_add_at(dtype, k, lengths, nonzero_init):
    rng = np.random.default_rng(k)
    starts = np.concatenate([[0], np.cumsum(LENGTHS[lengths])])
    d, f = 4, 3
    x = _values(rng, (starts[-1], d), dtype)
    w, b = _values(rng, (k * d, f), dtype), _values(rng, (f,), dtype)
    init = _values(rng, x.shape, dtype) if nonzero_init else None
    with ad.use_dtype(dtype):
        got = [_param(x, init), ad.param(w), ad.param(b)]
        want = [_param(x, init), ad.param(w), ad.param(b)]
        out = ad.conv1d(*got, starts=starts)
        out_ref = ref.conv1d_add_at(*want, starts=starts.tolist())
        assert out.data.tobytes() == out_ref.data.tobytes()
        g = _values(rng, out.shape, dtype)
        _backprop(out, g)
        _backprop(out_ref, g)
    for p, q in zip(got, want):
        assert p.grad.tobytes() == q.grad.tobytes()


@DTYPES
@pytest.mark.parametrize("nonzero_init", (False, True), ids=("zero", "init"))
def test_amax_backward_is_np_add_at(dtype, nonzero_init):
    rng = np.random.default_rng(5)
    starts = [0, 3, 4, 9, 11]
    a = _values(rng, (11, 6), dtype)
    a[5:7, 2] = a[5:7, 2].max()  # a tie: the first row takes the gradient
    init = _values(rng, a.shape, dtype) if nonzero_init else None
    with ad.use_dtype(dtype):
        got, want = _param(a, init), _param(a, init)
        out = ad.amax(got, starts=starts)
        out_ref = ref.amax_add_at(want, starts)
        assert out.data.tobytes() == out_ref.data.tobytes()
        g = _values(rng, out.shape, dtype)
        _backprop(out, g)
        _backprop(out_ref, g)
    assert got.grad.tobytes() == want.grad.tobytes()
