import inspect
import math
import tracemalloc

import numpy as np
import pytest

from relprobe import autodiff as ad
from relprobe import optim
from relprobe.optim import EpochDecay, Plateau, Scheduler, make_optimizer
from relprobe.verify import op_checks

import reference_ops


# ---------------------------------------------------------------- forward

def test_add_broadcast_and_grad():
    a = ad.param(np.ones((2, 3)))
    b = ad.param(np.ones(3))
    loss = ad.sum_all(ad.mul(ad.add(a, b), ad.add(a, b)))
    loss.backward()
    assert loss.item() == pytest.approx(24.0)
    np.testing.assert_allclose(a.grad, 4.0 * np.ones((2, 3)))
    np.testing.assert_allclose(b.grad, 8.0 * np.ones(3))


def test_shared_gradient_array_is_not_aliased():
    # the outer add hands one array to the inner add and to a; if a kept it
    # as its gradient, the inner add's contribution to a would also land in b
    a = ad.param(np.ones(3))
    b = ad.param(np.ones(3))
    ad.sum_all(ad.add(ad.add(a, b), a)).backward()
    np.testing.assert_array_equal(a.grad, 2.0 * np.ones(3))
    np.testing.assert_array_equal(b.grad, np.ones(3))


def test_matmul_forward():
    a = ad.constant([[1.0, 2.0], [3.0, 4.0]])
    b = ad.constant([[5.0, 6.0], [7.0, 8.0]])
    np.testing.assert_allclose(ad.matmul(a, b).data, [[19, 22], [43, 50]])


def test_amax_over_time():
    x = ad.param([[1.0, 5.0], [3.0, 2.0]])
    out = ad.amax(x)
    np.testing.assert_allclose(out.data, [[3.0, 5.0]])
    ad.sum_all(out).backward()
    np.testing.assert_allclose(x.grad, [[0, 1], [1, 0]])


def test_amax_ties_go_to_first():
    x = ad.param([[2.0], [2.0]])
    ad.sum_all(ad.amax(x)).backward()
    np.testing.assert_allclose(x.grad, [[1.0], [0.0]])


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    x = ad.constant(rng.normal(size=(4, 7)))
    out = reference_ops.softmax(x).data
    np.testing.assert_allclose(out.sum(axis=-1), np.ones(4), rtol=1e-6)
    assert np.all(out > 0)


def test_softmax_uniform_on_constant_rows():
    out = reference_ops.softmax(ad.constant(np.zeros((2, 5)))).data
    np.testing.assert_allclose(out, np.full((2, 5), 0.2), rtol=1e-6)


def test_cross_entropy_matches_log():
    logits = ad.constant([[0.0, 0.0], [0.0, 0.0]])
    loss = ad.cross_entropy_logits(logits, [0, 1])
    assert loss.item() == pytest.approx(np.log(2.0), rel=1e-6)


def test_gather_rows_accumulates_duplicates():
    a = ad.param(np.eye(3))
    out = ad.gather_rows(a, [0, 0, 2])
    ad.sum_all(out).backward()
    np.testing.assert_allclose(a.grad, [[2, 2, 2], [0, 0, 0], [1, 1, 1]])


def test_gather_rows_gradient_of_a_large_leaf_is_row_sparse():
    rng = np.random.default_rng(8)
    a = ad.param(rng.normal(size=(9, 3)))
    ids = np.array([[1, 7, 4], [4, -2, 0]])  # -2 is row 7
    g = rng.normal(size=(2, 3, 3)).astype(np.float32)
    ad.sum_all(ad.mul(ad.gather_rows(a, ids), ad.constant(g))).backward()
    want = np.zeros((9, 3), np.float32)
    np.add.at(want, ids, g)
    rows, values = a.row_grad()
    np.testing.assert_array_equal(rows, [0, 1, 4, 7])
    assert values.tobytes() == want[rows].tobytes()
    assert a.grad.tobytes() == want.tobytes()  # reading grad makes it dense
    assert a.grad_rows is None and a.row_grad() is None
    a.zero_grad()
    ad.sum_all(ad.gather_rows(a, [3])).backward()
    np.testing.assert_array_equal(a.grad_rows, [3])
    a.zero_grad()
    assert a.row_grad() is None and a.grad is None


def test_row_sparse_gradient_turns_dense_on_any_other_accumulation():
    rng = np.random.default_rng(9)
    a = ad.param(rng.normal(size=(9, 3)))
    h = ad.tanh(a)  # not a leaf: its gradient stays dense
    loss = ad.add(ad.sum_all(ad.gather_rows(a, [2, 5])), ad.sum_all(ad.gather_rows(h, [1])))
    loss = ad.add(loss, ad.sum_all(ad.gather_rows(a, [5, 6])))
    loss.backward()
    want = np.zeros((9, 3), np.float32)
    np.add.at(want, [2, 5, 5, 6], 1.0)
    want[1] += 1.0 - np.tanh(a.data[1]) ** 2
    assert a.grad_rows is None
    np.testing.assert_allclose(a.grad, want, rtol=1e-6)


def test_concat_and_slices():
    a = ad.param(np.ones((2, 2)))
    b = ad.param(2 * np.ones((2, 2)))
    cat = ad.concat([a, b], axis=1)
    assert cat.shape == (2, 4)
    ad.sum_all(reference_ops.slice_cols(cat, 2, 4)).backward()
    np.testing.assert_allclose(a.grad, np.zeros((2, 2)))
    np.testing.assert_allclose(b.grad, np.ones((2, 2)))


def _conv1d_oracle(x, w, b, k):
    """Sliding-window convolution computed with explicit python loops."""
    t, d = x.shape
    f = w.shape[1]
    out = np.zeros((t - k + 1, f))
    for i in range(t - k + 1):
        window = x[i:i + k].reshape(-1)
        for j in range(f):
            out[i, j] = window @ w[:, j] + b[j]
    return out


def test_conv1d_matches_window_oracle():
    rng = np.random.default_rng(1)
    for k in (2, 3):
        x = rng.normal(size=(6, 4)).astype(np.float32)
        w = rng.normal(size=(k * 4, 5)).astype(np.float32)
        b = rng.normal(size=5).astype(np.float32)
        out = ad.conv1d(ad.constant(x), ad.constant(w), ad.constant(b))
        np.testing.assert_allclose(out.data, _conv1d_oracle(x, w, b, k),
                                   rtol=1e-5, atol=1e-5)


def test_conv1d_pads_short_input():
    x = np.array([[1.0, 2.0]], dtype=np.float32)  # T=1, k=3
    w = np.zeros((6, 2), dtype=np.float32)
    out = ad.conv1d(ad.constant(x), ad.constant(w))
    assert out.shape == (1, 2)


def test_dropout_expectation():
    rng = np.random.default_rng(2)
    x = ad.constant(np.ones(200000))
    out = reference_ops.dropout(x, 0.5, rng, train=True)
    assert out.data.mean() == pytest.approx(1.0, abs=0.01)


def test_dropout_eval_is_identity():
    x = ad.constant(np.ones(10))
    out = reference_ops.dropout(x, 0.5, np.random.default_rng(0), train=False)
    assert out is x
    assert reference_ops.dropout(x, 0.0, np.random.default_rng(0), train=True) is x


class _StubRng:
    """Returns fixed draws, tiled to the requested shape."""

    def __init__(self, draws):
        self.draws = np.asarray(draws, dtype=np.float64)

    def random(self, shape):
        return np.resize(self.draws, shape)


def test_dropout_mask_compares_draws_with_float64_keep():
    # draws in [float32(keep), keep) are kept: the comparison uses the
    # Python-float keep, not its float32 rounding
    p = 0.1
    keep = 1.0 - p
    lo = float(np.float32(keep))
    assert lo < keep
    gap = np.linspace(lo, keep, 6, endpoint=False)
    draws = np.concatenate([gap, [0.0, 0.5, keep, 0.95]])
    mask = ad.dropout_mask((2, draws.size), p, _StubRng(draws))
    tiled = np.resize(draws, (2, draws.size))
    # the expressions the dropout, BiLSTM rmask and attention masks once used
    for expected in ((tiled < keep).astype(np.float32) / np.float32(keep),
                     (tiled < keep).astype(np.float32) / keep):
        assert mask.dtype == expected.dtype
        assert mask.tobytes() == expected.tobytes()
    assert np.all(mask[:, :gap.size] > 0)


def test_backward_requires_scalar():
    with pytest.raises(ValueError, match="scalar"):
        ad.param(np.ones(3)).backward()


def test_shared_node_gradient_accumulates():
    x = ad.param([2.0])
    y = ad.add(ad.mul(x, x), reference_ops.scale(x, 3.0))  # x^2 + 3x, d/dx = 2x + 3
    ad.sum_all(y).backward()
    np.testing.assert_allclose(x.grad, [7.0])


def test_backward_frees_the_tape():
    w = ad.param(np.ones((3, 2)))
    hidden = ad.tanh(ad.matmul(ad.constant(np.ones((4, 3))), w))
    loss = ad.sum_all(ad.mul(hidden, hidden))
    loss.backward()
    for node in (loss, hidden):
        assert node._parents == () and node._backward is None and node.grad is None
    assert w.grad is not None and w.grad.shape == (3, 2)
    np.testing.assert_array_equal(hidden.data, np.tanh(np.full((4, 2), 3.0, np.float32)))


def test_use_dtype_scopes_precision():
    with ad.use_dtype(np.float64):
        assert ad.constant([1.0]).data.dtype == np.float64
    assert ad.constant([1.0]).data.dtype == np.float32


# ------------------------------------------------------------- optimizers

def _p(v):
    return ad.param(np.asarray(v, dtype=np.float32))


def _with_grad(value, grad):
    p = _p(value)
    p.grad = np.asarray(grad, dtype=np.float32)
    return p


def test_sgd_update():
    p = _with_grad([1.0], [0.5])
    make_optimizer("sgd", 0.1).step({"w": p})
    np.testing.assert_allclose(p.data, [0.95])


def test_adagrad_first_update():
    # acc = g^2 = 4, step = lr * g / sqrt(4 + eps) ~= 0.1
    p = _with_grad([1.0], [2.0])
    make_optimizer("adagrad", 0.1).step({"w": p})
    np.testing.assert_allclose(p.data, [0.9], atol=1e-6)


def test_adagrad_steps_shrink():
    p = _with_grad([0.0], [1.0])
    opt = make_optimizer("adagrad", 0.1)
    opt.step({"w": p})
    first = abs(float(p.data[0]))
    before = float(p.data[0])
    p.grad = np.asarray([1.0], dtype=np.float32)
    opt.step({"w": p})
    second = abs(float(p.data[0]) - before)
    assert second < first
    np.testing.assert_allclose(second, first / np.sqrt(2.0), rtol=1e-4)


def test_adadelta_first_update():
    # E[g^2] = 0.05*g^2; dx = -sqrt(eps)/sqrt(0.05 g^2 + eps) * g
    g = 2.0
    p = _with_grad([1.0], [g])
    optim.Adadelta(lr=1.0).step({"w": p})
    expected = 1.0 - np.sqrt(1e-8) / np.sqrt(0.05 * g * g + 1e-8) * g
    np.testing.assert_allclose(p.data, [expected], rtol=1e-5)


def test_adam_first_update_is_lr_sized():
    # bias correction makes the first step ~lr * sign(g)
    p = _with_grad([1.0], [3.0])
    make_optimizer("adam", 0.01).step({"w": p})
    np.testing.assert_allclose(p.data, [0.99], atol=1e-6)


def test_l2_group_applies_by_pattern():
    w = _with_grad([2.0], [0.0])
    b = _with_grad([2.0], [0.0])
    opt = optim.SGD(0.5, l2_groups=[("cnn_w*", 0.1)])
    opt.step({"cnn_w0": w, "cnn_b0": b})
    np.testing.assert_allclose(w.data, [1.9])  # grad 0 + 0.1*2 = 0.2
    np.testing.assert_allclose(b.data, [2.0])


def _textbook_step(kind, state, p, g, t, lr):
    """One update by the textbook formulas, each term a fresh array."""
    if kind == "sgd":
        return p - lr * g
    if kind == "adagrad":
        state["acc"] = state.get("acc", np.zeros_like(p)) + g * g
        return p - lr * g / np.sqrt(state["acc"] + 1e-8)
    if kind == "adadelta":
        rho, eps = 0.95, 1e-8
        g2 = rho * state.get("g2", np.zeros_like(p)) + (1 - rho) * g * g
        dx2 = state.get("dx2", np.zeros_like(p))
        dx = -np.sqrt(dx2 + eps) / np.sqrt(g2 + eps) * g
        state["g2"], state["dx2"] = g2, rho * dx2 + (1 - rho) * dx * dx
        return p + lr * dx
    b1, b2, eps = 0.9, 0.999, 1e-8
    state["m"] = b1 * state.get("m", np.zeros_like(p)) + (1 - b1) * g
    state["v"] = b2 * state.get("v", np.zeros_like(p)) + (1 - b2) * g * g
    m_hat = state["m"] / (1 - b1 ** t)
    v_hat = state["v"] / (1 - b2 ** t)
    return p - lr * m_hat / (np.sqrt(v_hat) + eps)


def _state_buffers(state):
    return [b for st in state.values() for b in (st.values() if isinstance(st, dict) else [st])]


@pytest.mark.parametrize("dtype", (np.float32, np.float64))
@pytest.mark.parametrize("kind", ("sgd", "adagrad", "adadelta", "adam"))
def test_optimizer_steps_equal_textbook_formulas_bytewise(kind, dtype):
    rng = np.random.default_rng(3)
    lr = 1.0 if kind == "adadelta" else 0.1
    groups = [("cnn_w*", 0.01)]
    shapes = {"cnn_w0": (3, 4), "cnn_b0": (4,), "emb": (2, 3)}  # emb never gets a gradient
    with ad.use_dtype(dtype):
        params = {name: ad.param(rng.normal(size=shape)) for name, shape in shapes.items()}
    want = {name: p.data.copy() for name, p in params.items()}
    states = {name: {} for name in params}
    opt = make_optimizer(kind, lr, l2_groups=groups)
    buffers = None
    for t in range(1, 6):
        for name in ("cnn_w0", "cnn_b0"):
            params[name].grad = rng.normal(size=shapes[name]).astype(dtype)
        for name, p in params.items():
            g = p.grad if p.grad is not None else np.zeros_like(want[name])
            if name.startswith("cnn_w"):
                g = g + 0.01 * want[name]
            want[name] = _textbook_step(kind, states[name], want[name], g, t, lr)
        opt.step(params)
        for name, p in params.items():
            assert p.data.dtype == want[name].dtype == dtype
            assert p.data.tobytes() == want[name].tobytes(), (name, t)
        if buffers is None:
            buffers = _state_buffers(opt.state)
        assert len(buffers) == {"sgd": 0, "adagrad": 3, "adadelta": 6, "adam": 6}[kind]
        assert all(a is b for a, b in zip(_state_buffers(opt.state), buffers, strict=True))


def _backprop_gather(table, ids, g, dense=False):
    """Backpropagate sum(gather_rows(table, ids) * g): table's gradient is
    the scatter-add of g's rows, row-sparse where gather_rows makes it so
    unless dense=True."""
    with pytest.MonkeyPatch.context() as mp:
        if dense:
            mp.setattr(ad, "_ROWS_PER_ID", math.inf)
        ad.sum_all(ad.mul(ad.gather_rows(table, ids), ad.constant(g))).backward()


@pytest.mark.parametrize("dtype", (np.float32, np.float64))
@pytest.mark.parametrize("width, n_ids", ((5, 14), (48, 520)))  # np.add.at; the grouped reduce
@pytest.mark.parametrize("kind", ("sgd", "adagrad", "adadelta", "adam"))
def test_row_sparse_steps_equal_dense_steps_bytewise(kind, width, n_ids, dtype, monkeypatch):
    rng = np.random.default_rng(5)
    n_rows = n_ids + 20
    lr = 1.0 if kind == "adadelta" else 0.1
    init = {name: rng.normal(size=(n_rows, width)) for name in ("word_emb", "cnn_w0")}
    for table in init.values():
        table[[0, 3]] = -0.0  # row 0 is never gathered, row 3 in every step
    with ad.use_dtype(dtype):
        sparse, dense = ({name: ad.param(t.copy()) for name, t in init.items()} for _ in range(2))
    # cnn_w0 matches an l2 group, so it steps densely whatever its gradient
    opts = [make_optimizer(kind, lr, l2_groups=[("cnn_w*", 0.01)]) for _ in range(2)]
    stepped_rows = []
    cls = type(opts[0])
    if cls._update_rows is not None:
        update_rows = cls._update_rows
        monkeypatch.setattr(cls, "_update_rows", lambda self, name, *args: (
            stepped_rows.append(name), update_rows(self, name, *args)))
    for step in range(3):
        ids = rng.integers(1, n_rows, size=n_ids)
        ids[:3] = [3, 3, 3 - n_rows]  # row 3 thrice, once by a negative id
        ids = ids.reshape(2, -1)
        g = rng.normal(size=ids.shape + (width,))
        with ad.use_dtype(dtype):
            for params, is_dense in ((sparse, False), (dense, True)):
                for p in params.values():
                    p.zero_grad()
                    _backprop_gather(p, ids, g, dense=is_dense)
        for name in init:
            rows, values = sparse[name].row_grad()
            np.testing.assert_array_equal(rows, np.unique(ids % n_rows))
            assert values.tobytes() == dense[name].grad[rows].tobytes()
        for opt, params in zip(opts, (sparse, dense)):
            opt.step(params)
        for name in init:
            assert sparse[name].data.dtype == dtype
            assert sparse[name].data.tobytes() == dense[name].data.tobytes(), (name, step)
            assert sparse[name].grad.tobytes() == dense[name].grad.tobytes()
        states = [[b.tobytes() for b in _state_buffers(opt.state)] for opt in opts]
        assert states[0] == states[1]
    assert stepped_rows == (["word_emb"] * 3 if kind in ("sgd", "adagrad") else [])


@pytest.mark.parametrize("kind", ("sgd", "adagrad"))
def test_row_sparse_step_allocates_no_table_sized_array(kind):
    rng = np.random.default_rng(6)
    table = ad.param(rng.standard_normal((20_000, 300), dtype=np.float32))
    opt = make_optimizer(kind, 0.1)

    def step():
        table.zero_grad()
        out = ad.gather_rows(table, rng.integers(0, 20_000, size=1_000))
        ad.sum_all(ad.mul(out, out)).backward()
        assert table.grad_rows is not None
        opt.step({"word_emb": table})

    step()  # Adagrad allocates its accumulator here
    tracemalloc.start()
    try:
        step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < table.data.nbytes


def test_unknown_optimizer():
    with pytest.raises(ValueError, match="unknown optimizer"):
        make_optimizer("rmsprop", 0.1)


def test_optimizer_rejects_nonpositive_lr():
    with pytest.raises(ValueError):
        optim.SGD(0.0)


# -------------------------------------------------------------- schedules

def test_epoch_decay_rule():
    sched = Scheduler(EpochDecay(factor=0.9, start_epoch=3), lr0=1.0)
    lrs = [sched.start_epoch(e) for e in range(1, 6)]
    np.testing.assert_allclose(lrs, [1.0, 1.0, 0.9, 0.81, 0.729])


def test_plateau_decays_after_patience():
    sched = Scheduler(Plateau(factor=0.5, patience=2, min_delta=1e-4), lr0=1.0)
    assert sched.end_epoch(0.5) == 1.0   # new best
    assert sched.end_epoch(0.5) == 1.0   # stale 1
    assert sched.end_epoch(0.5) == 0.5   # stale 2 -> decay
    assert sched.end_epoch(0.9) == 0.5   # recovers, no further decay


def test_plateau_min_delta_counts_as_stale():
    sched = Scheduler(Plateau(factor=0.5, patience=1, min_delta=0.1), lr0=1.0)
    sched.end_epoch(0.5)
    assert sched.end_epoch(0.55) == 0.5  # within min_delta, not an improvement


def test_schedule_pure_replay():
    def replay(history, policy, lr0):
        sched = Scheduler(policy, lr0)
        for epoch, metric in enumerate(history, start=1):
            sched.start_epoch(epoch)
            sched.end_epoch(metric)
        return sched.lr

    lr = replay([0.5, 0.5, 0.5, 0.5, 0.5], Plateau(factor=0.5, patience=2), 1.0)
    assert lr == pytest.approx(0.25)
    lr = replay([0.0] * 5, EpochDecay(factor=0.9, start_epoch=10), 2.0)
    assert lr == pytest.approx(2.0)


# -------------------------------------------------------------- gradcheck

def test_gradcheck_accepts_correct_gradient():
    with ad.use_dtype(np.float64):
        rng = np.random.default_rng(3)
        w = ad.param(rng.normal(size=(3, 2)))
        x = rng.normal(size=(4, 3))

        def fn():
            return ad.sum_all(ad.tanh(ad.matmul(ad.constant(x), w)))

        assert ad.gradcheck(fn, {"w": w}) < 1e-8


def test_gradcheck_registry_names_every_op():
    # entries are "<op>" or "<op>:<variant>"
    non_ops = {"current_dtype", "use_dtype", "no_tape", "param", "constant", "gradcheck",
               "dropout_mask", "segment_plan"}
    ops = {name for name, fn in vars(ad).items()
           if inspect.isfunction(fn) and fn.__module__ == ad.__name__
           and not name.startswith("_")} - non_ops
    results = op_checks()
    assert {name.split(":")[0] for name in results} == ops
    assert max(results.values()) < 1e-6


@pytest.mark.parametrize("op", ("transpose", "slice_rows", "slice_cols", "softmax", "scale",
                                "dropout", "reshape"))
def test_reference_op_gradients(op):
    fn = {"transpose": reference_ops.transpose,
          "slice_rows": lambda a: reference_ops.slice_rows(a, 1, 4),
          "slice_cols": lambda a: reference_ops.slice_cols(a, 1, 4),
          "softmax": reference_ops.softmax,
          "scale": lambda a: reference_ops.scale(a, 2.5),
          # a fresh rng per call: every loss evaluation draws the same mask
          "dropout": lambda a: reference_ops.dropout(a, 0.5, np.random.default_rng(1),
                                                     train=True),
          "reshape": lambda a: reference_ops.reshape(a, (3, 10))}[op]
    with ad.use_dtype(np.float64):
        a = ad.param(np.random.default_rng(4).normal(size=(5, 6)))
        assert ad.gradcheck(lambda: ad.sum_all(ad.mul(fn(a), fn(a))), {"a": a}) < 1e-6


def test_gradcheck_flags_wrong_gradient():
    with ad.use_dtype(np.float64):
        w = ad.param(np.array([1.0, 2.0]))

        def broken(a):
            def back(g):
                a._accum(0.5 * g)  # deliberately wrong: claims d(sum)/da = 0.5
            return ad.Tensor(a.data.sum(), parents=(a,), backward=back)

        assert ad.gradcheck(lambda: broken(w), {"w": w}) > 1e-2
