"""Span tracing of relprobe's layers from outside the package.

`Tracer.install()` replaces the public functions of each relprobe module
(and the methods of its classes) with wrappers that record one span per
call: name, start, end and the index of the enclosing span. Autodiff ops
additionally get their backward closures wrapped, so every op has a forward
and a backward span. `Tracer.uninstall()` puts every original attribute
back. Spans are kept in flat arrays and reduced to per-layer metrics by
`layer_metrics()`; a layer's self time is its span time minus the time of
the spans directly inside it.
"""

from __future__ import annotations

import inspect
from array import array
from time import perf_counter

import numpy as np

# Functions in relprobe.autodiff that build tensors but are not ops.
_AUTODIFF_NON_OPS = {"current_dtype", "use_dtype", "param", "constant", "gradcheck"}


class _TimedBackward:
    """Backward closure of one autodiff op, timed as its own span."""

    __slots__ = ("tracer", "name_id", "fn", "flops", "nbytes")

    def __init__(self, tracer, name_id, fn, flops=0, nbytes=0):
        self.tracer = tracer
        self.name_id = name_id
        self.fn = fn
        self.flops = flops
        self.nbytes = nbytes

    def __call__(self, g):
        tr = self.tracer
        idx = tr._open(self.name_id)
        try:
            return self.fn(g)
        finally:
            tr._close(idx)
            if self.flops:
                tr.counts["autodiff.matmul.flops"] += self.flops
                tr.counts["autodiff.matmul.bytes"] += self.nbytes


class Tracer:
    def __init__(self, relprobe_modules):
        self.mods = relprobe_modules  # dict: short name -> module
        self._names = {}
        self._name_list = []
        self._patches = []  # (owner, attr, original, owned) in install order
        self.reset()

    # ----------------------------------------------------------- recording

    def reset(self):
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self._stack = []
        self.counts = {"autodiff.nodes": 0, "autodiff.matmul.flops": 0,
                       "autodiff.matmul.bytes": 0, "optim.bytes": 0, "optim.steps": 0,
                       "probing.fit_steps": 0, "probing.capped": 0}

    def _intern(self, name):
        i = self._names.get(name)
        if i is None:
            i = self._names[name] = len(self._name_list)
            self._name_list.append(name)
        return i

    def _open(self, name_id):
        idx = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx):
        self.ends[idx] = perf_counter()
        self._stack.pop()

    # ------------------------------------------------------------ patching

    def _patch(self, owner, attr, wrapper):
        owned = attr in vars(owner)
        original = vars(owner)[attr] if owned else getattr(owner, attr)
        self._patches.append((owner, attr, original, owned))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, fn, name=None, name_fn=None, after=None):
        """Wrap fn in a span named `name`, or name_fn(args) when given."""
        tracer = self
        name_id = None if name is None else self._intern(name)

        def wrapper(*args, **kwargs):
            nid = tracer._intern(name_fn(args)) if name_fn else name_id
            idx = tracer._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _op_wrapper(self, fn, op):
        tracer = self
        ad = self.mods["autodiff"]
        tensor_cls = ad.Tensor
        fwd_id = self._intern("autodiff.%s.fwd" % op)
        bwd_id = self._intern("autodiff.%s.bwd" % op)
        is_matmul = op == "matmul"

        def wrapper(*args, **kwargs):
            idx = tracer._open(fwd_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            # composite ops (linear, conv1d, dropout) return a tensor whose
            # backward an inner op already owns
            if type(out) is tensor_cls and out._backward is not None \
                    and type(out._backward) is not _TimedBackward:
                tracer.counts["autodiff.nodes"] += 1
                flops = nbytes = 0
                if is_matmul:
                    flops, nbytes = _matmul_cost(tracer, args[0], args[1], out)
                out._backward = _TimedBackward(tracer, bwd_id, out._backward, flops, nbytes)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        m = self.mods
        ad, enc, opt = m["autodiff"], m["encoders"], m["optim"]
        # autodiff: every op, plus the graph walk
        for name, fn in _module_functions(ad):
            if name not in _AUTODIFF_NON_OPS:
                self._patch(ad, name, self._op_wrapper(fn, name))
        self._patch(ad.Tensor, "backward",
                    self._span_wrapper(ad.Tensor.backward, "autodiff.backward"))
        # plain module functions, also where another module imported them by name
        for short in ("corpus", "deptree", "probegen", "training", "probing"):
            mod = m[short]
            for name, fn in _module_functions(mod):
                if short == "probing" and name == "_fit_softmax":
                    wrapper = self._fit_wrapper(fn)
                else:
                    wrapper = self._span_wrapper(fn, "%s.%s" % (short, name))
                self._patch(mod, name, wrapper)
                for other in m.values():
                    if other is not mod and vars(other).get(name) is fn:
                        self._patch(other, name, wrapper)
        # encoder methods, named by encoder kind
        kind_of = lambda args: args[0].enc_cfg.kind  # noqa: E731
        for name in ("embed_inputs", "encode", "logits", "encode_np",
                     "_encode_cnn", "_encode_bilstm", "_lstm_direction",
                     "_encode_gcn", "_encode_attn"):
            fn = vars(enc.REModel)[name]
            label = name.lstrip("_")
            self._patch(enc.REModel, name, self._span_wrapper(
                fn, name_fn=lambda args, label=label: "encoders.%s.%s" % (kind_of(args), label)))
        # optimizers: every subclass step reaches Optimizer.step exactly once
        self._patch(opt.Optimizer, "step", self._span_wrapper(
            opt.Optimizer.step, "optim.step", after=self._count_optim_bytes))

    def uninstall(self):
        for owner, attr, original, owned in reversed(self._patches):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches = []

    def patched_attributes(self):
        """(owner, attr, original) for every attribute install() replaced."""
        return [(o, a, orig) for o, a, orig, _ in self._patches]

    # -------------------------------------------------------------- counts

    def _count_optim_bytes(self, args, kwargs, out):
        optimizer, params = args[0], args[1]
        total = 0
        for name, p in params.items():
            state = optimizer.state.get(name)
            n_state = len(state) if isinstance(state, dict) else (0 if state is None else 1)
            # read param and grad, write param, read+write each state buffer
            total += p.data.nbytes * (3 + 2 * n_state)
        self.counts["optim.bytes"] += total
        self.counts["optim.steps"] += 1

    def _fit_wrapper(self, fn):
        """Span around a probe fit that also counts its optimizer steps."""
        tracer = self
        span = self._span_wrapper(fn, "probing._fit_softmax")
        max_default = _default(fn, "max_epochs")

        def wrapper(*args, **kwargs):
            before = tracer.counts["optim.steps"]
            out = span(*args, **kwargs)
            steps = tracer.counts["optim.steps"] - before
            tracer.counts["probing.fit_steps"] += steps
            if steps >= kwargs.get("max_epochs", max_default):
                tracer.counts["probing.capped"] += 1
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------ analysis

    def span_table(self):
        """Per span name: (calls, total seconds, self seconds)."""
        n = len(self.starts)
        if n == 0:
            return {}
        names = np.frombuffer(self.name_ids, dtype=np.int32)
        dur = np.frombuffer(self.ends, dtype=np.float64) - np.frombuffer(self.starts, dtype=np.float64)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=n)
        self_t = dur - child
        k = len(self._name_list)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        selfs = np.bincount(names, weights=self_t, minlength=k)
        return {self._name_list[i]: (int(calls[i]), float(total[i]), float(selfs[i]))
                for i in range(k) if calls[i]}


def _module_functions(mod):
    """Functions defined in `mod` itself (not imported), public and private."""
    return [(name, fn) for name, fn in sorted(vars(mod).items())
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__
            and not name.startswith("__")]


def _default(fn, param):
    return inspect.signature(fn).parameters[param].default


def _matmul_cost(tracer, a, b, out):
    """Forward flops/bytes now; return backward flops/bytes for later."""
    a_data = getattr(a, "data", a)
    b_data = getattr(b, "data", b)
    k, n = b_data.shape if b_data.ndim == 2 else (b_data.shape[0], 1)
    m = a_data.shape[0] if a_data.ndim == 2 else 1
    item = out.data.itemsize
    flops = 2 * m * k * n
    tracer.counts["autodiff.matmul.flops"] += flops
    tracer.counts["autodiff.matmul.bytes"] += (a_data.size + b_data.size + out.data.size) * item
    bwd_flops = bwd_bytes = 0
    for x in (a, b):
        if getattr(x, "requires_grad", False):
            # one matmul of the incoming gradient with the other operand
            bwd_flops += flops
            bwd_bytes += (out.data.size + a_data.size + b_data.size) * item
    return bwd_flops, bwd_bytes


def relprobe_modules():
    """The relprobe modules whose functions the tracer wraps."""
    from relprobe import (autodiff, corpus, deptree, encoders, optim, probegen,
                          probing, training)
    return {"autodiff": autodiff, "corpus": corpus, "deptree": deptree,
            "encoders": encoders, "optim": optim, "probegen": probegen,
            "probing": probing, "training": training}


# Ops the encoders and probes call; composite ops own no backward closure.
OPS = ("add", "amax", "concat", "conv1d", "cross_entropy_logits", "dropout", "gather_rows",
       "linear", "matmul", "mul", "relu", "reshape", "scale", "sigmoid", "slice_cols",
       "slice_rows", "softmax", "sum_all", "sum_axis", "tanh", "transpose")
COMPOSITE_OPS = ("conv1d", "dropout", "linear")
KINDS = ("cnn", "bilstm", "gcn", "attn", "boe")


def per_layer_names():
    """(name, unit, kind) of every per-layer metric, kind in count/time/ratio."""
    out = [("corpus.load_s", "s", "time"), ("corpus.mask_calls", "count", "count"),
           ("corpus.mask_s", "s", "time"),
           ("deptree.build_tree_calls", "count", "count"),
           ("deptree.builds_per_sentence", "ratio", "count"), ("deptree.self_s", "s", "time"),
           ("probegen.build_s", "s", "time"), ("probegen.save_s", "s", "time"),
           ("encoders.embed_s", "s", "time")]
    out += [("encoders.%s.encode_self_s" % k, "s", "time") for k in KINDS]
    out += [("autodiff.nodes", "count", "count"), ("autodiff.backward_self_s", "s", "time"),
            ("autodiff.matmul.flops", "flop", "count"), ("autodiff.matmul.bytes", "B", "count")]
    for op in OPS:
        out += [("autodiff.%s.calls" % op, "count", "count"), ("autodiff.%s.fwd_s" % op, "s", "time")]
        if op not in COMPOSITE_OPS:
            out.append(("autodiff.%s.bwd_s" % op, "s", "time"))
    out += [("optim.steps", "count", "count"), ("optim.step_s", "s", "time"),
            ("optim.bytes", "B", "count"),
            ("training.eval_s", "s", "time"), ("training.loop_self_s", "s", "time"),
            ("training.ckpt_save_s", "s", "time"), ("training.ckpt_load_s", "s", "time"),
            ("probing.extract_s", "s", "time"), ("probing.reps_io_s", "s", "time"),
            ("probing.baseline_s", "s", "time"), ("probing.fits", "count", "count"),
            ("probing.fit_steps", "count", "count"), ("probing.capped_frac", "ratio", "count"),
            ("probing.fit_s", "s", "time")]
    return out


def layer_metrics(tracer, distinct_sentences):
    """name -> (value, unit, kind) for every per-layer metric of the last iteration.

    `_s` metrics are the total time inside the named calls, `self_s` metrics
    that time minus the time of spans nested directly inside them.
    """
    table = tracer.span_table()
    counts = tracer.counts

    def calls(name):
        return table.get(name, (0, 0.0, 0.0))[0]

    def total(*names):
        return sum(table.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_time(*names):
        return sum(table.get(n, (0, 0.0, 0.0))[2] for n in names)

    fits = calls("probing._fit_softmax")
    v = {
        "corpus.load_s": total("corpus.load_corpus"),
        "corpus.mask_calls": calls("corpus.mask_entities"),
        "corpus.mask_s": total("corpus.mask_entities"),
        "deptree.build_tree_calls": calls("deptree.build_tree"),
        "deptree.builds_per_sentence": calls("deptree.build_tree") / max(distinct_sentences, 1),
        "deptree.self_s": self_time(*[n for n in table if n.startswith("deptree.")]),
        "probegen.build_s": total("probegen.build_all"),
        "probegen.save_s": total("probegen.save_dataset"),
        "encoders.embed_s": total(*["encoders.%s.embed_inputs" % k for k in KINDS]),
        "autodiff.nodes": counts["autodiff.nodes"],
        "autodiff.backward_self_s": self_time("autodiff.backward"),
        "autodiff.matmul.flops": counts["autodiff.matmul.flops"],
        "autodiff.matmul.bytes": counts["autodiff.matmul.bytes"],
        "optim.steps": counts["optim.steps"],
        "optim.step_s": total("optim.step"),
        "optim.bytes": counts["optim.bytes"],
        "training.eval_s": total("training._evaluate"),
        "training.loop_self_s": self_time("training.train_re"),
        "training.ckpt_save_s": total("training.save_checkpoint"),
        "training.ckpt_load_s": total("training.load_checkpoint"),
        "probing.extract_s": total("probing.extract_reps"),
        "probing.reps_io_s": total("probing.save_reps", "probing.load_reps"),
        "probing.baseline_s": total("probing.baseline_reps"),
        "probing.fits": fits,
        "probing.fit_steps": counts["probing.fit_steps"],
        "probing.capped_frac": counts["probing.capped"] / max(fits, 1),
        "probing.fit_s": total("probing._fit_softmax"),
    }
    for k in KINDS:
        v["encoders.%s.encode_self_s" % k] = self_time(
            "encoders.%s.encode" % k, "encoders.%s.encode_%s" % (k, k),
            "encoders.%s.lstm_direction" % k)
    for op in OPS:
        v["autodiff.%s.calls" % op] = calls("autodiff.%s.fwd" % op)
        v["autodiff.%s.fwd_s" % op] = self_time("autodiff.%s.fwd" % op)
        if op not in COMPOSITE_OPS:
            v["autodiff.%s.bwd_s" % op] = total("autodiff.%s.bwd" % op)
    return {name: (v[name], unit, kind) for name, unit, kind in per_layer_names()}
