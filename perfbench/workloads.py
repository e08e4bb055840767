"""The benchmark's workloads: corpora, stage sizes and the pipeline each run repeats.

Every workload runs the same four stages, sized so that a different layer
dominates each one:

  prep     load_corpus (parse + validate) -> probegen.build_all + save_dataset
           -> baseline_reps (length, argdist, 300-d boe)
  train    train_re per encoder -> RPCK save -> RPCK load
  extract  extract_reps with the reloaded model -> REPR save -> REPR load
  suite    run_suite over the probing tasks

Corpora come from relprobe.synth, seeded by the workload seed. Training and
probing corpora are length-matched: the sentence lengths follow a fixed
schedule (that of seed LENGTH_SEED), and only the content varies with the
seed, so sentences/s stays comparable between seeds.

check_pass (at the end) is a small pass at a fixed seed whose outputs are
pinned in reference.json; every run repeats it before its set-up.
"""

from __future__ import annotations

import gc
import math
import os
from collections import defaultdict, deque
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from relprobe import corpus as rcorpus
from relprobe import probegen, probing, synth, training
from relprobe.encoders import EncoderConfig, InputConfig

LENGTH_SEED = 7919
BOE_DIM = 300
TEMPLATES = synth.default_templates() + synth.type_pair_templates()
PAD_MAX = 10  # about 20 tokens per sentence


@dataclass(frozen=True)
class EncoderRun:
    kind: str
    profile: str      # training preset name
    n_train: int
    n_val: int
    epochs: int
    n_extract: int    # held-out sentences to extract; 0 = every probing split
    train_reps: int = 1
    extract_reps: int = 1


@dataclass(frozen=True)
class Spec:
    lexicons: str           # "default" or "large"
    work: tuple             # (train, validation, test) sizes of the length-matched corpus
    prep: tuple | None      # sizes of a separate prep corpus; None = prep loads `work`
    prep_reps: int
    masking: bool
    encoders: tuple
    probe: tuple            # (train, validation, test) prefix of `work` the suite probes
    suite_encoders: bool    # encoder reps join the suite (else baselines only)
    grid: tuple
    n_tasks: int = len(probegen.TASKS)  # probing tasks the suite fits
    suite_reps: int = 1


def _desk(kind, n_train, epochs, train_reps=1, extract_reps=1):
    return EncoderRun(kind, "desk-small", n_train, 30, epochs, 0, train_reps, extract_reps)


def _aux(kind, epochs, train_reps=1, extract_reps=1, n=40):
    """Desk-size encoder on n training sentences, extracting n held-out ones."""
    return EncoderRun(kind, "desk-small", n, 10, epochs, n, train_reps, extract_reps)


# Every workload runs every stage, because each reports all end-to-end
# metrics; the stages a workload does not target are kept small. Stages are
# split into several calls (train_reps, extract_reps, ...) so that each
# metric gets many samples per run: on a shared machine a metric timed once
# per pass varies by 20% or more between runs.
SPECS = {
    "pipeline-desk": Spec(
        lexicons="default", work=(100, 30, 30), prep=None, prep_reps=12,
        masking=False,
        encoders=(_desk("cnn", 100, 1, train_reps=10, extract_reps=14),
                  _desk("bilstm", 50, 1, train_reps=4, extract_reps=3),
                  _desk("gcn", 100, 1, train_reps=10, extract_reps=12),
                  _desk("attn", 100, 1, train_reps=7, extract_reps=8),
                  _desk("boe", 100, 2, train_reps=10, extract_reps=1)),
        probe=(100, 30, 30), suite_encoders=True, grid=(0.01,)),
    # cnn and attn train one full 50-sentence batch per call; bilstm a single
    # sentence, because at paper size it trains at under 2 sentences/s. Their
    # vocabularies are those of 1-50 masked sentences, so only gcn (1200
    # sentences, ~7k types) and boe (400) train on a large vocabulary.
    "train-paper": Spec(
        lexicons="large", work=(1200, 240, 600), prep=None, prep_reps=2,
        masking=True,
        encoders=(EncoderRun("cnn", "tacred-cnn", 50, 6, 1, 75, 3, 3),
                  EncoderRun("bilstm", "tacred-bilstm", 1, 1, 1, 4, 3, 3),
                  EncoderRun("gcn", "tacred-gcn", 1200, 240, 1, 500, 1, 4),
                  EncoderRun("attn", "tacred-attn", 50, 3, 1, 20, 2, 3),
                  EncoderRun("boe", "tacred-cnn", 400, 240, 1, 0, 3)),
        probe=(60, 20, 40), suite_encoders=False, grid=(0.01,), n_tasks=5, suite_reps=2),
    "corpus-large": Spec(
        lexicons="default", work=(60, 20, 40), prep=(20000, 4000, 4000),
        prep_reps=1, masking=True,
        encoders=(_aux("cnn", 1, train_reps=6, extract_reps=8),
                  _aux("bilstm", 1, train_reps=4, extract_reps=4, n=20),
                  _aux("gcn", 1, train_reps=6, extract_reps=8),
                  _aux("attn", 1, train_reps=4, extract_reps=6),
                  _aux("boe", 2, train_reps=6, extract_reps=1)),
        probe=(60, 20, 40), suite_encoders=False, grid=(0.01,), n_tasks=5, suite_reps=2),
}

EXTRACT_KINDS = ("cnn", "bilstm", "gcn", "attn")


# --------------------------------------------------------------- corpora

def _pseudo_words(prefix, n):
    """n distinct pronounceable tokens: prefix + base-16 syllable spelling of i."""
    syl = ("ba", "ko", "mi", "su", "te", "ra", "no", "vi", "da", "lu", "pe", "zo",
           "ki", "ma", "fu", "ge")
    words = []
    for i in range(n):
        parts, j = [], i
        while True:
            parts.append(syl[j % 16])
            j //= 16
            if not j:
                break
        words.append(prefix + "".join(parts))
    return tuple(words)


def lexicons(kind):
    if kind == "default":
        return synth.default_lexicons()
    # large enough that a 1200-sentence masked training split has ~7k types
    return {"PER": _pseudo_words("p", 3000), "ORG": _pseudo_words("o", 3000),
            "LOC": _pseudo_words("l", 3000), "TITLE": _pseudo_words("t", 500),
            "VERB": _pseudo_words("v", 4000), "NOUN": _pseudo_words("n", 60000)}


def _config(lex, seed, n):
    return synth.SynthConfig(n_train=n, n_val=0, n_test=0, templates=TEMPLATES,
                             lexicons=lex, seed=seed, pad_max=PAD_MAX)


def matched_corpus(sizes, lex, seed):
    """Corpus whose sentence lengths follow the LENGTH_SEED schedule.

    The sentences come from one draw of twice the number needed; where the
    draw has no sentence of a scheduled length left, one of the nearest
    length is taken. So the work of making it does not depend on the seed.
    """
    total = sum(sizes)
    schedule = [len(s) for s in synth.generate(_config(lex, LENGTH_SEED, total)).train]
    pools = defaultdict(deque)
    for s in synth.generate(_config(lex, seed * 1000, 2 * total)).train:
        pools[len(s)].append(s)
    picked = []
    for length in schedule:
        near = min((n for n in pools if pools[n]), key=lambda n: (abs(n - length), n))
        picked.append(pools[near].popleft())
    return _split_corpus(picked, sizes)


def _split_corpus(sentences, sizes):
    out, start = [], 0
    for split, n in zip(("train", "val", "test"), sizes):
        out.append(tuple(replace(s, id="%s-%05d" % (split, i))
                         for i, s in enumerate(sentences[start:start + n])))
        start += n
    train, val, test = out
    return rcorpus.Corpus(train=train, validation=val, test=test,
                          label_inventory=tuple(sorted({s.relation for s in train})))


def plain_corpus(sizes, lex, seed):
    cfg = synth.SynthConfig(n_train=sizes[0], n_val=sizes[1], n_test=sizes[2],
                            templates=TEMPLATES, lexicons=lex, seed=seed, pad_max=PAD_MAX)
    return synth.generate(cfg)


def sub_corpus(c, n_train, n_val, n_test=0):
    train = c.train[:n_train]
    return rcorpus.Corpus(train=train, validation=c.validation[:n_val], test=c.test[:n_test],
                          label_inventory=tuple(sorted({s.relation for s in train})),
                          negative_label=c.negative_label)


# ----------------------------------------------------------------- models

def model_configs(run: EncoderRun, masking):
    """(HyperProfile with epochs replaced, InputConfig, EncoderConfig)."""
    profile, enc_cfg = training.presets()[run.profile]
    profile = replace(profile, epochs=run.epochs)
    if run.profile == "desk-small":
        input_cfg = training.desk_input_config(masking=masking)
        enc_cfg = training.desk_encoder_config(run.kind)
    else:
        input_cfg = InputConfig(word_dim=300, pos_dim=profile.pos_dim, masking=masking,
                                word_dropout=profile.word_dropout,
                                embedding_dropout=profile.embedding_dropout)
        if enc_cfg.kind != run.kind:
            enc_cfg = EncoderConfig(kind=run.kind)
    return profile, input_cfg, enc_cfg


# ---------------------------------------------------------------- ledger

class StageFailed(Exception):
    pass


class Ledger:
    """Counts stage calls and failures; a failing call aborts the iteration.

    With a Clock, each call's time is the clock's normalized time, and
    timed_s sums it over the calls made."""

    def __init__(self, clock=None):
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.timed_s = 0.0

    def call(self, stage, fn, *args, **kwargs):
        self.attempted += 1
        try:
            if self.clock is None:
                t0 = perf_counter()
                out = fn(*args, **kwargs)
                dt = perf_counter() - t0
            else:
                out, dt = self.clock.time(stage, fn, *args, **kwargs)
        except Exception as e:  # the run reports the failure and stops
            self.fail(stage, "%s: %s" % (type(e).__name__, e))
            raise StageFailed(stage) from e
        self.timed_s += dt
        return out, dt

    def check(self, stage, problems):
        """Count a failed output check against the stage call it follows."""
        if problems:
            self.fail(stage, "; ".join(problems[:5]))

    def fail(self, stage, msg):
        self.failed += 1
        self.problems.append("%s: %s" % (stage, msg))


# ---------------------------------------------------------------- set-up

@dataclass
class State:
    spec: Spec
    seed: int
    workdir: str
    work: rcorpus.Corpus
    prep_dir: str
    prep_sizes: tuple


def setup(spec: Spec, seed: int, workdir: str) -> State:
    """Generate and write the corpora (no warm-up; see warm_up)."""
    lex = lexicons(spec.lexicons)
    work = matched_corpus(spec.work, lex, seed)
    prep_dir = os.path.join(workdir, "corpus")
    if spec.prep is None:
        rcorpus.write_corpus(work, prep_dir)
        prep_sizes = spec.work
    else:
        rcorpus.write_corpus(plain_corpus(spec.prep, lex, seed), prep_dir)
        prep_sizes = spec.prep
    return State(spec, seed, workdir, work, prep_dir, prep_sizes)


# --------------------------------------------------------------- the run

@dataclass
class IterationResult:
    samples: dict          # metric name -> list of per-call values
    suite_csv: str
    f1: dict               # kind -> best validation F1
    accuracies: dict       # (source, task) -> test accuracy
    label_counts: dict     # task -> split -> label -> count (prep corpus)
    distinct_sentences: int
    pass_s: float          # time of every stage call of the pass
    suite_times: dict      # suite source -> seconds of each run_suite call


WARM_UP_SEED = 17


def small_state(state: State) -> State:
    """The same workload on a few sentences, two tasks and one l2 value.

    Its corpus comes from WARM_UP_SEED and the default lexicons, not from
    the workload seed, so that the warm-up does the same work for every seed."""
    spec = state.spec
    tiny = tuple(replace(r, n_train=1, n_val=1, epochs=1,
                         n_extract=min(r.n_extract, 2), train_reps=1, extract_reps=1)
                 for r in spec.encoders)
    sizes = (8, 4, 4)
    small = replace(state, spec=replace(spec, encoders=tiny, prep=sizes, prep_reps=1,
                                        probe=sizes, grid=spec.grid[:1], n_tasks=2,
                                        suite_reps=1),
                    work=plain_corpus(sizes, synth.default_lexicons(), WARM_UP_SEED),
                    prep_dir=os.path.join(state.workdir, "small-corpus"), prep_sizes=sizes)
    rcorpus.write_corpus(small.work, small.prep_dir)
    return small


def warm_up(state: State):
    """Run every stage once on a few sentences, so cold first calls (imports,
    allocator growth, BLAS initialisation) fall into set-up, not the run."""
    iteration(small_state(state), Ledger())


class _Round:
    """One pipeline pass: every stage of the spec, each repeated as often as
    the spec says. Stage methods pull forward the first call of a stage they
    depend on; later calls of a stage only add timing samples."""

    def __init__(self, state: State, ledger: Ledger):
        self.state, self.spec, self.ledger = state, state.spec, ledger
        self.samples = defaultdict(list)
        self.dir = os.path.join(state.workdir, "iter")
        os.makedirs(self.dir, exist_ok=True)
        self.done = defaultdict(int)  # stage key -> calls made
        self.models, self.f1, self.reps = {}, {}, {}
        self.suite_inputs = None
        self.suite_results, self.suite_times = {}, defaultdict(list)

    def _once(self, key, limit, fn):
        if self.done[key] < limit:
            self.done[key] += 1
            fn()

    @property
    def work(self):
        return self.loaded if self.spec.prep is None else self.state.work

    # prep: load -> probegen + save -> baselines
    def prep(self):
        self._once("prep", self.spec.prep_reps, self._prep)

    def _prep(self):
        call = self.ledger.call
        loaded, t_load = call("load_corpus", rcorpus.load_corpus, self.state.prep_dir)
        tasks, t_gen = call("probegen", probegen.build_all, loaded)
        _, t_save = call("save_dataset", _save_datasets, tasks, self.dir)
        baselines, t_base = call("baseline_reps", _baselines, loaded)
        self.samples["prep_sps"].append(
            len(loaded.all_sentences()) / (t_load + t_gen + t_save + t_base))
        if self.done["prep"] > 1:
            return
        check = self.ledger.check
        check("load_corpus", _check_loaded(loaded, self.state.prep_sizes))
        if self.spec.prep is None:
            check("load_corpus", [] if loaded == self.state.work else
                  ["reloaded corpus differs from the generated one"])
        check("baseline_reps", _check_baselines(baselines, loaded))
        self.label_counts = {ds.task: {sp: _count(items) for sp, items in ds.splits.items()}
                             for ds in tasks}
        self.prep_ids = {s.id for s in loaded.all_sentences()}
        # A separate prep corpus is not kept: later stages do not use it, and
        # its millions of objects would slow every garbage collection in them.
        if self.spec.prep is None:
            self.loaded, self.tasks, self.baselines = loaded, tasks, baselines

    def _need_prep(self):
        if not self.done["prep"]:
            self.prep()

    # train: train_re -> RPCK save -> RPCK load
    def train(self, run):
        self._once("train:" + run.kind, run.train_reps, lambda: self._train(run))

    def _train(self, run):
        self._need_prep()
        profile, input_cfg, enc_cfg = model_configs(run, self.spec.masking)
        corpus = sub_corpus(self.work, run.n_train, run.n_val)
        stage = "train_re:" + run.kind
        (model, history), dt = self.ledger.call(stage, training.train_re, corpus, input_cfg,
                                                enc_cfg, profile, seed=self.state.seed)
        self.samples["train_sps." + run.kind].append(run.n_train * run.epochs / dt)
        if run.kind in self.models:
            return
        self.ledger.check(stage, _check_history(history, run.epochs))
        self.f1[run.kind] = history.best_f1()
        path = os.path.join(self.dir, run.kind + ".rpck")
        self.ledger.call("save_checkpoint", training.save_checkpoint, model, path)
        back, _ = self.ledger.call("load_checkpoint", training.load_checkpoint, path)
        self.ledger.check("load_checkpoint", _check_model(model, back))
        self.models[run.kind] = back

    # extract: extract_reps with the reloaded model -> REPR save -> REPR load
    def extract_splits(self, run):
        if run.n_extract:
            return {"test": self.work.test[:run.n_extract]}
        if self.spec.suite_encoders:
            probe = sub_corpus(self.work, *self.spec.probe)
            return {"train": probe.train, "validation": probe.validation, "test": probe.test}
        return {}

    def extract(self, run):
        self._once("extract:" + run.kind, run.extract_reps, lambda: self._extract(run))

    def _extract(self, run):
        if run.kind not in self.models:
            self.train(run)
        model = self.models[run.kind]
        splits = self.extract_splits(run)
        label = "encoder:" + run.kind
        reps, total = {}, 0.0
        for sp, sents in splits.items():
            reps[sp], dt = self.ledger.call("extract_reps:" + run.kind, probing.extract_reps,
                                            model, sents, source=label)
            total += dt
        if run.kind in EXTRACT_KINDS:
            self.samples["extract_sps." + run.kind].append(
                sum(len(s) for s in splits.values()) / total)
        if run.kind in self.reps:
            return
        for sp, rep in reps.items():
            path = os.path.join(self.dir, "%s.%s.repr" % (run.kind, sp))
            self.ledger.call("save_reps", probing.save_reps, rep, path)
            back, _ = self.ledger.call("load_reps", probing.load_reps, path)
            self.ledger.check("load_reps", _check_reps(rep, back, splits[sp], model.rep_dim))
        self.reps[run.kind] = reps

    # suite: run_suite, one call per source and pass. Sources are named by
    # label, "baseline:boe" and "encoder:boe", so the two cannot collide.
    def suite_sources(self):
        labels = ["baseline:" + kind for kind in probing.BASELINES]
        if self.spec.suite_encoders:
            labels += ["encoder:" + run.kind for run in self.spec.encoders]
        return labels

    def suite(self, label):
        if self.suite_inputs is None:
            self._need_prep()
            spec = self.spec
            if spec.prep is None and spec.probe == spec.work:
                tasks, baselines = self.tasks, self.baselines
            else:
                probe = sub_corpus(self.work, *spec.probe)
                tasks, baselines = probegen.build_all(probe), _baselines(probe)
            self.suite_inputs = (tasks[:spec.n_tasks], baselines)
        tasks, baselines = self.suite_inputs
        if label in baselines:
            source = (label, baselines[label])
        else:
            kind = label.split(":", 1)[1]
            if kind not in self.reps:
                self.extract(next(r for r in self.spec.encoders if r.kind == kind))
            source = (label, self.reps[kind])
        results, dt = self.ledger.call("run_suite", probing.run_suite, [source], tasks,
                                       grid=self.spec.grid, jobs=1)
        self.suite_times[label].append(dt)
        if label not in self.suite_results:
            self.suite_results[label] = (source, results)
        elif results != self.suite_results[label][1]:
            self.ledger.fail("run_suite", "repeated suite call for %s gave other results" % label)

    def result(self, pass_s) -> IterationResult:
        tasks, _ = self.suite_inputs
        labels = self.suite_sources()
        sources = [self.suite_results[n][0] for n in labels]
        results = [r for n in labels for r in self.suite_results[n][1]]
        self.ledger.check("run_suite", _check_suite(results, len(sources) * len(tasks)))
        header, rows = probing.suite_table(results, sources, tasks)
        distinct = len({s.id for s in self.work.all_sentences()} | self.prep_ids)
        return IterationResult(samples=dict(self.samples),
                               suite_csv=probing.render_csv(header, rows), f1=self.f1,
                               accuracies={(r.source, r.task): r.test_accuracy for r in results},
                               label_counts=self.label_counts, distinct_sentences=distinct,
                               pass_s=pass_s, suite_times=dict(self.suite_times))


def iteration(state: State, ledger: Ledger) -> IterationResult:
    """One pipeline pass, with each stage's calls spread evenly over the pass.

    The k-th of a stage's n calls is placed at (k + 1/2) / n of the pass, so
    the timing samples of every metric span the whole pass instead of one
    burst.
    """
    r = _Round(state, ledger)
    spec = state.spec
    groups = [[r.prep] * spec.prep_reps]
    for run in spec.encoders:
        groups.append([lambda run=run: r.train(run)] * run.train_reps)
        if run.n_extract or spec.suite_encoders:
            groups.append([lambda run=run: r.extract(run)] * run.extract_reps)
    groups.append([lambda label=label: r.suite(label)
                   for _ in range(spec.suite_reps) for label in r.suite_sources()])
    jobs = sorted(((k + 0.5) / len(g), gi, k, fn)
                  for gi, g in enumerate(groups) for k, fn in enumerate(g))
    start = ledger.timed_s
    for *_, fn in jobs:
        fn()
    return r.result(ledger.timed_s - start)


# 10th percentile of calibration_kernel() times on the reference machine
# (2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4, one OpenBLAS thread).
CALIBRATION_NOMINAL_S = 0.0023
CLOCK_REPS = 3      # kernel runs per clock reading; the fastest counts
CLOCK_REUSE_S = 0.02  # a reading this recent also serves as the next call's first
_KERNEL_A = np.full((50, 300), 0.01, np.float32)
_KERNEL_B = np.full((300, 1200), 0.01, np.float32)


def calibration_kernel():
    """A fixed workload without relprobe: about half interpreter-bound
    Python and half float32 matmul at the sizes of the paper-size encoders.
    Many small numpy calls, which slow about twice as much as these two
    when the machine is loaded, are left out. It keeps no objects, so the
    size of relprobe's heap does not change it."""
    acc = 0
    for i in range(18000):
        acc += (i * 7) % 13
    for _ in range(3):
        c = _KERNEL_A @ _KERNEL_B
    return acc, c


class Clock:
    """Times calls in units of the machine's speed at the time of the call.

    The reference machine's two vCPUs are shared with other tenants, whose
    load slows it by 10-70% for stretches of a second to minutes, in CPU
    time as much as in wall time, so a raw time depends on the stretch a
    call falls into. time() reads calibration_kernel() (with the garbage
    collector off) right before and right after the call. With r the mean
    of the two readings over CALIBRATION_NOMINAL_S, a call of stage S that
    took t seconds is reported as t / r ** e[S]: the time it would have
    taken at the reference machine's full speed if the stage slows as the
    e[S]-th power of the kernel's slow-down. The exponents come from
    fit_clock.py (clock.json); a stage without one gets 1. A reading taken
    at the end of one call serves as the first of the next if that starts
    within CLOCK_REUSE_S. speeds holds 1 / reading ratio for every reading;
    when log is a list, time() appends (stage, t, ratio before, ratio after)
    to it.
    """

    def __init__(self, exponents=None):
        self.exponents = exponents or {}
        self.speeds = []
        self.log = None
        self._last = None  # (perf_counter at the end of the reading, ratio)

    def _read(self):
        gc.disable()
        try:
            best = math.inf
            for _ in range(CLOCK_REPS):
                t0 = perf_counter()
                calibration_kernel()
                best = min(best, perf_counter() - t0)
        finally:
            gc.enable()
        ratio = best / CALIBRATION_NOMINAL_S
        self._last = (perf_counter(), ratio)
        self.speeds.append(1.0 / ratio)
        return ratio

    def time(self, stage, fn, *args, **kwargs):
        """(fn(*args, **kwargs), its normalized time in seconds)."""
        if self._last is not None and perf_counter() - self._last[0] < CLOCK_REUSE_S:
            before = self._last[1]
        else:
            before = self._read()
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        dt = perf_counter() - t0
        after = self._read()
        if self.log is not None:
            self.log.append((stage, dt, before, after))
        return out, dt / ((before + after) / 2) ** self.exponents.get(stage, 1.0)


def _save_datasets(tasks, directory):
    for ds in tasks:
        probegen.save_dataset(ds, os.path.join(directory, ds.task + ".jsonl"))


def _baselines(c):
    """label ("baseline:<kind>") -> split -> RepMatrix, for every probing baseline."""
    tokens = {t for s in c.all_sentences() for t in s.tokens}
    table = rcorpus.random_embeddings(tokens, BOE_DIM, 0)
    splits = {"train": c.train, "validation": c.validation, "test": c.test}
    return {"baseline:" + kind: {sp: probing.baseline_reps(kind, sents,
                                                           table if kind == "boe" else None)
                                 for sp, sents in splits.items()}
            for kind in probing.BASELINES}


def _count(items):
    counts = defaultdict(int)
    for _, label in items:
        counts[label] += 1
    return dict(sorted(counts.items()))


# ---------------------------------------------------------------- checks

def _check_loaded(c, sizes):
    got = (len(c.train), len(c.validation), len(c.test))
    return [] if got == tuple(sizes) else ["split sizes %s, expected %s" % (got, sizes)]


def _check_baselines(baselines, c):
    problems = []
    for kind, reps in baselines.items():
        for sp, rep in reps.items():
            if rep.rows.shape[0] != len(c.split(sp)) or not np.isfinite(rep.rows).all():
                problems.append("baseline %s/%s: bad shape or non-finite rows" % (kind, sp))
    return problems


def _check_history(history, epochs):
    problems = []
    if len(history.epochs) != epochs:
        problems.append("%d epochs run, expected %d" % (len(history.epochs), epochs))
    for row in history.epochs:
        if not (math.isfinite(row["loss"]) and math.isfinite(row["f1"])):
            problems.append("non-finite loss or F1 at epoch %d" % row["epoch"])
    return problems


def _check_model(model, back):
    problems = []
    if list(model.params) != list(back.params):
        return ["checkpoint parameter names differ"]
    for name, t in model.params.items():
        if not np.array_equal(np.asarray(t.data, dtype="<f4"), back.params[name].data):
            problems.append("checkpoint parameter %s differs after reload" % name)
    if model.config_blob() != back.config_blob():
        problems.append("checkpoint config differs after reload")
    return problems


def _check_reps(rep, back, sentences, dim):
    problems = []
    if back.ids != rep.ids or back.source != rep.source or \
            not np.array_equal(back.rows, rep.rows):
        problems.append("REPR file differs from the in-memory reps")
    if rep.ids != tuple(s.id for s in sentences) or rep.rows.shape != (len(sentences), dim):
        problems.append("reps do not cover the extracted sentences")
    if not np.isfinite(rep.rows).all():
        problems.append("non-finite representation")
    return problems


def _check_suite(results, expected):
    problems = []
    if len(results) != expected:
        problems.append("%d probe results, expected %d" % (len(results), expected))
    for r in results:
        for acc in (r.val_accuracy, r.test_accuracy):
            if not (0.0 <= acc <= 1.0):
                problems.append("accuracy %r out of range for %s/%s" % (acc, r.source, r.task))
    return problems


# Validation F1 is checked only where the validation split has this many sentences.
F1_MIN_VAL = 30


def check_reference(result: IterationResult, ref: dict, tol: dict):
    """Problems when F1, suite accuracies or label shares leave the reference band."""
    problems = []
    for kind, want in ref["val_f1"].items():
        value = result.f1.get(kind)
        if value is None:
            problems.append("no validation F1 for %s" % kind)
        elif abs(value - want) > tol["val_f1"]:
            problems.append("val F1 %s %.3f outside %.3f +- %.2f" % (kind, value, want, tol["val_f1"]))
    if len(ref["suite"]) != len(result.accuracies):
        problems.append("%d suite cells, reference has %d" % (len(result.accuracies),
                                                             len(ref["suite"])))
    diffs = defaultdict(list)  # source -> |accuracy - reference| per task
    for key, want in ref["suite"].items():
        source, task = key.split("|")
        got = result.accuracies.get((source, task))
        if got is None:
            problems.append("suite cell %s missing" % key)
            continue
        diffs[source].append(abs(got - want))
        if abs(got - want) > tol["suite_cell"]:
            problems.append("suite %s %.3f outside %.3f +- %.2f" % (key, got, want, tol["suite_cell"]))
    for source, d in sorted(diffs.items()):
        if sum(d) / len(d) > tol["suite_mean"]:
            problems.append("mean suite deviation of %s %.3f above %.2f"
                            % (source, sum(d) / len(d), tol["suite_mean"]))
    for task, by_split in ref.get("label_share", {}).items():
        for split, shares in by_split.items():
            counts = result.label_counts.get(task, {}).get(split, {})
            total = sum(counts.values()) or 1
            for label in set(shares) | set(counts):
                got = counts.get(label, 0) / total
                if abs(got - shares.get(label, 0.0)) > tol["label_share"]:
                    problems.append("label share %s/%s/%s %.4f outside %.4f +- %.3f"
                                    % (task, split, label, got, shares.get(label, 0.0),
                                       tol["label_share"]))
    return problems


# ------------------------------------------------------------ fixed check
#
# The per-seed bands above are wide, because F1 and accuracies move with the
# seed. Every run therefore also repeats one small pass at a fixed corpus and
# seed, whose outputs are deterministic, and compares them with the values
# pinned in reference.json: the loss and validation F1 of every epoch, the
# representations of every sentence projected on a fixed direction, and the
# suite accuracies. Reordering a float32 sum moves losses and projections by
# about 1e-7 relative; scaling the sigmoid gradient by 0.9 moves the bilstm
# projection by 1e-3. CHECK_REL_TOL lies between the two.

CHECK_SEED = 4099
CHECK_SIZES = (32, 16, 16)
CHECK_TASKS = ("ArgOrd", "EntExist", "TypeHead")
CHECK_BATCH = 8  # four optimizer steps per epoch
# (run, optimizer, lr). Every kind trains with sgd, whose update is
# proportional to the gradient; adam and adagrad are close to invariant to a
# gradient's scale and would hide a wrong one, so they get runs of their own,
# as does tacred-gcn (masking, dropout, plateau schedule).
_CHECK_DESK = {kind: EncoderRun(kind, "desk-small", 32, 16, 2, 0)
               for kind in ("cnn", "bilstm", "gcn", "attn", "boe")}
CHECK_RUNS = tuple((run, "sgd", 0.1) for run in _CHECK_DESK.values()) + (
    (_CHECK_DESK["cnn"], "adam", 1e-2),
    (_CHECK_DESK["cnn"], "adagrad", 0.1),
    (EncoderRun("gcn", "tacred-gcn", 32, 16, 2, 0), "sgd", 0.3))
CHECK_REL_TOL = 1e-5  # losses and projections: norm of the difference / norm
CHECK_ABS_TOL = 1e-3  # F1 and accuracies


def check_pass(ledger: Ledger) -> dict:
    """Train, extract and probe at CHECK_SEED; the values check_fixed compares."""
    c = plain_corpus(CHECK_SIZES, synth.default_lexicons(), CHECK_SEED)
    splits = {"train": c.train, "validation": c.validation, "test": c.test}
    tasks = [t for t in probegen.build_all(c) if t.task in CHECK_TASKS]
    sources = list(_baselines(c).items())
    out = {"loss": {}, "f1": {}, "rep_proj": {}}
    for run, optimizer, lr in CHECK_RUNS:
        label = "%s:%s:%s" % (run.profile, run.kind, optimizer)
        profile, input_cfg, enc_cfg = model_configs(run, masking=run.profile != "desk-small")
        profile = replace(profile, optimizer=optimizer, lr=lr, batch_size=CHECK_BATCH)
        (model, history), _ = ledger.call("check:train_re", training.train_re,
                                          sub_corpus(c, run.n_train, run.n_val), input_cfg,
                                          enc_cfg, profile, seed=CHECK_SEED)
        out["loss"][label] = [row["loss"] for row in history.epochs]
        out["f1"][label] = [row["f1"] for row in history.epochs]
        reps = {sp: ledger.call("check:extract_reps", probing.extract_reps, model, sents)[0]
                for sp, sents in splits.items()}
        rows = np.concatenate([reps[sp].rows for sp in splits]).astype(np.float64)
        direction = np.random.default_rng(0).standard_normal(rows.shape[1])
        out["rep_proj"][label] = (rows @ direction).tolist()
        if run.profile == "desk-small" and optimizer == "sgd":
            sources.append(("encoder:" + run.kind, reps))
    results, _ = ledger.call("check:run_suite", probing.run_suite, sources, tasks,
                             grid=(0.01,), jobs=1)
    out["suite"] = {"%s|%s" % (r.source, r.task): r.test_accuracy for r in results}
    return out


def check_fixed(got: dict, want: dict) -> list:
    """Problems where a check_pass value leaves its tolerance of the pinned one."""
    problems = []
    for section in ("loss", "rep_proj", "f1", "suite"):
        g, w = got[section], want[section]
        if set(g) != set(w):
            problems.append("check %s: keys %s differ from the reference"
                            % (section, sorted(set(g) ^ set(w))))
        for key in sorted(set(g) & set(w)):
            a, b = np.atleast_1d(g[key]), np.atleast_1d(w[key])
            if a.shape != b.shape:
                problems.append("check %s %s: %d values, reference has %d"
                                % (section, key, a.size, b.size))
            elif section in ("loss", "rep_proj"):
                dev = np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-30)
                if not dev <= CHECK_REL_TOL:
                    problems.append("check %s %s: relative deviation %.2e above %.0e"
                                    % (section, key, dev, CHECK_REL_TOL))
            elif not np.abs(a - b).max() <= CHECK_ABS_TOL:
                problems.append("check %s %s: %s, reference %s" % (section, key, g[key], w[key]))
    return problems
