"""Command-line orchestration of the pipeline.

Subcommands: validate, synth, probegen, train, extract, probe, suite,
gradcheck, report. Exit codes: 0 success, 1 validation/processing failure,
2 usage error. Errors go to stderr prefixed with "error:".
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from . import probegen, probing, synth
from .corpus import (CorpusFormatError, load_contextual, load_corpus,
                     load_embeddings, random_embeddings, read_lines, write_corpus)
from .encoders import InputConfig, check_contextual_rows
from .probegen import TASKS, build_all, build_tasks, load_dataset, save_dataset
from .probing import (L2_GRID, baseline_reps, check_grid, extract_reps, load_reps,
                      render_csv, render_text_table, run_suite, save_reps,
                      suite_table, train_probe)
from .training import (desk_encoder_config, desk_input_config, load_checkpoint,
                       presets, save_checkpoint, train_re)


class UsageError(Exception):
    pass


def _bool(text):
    if text.lower() not in ("true", "yes", "1", "false", "no", "0"):
        raise ValueError(text)
    return text.lower() in ("true", "yes", "1")


def _grid(text):
    grid = tuple(float(x) for x in text.split(","))
    try:
        check_grid(grid)
    except ValueError as e:
        raise UsageError(e) from None
    return grid


def _count(text):
    n = int(text)
    if n < 0:
        raise ValueError(text)
    return n


def _positive(text):
    n = int(text)
    if n < 1:
        raise ValueError(text)
    return n


_EXPECTED = {int: "an integer", _bool: "true/false, yes/no or 1/0",
             _grid: "comma-separated numbers", _count: "an integer >= 0",
             _positive: "an integer >= 1"}


def _parse_value(text, kind, name, where=None):
    """text as `kind` (str, int, _bool, _grid, _count or _positive); a value
    that does not parse, or that _grid rejects, is a UsageError naming `name`
    and, when given, `where` it was read."""
    try:
        return kind(text)
    except ValueError:
        problem = "expected %s, got %r" % (_EXPECTED[kind], text)
    except UsageError as e:
        problem = str(e)
    raise UsageError("%s: %s%s" % (name, problem, "" if where is None else " in %s" % where))


# config key -> kind of its value
KNOWN_KEYS = {
    "corpus": str, "corpus_format": str, "profile": str, "encoder": str, "masking": _bool,
    "word_dim": _positive, "pos_dim": _count, "max_offset": _positive, "embeddings": str,
    "contextual": str, "seed": int, "out": str, "task_profile": str, "tasks": str,
    "sources": str, "grid": _grid, "standardize": _bool, "jobs": _positive, "boe_dim": _positive,
    "boe_seed": int,
}


def read_config(path):
    """Plain key=value config; unknown keys rejected, and each value parsed
    as the kind KNOWN_KEYS gives its key. '#' starts a comment at the start
    of a line or after whitespace, so /data/a#b keeps its '#'."""
    cfg = {}
    for lineno, line in read_lines(path, UsageError):
        line = re.split(r"(?:^|\s)#", line, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError("%s:%d: expected key=value" % (path, lineno))
        key, value = (x.strip() for x in line.split("=", 1))
        if key not in KNOWN_KEYS:
            raise UsageError("%s:%d: unknown config key %r" % (path, lineno, key))
        cfg[key] = _parse_value(value, KNOWN_KEYS[key], "config key %r" % key,
                               "%s:%d" % (path, lineno))
    return cfg


def _seed_from(cfg):
    env = os.environ.get("RELPROBE_SEED")
    if env is not None:
        return _parse_value(env, int, "RELPROBE_SEED")
    return cfg.get("seed", 0)


def _contextual(store, path, sentences, reader=None, width=None):
    """`store`, read from the CTXV file `path`, after checking that it holds
    vectors, `width` wide when `reader` (a checkpoint) reads them, and one
    row per token of each of `sentences`; else a ValueError naming the file."""
    if not store.matrices:
        raise ValueError("%s: no contextual vectors" % path)
    found = next(iter(store.matrices.values())).shape[1]
    if width is not None and found != width:
        raise ValueError("%s: contextual vectors %d wide, but %s reads %d"
                         % (path, found, reader, width))
    try:
        check_contextual_rows(sentences, [store.get(s.id) for s in sentences])
    except ValueError as e:
        raise ValueError("%s: %s" % (path, e)) from None
    return store


def _load_corpus_cfg(cfg):
    if "corpus" not in cfg:
        raise UsageError("config key 'corpus' is required")
    return load_corpus(cfg["corpus"], cfg.get("corpus_format", "generic-jsonl"))


# ------------------------------------------------------------- subcommands

def cmd_validate(args):
    corpus = load_corpus(args.corpus, args.format)
    n_train, n_val, n_test = len(corpus.train), len(corpus.validation), len(corpus.test)
    total = n_train + n_val + n_test
    neg = sum(1 for s in corpus.all_sentences() if s.relation == corpus.negative_label)
    print("splits: train=%d validation=%d test=%d" % (n_train, n_val, n_test))
    print("relation labels: %d" % len(corpus.label_inventory))
    print("negative label: %s" % (corpus.negative_label or "-"))
    if corpus.negative_label is not None and total:
        print("negative fraction: %.1f%%" % (100.0 * neg / total))
    return 0


def cmd_synth(args):
    n_train, n_val, n_test, pad_max = (
        _parse_value(getattr(args, name), _count, "--" + name.replace("_", "-"))
        for name in ("n_train", "n_val", "n_test", "pad_max"))
    seed = _parse_value(args.seed, int, "--seed")
    lexicons = synth.default_lexicons()
    if args.templates == "default":
        templates = synth.default_templates()
    elif args.templates == "type-pair":
        templates = synth.type_pair_templates()
    elif args.templates == "order-controlled":
        templates = ()
    else:
        templates = synth.load_templates(args.templates)
    cfg = synth.SynthConfig(n_train=n_train, n_val=n_val, n_test=n_test,
                            templates=templates, lexicons=lexicons, seed=seed,
                            pad_max=pad_max)
    if args.templates == "order-controlled":
        corpus = synth.generate_order_controlled(cfg)
    else:
        corpus = synth.generate(cfg)
    write_corpus(corpus, args.out)
    print("wrote %d/%d/%d sentences to %s"
          % (len(corpus.train), len(corpus.validation), len(corpus.test), args.out))
    return 0


def cmd_probegen(args):
    corpus = load_corpus(args.corpus, args.format)
    tasks = list(TASKS) if args.task == "all" else [args.task]
    if args.all_skip_excluded:
        tasks = [t for t in tasks if t not in probegen.EXCLUDED.get(args.profile, ())]
    datasets = build_tasks(tasks, corpus, args.profile)
    os.makedirs(args.out, exist_ok=True)
    for ds in datasets:
        path = os.path.join(args.out, "%s.jsonl" % ds.task)
        save_dataset(ds, path)
        print("wrote %s (%d labels)" % (path, len(ds.labels)))
    return 0


def cmd_train(args):
    cfg = read_config(args.config)
    corpus = _load_corpus_cfg(cfg)
    seed = _seed_from(cfg)
    profile_name = cfg.get("profile", "desk-small")
    all_presets = presets()
    if profile_name not in all_presets:
        raise UsageError("unknown profile: %s" % profile_name)
    profile, enc_cfg = all_presets[profile_name]
    kind = cfg.get("encoder", "cnn")
    if enc_cfg is None:
        enc_cfg = desk_encoder_config(kind)
    elif enc_cfg.kind != kind and "encoder" in cfg:
        raise UsageError("profile %s is for encoder %s" % (profile_name, enc_cfg.kind))
    input_kwargs = {
        "masking": cfg.get("masking", False),
        "word_dropout": profile.word_dropout,
        "embedding_dropout": profile.embedding_dropout,
        "pos_dim": cfg.get("pos_dim", profile.pos_dim),
    }
    if "word_dim" in cfg:
        input_kwargs["word_dim"] = cfg["word_dim"]
    if "max_offset" in cfg:
        input_kwargs["max_offset"] = cfg["max_offset"]
    embeddings = None
    if "embeddings" in cfg:
        embeddings = load_embeddings(cfg["embeddings"])
        input_kwargs.setdefault("word_dim", embeddings.dim)
        if input_kwargs["word_dim"] > embeddings.dim:
            raise ValueError("%s: vectors %d wide, narrower than word_dim %d"
                             % (cfg["embeddings"], embeddings.dim, input_kwargs["word_dim"]))
    contextual = None
    if "contextual" in cfg:
        contextual = _contextual(load_contextual(cfg["contextual"]), cfg["contextual"],
                                 corpus.train + corpus.validation)
        input_kwargs["use_contextual"] = True
        input_kwargs["contextual_dim"] = next(iter(contextual.matrices.values())).shape[1]
    if profile_name == "desk-small":
        input_cfg = desk_input_config(**input_kwargs)
    else:
        input_kwargs.setdefault("word_dim", 300)
        input_cfg = InputConfig(**input_kwargs)
    out = cfg.get("out", ".")
    os.makedirs(out, exist_ok=True)
    model, history = train_re(corpus, input_cfg, enc_cfg, profile, seed=seed,
                              contextual=contextual, embeddings=embeddings,
                              log=lambda m: print(m))
    save_checkpoint(model, os.path.join(out, "checkpoint.rpck"))
    with open(os.path.join(out, "history.csv"), "w", encoding="utf-8") as f:
        f.write(history.to_csv())
    print("best validation F1: %.4f" % history.best_f1())
    return 0


def _boe_table(opts, sentences):
    """The BoE baseline's table: the embeddings file of opts if it names
    one, else a random table over every token of `sentences`, boe_dim wide
    (16 by default) and drawn from boe_seed, by default the seed."""
    if "embeddings" in opts:
        if "boe_dim" in opts:
            raise UsageError("%s: the boe table is read from this file; boe_dim and "
                             "--boe-dim size only a random table" % opts["embeddings"])
        return load_embeddings(opts["embeddings"])
    seed = opts["boe_seed"] if "boe_seed" in opts else _seed_from(opts)
    return random_embeddings({t for s in sentences for t in s.tokens},
                             opts.get("boe_dim", 16), seed)


def _source(name, corpus, splits, opts, option, stores):
    """(row label, split -> RepMatrix) of the source `name` over the
    sentences of each split of `splits`: a baseline (length, argdist, boe)
    or ck:<checkpoint>. opts gives the BoE table (_boe_table) and
    contextual, the CTXV file that `option` names, which is read into
    stores the first time a checkpoint reads it."""
    if name in probing.BASELINES:
        table = _boe_table(opts, corpus.all_sentences()) if name == "boe" else None
        return name, {sp: baseline_reps(name, ss, table) for sp, ss in splits.items()}
    if not name.startswith("ck:"):
        raise UsageError("unknown source %r (use length|argdist|boe|ck:<path>)" % name)
    checkpoint = name[3:]
    model = load_checkpoint(checkpoint)
    contextual = None
    if model.input_cfg.use_contextual:
        path = opts.get("contextual")
        if path is None:
            raise UsageError("%s: the model reads contextual vectors; give %s"
                             % (checkpoint, option))
        if path not in stores:
            stores[path] = load_contextual(path)
        contextual = _contextual(stores[path], path, [s for ss in splits.values() for s in ss],
                                 checkpoint, model.input_cfg.contextual_dim)
    reps = {sp: extract_reps(model, ss, contextual=contextual) for sp, ss in splits.items()}
    return "encoder:%s" % model.enc_cfg.kind, reps


def cmd_extract(args):
    # the options given, by the names of the config keys a suite reads
    opts = {key: value for key, value in vars(args).items() if value is not None}
    for key, kind in (("boe_dim", _positive), ("boe_seed", int)):
        if key in opts:
            opts[key] = _parse_value(opts[key], kind, "--" + key.replace("_", "-"))
    corpus = load_corpus(args.corpus, args.format)
    if args.baseline and args.contextual:
        raise UsageError("--contextual: the %s baseline reads no contextual vectors"
                         % args.baseline)
    if not (args.baseline or args.checkpoint):
        raise UsageError("either --checkpoint or --baseline is required")
    stores = {}
    _, reps = _source(args.baseline or "ck:" + args.checkpoint, corpus,
                      {args.split: corpus.split(args.split)}, opts, "--contextual", stores)
    if args.contextual and not stores:
        raise UsageError("%s: the model reads no contextual vectors; drop --contextual"
                         % args.checkpoint)
    rep = reps[args.split]
    save_reps(rep, args.out)
    print("wrote %s (%d x %d)" % (args.out, rep.rows.shape[0], rep.rows.shape[1]))
    return 0


def cmd_probe(args):
    grid = _parse_value(args.grid, _grid, "--grid") if args.grid else L2_GRID
    task = load_dataset(args.task)
    reps = {}
    for split, path in (("train", args.train), ("validation", args.val), ("test", args.test)):
        rep = reps[split] = load_reps(path)
        train = reps["train"]
        if rep.rows.shape[1] != train.rows.shape[1]:
            raise ValueError("%s: %d columns, but the train file %s has %d"
                             % (path, rep.rows.shape[1], args.train, train.rows.shape[1]))
        if rep.source != train.source:
            raise ValueError("%s: source %r, but the train file %s has %r"
                             % (path, rep.source, args.train, train.source))
        known = set(rep.ids)
        for sid, _ in task.splits[split]:
            if sid not in known:
                raise ValueError("%s: no representation for sentence %s" % (path, sid))
    result = train_probe(reps, task, grid=grid, standardize=args.standardize)
    header = ["task", "source", "chosen_l2", "val_accuracy", "test_accuracy"]
    row = [result.task, result.source, "%g" % result.chosen_l2,
           "%.4f" % result.val_accuracy, "%.4f" % result.test_accuracy]
    out = render_csv(header, [row])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(out)
    print(out, end="")
    return 0


def cmd_suite(args):
    cfg = read_config(args.config)
    jobs = cfg.get("jobs", 1) if args.jobs is None \
        else _parse_value(args.jobs, _positive, "--jobs")
    standardize = cfg.get("standardize", False)
    corpus = _load_corpus_cfg(cfg)
    task_profile = cfg.get("task_profile", "tacred")
    task_names = cfg.get("tasks", "all")
    if task_names == "all":
        tasks = build_all(corpus, task_profile)
    else:
        tasks = build_tasks([t.strip() for t in task_names.split(",")], corpus, task_profile)
    splits = {"train": corpus.train, "validation": corpus.validation, "test": corpus.test}
    stores = {}
    sources = [_source(name.strip(), corpus, splits, cfg, "the config key 'contextual'", stores)
               for name in cfg.get("sources", "length,argdist,boe").split(",")]
    if "contextual" in cfg and not stores:
        raise UsageError("config key 'contextual': no ck: source reads contextual vectors")
    grid = cfg.get("grid", L2_GRID)
    results = run_suite(sources, tasks, grid=grid, standardize=standardize, jobs=jobs)
    header, rows = suite_table(results, sources, tasks)
    out = cfg.get("out", ".")
    os.makedirs(out, exist_ok=True)
    csv_text = render_csv(header, rows)
    with open(os.path.join(out, "suite.csv"), "w", encoding="utf-8") as f:
        f.write(csv_text)
    with open(os.path.join(out, "suite.txt"), "w", encoding="utf-8") as f:
        f.write(render_text_table(header, rows))
    print(csv_text, end="")
    return 0


def cmd_gradcheck(args):
    from .verify import gradcheck_all
    results = gradcheck_all()
    worst = 0.0
    width = max(map(len, results))
    for name in sorted(results):
        err = results[name]
        worst = max(worst, err)
        print("%-*s %.3e %s" % (width, name, err, "ok" if err < 1e-4 else "FAIL"))
    print("max relative error: %.3e" % worst)
    return 0 if worst < 1e-4 else 1


def cmd_report(args):
    lines = [(lineno, line.rstrip("\r\n").split(","))
             for lineno, line in read_lines(args.csv) if line.strip()]
    if not lines:
        raise ValueError("%s: no header row" % args.csv)
    header = lines[0][1]
    for lineno, row in lines[1:]:
        if len(row) != len(header):
            raise ValueError("%s:%d: expected %d fields like the header, got %d"
                             % (args.csv, lineno, len(header), len(row)))
    print(render_text_table(header, [row for _, row in lines[1:]]), end="")
    return 0


# ------------------------------------------------------------------ parser

def build_parser():
    p = argparse.ArgumentParser(prog="relprobe")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="validate a corpus and print a report")
    v.add_argument("--corpus", required=True)
    v.add_argument("--format", default="generic-jsonl")
    v.set_defaults(func=cmd_validate)

    s = sub.add_parser("synth", help="generate a synthetic corpus")
    s.add_argument("--out", required=True)
    s.add_argument("--templates", default="default",
                   help="default | type-pair | order-controlled | path to jsonl")
    s.add_argument("--n-train", default=64)
    s.add_argument("--n-val", default=16)
    s.add_argument("--n-test", default=32)
    s.add_argument("--seed", default=0)
    s.add_argument("--pad-max", default=0)
    s.set_defaults(func=cmd_synth)

    g = sub.add_parser("probegen", help="generate probing-task datasets")
    g.add_argument("--corpus", required=True)
    g.add_argument("--format", default="generic-jsonl")
    g.add_argument("--profile", default="tacred")
    g.add_argument("--task", default="all")
    g.add_argument("--out", required=True)
    g.add_argument("--all-skip-excluded", action="store_true",
                   help="with --task all, silently skip profile-excluded tasks")
    g.set_defaults(func=cmd_probegen)

    t = sub.add_parser("train", help="train an RE model from a config file")
    t.add_argument("--config", required=True)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("extract", help="extract frozen-encoder representations")
    e.add_argument("--corpus", required=True)
    e.add_argument("--format", default="generic-jsonl")
    e.add_argument("--split", default="train",
                   choices=("train", "validation", "test"))
    e.add_argument("--checkpoint")
    e.add_argument("--baseline", choices=probing.BASELINES)
    e.add_argument("--embeddings")
    e.add_argument("--boe-dim")
    e.add_argument("--boe-seed")
    e.add_argument("--contextual")
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_extract)

    b = sub.add_parser("probe", help="train one probing classifier")
    b.add_argument("--task", required=True)
    b.add_argument("--train", required=True)
    b.add_argument("--val", required=True)
    b.add_argument("--test", required=True)
    b.add_argument("--grid")
    b.add_argument("--standardize", action="store_true")
    b.add_argument("--out")
    b.set_defaults(func=cmd_probe)

    u = sub.add_parser("suite", help="run the full probing suite from a config file")
    u.add_argument("--config", required=True)
    u.add_argument("--jobs")
    u.set_defaults(func=cmd_suite)

    c = sub.add_parser("gradcheck", help="gradient-check all ops and encoders")
    c.set_defaults(func=cmd_gradcheck)

    r = sub.add_parser("report", help="render a CSV as an aligned text table")
    r.add_argument("--csv", required=True)
    r.set_defaults(func=cmd_report)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except (CorpusFormatError, ValueError, RuntimeError, OSError, KeyError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
