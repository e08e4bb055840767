import hashlib
import json
import math
import os
import struct

import numpy as np
import pytest

from relprobe import cli
from relprobe.corpus import ContextualStore, load_corpus, write_contextual
from relprobe.encoders import EncoderConfig, InputConfig, REModel, Vocab
from relprobe.probing import load_reps
from relprobe.training import save_checkpoint


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("cli") / "corpus")
    code = cli.main(["synth", "--out", d, "--n-train", "30", "--n-val", "10",
                     "--n-test", "10", "--seed", "7", "--pad-max", "4"])
    assert code == 0
    return d


def test_synth_writes_splits(corpus_dir):
    for name in ("train.jsonl", "validation.jsonl", "test.jsonl"):
        assert os.path.exists(os.path.join(corpus_dir, name))


def test_validate_ok(capsys, corpus_dir):
    code, out, err = run(capsys, "validate", "--corpus", corpus_dir)
    assert code == 0
    assert "splits: train=30 validation=10 test=10" in out


def test_validate_bad_corpus(capsys, tmp_path):
    d = tmp_path / "bad"
    d.mkdir()
    (d / "train.jsonl").write_text("{broken\n")
    code, out, err = run(capsys, "validate", "--corpus", str(d))
    assert code == 1
    assert err.startswith("error:")


def test_validate_missing_dir(capsys, tmp_path):
    code, _, err = run(capsys, "validate", "--corpus", str(tmp_path / "nope"))
    assert code == 1
    assert "error:" in err


_GOOD = {
    "id": "r0",
    "tokens": ["Bayer", "acquired", "Monsanto"],
    "pos": ["NNP", "VBD", "NNP"],
    "ner": ["ORG", "O", "ORG"],
    "dep_head": [2, 0, 2],
    "dep_label": ["nsubj", "root", "dobj"],
    "head_start": 0, "head_end": 0,
    "tail_start": 2, "tail_end": 2,
    "relation": "org:deal",
}
_TACRED_NAMES = dict(zip(_GOOD, ("id", "token", "stanford_pos", "stanford_ner", "stanford_head",
                                  "stanford_deprel", "subj_start", "subj_end", "obj_start",
                                  "obj_end", "relation")))


def _record(drop=(), tacred=False, **fields):
    rec = {k: v for k, v in {**_GOOD, "id": "r1", **fields}.items() if k not in drop}
    return {_TACRED_NAMES[k]: v for k, v in rec.items()} if tacred else rec


def _jsonl(second):
    """Two lines, the first a good record; `second` is a record or raw bytes."""
    if not isinstance(second, bytes):
        second = json.dumps(second).encode()
    return json.dumps(_GOOD).encode() + b"\n" + second + b"\n"


def _template(second):
    good = dict(_GOOD)
    del good["id"]
    return json.dumps(good).encode() + b"\n" + json.dumps(second).encode() + b"\n"


def _tacred(*records):
    return json.dumps([_record(tacred=True, id="r0")] + list(records)).encode()


# (input kind, file bytes, where the error says the problem is, what it says)
_MALFORMED = {
    "tokens-int": ("jsonl", _jsonl(_record(tokens=5)), ":2: ", "field tokens:"),
    "line-int": ("jsonl", _jsonl(b"5"), ":2: ", "expected a JSON object, got integer"),
    "line-array": ("jsonl", _jsonl(b"[1, 2]"), ":2: ", "expected a JSON object, got array"),
    "line-not-json": ("jsonl", _jsonl(b"{not json"), ":2: ", "malformed json"),
    "line-nested-too-deep": ("jsonl", _jsonl(b"[" * 100000), ":2: ", "malformed json"),
    "head-null": ("jsonl", _jsonl(_record(dep_head=[None, 0, 2])), ":2: ", "field dep_head:"),
    "head-float": ("jsonl", _jsonl(_record(dep_head=[2.7, 0, 2])), ":2: ", "field dep_head:"),
    "head-numeric-strings": ("jsonl", _jsonl(_record(dep_head=["2", "0", "2"])), ":2: ",
                             "field dep_head:"),
    "span-string": ("jsonl", _jsonl(_record(head_start="x")), ":2: ", "field head_start:"),
    "span-float": ("jsonl", _jsonl(_record(head_start=0.5)), ":2: ", "field head_start:"),
    "span-bool": ("jsonl", _jsonl(_record(head_start=False, head_end=False)), ":2: ",
                  "field head_start:"),
    "id-null": ("jsonl", _jsonl(_record(id=None)), ":2: ", "field id:"),
    "tokens-string": ("jsonl", _jsonl(_record(tokens="xyz")), ":2: ", "field tokens:"),
    "annotations-all-strings": ("jsonl", _jsonl(_record(tokens="abc", pos="abc", ner="abc",
                                                        dep_label="abc")), ":2: ", "field tokens:"),
    "label-int": ("jsonl", _jsonl(_record(dep_label=["nsubj", 1, "dobj"])), ":2: ",
                  "field dep_label: item 1:"),
    "relation-int": ("jsonl", _jsonl(_record(relation=3)), ":2: ", "field relation:"),
    "missing-field": ("jsonl", _jsonl(_record(drop=("ner",))), ":2: ", "missing field ner"),
    "span-inverted": ("jsonl", _jsonl(_record(head_start=2, head_end=1)), ":2: ",
                      "sentence r1: head span start > end"),
    "spans-overlap": ("jsonl", _jsonl(_record(tail_start=0, tail_end=1)), ":2: ", "overlap"),
    "bad-utf8": ("jsonl", _jsonl(json.dumps(_record()).encode().replace(b"Bayer", b"Ba\xffer")),
                 ":2: ", "can't decode byte 0xff"),
    "duplicate-id": ("jsonl", _jsonl(_record(id="r0")), ": ", "duplicate sentence id: r0"),
    "tacred-object": ("tacred", json.dumps(_record(tacred=True)).encode(), ": ",
                      "expected a JSON array, got object"),
    "tacred-record-int": ("tacred", _tacred(5), ": record 1: ",
                          "expected a JSON object, got integer"),
    "tacred-missing-field": ("tacred", _tacred(_record(tacred=True, drop=("ner",))),
                             ": record 1: ", "missing field stanford_ner"),
    "tacred-head-float": ("tacred", _tacred(_record(tacred=True, dep_head=[2.7, 0, 2])),
                          ": record 1: ", "field stanford_head:"),
    "tacred-nested-too-deep": ("tacred", b"[" * 100000, ": ", "malformed json"),
    "tacred-bad-utf8": ("tacred", _tacred(_record(tacred=True)).replace(b"Bayer", b"Ba\xffer"),
                        ": ", "can't decode byte 0xff"),
    "template-missing-ner": ("template", _template(_record(drop=("id", "ner"))), ":2: ",
                             "missing field ner"),
    "template-tokens-int": ("template", _template(_record(drop=("id",), tokens=5)), ":2: ",
                            "field tokens:"),
    "template-span-inverted": ("template", _template(_record(drop=("id",), head_start=2)),
                               ":2: ", "head span start > end"),
    "head-cycle": ("jsonl", _jsonl(_record(dep_head=[2, 0, 3])), ":2: ",
                   "sentence r1: cycle detected"),
    "tacred-head-cycle": ("tacred", _tacred(_record(tacred=True, dep_head=[2, 0, 3])),
                          ": record 1: ", "sentence r1: cycle detected"),
    "template-cycle": ("template", _template(_record(drop=("id",), dep_head=[2, 0, 3])),
                       ":2: ", "cycle detected"),
    "head-beyond-int64": ("jsonl", _jsonl(_record(dep_head=[0, 1, 10**30])), ":2: ",
                          "sentence r1: dep_head value out of range"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_record_is_one_error_line(capsys, tmp_path, case):
    kind, raw, where, message = _MALFORMED[case]
    d = tmp_path / "corpus"
    d.mkdir()
    out = str(tmp_path / "out")
    path = str(d / {"jsonl": "train.jsonl", "tacred": "train.json",
                    "template": "templates.jsonl"}[kind])
    with open(path, "wb") as f:
        f.write(raw)
    if kind == "template":
        argv = ["synth", "--templates", path, "--out", out]
    else:
        argv = ["validate", "--corpus", str(d)]
        argv += ["--format", "tacred-json"] if kind == "tacred" else []
    code, stdout, err = run(capsys, *argv)
    assert code == 1
    assert stdout == "" and not os.path.exists(out)
    assert len(err.splitlines()) == 1
    assert err.startswith("error: %s%s" % (path, where))
    assert message in err
    assert "sentence :" not in err  # no empty template id
    assert "Traceback" not in err


def test_probegen_all(capsys, corpus_dir, tmp_path):
    out_dir = str(tmp_path / "tasks")
    code, out, _ = run(capsys, "probegen", "--corpus", corpus_dir,
                       "--profile", "tacred", "--out", out_dir)
    assert code == 0
    files = sorted(os.listdir(out_dir))
    assert len(files) == 14
    assert "SentLen.jsonl" in files


def test_probegen_excluded_task_fails(capsys, corpus_dir, tmp_path):
    code, _, err = run(capsys, "probegen", "--corpus", corpus_dir,
                       "--profile", "semeval", "--task", "ArgOrd",
                       "--out", str(tmp_path / "x"))
    assert code == 1
    assert "excluded" in err


def test_probegen_semeval_skip_excluded(capsys, corpus_dir, tmp_path):
    out_dir = str(tmp_path / "sem")
    code, _, _ = run(capsys, "probegen", "--corpus", corpus_dir,
                     "--profile", "semeval", "--out", out_dir,
                     "--all-skip-excluded")
    assert code == 0
    files = set(os.listdir(out_dir))
    assert "ArgOrd.jsonl" not in files and "EntExist.jsonl" not in files
    assert len(files) == 12


def test_unknown_config_key_is_usage_error(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("corpus = /nowhere\nfrobnicate = 3\n")
    code, _, err = run(capsys, "train", "--config", str(cfg))
    assert code == 2
    assert "unknown config key" in err


def test_config_comments_and_unknown_profile(capsys, tmp_path, corpus_dir):
    cfg = tmp_path / "p.cfg"
    cfg.write_text("# a comment\ncorpus = %s  # trailing comment\nprofile = huge\n"
                   % corpus_dir)
    code, _, err = run(capsys, "train", "--config", str(cfg))
    assert code == 2
    assert "unknown profile" in err


@pytest.mark.parametrize("command,key", (("train", "masking"), ("suite", "standardize")))
def test_unknown_bool_value_is_usage_error(capsys, tmp_path, corpus_dir, command, key):
    cfg = tmp_path / "b.cfg"
    cfg.write_text("corpus = %s\n%s = yes please\nout = %s\n"
                   % (corpus_dir, key, str(tmp_path / "o")))
    code, _, err = run(capsys, command, "--config", str(cfg))
    assert code == 2
    assert err.startswith("error: config key %r: " % key)
    assert "'yes please'" in err
    assert not os.path.exists(str(tmp_path / "o"))


@pytest.mark.parametrize("case", ("word_dim", "grid", "RELPROBE_SEED", "--grid"))
def test_unparsable_value_is_usage_error(capsys, monkeypatch, tmp_path, corpus_dir, case):
    out = str(tmp_path / "o")
    cfg = tmp_path / "v.cfg"
    body = "corpus = %s\nout = %s\n" % (corpus_dir, out)
    if case == "--grid":
        reps = str(tmp_path / "none.repr")  # never read: the grid fails first
        argv = ["probe", "--task", reps, "--train", reps, "--val", reps, "--test", reps,
                "--grid", "x", "--out", out]
        expected = "error: --grid: expected comma-separated numbers, got 'x'\n"
    elif case == "RELPROBE_SEED":
        monkeypatch.setenv("RELPROBE_SEED", "x")
        cfg.write_text(body)
        argv = ["train", "--config", str(cfg)]
        expected = "error: RELPROBE_SEED: expected an integer, got 'x'\n"
    else:
        value, command, kind = {"word_dim": ("abc", "train", "an integer >= 1"),
                                "grid": ("0.1,x", "suite", "comma-separated numbers")}[case]
        cfg.write_text(body + "%s = %s\n" % (case, value))
        argv = [command, "--config", str(cfg)]
        expected = "error: config key %r: expected %s, got %r in %s:3\n" % (
            case, kind, value, cfg)
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout, err) == (2, "", expected)
    assert not os.path.exists(out)


@pytest.mark.parametrize("value,bad", (("nan", "nan"), ("inf", "inf"), ("-0.5", "-0.5"),
                                       ("0.01,-inf", "-inf")))
@pytest.mark.parametrize("case", ("grid", "--grid"))
def test_out_of_range_grid_is_usage_error(capsys, tmp_path, corpus_dir, case, value, bad):
    out = str(tmp_path / "o")
    problem = "l2 values must be finite and >= 0, got %s" % bad
    if case == "--grid":
        reps = str(tmp_path / "none.repr")  # never read: the grid fails first
        argv = ["probe", "--task", reps, "--train", reps, "--val", reps, "--test", reps,
                "--grid", value, "--out", out]
        expected = "error: --grid: %s\n" % problem
    else:
        cfg = tmp_path / "g.cfg"
        cfg.write_text("corpus = %s\nout = %s\ngrid = %s\n" % (corpus_dir, out, value))
        argv = ["suite", "--config", str(cfg)]
        expected = "error: config key 'grid': %s in %s:3\n" % (problem, cfg)
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout, err) == (2, "", expected)
    assert not os.path.exists(out)


@pytest.mark.parametrize("value", ("0", "-3", "-2", "x", "1.5", ""))
@pytest.mark.parametrize("case", ("jobs", "--jobs", "word_dim", "max_offset", "embeddings_dim"))
def test_jobs_below_one_is_usage_error(capsys, tmp_path, corpus_dir, case, value):
    """--jobs and the config keys that take an integer >= 1, which every
    command's config reader checks before it runs anything."""
    out = str(tmp_path / "o")
    cfg = tmp_path / "j.cfg"
    body = "corpus = %s\nout = %s\nsources = length\ntasks = SentLen\n" % (corpus_dir, out)
    if case == "--jobs":
        cfg.write_text(body + "jobs = 2\n")
        argv = ["suite", "--config", str(cfg), "--jobs", value]
        expected = "error: --jobs: expected an integer >= 1, got %r\n" % value
    else:
        cfg.write_text(body + "%s = %s\n" % (case, value))
        argv = ["suite", "--config", str(cfg)]
        expected = "error: config key %r: expected an integer >= 1, got %r in %s:5\n" % (
            case, value, cfg)
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout, err) == (2, "", expected)
    assert not os.path.exists(out)


@pytest.mark.parametrize("option,value,kind", (
    ("--n-train", "-5", "an integer >= 0"), ("--n-val", "-1", "an integer >= 0"),
    ("--n-test", "x", "an integer >= 0"), ("--pad-max", "-2", "an integer >= 0"),
    ("--boe-dim", "0", "an integer >= 1"), ("--boe-dim", "-3", "an integer >= 1"),
    ("boe_dim", "0", "an integer >= 1"), ("pos_dim", "-1", "an integer >= 0"),
    ("pos_dim", "x", "an integer >= 0")))
def test_bad_size_is_usage_error(capsys, tmp_path, corpus_dir, option, value, kind):
    out = str(tmp_path / "o")
    if not option.startswith("--"):  # a config key
        cfg = tmp_path / "b.cfg"
        cfg.write_text("corpus = %s\nout = %s\n%s = %s\n" % (corpus_dir, out, option, value))
        argv = ["suite", "--config", str(cfg)]
        expected = "error: config key %r: expected %s, got %r in %s:3\n" % (
            option, kind, value, cfg)
    else:
        if option == "--boe-dim":
            argv = ["extract", "--corpus", corpus_dir, "--baseline", "boe", "--out", out]
        else:
            argv = ["synth", "--out", out]
        argv += [option, value]
        expected = "error: %s: expected %s, got %r\n" % (option, kind, value)
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout, err) == (2, "", expected)
    assert not os.path.exists(out)


def test_config_bad_utf8_names_path_and_line(capsys, tmp_path):
    cfg = tmp_path / "u.cfg"
    cfg.write_bytes(b"corpus = /nowhere\nout = r\xffn\n")
    code, _, err = run(capsys, "train", "--config", str(cfg))
    assert code == 2
    assert err.startswith("error: %s:2: 'utf-8' codec can't decode byte 0xff" % cfg)


def test_config_hash_inside_value_is_kept(tmp_path):
    cfg = tmp_path / "h.cfg"
    cfg.write_text("# a comment\ncorpus = /data/a#b  # trailing comment\nout = run#2\t# tab\n")
    assert cli.read_config(str(cfg)) == {"corpus": "/data/a#b", "out": "run#2"}


def test_train_desk_small(capsys, tmp_path, corpus_dir):
    out = str(tmp_path / "run")
    cfg = tmp_path / "train.cfg"
    cfg.write_text("corpus = %s\nprofile = desk-small\nencoder = boe\n"
                   "seed = 1\nout = %s\n" % (corpus_dir, out))
    code, stdout, _ = run(capsys, "train", "--config", str(cfg))
    assert code == 0
    assert os.path.exists(os.path.join(out, "checkpoint.rpck"))
    history = open(os.path.join(out, "history.csv")).read()
    assert history.startswith("epoch,loss,val_p,val_r,val_f1,lr")
    assert "best validation F1" in stdout


def test_train_empty_contextual_file_is_one_error_line(capsys, tmp_path, corpus_dir):
    ctx = str(tmp_path / "empty.ctxv")
    write_contextual(ContextualStore({}), ctx)
    cfg = tmp_path / "train.cfg"
    cfg.write_text("corpus = %s\nprofile = desk-small\nencoder = boe\ncontextual = %s\n"
                   "out = %s\n" % (corpus_dir, ctx, tmp_path / "run"))
    code, stdout, err = run(capsys, "train", "--config", str(cfg))
    assert code == 1
    assert err == "error: %s: no contextual vectors\n" % ctx
    assert not os.path.exists(str(tmp_path / "run"))


@pytest.fixture(scope="module")
def ctx_inputs(corpus_dir, tmp_path_factory):
    """(the corpus, CTXV files by name, a checkpoint trained with the
    "trainval" file). The files: "train" holds the train split alone,
    "trainval" the train and validation splits, 3 wide; "wide" holds every
    sentence 5 wide, "short" every sentence one row short."""
    d = tmp_path_factory.mktemp("ctx")
    corpus = load_corpus(corpus_dir)
    files = {}
    for name, sentences, width, short in (
            ("train", corpus.train, 3, 0), ("trainval", corpus.train + corpus.validation, 3, 0),
            ("wide", corpus.all_sentences(), 5, 0), ("short", corpus.all_sentences(), 3, 1)):
        files[name] = str(d / ("%s.ctxv" % name))
        write_contextual(ContextualStore({s.id: np.full((len(s) - short, width), 0.5, np.float32)
                                          for s in sentences}), files[name])
    cfg = d / "train.cfg"
    cfg.write_text("corpus = %s\nprofile = desk-small\nencoder = boe\ncontextual = %s\n"
                   "out = %s\n" % (corpus_dir, files["trainval"], d / "run"))
    assert cli.main(["train", "--config", str(cfg)]) == 0  # no test split needed
    return corpus, files, str(d / "run" / "checkpoint.rpck")


@pytest.mark.parametrize("name", ("train", "short"))
def test_train_contextual_file_unlike_a_sentence_names_it(capsys, tmp_path, corpus_dir,
                                                          ctx_inputs, name):
    corpus, files, _ = ctx_inputs
    cfg = tmp_path / "train.cfg"
    cfg.write_text("corpus = %s\nprofile = desk-small\nencoder = boe\ncontextual = %s\n"
                   "out = %s\n" % (corpus_dir, files[name], tmp_path / "run"))
    code, _, err = run(capsys, "train", "--config", str(cfg))
    s = corpus.train[0] if name == "short" else corpus.validation[0]
    problem = "%d contextual rows for the %d tokens of" % (len(s) - 1, len(s)) \
        if name == "short" else "no contextual vectors for"
    assert (code, err) == (1, "error: %s: %s sentence %s\n" % (files[name], problem, s.id))


def test_extract_contextual_model_checks_the_split_it_reads(capsys, tmp_path, corpus_dir,
                                                             ctx_inputs):
    corpus, files, checkpoint = ctx_inputs
    out = str(tmp_path / "r.repr")
    extract = ("extract", "--corpus", corpus_dir, "--checkpoint", checkpoint, "--out", out)
    code, _, err = run(capsys, *extract, "--split", "test")
    assert code == 2
    assert err.startswith("error: %s: " % checkpoint) and "--contextual" in err
    s = corpus.test[0]
    for name, problem in (
            ("trainval", "no contextual vectors for sentence %s" % s.id),
            ("short", "%d contextual rows for the %d tokens of sentence %s"
             % (len(s) - 1, len(s), s.id)),
            ("wide", "contextual vectors 5 wide, but %s reads 3" % checkpoint)):
        code, _, err = run(capsys, *extract, "--split", "test", "--contextual", files[name])
        assert (code, err) == (1, "error: %s: %s\n" % (files[name], problem))
    code, _, err = run(capsys, *extract, "--split", "validation", "--contextual",
                       files["trainval"])
    assert code == 0, err
    assert load_reps(out).ids == tuple(s.id for s in corpus.validation)


def test_suite_contextual_model_names_the_file_or_the_missing_key(capsys, tmp_path,
                                                                   corpus_dir, ctx_inputs):
    corpus, files, checkpoint = ctx_inputs
    cfg = tmp_path / "s.cfg"
    text = "corpus = %s\ntasks = SentLen\nsources = ck:%s\ngrid = 0\nout = %s\n" \
        % (corpus_dir, checkpoint, tmp_path / "s")
    cfg.write_text(text)
    code, _, err = run(capsys, "suite", "--config", str(cfg))
    assert code == 2
    assert err.startswith("error: %s: " % checkpoint) and "'contextual'" in err
    cfg.write_text(text + "contextual = %s\n" % files["trainval"])
    code, _, err = run(capsys, "suite", "--config", str(cfg))
    assert (code, err) == (1, "error: %s: no contextual vectors for sentence %s\n"
                           % (files["trainval"], corpus.test[0].id))


@pytest.fixture(scope="module")
def plain_checkpoint(tmp_path_factory):
    """A boe checkpoint that reads no contextual vectors."""
    path = str(tmp_path_factory.mktemp("plain") / "plain.rpck")
    save_checkpoint(REModel(Vocab(["a"]), ("x", "y"),
                            InputConfig(word_dim=2, pos_dim=1, max_offset=1),
                            EncoderConfig(kind="boe")), path)
    return path


def test_extract_contextual_file_nothing_reads_is_usage_error(capsys, tmp_path, corpus_dir,
                                                              ctx_inputs, plain_checkpoint):
    _, files, _ = ctx_inputs
    out = str(tmp_path / "r.repr")
    extract = ("extract", "--corpus", corpus_dir, "--contextual", files["trainval"], "--out", out)
    code, _, err = run(capsys, *extract, "--checkpoint", plain_checkpoint)
    assert code == 2
    assert err.startswith("error: %s: " % plain_checkpoint) and "--contextual" in err
    for baseline in ("length", "boe"):
        code, _, err = run(capsys, *extract, "--baseline", baseline)
        assert code == 2
        assert err.startswith("error: --contextual: ") and baseline in err
    assert not os.path.exists(out)


def test_suite_contextual_key_no_source_reads_is_usage_error(capsys, tmp_path, corpus_dir,
                                                             ctx_inputs, plain_checkpoint):
    corpus, files, checkpoint = ctx_inputs
    cfg, out = tmp_path / "s.cfg", tmp_path / "s"
    text = "corpus = %s\ntasks = SentLen\ngrid = 0\nout = %s\nsources = %%s\ncontextual = %%s\n" \
        % (corpus_dir, out)
    for sources in ("length", "length,ck:%s" % plain_checkpoint):
        cfg.write_text(text % (sources, files["trainval"]))
        code, _, err = run(capsys, "suite", "--config", str(cfg))
        assert code == 2
        assert err.startswith("error: config key 'contextual': ") and "ck:" in err
    assert not os.path.exists(str(out))
    # beside a model that reads contextual vectors, one that reads none is fine
    full = str(tmp_path / "full.ctxv")
    write_contextual(ContextualStore({s.id: np.full((len(s), 3), 0.5, np.float32)
                                      for s in corpus.all_sentences()}), full)
    cfg.write_text(text % ("ck:%s,ck:%s" % (plain_checkpoint, checkpoint), full))
    code, _, err = run(capsys, "suite", "--config", str(cfg))
    assert code == 0, err


def test_extract_baseline_and_probe(capsys, tmp_path, corpus_dir):
    tasks = str(tmp_path / "tasks")
    assert cli.main(["probegen", "--corpus", corpus_dir, "--task", "SentLen",
                     "--out", tasks]) == 0
    reps = {}
    for split in ("train", "validation", "test"):
        p = str(tmp_path / ("%s.repr" % split))
        code, _, _ = run(capsys, "extract", "--corpus", corpus_dir,
                         "--split", split, "--baseline", "length", "--out", p)
        assert code == 0
        reps[split] = p
    assert load_reps(reps["train"]).source == "baseline:length"
    out_csv = str(tmp_path / "probe.csv")
    code, stdout, _ = run(capsys, "probe",
                          "--task", os.path.join(tasks, "SentLen.jsonl"),
                          "--train", reps["train"], "--val", reps["validation"],
                          "--test", reps["test"], "--grid", "0,0.01",
                          "--standardize", "--out", out_csv)
    assert code == 0
    assert stdout.startswith("task,source,chosen_l2,val_accuracy,test_accuracy")
    assert os.path.exists(out_csv)


def _probe_with_damaged_train_reps(capsys, tmp_path, corpus_dir, damage):
    tasks = str(tmp_path / "tasks")
    assert cli.main(["probegen", "--corpus", corpus_dir, "--task", "SentLen",
                     "--out", tasks]) == 0
    reps = {}
    for split in ("train", "validation", "test"):
        reps[split] = str(tmp_path / ("%s.repr" % split))
        assert cli.main(["extract", "--corpus", corpus_dir, "--split", split,
                         "--baseline", "length", "--out", reps[split]]) == 0
    raw = open(reps["train"], "rb").read()
    with open(reps["train"], "wb") as f:
        f.write(damage(raw))
    code, _, err = run(capsys, "probe", "--task", os.path.join(tasks, "SentLen.jsonl"),
                       "--train", reps["train"], "--val", reps["validation"],
                       "--test", reps["test"])
    assert code == 1
    assert err.startswith("error: %s: " % reps["train"])
    assert "Traceback" not in err
    return err


def test_probe_truncated_reps_fails_cleanly(capsys, tmp_path, corpus_dir):
    # cut inside the source label
    _probe_with_damaged_train_reps(capsys, tmp_path, corpus_dir, lambda raw: raw[:-3])


def test_probe_bad_utf8_reps_fails_cleanly(capsys, tmp_path, corpus_dir):
    # 0xff as the first byte of the first id
    err = _probe_with_damaged_train_reps(capsys, tmp_path, corpus_dir,
                                         lambda raw: raw[:28] + b"\xff" + raw[29:])
    assert "bad UTF-8 at byte offset 28" in err


def test_probe_non_finite_reps_fails_cleanly(capsys, tmp_path, corpus_dir):
    def nan_first_row(raw):
        n, d = struct.unpack("<QQ", raw[8:24])
        start = len(raw) - (4 + len(b"baseline:length")) - 4 * n * d
        return raw[:start] + struct.pack("<f", float("nan")) + raw[start + 4:]

    err = _probe_with_damaged_train_reps(capsys, tmp_path, corpus_dir, nan_first_row)
    assert len(err.splitlines()) == 1
    assert "non-finite value in row" in err


@pytest.fixture(scope="module")
def probe_inputs(corpus_dir, tmp_path_factory):
    """(SentLen task file, split -> length-baseline REPR file) of corpus_dir."""
    d = tmp_path_factory.mktemp("probe")
    assert cli.main(["probegen", "--corpus", corpus_dir, "--task", "SentLen",
                     "--out", str(d)]) == 0
    reps = {}
    for split in ("train", "validation", "test"):
        reps[split] = str(d / ("%s.repr" % split))
        assert cli.main(["extract", "--corpus", corpus_dir, "--split", split,
                         "--baseline", "length", "--out", reps[split]]) == 0
    return str(d / "SentLen.jsonl"), reps


def _probe_edited_task(capsys, tmp_path, probe_inputs, edit):
    """Run `probe` on the SentLen task file with its lines (the train,
    validation and test records) replaced by edit(records)."""
    task_path, reps = probe_inputs
    with open(task_path, encoding="utf-8") as f:
        records = [json.loads(line) for line in f]
    path = str(tmp_path / "task.jsonl")
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(line + "\n" for line in edit(records))
    code, stdout, err = run(capsys, "probe", "--task", path, "--train", reps["train"],
                            "--val", reps["validation"], "--test", reps["test"])
    assert code == 1 and stdout == ""
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    return path, err


def _lines(records):
    return [json.dumps(r) for r in records]


def _drop(record, key):
    return {k: v for k, v in record.items() if k != key}


# task-file defects: edit of the records -> (where after the path, message)
_TASK_DEFECTS = {
    "no-test-split": (lambda r: _lines(r[:2]), "", "no test split"),
    "no-train-split": (lambda r: _lines(r[1:]), "", "no train split"),
    "no-items-key": (lambda r: _lines([r[0], _drop(r[1], "items"), r[2]]), ":2",
                     "missing key 'items'"),
    "no-task-key": (lambda r: _lines([_drop(r[0], "task")] + r[1:]), ":1",
                    "missing key 'task'"),
    "other-task": (lambda r: _lines(r[:2] + [{**r[2], "task": "ArgDist"}]), ":3",
                   "task or labels differ"),
    "other-labels": (lambda r: _lines([r[0], {**r[1], "labels": r[1]["labels"][::-1]}, r[2]]),
                     ":2", "task or labels differ"),
    "repeated-split": (lambda r: _lines(r + [r[0]]), ":4", "repeated split 'train'"),
    "unknown-split": (lambda r: _lines(r[:2] + [{**r[2], "split": "dev"}]), ":3",
                      "unknown split 'dev'"),
    "split-not-a-string": (lambda r: _lines(r[:2] + [{**r[2], "split": ["test"]}]), ":3",
                           "unknown split ['test']"),
    "not-json": (lambda r: _lines(r[:1]) + ["{"] + _lines(r[1:]), ":2", "malformed json"),
    "not-an-object": (lambda r: ["[1, 2]"] + _lines(r), ":1", "expected a JSON object"),
    "task-not-a-string": (lambda r: _lines([{**x, "task": 3} for x in r]), ":1",
                          "task must be a string"),
    "labels-not-a-list": (lambda r: _lines([{**x, "labels": "bin00"} for x in r]), ":1",
                          "labels must be a list of strings"),
    "item-without-label": (lambda r: _lines([{**r[0], "items": [{"id": "x"}]}] + r[1:]), ":1",
                           "items must be objects with a string id and label"),
    "items-not-a-list": (lambda r: _lines([r[0], {**r[1], "items": 5}, r[2]]), ":2",
                         "items must be objects"),
    "bad-boundaries": (lambda r: _lines([{**r[0], "boundaries": 2}] + r[1:]), ":1",
                       'boundaries must be numbers or "inf"'),
}


@pytest.mark.parametrize("case", sorted(_TASK_DEFECTS))
def test_probe_bad_task_file_names_path_and_line(capsys, tmp_path, probe_inputs, case):
    edit, where, message = _TASK_DEFECTS[case]
    path, err = _probe_edited_task(capsys, tmp_path, probe_inputs, edit)
    assert err.startswith("error: %s%s: " % (path, where))
    assert message in err


@pytest.mark.parametrize("split", ("train", "validation", "test"))
def test_probe_names_the_reps_file_without_a_task_id(capsys, tmp_path, probe_inputs, split):
    def add_zz(records):
        for r in records:
            if r["split"] == split:
                r["items"].append({"id": "zz", "label": r["labels"][0]})
        return _lines(records)

    _, err = _probe_edited_task(capsys, tmp_path, probe_inputs, add_zz)
    assert err == "error: %s: no representation for sentence zz\n" % probe_inputs[1][split]


@pytest.mark.parametrize("split", ("validation", "test"))
@pytest.mark.parametrize("other", ("boe", "argdist"))
def test_probe_names_a_reps_file_unlike_the_train_file(capsys, tmp_path, corpus_dir,
                                                       probe_inputs, split, other):
    """boe has 16 columns to length's 1; argdist has length's width but
    another source."""
    task_path, reps = probe_inputs
    path = str(tmp_path / "other.repr")
    assert run(capsys, "extract", "--corpus", corpus_dir, "--split", split,
               "--baseline", other, "--out", path)[0] == 0
    files = {**reps, split: path}
    code, stdout, err = run(capsys, "probe", "--task", task_path, "--train", files["train"],
                            "--val", files["validation"], "--test", files["test"])
    assert (code, stdout) == (1, "")
    problem = "16 columns" if other == "boe" else "source 'baseline:argdist'"
    assert err == "error: %s: %s, but the train file %s has %s\n" % (
        path, problem, reps["train"], "1" if other == "boe" else "'baseline:length'")


@pytest.mark.parametrize("train", ("empty", "unlabelled"))
def test_probe_without_a_labelled_train_item_fails_cleanly(capsys, tmp_path, probe_inputs,
                                                           train):
    def edit(records):
        items = records[0]["items"]
        records[0]["items"] = [] if train == "empty" else [{**it, "label": "zzz"} for it in items]
        return _lines(records)

    _, err = _probe_edited_task(capsys, tmp_path, probe_inputs, edit)
    assert err.startswith("error: task SentLen: no train item")


def test_extract_requires_source(capsys, corpus_dir, tmp_path):
    code, _, err = run(capsys, "extract", "--corpus", corpus_dir,
                       "--out", str(tmp_path / "r.repr"))
    assert code == 2
    assert "checkpoint" in err


# RPCK config-blob defects: each maps the saved blob to the one written instead
_BLOB_DEFECTS = {
    "gelu": lambda b: {**b, "encoder_cfg": {**b["encoder_cfg"], "cnn_activation": "gelu"}},
    "unknown-key": lambda b: {**b, "encoder_cfg": {**b["encoder_cfg"], "cnn_pooling": "mean"}},
    "no-input-cfg": lambda b: {k: v for k, v in b.items() if k != "input_cfg"},
    "list-blob": lambda b: [1, 2],
    **{"prune-k-%s" % k: lambda b, k=k: {**b, "encoder_cfg": {**b["encoder_cfg"], "gcn_prune_k": k}}
       for k in ("x", -1, 1.5, math.nan)},
    **{"attn-heads-%s" % h: lambda b, h=h: {**b, "encoder_cfg": {**b["encoder_cfg"], "kind": "attn",
                                                                  "attn_heads": h}}
       for h in (0, -2)},
    "no-unk": lambda b: {**b, "vocab": [t for t in b["vocab"] if t != "<UNK>"]},
    "repeated-token": lambda b: {**b, "vocab": b["vocab"] + ["a"]},
    "repeated-label": lambda b: {**b, "labels": b["labels"] + ["x"]},
}

# RPCK parameter defects: each edits the params saved
_PARAM_DEFECTS = {
    "incomplete": lambda params: params.pop("cls_b"),
    "unknown-param": lambda params: params.update(zzz=params["cls_b"]),
    "reshaped": lambda params: params.update(cls_b=params["pos_head_emb"]),
}

# the error lines of the defects that word their fault, after "error: <path>: "
_CHECKPOINT_ERRORS = {
    "attn-heads-0": "bad config blob: attn_heads must be >= 1, not 0",
    "attn-heads--2": "bad config blob: attn_heads must be >= 1, not -2",
    "no-unk": "bad config blob: vocab must start <PAD>, <UNK>",
    "repeated-token": "bad config blob: repeated vocab token 'a'",
    "repeated-label": "bad config blob: repeated label 'x'",
    "unknown-param": "checkpoint parameter zzz not in model",
    "reshaped": "shape mismatch for cls_b: (3, 1) in the file, (2,) by the config",
    "duplicate": "duplicate parameter word_emb at byte offset %d",
}


@pytest.mark.parametrize("defect", ("truncated", "duplicate") + tuple(_PARAM_DEFECTS)
                         + tuple(_BLOB_DEFECTS))
def test_extract_bad_checkpoint_fails_cleanly(capsys, corpus_dir, tmp_path, defect):
    model = REModel(Vocab(["a"]), ("x", "y"), InputConfig(word_dim=2, pos_dim=1, max_offset=1),
                    EncoderConfig(kind="boe"))
    if defect in _PARAM_DEFECTS:
        _PARAM_DEFECTS[defect](model.params)
    path = str(tmp_path / "model.rpck")
    save_checkpoint(model, path)
    raw = open(path, "rb").read()
    blob = json.dumps(model.config_blob(), sort_keys=True).encode()
    assert raw.endswith(blob)
    expected = _CHECKPOINT_ERRORS.get(defect)
    if defect == "truncated":
        raw = raw[:len(raw) // 2]
    elif defect == "duplicate":  # a second word_emb, of 7.0, after the last parameter
        (count,) = struct.unpack_from("<I", raw, 8)
        record = (struct.pack("<I", 8) + b"word_emb" + struct.pack("<IQQ", 2, 3, 2)
                  + np.full((3, 2), 7.0, dtype="<f4").tobytes())
        expected %= len(raw) - len(blob)
        raw = raw[:8] + struct.pack("<I", count + 1) + raw[12:-len(blob)] + record + blob
    elif defect in _BLOB_DEFECTS:
        raw = raw[:-len(blob)] + json.dumps(_BLOB_DEFECTS[defect](json.loads(blob))).encode()
    with open(path, "wb") as f:
        f.write(raw)
    code, _, err = run(capsys, "extract", "--corpus", corpus_dir, "--checkpoint", path,
                       "--out", str(tmp_path / "r.repr"))
    assert code == 1
    assert len(err.splitlines()) == 1
    assert err.startswith("error: %s: " % path)
    if defect in _BLOB_DEFECTS:
        assert err.startswith("error: %s: bad config blob: " % path)
    if expected is not None:
        assert err == "error: %s: %s\n" % (path, expected)
    assert "Traceback" not in err


def test_suite_smoke_and_determinism(capsys, tmp_path, corpus_dir):
    out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    results = []
    for out in (out1, out2):
        cfg = tmp_path / ("cfg-%s.cfg" % os.path.basename(out))
        cfg.write_text("corpus = %s\ntasks = SentLen,ArgOrd\n"
                       "sources = length,argdist\ngrid = 0,0.01\n"
                       "out = %s\n" % (corpus_dir, out))
        code, stdout, _ = run(capsys, "suite", "--config", str(cfg))
        assert code == 0
        results.append(open(os.path.join(out, "suite.csv"), "rb").read())
        assert os.path.exists(os.path.join(out, "suite.txt"))
    assert results[0] == results[1]
    header = results[0].decode().splitlines()[0]
    assert header == "source,SentLen,ArgOrd"


# sha256 of suite.csv for every task, the three baselines and the default
# seven-value l2 grid on corpus_dir, as written before probe fits were stacked
FULL_GRID_SUITE_SHA256 = "8abf95e073c95a048791374191807196b22cf9a0ffbc0dee9fcac1e103b2c098"


@pytest.mark.parametrize("jobs", (1, 2))
def test_full_grid_suite_csv_is_pinned(capsys, tmp_path, corpus_dir, jobs):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("corpus = %s\nsources = length,argdist,boe\nout = %s\n"
                   % (corpus_dir, tmp_path / "s"))
    code, _, err = run(capsys, "suite", "--config", str(cfg), "--jobs", str(jobs))
    assert code == 0, err
    with open(tmp_path / "s" / "suite.csv", "rb") as f:
        assert hashlib.sha256(f.read()).hexdigest() == FULL_GRID_SUITE_SHA256


def test_suite_without_boe_reads_no_embeddings(capsys, tmp_path, corpus_dir):
    out = str(tmp_path / "s")
    cfg = tmp_path / "s.cfg"
    cfg.write_text("corpus = %s\ntasks = SentLen\nsources = length\ngrid = 0\n"
                   "embeddings = %s\nout = %s\n"
                   % (corpus_dir, str(tmp_path / "missing.txt"), out))
    code, _, err = run(capsys, "suite", "--config", str(cfg))
    assert code == 0, err
    assert os.path.exists(os.path.join(out, "suite.csv"))


def test_suite_unknown_source(capsys, tmp_path, corpus_dir):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("corpus = %s\nsources = pca\nout = %s\n"
                   % (corpus_dir, str(tmp_path / "o")))
    code, _, err = run(capsys, "suite", "--config", str(cfg))
    assert code == 2
    assert "unknown source" in err


def test_report_is_deterministic(capsys, tmp_path):
    p = tmp_path / "table.csv"
    p.write_text("source,SentLen\nlength,1.0000\nboe,0.4000\n")
    code1, out1, _ = run(capsys, "report", "--csv", str(p))
    code2, out2, _ = run(capsys, "report", "--csv", str(p))
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.splitlines()[0].split() == ["source", "SentLen"]


@pytest.mark.parametrize("text,problem", (
    ("", ": no header row"), ("\n  \n", ": no header row"),
    ("a,b\n1\n", ":2: expected 2 fields like the header, got 1"),
    ("a,b\n\n1,2\n3,4,5\n", ":4: expected 2 fields like the header, got 3")))
def test_report_bad_csv_names_the_line(capsys, tmp_path, text, problem):
    p = tmp_path / "bad.csv"
    p.write_text(text)
    code, out, err = run(capsys, "report", "--csv", str(p))
    assert (code, out, err) == (1, "", "error: %s%s\n" % (p, problem))


def test_gradcheck_command(capsys):
    code, out, _ = run(capsys, "gradcheck")
    assert code == 0
    assert "max relative error" in out
    assert "FAIL" not in out
    results = out.splitlines()[:-1]
    width = max(len(line.split()[0]) for line in results)
    # every error column starts right after the longest name and one space
    assert all(line[width] == " " and line[width + 1] != " " for line in results)


def test_seed_env_override(monkeypatch):
    monkeypatch.setenv("RELPROBE_SEED", "99")
    assert cli._seed_from({"seed": 3}) == 99
    monkeypatch.delenv("RELPROBE_SEED")
    assert cli._seed_from({"seed": 3}) == 3
    assert cli._seed_from({}) == 0


def test_order_controlled_synth(capsys, tmp_path):
    d = str(tmp_path / "oc")
    code, out, _ = run(capsys, "synth", "--out", d, "--templates",
                       "order-controlled", "--n-train", "5", "--n-val", "2",
                       "--n-test", "2", "--seed", "1")
    assert code == 0
    lines = open(os.path.join(d, "train.jsonl")).read().strip().splitlines()
    assert len(lines) == 10
    rec = json.loads(lines[0])
    assert rec["id"].endswith("-f")
