import json
import os
import struct

import pytest

from relprobe import cli
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


def test_extract_requires_source(capsys, corpus_dir, tmp_path):
    code, _, err = run(capsys, "extract", "--corpus", corpus_dir,
                       "--out", str(tmp_path / "r.repr"))
    assert code == 2
    assert "checkpoint" in err


@pytest.mark.parametrize("defect", ("truncated", "incomplete"))
def test_extract_bad_checkpoint_fails_cleanly(capsys, corpus_dir, tmp_path, defect):
    model = REModel(Vocab(["a"]), ("x", "y"), InputConfig(word_dim=2, pos_dim=1, max_offset=1),
                    EncoderConfig(kind="boe"))
    if defect == "incomplete":
        del model.params["cls_b"]
    path = str(tmp_path / "model.rpck")
    save_checkpoint(model, path)
    if defect == "truncated":
        raw = open(path, "rb").read()
        with open(path, "wb") as f:
            f.write(raw[:len(raw) // 2])
    code, _, err = run(capsys, "extract", "--corpus", corpus_dir, "--checkpoint", path,
                       "--out", str(tmp_path / "r.repr"))
    assert code == 1
    assert err.startswith("error: %s: " % path)
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


def test_gradcheck_command(capsys):
    code, out, _ = run(capsys, "gradcheck")
    assert code == 0
    assert "max relative error" in out
    assert "FAIL" not in out


def test_seed_env_override(monkeypatch):
    monkeypatch.setenv("RELPROBE_SEED", "99")
    assert cli._seed_from({"seed": "3"}) == 99
    monkeypatch.delenv("RELPROBE_SEED")
    assert cli._seed_from({"seed": "3"}) == 3
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
