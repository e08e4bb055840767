import collections
import dataclasses
import json
import math
import re
import struct

import numpy as np
import pytest

from relprobe import autodiff as ad
from relprobe import encoders, synth
from relprobe.encoders import EncoderConfig, InputConfig, REModel, Vocab
from relprobe.optim import EpochDecay, make_optimizer
from relprobe.training import (HyperProfile, desk_encoder_config,
                               desk_input_config, load_checkpoint,
                               macro_f1_directional, micro_f1, presets,
                               save_checkpoint, train_re)


# ------------------------------------------------------------------ micro

NEG = "no_relation"


def test_micro_f1_hand_fixture():
    golds = ["A", "A", NEG, "B"]
    preds = ["A", NEG, NEG, "A"]
    p, r, f1 = micro_f1(preds, golds, NEG)
    assert p == pytest.approx(0.5, abs=1e-12)
    assert r == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert f1 == pytest.approx(0.4, abs=1e-12)


def test_micro_f1_perfect():
    golds = ["A", "B", NEG]
    assert micro_f1(golds, golds, NEG) == (1.0, 1.0, 1.0)


def test_micro_f1_all_negative_predictions():
    assert micro_f1([NEG, NEG], ["A", NEG], NEG) == (0.0, 0.0, 0.0)


def test_micro_f1_negative_correct_does_not_count():
    # one real TP plus many correct negatives: still P = R = 1
    golds = ["A", NEG, NEG, NEG]
    preds = ["A", NEG, NEG, NEG]
    assert micro_f1(preds, golds, NEG) == (1.0, 1.0, 1.0)


def test_micro_f1_length_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        micro_f1(["A"], ["A", "B"], NEG)


# ------------------------------------------------------------------ macro

def test_macro_f1_twelve_example_fixture():
    """Both types have 4 gold, 4 predicted and 2 directed TPs, so each
    per-type F1 is exactly 0.5 and so is the macro average."""
    a, b, o = "A(e1,e2)", "B(e1,e2)", "Other"
    golds = [a, a, a, a, b, b, b, b, o, o, o, o]
    preds = [a, a, b, o, b, b, a, o, a, b, o, o]
    assert macro_f1_directional(preds, golds, "Other") == pytest.approx(0.5, abs=1e-12)


def test_macro_f1_direction_must_match():
    golds = ["A(e1,e2)", "A(e1,e2)"]
    preds = ["A(e2,e1)", "A(e1,e2)"]
    # pooled over directions: tp=1, pred_A=2, gold_A=2 -> F1 = 0.5
    assert macro_f1_directional(preds, golds, "Other") == pytest.approx(0.5, abs=1e-12)


def test_macro_f1_other_excluded():
    golds = ["A(e1,e2)", "Other", "Other"]
    preds = ["A(e1,e2)", "Other", "Other"]
    assert macro_f1_directional(preds, golds, "Other") == pytest.approx(1.0)


def test_macro_f1_requires_positive_type():
    with pytest.raises(ValueError):
        macro_f1_directional(["Other"], ["Other"], "Other")


# ---------------------------------------------------------------- presets

def test_presets_cover_both_corpora():
    p = presets()
    for kind in ("cnn", "bilstm", "gcn", "attn"):
        assert "tacred-%s" % kind in p
        assert "semeval-%s" % kind in p
    prof, enc = p["tacred-cnn"]
    assert prof.optimizer == "adagrad" and prof.lr == 0.1
    assert enc.cnn_filters == 500 and enc.cnn_sizes == (2, 3, 4, 5)
    assert p["semeval-cnn"][1].cnn_filters == 150
    assert p["tacred-bilstm"][1].lstm_hidden == 500
    assert p["semeval-bilstm"][1].lstm_hidden == 300
    assert p["tacred-attn"][0].lr == 1e-4
    # the values PAPER.md states
    assert (prof.epochs, prof.schedule, prof.l2_groups) == (50, EpochDecay(0.9, 15),
                                                             (("cnn_w*", 1e-3),))
    assert (enc.cnn_activation, enc.encoder_dropout) == ("tanh", 0.5)
    assert (p["semeval-cnn"][0].optimizer, p["semeval-cnn"][0].lr) == ("adadelta", 1.0)
    for name, (prof, _) in p.items():
        corpus = name.split("-")[0]
        if corpus != "desk":
            assert (prof.batch_size, prof.pos_dim) == {"tacred": (50, 30),
                                                       "semeval": (30, 50)}[corpus], name


def test_desk_encoder_configs():
    for kind in ("cnn", "bilstm", "gcn", "attn", "boe"):
        cfg = desk_encoder_config(kind)
        assert cfg.kind == kind
    with pytest.raises(ValueError):
        desk_encoder_config("rnn")


# --------------------------------------------------------------- training

@pytest.fixture(scope="module")
def tiny_corpus():
    cfg = synth.SynthConfig(n_train=24, n_val=8, n_test=8,
                            templates=synth.default_templates(),
                            lexicons=synth.default_lexicons(), seed=2, pad_max=0)
    return synth.generate(cfg)


def _profile(**kw):
    base = dict(name="t", optimizer="adam", lr=1e-2, epochs=5, batch_size=8)
    base.update(kw)
    return HyperProfile(**base)


def _train(corpus, **kw):
    return train_re(corpus, desk_input_config(), EncoderConfig(kind="boe"),
                    _profile(), **kw)


def test_train_loss_decreases(tiny_corpus):
    _, history = _train(tiny_corpus, seed=0)
    losses = [row["loss"] for row in history.epochs]
    assert losses[-1] < losses[0]


def test_train_is_deterministic(tiny_corpus):
    m1, h1 = _train(tiny_corpus, seed=3)
    m2, h2 = _train(tiny_corpus, seed=3)
    assert h1.epochs == h2.epochs
    for name in m1.params:
        np.testing.assert_array_equal(m1.params[name].data, m2.params[name].data)


def test_train_seed_changes_run(tiny_corpus):
    _, h1 = _train(tiny_corpus, seed=3)
    _, h2 = _train(tiny_corpus, seed=4)
    assert h1.epochs != h2.epochs


def test_best_epoch_params_restored(tiny_corpus):
    from relprobe.training import _evaluate
    model, history = _train(tiny_corpus, seed=0)
    val = tiny_corpus.validation
    _, _, f1 = _evaluate(model, [model.featurize(s) for s in val], [s.relation for s in val])
    assert f1 == pytest.approx(history.best_f1())


def test_early_stop(tiny_corpus):
    _, history = _train(tiny_corpus, seed=0, early_stop_f1=0.0)
    assert len(history.epochs) == 1


def test_history_csv_and_epoch_decay_lr(tiny_corpus):
    prof = _profile(optimizer="sgd", lr=1.0, schedule=EpochDecay(0.5, 2), epochs=4)
    _, history = train_re(tiny_corpus, desk_input_config(), EncoderConfig(kind="boe"), prof)
    csv = history.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "epoch,loss,val_p,val_r,val_f1,lr"
    assert len(lines) == 5
    lrs = [row["lr"] for row in history.epochs]
    np.testing.assert_allclose(lrs, [1.0, 0.5, 0.25, 0.125])


def test_masked_training_vocab_hides_mentions(tiny_corpus):
    model, _ = train_re(tiny_corpus, desk_input_config(masking=True),
                        EncoderConfig(kind="boe"), _profile(epochs=1))
    assert any(t.startswith("SUBJ-") for t in model.vocab.itos)
    from relprobe.corpus import masked_tokens
    expected = {t for tokens in masked_tokens(tiny_corpus.train) for t in tokens}
    assert set(model.vocab.itos) - {"<PAD>", "<UNK>"} == expected


def test_empty_training_split_is_rejected(tiny_corpus):
    empty = dataclasses.replace(tiny_corpus, train=())
    with pytest.raises(ValueError, match="no training sentences"):
        train_re(empty, desk_input_config(), EncoderConfig(kind="boe"), _profile())


@pytest.mark.parametrize("preset, kind", (("tacred-gcn", "gcn"), ("tacred-cnn", "boe")))
def test_row_sparse_training_equals_dense_training_bytewise(tiny_corpus, preset, kind,
                                                           monkeypatch):
    # SGD (tacred-gcn) and Adagrad (tacred-cnn, the paper boe run's profile):
    # a batch of 4 sentences gathers fewer ids than the vocabulary has rows
    profile = dataclasses.replace(presets()[preset][0], epochs=3, batch_size=4)
    input_cfg = desk_input_config(masking=True)
    enc_cfg = desk_encoder_config(kind)
    cls = type(make_optimizer(profile.optimizer, profile.lr))
    update_rows = cls._update_rows
    row_steps = []
    monkeypatch.setattr(cls, "_update_rows", lambda self, name, *args: (
        row_steps.append(name), update_rows(self, name, *args)))
    sparse, sparse_history = train_re(tiny_corpus, input_cfg, enc_cfg, profile, seed=3)
    assert "word_emb" in row_steps
    row_steps.clear()
    monkeypatch.setattr(ad, "_ROWS_PER_ID", math.inf)
    dense, dense_history = train_re(tiny_corpus, input_cfg, enc_cfg, profile, seed=3)
    assert row_steps == []
    assert sparse_history.epochs == dense_history.epochs
    assert sparse.params.keys() == dense.params.keys()
    for name, p in dense.params.items():
        assert sparse.params[name].data.tobytes() == p.data.tobytes(), name


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises(tiny_corpus):
    prof = _profile(optimizer="sgd", lr=1e30, epochs=10)
    with pytest.raises(RuntimeError, match="divergence"):
        train_re(tiny_corpus, desk_input_config(), EncoderConfig(kind="boe"), prof)


# ------------------------------------------------------------- checkpoints

def test_checkpoint_roundtrip_bit_exact(tiny_corpus, tmp_path):
    model, _ = _train(tiny_corpus, seed=1)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.labels == model.labels
    assert loaded.vocab.itos == model.vocab.itos
    assert loaded.input_cfg == model.input_cfg
    assert loaded.enc_cfg == model.enc_cfg
    for name in model.params:
        np.testing.assert_array_equal(loaded.params[name].data, model.params[name].data)
    for s in tiny_corpus.test[:5]:
        np.testing.assert_array_equal(loaded.logits(loaded.featurize(s)).data,
                                      model.logits(model.featurize(s)).data)


def test_checkpoint_bad_magic(tmp_path):
    path = str(tmp_path / "bad.ckpt")
    with open(path, "wb") as f:
        f.write(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_cnn_roundtrip(tiny_corpus, tmp_path):
    model, _ = train_re(tiny_corpus, desk_input_config(), desk_encoder_config("cnn"),
                        _profile(epochs=1))
    path = str(tmp_path / "cnn.ckpt")
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    s = tiny_corpus.test[0]
    np.testing.assert_array_equal(loaded.logits(loaded.featurize(s)).data,
                                  model.logits(model.featurize(s)).data)


def _tiny_model():
    return REModel(Vocab(["a", "b"]), ("x", "y"), InputConfig(word_dim=2, pos_dim=1, max_offset=1),
                   desk_encoder_config("boe"))


def test_checkpoint_loads_writable_byte_equal_arrays(tmp_path):
    model = _tiny_model()
    path = str(tmp_path / "model.rpck")
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.params.keys() == model.params.keys()
    for name, p in model.params.items():
        data = loaded.params[name].data
        assert data.dtype == p.data.dtype and data.tobytes() == p.data.tobytes()
        assert data.flags.writeable
        assert data.base is None  # owns its memory: no view of the bytes read
        data += 1.0


def _redrawing_load(path):
    """The loader before the parameter table: it built the model, drawing
    every initial parameter, and then overwrote each with the file's array."""
    raw = open(path, "rb").read()
    (count,), pos, arrays = struct.unpack_from("<I", raw, 8), 12, {}
    for _ in range(count):
        (n,) = struct.unpack_from("<I", raw, pos)
        name = raw[pos + 4:pos + 4 + n].decode()
        (rank,) = struct.unpack_from("<I", raw, pos + 4 + n)
        dims = struct.unpack_from("<%dQ" % rank, raw, pos + 8 + n)
        pos += 8 + n + 8 * rank
        arrays[name] = np.frombuffer(raw, "<f4", int(np.prod(dims)), pos).reshape(dims)
        pos += arrays[name].nbytes
    blob = json.loads(raw[pos:])
    cfgs = [{k: tuple(v) if isinstance(v, list) else v for k, v in blob[key].items()}
            for key in ("input_cfg", "encoder_cfg")]
    model = REModel(Vocab.from_itos(blob["vocab"]), blob["labels"], InputConfig(**cfgs[0]),
                    EncoderConfig(**cfgs[1]), seed=blob["seed"],
                    negative_label=blob["negative_label"])
    for name, data in arrays.items():
        model.params[name].data = data.astype(ad.current_dtype())
    return model


@pytest.mark.parametrize("dtype", (np.float64, np.float32))
@pytest.mark.parametrize("pos_dim", (0, 8))
@pytest.mark.parametrize("kind", ("cnn", "bilstm", "gcn", "attn", "boe"))
def test_checkpoint_loads_as_the_redrawing_loader_did(tmp_path, kind, pos_dim, dtype):
    with ad.use_dtype(dtype):
        model = REModel(Vocab(["a", "b", "c"]), ("x", "y", "z"), desk_input_config(pos_dim=pos_dim),
                        desk_encoder_config(kind), seed=9, negative_label="x")
        for p in model.params.values():  # trained-looking values, not the initial ones
            p.data += np.random.default_rng(1).normal(size=p.data.shape)
        path = str(tmp_path / "model.rpck")
        save_checkpoint(model, path)
        loaded, reference = load_checkpoint(path), _redrawing_load(path)
    assert list(loaded.params) == list(reference.params) == [n for n, _ in loaded.param_shapes()]
    for name, p in reference.params.items():
        data = loaded.params[name].data
        assert data.dtype == p.data.dtype == dtype and data.tobytes() == p.data.tobytes()
        assert data.flags.writeable and data.flags.owndata
    assert loaded.rng.bit_generator.state == reference.rng.bit_generator.state
    assert loaded.config_blob() == reference.config_blob()


def test_load_checkpoint_draws_nothing(tmp_path, monkeypatch):
    path = str(tmp_path / "model.rpck")
    save_checkpoint(REModel(Vocab(["a"]), ("x", "y"), desk_input_config(),
                            desk_encoder_config("cnn")), path)
    calls = collections.Counter()

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(encoders, "_glorot", counted("_glorot", encoders._glorot))
    monkeypatch.setattr(REModel, "_init_params", counted("_init_params", REModel._init_params))
    load_checkpoint(path)
    assert calls == {}
    REModel(Vocab(["a"]), ("x", "y"), desk_input_config(), desk_encoder_config("cnn"))
    assert calls == {"_init_params": 1, "_glorot": 3}  # cnn_w2, cnn_w3, cls_w


def test_checkpoint_truncated_at_any_offset_is_value_error(tmp_path):
    full = str(tmp_path / "full.rpck")
    save_checkpoint(_tiny_model(), full)
    raw = open(full, "rb").read()
    cut = str(tmp_path / "cut.rpck")
    for n in range(len(raw)):
        with open(cut, "wb") as f:
            f.write(raw[:n])
        with pytest.raises(ValueError, match=re.escape(cut)):
            load_checkpoint(cut)


def test_checkpoint_bad_utf8_name_names_path_and_offset(tmp_path):
    p = str(tmp_path / "bad.rpck")
    save_checkpoint(_tiny_model(), p)
    raw = bytearray(open(p, "rb").read())
    raw[16] = 0xFF  # first name byte, after magic, version, count and the name length
    open(p, "wb").write(bytes(raw))
    with pytest.raises(ValueError, match=re.escape("%s: bad UTF-8 at byte offset 16" % p)):
        load_checkpoint(p)


def test_checkpoint_non_finite_parameter_is_rejected(tmp_path):
    model = _tiny_model()
    model.params["pos_head_emb"].data[1, 0] = np.nan
    path = str(tmp_path / "nan.rpck")
    save_checkpoint(model, path)
    with pytest.raises(ValueError, match=re.escape(
            "%s: non-finite value in parameter pos_head_emb" % path)):
        load_checkpoint(path)


def test_checkpoint_missing_parameter_is_rejected(tmp_path):
    model = _tiny_model()
    del model.params["pos_tail_emb"]
    path = str(tmp_path / "partial.rpck")
    save_checkpoint(model, path)
    with pytest.raises(ValueError, match="lacks parameters pos_tail_emb"):
        load_checkpoint(path)
