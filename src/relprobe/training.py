"""RE training loop, hyperparameter presets, evaluation metrics, checkpoints."""

from __future__ import annotations

import json
import operator
import struct
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import deptree
from .corpus import ExactReader, write_text
from .encoders import EncoderConfig, InputConfig, REModel, Vocab, eval_chunks
from .optim import EpochDecay, Plateau, Scheduler, make_optimizer


@dataclass(frozen=True)
class HyperProfile:
    name: str
    optimizer: str
    lr: float
    epochs: int
    batch_size: int
    schedule: object = None  # Plateau | EpochDecay | None
    l2_groups: tuple = ()    # ((param-name pattern, coefficient), ...)
    word_dropout: float = 0.0
    embedding_dropout: float = 0.0
    pos_dim: int = 30


def presets():
    """Named profiles paired with their encoder configurations."""
    out = {}
    out["tacred-cnn"] = (
        HyperProfile("tacred-cnn", "adagrad", 0.1, 50, 50,
                     schedule=EpochDecay(0.9, 15),
                     l2_groups=(("cnn_w*", 1e-3),)),
        EncoderConfig(kind="cnn", cnn_filters=500, cnn_sizes=(2, 3, 4, 5),
                      cnn_activation="tanh", encoder_dropout=0.5),
    )
    out["semeval-cnn"] = (
        HyperProfile("semeval-cnn", "adadelta", 1.0, 50, 30,
                     l2_groups=(("cnn_w*", 1e-5),),
                     word_dropout=0.04, embedding_dropout=0.5, pos_dim=50),
        EncoderConfig(kind="cnn", cnn_filters=150, cnn_sizes=(2, 3, 4, 5),
                      cnn_activation="tanh", encoder_dropout=0.5),
    )
    out["tacred-bilstm"] = (
        HyperProfile("tacred-bilstm", "adagrad", 0.01, 30, 50,
                     schedule=EpochDecay(0.9, 15), word_dropout=0.04),
        EncoderConfig(kind="bilstm", lstm_layers=2, lstm_hidden=500,
                      recurrent_dropout=0.5),
    )
    out["semeval-bilstm"] = (
        HyperProfile("semeval-bilstm", "adagrad", 0.01, 30, 30,
                     schedule=EpochDecay(0.9, 15), word_dropout=0.04,
                     embedding_dropout=0.5, pos_dim=50),
        EncoderConfig(kind="bilstm", lstm_layers=2, lstm_hidden=300,
                      recurrent_dropout=0.5, encoder_dropout=0.5),
    )
    out["tacred-gcn"] = (
        HyperProfile("tacred-gcn", "sgd", 0.3, 50, 50,
                     schedule=Plateau(0.9), word_dropout=0.04, embedding_dropout=0.5),
        EncoderConfig(kind="gcn", gcn_layers=2, gcn_dim=200, gcn_ff_layers=2,
                      gcn_prune_k=1, gcn_dropout=0.5, encoder_dropout=0.5),
    )
    out["semeval-gcn"] = (
        HyperProfile("semeval-gcn", "sgd", 0.3, 50, 30,
                     schedule=Plateau(0.9), word_dropout=0.04,
                     embedding_dropout=0.5, pos_dim=50),
        EncoderConfig(kind="gcn", gcn_layers=1, gcn_dim=200, gcn_ff_layers=2,
                      gcn_prune_k=1, gcn_dropout=0.5, encoder_dropout=0.5),
    )
    out["tacred-attn"] = (
        HyperProfile("tacred-attn", "adam", 1e-4, 50, 50,
                     schedule=Plateau(0.9), word_dropout=0.04, embedding_dropout=0.5),
        EncoderConfig(kind="attn", attn_layers=8, attn_heads=8, attn_kv_dim=256,
                      attn_ff_dim=512, attn_model_dim=256, attn_dropout=0.1,
                      encoder_dropout=0.5),
    )
    out["semeval-attn"] = (
        HyperProfile("semeval-attn", "adam", 1e-4, 50, 30,
                     schedule=Plateau(0.9), word_dropout=0.04,
                     embedding_dropout=0.5, pos_dim=50),
        EncoderConfig(kind="attn", attn_layers=8, attn_heads=8, attn_kv_dim=256,
                      attn_ff_dim=512, attn_model_dim=256, attn_dropout=0.1,
                      encoder_dropout=0.5),
    )
    out["desk-small"] = (
        HyperProfile("desk-small", "adam", 1e-2, 200, 16, pos_dim=8),
        None,  # encoder config chosen by kind via desk_encoder_config()
    )
    return out


def desk_encoder_config(kind):
    """Small encoder dims for laptop-scale experiments."""
    if kind == "cnn":
        return EncoderConfig(kind="cnn", cnn_filters=32, cnn_sizes=(2, 3),
                             cnn_activation="tanh")
    if kind == "bilstm":
        return EncoderConfig(kind="bilstm", lstm_layers=1, lstm_hidden=32)
    if kind == "gcn":
        return EncoderConfig(kind="gcn", gcn_layers=2, gcn_dim=32, gcn_ff_layers=1,
                             gcn_prune_k=1)
    if kind == "attn":
        return EncoderConfig(kind="attn", attn_layers=2, attn_heads=2, attn_kv_dim=32,
                             attn_ff_dim=64, attn_model_dim=32, attn_dropout=0.0)
    if kind == "boe":
        return EncoderConfig(kind="boe")
    raise ValueError("unknown encoder kind: %s" % kind)


def desk_input_config(**overrides):
    base = dict(word_dim=32, pos_dim=8, max_offset=10)
    base.update(overrides)
    return InputConfig(**base)


# ------------------------------------------------------------------ metrics

def micro_f1(preds, golds, negative_label):
    """TACRED-convention micro P/R/F1 with the negative class excluded."""
    if len(preds) != len(golds):
        raise ValueError("length mismatch: %d preds vs %d golds" % (len(preds), len(golds)))
    tp = sum(1 for p, g in zip(preds, golds) if p == g and p != negative_label)
    pred_pos = sum(1 for p in preds if p != negative_label)
    gold_pos = sum(1 for g in golds if g != negative_label)
    p = tp / pred_pos if pred_pos else 0.0
    r = tp / gold_pos if gold_pos else 0.0
    f1 = 2 * p * r / (p + r) if (p + r) else 0.0
    return p, r, f1


def _undirected_type(label):
    return label.split("(", 1)[0]


def macro_f1_directional(preds, golds, negative_label="Other"):
    """SemEval-convention macro F1: per undirected type, pooled over both
    directions, TP requiring an exact directed match; Other excluded."""
    if len(preds) != len(golds):
        raise ValueError("length mismatch")
    known = set(golds) | set(preds)
    types = sorted({_undirected_type(l) for l in known} - {negative_label})
    if not types:
        raise ValueError("no relation types besides the negative label")
    f1s = []
    for t in types:
        tp = sum(1 for p, g in zip(preds, golds)
                 if p == g and _undirected_type(g) == t)
        pred_t = sum(1 for p in preds if _undirected_type(p) == t)
        gold_t = sum(1 for g in golds if _undirected_type(g) == t)
        p = tp / pred_t if pred_t else 0.0
        r = tp / gold_t if gold_t else 0.0
        f1s.append(2 * p * r / (p + r) if (p + r) else 0.0)
    return sum(f1s) / len(f1s)


# ----------------------------------------------------------------- training

@dataclass
class TrainHistory:
    epochs: list = field(default_factory=list)  # dicts: epoch, loss, p, r, f1, lr

    def to_csv(self):
        lines = ["epoch,loss,val_p,val_r,val_f1,lr"]
        for row in self.epochs:
            lines.append("%d,%.6f,%.6f,%.6f,%.6f,%.8f"
                         % (row["epoch"], row["loss"], row["p"], row["r"],
                            row["f1"], row["lr"]))
        return "\n".join(lines) + "\n"

    def best_f1(self):
        return max((r["f1"] for r in self.epochs), default=0.0)


def _evaluate(model, batches, golds):
    """Micro P/R/F1 of the model's predictions over packed Features batches."""
    with ad.no_tape():
        preds = [model.labels[i] for f in batches
                 for i in np.argmax(model.logits(f).data, axis=1)]
    return micro_f1(preds, golds, model.negative_label)


def train_re(corpus, input_cfg, enc_cfg, profile: HyperProfile, seed=0,
             contextual=None, embeddings=None, log=None, early_stop_f1=None):
    """Train an RE model; returns (model-with-best-val-params, history).

    The training sentences are featurized once per call into one packed
    record. Each shuffled minibatch is taken from it and runs as one packed
    forward pass, one mean cross-entropy and one backward pass. Validation
    runs chunks of EVAL_BATCH sentences (eval_chunks) of the validation
    split, featurized once, or of the training record when the corpus has
    none. The checkpointed parameters are those of the best validation-F1
    epoch.
    """
    train_sentences = deptree.packed(corpus.train)  # its facts serve masking and featurizing
    if not train_sentences:
        raise ValueError("the corpus has no training sentences")
    token_lists = input_cfg.tokens(train_sentences)
    vocab = Vocab.from_tokens(token_lists)
    model = REModel(vocab, corpus.label_inventory, input_cfg, enc_cfg, seed=seed,
                    embeddings=embeddings, negative_label=corpus.negative_label)
    opt = make_optimizer(profile.optimizer, profile.lr, l2_groups=profile.l2_groups)
    sched = Scheduler(profile.schedule, profile.lr) if profile.schedule else None
    ctx = contextual or {}
    train = model._featurize_tokens(train_sentences, [ctx.get(s.id) for s in train_sentences],
                                    token_lists)  # masks each sentence once
    labels = np.array([model.label_index[s.relation] for s in train_sentences], dtype=np.int64)
    n = len(train_sentences)
    val = corpus.validation
    val_features = model.featurize_batch(val, [ctx.get(s.id) for s in val]) if val else train
    val_batches = eval_chunks(val_features, len(val or train_sentences))
    val_golds = [s.relation for s in val or train_sentences]
    order_rng = np.random.default_rng(seed)
    model.rng = np.random.default_rng(seed + 1)  # dropout stream
    history = TrainHistory()
    best_f1, best_params = -1.0, None
    for epoch in range(1, profile.epochs + 1):
        if sched:
            opt.lr = sched.start_epoch(epoch)
        perm = order_rng.permutation(n)
        epoch_loss, n_batches = 0.0, 0
        for start in range(0, len(perm), profile.batch_size):
            batch = perm[start:start + profile.batch_size]
            model.zero_grads()
            loss = ad.cross_entropy_logits(model.logits(train.take(batch), train=True),
                                           labels[batch])
            if not np.isfinite(loss.data):
                raise RuntimeError("divergence (non-finite loss) at epoch %d" % epoch)
            loss.backward()
            opt.step(model.params)
            epoch_loss += loss.item()
            n_batches += 1
        p, r, f1 = _evaluate(model, val_batches, val_golds)
        if sched:
            opt.lr = sched.end_epoch(f1)
        history.epochs.append({"epoch": epoch, "loss": epoch_loss / max(n_batches, 1),
                               "p": p, "r": r, "f1": f1, "lr": opt.lr})
        if f1 > best_f1:
            best_f1 = f1
            best_params = {k: t.data.copy() for k, t in model.params.items()}
        if log:
            log("epoch %3d loss %.4f val_f1 %.4f lr %.6f" %
                (epoch, history.epochs[-1]["loss"], f1, opt.lr))
        if early_stop_f1 is not None and f1 >= early_stop_f1:
            break
    if best_params is not None:
        for k, t in model.params.items():
            t.data = best_params[k]
    return model, history


# -------------------------------------------------------------- checkpoints

CKPT_MAGIC = b"RPCK"


def save_checkpoint(model: REModel, path):
    """RPCK binary: params (name, dims, float32 LE data) + JSON config blob."""
    with open(path, "wb") as f:
        f.write(CKPT_MAGIC)
        f.write(struct.pack("<I", 1))
        f.write(struct.pack("<I", len(model.params)))
        for name, t in model.params.items():
            write_text(f, name)
            data = np.asarray(t.data, dtype="<f4")
            f.write(struct.pack("<I", data.ndim))
            for dim in data.shape:
                f.write(struct.pack("<Q", dim))
            f.write(data.tobytes())
        f.write(json.dumps(model.config_blob(), sort_keys=True).encode("utf-8"))


def load_checkpoint(path) -> REModel:
    """Model from an RPCK file, its arrays checked against the configs'
    parameter table and taken with no draw; ValueError on a malformed or
    incomplete file, a repeated, unknown or misshapen parameter, a config blob
    that builds no configs, vocab or labels, and a NaN or infinite value."""
    with open(path, "rb") as f:
        r = ExactReader(f, path)
        r.header(CKPT_MAGIC, 1)
        (count,) = r.unpack("<I")
        tensors = {}
        for _ in range(count):
            offset = f.tell()
            name = r.text()
            if name in tensors:
                raise ValueError("%s: duplicate parameter %s at byte offset %d"
                                 % (path, name, offset))
            (rank,) = r.unpack("<I")
            dims = r.unpack("<%dQ" % rank)
            n_values = int(np.prod(dims)) if rank else 1
            data = np.frombuffer(r.read(4 * n_values), dtype="<f4").reshape(dims)
            if not np.isfinite(data).all():
                raise ValueError("%s: non-finite value in parameter %s" % (path, name))
            tensors[name] = data.astype(ad.current_dtype())  # a copy: data views the read buffer
        offset = f.tell()
        try:
            blob = json.loads(f.read().decode("utf-8"))
        except ValueError as e:  # JSONDecodeError and UnicodeDecodeError
            raise ValueError("%s: bad config blob at byte offset %d: %s"
                             % (path, offset, e)) from None
    try:
        input_cfg = InputConfig(**{k: tuple(v) if isinstance(v, list) else v
                                   for k, v in blob["input_cfg"].items()})
        enc_cfg = EncoderConfig(**{k: tuple(v) if isinstance(v, list) else v
                                   for k, v in blob["encoder_cfg"].items()})
        vocab = Vocab.from_itos(blob["vocab"])
        model = REModel(vocab, blob["labels"], input_cfg, enc_cfg, seed=blob.get("seed", 0),
                        negative_label=blob.get("negative_label"), params=tensors)
        shapes = {name: tuple(map(operator.index, shape)) for name, shape in model.param_shapes()}
    except KeyError as e:
        raise ValueError("%s: bad config blob: missing key %s" % (path, e)) from None
    except (AttributeError, TypeError, ValueError) as e:
        raise ValueError("%s: bad config blob: %s" % (path, e)) from None
    for name, data in tensors.items():
        if name not in shapes:
            raise ValueError("%s: checkpoint parameter %s not in model" % (path, name))
        if data.shape != shapes[name]:
            raise ValueError("%s: shape mismatch for %s: %s in the file, %s by the config"
                             % (path, name, data.shape, shapes[name]))
    missing = sorted(set(shapes) - set(tensors))
    if missing:
        raise ValueError("%s: checkpoint lacks parameters %s" % (path, ", ".join(missing)))
    return model
