"""The per-draw synthetic-corpus generator and the per-record JSONL writer
that relprobe.synth and relprobe.corpus.write_corpus replaced.

generate and generate_order_controlled call Generator.integers once per
draw and match each template token against a slot pattern for every
sentence; write_corpus formats each record with json.dumps of its dict.
They are the oracles the table-driven generator and the cached-fragment
writer are tested against, byte for byte.

As a script it writes the corpus `relprobe synth` would write:

    PYTHONPATH=src:tests python tests/reference_synth.py OUT N_TRAIN N_VAL N_TEST PAD_MAX SEED [TEMPLATES]

TEMPLATES is default (the default), type-pair or order-controlled.
"""

from __future__ import annotations

import json
import os
import re
import sys

import numpy as np

from relprobe import synth
from relprobe.corpus import GENERIC_KEYS, Corpus, Sentence, Span, validate_sentence
from relprobe.deptree import Packed

_SLOT_RE = re.compile(r"^\[([A-Z_]+)\]$")


def _choice(rng, items):
    return items[int(rng.integers(len(items)))]


def _fill_template(tpl: Sentence, cfg: synth.SynthConfig, rng, sid):
    tokens = list(tpl.tokens)
    ner = list(tpl.ner)
    for i, tok in enumerate(tokens):
        m = _SLOT_RE.match(tok)
        if not m:
            continue
        slot = m.group(1)
        if slot == "ANY":
            slot = _choice(rng, cfg.entity_types)
            ner[i] = slot
        if slot not in cfg.lexicons:
            raise ValueError("no lexicon for slot %s" % slot)
        tokens[i] = _choice(rng, cfg.lexicons[slot])
    relation = tpl.relation
    if "{head}" in relation or "{tail}" in relation:
        head_type = ner[tpl.head.start]
        tail_type = ner[tpl.tail.start]
        relation = relation.replace("{head}", head_type).replace("{tail}", tail_type)
    pos = list(tpl.pos)
    dep_head = list(tpl.dep_head)
    dep_label = list(tpl.dep_label)
    # padding clause: "in the X (of the Y)*" hanging off the root token
    if cfg.pad_max > 0:
        n_units = int(rng.integers(0, cfg.pad_max + 1))
        nouns = cfg.lexicons.get("NOUN", ("thing",))
        root_idx = dep_head.index(0)
        attach = root_idx + 1  # 1-based head of the first padding noun
        for u in range(n_units):
            prep = "in" if u == 0 else "of"
            noun = _choice(rng, nouns)
            base = len(tokens)
            tokens += [prep, "the", noun]
            pos += ["IN", "DT", "NN"]
            ner += ["O", "O", "O"]
            noun_1b = base + 3
            dep_head += [noun_1b, noun_1b, attach]
            dep_label += ["case", "det", "nmod"]
            attach = noun_1b
    return Sentence(
        id=sid,
        tokens=tuple(tokens),
        pos=tuple(pos),
        ner=tuple(ner),
        dep_head=tuple(dep_head),
        dep_label=tuple(dep_label),
        head=tpl.head,
        tail=tpl.tail,
        relation=relation,
    )


def generate(config: synth.SynthConfig) -> Corpus:
    if not config.templates:
        raise ValueError("templates must be non-empty")
    for i, tpl in enumerate(config.templates):
        problems = validate_sentence(tpl)
        if problems:
            raise ValueError("template %d: %s" % (i, "; ".join(problems)))
    rng = np.random.default_rng(config.seed)
    splits = {}
    for split, n in (("train", config.n_train), ("val", config.n_val), ("test", config.n_test)):
        splits[split] = Packed(_fill_template(_choice(rng, config.templates), config, rng,
                                              "%s-%05d" % (split, i)) for i in range(n))
    inventory = tuple(sorted({s.relation for s in splits["train"]}))
    return Corpus(train=splits["train"], validation=splits["val"], test=splits["test"],
                  label_inventory=inventory, negative_label=None)


def generate_order_controlled(config: synth.SynthConfig) -> Corpus:
    rng = np.random.default_rng(config.seed)
    ents = config.lexicons.get("ORG") or config.lexicons.get("PER")
    verbs = config.lexicons.get("VERB", ("acquired",))
    if not ents or len(ents) < 2:
        raise ValueError("no lexicon with at least 2 entities for slot ORG/PER")
    splits = {}
    for split, n in (("train", config.n_train), ("val", config.n_val), ("test", config.n_test)):
        sentences = []
        for i in range(n):
            h = _choice(rng, ents)
            t = _choice(rng, [e for e in ents if e != h])
            v = _choice(rng, verbs)
            base = dict(
                pos=("NNP", "VBD", "NNP"),
                ner=("ORG", "O", "ORG"),
                dep_head=(2, 0, 2),
                dep_label=("nsubj", "root", "dobj"),
                relation="related",
            )
            fwd = Sentence(id="%s-%05d-f" % (split, i), tokens=(h, v, t),
                           head=Span(0, 0), tail=Span(2, 2), **base)
            rev = Sentence(id="%s-%05d-r" % (split, i), tokens=(t, v, h),
                           head=Span(2, 2), tail=Span(0, 0), **base)
            sentences += [fwd, rev]
        splits[split] = Packed(sentences)
    return Corpus(train=splits["train"], validation=splits["val"], test=splits["test"],
                  label_inventory=("related",), negative_label=None)


def sentence_to_record(s: Sentence) -> dict:
    """The generic-jsonl record of a sentence, its keys in GENERIC_KEYS order."""
    return dict(zip(GENERIC_KEYS, (s.id, list(s.tokens), list(s.pos), list(s.ner),
                                   list(s.dep_head), list(s.dep_label), s.head.start,
                                   s.head.end, s.tail.start, s.tail.end, s.relation)))


def write_corpus(corpus: Corpus, path):
    os.makedirs(path, exist_ok=True)
    for name, sentences in (
        ("train.jsonl", corpus.train),
        ("validation.jsonl", corpus.validation),
        ("test.jsonl", corpus.test),
    ):
        if name != "train.jsonl" and not sentences:
            continue
        with open(os.path.join(path, name), "w", encoding="utf-8") as f:
            for s in sentences:
                f.write(json.dumps(sentence_to_record(s)) + "\n")


def write_templates(templates, path):
    with open(path, "w", encoding="utf-8") as f:
        for tpl in templates:
            rec = sentence_to_record(tpl)
            del rec["id"]
            f.write(json.dumps(rec) + "\n")


def main(argv):
    """Write the corpus `relprobe synth --out OUT ...` writes, with the
    default lexicons, through this module's generator and writer."""
    out, n_train, n_val, n_test, pad_max, seed = argv[:6]
    kind = argv[6] if len(argv) > 6 else "default"
    templates = {"default": synth.default_templates, "type-pair": synth.type_pair_templates,
                 "order-controlled": tuple}[kind]()
    cfg = synth.SynthConfig(n_train=int(n_train), n_val=int(n_val), n_test=int(n_test),
                            templates=templates, lexicons=synth.default_lexicons(),
                            seed=int(seed), pad_max=int(pad_max))
    make = generate_order_controlled if kind == "order-controlled" else generate
    write_corpus(make(cfg), out)


if __name__ == "__main__":
    main(sys.argv[1:])
