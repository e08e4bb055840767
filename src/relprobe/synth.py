"""Deterministic synthetic-corpus generator with authored dependency trees.

Templates are Sentences with the id "" whose tokens may contain slot
markers like "[PER]"; on disk they are generic-jsonl records without an id.
Slots are filled from per-type lexicons. The marker "[ANY]" draws the
entity type itself at random (used for the entity-type experiments), and
relation strings may reference the drawn types via
"{head}" / "{tail}" placeholders. Optional padding clauses ("in the X of
the Y ...") are appended to vary sentence length and tree depth.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import numpy as np

from .corpus import (Corpus, Sentence, Span, jsonl_records, read_sentences,
                     sentence_to_record, validate_sentence)
from .deptree import Packed

_SLOT_RE = re.compile(r"^\[([A-Z_]+)\]$")


@dataclass
class SynthConfig:
    n_train: int = 64
    n_val: int = 16
    n_test: int = 32
    templates: tuple = ()
    lexicons: dict = field(default_factory=dict)
    seed: int = 0
    pad_max: int = 0  # max number of appended "of the X" padding units
    entity_types: tuple = ("PER", "ORG", "LOC")


def default_lexicons():
    return {
        "PER": ("alice", "bob", "carol", "david", "erin", "frank", "grace", "henry",
                "irene", "jack", "karen", "leo", "mona", "nina", "oscar", "paula"),
        "ORG": ("acme", "globex", "initech", "umbrella", "stark", "wayne", "hooli",
                "soylent", "cyberdyne", "tyrell", "aperture", "vandelay"),
        "LOC": ("berlin", "paris", "london", "tokyo", "madrid", "oslo", "cairo",
                "lima", "quito", "dakar", "hanoi", "perth"),
        "TITLE": ("chief", "director", "manager", "analyst", "engineer", "president"),
        "VERB": ("acquired", "bought", "joined", "visited", "sued", "hired"),
        "NOUN": ("market", "city", "group", "sector", "region", "valley", "area",
                 "district", "council", "board"),
    }


def default_templates():
    return (
        # "[PER] , [TITLE] of [ORG] ," -> per:title
        Sentence(
            id="", tokens=("[PER]", ",", "[TITLE]", "of", "[ORG]", ","),
            pos=("NNP", ",", "NN", "IN", "NNP", ","),
            ner=("PER", "O", "O", "O", "ORG", "O"),
            dep_head=(0, 1, 1, 5, 3, 1),
            dep_label=("root", "punct", "appos", "case", "nmod", "punct"),
            head=Span(0, 0),
            tail=Span(2, 2),
            relation="per:title",
        ),
        # "[ORG] [VERB] [ORG]" -> org:deal
        Sentence(
            id="", tokens=("[ORG]", "[VERB]", "[ORG]"),
            pos=("NNP", "VBD", "NNP"),
            ner=("ORG", "O", "ORG"),
            dep_head=(2, 0, 2),
            dep_label=("nsubj", "root", "dobj"),
            head=Span(0, 0),
            tail=Span(2, 2),
            relation="org:deal",
        ),
        # "[PER] [VERB] [LOC]" -> per:visited
        Sentence(
            id="", tokens=("[PER]", "[VERB]", "[LOC]"),
            pos=("NNP", "VBD", "NNP"),
            ner=("PER", "O", "LOC"),
            dep_head=(2, 0, 2),
            dep_label=("nsubj", "root", "dobj"),
            head=Span(0, 0),
            tail=Span(2, 2),
            relation="per:visited",
        ),
        # "[PER] [VERB] the [ORG] chief [PER]" -> per:employee_of (entity between args)
        Sentence(
            id="", tokens=("[PER]", "[VERB]", "the", "[ORG]", "chief", "[PER]"),
            pos=("NNP", "VBD", "DT", "NNP", "NN", "NNP"),
            ner=("PER", "O", "O", "ORG", "O", "PER"),
            dep_head=(2, 0, 6, 6, 6, 2),
            dep_label=("nsubj", "root", "det", "compound", "compound", "dobj"),
            head=Span(0, 0),
            tail=Span(5, 5),
            relation="per:employee_of",
        ),
        # "[ORG] was [VERB] by [PER]" -> per:agent_of (tail precedes head)
        Sentence(
            id="", tokens=("[ORG]", "was", "[VERB]", "by", "[PER]"),
            pos=("NNP", "VBD", "VBN", "IN", "NNP"),
            ner=("ORG", "O", "O", "O", "PER"),
            dep_head=(3, 3, 0, 5, 3),
            dep_label=("nsubjpass", "auxpass", "root", "case", "nmod"),
            head=Span(4, 4),
            tail=Span(0, 0),
            relation="per:agent_of",
        ),
    )


def type_pair_templates():
    """Templates whose relation label is a function of the argument types."""
    return (
        Sentence(
            id="", tokens=("[ANY]", "[VERB]", "[ANY]"),
            pos=("NNP", "VBD", "NNP"),
            ner=("*", "O", "*"),
            dep_head=(2, 0, 2),
            dep_label=("nsubj", "root", "dobj"),
            head=Span(0, 0),
            tail=Span(2, 2),
            relation="rel:{head}:{tail}",
        ),
        Sentence(
            id="", tokens=("[ANY]", "[VERB]", "[ANY]", "in", "the", "[NOUN]"),
            pos=("NNP", "VBD", "NNP", "IN", "DT", "NN"),
            ner=("*", "O", "*", "O", "O", "O"),
            dep_head=(2, 0, 2, 6, 6, 2),
            dep_label=("nsubj", "root", "dobj", "case", "det", "nmod"),
            head=Span(0, 0),
            tail=Span(2, 2),
            relation="rel:{head}:{tail}",
        ),
    )


def load_templates(path):
    """Read templates from a jsonl file of generic-jsonl records without ids."""
    def records():
        for where, rec in jsonl_records(path):
            if type(rec) is dict:  # anything else is the decoder's to report
                rec["id"] = ""
            yield where, rec
    return tuple(read_sentences(records()))


def _choice(rng, items):
    return items[int(rng.integers(len(items)))]


def _fill_template(tpl: Sentence, cfg: SynthConfig, rng, sid):
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


def generate(config: SynthConfig) -> Corpus:
    """Generate a fully annotated corpus of deptree.Packed splits; identical
    config+seed => identical corpus."""
    if not config.templates:
        raise ValueError("templates must be non-empty")
    # filling slots and padding (a chain off the root) keep a template's tree
    # and spans valid, so checking each template checks every sentence
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


def generate_order_controlled(config: SynthConfig) -> Corpus:
    """Corpus of sentence pairs with identical token multisets but swapped
    argument order; argument-order labels are balanced exactly 50/50.

    n_train/n_val/n_test count pairs (two sentences each).
    """
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


def write_templates(templates, path):
    with open(path, "w", encoding="utf-8") as f:
        for tpl in templates:
            rec = sentence_to_record(tpl)
            del rec["id"]
            f.write(json.dumps(rec) + "\n")
