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

import re
from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

from .corpus import Corpus, Sentence, Span, jsonl_records, read_sentences, validate_sentence
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


_SPAN = 1 << 32  # the 32-bit words' range
_BLOCK = 1 << 12  # 64-bit outputs the draw source reads at a time


def _integers(rng):
    """A function draw(n) that returns, draw after draw, what rng.integers(n)
    would, for 1 <= n <= 2**32, and consumes the same bits: numpy's bounded
    draw for n - 1 < 2**32, Lemire's multiply-and-reject (Lemire 2019), on
    the generator's 32-bit words (the low half of each 64-bit output
    first), which it reads in blocks. n == 1 consumes no word."""
    raw = rng.bit_generator.random_raw
    words = chain.from_iterable(map(
        lambda _: raw(_BLOCK).astype("<u8", copy=False).view("<u4").tolist(), repeat(None)))
    word = words.__next__

    def draw(n):
        if not 1 < n <= _SPAN:
            if n == 1:
                return 0
            raise ValueError("draw bound %r is not in 1..2**32" % (n,))
        m = word() * n
        if m & 0xFFFFFFFF < n:  # only then can the low part be below the threshold
            threshold = (_SPAN - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = word() * n
        return m >> 32
    return draw


def _lexicon(lexicons, slot):
    """The non-empty lexicon of a slot, else ValueError naming the slot."""
    lexicon = lexicons.get(slot)
    if lexicon is None:
        raise ValueError("no lexicon for slot %s" % slot)
    if not len(lexicon):
        raise ValueError("lexicon for slot %s is empty" % slot)
    return lexicon


_ANY = "ANY"  # the slot whose entity type is drawn too


def _slot_plan(tpl: Sentence, lexicons):
    """The (position, slot, lexicon, its size) of each slot marker of a
    template, in token order; size 0 for [ANY] and for a slot with no
    lexicon or an empty one, which _lexicon reports when the template is
    drawn."""
    plan = []
    for i, tok in enumerate(tpl.tokens):
        m = _SLOT_RE.match(tok)
        if m:
            slot = m.group(1)
            lexicon = lexicons.get(slot) if slot != _ANY else None
            plan.append((i, slot, lexicon, 0 if lexicon is None else len(lexicon)))
    return tuple(plan)


def _annotations(tpl: Sentence, any_at, types, n_units):
    """(pos, ner, dep_head, dep_label, relation) of a template whose [ANY]
    slots at any_at drew `types`, with n_units padding units: "in the X (of
    the Y)*", a chain hanging off the root token."""
    ner = list(tpl.ner)
    for i, t in zip(any_at, types):
        ner[i] = t
    relation = tpl.relation
    if "{head}" in relation or "{tail}" in relation:
        relation = relation.replace("{head}", ner[tpl.head.start]).replace(
            "{tail}", ner[tpl.tail.start])
    pos, dep_head, dep_label = list(tpl.pos), list(tpl.dep_head), list(tpl.dep_label)
    attach = dep_head.index(0) + 1  # 1-based head of the first padding noun
    for _ in range(n_units):
        noun = len(pos) + 3
        pos += ("IN", "DT", "NN")
        ner += ("O", "O", "O")
        dep_head += (noun, noun, attach)
        dep_label += ("case", "det", "nmod")
        attach = noun
    return tuple(pos), tuple(ner), tuple(dep_head), tuple(dep_label), relation


def _split_sizes(config):
    return (("train", config.n_train), ("val", config.n_val), ("test", config.n_test))


def generate(config: SynthConfig) -> Corpus:
    """Generate a fully annotated corpus of deptree.Packed splits; identical
    config+seed => identical corpus.

    Each sentence draws, through one _integers source, a template, then
    for each slot in token order its entity type if [ANY] and its filler,
    then (pad_max > 0) its number of padding units and their nouns.
    Sentences of one template, one drawn entity-type sequence and one
    number of padding units share their annotation tuples; only the tokens
    are built per sentence."""
    if not config.templates:
        raise ValueError("templates must be non-empty")
    # filling slots and padding (a chain off the root) keep a template's tree
    # and spans valid, so checking each template checks every sentence
    for i, tpl in enumerate(config.templates):
        problems = validate_sentence(tpl)
        if problems:
            raise ValueError("template %d: %s" % (i, "; ".join(problems)))
    templates, lexicons, types = config.templates, config.lexicons, config.entity_types
    plans = [_slot_plan(tpl, lexicons) for tpl in templates]
    any_at = [tuple(i for i, slot, _, _ in plan if slot == _ANY) for plan in plans]
    nouns = lexicons.get("NOUN", ("thing",))
    n_templates, n_types, n_nouns, pad_max = len(templates), len(types), len(nouns), config.pad_max
    draw = _integers(np.random.default_rng(config.seed))
    shared = {}  # (template, drawn types, padding units) -> annotations

    def sentence(sid):
        k = draw(n_templates)
        tpl = templates[k]
        tokens = list(tpl.tokens)
        drawn = ()
        for i, slot, lexicon, size in plans[k]:
            if not size:  # [ANY], or a lexicon fault to report
                if slot == _ANY:
                    if not n_types:
                        raise ValueError("entity_types for slot ANY is empty")
                    slot = types[draw(n_types)]
                    drawn += (slot,)
                lexicon = _lexicon(lexicons, slot)
                size = len(lexicon)
            tokens[i] = lexicon[draw(size)]
        n_units = draw(pad_max + 1) if pad_max > 0 else 0
        if n_units:
            if not n_nouns:
                raise ValueError("lexicon for slot NOUN is empty")
            tokens += ("in", "the", nouns[draw(n_nouns)])
            for _ in range(n_units - 1):
                tokens += ("of", "the", nouns[draw(n_nouns)])
        key = (k, drawn, n_units)
        ann = shared.get(key)
        if ann is None:
            ann = shared[key] = _annotations(tpl, any_at[k], drawn, n_units)
        pos, ner, dep_head, dep_label, relation = ann
        return Sentence(sid, tuple(tokens), pos, ner, dep_head, dep_label, tpl.head, tpl.tail,
                        relation)

    splits = [Packed(sentence("%s-%05d" % (split, i)) for i in range(n))
              for split, n in _split_sizes(config)]
    inventory = tuple(sorted({s.relation for s in splits[0]}))
    return Corpus(train=splits[0], validation=splits[1], test=splits[2],
                  label_inventory=inventory, negative_label=None)


def generate_order_controlled(config: SynthConfig) -> Corpus:
    """Corpus of sentence pairs with identical token multisets but swapped
    argument order; argument-order labels are balanced exactly 50/50.

    n_train/n_val/n_test count pairs (two sentences each). Each pair draws
    its head entity, its tail entity among the others and its verb.
    """
    ents = config.lexicons.get("ORG") or config.lexicons.get("PER")
    verbs = config.lexicons.get("VERB", ("acquired",))
    if not ents or len(set(ents)) < 2:
        raise ValueError("no lexicon with at least 2 distinct entities for slot ORG/PER")
    if not len(verbs):
        raise ValueError("lexicon for slot VERB is empty")
    draw = _integers(np.random.default_rng(config.seed))
    ann = (("NNP", "VBD", "NNP"), ("ORG", "O", "ORG"), (2, 0, 2), ("nsubj", "root", "dobj"))
    first, last = Span(0, 0), Span(2, 2)
    splits = []
    for split, n in _split_sizes(config):
        sentences = []
        for i in range(n):
            h = ents[draw(len(ents))]
            tails = [e for e in ents if e != h]
            t = tails[draw(len(tails))]
            v = verbs[draw(len(verbs))]
            sentences += (Sentence("%s-%05d-f" % (split, i), (h, v, t), *ann, first, last,
                                   "related"),
                          Sentence("%s-%05d-r" % (split, i), (t, v, h), *ann, last, first,
                                   "related"))
        splits.append(Packed(sentences))
    return Corpus(train=splits[0], validation=splits[1], test=splits[2],
                  label_inventory=("related",), negative_label=None)
