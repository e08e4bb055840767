import re
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

from relprobe import synth
from relprobe.corpus import Sentence, validate_sentence

import reference_synth
from reference_synth import write_templates


def _cfg(**overrides):
    kw = dict(n_train=40, n_val=10, n_test=10,
              templates=synth.default_templates(),
              lexicons=synth.default_lexicons(), seed=3, pad_max=4)
    kw.update(overrides)
    return synth.SynthConfig(**kw)


def test_generate_split_sizes(small_corpus):
    assert len(small_corpus.train) == 64
    assert len(small_corpus.validation) == 16
    assert len(small_corpus.test) == 32


def test_generate_is_deterministic():
    assert synth.generate(_cfg()) == synth.generate(_cfg())


def test_generate_seed_changes_output():
    assert synth.generate(_cfg()) != synth.generate(_cfg(seed=4))


def test_generated_sentences_validate():
    for s in synth.generate(_cfg()).all_sentences():
        assert validate_sentence(s) == []


def test_padding_varies_length():
    lengths = {len(s) for s in synth.generate(_cfg(n_train=200)).train}
    assert len(lengths) > 3


def test_no_padding_keeps_template_lengths():
    corpus = synth.generate(_cfg(pad_max=0))
    tpl_lengths = {len(t.tokens) for t in synth.default_templates()}
    assert {len(s) for s in corpus.all_sentences()} <= tpl_lengths


def test_slots_are_filled():
    for s in synth.generate(_cfg()).all_sentences():
        assert not any(t.startswith("[") for t in s.tokens)


def test_type_pair_relations_match_ner():
    cfg = _cfg(templates=synth.type_pair_templates(), pad_max=0)
    for s in synth.generate(cfg).all_sentences():
        head_type = s.ner[s.head.start]
        tail_type = s.ner[s.tail.start]
        assert s.relation == "rel:%s:%s" % (head_type, tail_type)
        assert head_type in cfg.entity_types


def test_empty_templates_rejected():
    with pytest.raises(ValueError, match="templates"):
        synth.generate(_cfg(templates=()))


def test_missing_lexicon_rejected():
    with pytest.raises(ValueError, match="lexicon"):
        synth.generate(_cfg(lexicons={"PER": ("a", "b")}, pad_max=0))


@pytest.mark.parametrize("pad_max", (0, 2))
def test_rootless_template_rejected_before_drawing(pad_max):
    tpl = replace(synth.default_templates()[0], dep_head=(2, 1, 1, 5, 3, 1))
    templates = (tpl,) + synth.default_templates()[1:]
    message = "template 0: no root token; cycle detected"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        synth.generate(_cfg(templates=templates, pad_max=pad_max))


def test_generate_validates_each_template_once(monkeypatch):
    checked = []

    def counting(s):
        checked.append(s)
        return validate_sentence(s)

    monkeypatch.setattr(synth, "validate_sentence", counting)
    corpus = synth.generate(_cfg())
    assert len(corpus.all_sentences()) == 60
    assert checked == list(synth.default_templates())


def test_templates_roundtrip(tmp_path):
    p = str(tmp_path / "tpl.jsonl")
    originals = synth.default_templates()
    write_templates(originals, p)
    assert synth.load_templates(p) == originals


# ------------------------------------------------------- order controlled

def test_order_controlled_pairs():
    corpus = synth.generate_order_controlled(_cfg(n_train=30, pad_max=0))
    assert len(corpus.train) == 60
    for i in range(0, 60, 2):
        fwd, rev = corpus.train[i], corpus.train[i + 1]
        assert Counter(fwd.tokens) == Counter(rev.tokens)
        assert fwd.tokens != rev.tokens
        # same surface entity plays the head role in both orders
        assert fwd.tokens[fwd.head.start] == rev.tokens[rev.head.start]


def test_order_controlled_balanced():
    corpus = synth.generate_order_controlled(_cfg(n_train=25, pad_max=0))
    first = sum(1 for s in corpus.train if s.head.start < s.tail.start)
    assert first == len(corpus.train) // 2


def test_order_controlled_valid():
    corpus = synth.generate_order_controlled(_cfg(n_train=10, pad_max=0))
    for s in corpus.all_sentences():
        assert validate_sentence(s) == []


# ------------------------------------------------------------ draw source

# lexicon and template counts, then bounds near 2**32, where numpy rejects
# words: about half of them at 2**31 + 1, a quarter at 3 * 2**30
_BOUNDS = (1, 2, 3, 5, 6, 11, 12, 16, 3000, 60000, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32)


def _words_used(bit_generator, seed):
    """32-bit words a generator used since seeding, read off its state."""
    fresh, outputs = np.random.PCG64(seed), 0
    while fresh.state["state"] != bit_generator.state["state"]:
        fresh.random_raw()
        outputs += 1
    return 2 * outputs - bit_generator.state["has_uint32"]


@pytest.mark.parametrize("seed", (0, 1, 11))
def test_draw_source_matches_generator_integers(seed):
    rng, draw = np.random.default_rng(seed), synth._integers(np.random.default_rng(seed))
    bounds = [_BOUNDS[i] for i in np.random.default_rng(seed + 100).integers(len(_BOUNDS),
                                                                              size=20000)]
    assert [draw(n) for n in bounds] == [int(rng.integers(n)) for n in bounds]
    # past the first blocks, and after the rejections, the next value agrees
    assert draw(7) == rng.integers(7) and draw(2**31 + 1) == rng.integers(2**31 + 1)


def test_draw_source_rejects_as_numpy_does():
    rng, draw = np.random.default_rng(3), synth._integers(np.random.default_rng(3))
    n = 2**31 + 1
    assert [draw(n) for _ in range(200)] == [int(rng.integers(n)) for _ in range(200)]
    used = _words_used(rng.bit_generator, 3)
    assert used > 300  # numpy rejected about half
    assert [draw(1), draw(1)] == [rng.integers(1), rng.integers(1)] == [0, 0]
    assert _words_used(rng.bit_generator, 3) == used  # a draw of 1 uses no word
    assert draw(3) == rng.integers(3)


@pytest.mark.parametrize("n", (0, -3, 2**32 + 1))
def test_draw_outside_its_range_raises(n):
    with pytest.raises(ValueError, match=re.escape("is not in 1..2**32")):
        synth._integers(np.random.default_rng(0))(n)


# ------------------------------------------- generators against the oracle

def _large_lexicons():
    sizes = {"PER": 3000, "ORG": 3000, "LOC": 3000, "TITLE": 500, "VERB": 4000, "NOUN": 60000}
    return {slot: tuple("%s%d" % (slot.lower(), i) for i in range(n))
            for slot, n in sizes.items()}


def _assert_same_corpus(got, want):
    assert got.label_inventory == want.label_inventory
    assert got.negative_label == want.negative_label
    for split in ("train", "validation", "test"):
        a, b = got.split(split), want.split(split)
        assert type(a) is type(b) and len(a) == len(b)
        for s, t in zip(a, b):
            for f in fields(Sentence):
                x, y = getattr(s, f.name), getattr(t, f.name)
                assert type(x) is type(y) and x == y, (split, s.id, f.name)


@pytest.mark.parametrize("kind", ("default", "type-pair", "order-controlled"))
@pytest.mark.parametrize("pad_max", (0, 10))
@pytest.mark.parametrize("lexicons", ("default", "large"))
@pytest.mark.parametrize("seed", (0, 7, 12345))
def test_generators_match_the_per_draw_oracle(kind, pad_max, lexicons, seed):
    templates = {"default": synth.default_templates(), "type-pair": synth.type_pair_templates(),
                 "order-controlled": ()}[kind]
    lex = synth.default_lexicons() if lexicons == "default" else _large_lexicons()
    cfg = _cfg(n_train=150, n_val=40, n_test=30, templates=templates, lexicons=lex, seed=seed,
               pad_max=pad_max)
    if kind == "order-controlled":
        _assert_same_corpus(synth.generate_order_controlled(cfg),
                            reference_synth.generate_order_controlled(cfg))
    else:
        _assert_same_corpus(synth.generate(cfg), reference_synth.generate(cfg))


def test_mixed_templates_and_entity_types_match_the_oracle():
    cfg = _cfg(n_train=300, templates=synth.default_templates() + synth.type_pair_templates(),
               entity_types=("LOC", "PER"), pad_max=3, seed=9)
    _assert_same_corpus(synth.generate(cfg), reference_synth.generate(cfg))


def test_sentences_of_one_template_draw_share_their_annotations():
    # the default templates give each (template, padding units) draw other
    # annotation values, so equal values must be the same objects
    first, tokens = {}, set()
    for s in synth.generate(_cfg(n_train=400, pad_max=3)).all_sentences():
        annotations = (s.pos, s.ner, s.dep_head, s.dep_label, s.relation)
        for x, y in zip(annotations, first.setdefault(annotations, annotations)):
            assert x is y
        tokens.add(id(s.tokens))
    assert len(first) == 5 * 4  # templates, padding units 0-3
    assert len(tokens) == 420


# ----------------------------------------------------------- empty choices

def test_empty_lexicon_is_named_when_its_template_is_drawn():
    lex = dict(synth.default_lexicons(), TITLE=())
    with pytest.raises(ValueError, match="^lexicon for slot TITLE is empty$"):
        synth.generate(_cfg(lexicons=lex))
    # no template drawn needs it
    synth.generate(_cfg(lexicons=lex, templates=synth.default_templates()[1:]))


def test_empty_entity_types_are_named():
    cfg = _cfg(templates=synth.type_pair_templates(), entity_types=())
    with pytest.raises(ValueError, match="^entity_types for slot ANY is empty$"):
        synth.generate(cfg)
    synth.generate(replace(cfg, templates=synth.default_templates()))


def test_empty_padding_nouns_are_named():
    lex = dict(synth.default_lexicons(), NOUN=())
    with pytest.raises(ValueError, match="^lexicon for slot NOUN is empty$"):
        synth.generate(_cfg(lexicons=lex))
    synth.generate(_cfg(lexicons=lex, pad_max=0))


@pytest.mark.parametrize("org", ((), ("a",), ("a", "a")))
def test_order_controlled_needs_two_distinct_entities(org):
    with pytest.raises(ValueError, match="^no lexicon with at least 2 distinct entities"):
        synth.generate_order_controlled(_cfg(lexicons={"ORG": org, "PER": org}))


def test_order_controlled_empty_verbs_are_named():
    with pytest.raises(ValueError, match="^lexicon for slot VERB is empty$"):
        synth.generate_order_controlled(_cfg(lexicons={"ORG": ("a", "b"), "VERB": ()}))
