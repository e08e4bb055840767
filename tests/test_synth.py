import re
from collections import Counter
from dataclasses import replace

import pytest

from relprobe import synth
from relprobe.corpus import validate_sentence


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
    synth.write_templates(originals, p)
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
