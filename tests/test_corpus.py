import json
import os
import re
import struct
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from relprobe import deptree
from relprobe.corpus import (CTX_MAGIC, TACRED_KEYS, ContextualStore, CorpusFormatError,
                             Sentence, Span, load_contextual, load_corpus, load_embeddings,
                             masked_tokens, sentence_to_record, validate_sentence,
                             write_contextual, write_corpus, write_text)

import reference_trees
from conftest import make_sentence, random_parents


def _record(**overrides):
    rec = {
        "id": "r1",
        "tokens": ["Bayer", "acquired", "Monsanto"],
        "pos": ["NNP", "VBD", "NNP"],
        "ner": ["ORGANIZATION", "O", "ORGANIZATION"],
        "dep_head": [2, 0, 2],
        "dep_label": ["nsubj", "root", "dobj"],
        "head_start": 0, "head_end": 0,
        "tail_start": 2, "tail_end": 2,
        "relation": "org:subsidiaries",
    }
    rec.update(overrides)
    return rec


def _write_corpus_dir(tmp_path, records):
    d = tmp_path / "corpus"
    d.mkdir()
    with open(d / "train.jsonl", "w") as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")
    return str(d)


def test_load_simple_record(tmp_path):
    corpus = load_corpus(_write_corpus_dir(tmp_path, [_record()]))
    s = corpus.train[0]
    assert len(s) == 3
    assert s.tokens == ("Bayer", "acquired", "Monsanto")
    assert s.head == Span(0, 0) and s.tail == Span(2, 2)
    assert corpus.label_inventory == ("org:subsidiaries",)


def test_load_rejects_inverted_span(tmp_path):
    path = _write_corpus_dir(tmp_path, [_record(head_start=2, head_end=1)])
    with pytest.raises(CorpusFormatError, match="span start > end"):
        load_corpus(path)


def test_load_rejects_overlapping_spans(tmp_path):
    path = _write_corpus_dir(tmp_path, [_record(tail_start=0, tail_end=1)])
    with pytest.raises(CorpusFormatError, match="overlap"):
        load_corpus(path)


def test_load_rejects_duplicate_ids(tmp_path):
    path = _write_corpus_dir(tmp_path, [_record(), _record()])
    with pytest.raises(CorpusFormatError, match="duplicate"):
        load_corpus(path)


def test_load_reports_line_number(tmp_path):
    d = tmp_path / "corpus"
    d.mkdir()
    with open(d / "train.jsonl", "w") as f:
        f.write(json.dumps(_record()) + "\n")
        f.write("{not json\n")
    with pytest.raises(CorpusFormatError, match=":2"):
        load_corpus(str(d))


def test_roundtrip_generic_jsonl(tmp_path, small_corpus):
    out = str(tmp_path / "rt")
    write_corpus(small_corpus, out)
    reloaded = load_corpus(out)
    assert reloaded == small_corpus


def test_tacred_profile(tmp_path):
    d = tmp_path / "tacred"
    d.mkdir()
    rec = {
        "id": "t1",
        "token": ["Bayer", "acquired", "Monsanto"],
        "stanford_pos": ["NNP", "VBD", "NNP"],
        "stanford_ner": ["ORGANIZATION", "O", "ORGANIZATION"],
        "stanford_head": [2, 0, 2],
        "stanford_deprel": ["nsubj", "root", "dobj"],
        "subj_start": 0, "subj_end": 0,
        "obj_start": 2, "obj_end": 2,
        "relation": "no_relation",
    }
    with open(d / "train.json", "w") as f:
        json.dump([rec], f)
    corpus = load_corpus(str(d), "tacred-json")
    assert corpus.train[0].tokens == ("Bayer", "acquired", "Monsanto")
    assert corpus.negative_label == "no_relation"


def _write_profile(corpus, path, profile):
    """The corpus as split files of `profile`; tacred-json from the records
    of write_corpus under TACRED key names."""
    if profile == "generic-jsonl":
        write_corpus(corpus, path)
        return
    os.makedirs(path)
    for name, sentences in (("train.json", corpus.train), ("dev.json", corpus.validation),
                            ("test.json", corpus.test)):
        with open(os.path.join(path, name), "w") as f:
            json.dump([dict(zip(TACRED_KEYS, sentence_to_record(s).values()))
                       for s in sentences], f)


@pytest.mark.parametrize("profile", ("generic-jsonl", "tacred-json"))
def test_both_profiles_load_equal_to_the_generated_corpus(tmp_path, small_corpus, profile):
    _write_profile(small_corpus, str(tmp_path / "c"), profile)
    assert load_corpus(str(tmp_path / "c"), profile) == small_corpus


@pytest.mark.parametrize("profile", ("generic-jsonl", "tacred-json"))
def test_one_load_keeps_one_object_per_distinct_string(tmp_path, small_corpus, profile):
    _write_profile(small_corpus, str(tmp_path / "c"), profile)
    corpus = load_corpus(str(tmp_path / "c"), profile)
    first, uses = {}, 0
    for split in (corpus.train, corpus.validation, corpus.test):
        for s in split:
            for x in s.tokens + s.pos + s.ner + s.dep_label + (s.relation,):
                assert first.setdefault(x, x) is x, x  # across sentences, splits and fields
                uses += 1
    assert uses > 10 * len(first)
    assert all(first[label] is label for label in corpus.label_inventory)
    # the splits share tokens, so the check above spans splits
    assert {x for s in corpus.train for x in s.tokens} & {x for s in corpus.test for x in s.tokens}


def test_records_have_slots_and_keep_dataclass_behaviour(small_corpus):
    s = small_corpus.train[0]
    assert not hasattr(s, "__dict__") and not hasattr(s.head, "__dict__")
    fresh = json.loads(json.dumps(sentence_to_record(s)))  # equal strings, other objects
    same = replace(s, id=fresh["id"], tokens=tuple(fresh["tokens"]))
    assert same.tokens[0] is not s.tokens[0]
    assert same == s and hash(same) == hash(s)
    assert hash(s) == hash(tuple(getattr(s, f.name) for f in fields(Sentence)))
    assert hash(Span(2, 5)) == hash((2, 5)) and Span(2, 5) == Span(2, 5) != Span(2, 6)
    other = replace(s, relation="other:rel", head=replace(s.head, end=s.head.start))
    assert other.relation == "other:rel" and other.tokens is s.tokens and other != s
    assert other.head == Span(s.head.start, s.head.start)
    with pytest.raises(FrozenInstanceError):
        s.relation = "x"
    # a name that is no field: TypeError on CPython 3.11, whose generated
    # __setattr__ calls super() with the class that slots=True replaced
    with pytest.raises((AttributeError, TypeError)):
        s.extra = 1


# -------------------------------------------------------------- validation

def test_validate_well_formed():
    assert validate_sentence(make_sentence([2, 0, 2])) == []


def test_validate_cycle_and_no_root():
    s = make_sentence([2, 3, 1])
    problems = validate_sentence(s)
    assert "no root token" in problems
    assert "cycle detected" in problems


def test_validate_length_mismatch():
    s = replace(make_sentence([2, 0, 2]), ner=("O", "O"))
    assert "annotation length mismatch: ner" in validate_sentence(s)


def test_loaded_sentences_validate(small_corpus):
    for s in small_corpus.all_sentences():
        assert validate_sentence(s) == []


# ----------------------------------------------------------------- masking

def _aerolineas():
    return Sentence(
        id="a1",
        tokens=("Aerolineas", "bought", "Austral"),
        pos=("NNP", "VBD", "NNP"),
        ner=("ORGANIZATION", "O", "ORGANIZATION"),
        dep_head=(2, 0, 2),
        dep_label=("nsubj", "root", "dobj"),
        head=Span(0, 0),
        tail=Span(2, 2),
        relation="org:subsidiaries",
    )


def test_mask_entities_basic():
    assert masked_tokens([_aerolineas()]) == [("SUBJ-ORGANIZATION", "bought", "OBJ-ORGANIZATION")]


def test_mask_entities_multi_token_span():
    s = Sentence(
        id="m1",
        tokens=("Larry", "Page", "joined", "Google"),
        pos=("NNP", "NNP", "VBD", "NNP"),
        ner=("PERSON", "PERSON", "O", "ORGANIZATION"),
        dep_head=(2, 3, 0, 3),
        dep_label=("compound", "nsubj", "root", "dobj"),
        head=Span(0, 1),
        tail=Span(3, 3),
        relation="per:employee_of",
    )
    (m,) = masked_tokens([s])
    assert m == ("SUBJ-PERSON", "SUBJ-PERSON", "joined", "OBJ-ORGANIZATION")
    assert len(m) == len(s)


def test_mask_entities_idempotent():
    once = replace(_aerolineas(), tokens=masked_tokens([_aerolineas()])[0])
    assert masked_tokens([once]) == [once.tokens]


def test_mask_entities_reads_heads_without_a_tree():
    # a cyclic dep_head, which validate_sentence rejects, masks without raising
    s = replace(_aerolineas(), dep_head=(3, 3, 1))
    assert masked_tokens([s]) == [("SUBJ-ORGANIZATION", "bought", "OBJ-ORGANIZATION")]


def test_mask_entities_preserves_annotations():
    s = _aerolineas()
    masked_tokens([s])
    for field in ("tokens", "pos", "ner", "dep_head", "dep_label", "head", "tail", "relation"):
        assert getattr(s, field) == getattr(_aerolineas(), field)


def test_masking_names_a_sentence_with_another_number_of_heads():
    # packed, a short dep_head would shift the next sentence's rows
    s = replace(_aerolineas(), dep_head=(2, 0), id="short")
    message = "^2 dep_head values for the 3 tokens of sentence short$"
    for sentences in ([s, _aerolineas()], [_aerolineas(), s]):
        with pytest.raises(ValueError, match=message):
            masked_tokens(sentences)


def _masking_sentence(rng, i):
    """A random sentence for masking, its NE tags naming their positions:
    every third a tree, the others heads in -2..len+2 (cycles, zero or
    several roots, values out of range), every 40th with one head beyond
    int64; two disjoint spans of 1-4 tokens, head or tail first (one shared
    token when len is 1)."""
    n = int(rng.integers(1, 16))
    heads = random_parents(rng, n) if i % 3 == 0 else rng.integers(-2, n + 3, size=n).tolist()
    if i % 40 == 1:
        heads[int(rng.integers(n))] = (2**64, -2**70, 2**63)[i // 40 % 3]
    head = tail = Span(0, 0)
    if n > 1:
        cut = int(rng.integers(1, n))
        head = Span(max(0, cut - int(rng.integers(1, 5))), cut - 1)
        tail = Span(cut, min(n - 1, cut + int(rng.integers(0, 4))))
        if rng.random() < 0.5:
            head, tail = tail, head
    return Sentence("m%d" % i, tuple("tok%d" % j for j in range(n)), ("NN",) * n,
                    tuple("E%d" % j for j in range(n)), tuple(heads), ("dep",) * n,
                    head, tail, "rel")


def test_masked_tokens_equal_per_sentence_masking_on_any_heads():
    """One packed pass masks as the per-sentence oracle does, whatever the
    heads: the NE tags name their positions, so the masks show the roots."""
    rng = np.random.default_rng(25)
    sentences = [_masking_sentence(rng, i) for i in range(3000)]
    assert sum(bool(deptree.head_problems(s.dep_head)) for s in sentences) > 1500
    assert sum(max(map(abs, s.dep_head)) >= 2**63 for s in sentences) > 70
    assert sum(len(s.head) > 1 and len(s.tail) > 1 for s in sentences) > 500
    assert 1000 < sum(s.head.start < s.tail.start for s in sentences) < 2000
    inside = lambda s, span: all(span.start < s.dep_head[j] <= span.end + 1  # noqa: E731
                                 for j in range(span.start, span.end + 1))
    fallback = sum(len(span) > 1 and inside(s, span) for s in sentences for span in (s.head, s.tail))
    assert fallback > 20  # every head of a span inside it: span.end is its root
    want = [reference_trees.masked_tokens(s) for s in sentences]
    assert masked_tokens(sentences) == want
    assert deptree.argument_roots(sentences).tolist() == [
        [reference_trees.span_root(s.dep_head, s.head) for s in sentences],
        [reference_trees.span_root(s.dep_head, s.tail) for s in sentences]]
    for part in (sentences[:1], sentences[7:19], sentences[::13]):  # packed in other groups
        assert masked_tokens(part) == [reference_trees.masked_tokens(s) for s in part]
    assert masked_tokens([]) == []


# -------------------------------------------------------------- embeddings

def test_load_embeddings(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("cat 1.0 2.0 3.0 4.0\ndog 5.0 6.0 7.0 8.0\n")
    table = load_embeddings(str(p))
    assert len(table) == 2
    np.testing.assert_allclose(table.lookup("cat"), [1, 2, 3, 4])


def test_load_embeddings_dim_mismatch(tmp_path):
    """The first vector line sets the width; a narrower later line fails."""
    p = tmp_path / "emb.txt"
    p.write_text("cat 1.0 2.0 3.0 4.0\ndog 1.0 2.0 3.0\n")
    with pytest.raises(CorpusFormatError,
                       match=re.escape("%s:2: expected 4 values, got 3" % p)):
        load_embeddings(str(p))


@pytest.mark.parametrize("text,problem", (("", ": no vectors"), ("\n  \n", ": no vectors"),
                                          ("\ncat\n", ":2: no values after 'cat'")))
def test_load_embeddings_without_a_vector_fails(tmp_path, text, problem):
    p = tmp_path / "emb.txt"
    p.write_text(text)
    with pytest.raises(CorpusFormatError, match="^%s$" % re.escape(str(p) + problem)):
        load_embeddings(str(p))


@pytest.mark.parametrize("line", ("foo nan inf", "foo 1.0 x", "foo 1e39 0"))
def test_load_embeddings_rejects_bad_values(tmp_path, line):
    p = tmp_path / "emb.txt"
    p.write_text("cat 1.0 2.0\n%s\n" % line)
    with pytest.raises(CorpusFormatError, match=re.escape("%s:2: " % p)):
        load_embeddings(str(p))


def test_load_embeddings_bad_utf8_names_line(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_bytes(b"cat 1.0 2.0\nd\xffg 3.0 4.0\n")
    with pytest.raises(CorpusFormatError,
                       match=re.escape("%s:2: 'utf-8' codec can't decode byte 0xff" % p)):
        load_embeddings(str(p))


def test_unknown_token_maps_to_mean(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("cat 1.0 2.0 3.0 4.0\ndog 5.0 6.0 7.0 8.0\n")
    table = load_embeddings(str(p))
    # independent mean by summation
    expected = (np.array([1.0, 2, 3, 4]) + np.array([5.0, 6, 7, 8])) / 2
    np.testing.assert_allclose(table.lookup("absent"), expected)


# -------------------------------------------------------------- contextual

def test_contextual_roundtrip(tmp_path):
    store = ContextualStore({"s1": np.arange(24, dtype=np.float32).reshape(3, 8)})
    p = str(tmp_path / "ctx.bin")
    write_contextual(store, p)
    loaded = load_contextual(p)
    assert len(loaded) == 1
    np.testing.assert_array_equal(loaded.get("s1"), store.get("s1"))


def test_contextual_non_finite_vector_rejected(tmp_path):
    m = np.ones((2, 3), np.float32)
    m[1, 2] = np.nan
    p = str(tmp_path / "nan.ctx")
    write_contextual(ContextualStore({"s1": np.ones((1, 3), np.float32), "s2": m}), p)
    with pytest.raises(ValueError, match=re.escape("%s: non-finite value in sentence 's2'" % p)):
        load_contextual(p)


def test_contextual_empty_file(tmp_path):
    p = str(tmp_path / "ctx.bin")
    write_contextual(ContextualStore({}), p)
    assert len(load_contextual(p)) == 0


def test_contextual_bad_utf8_id_names_path_and_offset(tmp_path):
    p = str(tmp_path / "bad.ctx")
    write_contextual(ContextualStore({"s1": np.ones((1, 2), np.float32)}), p)
    raw = bytearray(open(p, "rb").read())
    raw[12] = 0xFF  # first id byte, after magic, version and the id length
    open(p, "wb").write(bytes(raw))
    with pytest.raises(ValueError, match=re.escape("%s: bad UTF-8 at byte offset 12" % p)):
        load_contextual(p)


def _ctxv(tmp_path, *records):
    """Path of a CTXV file of the (id, matrix) records, in that order, ids
    repeated as given; and each record's byte offset."""
    p, offsets = str(tmp_path / "records.ctx"), []
    with open(p, "wb") as f:
        f.write(CTX_MAGIC + struct.pack("<I", 1))
        for sid, m in records:
            offsets.append(f.tell())
            write_text(f, sid)
            f.write(struct.pack("<II", *m.shape) + m.astype("<f4").tobytes())
    return p, offsets


def test_contextual_duplicate_id_names_path_and_offset(tmp_path):
    p, offsets = _ctxv(tmp_path, ("s0", np.ones((2, 3), np.float32)),
                       ("s1", np.ones((1, 3), np.float32)), ("s0", np.zeros((2, 3), np.float32)))
    with pytest.raises(ValueError, match=re.escape(
            "%s: duplicate sentence id 's0' at byte offset %d" % (p, offsets[2]))):
        load_contextual(p)


def test_contextual_width_mismatch_names_path_and_offset(tmp_path):
    p, offsets = _ctxv(tmp_path, ("s0", np.ones((2, 3), np.float32)),
                       ("s1", np.ones((1, 3), np.float32)), ("s2", np.ones((2, 4), np.float32)))
    with pytest.raises(ValueError, match=re.escape(
            "%s: sentence 's2' at byte offset %d has width 4, the first record 3"
            % (p, offsets[2]))):
        load_contextual(p)
    p, _ = _ctxv(tmp_path, ("s0", np.ones((2, 3), np.float32)),
                 ("s1", np.ones((1, 3), np.float32)))
    assert [m.shape for m in load_contextual(p).matrices.values()] == [(2, 3), (1, 3)]


def test_contextual_truncated_is_value_error_unless_at_record_boundary(tmp_path):
    store = ContextualStore({"s1": np.ones((2, 3), np.float32),
                             "s22": np.zeros((1, 3), np.float32)})
    full = str(tmp_path / "full.ctx")
    write_contextual(store, full)
    raw = open(full, "rb").read()
    # CTXV has no record count: a cut after the header or a whole record
    # leaves a shorter valid file
    boundaries = {8: 0, 8 + 4 + 2 + 8 + 24: 1}
    cut = str(tmp_path / "cut.ctx")
    for n in range(len(raw)):
        with open(cut, "wb") as f:
            f.write(raw[:n])
        if n in boundaries:
            assert len(load_contextual(cut)) == boundaries[n]
        else:
            with pytest.raises(ValueError, match=re.escape(cut)):
                load_contextual(cut)


# ---------------------------------------------- loader error order and text
# Trees are checked once per split file, the other checks once per record;
# the error still names the first bad record in file order, in the words of
# the per-record check.

_CYCLIC = {"dep_head": [2, 0, 3]}  # token 3 heads itself
_TACRED_KEYS = dict(zip(_record(), ("id", "token", "stanford_pos", "stanford_ner",
                                    "stanford_head", "stanford_deprel", "subj_start",
                                    "subj_end", "obj_start", "obj_end", "relation")))


def _records(bad):
    """Five records r0..r4; bad maps a record's index to a dict of its
    overrides, or to what replaces it: a raw line, or a JSON value."""
    return [_record(**{"id": "r%d" % i, **bad.get(i, {})}) if type(bad.get(i, {})) is dict
            else bad[i] for i in range(5)]


def _write_split(tmp_path, records, tacred):
    d = tmp_path / "corpus"
    d.mkdir()
    if tacred:
        path = d / "train.json"
        body = json.dumps([{_TACRED_KEYS[k]: v for k, v in rec.items()} if type(rec) is dict
                           else rec for rec in records]).encode()
    else:
        path = d / "train.jsonl"
        body = b"".join((rec if isinstance(rec, bytes) else
                         (rec if isinstance(rec, str) else json.dumps(rec)).encode()) + b"\n"
                        for rec in records)
    path.write_bytes(body)
    return str(d), str(path)


def _load_error(tmp_path, bad, tacred=False):
    d, path = _write_split(tmp_path, _records(bad), tacred)
    with pytest.raises(CorpusFormatError) as e:
        load_corpus(d, "tacred-json" if tacred else "generic-jsonl")
    return str(e.value), path


_LATER = {  # a non-tree problem in record 4, of each kind the reader checks
    "not-json": "{not json",
    "not-utf8": b'{"id": "r4", "tokens": ["Ba\xffer"]}',
    "wrong-type": {"tokens": 5},
    "missing-field": "{}",
    "not-object": "[1, 2]",
    "span-inverted": {"head_start": 2, "head_end": 1},
}


@pytest.mark.parametrize("later", sorted(_LATER))
def test_jsonl_tree_problem_before_a_later_record_problem_is_reported(tmp_path, later):
    message, path = _load_error(tmp_path, {2: _CYCLIC, 4: _LATER[later]})
    assert message == "%s:3: sentence r2: cycle detected" % path


@pytest.mark.parametrize("later", ("wrong-type", "not-object", "span-inverted"))
def test_tacred_tree_problem_before_a_later_record_problem_is_reported(tmp_path, later):
    bad = _LATER[later]
    message, path = _load_error(tmp_path, {2: _CYCLIC, 4: [1, 2] if type(bad) is str else bad},
                                tacred=True)
    assert message == "%s: record 2: sentence r2: cycle detected" % path


@pytest.mark.parametrize("tacred", (False, True))
def test_record_problem_before_a_later_tree_problem_is_reported(tmp_path, tacred):
    message, path = _load_error(tmp_path, {1: {"tokens": 5}, 3: _CYCLIC}, tacred)
    where = "%s: record 1" % path if tacred else "%s:2" % path
    field = "token" if tacred else "tokens"
    assert message == "%s: field %s: expected array, got integer" % (where, field)


@pytest.mark.parametrize("tacred", (False, True))
def test_first_of_several_tree_problems_is_reported(tmp_path, tacred):
    message, path = _load_error(tmp_path, {1: {"dep_head": [2, 3, 1]}, 3: _CYCLIC}, tacred)
    where = "%s: record 1" % path if tacred else "%s:2" % path
    assert message == "%s: sentence r1: no root token; cycle detected" % where


@pytest.mark.parametrize("tacred", (False, True))
def test_annotation_and_tree_problems_keep_the_joined_message(tmp_path, tacred):
    message, path = _load_error(tmp_path, {2: {"head_start": 2, "head_end": 1,
                                               "dep_head": [0, 0, 4]}}, tacred)
    where = "%s: record 2" % path if tacred else "%s:3" % path
    assert message == ("%s: sentence r2: head span start > end; multiple root tokens; "
                       "dep_head value out of range" % where)


@pytest.mark.parametrize("tacred", (False, True))
def test_tree_problem_is_reported_before_a_duplicate_id(tmp_path, tacred):
    message, path = _load_error(tmp_path, {1: {"id": "r0"}, 3: _CYCLIC}, tacred)
    where = "%s: record 3" % path if tacred else "%s:4" % path
    assert message == "%s: sentence r3: cycle detected" % where


def test_tree_problem_in_a_later_split_names_that_file(tmp_path):
    d, _ = _write_split(tmp_path, _records({}), False)
    with open(os.path.join(d, "test.jsonl"), "w") as f:
        f.write(json.dumps(_record(id="t0", dep_head=[0, 1, 1])) + "\n")
        f.write(json.dumps(_record(id="t1", dep_head=[3, 0, 1])) + "\n")
    with pytest.raises(CorpusFormatError) as e:
        load_corpus(d)
    assert str(e.value) == "%s:2: sentence t1: cycle detected" % os.path.join(d, "test.jsonl")
