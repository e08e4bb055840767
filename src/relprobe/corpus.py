"""Data model and ingestion for annotated relation-extraction corpora.

Sentences carry tokens, POS/NER tags, a dependency tree (1-based heads,
0 = root), the head/tail argument spans and a relation label. Two input
profiles are supported: generic-jsonl (one record per line) and tacred-json
(one array per split file, TACRED field names). Their records, and synth's
template files, become Sentences through one decoder that checks JSON types
and validates each sentence. One load keeps one object per distinct string:
its tokens, tags and relations come from one string table.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from itertools import repeat
from json.encoder import encode_basestring_ascii as _encode_ascii
from operator import itemgetter

import numpy as np

from . import deptree

GENERIC_JSONL = "generic-jsonl"
TACRED_JSON = "tacred-json"


@dataclass(frozen=True, slots=True)
class Span:
    start: int
    end: int

    def __contains__(self, i):
        return self.start <= i <= self.end

    def __len__(self):
        return self.end - self.start + 1


@dataclass(frozen=True, slots=True)
class Sentence:
    id: str
    tokens: tuple
    pos: tuple
    ner: tuple
    dep_head: tuple
    dep_label: tuple
    head: Span
    tail: Span
    relation: str

    def __len__(self):
        return len(self.tokens)


@dataclass(frozen=True)
class Corpus:
    train: tuple
    validation: tuple
    test: tuple
    label_inventory: tuple
    negative_label: str | None = None

    def split(self, name):
        return {"train": self.train, "validation": self.validation, "test": self.test}[name]

    def all_sentences(self):
        return self.train + self.validation + self.test


def validate_sentence(s: Sentence):
    """Return a list of invariant-violation descriptions (empty if valid)."""
    problems = _annotation_problems(s)
    if s.tokens and len(s.dep_head) == len(s.tokens):
        problems += deptree.head_problems(s.dep_head)
    return problems


def _annotation_problems(s: Sentence):
    """validate_sentence's problems other than the tree's."""
    n, h, t = len(s.tokens), s.head, s.tail
    if (0 < n == len(s.pos) == len(s.ner) == len(s.dep_head) == len(s.dep_label)
            and 0 <= h.start <= h.end < n and 0 <= t.start <= t.end < n
            and (h.end < t.start or t.end < h.start)):
        return []  # the common case, in one test
    problems = []
    if n < 1:
        return ["empty token list"]
    for name in ("pos", "ner", "dep_head", "dep_label"):
        if len(getattr(s, name)) != n:
            problems.append("annotation length mismatch: %s" % name)
    for label, span in (("head", s.head), ("tail", s.tail)):
        if span.start > span.end:
            problems.append("%s span start > end" % label)
        elif not (0 <= span.start and span.end < n):
            problems.append("%s span out of range" % label)
    if not any(p.startswith(("head", "tail")) for p in problems):
        if s.head.start <= s.tail.end and s.tail.start <= s.head.end:
            problems.append("head and tail spans overlap")
    return problems


class CorpusFormatError(ValueError):
    pass


# Record keys of the two input profiles, in Sentence field order
GENERIC_KEYS = ("id", "tokens", "pos", "ner", "dep_head", "dep_label",
                "head_start", "head_end", "tail_start", "tail_end", "relation")
TACRED_KEYS = ("id", "token", "stanford_pos", "stanford_ner", "stanford_head", "stanford_deprel",
               "subj_start", "subj_end", "obj_start", "obj_end", "relation")
# The JSON types each key may hold, and the type of an array's items
_INTEGER, _STRING, _STRINGS = ((int,), None), ((str,), None), ((list,), str)
_KEY_TYPES = (((str, int), None), _STRINGS, _STRINGS, _STRINGS, ((list,), int), _STRINGS,
              _INTEGER, _INTEGER, _INTEGER, _INTEGER, _STRING)
_JSON_NAMES = {dict: "object", list: "array", str: "string", int: "integer",
               float: "number", bool: "boolean", type(None): "null"}


def _type_problem(keys, values):
    """Describe the first record value of a JSON type _KEY_TYPES does not allow."""
    for key, (types, item_type), value in zip(keys, _KEY_TYPES, values):
        if type(value) not in types:
            return "field %s: expected %s, got %s" % (
                key, " or ".join(map(_JSON_NAMES.get, types)), _JSON_NAMES[type(value)])
        for i, item in enumerate(value if item_type else ()):
            if type(item) is not item_type:
                return "field %s: item %d: expected %s, got %s" % (
                    key, i, _JSON_NAMES[item_type], _JSON_NAMES[type(item)])


class _Strings(dict):
    """A string table: table[x] is the one stored str equal to x, stored on
    its first lookup; TypeError for anything but a str."""

    def __missing__(self, key):
        if type(key) is not str:
            raise TypeError(key)
        self[key] = key
        return key


def _sentence_from_generic(rec, where, keys, strings):
    """The Sentence a decoded JSON record holds under the key names `keys`,
    its tokens, tags and relation taken from the string table `strings`;
    CorpusFormatError prefixed with `where`, the record's place, if the record
    is not an object, lacks a key, holds a value of another JSON type (none is
    coerced) or fails validate_sentence for another reason than its tree,
    which read_sentences checks for a whole file at once."""
    if type(rec) is not dict:
        raise CorpusFormatError("%s: expected a JSON object, got %s"
                                % (where, _JSON_NAMES[type(rec)]))
    try:
        values = itemgetter(*keys)(rec)
    except KeyError as e:  # the first key missing, in field order
        raise CorpusFormatError("%s: missing field %s" % (where, e.args[0])) from None
    sid, tokens, pos, ner, dep_head, dep_label, hs, he, ts, te, relation = values
    s = None
    if ((type(sid) is str or type(sid) is int) and type(relation) is str
            and type(hs) is int and type(he) is int and type(ts) is int and type(te) is int
            and type(tokens) is list and type(pos) is list and type(ner) is list
            and type(dep_label) is list and type(dep_head) is list
            and {int}.issuperset(map(type, dep_head))):
        get = strings.__getitem__
        try:  # TypeError unless every item is a string
            s = Sentence(str(sid), tuple(map(get, tokens)), tuple(map(get, pos)),
                         tuple(map(get, ner)), tuple(dep_head), tuple(map(get, dep_label)),
                         Span(hs, he), Span(ts, te), get(relation))
        except TypeError:
            pass
    if s is None:
        raise CorpusFormatError("%s: %s" % (where, _type_problem(keys, values)))
    if _annotation_problems(s):
        _invalid(s, where)
    return s


def _invalid(s, where):
    subject = "sentence %s: " % s.id if s.id else ""  # templates have no id
    raise CorpusFormatError("%s: %s%s" % (where, subject, "; ".join(validate_sentence(s))))


def read_sentences(records, keys=GENERIC_KEYS, strings=None):
    """The deptree.Packed Sentences of ("where", record) pairs, as
    _sentence_from_generic decodes them from one string table (`strings`,
    else a new one), with the trees of all of them checked in one
    deptree.pack_trees pass, whose starts and tree (as int32) the result
    keeps. The CorpusFormatError still names the first bad record in order:
    when record j fails (or `records` raises at it), the trees of the
    records before j are checked first."""
    sentences, places, error = [], [], None
    strings = _Strings() if strings is None else strings
    try:
        for where, rec in records:
            sentences.append(_sentence_from_generic(rec, where, keys, strings))
            places.append(where)
    except CorpusFormatError as e:
        error = e
    starts, parent, depth, bad = deptree.pack_trees([s.dep_head for s in sentences])
    if len(bad):
        _invalid(sentences[bad[0]], places[bad[0]])
    if error is not None:
        raise error
    split = deptree.Packed(sentences)
    # each dep_head holds one value per token: its starts are the tokens'. A
    # loaded corpus keeps its trees while it lives, in half the bytes.
    split.starts, split.tree = starts, (parent.astype(np.int32), depth.astype(np.int32))
    return split


def read_lines(path, error=CorpusFormatError):
    """Yield (lineno, text) for each line of a UTF-8 text file; a byte that
    is not UTF-8 raises `error` naming path:lineno."""
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as e:
                raise error("%s:%d: %s" % (path, lineno, e)) from None
            yield lineno, line


def jsonl_records(path):
    """Yield ("path:lineno", record) for each non-blank line of a JSONL file;
    CorpusFormatError on a line that is not UTF-8 JSON."""
    for lineno, line in read_lines(path):
        line = line.strip()
        if line:
            try:
                rec = json.loads(line)
            except (ValueError, RecursionError) as e:  # also too many digits, nesting too deep
                raise CorpusFormatError("%s:%d: malformed json (%s)" % (path, lineno, e)) from None
            yield "%s:%d" % (path, lineno), rec


def _read_jsonl_split(path, strings):
    return read_sentences(jsonl_records(path), strings=strings)


def _read_tacred_split(path, strings):
    with open(path, "rb") as f:
        try:
            records = json.loads(f.read().decode("utf-8"))
        except (ValueError, RecursionError) as e:  # JSON, UTF-8 or nesting too deep
            raise CorpusFormatError("%s: malformed json (%s)" % (path, e)) from None
    if type(records) is not list:
        raise CorpusFormatError("%s: expected a JSON array, got %s"
                                % (path, _JSON_NAMES[type(records)]))
    return read_sentences((("%s: record %d" % (path, i), rec) for i, rec in enumerate(records)),
                          TACRED_KEYS, strings)


_NEGATIVE_CANDIDATES = ("no_relation", "Other", "NA", "none")


def load_corpus(path, format_profile=GENERIC_JSONL) -> Corpus:
    """Load and validate a corpus from a directory of split files.

    generic-jsonl expects train.jsonl (+ optional validation.jsonl,
    test.jsonl); tacred-json expects train.json (+ optional dev.json,
    test.json). The splits share one string table; each is a deptree.Packed
    that keeps the starts and the tree its check computed.
    """
    if format_profile == GENERIC_JSONL:
        reader, names = _read_jsonl_split, ("train.jsonl", "validation.jsonl", "test.jsonl")
    elif format_profile == TACRED_JSON:
        reader, names = _read_tacred_split, ("train.json", "dev.json", "test.json")
    else:
        raise CorpusFormatError("unknown format profile: %s" % format_profile)
    splits, seen_ids, strings = [], set(), _Strings()
    for i, name in enumerate(names):
        p = os.path.join(path, name)
        if os.path.exists(p):
            splits.append(reader(p, strings))
        elif i == 0:
            raise CorpusFormatError("missing train split file: %s" % p)
        else:
            splits.append(deptree.Packed())
        for s in splits[-1]:
            if s.id in seen_ids:
                raise CorpusFormatError("%s: duplicate sentence id: %s" % (p, s.id))
            seen_ids.add(s.id)
    inventory = tuple(sorted({s.relation for s in splits[0]}))
    return Corpus(
        train=splits[0],
        validation=splits[1],
        test=splits[2],
        label_inventory=inventory,
        negative_label=next((c for c in _NEGATIVE_CANDIDATES if c in inventory), None),
    )


# One generic-jsonl line, as json.dumps writes a record with GENERIC_KEYS in order
_RECORD = ('{"id": %s, "tokens": [%s], "pos": %s, "ner": %s, "dep_head": %s, "dep_label": %s, '
           '"head_start": %s, "head_end": %s, "tail_start": %s, "tail_end": %s, '
           '"relation": %s}\n')


class _StringTexts(dict):
    """texts[x] is the JSON text of x, computed on its first lookup and
    kept for a str alone, so no text is shared across types."""

    def __missing__(self, x):
        text = json.dumps(x)
        if type(x) is str:
            self[x] = text
        return text


def _jsonl_lines(sentences, strings):
    """The generic-jsonl line of each sentence, in order. Each string's
    JSON text comes from the table `strings`; each annotation tuple's is
    computed once per object (generated sentences share theirs), which
    also keeps equal tuples of other item types apart: True == 1."""
    string, tuples, alive = strings.__getitem__, {}, []
    for s in sentences:
        annotations = []
        for t in (s.pos, s.ner, s.dep_head, s.dep_label):
            text = tuples.get(id(t))
            if text is None:
                alive.append(t)  # its id stays its own while the texts live
                text = tuples[id(t)] = json.dumps(t)
            annotations.append(text)
        hs, he, ts, te = s.head.start, s.head.end, s.tail.start, s.tail.end
        if not type(hs) is type(he) is type(ts) is type(te) is int:
            hs, he, ts, te = map(json.dumps, (hs, he, ts, te))
        sid = s.id
        yield _RECORD % (_encode_ascii(sid) if type(sid) is str else json.dumps(sid),
                         ", ".join(map(string, s.tokens)), *annotations,
                         hs, he, ts, te, string(s.relation))


def write_corpus(corpus: Corpus, path):
    """Write the corpus as generic-jsonl split files into a directory, the
    bytes json.dumps writes for each record, streamed line by line."""
    os.makedirs(path, exist_ok=True)
    strings = _StringTexts()
    for name, sentences in (
        ("train.jsonl", corpus.train),
        ("validation.jsonl", corpus.validation),
        ("test.jsonl", corpus.test),
    ):
        if name != "train.jsonl" and not sentences:
            continue
        with open(os.path.join(path, name), "w", encoding="utf-8") as f:
            f.writelines(_jsonl_lines(sentences, strings))


def entity_masks(sentences, roots) -> list:
    """The masking rule: [SUBJ-<TYPE> of each sentence, OBJ-<TYPE> of each
    sentence], the tokens that replace its head and its tail tokens, <TYPE>
    the NE tag at the span root; roots holds the (2, B) root positions of
    deptree.argument_roots."""
    return [["%s-%s" % (prefix, s.ner[root]) for s, root in zip(sentences, at)]
            for prefix, at in zip(("SUBJ", "OBJ"), roots.tolist())]


def masked_tokens(sentences) -> list:
    """The tokens of each sentence with its head and tail tokens replaced by
    their entity_masks, the span roots read by deptree.argument_roots (no
    tree is built, so an unvalidated cyclic dep_head does not raise).
    Length-preserving and idempotent. REModel.featurize_batch applies the
    same rule to vocab ids."""
    out = []
    for s, subj, obj in zip(sentences, *entity_masks(sentences, deptree.argument_roots(sentences))):
        tokens = list(s.tokens)
        tokens[s.head.start:s.head.end + 1] = [subj] * len(s.head)
        tokens[s.tail.start:s.tail.end + 1] = [obj] * len(s.tail)
        out.append(tuple(tokens))
    return out


@dataclass
class EmbeddingTable:
    """Word vectors as one float32 (V + 1, dim) matrix: row index[token] is
    a token's vector and the last row, unk_row, the vector of every other
    token, the mean of the V rows (zeros when V is 0)."""
    matrix: np.ndarray
    index: dict

    @property
    def dim(self):
        return self.matrix.shape[1]

    @property
    def unk_row(self):
        return len(self.matrix) - 1

    def lookup(self, token):
        return self.matrix[self.index.get(token, self.unk_row)]

    def rows(self, tokens):
        """The matrix row of each token, in one pass."""
        return np.fromiter(map(self.index.get, tokens, repeat(self.unk_row)), np.intp)

    def __len__(self):
        return len(self.index)


def _table(tokens, vectors, dim) -> EmbeddingTable:
    """The table of distinct tokens and their (V, dim) vectors, in order."""
    matrix = np.zeros((len(tokens) + 1, dim), dtype=np.float32)
    if len(tokens):
        matrix[:-1] = vectors
        matrix[-1] = np.mean(matrix[:-1], axis=0)
    return EmbeddingTable(matrix=matrix, index=dict(zip(tokens, range(len(tokens)))))


def load_embeddings(path) -> EmbeddingTable:
    """Parse whitespace-separated `token f1 ... fd` lines into a table, d
    the width of the first line (a repeated token keeps its first row and
    its last vector); CorpusFormatError naming `path:lineno` on a line of
    no value or of another width, on a bad or non-finite value and on a
    byte that is not UTF-8, and naming `path` when it holds no vector."""
    vectors, dim = {}, None
    for lineno, line in read_lines(path):
        parts = line.split()
        if not parts:
            continue
        dim = dim or len(parts) - 1
        if not dim:
            raise CorpusFormatError("%s:%d: no values after %r" % (path, lineno, parts[0]))
        if len(parts) != dim + 1:
            raise CorpusFormatError(
                "%s:%d: expected %d values, got %d" % (path, lineno, dim, len(parts) - 1)
            )
        try:
            # beyond the float32 range a value becomes inf, rejected below
            with np.errstate(over="ignore"):
                vec = np.asarray([float(x) for x in parts[1:]], dtype=np.float32)
        except ValueError as e:
            raise CorpusFormatError("%s:%d: %s" % (path, lineno, e)) from None
        if not np.isfinite(vec).all():
            raise CorpusFormatError("%s:%d: non-finite value" % (path, lineno))
        vectors[parts[0]] = vec
    if dim is None:
        raise CorpusFormatError("%s: no vectors" % path)
    return _table(list(vectors), list(vectors.values()), dim)


def random_embeddings(tokens, dim, seed=0) -> EmbeddingTable:
    """Deterministic random table of the distinct tokens in sorted order;
    used for synthetic-corpus baselines."""
    tokens = sorted(set(tokens))
    rng = np.random.default_rng(seed)
    return _table(tokens, rng.normal(0.0, 1.0, size=(len(tokens), dim)), dim)


class ExactReader:
    """Exact-size reads from an open binary file (RPCK, REPR, CTXV).

    A read past the end raises ValueError naming the path, the byte offset
    and the bytes needed, and never asks the file for more than it has left.
    """

    def __init__(self, f, path):
        self.f, self.path = f, path
        self.size = os.fstat(f.fileno()).st_size

    def read(self, n):
        offset = self.f.tell()
        if n > self.size - offset:
            raise ValueError("%s: truncated file: %d bytes needed at byte offset %d, %d left"
                             % (self.path, n, offset, self.size - offset))
        return self.f.read(n)

    def unpack(self, fmt):
        return struct.unpack(fmt, self.read(struct.calcsize(fmt)))

    def text(self):
        """A UTF-8 string stored as its u32 byte length and its bytes."""
        (n,) = self.unpack("<I")
        offset = self.f.tell()
        try:
            return self.read(n).decode("utf-8")
        except UnicodeDecodeError as e:
            raise ValueError("%s: bad UTF-8 at byte offset %d"
                             % (self.path, offset + e.start)) from None

    def header(self, magic, version):
        """Check the magic bytes and the u32 version each format starts with."""
        got = self.read(len(magic))
        if got != magic:
            raise ValueError("%s: bad magic %r" % (self.path, got))
        (got,) = self.unpack("<I")
        if got != version:
            raise ValueError("%s: unsupported version %d" % (self.path, got))


def write_text(f, text):
    """Write a string the way ExactReader.text reads it."""
    raw = text.encode("utf-8")
    f.write(struct.pack("<I", len(raw)))
    f.write(raw)


CTX_MAGIC = b"CTXV"


@dataclass
class ContextualStore:
    matrices: dict

    def __len__(self):
        return len(self.matrices)

    def get(self, sid):
        return self.matrices.get(sid)


def load_contextual(path) -> ContextualStore:
    """Read the CTXV binary format of per-token contextual vectors; ValueError
    on a malformed or truncated file, on a repeated sentence id, on a record
    of another width than the first and on a NaN or infinite value."""
    matrices = {}
    with open(path, "rb") as f:
        r = ExactReader(f, path)
        r.header(CTX_MAGIC, 1)
        while f.tell() < r.size:
            offset = f.tell()
            sid = r.text()
            t, d = r.unpack("<II")
            if sid in matrices:
                raise ValueError("%s: duplicate sentence id %r at byte offset %d"
                                 % (path, sid, offset))
            if matrices and d != width:
                raise ValueError("%s: sentence %r at byte offset %d has width %d, the first "
                                 "record %d" % (path, sid, offset, d, width))
            width = d
            data = np.frombuffer(r.read(4 * t * d), dtype="<f4").reshape(t, d)
            if not np.isfinite(data).all():
                raise ValueError("%s: non-finite value in sentence %r" % (path, sid))
            matrices[sid] = data.astype(np.float32)
    return ContextualStore(matrices=matrices)


def write_contextual(store: ContextualStore, path):
    with open(path, "wb") as f:
        f.write(CTX_MAGIC)
        f.write(struct.pack("<I", 1))
        for sid in store.matrices:
            m = np.asarray(store.matrices[sid], dtype="<f4")
            write_text(f, sid)
            f.write(struct.pack("<II", m.shape[0], m.shape[1]))
            f.write(m.tobytes())
