import hashlib
import json
import math
from collections import Counter

import numpy as np
import pytest

from relprobe import probegen, synth
from relprobe.corpus import Span
from relprobe.probegen import (BinSpec, build_all, build_tasks, extract, load_dataset,
                               quantile_bins, save_dataset, tree_values)

import reference_trees
from conftest import make_sentence, random_parents


# ---------------------------------------------------------------- binning

def test_quantile_bins_even_split():
    spec = quantile_bins([1, 2, 3, 4, 5, 6, 7, 8], 4)
    assert spec.boundaries == (2, 4, 6, math.inf)
    assert [spec.assign(v) for v in (1, 2, 3, 6, 7, 100)] == [0, 0, 1, 2, 3, 3]


def test_quantile_bins_duplicates_merged():
    spec = quantile_bins([1, 1, 1, 1, 1, 9], 4)
    assert spec.boundaries == (1, math.inf)


def test_quantile_bins_all_equal_collapses():
    spec = quantile_bins([5] * 20, 6)
    assert spec.boundaries == (math.inf,)
    assert spec.n_bins == 1


def test_quantile_bins_masses_balanced():
    rng = np.random.default_rng(0)
    values = [int(v) for v in rng.integers(0, 1000, size=5000)]
    spec = quantile_bins(values, 10)
    counts = Counter(spec.assign(v) for v in values)
    assert spec.n_bins == 10
    # independent check: each quantile bin holds about 1/10 of the mass
    assert max(counts.values()) <= 1.3 * min(counts.values())


def test_bin_labels():
    spec = BinSpec((3, 7, math.inf))
    assert spec.labels() == ("bin00", "bin01", "bin02")
    assert spec.label(8) == "bin02"


def test_quantile_bins_rejects_bad_input():
    with pytest.raises(ValueError):
        quantile_bins([], 4)
    with pytest.raises(ValueError):
        quantile_bins([1, 2], 1)


# ----------------------------------------------------------- raw extract

def _rich_sentence():
    # alice(0) met the ORG chief bob(5) -> head=alice, tail=bob
    return make_sentence([2, 0, 6, 6, 6, 2], head=Span(0, 0), tail=Span(5, 5))


def test_extract_sentlen_and_argdist():
    s = _rich_sentence()
    assert extract("SentLen", s) == 6
    assert extract("ArgDist", s) == 4


def test_argdist_adjacent_spans_is_zero():
    s = make_sentence([2, 0, 2], head=Span(0, 0), tail=Span(1, 1))
    assert extract("ArgDist", s) == 0


def test_argdist_symmetric_in_order():
    fwd = make_sentence([2, 0, 2, 2], head=Span(0, 0), tail=Span(3, 3))
    rev = make_sentence([2, 0, 2, 2], head=Span(3, 3), tail=Span(0, 0))
    assert extract("ArgDist", fwd) == extract("ArgDist", rev) == 2


def test_extract_entexist():
    from dataclasses import replace
    s = _rich_sentence()
    assert extract("EntExist", s) == "no"
    marked = replace(s, ner=("O", "O", "O", "ORG", "O", "O"))
    assert extract("EntExist", marked) == "yes"


def test_extract_argord():
    s = _rich_sentence()
    assert extract("ArgOrd", s) == "head-first"
    swapped = make_sentence([2, 0, 2], head=Span(2, 2), tail=Span(0, 0))
    assert extract("ArgOrd", swapped) == "tail-first"


def test_extract_depth_tasks():
    # chain of depth 3; args at the two ends
    s = make_sentence([0, 1, 2, 3], head=Span(0, 0), tail=Span(3, 3))
    assert tree_values([s])[:2] == ([3], [3])


def test_tree_depth_clamped():
    n = 25
    s = make_sentence([i for i in range(n)], head=Span(0, 0), tail=Span(n - 1, n - 1))
    assert tree_values([s])[0] == [probegen.TREE_DEPTH_CLAMP]


def _per_sentence_values(s):
    """The TREE_TASKS values of one sentence from its DepTree and the
    span_root oracle: the NE tag and the dependency label at each span
    root, a label outside GR_CLASSES read as "other"."""
    tree = reference_trees.build_tree(s.dep_head)
    roots = (reference_trees.span_root(s.dep_head, s.head),
             reference_trees.span_root(s.dep_head, s.tail))
    depth = min(reference_trees.tree_depth(tree), probegen.TREE_DEPTH_CLAMP)
    roles = [s.dep_label[r] if s.dep_label[r] in probegen.GR_CLASSES else "other" for r in roots]
    return (depth, reference_trees.sdp(tree, *roots).depth, *(s.ner[r] for r in roots), *roles)


def _oracle_check(sentences):
    expected = [_per_sentence_values(s) for s in sentences]
    assert tree_values(sentences) == tuple(map(list, zip(*expected)))


def test_depth_values_equal_per_sentence_trees_on_every_template():
    templates = synth.default_templates() + synth.type_pair_templates()
    _oracle_check(templates)
    cfg = synth.SynthConfig(n_train=400, n_val=0, n_test=0, templates=templates,
                            lexicons=synth.default_lexicons(), seed=3, pad_max=8)
    train = synth.generate(cfg).train
    assert {len(s) for s in train} > {len(t) for t in templates}  # padded, deeper trees
    _oracle_check(train)


def _random_span_pair(rng, n):
    """Two disjoint spans in n tokens (one token shared when n == 1)."""
    if n == 1:
        return Span(0, 0), Span(0, 0)
    cut = int(rng.integers(1, n))
    left = sorted(rng.integers(0, cut, size=2).tolist())
    right = sorted(rng.integers(cut, n, size=2).tolist())
    pair = (Span(*left), Span(*right))
    return pair if rng.random() < 0.5 else pair[::-1]


ROLES = probegen.GR_CLASSES + ("nmod", "amod", "dep")


def _random_tree_sentences():
    """1200 sentences of random trees (every tenth a chain) and span pairs;
    NE tag j names token j, and the dependency labels cycle through
    GR_CLASSES and three other roles."""
    from dataclasses import replace
    rng = np.random.default_rng(11)
    sentences = []
    for i in range(1200):
        n = int(rng.integers(1, 40))
        dep_head = random_parents(rng, n) if i % 10 else [j for j in range(n)]  # some chains
        head, tail = _random_span_pair(rng, n)
        s = make_sentence(dep_head, head=head, tail=tail, sid="r%d" % i)
        sentences.append(replace(s, ner=tuple("E%d" % j for j in range(n)),
                                 dep_label=tuple(ROLES[(i + j) % len(ROLES)] for j in range(n))))
    return sentences


def test_depth_values_equal_per_sentence_trees_on_random_trees():
    sentences = _random_tree_sentences()
    projective = sum(not _crossing(s.dep_head) for s in sentences)
    assert 0 < projective < len(sentences)
    assert max(_per_sentence_values(s)[0] for s in sentences) == probegen.TREE_DEPTH_CLAMP
    _oracle_check(sentences)
    for part in (sentences[:1], sentences[5:9], sentences[::7]):  # packed in other groups
        _oracle_check(part)


def test_type_and_role_tasks_read_the_oracle_span_roots(bin_corpus):
    """build_tasks labels TypeHead/Tail with the NE tag at the span_root
    oracle's root and GRHead/Tail with the dependency label there, a role
    outside GR_CLASSES reading "other"."""
    from dataclasses import replace
    sentences = _random_tree_sentences()
    corpus = replace(bin_corpus, train=tuple(sentences[:800]),
                     validation=tuple(sentences[800:1000]), test=tuple(sentences[1000:]))
    datasets = build_tasks(["TypeHead", "TypeTail", "GRHead", "GRTail"], corpus, "tacred")
    for ds in datasets:
        arg = "head" if "Head" in ds.task else "tail"
        values = {s.id: (s.ner if ds.task.startswith("Type") else s.dep_label)[
            reference_trees.span_root(s.dep_head, getattr(s, arg))] for s in sentences}
        if ds.task.startswith("GR"):
            assert set(ds.labels) == set(probegen.GR_CLASSES) | {"other"}
            values = {sid: v if v in probegen.GR_CLASSES else "other"
                      for sid, v in values.items()}
        else:
            assert ds.labels == tuple(sorted({values[s.id] for s in corpus.train}))
        for split in ("train", "validation", "test"):
            assert ds.splits[split] == tuple((s.id, values[s.id]) for s in corpus.split(split))


def _crossing(dep_head):
    """Whether two arcs of the tree cross (the tree is non-projective)."""
    arcs = [tuple(sorted((i, h - 1))) for i, h in enumerate(dep_head) if h]
    return any(a < c < b < d for a, b in arcs for c, d in arcs)


@pytest.mark.parametrize("dep_head, problem", (([2, 3, 1], "no root token; cycle detected"),
                                               ([0, 3, 2], "cycle detected"),
                                               ([0, 0, 2], "multiple root tokens"),
                                               ([0, 9, 1], "dep_head value out of range")))
def test_depth_tasks_name_a_sentence_that_is_not_one_tree(bin_corpus, dep_head, problem):
    """A depth task, a type task and a role task: each reads the tree."""
    from dataclasses import replace
    bad = make_sentence(dep_head, head=Span(0, 0), tail=Span(2, 2), sid="bad")
    corpus = replace(bin_corpus, validation=bin_corpus.validation[:3] + (bad,))
    for task in ("SDPTreeDepth", "TypeTail", "GRHead"):
        with pytest.raises(ValueError, match="^sentence bad: %s$" % problem):
            build_tasks([task], corpus, "tacred")
    assert build_tasks(["SentLen"], corpus, "tacred")  # no tree read


def test_depth_tasks_name_a_sentence_with_too_few_heads():
    from dataclasses import replace
    s = replace(make_sentence([2, 0, 2]), dep_head=(2, 0), id="short")
    with pytest.raises(ValueError, match="^2 dep_head values for the 3 tokens of sentence short$"):
        tree_values([s])


def test_extract_pos_neighbors():
    from dataclasses import replace
    s = replace(_rich_sentence(), pos=("NNP", "VBD", "DT", "NNP", "NN", "NNP"))
    assert extract("PosHeadL", s) == probegen.BOUNDARY_LEFT
    assert extract("PosHeadR", s) == "VBD"
    assert extract("PosTailL", s) == "NN"
    assert extract("PosTailR", s) == probegen.BOUNDARY_RIGHT


def _tree_value(task, s):
    return tree_values([s])[probegen.TREE_TASKS.index(task)][0]


def test_extract_types_and_roles():
    from dataclasses import replace
    s = replace(_rich_sentence(),
                ner=("PER", "O", "O", "ORG", "O", "PER"),
                dep_label=("nsubj", "root", "det", "compound", "compound", "dobj"))
    assert _tree_value("TypeHead", s) == "PER"
    assert _tree_value("TypeTail", s) == "PER"
    assert _tree_value("GRHead", s) == "nsubj"
    assert _tree_value("GRTail", s) == "dobj"


def test_gr_non_core_role_maps_to_other():
    from dataclasses import replace
    s = replace(make_sentence([2, 0, 2]), dep_label=("nmod", "root", "dobj"))
    assert _tree_value("GRHead", s) == "other"


def test_extract_unknown_task():
    with pytest.raises(ValueError, match="unknown task"):
        extract("Nope", _rich_sentence())


# ----------------------------------------------------------- build_tasks

@pytest.fixture(scope="module")
def bin_corpus():
    cfg = synth.SynthConfig(n_train=300, n_val=60, n_test=60,
                            templates=synth.default_templates(),
                            lexicons=synth.default_lexicons(), seed=9, pad_max=8)
    return synth.generate(cfg)


def test_build_sentlen_bins_fit_on_train(bin_corpus):
    ds = build_tasks(["SentLen"], bin_corpus, "tacred")[0]
    spec = probegen.quantile_bins([len(s) for s in bin_corpus.train], 10)
    assert ds.bin_spec == spec
    by_id = {s.id: s for s in bin_corpus.all_sentences()}
    for split in ("train", "validation", "test"):
        for sid, label in ds.splits[split]:
            assert label == spec.label(len(by_id[sid]))


def test_build_categorical_labels_sorted(bin_corpus):
    ds = build_tasks(["TypeHead"], bin_corpus, "tacred")[0]
    assert ds.labels == tuple(sorted(ds.labels))
    assert set(ds.labels) <= {"PER", "ORG", "LOC"}


def test_gr_inventory_always_has_other(bin_corpus):
    for task in ("GRHead", "GRTail"):
        ds = build_tasks([task], bin_corpus, "tacred")[0]
        assert ds.labels[-1] == "other"
        assert all(l in probegen.GR_CLASSES or l == "other" for l in ds.labels)


def test_semeval_exclusions(bin_corpus):
    with pytest.raises(ValueError, match="excluded"):
        build_tasks(["ArgOrd"], bin_corpus, "semeval")
    names = {ds.task for ds in build_all(bin_corpus, "semeval")}
    assert names == set(probegen.TASKS) - {"ArgOrd", "EntExist"}


def test_build_all_tacred(bin_corpus):
    datasets = build_all(bin_corpus, "tacred")
    assert [ds.task for ds in datasets] == list(probegen.TASKS)
    n = len(bin_corpus.train)
    for ds in datasets:
        assert len(ds.splits["train"]) == n
        assert {label for _, label in ds.splits["train"]} <= set(ds.labels)


def test_profile_bin_counts(bin_corpus):
    tac = build_tasks(["SentLen"], bin_corpus, "tacred")[0]
    sem = build_tasks(["SentLen"], bin_corpus, "semeval")[0]
    assert tac.bin_spec.n_bins <= 10
    assert sem.bin_spec.n_bins <= 7
    assert sem.bin_spec.n_bins < tac.bin_spec.n_bins


def test_dataset_roundtrip(tmp_path, bin_corpus):
    for task in ("SentLen", "TypeHead"):
        ds = build_tasks([task], bin_corpus, "tacred")[0]
        p = str(tmp_path / ("%s.jsonl" % task))
        save_dataset(ds, p)
        assert load_dataset(p) == ds


# ------------------------------------------------------- dataset bytes

# sha256 of each save_dataset file of build_all on _pinned_corpus()
_PINNED = {
    "tacred": {
        "SentLen": "34fc58d34826b51fd0bbcd3b083d24edb8e38cd51b017ad09eb4446f6ec3a32b",
        "ArgDist": "4e2e126b3fd733e2ad3331a0f955d417c8295b2884485ec697b1daf2e4c19307",
        "EntExist": "ea7da026e4bfee908e75dd3414ab1317dc9466cb68fc1e1ff046ae9cfcc74d71",
        "TreeDepth": "3f15d5e43721710370624fd5e49fa85eaa699bf283ee106a3083d27b96e9f469",
        "SDPTreeDepth": "40afb748d75617508c8e6462f72304ad03a9a4dcc8a0fec40039241b4b0b00f2",
        "ArgOrd": "e7fc51dd8be0d37d2b26e2d81f2f01ddc448f91169974da647269eca8b0986f9",
        "PosHeadL": "d5b5f99999fe3b3749d97620ed54cabc2b5ef7a7ec18423f51d20b33e9a406cc",
        "PosHeadR": "db6fa01d1e58723b55e02203af03eb172d950b34e8af2ad17b28a53790770665",
        "PosTailL": "2ee8b25df981a094527e3fb03acfb58fd479e14b2dbd71352fae571888e65215",
        "PosTailR": "d352cccff58211b0054f907a1a3ca1dfbd7141083952a2947c5565d3bb0d92e7",
        "TypeHead": "e4a099d14a956cddea895bc9331121b84d10e208a74cbd04611fa21750994b70",
        "TypeTail": "791f7a41263f7b2d89d97c5470a1c4cbc4f54ba656ca43a72c5e7a7f1824a811",
        "GRHead": "bf07624d732fb7734d344ed5eaa1537f2d9b51af97e5d8f88f87e118856fab16",
        "GRTail": "4714a4d15af81c367c6453caefb4d9a18e2079edf135b74883f24ec3b8cba7fd",
    },
    "semeval": {
        "SentLen": "282370a4ce7d2ebbf549358ac2cb3c854628aeffd6c19bca13dce64c794cec59",
        "ArgDist": "abfc5936970e722c1fcf5843303b87007fd9e9fa9ca21bac9c5107e637167980",
        "TreeDepth": "54bf5187a7530c22ddcfbedd1f34b48804076901a033539b176398ea0ac12ea8",
        "SDPTreeDepth": "40afb748d75617508c8e6462f72304ad03a9a4dcc8a0fec40039241b4b0b00f2",
        "PosHeadL": "d5b5f99999fe3b3749d97620ed54cabc2b5ef7a7ec18423f51d20b33e9a406cc",
        "PosHeadR": "db6fa01d1e58723b55e02203af03eb172d950b34e8af2ad17b28a53790770665",
        "PosTailL": "2ee8b25df981a094527e3fb03acfb58fd479e14b2dbd71352fae571888e65215",
        "PosTailR": "d352cccff58211b0054f907a1a3ca1dfbd7141083952a2947c5565d3bb0d92e7",
        "TypeHead": "e4a099d14a956cddea895bc9331121b84d10e208a74cbd04611fa21750994b70",
        "TypeTail": "791f7a41263f7b2d89d97c5470a1c4cbc4f54ba656ca43a72c5e7a7f1824a811",
        "GRHead": "bf07624d732fb7734d344ed5eaa1537f2d9b51af97e5d8f88f87e118856fab16",
        "GRTail": "4714a4d15af81c367c6453caefb4d9a18e2079edf135b74883f24ec3b8cba7fd",
    },
}


def _pinned_corpus():
    return synth.generate(synth.SynthConfig(
        n_train=200, n_val=50, n_test=50, templates=synth.default_templates(),
        lexicons=synth.default_lexicons(), seed=20, pad_max=8))


@pytest.mark.parametrize("profile", sorted(_PINNED))
def test_dataset_files_are_pinned(tmp_path, profile):
    got = {}
    for ds in build_all(_pinned_corpus(), profile):
        path = tmp_path / (ds.task + ".jsonl")
        save_dataset(ds, str(path))
        got[ds.task] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == _PINNED[profile]


def _json_lines(ds):
    """The lines save_dataset writes, as json.dumps of one dict per split."""
    lines = []
    for split in probegen.SPLITS:
        rec = {"task": ds.task, "labels": list(ds.labels), "split": split,
               "items": [{"id": sid, "label": label} for sid, label in ds.splits[split]]}
        if ds.bin_spec is not None:
            rec["boundaries"] = [b if math.isfinite(b) else "inf" for b in ds.bin_spec.boundaries]
        lines.append(json.dumps(rec) + "\n")
    return lines


_AWKWARD = ('plain', 'say "hi"', 'back\\slash', 'tab\there', 'nl\nand\rcr', '\x00\x1f\x7f',
            'café', '日本', 'emoji \U0001f600', '\ud800 lone', '</S>', '')


@pytest.mark.parametrize("bins", (None, BinSpec((0, 2.5, 7, math.inf))))
def test_save_dataset_lines_equal_json_dumps(tmp_path, bins):
    labels = tuple(sorted(set(_AWKWARD)))
    items = tuple(("%s-%d" % (text, i), labels[i % len(labels)])
                  for i, text in enumerate(_AWKWARD))
    for splits in ({"train": items, "validation": items[:3], "test": items[::-1]},
                   {"train": items, "validation": (), "test": ()}):
        ds = probegen.ProbingDataset(task='Ta"ské', labels=labels, splits=splits,
                                     bin_spec=bins)
        path = tmp_path / "ds.jsonl"
        save_dataset(ds, str(path))
        with open(path, encoding="utf-8") as f:
            assert f.readlines() == _json_lines(ds)
