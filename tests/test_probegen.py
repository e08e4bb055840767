import math
from collections import Counter

import numpy as np
import pytest

from relprobe import deptree, probegen, synth
from relprobe.corpus import Span
from relprobe.probegen import (BinSpec, build_all, build_tasks,
                               extract, load_dataset, quantile_bins,
                               save_dataset)

from conftest import make_sentence


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


def _tree(s):
    return deptree.build_tree(s.dep_head)


def test_extract_sentlen_and_argdist():
    s = _rich_sentence()
    assert extract("SentLen", s, _tree(s)) == 6
    assert extract("ArgDist", s, _tree(s)) == 4


def test_argdist_adjacent_spans_is_zero():
    s = make_sentence([2, 0, 2], head=Span(0, 0), tail=Span(1, 1))
    assert extract("ArgDist", s, _tree(s)) == 0


def test_argdist_symmetric_in_order():
    fwd = make_sentence([2, 0, 2, 2], head=Span(0, 0), tail=Span(3, 3))
    rev = make_sentence([2, 0, 2, 2], head=Span(3, 3), tail=Span(0, 0))
    assert extract("ArgDist", fwd, _tree(fwd)) == extract("ArgDist", rev, _tree(rev)) == 2


def test_extract_entexist():
    from dataclasses import replace
    s = _rich_sentence()
    assert extract("EntExist", s, _tree(s)) == "no"
    marked = replace(s, ner=("O", "O", "O", "ORG", "O", "O"))
    assert extract("EntExist", marked, _tree(marked)) == "yes"


def test_extract_argord():
    s = _rich_sentence()
    assert extract("ArgOrd", s, _tree(s)) == "head-first"
    swapped = make_sentence([2, 0, 2], head=Span(2, 2), tail=Span(0, 0))
    assert extract("ArgOrd", swapped, _tree(swapped)) == "tail-first"


def test_extract_depth_tasks():
    # chain of depth 3; args at the two ends
    s = make_sentence([0, 1, 2, 3], head=Span(0, 0), tail=Span(3, 3))
    assert extract("TreeDepth", s, _tree(s)) == 3
    assert extract("SDPTreeDepth", s, _tree(s)) == 3


def test_tree_depth_clamped():
    n = 25
    s = make_sentence([i for i in range(n)], head=Span(0, 0), tail=Span(n - 1, n - 1))
    assert extract("TreeDepth", s, _tree(s)) == probegen.TREE_DEPTH_CLAMP


def test_extract_pos_neighbors():
    from dataclasses import replace
    s = replace(_rich_sentence(), pos=("NNP", "VBD", "DT", "NNP", "NN", "NNP"))
    t = _tree(s)
    assert extract("PosHeadL", s, t) == probegen.BOUNDARY_LEFT
    assert extract("PosHeadR", s, t) == "VBD"
    assert extract("PosTailL", s, t) == "NN"
    assert extract("PosTailR", s, t) == probegen.BOUNDARY_RIGHT


def test_extract_types_and_roles():
    from dataclasses import replace
    s = replace(_rich_sentence(),
                ner=("PER", "O", "O", "ORG", "O", "PER"),
                dep_label=("nsubj", "root", "det", "compound", "compound", "dobj"))
    t = _tree(s)
    assert extract("TypeHead", s, t) == "PER"
    assert extract("TypeTail", s, t) == "PER"
    assert extract("GRHead", s, t) == "nsubj"
    assert extract("GRTail", s, t) == "dobj"


def test_gr_non_core_role_maps_to_other():
    from dataclasses import replace
    s = replace(make_sentence([2, 0, 2]), dep_label=("nmod", "root", "dobj"))
    assert extract("GRHead", s, _tree(s)) == "other"


def test_extract_unknown_task():
    with pytest.raises(ValueError, match="unknown task"):
        extract("Nope", _rich_sentence(), _tree(_rich_sentence()))


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
