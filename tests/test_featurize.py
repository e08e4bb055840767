"""Each sentence's derived inputs are prepared once per run: trees in
probegen.build_tasks (tree tasks), model inputs in REModel.featurize, whose
forward pass gives the same logits as before. Both read the packed facts of
a deptree.Packed split: one deptree.pack_trees pass per plain list, none for
a loaded split, whose loader check filled them in. A loaded split, a
generated one, a plain list and a tuple slice of the same sentences give
the same bytes."""

from dataclasses import replace

import numpy as np
import pytest

from relprobe import autodiff as ad
from relprobe import corpus as corpus_module
from relprobe import deptree, encoders, probegen, synth
from relprobe.corpus import (Corpus, Sentence, Span, entity_masks, load_corpus, masked_tokens,
                             random_embeddings, write_corpus)
from relprobe.encoders import EVAL_BATCH, EncoderConfig, InputConfig, REModel, Vocab
from relprobe.probing import BASELINES, baseline_reps, extract_reps
from relprobe.training import (HyperProfile, desk_encoder_config, desk_input_config,
                               train_re)

from conftest import make_sentence

# ------------------------------------------------------------ tree packs


@pytest.fixture
def tree_packs(monkeypatch):
    """The dep_head lists of each deptree.pack_trees call made through the
    module attribute, which deptree.Packed also calls."""
    packs = []
    real = deptree.pack_trees

    def counting(dep_heads):
        packs.append(list(dep_heads))
        return real(dep_heads)

    monkeypatch.setattr(deptree, "pack_trees", counting)
    return packs


@pytest.fixture(scope="module")
def corpus(small_corpus):
    return Corpus(train=small_corpus.train[:16], validation=small_corpus.validation[:8],
                  test=small_corpus.test[:8], label_inventory=small_corpus.label_inventory,
                  negative_label=small_corpus.negative_label)


def _profile(epochs):
    return HyperProfile("t", "adam", 1e-2, epochs, 8, pos_dim=8)


@pytest.mark.parametrize("masking", (False, True), ids=("unmasked", "masked"))
def test_cnn_training_builds_no_tree(corpus, tree_packs, masking):
    """Masking reads span roots off dep_head: only GCN packs trees."""
    model, _ = train_re(corpus, desk_input_config(masking=masking),
                        desk_encoder_config("cnn"), _profile(2))
    extract_reps(model, corpus.test)
    assert tree_packs == []


def test_masked_gcn_training_builds_independent_of_epochs(corpus, tree_packs):
    """Training packs the train split once and the validation split once,
    however many epochs it runs."""
    for epochs in (1, 3):
        del tree_packs[:]
        train_re(corpus, desk_input_config(masking=True), desk_encoder_config("gcn"),
                 _profile(epochs))
        assert tree_packs == [[s.dep_head for s in split]
                              for split in (corpus.train, corpus.validation)]


def test_extract_builds_each_tree_once(corpus, small_corpus, tree_packs, tmp_path):
    """Extraction packs a plain split once, however many chunks of
    EVAL_BATCH sentences it runs, and a loaded split not at all."""
    model, _ = train_re(corpus, desk_input_config(masking=True),
                        desk_encoder_config("gcn"), _profile(1))
    sentences = small_corpus.train[:2 * EVAL_BATCH + 3]
    del tree_packs[:]
    extract_reps(model, sentences)
    assert tree_packs == [[s.dep_head for s in sentences]]
    write_corpus(corpus, str(tmp_path))
    loaded = load_corpus(str(tmp_path))
    del tree_packs[:]
    extract_reps(model, loaded.test)
    assert tree_packs == []


@pytest.mark.parametrize("kind", ("boe", "gcn"))
def test_masked_training_masks_each_sentence_once(corpus, monkeypatch, kind):
    """train_re masks each training sentence once, for the vocabulary and
    the packed ids alike (masked_tokens), and each validation sentence once
    (on ids): one entity_masks pass over the root tags of each."""
    calls = []

    def counting(sentences, roots):
        calls.extend(s.id for s in sentences)
        return entity_masks(sentences, roots)

    for module in (corpus_module, encoders):
        monkeypatch.setattr(module, "entity_masks", counting)
    train_re(corpus, desk_input_config(masking=True), desk_encoder_config(kind), _profile(2))
    assert sorted(calls) == sorted(s.id for s in corpus.train + corpus.validation)


def test_build_tasks_builds_each_tree_once_and_only_when_read(corpus, tree_packs, tmp_path):
    """One deptree.pack_trees pass per plain split packs each sentence's
    tree once; a loaded split keeps the trees its loader's check packed."""
    probegen.build_all(corpus)
    assert tree_packs == [[s.dep_head for s in split]
                          for split in (corpus.train, corpus.validation, corpus.test)]
    del tree_packs[:]
    probegen.build_tasks(["TypeHead"], corpus)
    assert tree_packs == [[s.dep_head for s in split]
                          for split in (corpus.train, corpus.validation, corpus.test)]
    del tree_packs[:]
    probegen.build_tasks(["SentLen", "ArgOrd", "PosHeadL"], corpus)
    assert tree_packs == []
    write_corpus(corpus, str(tmp_path))
    loaded = load_corpus(str(tmp_path))
    del tree_packs[:]
    assert probegen.build_all(loaded) == probegen.build_all(corpus)
    assert len(tree_packs) == 3  # the plain corpus's alone


# ------------------------------------------------------ one packed view

# spans of two tokens, each rooted at its second token
TWO_TOKEN_SPANS = Sentence(
    id="", tokens=("[PER]", "[PER]", "joined", "the", "[ORG]", "[ORG]"),
    pos=("NNP", "NNP", "VBD", "DT", "NNP", "NNP"), ner=("PER", "PER", "O", "O", "ORG", "ORG"),
    dep_head=(2, 3, 0, 6, 6, 3), dep_label=("compound", "nsubj", "root", "det", "compound", "dobj"),
    head=Span(0, 1), tail=Span(4, 5), relation="per:joined")


@pytest.fixture(scope="module")
def generated_dir(tmp_path_factory):
    """A generated corpus with one- and two-token spans, and its directory."""
    cfg = synth.SynthConfig(n_train=2 * EVAL_BATCH + 7, n_val=3, n_test=3,
                            templates=synth.default_templates() + (TWO_TOKEN_SPANS,),
                            lexicons=synth.default_lexicons(), seed=5, pad_max=6)
    path = str(tmp_path_factory.mktemp("generated"))
    write_corpus(synth.generate(cfg), path)
    return cfg, path


def _four_ways(generated_dir):
    """The same sentences, each time anew: a loaded split (the loader filled
    in its starts and tree), a generated one (it computes its facts), a
    plain list and a tuple slice."""
    cfg, path = generated_dir
    loaded, generated = load_corpus(path).train, synth.generate(cfg).train
    ways = [loaded, generated, list(generated), loaded[:]]
    assert "tree" in loaded.__dict__ and "tree" not in generated.__dict__
    assert loaded.tree[0].dtype == loaded.tree[1].dtype == np.int32  # kept in half the bytes
    assert type(ways[-1]) is tuple and all(tuple(way) == ways[0] for way in ways)
    assert any(len(s.head) > 1 for s in loaded)
    return ways


def _feature_bytes(f):
    """Every array of f as bytes; gcn adjacencies sentence by sentence, each
    read from its block at its slots."""
    keep = ()
    if f.graph is not None:
        *masks, blocks, slots = f.graph
        adjs = [blocks[b][j] for b, j in slots.T]
        keep = [m.tobytes() for m in masks] + [(a.shape, a.tobytes()) for a in adjs]
    return (f.ids.tobytes(), [o.tobytes() for o in f.offsets], f.ctx, keep, f.starts.tobytes())


def test_a_packed_split_packs_its_trees_once(generated_dir, tree_packs):
    """Each Packed runs deptree.pack_trees at most once however often its
    facts are read; roots read first takes no tree; a loaded split keeps
    the loader's starts and tree and packs nothing."""
    cfg, path = generated_dir
    generated, loaded = synth.generate(cfg).train, load_corpus(path).train
    heads = [s.dep_head for s in generated]
    del tree_packs[:]  # the loader's check
    for split in (generated, deptree.Packed(list(generated))):
        roots = split.roots
        assert tree_packs == [] and "tree" not in split.__dict__
        for _ in range(3):
            split.tree, split.roots, split.starts, split.bounds
        assert tree_packs == [heads] and split.roots is roots
        del tree_packs[:]
    starts, tree = loaded.starts, loaded.tree
    loaded.roots, loaded.bounds, probegen.tree_values(loaded)
    assert tree_packs == [] and loaded.starts is starts and loaded.tree is tree
    with pytest.raises(AttributeError, match="'Packed' object has no attribute 'depth'"):
        loaded.depth


def test_probing_inputs_are_the_same_bytes_four_ways(generated_dir):
    table = random_embeddings({t for s in _four_ways(generated_dir)[0] for t in s.tokens}, 5)
    got = [(repr(probegen.column_values(way)), repr(probegen.tree_values(way)),
            [(r.ids, r.rows.tobytes()) for r in (baseline_reps(kind, way, table)
                                                 for kind in BASELINES)])
           for way in _four_ways(generated_dir)]
    assert got[1:] == got[:1] * 3


@pytest.mark.parametrize("masking", (False, True), ids=("unmasked", "masked"))
@pytest.mark.parametrize("kind", ("cnn", "bilstm", "gcn", "attn", "boe"))
def test_features_are_the_same_bytes_four_ways(generated_dir, kind, masking):
    ways = _four_ways(generated_dir)
    vocab = Vocab.from_tokens([s.tokens for s in ways[0]] + masked_tokens(ways[0])[::2])
    model = REModel(vocab, ("a", "b"), desk_input_config(masking=masking),
                    desk_encoder_config(kind), seed=0)
    got = [_feature_bytes(model.featurize_batch(way)) for way in ways]
    assert got[1:] == got[:1] * 3
    packs = [deptree.packed(way) for way in ways]  # the roots off the tree and off the spans
    assert len({p.roots.tobytes() for p in packs}) == 1


@pytest.mark.parametrize("dep_head, problem", (
    ((0, 3, 2), "sentence bad: cycle detected"),
    ((2, 3, 1), "sentence bad: no root token; cycle detected"),
    ((0, 2), "2 dep_head values for the 3 tokens of sentence bad")))
def test_a_plain_list_names_a_sentence_that_is_not_one_tree(dep_head, problem):
    """tree_values and GCN featurization of a plain list or a tuple slice
    raise as they did; masking alone builds no tree."""
    good = [make_sentence((2, 0, 2), sid="g%d" % i) for i in range(3)]
    bad = replace(make_sentence((0, 1, 1), sid="bad"), dep_head=dep_head)
    vocab = Vocab(["tok0", "tok1"])
    gcn, cnn = (REModel(vocab, ("rel",), desk_input_config(masking=True),
                        desk_encoder_config(kind), seed=0) for kind in ("gcn", "cnn"))
    for sentences in (good + [bad], tuple(good + [bad, good[0]])[:4]):
        for call in (probegen.tree_values, gcn.featurize_batch):
            with pytest.raises(ValueError, match="^%s$" % problem):
                call(sentences)
        if len(dep_head) == 3:
            cnn.featurize_batch(sentences)


@pytest.mark.parametrize("masking", (False, True), ids=("unmasked", "masked"))
@pytest.mark.parametrize("kind", ("cnn", "bilstm", "gcn", "attn", "boe"))
def test_extract_reps_gives_the_rows_of_featurizing_each_chunk(small_corpus, kind, masking):
    """One featurize_batch per split, cut by Features.take, gives the rows
    of featurizing each chunk of EVAL_BATCH sentences apart."""
    sentences = small_corpus.train[:EVAL_BATCH + 1]
    model = REModel(Vocab.from_tokens(masked_tokens(sentences)), small_corpus.label_inventory,
                    desk_input_config(masking=masking), desk_encoder_config(kind), seed=0)
    with ad.no_tape():
        want = np.concatenate([model.encode(model.featurize_batch(sentences[lo:lo + EVAL_BATCH])).data
                               for lo in range(0, len(sentences), EVAL_BATCH)]).astype(np.float32)
    got = extract_reps(model, sentences)
    assert got.ids == tuple(s.id for s in sentences)
    assert got.rows.tobytes() == want.tobytes()
    empty = extract_reps(model, [])
    assert empty.ids == () and empty.rows.shape == (0, model.rep_dim)
    assert empty.rows.dtype == np.float32


# ---------------------------------------------------------- pinned logits

SENTENCE = Sentence(
    id="pin-0",
    tokens=("Ada", "Lovelace", "met", "the", "young", "Babbage", "in", "London"),
    pos=("NNP", "NNP", "VBD", "DT", "JJ", "NNP", "IN", "NNP"),
    ner=("PER", "PER", "O", "O", "O", "PER", "O", "LOC"),
    dep_head=(2, 3, 0, 6, 6, 3, 8, 3),
    dep_label=("compound", "nsubj", "root", "det", "amod", "dobj", "case", "nmod"),
    head=Span(0, 1), tail=Span(5, 5), relation="met")

ENCODERS = {
    "cnn": EncoderConfig(kind="cnn", cnn_filters=3, cnn_sizes=(2, 3)),
    "bilstm": EncoderConfig(kind="bilstm", lstm_layers=2, lstm_hidden=3),
    # prune_k=1 drops "in" (two edges off the Lovelace-met-Babbage path)
    "gcn": EncoderConfig(kind="gcn", gcn_layers=2, gcn_dim=4, gcn_ff_layers=1, gcn_prune_k=1),
    "attn": EncoderConfig(kind="attn", attn_layers=1, attn_heads=2, attn_kv_dim=4,
                          attn_ff_dim=5, attn_model_dim=4, attn_dropout=0.0),
    "boe": EncoderConfig(kind="boe"),
}

CTX_KIND = "gcn"  # the one kind that also reads contextual rows

# float64 logits of the per-sentence forward pass that featurize replaced
PINNED = {
    "cnn": [0.14733676525979525, 0.01090728037508607, 0.05196736031790487],
    "bilstm": [0.0348866723374318, 0.011067088096730108, -0.019679174236270233],
    "gcn": [-0.016768017591340008, 0.06908341629062945, -0.05236058847958628],
    "attn": [-0.040076345391109186, -0.04883219093853138, 0.022786761303704044],
    "boe": [0.022367254286583475, 0.13327934963711252, -0.7795461199400158],
}


def _logits(model, s, ctx_row):
    if hasattr(model, "featurize"):
        return model.logits(model.featurize(s, ctx_row)).data[0]
    return model.logits(s, ctx_row=ctx_row).data  # the sentence-taking forward pass


@pytest.mark.parametrize("kind", sorted(ENCODERS))
def test_masked_logits_match_pinned_float64(kind):
    use_ctx = kind == CTX_KIND
    cfg = InputConfig(word_dim=4, pos_dim=2, max_offset=3, masking=True,
                      use_contextual=use_ctx, contextual_dim=3 if use_ctx else 0)
    vocab = Vocab(["SUBJ-PER", "OBJ-PER", "met", "the", "in", "London"])
    ctx = np.linspace(-1.0, 1.0, 8 * 3).reshape(8, 3) if use_ctx else None
    with ad.use_dtype(np.float64):
        model = REModel(vocab, ("met", "no_relation", "other"), cfg, ENCODERS[kind], seed=3)
        got = _logits(model, SENTENCE, ctx)
    np.testing.assert_allclose(got, PINNED[kind], rtol=0, atol=1e-12)
