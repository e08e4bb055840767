"""Each sentence's derived inputs are prepared once per run: trees in
probegen.build_tasks (tree tasks), model inputs in REModel.featurize, whose
forward pass gives the same logits as before. Both get their trees from one
deptree.pack_trees pass over a whole split or batch."""

import numpy as np
import pytest

from relprobe import autodiff as ad
from relprobe import corpus as corpus_module
from relprobe import deptree, encoders, probegen
from relprobe.corpus import Corpus, Sentence, Span, entity_masks
from relprobe.encoders import EVAL_BATCH, EncoderConfig, InputConfig, REModel, Vocab
from relprobe.probing import extract_reps
from relprobe.training import (HyperProfile, desk_encoder_config, desk_input_config,
                               train_re)

# ------------------------------------------------------------ tree packs


@pytest.fixture
def tree_packs(monkeypatch):
    """The dep_head lists of each deptree.pack_trees call made through the
    module attribute, which sentence_trees also calls."""
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


def test_extract_builds_each_tree_once(corpus, tree_packs):
    """Extraction packs each chunk of EVAL_BATCH sentences once."""
    model, _ = train_re(corpus, desk_input_config(masking=True),
                        desk_encoder_config("gcn"), _profile(1))
    del tree_packs[:]
    extract_reps(model, corpus.test)
    assert tree_packs == [[s.dep_head for s in corpus.test[lo:lo + EVAL_BATCH]]
                          for lo in range(0, len(corpus.test), EVAL_BATCH)]


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


def test_build_tasks_builds_each_tree_once_and_only_when_read(corpus, tree_packs):
    """One deptree.pack_trees pass per split packs each sentence's tree once."""
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
