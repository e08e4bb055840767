"""Each sentence's derived inputs are prepared once per run: trees in
probegen.build_tasks, model inputs in REModel.featurize, whose forward pass
gives the same logits as before."""

import numpy as np
import pytest

from relprobe import autodiff as ad
from relprobe import deptree, probegen
from relprobe.corpus import Corpus, Sentence, Span
from relprobe.encoders import EncoderConfig, InputConfig, REModel, Vocab
from relprobe.probing import extract_reps
from relprobe.training import (HyperProfile, desk_encoder_config, desk_input_config,
                               train_re)

# ------------------------------------------------------------ tree builds


@pytest.fixture
def tree_builds(monkeypatch):
    """Counts deptree.build_tree calls made through the module attribute."""
    calls = []
    real = deptree.build_tree

    def counting(dep_head):
        calls.append(1)
        return real(dep_head)

    monkeypatch.setattr(deptree, "build_tree", counting)
    return calls


@pytest.fixture(scope="module")
def corpus(small_corpus):
    return Corpus(train=small_corpus.train[:16], validation=small_corpus.validation[:8],
                  test=small_corpus.test[:8], label_inventory=small_corpus.label_inventory,
                  negative_label=small_corpus.negative_label)


def _profile(epochs):
    return HyperProfile("t", "adam", 1e-2, epochs, 8, pos_dim=8)


def test_unmasked_cnn_training_builds_no_tree(corpus, tree_builds):
    train_re(corpus, desk_input_config(), desk_encoder_config("cnn"), _profile(2))
    assert len(tree_builds) == 0


def test_masked_gcn_training_builds_independent_of_epochs(corpus, tree_builds):
    counts = []
    for epochs in (1, 3):
        del tree_builds[:]
        train_re(corpus, desk_input_config(masking=True), desk_encoder_config("gcn"),
                 _profile(epochs))
        counts.append(len(tree_builds))
    assert counts[0] == counts[1]
    assert counts[0] == len(corpus.train) + len(corpus.validation)


def test_extract_builds_each_tree_once(corpus, tree_builds):
    model, _ = train_re(corpus, desk_input_config(masking=True),
                        desk_encoder_config("gcn"), _profile(1))
    del tree_builds[:]
    extract_reps(model, corpus.test)
    assert len(tree_builds) <= len(corpus.test)


def test_build_tasks_builds_each_tree_once_and_only_when_read(corpus, tree_builds):
    probegen.build_all(corpus)
    assert len(tree_builds) == len(corpus.all_sentences())
    del tree_builds[:]
    probegen.build_tasks(["SentLen", "ArgOrd", "PosHeadL"], corpus)
    assert len(tree_builds) == 0


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
