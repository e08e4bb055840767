import pytest

from relprobe.corpus import Sentence, Span
from relprobe import synth


def random_parents(rng, n):
    """Random tree as 1-based dep_head with a random root position."""
    order = rng.permutation(n)
    dep_head = [0] * n
    for i in range(1, n):
        attach = int(order[int(rng.integers(i))])
        dep_head[int(order[i])] = attach + 1
    dep_head[int(order[0])] = 0
    return dep_head


def make_sentence(dep_head, head=None, tail=None, sid="s0", relation="rel"):
    n = len(dep_head)
    return Sentence(
        id=sid,
        tokens=tuple("tok%d" % i for i in range(n)),
        pos=tuple("NN" for _ in range(n)),
        ner=tuple("O" for _ in range(n)),
        dep_head=tuple(dep_head),
        dep_label=tuple("dep" for _ in range(n)),
        head=head or Span(0, 0),
        tail=tail or Span(n - 1, n - 1),
        relation=relation,
    )


@pytest.fixture(scope="session")
def small_corpus():
    cfg = synth.SynthConfig(n_train=64, n_val=16, n_test=32,
                            templates=synth.default_templates(),
                            lexicons=synth.default_lexicons(), seed=1, pad_max=6)
    return synth.generate(cfg)
