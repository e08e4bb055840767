"""Generation of the 14 probing-task datasets from corpus annotations.

Raw values for the binned tasks (SentLen, ArgDist, TreeDepth, SDPTreeDepth)
are grouped by empirical quantiles fitted on the training split only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import deptree
from .corpus import CorpusFormatError, jsonl_records

TASKS = (
    "SentLen", "ArgDist", "EntExist", "TreeDepth", "SDPTreeDepth", "ArgOrd",
    "PosHeadL", "PosHeadR", "PosTailL", "PosTailR",
    "TypeHead", "TypeTail", "GRHead", "GRTail",
)

BINNED_TASKS = ("SentLen", "ArgDist", "TreeDepth", "SDPTreeDepth")

# tasks whose raw labels tree_values computes; column_values computes the others
TREE_TASKS = ("TreeDepth", "SDPTreeDepth", "TypeHead", "TypeTail", "GRHead", "GRTail")
COLUMN_TASKS = tuple(task for task in TASKS if task not in TREE_TASKS)

# grammatical roles kept verbatim; everything else maps to "other"
GR_CLASSES = ("nsubj", "nsubjpass", "dobj", "iobj")

TREE_DEPTH_CLAMP = 15

# per-profile bin counts for the binned tasks
PROFILES = {
    "tacred": {"SentLen": 10, "ArgDist": 10, "TreeDepth": 10, "SDPTreeDepth": 6},
    "semeval": {"SentLen": 7, "ArgDist": 5, "TreeDepth": 7, "SDPTreeDepth": 4},
}

# tasks excluded per profile
EXCLUDED = {"tacred": (), "semeval": ("ArgOrd", "EntExist")}

SPLITS = ("train", "validation", "test")

BOUNDARY_LEFT = "<S>"
BOUNDARY_RIGHT = "</S>"


@dataclass(frozen=True)
class BinSpec:
    """Ascending upper bounds; the last is +inf. assign() is total."""

    boundaries: tuple

    @property
    def n_bins(self):
        return len(self.boundaries)

    def assign(self, value):
        for i, b in enumerate(self.boundaries):
            if value <= b:
                return i
        return len(self.boundaries) - 1

    def label(self, value):
        return "bin%02d" % self.assign(value)

    def labels(self):
        return tuple("bin%02d" % i for i in range(self.n_bins))


def quantile_bins(values, n) -> BinSpec:
    """Boundaries at the k/n empirical quantiles, duplicates merged.

    Boundaries at or above the maximum are dropped (covered by the final
    +inf bin), so all-equal input collapses to a single bin.
    """
    values = sorted(values)
    if not values:
        raise ValueError("values must be non-empty")
    if n < 2:
        raise ValueError("bin count must be >= 2")
    m = len(values)
    candidates = []
    for k in range(1, n):
        idx = math.ceil(k * m / n) - 1
        candidates.append(values[idx])
    boundaries = []
    for b in candidates:
        if b >= values[-1]:
            break
        if not boundaries or b > boundaries[-1]:
            boundaries.append(b)
    boundaries.append(math.inf)
    return BinSpec(boundaries=tuple(boundaries))


@dataclass(frozen=True)
class ProbingDataset:
    task: str
    labels: tuple
    splits: dict  # split name -> tuple of (sentence id, label)
    bin_spec: BinSpec | None = None


def ner_column(sentences):
    """The NE tags of every token of a deptree.Packed split, packed row
    after row as one object array."""
    return np.fromiter(chain.from_iterable(s.ner for s in sentences), dtype=object,
                       count=sentences.starts[-1])


def column_values(sentences, ner=None):
    """Raw values of the COLUMN_TASKS of each valid sentence, one list per
    task in that order, from the split's packed token rows (the
    deptree.packed starts and bounds and the ner_column, given or built)
    in a few numpy passes.

    SentLen is the token count and ArgDist the tokens strictly between the
    head and tail spans. EntExist is "yes" if one of those tokens has an NE
    tag other than "O" (a cumulative count of such tags, read at both ends),
    ArgOrd "head-first" or "tail-first". PosHeadL/R and PosTailL/R are the
    POS tags just left and right of the head and tail spans, read from one
    list of every sentence's tags between a BOUNDARY_LEFT and a
    BOUNDARY_RIGHT row, so a span at either end of its sentence reads the
    boundary.
    """
    sentences = deptree.packed(sentences)
    starts = sentences.starts
    hs, ts, he, te = sentences.bounds
    head_first = he < ts
    tagged = np.zeros(starts[-1] + 1, dtype=np.int64)
    np.cumsum((ner_column(sentences) if ner is None else ner) != "O", out=tagged[1:])
    ent_exist = tagged[np.maximum(hs, ts)] > tagged[np.minimum(he, te) + 1]
    pos = np.fromiter(chain.from_iterable((BOUNDARY_LEFT, *s.pos, BOUNDARY_RIGHT)
                                          for s in sentences),
                      dtype=object, count=starts[-1] + 2 * len(sentences))
    shift = 2 * np.arange(len(sentences))  # rows of boundaries before sentence i's tokens
    return (np.diff(starts).tolist(),
            np.where(head_first, ts - he - 1, hs - te - 1).tolist(),
            np.where(ent_exist, "yes", "no").tolist(),
            np.where(head_first, "head-first", "tail-first").tolist(),
            pos[hs + shift].tolist(), pos[he + shift + 2].tolist(),
            pos[ts + shift].tolist(), pos[te + shift + 2].tolist())


def tree_values(sentences, ner=None):
    """Raw values of the TREE_TASKS of each sentence, one list per task in
    that order, from the deptree.packed tree and span roots of all of them
    and their ner_column, given or built (ValueError naming the first
    sentence whose dep_head is not one tree over its tokens).

    TreeDepth is a sentence's deepest row, clamped at TREE_DEPTH_CLAMP.
    SDPTreeDepth is the longer of the two legs of the shortest dependency
    path between the span roots a and b of head and tail: with P rows on
    that path, (P - 1 + |depth[a] - depth[b]|) // 2. TypeHead/Tail are the
    NE tags at a and b, GRHead/Tail their labels ("other" outside GR_CLASSES).
    """
    sentences = deptree.packed(sentences)
    starts = sentences.starts
    parent, depth = sentences.tree
    a, b = sentences.roots
    path_rows = np.add.reduceat(deptree.path_mask(parent, depth, a, b), starts[:-1])
    deepest = np.minimum(np.maximum.reduceat(depth, starts[:-1]), TREE_DEPTH_CLAMP)
    sdp_depth = (path_rows - 1 + np.abs(depth[a] - depth[b])) // 2
    ner = ner_column(sentences) if ner is None else ner
    roles = [[s.dep_label[i] if s.dep_label[i] in GR_CLASSES else "other"
              for s, i in zip(sentences, (root - starts[:-1]).tolist())] for root in (a, b)]
    return (deepest.tolist(), sdp_depth.tolist(), ner[a].tolist(), ner[b].tolist(), *roles)


def build_tasks(tasks, corpus, profile="tacred"):
    """Probing datasets for `tasks`, in the order given. The tasks of a
    split come from one tree_values pass (if one is a TREE_TASK) and one
    column_values pass, which share the split's deptree.packed facts and
    its ner_column, built once. Bins are fitted on train raw values only."""
    if isinstance(profile, str) and profile not in PROFILES:
        raise ValueError("unknown profile: %s" % profile)
    excluded = EXCLUDED[profile] if isinstance(profile, str) else ()
    for task in tasks:
        if task not in TASKS:
            raise ValueError("unknown task: %s" % task)
        if task in excluded:
            raise ValueError("task %s excluded for this profile" % task)
    bin_counts = PROFILES[profile] if isinstance(profile, str) else dict(profile)
    splits = (("train", corpus.train), ("validation", corpus.validation), ("test", corpus.test))
    raw = {task: {} for task in tasks}
    needs_tree = any(task in TREE_TASKS for task in tasks)
    ids = {}
    for name, split in splits:
        split = deptree.packed(split)
        ids[name] = [s.id for s in split]
        ner = ner_column(split)
        values = dict(zip(COLUMN_TASKS, column_values(split, ner)))
        if needs_tree:
            values.update(zip(TREE_TASKS, tree_values(split, ner)))
        for task in tasks:
            raw[task][name] = values[task]
    return [_dataset(task, raw[task], ids, bin_counts) for task in tasks]


def _dataset(task, raw, ids, bin_counts) -> ProbingDataset:
    """One task's dataset from its raw values and sentence ids per split."""
    spec, distinct = None, set().union(*raw.values())
    if task in BINNED_TASKS:
        spec = quantile_bins(raw["train"], bin_counts[task])
        labels = spec.labels()
        label = {v: spec.label(v) for v in distinct}
    elif task in ("GRHead", "GRTail"):
        train = set(raw["train"])
        labels = tuple(l for l in GR_CLASSES if l in train) + ("other",)
        # roles unseen in train fold into "other" for the held-out splits
        label = {v: v if v in labels else "other" for v in distinct}
    else:
        labels = tuple(sorted(set(raw["train"])))
        label = {v: v for v in distinct}
    splits = {name: tuple(zip(ids[name], map(label.__getitem__, values)))
              for name, values in raw.items()}
    return ProbingDataset(task=task, labels=labels, splits=splits, bin_spec=spec)


def build_all(corpus, profile="tacred"):
    excluded = EXCLUDED.get(profile, ()) if isinstance(profile, str) else ()
    return build_tasks([t for t in TASKS if t not in excluded], corpus, profile)


def save_dataset(ds: ProbingDataset, path):
    """One jsonl line per split: {task, labels, split, items}, the bytes of
    json.dumps of that dict, written from pieces escaped once: each label
    once per split, each id once per item. Ids must be strings."""
    head = '{"task": %s, "labels": %s, "split": ' % (json.dumps(ds.task),
                                                      json.dumps(list(ds.labels)))
    tail = "}\n"
    if ds.bin_spec is not None:
        tail = ', "boundaries": %s}\n' % json.dumps([b if math.isfinite(b) else "inf"
                                                     for b in ds.bin_spec.boundaries])
    escape = json.encoder.encode_basestring_ascii
    with open(path, "w", encoding="utf-8") as f:
        for split in SPLITS:
            items = ds.splits[split]
            escaped = {label: json.dumps(label) for label in {label for _, label in items}}
            body = ", ".join(['{"id": %s, "label": %s}' % (escape(sid), escaped[label])
                              for sid, label in items])
            f.write('%s%s, "items": [%s]%s' % (head, json.dumps(split), body, tail))


def load_dataset(path) -> ProbingDataset:
    """ProbingDataset from a save_dataset file. CorpusFormatError naming
    path:lineno for a line that is not a JSON object with the keys task (a
    string), labels (strings), split and items (objects with a string id
    and label), whose boundaries are not numbers or "inf", that names
    another task or labels than the first line, or that repeats or misnames
    a split; naming the path when a split is missing."""
    splits = {}
    task = labels = bin_spec = None
    for where, rec in jsonl_records(path):
        if type(rec) is not dict:
            raise CorpusFormatError("%s: expected a JSON object" % where)
        for key in ("task", "labels", "split", "items"):
            if key not in rec:
                raise CorpusFormatError("%s: missing key %r" % (where, key))
        if type(rec["task"]) is not str:
            raise CorpusFormatError("%s: task must be a string" % where)
        if type(rec["labels"]) is not list or not all(type(l) is str for l in rec["labels"]):
            raise CorpusFormatError("%s: labels must be a list of strings" % where)
        items = rec["items"]
        if type(items) is not list or not all(type(it) is dict and type(it.get("id")) is str
                                              and type(it.get("label")) is str for it in items):
            raise CorpusFormatError("%s: items must be objects with a string id and label"
                                    % where)
        if task is None:
            task, labels = rec["task"], tuple(rec["labels"])
        elif (rec["task"], tuple(rec["labels"])) != (task, labels):
            raise CorpusFormatError("%s: task or labels differ from the first line's" % where)
        split = rec["split"]
        if split not in SPLITS:
            raise CorpusFormatError("%s: unknown split %r" % (where, split))
        if split in splits:
            raise CorpusFormatError("%s: repeated split %r" % (where, split))
        splits[split] = tuple((it["id"], it["label"]) for it in items)
        if "boundaries" in rec:
            if type(rec["boundaries"]) is not list or not all(
                    b == "inf" or type(b) in (int, float) for b in rec["boundaries"]):
                raise CorpusFormatError('%s: boundaries must be numbers or "inf"' % where)
            bin_spec = BinSpec(tuple(math.inf if b == "inf" else b
                                     for b in rec["boundaries"]))
    for split in SPLITS:
        if split not in splits:
            raise CorpusFormatError("%s: no %s split" % (path, split))
    return ProbingDataset(task=task, labels=labels, splits=splits, bin_spec=bin_spec)
