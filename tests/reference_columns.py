"""Per-sentence oracles of code in src/ that computes a whole split from its
token columns: probegen.column_values (extract) and probing.baseline_reps
(baseline_features)."""

import numpy as np

from relprobe.probegen import BOUNDARY_LEFT, BOUNDARY_RIGHT


def extract(task, s):
    """Raw probing label of one sentence for one of probegen.COLUMN_TASKS,
    from its annotations."""
    if task == "SentLen":
        return len(s)
    if task == "ArgDist":
        return _arg_distance(s)
    if task == "EntExist":
        lo = min(s.head.end, s.tail.end) + 1
        hi = max(s.head.start, s.tail.start)
        return "yes" if any(s.ner[i] != "O" for i in range(lo, hi)) else "no"
    if task == "ArgOrd":
        return "head-first" if s.head.end < s.tail.start else "tail-first"
    if task in ("PosHeadL", "PosHeadR", "PosTailL", "PosTailR"):
        span = s.head if "Head" in task else s.tail
        if task.endswith("L"):
            return s.pos[span.start - 1] if span.start > 0 else BOUNDARY_LEFT
        return s.pos[span.end + 1] if span.end + 1 < len(s) else BOUNDARY_RIGHT
    raise ValueError("unknown task: %s" % task)


def _arg_distance(s):
    """Tokens strictly between the two argument spans."""
    if s.head.end < s.tail.start:
        return s.tail.start - s.head.end - 1
    return s.head.start - s.tail.end - 1


def baseline_features(kind, s, table=None):
    """Per-sentence feature vector for one of the reference baselines."""
    if kind == "length":
        return np.asarray([float(len(s))], dtype=np.float32)
    if kind == "argdist":
        return np.asarray([float(_arg_distance(s))], dtype=np.float32)
    if kind == "boe":
        if table is None:
            raise ValueError("boe baseline requires an embedding table")
        return np.sum([table.lookup(t) for t in s.tokens], axis=0).astype(np.float32)
    raise ValueError("unknown baseline kind: %s" % kind)
