"""The benchmark's fixed-seed check pass, run as a test.

perfbench/workloads.check_pass trains every encoder kind for two epochs on
a fixed corpus and seed, extracts representations and runs a small probe
suite; check_fixed compares the per-epoch losses and F1, the projected
representations and the suite accuracies with the values pinned in
perfbench/reference.json. A change that moves them beyond tolerance fails
the benchmark's correctness check, so it fails here first. The perfbench
files are only read.
"""

import json
import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_check_pass_matches_pinned_reference(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    import workloads

    with open(os.path.join(PERFBENCH, "reference.json"), encoding="utf-8") as f:
        pinned = json.load(f)["check"]
    assert workloads.check_fixed(workloads.check_pass(workloads.Ledger()), pinned) == []
