"""Rebuild reference.json: the output values the benchmark checks runs against.

    python3 perfbench/make_reference.py --seeds 101 102 103 104 105

Pins the outputs of the fixed-seed check pass (workloads.check_pass). Then,
for each workload and seed, it runs set-up and one pipeline iteration
(untimed) and stores the per-seed median of each validation F1, each suite
accuracy and, for workloads with a separate prep corpus, each probing-task
label share. Each workload's tolerances in the file are kept as they are;
the largest deviations of the seeds from the medians are printed, to set
them by.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (sets BLAS threads before numpy loads)

run._import_relprobe()
import workloads as wl  # noqa: E402
from relprobe import probegen  # noqa: E402


def reference_for(name, seeds):
    f1, acc, shares = {}, {}, {}
    results = []
    for seed in seeds:
        tmp = tempfile.mkdtemp(prefix="ref-", dir=run.scratch_base())
        try:
            state = wl.setup(wl.SPECS[name], seed, tmp)
            ledger = wl.Ledger()
            res = wl.iteration(state, ledger)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        if ledger.failed:
            raise SystemExit("error: %s seed %d failed: %s" % (name, seed, ledger.problems))
        results.append(res)
        n_val = {run.kind: run.n_val for run in wl.SPECS[name].encoders}
        for kind, value in res.f1.items():
            if n_val[kind] >= wl.F1_MIN_VAL:
                f1.setdefault(kind, []).append(value)
        for (source, task), value in res.accuracies.items():
            acc.setdefault("%s|%s" % (source, task), []).append(value)
        if wl.SPECS[name].prep is not None:
            # binned tasks are left out: their quantile boundaries fall on
            # discrete lengths and depths, so bin shares move with the seed
            for task, by_split in res.label_counts.items():
                if task in probegen.BINNED_TASKS:
                    continue
                for split, counts in by_split.items():
                    n = sum(counts.values())
                    for label, c in counts.items():
                        shares.setdefault((task, split, label), []).append(c / n)
    out = {"val_f1": {k: round(statistics.median(v), 4) for k, v in sorted(f1.items())},
           "suite": {k: round(statistics.median(v), 4) for k, v in sorted(acc.items())}}
    if shares:
        label_share = {}
        for (task, split, label), values in sorted(shares.items()):
            padded = values + [0.0] * (len(seeds) - len(values))
            label_share.setdefault(task, {}).setdefault(split, {})[label] = \
                round(statistics.median(padded), 5)
        out["label_share"] = label_share
    _print_deviations(name, out, results)
    return out


def _print_deviations(name, ref, results):
    """Largest per-seed deviation of each checked quantity from the reference."""
    f1 = max((abs(r.f1[k] - v) for r in results for k, v in ref["val_f1"].items()), default=0.0)
    cell, mean = 0.0, 0.0
    for r in results:
        by_source = {}
        for key, want in ref["suite"].items():
            source, task = key.split("|")
            d = abs(r.accuracies[source, task] - want)
            cell = max(cell, d)
            by_source.setdefault(source, []).append(d)
        mean = max([mean] + [sum(d) / len(d) for d in by_source.values()])
    print("%s: largest deviation val_f1 %.3f, suite_cell %.3f, per-source suite_mean %.3f"
          % (name, f1, cell, mean), flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", default=list(wl.SPECS))
    args = parser.parse_args()
    path = os.path.join(HERE, "reference.json")
    with open(path, encoding="utf-8") as f:
        ref = json.load(f)
    ledger = wl.Ledger()
    ref["check"] = wl.check_pass(ledger)
    if ledger.failed:
        raise SystemExit("error: check pass failed: %s" % ledger.problems)
    ref["check"]["seed"] = wl.CHECK_SEED
    print("check: done", flush=True)
    for name in args.workloads:
        tol = ref["workloads"].get(name, {}).get("tolerance")
        ref["workloads"][name] = reference_for(name, args.seeds)
        ref["workloads"][name]["seeds"] = args.seeds
        ref["workloads"][name]["tolerance"] = tol
        print("%s: done" % name, flush=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
