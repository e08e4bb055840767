"""Fit the exponents of workloads.Clock and write them to clock.json.

    python3 perfbench/fit_clock.py --seconds 240 [--workload pipeline-desk ...]

For each workload it runs set-up, warm-up and pipeline passes in a closed
loop for `--seconds`, timing every call with a Clock that records its raw
time and the calibration readings before (b) and after (a) it. A stage's
k-th call in a pass gets the same input in every pass, so the calls are
grouped by (stage, k), and within each group log(time) y, log b and log a
are centred. A stage's least-squares slope of y on the readings' mean m,
sum(y m) / sum(m m), comes out too flat, because m is noisy: it is the true
exponent times the share of var(m) that is the machine's speed and not
reading noise. That share is the same for every stage, and is estimated
over all the workload's calls as sum(b a) / sum(m m), since the noise of b
and that of a are independent and drop out of sum(b a). The stage's
exponent is its slope divided by that share. A stage with fewer than
MIN_CALLS calls gets the slope pooled over all the workload's calls
instead. The readings must spread over at least MIN_LOG_RANGE (the machine
has to change speed during the fit for the slope to mean anything).
Exponents are clamped to [CLAMP_LOW, CLAMP_HIGH] and rounded to 0.05. It
takes a few minutes per workload.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import tempfile
from collections import defaultdict
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (sets BLAS threads before numpy loads)

run._import_relprobe()
import workloads as wl  # noqa: E402

FIT_SEED = 9001
MIN_CALLS = 20
MIN_LOG_RANGE = 0.2
CLAMP_LOW, CLAMP_HIGH = 0.3, 2.0


def record(name, seconds):
    """Every (stage, ordinal in its pass, raw seconds, ratio before, ratio after)."""
    spec = wl.SPECS[name]
    clock = wl.Clock()
    clock.log = []
    rows = []
    tmp = tempfile.mkdtemp(prefix="fit-", dir=run.scratch_base())
    try:
        state = wl.setup(spec, FIT_SEED, tmp)
        wl.warm_up(state)
        start = perf_counter()
        while perf_counter() - start < seconds:
            del clock.log[:]
            state, _ = clock.time("setup", wl.setup, spec, FIT_SEED, tmp)
            clock.time("warm_up", wl.warm_up, state)
            ledger = wl.Ledger(clock)
            wl.iteration(state, ledger)
            if ledger.failed:
                raise SystemExit("error: %s: %s" % (name, ledger.problems))
            seen = defaultdict(int)
            for stage, dt, before, after in clock.log:
                rows.append((stage, seen[stage], dt, before, after))
                seen[stage] += 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return rows


def fit(rows):
    """stage -> (exponent, calls, log range of the readings, own or pooled)."""
    groups = defaultdict(list)
    for stage, k, dt, before, after in rows:
        groups[stage, k].append((math.log(dt), math.log(before), math.log(after)))
    sym, smm, sba, n, lo, hi = (defaultdict(float) for _ in range(6))
    for (stage, _), pts in groups.items():
        if len(pts) < 2:
            continue
        my, mb, ma = (sum(p[i] for p in pts) / len(pts) for i in range(3))
        for y, b, a in pts:
            m = ((b - mb) + (a - ma)) / 2
            for key in (stage, "*"):
                sym[key] += (y - my) * m
                smm[key] += m * m
                sba[key] += (b - mb) * (a - ma)
                n[key] += 1
                lo[key] = min(lo.get(key, b), b, a)
                hi[key] = max(hi.get(key, b), b, a)
    if hi["*"] - lo["*"] < MIN_LOG_RANGE or sba["*"] <= 0:
        return {}
    share = sba["*"] / smm["*"]
    out = {}
    for stage in sorted(n):
        if stage == "*":
            continue
        own = n[stage] >= MIN_CALLS and hi[stage] - lo[stage] >= MIN_LOG_RANGE
        key = stage if own else "*"
        exponent = min(max(sym[key] / smm[key] / share, CLAMP_LOW), CLAMP_HIGH)
        out[stage] = (round(exponent * 20) / 20, int(n[stage]), hi[stage] - lo[stage],
                      "own" if own else "pooled")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=240.0)
    parser.add_argument("--workload", nargs="*", default=sorted(wl.SPECS))
    args = parser.parse_args()
    path = os.path.join(HERE, "clock.json")
    with open(path, encoding="utf-8") as f:
        table = json.load(f)
    for name in args.workload:
        exps = {}
        for stage, (slope, calls, spread, how) in fit(record(name, args.seconds)).items():
            print("%-14s %-22s %.2f %s  (%d calls, readings over %.2f in log)"
                  % (name, stage, slope, how, calls, spread))
            exps[stage] = slope
        table["exponents"][name] = exps
    with open(path, "w", encoding="utf-8") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote %s" % path)


if __name__ == "__main__":
    sys.exit(main())
