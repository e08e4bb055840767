"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py [--workload pipeline-desk] [--full]

Checks, on a few-sentence version of the workload (or the full workload
with --full):
  1. uninstalling the tracer restores every attribute it patched;
  2. a traced and an untraced iteration with the same seed give identical
     suite tables and checkpoint bytes;
  3. every count metric repeats exactly across two traced iterations;
  4. the metric names run.py emits are those BENCHMARK.json declares.
It also reports the tracing overhead: traced minus untraced iteration wall
time. Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (sets BLAS threads before numpy loads)

run._import_relprobe()
import workloads as wl  # noqa: E402
from tracing import Tracer, layer_metrics, per_layer_names, relprobe_modules  # noqa: E402


def _attributes(mods):
    """Identity snapshot of every module attribute and class attribute."""
    snap = {}
    for mod in mods.values():
        for name, value in vars(mod).items():
            snap[(mod.__name__, name)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    snap[(mod.__name__, name, attr)] = member
    return snap


def _checkpoint_bytes(state):
    d = os.path.join(state.workdir, "iter")
    return {name: open(os.path.join(d, name), "rb").read()
            for name in sorted(os.listdir(d)) if name.endswith(".rpck")}


def _timed(state, tracer=None):
    ledger = wl.Ledger()
    if tracer:
        tracer.reset()
    t0 = perf_counter()
    res = wl.iteration(state, ledger)
    wall = perf_counter() - t0
    if ledger.failed:
        raise SystemExit("error: iteration failed: %s" % ledger.problems)
    layer = layer_metrics(tracer, res.distinct_sentences) if tracer else None
    return res, wall, _checkpoint_bytes(state), layer


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="pipeline-desk", choices=sorted(wl.SPECS))
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--full", action="store_true")
    args = parser.parse_args()
    failures = []

    def check(ok, what):
        print("%s  %s" % ("PASS" if ok else "FAIL", what))
        if not ok:
            failures.append(what)

    tmp = tempfile.mkdtemp(prefix="selftest-", dir=run.scratch_base())
    try:
        state = wl.setup(wl.SPECS[args.workload], args.seed, tmp)
        wl.warm_up(state)
        if not args.full:
            state = wl.small_state(state)
        mods = relprobe_modules()
        before = _attributes(mods)
        plain, plain_wall, plain_ckpt, _ = _timed(state)

        tracer = Tracer(mods)
        tracer.install()
        try:
            patched = tracer.patched_attributes()
            traced1, traced_wall, traced_ckpt, layer1 = _timed(state, tracer)
            _, _, _, layer2 = _timed(state, tracer)
        finally:
            tracer.uninstall()
        after = _attributes(mods)
        changed = [k for k in set(before) | set(after) if before.get(k) is not after.get(k)]
        check(len(patched) > 0 and not changed,
              "uninstall restores all %d patched attributes (%d differ)"
              % (len(patched), len(changed)))
        check(plain.suite_csv == traced1.suite_csv, "traced suite table equals untraced")
        check(plain_ckpt == traced_ckpt and len(plain_ckpt) == len(state.spec.encoders),
              "traced checkpoint bytes equal untraced (%d files)" % len(plain_ckpt))
        kinds = {name: kind for name, _, kind in per_layer_names()}
        differ = [n for n in layer1 if kinds[n] == "count" and layer1[n][0] != layer2[n][0]]
        check(not differ, "counts repeat across two traced iterations%s"
              % (": " + ", ".join(differ) if differ else ""))
        for name in ("autodiff.nodes", "deptree.build_tree_calls", "probing.fit_steps",
                     "autodiff.matmul.flops"):
            print("      %-28s %s" % (name, layer1[name][0]))

        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as f:
            declared = json.load(f)
        e2e = {m["name"] for m in declared["end_to_end"]}
        emitted = set(plain.samples) | {"setup_s", "wall_s", "suite_s", "peak_rss_mb"}
        check(emitted == e2e, "end-to-end names match BENCHMARK.json %s"
              % sorted(emitted ^ e2e))
        per_layer = {m["name"] for m in declared["per_layer"]}
        check(set(layer1) == per_layer, "per-layer names match BENCHMARK.json %s"
              % sorted(set(layer1) ^ per_layer))
        print("tracing overhead: %.3f s (traced %.3f s, untraced %.3f s, %+.0f%%)"
              % (traced_wall - plain_wall, traced_wall, plain_wall,
                 100.0 * (traced_wall - plain_wall) / plain_wall))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
