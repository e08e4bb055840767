"""relprobe benchmark.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload pipeline-desk --seed 1 --seconds 25 --trace 0

Runs one workload (see workloads.py) in this process against the checkout's
own `src/relprobe`, with one BLAS thread and RELPROBE_SEED removed from the
environment. First, untimed, it runs the fixed-seed check pass
(workloads.check_pass), which also warms up every code path. Set-up (corpus
generation and writing, then a warm-up pass over every stage on a few
sentences) is then repeated at least SETUP_REPEATS times and for at least
SETUP_MIN_S seconds; setup_s is the median. The timed part repeats the
workload's pipeline pass in a closed loop, one caller, until `--seconds`
have passed (at least two passes untraced, one traced). Every stage call,
and each set-up's corpus making and warm-up, is timed by workloads.Clock,
which scales its time by the machine's speed measured right before and
after it (with the per-stage exponents in clock.json), so that the other
tenants of a shared machine change the figures little. Each rate is the
interquartile mean over the run's calls; wall_s is that over the passes of
a pass's stage-call time; suite_s sums, over the suite's sources, that of
the source's run_suite call times; setup_s is the median set-up. Sample
counts and the median machine speed (speed_factor, 1 at the reference
machine's full speed) are printed too.

Outputs are checked: the check pass against the values pinned in
reference.json, and on every pass finite losses, checkpoint and REPR round
trips, a suite table identical across the run's passes, and validation F1,
suite accuracies and label shares within the per-workload tolerances in
reference.json. Failed checks and failed stage calls make `failed`;
`attempted` counts stage calls.

With `--trace 0` the last line of stdout carries the end-to-end metrics;
with `--trace 1` the relprobe modules are wrapped by tracing.Tracer and it
carries the per-layer metrics instead (counts from the first pass, checked
to repeat exactly in later ones; times as medians over passes). Run
metadata is printed on the line before it. Exit code 1 means the run could
not complete or the checkout has no `src/relprobe`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)  # must precede the first numpy import

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3   # at least this many set-ups,
SETUP_MIN_S = 4.0   # and more until they took this long
UNITS = {"setup_s": "s", "wall_s": "s", "suite_s": "s", "prep_sps": "sent/s",
         "peak_rss_mb": "MB"}


def scratch_base():
    """Directory inside the checkout for the benchmark's temporary files."""
    base = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(base, exist_ok=True)
    return base


def _import_relprobe():
    if not os.path.isfile(os.path.join(SRC, "relprobe", "__init__.py")):
        raise SystemExit("error: no relprobe sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import relprobe
    if not os.path.abspath(relprobe.__file__).startswith(SRC + os.sep):
        raise SystemExit("error: imported relprobe from %s, not %s" % (relprobe.__file__, SRC))


def _unit(name):
    if name in UNITS:
        return UNITS[name]
    return "sent/s"  # train_sps.*, extract_sps.*


def interquartile_mean(values):
    """Mean of the middle half of the values (of all when there are under 4).

    Like the median it ignores the calls that other tenants slowed most,
    but it averages more of the calls, so it moves less between runs."""
    v = sorted(values)
    k = len(v) // 4
    return statistics.fmean(v[k:len(v) - k])


def metadata(args, seed_env):
    import numpy as np
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError):
        pass
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_hash = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(SRC, "relprobe"))):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                src_hash.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as f:
                    src_hash.update(f.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                    capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit, "src_sha256": src_hash.hexdigest(),
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "blas_threads": BLAS_THREADS,
        "relprobe_seed_env_cleared": seed_env,
    }


def run(args):
    import workloads as wl
    from tracing import Tracer, layer_metrics, relprobe_modules

    spec = wl.SPECS[args.workload]
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as f:
        ref_all = json.load(f)
    ref = ref_all["workloads"].get(args.workload)
    tol = ref["tolerance"] if ref else None
    with open(os.path.join(HERE, "clock.json"), encoding="utf-8") as f:
        exponents = json.load(f)["exponents"].get(args.workload, {})
    base = scratch_base()
    workdir = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed), dir=base)
    ledger = wl.Ledger()
    tracer = None
    try:
        try:
            ledger.check("check", wl.check_fixed(wl.check_pass(ledger), ref_all["check"]))
        except wl.StageFailed:
            pass  # counted as failed; the timed run still goes ahead
        clock = wl.Clock(exponents)
        setup_times = []
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
            state, t_setup = clock.time("setup", wl.setup, spec, args.seed, workdir)
            _, t_warm = clock.time("warm_up", wl.warm_up, state)
            setup_times.append(t_setup + t_warm)
        if args.trace:
            tracer = Tracer(relprobe_modules())
            tracer.install()
        else:
            ledger.clock = clock
        min_iters = 1 if args.trace else 2
        results, walls, layer = [], [], []
        start = perf_counter()
        while True:
            if tracer:
                tracer.reset()
            t0 = perf_counter()
            try:
                res = wl.iteration(state, ledger)
            except wl.StageFailed:
                break
            walls.append(perf_counter() - t0)
            results.append(res)
            if tracer:
                layer.append(layer_metrics(tracer, res.distinct_sentences))
            if ref is not None:
                ledger.check("reference", wl.check_reference(res, ref, tol))
            if res.suite_csv != results[0].suite_csv:
                ledger.fail("run_suite", "suite table differs from the first iteration's")
            elapsed = perf_counter() - start
            if len(results) >= min_iters and elapsed + walls[-1] > args.seconds:
                break
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass  # another run still uses it

    if ref is None:
        ledger.fail("reference", "no reference for workload %s" % args.workload)
    if not results:
        return ledger, None, {}, None
    if args.trace:
        metrics = {}
        first = layer[0]
        for name, (value, unit, kind) in first.items():
            if kind == "count":
                if any(other[name][0] != value for other in layer[1:]):
                    ledger.fail("trace", "count %s differs between iterations" % name)
                metrics[name] = (value, unit)
            else:
                metrics[name] = (statistics.median([other[name][0] for other in layer]), unit)
        return ledger, metrics, {}, None
    samples = {}
    for res in results:
        for name, values in res.samples.items():
            samples.setdefault(name, []).extend(values)
    samples["wall_s"] = [res.pass_s for res in results]
    suite_calls = {}
    for res in results:
        for source, times in res.suite_times.items():
            suite_calls.setdefault(source, []).extend(times)
    samples["suite_s"] = [sum(interquartile_mean(times) for times in suite_calls.values())]
    metrics = {name: (interquartile_mean(samples[name]), _unit(name)) for name in sorted(samples)}
    samples["setup_s"] = setup_times
    metrics["setup_s"] = (statistics.median(setup_times), "s")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = (peak, "MB")
    return ledger, metrics, samples, statistics.median(clock.speeds)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    # the CLI and config paths let RELPROBE_SEED override any seed; the
    # benchmark's inputs come from --seed alone
    seed_env = os.environ.pop("RELPROBE_SEED", None) is not None
    _import_relprobe()
    sys.path.insert(0, HERE)
    import workloads as wl
    if args.workload not in wl.SPECS:
        parser.error("unknown workload %r (choose from %s)" % (args.workload, ", ".join(wl.SPECS)))
    ledger, metrics, samples, factor = run(args)
    meta = metadata(args, seed_env)
    meta["speed_factor"] = factor
    frac = ledger.failed / max(ledger.attempted, 1)
    for problem in ledger.problems:
        print("# failed: %s" % problem)
    if metrics is None:
        print("error: no iteration completed", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print("# %-40s %14.6g %s" % (name, value, unit))
    for name, values in sorted(samples.items()):
        print("# %-40s %d samples: %s" % (name, len(values), " ".join(
            "%.4g" % v for v in sorted(values)[:: max(1, len(values) // 12)])))
    if factor is not None:
        print("# %-40s %14.6g" % ("speed_factor", factor))
    print("# %-40s %14.6g (%d of %d stage calls)" % ("ops_failed_frac", frac, ledger.failed,
                                                    ledger.attempted))
    print(json.dumps({"meta": meta}, sort_keys=True))
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
