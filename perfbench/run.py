"""Benchmark for adaptreg: four solver workloads in one process each.

    python3 perfbench/run.py --workload denoise-halfplane --seed 0 --seconds 14 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

One run builds its workload from the seed and runs a warm-up pass, then
alternates timed passes with further set-ups (for setup_s) in a closed
loop for --seconds, and prints every metric by name with its unit.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics of the traced run with --trace 1.  A fuller record
(environment, quality, per-solve times, digests) goes to .perfbench-out/
in the checkout, and a traced run also writes its spans there.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
DEFAULT_SECONDS = 14
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   help="workload name, or 'all' to run each one untraced and traced (default all)")
    p.add_argument("--seed", type=int, default=0,
                   help="input seed; 0 reproduces the acceptance fixtures (default 0)")
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                   help="measure for this long, at least one pass (default %(default)s)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run, report per-layer metrics")
    p.add_argument("--full", action="store_true",
                   help="acceptance-test iteration caps instead of the shortened timed ones (slow)")
    return p.parse_args(argv)


def _command(*args):
    try:
        done = subprocess.run(args, capture_output=True, text=True, timeout=10, cwd=ROOT)
    except (OSError, subprocess.SubprocessError):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed):
    import numpy as np

    cache = {level: _command("getconf", "LEVEL%d_CACHE_SIZE" % level) for level in (2, 3)}
    return {
        "git_sha": _command("git", "rev-parse", "HEAD") if os.path.isdir(os.path.join(ROOT, ".git"))
        else None,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l2_bytes": int(cache[2]) if cache[2] and cache[2].isdigit() else None,
        "l3_bytes": int(cache[3]) if cache[3] and cache[3].isdigit() else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
    }


def _import_package():
    """Import adaptreg from this checkout's src/; None if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "adaptreg", "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    import adaptreg

    if os.path.realpath(adaptreg.__file__) != os.path.realpath(os.path.join(SRC, "adaptreg", "__init__.py")):
        return None
    return adaptreg


def _print_metric(workload, name, value, unit):
    print("%-20s %-44s %.6g %s" % (workload, name, value, unit))


def run_one(args, import_s):
    import harness
    import workloads

    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        print("error: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    settings = cls.FULL if args.full else cls.TIMED
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        res = harness.measure(lambda: cls(args.seed, workdir, **settings), args.seconds,
                              trace=bool(args.trace), ref_size=settings["size"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = {
        "wall_ref": res["wall_ref"],
        "setup_s": import_s + res["setup_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    fail_rate = res["failed"] / res["attempted"]
    name = args.workload
    tag = "%s-seed%d-trace%d" % (name, args.seed, args.trace)
    record = {
        "workload": name, "settings": dict(settings),
        "full": args.full, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(args.seed),
        "end_to_end": e2e, "wall_s": res["wall_s"], "ref_s": res["ref_s"],
        "fail_rate": {"value": fail_rate, "failed": res["failed"], "attempted": res["attempted"]},
        "failures": res["failures"],
        "quality": res["quality"],
        "passes": res["passes"], "pass_s": res["pass_s"], "solve_s": res["solve_s"],
        "pass_solve_s": res["pass_solve_s"],
        "score_s": res["score_s"], "fixture_s": res["fixture_s"],
        "digests": res["digests"],
    }
    if not args.trace:
        for key, value in e2e.items():
            _print_metric(name, key, value, harness.END_TO_END[key])
        _print_metric(name, "wall_s", res["wall_s"], "s")
        _print_metric(name, "ref_ms", 1e3 * res["ref_s"], "ms (one reference-kernel run, 1 ref)")
    _print_metric(name, "fail_rate", fail_rate, "1 (%d of %d solves)" % (res["failed"], res["attempted"]))
    for key, value in res["quality"].items():
        _print_metric(name, key, value, workloads.QUALITY_UNITS[key])
    for reason in res["failures"]:
        print("%-20s FAILED %s" % (name, reason))

    if args.trace:
        units = harness.per_layer_units()
        layers = dict(res["layers"], **{"synth.fixture_s": res["fixture_s"]})
        record["per_layer"] = layers
        res["tracer"].write(os.path.join(OUT_DIR, tag + ".spans.jsonl"))
        for key, unit in units.items():
            _print_metric(name, key, layers[key], unit)
        metrics = {key: {"value": layers[key], "unit": unit} for key, unit in units.items()}
    else:
        metrics = {key: {"value": v, "unit": harness.END_TO_END[key]} for key, v in e2e.items()}

    with open(os.path.join(OUT_DIR, tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def run_all(args):
    """Each workload untraced, then traced, each in its own process so that
    set-up time and peak memory are the workload's own."""
    import workloads

    combined = {}
    correct, attempted, failed = True, 0, 0
    for name in workloads.WORKLOADS:
        digests = {}
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.full:
                cmd.append("--full")
            done = subprocess.run(cmd, capture_output=True, text=True)
            sys.stderr.write(done.stderr)
            lines = done.stdout.splitlines()
            if done.returncode != 0 or not lines:
                print("error: %s --trace %d exited with %d" % (name, trace, done.returncode), file=sys.stderr)
                return 1
            print("\n".join(lines[:-1]))
            last = json.loads(lines[-1])
            correct = correct and last["correct"]
            attempted += last["attempted"]
            failed += last["failed"]
            for key, metric in last["metrics"].items():
                combined["%s.%s" % (name, key)] = metric
            with open(os.path.join(OUT_DIR, "%s-seed%d-trace%d.json" % (name, args.seed, trace))) as fh:
                digests[trace] = json.load(fh)["digests"]
        if digests[0] != digests[1]:
            print("%-20s FAILED traced digests differ from the untraced run" % name)
            correct = False
        else:
            print("%-20s digests of the untraced and traced runs match" % name)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": combined}))
    return 0


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    t0 = perf_counter()
    if _import_package() is None:
        print("error: no adaptreg package under %s; run from a checkout of the repository" % SRC,
              file=sys.stderr)
        return 2
    import harness  # noqa: F401  (import time counts in setup_s)
    import workloads  # noqa: F401

    import_s = perf_counter() - t0
    if args.workload == "all":
        return run_all(args)
    return run_one(args, import_s)


if __name__ == "__main__":
    sys.exit(main())
