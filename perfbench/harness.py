"""Closed-loop measurement of one workload.

One caller runs the solves of a pass one after another, each starting when
the previous one returns, and repeats passes until the run's time is up.
``wall_s`` is the time of one pass, without fixture synthesis and scoring,
taken as the sum over its solves of each solve's median time across the
run's passes, so that a stall in one solve does not move it.  ``wall_ref``
is the same sum with each solve's time divided by the time of a fixed numpy
reference kernel run beside it (see ``Gauge``).  The host's speed swings by
up to half for seconds to minutes at a time and the kernel slows with it,
so ``wall_ref`` repeats where ``wall_s`` does not.  A solve that raises, or
whose output misses the quality gate or changes between passes, is counted
as failed; the run goes on.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import sys
import traceback
from time import perf_counter

import numpy as np

from tracing import LAYERS, ROOT, Tracer

# Computed, not measured: one red-black sweep reads rhs, xi and v and
# writes v once per pixel (four float64), the least traffic a sweep can
# move.  It ignores cache misses and the solver's temporaries.
BYTES_PER_PIXEL_SWEEP = 32

END_TO_END = {"wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}

# The host-speed gauge.  The kernel runs at every solve boundary and, from
# a SIGALRM timer re-armed after each sample, every PROBE_EVERY_S inside a
# solve.
REF_PIXEL_SWEEPS = 4 * 128 * 128
PROBE_EVERY_S = 0.25


class Gauge:
    """Times a fixed reference kernel beside the solves.

    The kernel is red-black sweeps of a 5-point stencil over a float64 grid
    of the workload's size, REF_PIXEL_SWEEPS pixel updates in all: numpy
    work alike to a screened solve's, in the same cache regime, but no
    adaptreg code, so no change to the package can move it.  A solve's
    reference time is the mean of the kernel times taken at its two ends
    and inside it.  The inside samples come from a signal handler
    that runs between two bytecodes of the solve; the time spent in it is
    taken out of the solve's own time, and it touches no solver state, so
    the outputs stay bitwise the same.
    """

    def __init__(self, size):
        rng = np.random.default_rng(0)
        self.x0 = rng.random((size, size))
        self.b = 0.1 * rng.random((size, size))
        self.sweeps = max(1, REF_PIXEL_SWEEPS // (size * size))
        parity = np.add.outer(np.arange(size), np.arange(size)) % 2 == 0
        self.masks = (parity, ~parity)
        self.checksum = self.kernel()
        self.samples, self.inside, self.probing_on = [], 0.0, False

    def kernel(self):
        v = self.x0.copy()
        for _ in range(self.sweeps):
            for mask in self.masks:
                t = np.zeros_like(v)
                t[1:] += v[:-1]
                t[:-1] += v[1:]
                t[:, 1:] += v[:, :-1]
                t[:, :-1] += v[:, 1:]
                v[mask] = ((self.b + 0.2 * t) / 1.8)[mask]
        return float(v.sum())

    def time(self):
        t0 = perf_counter()
        if self.kernel() != self.checksum:
            raise RuntimeError("the reference kernel changed its result")
        return perf_counter() - t0

    def _probe(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(self.time())
        self.inside += perf_counter() - t0
        if self.probing_on:  # one-shot timer, so a slow probe cannot nest
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)

    def reset(self, before):
        """Start a solve; ``before`` is the sample taken just ahead of it."""
        self.samples, self.inside = [before], 0.0

    @contextlib.contextmanager
    def probing(self):
        """Sample the kernel every PROBE_EVERY_S while the block runs."""
        previous = signal.signal(signal.SIGALRM, self._probe)
        self.probing_on = True
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)
        try:
            yield
        finally:
            self.probing_on = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def per_layer_units():
    """Name -> unit of every per-layer metric, in report order."""
    units = {}
    for name in LAYERS:
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
        units[name + ".share"] = "1"
    units.update({
        "solver.screened_solve.pixel_sweeps": "count",
        "solver.screened_solve.us_per_pixel_sweep": "us",
        "solver.screened_solve.bytes_computed": "B",
        "solver.admm_iters": "count",
        "solver.runs": "count",
        "solver.converged_runs": "count",
        "solver.converged_ratio": "1",
        "solver.final_primal_residual": "1",
        "imageio.read_pnm.bytes": "B",
        "imageio.write_pnm.bytes": "B",
        "cli.overhead_s": "s",
        "iterate.ms_p50": "ms",
        "iterate.ms_tail": "ms",
        "iterate.tail_pct": "%",
        "iterate.samples": "count",
        "metrics.score_s": "s",
        "synth.fixture_s": "s",
        "trace.wall_s": "s",
        "trace.overhead_s": "s",
        "trace.spans": "count",
    })
    return units


def setup(make):
    """Build a workload with ``make()`` and run a warm-up pass of
    workloads.WARM_ITERS iterations per solve.  Returns the instance, the
    time of both steps, and the fixture-synthesis time alone."""
    t0 = perf_counter()
    wl = make()
    t1 = perf_counter()
    for solve in wl.solves(warm=True):
        try:
            solve.run()
        except Exception:  # the timed passes count the failure
            traceback.print_exc(file=sys.stderr)
    return wl, perf_counter() - t0, t1 - t0


def run_pass(wl, gauge, tracer=None):
    """Run every solve of one pass, then score and gate the outputs.  An
    untraced pass also gauges the host's speed over each solve."""
    outputs, seconds, refs, failures = {}, {}, {}, {}
    before = gauge.time()
    for solve in wl.solves():
        gauge.reset(before)
        scope = tracer.solve(solve.name) if tracer else gauge.probing()
        t0 = perf_counter()
        try:
            with scope:
                outputs[solve.name] = solve.run()
        except Exception as exc:  # a failing solve is counted, not raised
            traceback.print_exc(file=sys.stderr)
            failures[solve.name] = ["%s: %s" % (type(exc).__name__, exc)]
        seconds[solve.name] = perf_counter() - t0 - gauge.inside
        before = gauge.time()
        refs[solve.name] = statistics.fmean(gauge.samples + [before])
    t0 = perf_counter()
    quality = {}
    if not failures:
        try:
            quality = wl.score(outputs)
            verdict = wl.check(outputs, quality)
        except Exception as exc:  # outputs that cannot be scored fail the pass
            traceback.print_exc(file=sys.stderr)
            verdict = {name: ["scoring raised %s: %s" % (type(exc).__name__, exc)] for name in outputs}
        for name, reasons in verdict.items():
            failures.setdefault(name, []).extend(reasons)
    score_s = perf_counter() - t0
    return {
        "wall_s": sum(seconds.values()),
        "solve_s": seconds,
        "ref_s": refs,
        "digests": {name: wl.digest(out) for name, out in outputs.items()},
        "failures": failures,
        "quality": quality,
        "score_s": score_s,
    }


def _repeat(make, seconds, ref_size, tracer=None):
    """Set up, then alternate passes and set-ups until ``seconds`` have gone
    by (at least one pass), so that set-up time is sampled across the run.
    With a tracer each untraced pass is followed by a traced one, so that
    the tracing overhead is measured over the same stretch of time."""
    untraced, traced, setups = [], [], []
    gauge = Gauge(ref_size)
    wl, *times = setup(make)
    setups.append(times)
    start = perf_counter()
    while not untraced or perf_counter() - start < seconds:
        untraced.append(run_pass(wl, gauge))
        if tracer is not None:
            with tracer.installed():
                traced.append(run_pass(wl, gauge, tracer))
        wl, *times = setup(make)
        setups.append(times)
    return wl, untraced, traced, setups


def _compare_digests(passes, reference, label):
    """Mark a solve failed in every pass whose digest differs from the
    reference digests."""
    for p in passes:
        for name, d in p["digests"].items():
            if reference.get(name, d) != d:
                p["failures"].setdefault(name, []).append("digest differs from %s" % label)


def measure(make, seconds, trace=False, ref_size=128):
    """Measure the workload that ``make()`` builds for ``seconds``.

    ``setup_s`` and ``fixture_s`` are medians over the run's set-ups.  With
    ``trace`` every other pass runs with each layer in tracing.LAYERS
    wrapped; times and per-layer metrics then come from the traced passes,
    and their digests must equal the untraced ones.
    """
    tracer = Tracer() if trace else None
    wl, untraced, traced, setups = _repeat(make, seconds, ref_size, tracer)
    _compare_digests(untraced[1:] + traced, untraced[0]["digests"], "the first untraced pass")
    passes = traced if trace else untraced
    counted = untraced + traced
    solve_s = {name: statistics.median(p["solve_s"][name] for p in passes)
               for name in passes[0]["solve_s"]}
    solve_ref = {name: statistics.median(p["solve_s"][name] / p["ref_s"][name] for p in passes)
                 for name in solve_s}
    reasons = sorted({r for p in counted for rs in p["failures"].values() for r in rs})
    result = {
        "passes": len(passes),
        "attempted": sum(len(p["solve_s"]) for p in counted),
        "failed": sum(len(p["failures"]) for p in counted),
        "failures": reasons,
        "solve_s": solve_s,
        "wall_s": sum(solve_s.values()),
        "wall_ref": sum(solve_ref.values()),
        "ref_s": statistics.median(r for p in passes for r in p["ref_s"].values()),
        "pass_s": [p["wall_s"] for p in passes],
        "pass_solve_s": [p["solve_s"] for p in passes],
        "score_s": statistics.median(p["score_s"] for p in passes),
        "digests": passes[0]["digests"],
        "quality": passes[0]["quality"],
        "setup_s": statistics.median(t for t, _ in setups),
        "fixture_s": statistics.median(f for _, f in setups),
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, traced, untraced, wl.problem)
        result["tracer"] = tracer
    return result


def _tail(samples):
    """Median, the highest percentile with at least 10 samples beyond it
    (the median when that percentile would lie below it), and that
    percentile."""
    s = sorted(samples)
    if not s:
        return 0.0, 0.0, 0.0
    k = len(s) - 11
    if 2 * (k + 1) < len(s):
        return statistics.median(s), statistics.median(s), 50.0
    return statistics.median(s), s[k], 100.0 * (k + 1) / len(s)


def layer_metrics(tracer, passes, untraced, problem):
    """Per-layer metrics of the traced passes, per pass."""
    table = tracer.summary()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": [], "durations": []}

    def row(name):
        return table.get(name, empty)

    n = len(passes)
    wall = sum(p["wall_s"] for p in passes)
    m = {}
    for name in LAYERS:
        m[name + ".calls"] = row(name)["calls"] / n
        m[name + ".self_s"] = row(name)["self_s"] / n
        m[name + ".share"] = row(name)["self_s"] / wall

    sweeps = sum(row("solver.screened_solve")["counts"])
    m["solver.screened_solve.pixel_sweeps"] = sweeps / n
    m["solver.screened_solve.us_per_pixel_sweep"] = (
        1e6 * row("solver.screened_solve")["self_s"] / sweeps if sweeps else 0.0)
    m["solver.screened_solve.bytes_computed"] = BYTES_PER_PIXEL_SWEEP * sweeps / n

    runs = row("solver.run_admm")["counts"]
    converged = sum(1 for _, ok, _ in runs if ok)
    m["solver.admm_iters"] = sum(it for it, _, _ in runs) / n
    m["solver.runs"] = len(runs) / n
    m["solver.converged_runs"] = converged / n
    m["solver.converged_ratio"] = converged / len(runs) if runs else 0.0
    m["solver.final_primal_residual"] = max((res for _, _, res in runs), default=0.0)

    m["imageio.read_pnm.bytes"] = sum(row("imageio.read_pnm")["counts"]) / n
    m["imageio.write_pnm.bytes"] = sum(row("imageio.write_pnm")["counts"]) / n
    cli_calls = row("denoise.run_denoise")["total_s"]
    m["cli.overhead_s"] = (row(ROOT)["total_s"] - cli_calls) / n if cli_calls else 0.0

    p50, tail, pct = _tail(row(problem + ".iterate")["durations"])
    m["iterate.ms_p50"] = 1e3 * p50
    m["iterate.ms_tail"] = 1e3 * tail
    m["iterate.tail_pct"] = pct
    m["iterate.samples"] = row(problem + ".iterate")["calls"]

    m["metrics.score_s"] = statistics.median(p["score_s"] for p in passes)
    traced = statistics.median(p["wall_s"] for p in passes)
    m["trace.wall_s"] = traced
    m["trace.overhead_s"] = traced - statistics.median(p["wall_s"] for p in untraced)
    m["trace.spans"] = len(tracer.spans) / n
    return m
