"""The four benchmark workloads: fixtures, solve passes, scores and gates.

A workload builds its inputs from the benchmark seed, then lists the solves
of one pass.  Each solve is one call into the public ``adaptreg`` API and
returns the arrays or files it produced.  ``score`` turns the outputs of a
whole pass into quality figures and ``check`` applies the quality gate; a
solve that misses a threshold is reported as failed, never raised.

Every workload has two settings.  ``TIMED`` shortens the iteration caps so
that a pass takes a few seconds and a run can repeat it; ``FULL`` is the
acceptance-test configuration (criteria 05, 06, 09 and 10), whose passes
take from ten seconds to about a minute on a 2-core host.  Inputs, grid
sizes, solver parameters and tolerances are the same in both.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from adaptreg import (
    AdaptiveParams,
    FlowParams,
    SegmentParams,
    SolverParams,
    aae,
    aee,
    biased_noise_image,
    match_labels,
    noisy_rectangles,
    psnr,
    run_denoise,
    run_flow,
    run_segment,
    shifted_pair,
    smooth_texture,
    ssim,
    warm_start_labels,
)
from adaptreg.cli import entry
from adaptreg.imageio import read_pnm, write_pnm

WARM_ITERS = 2

# Quality gate.  The first five are the thresholds of acceptance criteria
# 05, 06, 09 and 10 (without their time bounds); the last two are sanity
# floors for the 512-pixel CLI run, which has no acceptance criterion.
THRESHOLDS = {
    "c05_best_constant_margin": -0.005,  # adaptive ssim - best constant ssim >=
    "c05_mid_margin": 0.01,  # adaptive ssim - ssim at lambda 0.5 >=
    "c06_lambda_gap": 0.1,  # clean-half mean lambda - noisy-half mean lambda >=
    "c09_accuracy_margin": 0.01,  # adaptive accuracy - gated constant accuracy >=
    "c10_aee_px": 0.3,  # average endpoint error <
    "c10_aae_rad": 0.15,  # average angular error <
    "cli_ssim_gain": 0.1,  # output ssim - noisy-input ssim >=
    "cli_psnr_gain_db": 1.0,  # output psnr - noisy-input psnr >=
}


@dataclass
class Solve:
    name: str
    run: Callable[[], dict]


def scene(n: int) -> np.ndarray:
    """Piecewise-constant scene of the denoising acceptance criteria: two
    bar gratings on the left half, two flat patches on the right."""
    clean = np.full((n, n), 0.5)
    half = n // 2
    colbar = (np.arange(half) // 4) % 2
    rowbar = (np.arange(n) // 4) % 2
    r0, r1 = n // 16, half - n // 32
    r2, r3 = half + n // 32, n - n // 16
    clean[r0:r1, :half] = np.where(colbar[None, :], 0.65, 0.35)
    clean[r2:r3, :half] = np.where(rowbar[r2:r3, None], 0.65, 0.35)
    clean[:half, half:] = 0.30
    clean[half:, half:] = 0.70
    return clean


def digest(*arrays) -> str:
    """sha256 over the raw bytes of the given arrays (or bytes)."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(a if isinstance(a, bytes) else np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _finite(*arrays) -> bool:
    return all(bool(np.all(np.isfinite(a))) for a in arrays)


def _keep_state(box):
    def on_check(state, record):
        box["state"] = state

    return on_check


class DenoiseHalfplane:
    """Criterion-05 sweep: 1 adaptive and 9 constant-lambda denoise runs on
    the half-plane biased-noise test card."""

    name = "denoise-halfplane"
    problem = "denoise"
    fixture_seed = 0
    TIMED = {"size": 128, "adaptive_iters": 40, "constant_iters": 28}
    FULL = {"size": 128, "adaptive_iters": 400, "constant_iters": 300}
    LAMBDAS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

    def __init__(self, seed, workdir, size, adaptive_iters, constant_iters):
        self.clean = scene(size)
        self.noisy = biased_noise_image(self.clean, 0.3, "half", seed=self.fixture_seed + seed)
        self.iters = {"adaptive": adaptive_iters, "constant": constant_iters}

    def solves(self, warm=False):
        cap = {k: WARM_ITERS if warm else v for k, v in self.iters.items()}
        adaptive = AdaptiveParams(beta=0.05, alpha=0.1, smoothing_sigma=2.0)
        out = [Solve("adaptive", partial(self._solve, adaptive, cap["adaptive"]))]
        for lam in self.LAMBDAS:
            constant = AdaptiveParams(beta=1.0, alpha=0.0, constant_lambda=lam)
            out.append(Solve("lambda%.1f" % lam, partial(self._solve, constant, cap["constant"])))
        return out

    def _solve(self, adaptive, iters):
        sp = SolverParams(mu=0.16, eta=0.08, theta=1.0, adaptive=adaptive,
                          max_iters=iters, tol_primal=1e-9)
        box = {}
        u, _ = run_denoise(self.noisy, sp, on_check=_keep_state(box))
        return {"u": u, "lam": box["state"].lam}

    def digest(self, out):
        return digest(out["u"])

    def score(self, outputs):
        ad = outputs["adaptive"]
        const = {name: ssim(o["u"], self.clean) for name, o in outputs.items() if name != "adaptive"}
        half = ad["lam"].shape[1] // 2
        q = {
            "ssim": ssim(ad["u"], self.clean),
            "ssim_best_constant": max(const.values()),
            "ssim_lambda0.5": const["lambda0.5"],
            "lambda_gap": float(ad["lam"][:, :half].mean() - ad["lam"][:, half:].mean()),
        }
        q["ssim_gap"] = q["ssim"] - q["ssim_best_constant"]
        return q

    def check(self, outputs, q):
        t = THRESHOLDS
        bad = {name: ["non-finite output"] for name, o in outputs.items() if not _finite(o["u"])}
        gate = []
        if q["ssim_gap"] < t["c05_best_constant_margin"]:
            gate.append("c05: adaptive ssim below best constant")
        if q["ssim"] - q["ssim_lambda0.5"] < t["c05_mid_margin"]:
            gate.append("c05: adaptive ssim not above lambda 0.5")
        if q["lambda_gap"] < t["c06_lambda_gap"]:
            gate.append("c06: weights do not localize the noise")
        if gate:
            bad.setdefault("adaptive", []).extend(gate)
        return bad


class SegmentRectangles:
    """Criterion-09 scene: four labels on noisy_rectangles, adaptive against
    constant lambda 0.2 and 0.8, all warm-started."""

    name = "segment-rectangles"
    problem = "segment"
    fixture_seed = 0
    # The lambda-0.8 baseline only falls behind the adaptive run after it
    # has over-smoothed for ~150+ iterations, so the timed setting gates
    # against lambda 0.2 alone and the full setting against both.
    TIMED = {"size": 128, "adaptive_iters": 28, "constant_iters": 20,
             "gated_constants": ("lambda0.2",)}
    FULL = {"size": 128, "adaptive_iters": 300, "constant_iters": 300,
            "gated_constants": ("lambda0.2", "lambda0.8")}

    def __init__(self, seed, workdir, size, adaptive_iters, constant_iters, gated_constants):
        self.image, self.gt = noisy_rectangles(size, seed=self.fixture_seed + seed)
        self.iters = {"adaptive": adaptive_iters, "constant": constant_iters}
        self.gated_constants = gated_constants

    def solves(self, warm=False):
        cap = {k: WARM_ITERS if warm else v for k, v in self.iters.items()}
        adaptive = AdaptiveParams(beta=0.05, alpha=0.01, smoothing_sigma=1.5)
        out = [Solve("adaptive", partial(self._solve, adaptive, cap["adaptive"]))]
        for lam in (0.2, 0.8):
            constant = AdaptiveParams(beta=1.0, alpha=0.01, constant_lambda=lam)
            out.append(Solve("lambda%.1f" % lam, partial(self._solve, constant, cap["constant"])))
        return out

    def _solve(self, adaptive, iters):
        sp = SolverParams(mu=0.5, eta=0.5, theta=1.0, adaptive=adaptive,
                          max_iters=iters, tol_primal=1e-6)
        params = SegmentParams(solver=sp, n_labels=4, tau_excl=0.5)
        labels, state, _ = run_segment(self.image, params, state=warm_start_labels(self.image, 4))
        return {"labels": labels, "u": state.u}

    def digest(self, out):
        return digest(out["u"], out["labels"])

    def _accuracy(self, labels):
        correct = sum(int(np.count_nonzero((labels == p) & (self.gt == g)))
                      for p, g in match_labels(labels, self.gt).items())
        return correct / self.gt.size

    def score(self, outputs):
        acc = {name: self._accuracy(o["labels"]) for name, o in outputs.items()}
        return {
            "label_accuracy": acc["adaptive"],
            "accuracy_lambda0.2": acc["lambda0.2"],
            "accuracy_lambda0.8": acc["lambda0.8"],
            "accuracy_gap": acc["adaptive"] - max(acc["lambda0.2"], acc["lambda0.8"]),
        }

    def check(self, outputs, q):
        bad = {name: ["non-finite output"] for name, o in outputs.items() if not _finite(o["u"])}
        for name in self.gated_constants:
            if q["label_accuracy"] - q["accuracy_" + name] < THRESHOLDS["c09_accuracy_margin"]:
                bad.setdefault("adaptive", []).append("c09: adaptive accuracy not above %s" % name)
        return bad


class FlowShift:
    """Criterion 10: unit horizontal shift of a smooth texture, 50 inner
    iterations per warp."""

    name = "flow-shift"
    problem = "flow"
    fixture_seed = 5
    TIMED = {"size": 128, "warps": 3, "iters": 50}
    FULL = {"size": 128, "warps": 10, "iters": 50}

    def __init__(self, seed, workdir, size, warps, iters):
        base = smooth_texture(size, seed=self.fixture_seed + seed)
        self.f1, self.f2, self.gt = shifted_pair(base, (1.0, 0.0))
        self.warps = warps
        self.iters = iters

    def solves(self, warm=False):
        warps, iters = (1, WARM_ITERS) if warm else (self.warps, self.iters)
        return [Solve("flow", partial(self._solve, warps, iters))]

    def _solve(self, warps, iters):
        sp = SolverParams(mu=0.01, eta=0.3, theta=0.1,
                          adaptive=AdaptiveParams(beta=10.0, alpha=0.01),
                          max_iters=iters, tol_primal=1e-9)
        u, _ = run_flow(self.f1, self.f2, FlowParams(solver=sp, tau0=0.5, dtau=0.005, n_warps=warps))
        return {"u": u}

    def digest(self, out):
        return digest(out["u"])

    def score(self, outputs):
        u = outputs["flow"]["u"]
        return {"aee_px": aee(u, self.gt), "aae_rad": aae(u, self.gt)}

    def check(self, outputs, q):
        bad = []
        if not _finite(outputs["flow"]["u"]):
            bad.append("non-finite output")
        if not q["aee_px"] < THRESHOLDS["c10_aee_px"]:
            bad.append("c10: endpoint error too large")
        if not q["aae_rad"] < THRESHOLDS["c10_aae_rad"]:
            bad.append("c10: angular error too large")
        return {"flow": bad} if bad else {}


class DenoiseCli512:
    """512-pixel adaptive denoise through ``adaptreg.cli.entry`` in process,
    at a fixed iteration count, reading and writing real files."""

    name = "denoise-cli-512"
    problem = "denoise"
    fixture_seed = 0
    TIMED = {"size": 512, "iters": 16}
    FULL = {"size": 512, "iters": 30}

    def __init__(self, seed, workdir, size, iters):
        clean = scene(size)
        noisy = biased_noise_image(clean, 0.3, "half", seed=self.fixture_seed + seed)
        self.paths = {k: os.path.join(workdir, k) for k in
                      ("noisy.pgm", "clean.pgm", "out.pgm", "history.csv", "metrics.csv")}
        write_pnm(self.paths["noisy.pgm"], noisy)
        write_pnm(self.paths["clean.pgm"], clean)
        # Score the quantized input the CLI actually reads.
        ref = read_pnm(self.paths["clean.pgm"])
        src = read_pnm(self.paths["noisy.pgm"])
        self.input_ssim = ssim(src, ref)
        self.input_psnr = psnr(src, ref)
        self.size = size
        self.iters = iters

    def solves(self, warm=False):
        return [Solve("cli", partial(self._solve, WARM_ITERS if warm else self.iters))]

    def _solve(self, iters):
        p = self.paths
        argv = ["denoise", "--input", p["noisy.pgm"], "--output", p["out.pgm"],
                "--beta", "0.05", "--alpha", "0.1", "--smooth-sigma", "2",
                "--iters", str(iters), "--tol", "1e-300",
                "--history-csv", p["history.csv"],
                "--metrics-ref", p["clean.pgm"], "--csv", p["metrics.csv"]]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = entry(argv)
        out = {"rc": rc, "iters": iters}
        if rc == 0:
            for key in ("out.pgm", "history.csv", "metrics.csv"):
                with open(p[key], "rb") as fh:
                    out[key] = fh.read()
        return out

    def digest(self, out):
        return digest(out.get("out.pgm", b""), out.get("history.csv", b""))

    def score(self, outputs):
        out = outputs["cli"]
        if out["rc"] != 0:
            return {}
        rows = dict(line.split(",") for line in out["metrics.csv"].decode().splitlines()[1:])
        return {"ssim": float(rows["ssim"]), "psnr_db": float(rows["psnr"]),
                "ssim_gain": float(rows["ssim"]) - self.input_ssim}

    def check(self, outputs, q):
        out = outputs["cli"]
        if out["rc"] != 0:
            return {"cli": ["exit code %d" % out["rc"]]}
        bad = []
        if read_pnm(self.paths["out.pgm"]).shape != (self.size, self.size):
            bad.append("output image has the wrong shape")
        if len(out["history.csv"].decode().splitlines()) != out["iters"] + 1:
            bad.append("history does not hold one row per iteration")
        if not (q["ssim_gain"] >= THRESHOLDS["cli_ssim_gain"]
                and q["psnr_db"] - self.input_psnr >= THRESHOLDS["cli_psnr_gain_db"]):
            bad.append("output does not improve on the noisy input")
        return {"cli": bad} if bad else {}


WORKLOADS = {w.name: w for w in (DenoiseHalfplane, SegmentRectangles, FlowShift, DenoiseCli512)}

# Quality figures each workload reports, with units.
QUALITY_UNITS = {
    "ssim": "1", "ssim_gap": "1", "ssim_best_constant": "1", "ssim_lambda0.5": "1",
    "lambda_gap": "1", "label_accuracy": "1", "accuracy_gap": "1",
    "accuracy_lambda0.2": "1", "accuracy_lambda0.8": "1", "aee_px": "px",
    "aae_rad": "rad", "psnr_db": "dB", "ssim_gain": "1",
}
