"""Command-line interface: denoise, segment, flow, and fixture synthesis.

Exit codes: 0 success, 2 usage or input errors, 3 numerical divergence.
Every subcommand is deterministic given its flags; --threads is accepted
for interface stability but results are bitwise identical for any value.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import imageio, metrics, synth
from .adaptive import AdaptiveParams
from .denoise import run_denoise
from .flow import FlowParams, run_flow
from .imageio import (
    flow_to_color,
    grayscale_heatmap,
    read_flo,
    read_pnm,
    write_flo,
    write_pnm,
)
from .segment import SegmentParams, run_segment
from .solver import DivergenceError, SolverParams, history_to_csv


def _read_gray(path) -> np.ndarray:
    img = read_pnm(path)
    if img.ndim == 3:
        img = img.mean(axis=2)
    return img


def _read_labelmap(path) -> np.ndarray:
    img = read_pnm(path)
    if img.ndim == 3:
        raise ValueError("label maps must be single-channel PGM")
    return np.rint(img * 255.0).astype(np.int64)


def _check_reference(ref: np.ndarray, shape, what: str) -> np.ndarray:
    if ref.shape != shape:
        raise ValueError("%s has shape %s, the input needs %s" % (what, ref.shape, shape))
    return ref


def _add_solver_flags(sp, mu, eta, alpha, beta, theta, iters):
    sp.add_argument("--mu", type=float, default=mu, help="data Huber threshold (default %(default)s)")
    sp.add_argument("--eta", type=float, default=eta, help="regularizer Huber threshold (default %(default)s)")
    sp.add_argument("--alpha", type=float, default=alpha, help="weight shrinkage offset (default %(default)s)")
    sp.add_argument("--beta", type=float, default=beta, help="residual decay scale (default %(default)s)")
    sp.add_argument("--theta", type=float, default=theta, help="augmentation weight (default %(default)s)")
    sp.add_argument("--smooth-sigma", type=float, default=0.0, help="Gaussian smoothing of the residual before weighting (default %(default)s)")
    sp.add_argument("--constant-lambda", type=float, default=None, metavar="L0", help="disable adaptivity and use this constant fidelity weight")
    sp.add_argument("--iters", type=int, default=iters, help="iteration cap (default %(default)s)")
    sp.add_argument("--tol", type=float, default=1e-6, help="primal residual stop tolerance (default %(default)s)")
    sp.add_argument("--history-csv", metavar="PATH", help="write per-iteration history as CSV")
    sp.add_argument("--threads", type=int, default=1, help="accepted for interface stability; output is identical for any value")


def _solver_params(args) -> SolverParams:
    if args.threads < 1:
        raise ValueError("--threads must be a positive integer")
    adaptive = AdaptiveParams(
        beta=args.beta,
        alpha=args.alpha,
        smoothing_sigma=args.smooth_sigma,
        constant_lambda=args.constant_lambda,
    )
    return SolverParams(
        mu=args.mu,
        eta=args.eta,
        theta=args.theta,
        adaptive=adaptive,
        max_iters=args.iters,
        tol_primal=args.tol,
    )


def _write_history(args, history):
    if args.history_csv:
        with open(args.history_csv, "w") as fh:
            fh.write(history_to_csv(history))


def cmd_denoise(args) -> int:
    every = args.dump_lambda_every
    if every is not None and every < 1:
        raise ValueError("--dump-lambda-every must be a positive integer")
    f = _read_gray(args.input)
    ref = _check_reference(_read_gray(args.metrics_ref), f.shape, "--metrics-ref") if args.metrics_ref else None
    params = _solver_params(args)
    on_check = None
    if every is not None:

        def on_check(state, record):
            if record.iter % every == 0:
                path = "%s.lambda%04d.pgm" % (args.output, record.iter)
                write_pnm(path, grayscale_heatmap(state.lam, 0.0, 1.0))

    u, history = run_denoise(f, params, on_check=on_check)
    write_pnm(args.output, u)
    _write_history(args, history)
    if ref is not None:
        rows = [("psnr", metrics.psnr(u, ref)), ("ssim", metrics.ssim(u, ref))]
        block = metrics.metrics_csv(rows)
        if args.csv:
            with open(args.csv, "w") as fh:
                fh.write(block)
        sys.stdout.write(block)
    return 0


def cmd_segment(args) -> int:
    if args.labels < 2:
        raise ValueError("--labels must be at least 2")
    f = _read_gray(args.input)
    gt = _check_reference(_read_labelmap(args.gt), f.shape, "--gt") if args.gt else None
    params = SegmentParams(
        solver=_solver_params(args),
        n_labels=args.labels,
        tau_excl=args.tau_excl,
    )
    labels, state, history = run_segment(f, params)
    _write_history(args, history)
    if args.out_labels:
        if args.labels > 256:
            raise ValueError("cannot write more than 256 labels as 8-bit")
        write_pnm(args.out_labels, labels.astype(np.uint8))
    sidecar = {
        "c": [float(c) for c in state.c],
        "degenerate_updates": len(state.degenerate_events),
        "iterations": history[-1].iter if history else 0,
        "params": {
            "mu": args.mu,
            "eta": args.eta,
            "alpha": args.alpha,
            "beta": args.beta,
            "theta": args.theta,
            "smooth_sigma": args.smooth_sigma,
            "constant_lambda": args.constant_lambda,
            "labels": args.labels,
            "tau_excl": args.tau_excl,
            "iters": args.iters,
            "tol": args.tol,
        },
    }
    if gt is not None:
        precision, recall, f_measure = metrics.label_scores(labels, gt)
        sidecar["scores"] = {
            "precision": precision,
            "recall": recall,
            "f_measure": f_measure,
        }
        sys.stdout.write(
            metrics.metrics_csv(
                [("precision", precision), ("recall", recall), ("f_measure", f_measure)]
            )
        )
    if args.out_json:
        with open(args.out_json, "w") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def cmd_flow(args) -> int:
    f1 = _read_gray(args.frame1)
    f2 = _read_gray(args.frame2)
    gt = _check_reference(read_flo(args.gt), f1.shape + (2,), "--gt") if args.gt else None
    params = FlowParams(
        solver=_solver_params(args),
        tau0=args.tau0,
        dtau=args.dtau,
        n_warps=args.warps,
        pyramid_levels=args.pyramid,
        anisotropic_reg=not args.isotropic,
    )
    u, history = run_flow(f1, f2, params)
    _write_history(args, history)
    if args.out_flo:
        write_flo(args.out_flo, u)
    if args.out_color:
        write_pnm(args.out_color, flow_to_color(u))
    if gt is not None:
        rows = [("aee", metrics.aee(u, gt)), ("aae", metrics.aae(u, gt))]
        block = metrics.metrics_csv(rows)
        if args.csv:
            with open(args.csv, "w") as fh:
                fh.write(block)
        sys.stdout.write(block)
    return 0


def cmd_synth(args) -> int:
    out = args.out
    if args.generator == "junction":
        image, labels = synth.junction_image(
            args.regions, args.size, args.disc_frac, args.seed
        )
        write_pnm(out + ".pgm", image)
        write_pnm(out + "_labels.pgm", labels.astype(np.uint8))
    elif args.generator == "rectangles":
        image, labels = synth.noisy_rectangles(args.size, tuple(args.noise), args.seed)
        write_pnm(out + ".pgm", image)
        write_pnm(out + "_labels.pgm", labels.astype(np.uint8))
    elif args.generator == "biased":
        clean = _read_gray(args.input) if args.input else synth.smooth_texture(args.size, args.seed)
        noisy = synth.biased_noise_image(clean, args.sigma_max, args.profile, args.seed)
        write_pnm(out + ".pgm", noisy)
        write_pnm(out + "_clean.pgm", clean)
    elif args.generator == "shifted-pair":
        base = _read_gray(args.input) if args.input else synth.smooth_texture(args.size, args.seed)
        f1, f2, gt = synth.shifted_pair(base, (args.shift[0], args.shift[1]))
        write_pnm(out + "_1.pgm", f1)
        write_pnm(out + "_2.pgm", f2)
        write_flo(out + "_gt.flo", gt)
    else:
        image = synth.smooth_texture(args.size, args.seed, args.sigma)
        write_pnm(out + ".pgm", image)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adaptreg",
        description="Residual-driven adaptive regularization for denoising, segmentation, and optical flow.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("denoise", help="Huber-Huber denoising with adaptive weights")
    d.add_argument("--input", required=True, help="input PGM/PPM (PPM is averaged to gray)")
    d.add_argument("--output", required=True, help="output PGM path")
    _add_solver_flags(d, mu=0.16, eta=0.08, alpha=0.01, beta=1.0, theta=1.0, iters=150)
    d.add_argument("--dump-lambda-every", type=int, metavar="K", help="write the fidelity-weight field as a heatmap every K >= 1 iterations")
    d.add_argument("--metrics-ref", metavar="CLEAN", help="clean reference for PSNR/SSIM")
    d.add_argument("--csv", metavar="PATH", help="write metric rows to this CSV")
    d.set_defaults(func=cmd_denoise)

    s = sub.add_parser("segment", help="multi-label segmentation")
    s.add_argument("--input", required=True)
    s.add_argument("--labels", type=int, required=True, help="number of labels (>= 2)")
    s.add_argument("--tau-excl", type=float, default=0.5, help="mutual exclusivity weight (default %(default)s)")
    _add_solver_flags(s, mu=0.5, eta=0.5, alpha=0.01, beta=10.0, theta=1.0, iters=300)
    s.add_argument("--gt", metavar="LABELMAP", help="ground-truth label PGM for scoring")
    s.add_argument("--out-labels", metavar="PATH", help="write the label map as 8-bit PGM")
    s.add_argument("--out-json", metavar="PATH", help="write region intensities, params, and scores as JSON")
    s.set_defaults(func=cmd_segment)

    f = sub.add_parser("flow", help="optical flow with warp annealing")
    f.add_argument("--frame1", required=True)
    f.add_argument("--frame2", required=True)
    f.add_argument("--out-flo", metavar="PATH", help="write the flow field (.flo)")
    f.add_argument("--out-color", metavar="PATH", help="write the color-coded flow as PPM")
    f.add_argument("--tau0", type=float, default=0.5, help="initial warp mix (default %(default)s)")
    f.add_argument("--dtau", type=float, default=0.005, help="warp mix increment per iteration (default %(default)s)")
    f.add_argument("--warps", type=int, default=10, help="outer re-linearizations (default %(default)s)")
    f.add_argument("--pyramid", type=int, default=1, help="coarse-to-fine levels (default %(default)s)")
    f.add_argument("--isotropic", action="store_true", help="isotropic regularizer per velocity component")
    _add_solver_flags(f, mu=0.01, eta=0.3, alpha=0.01, beta=10.0, theta=0.1, iters=50)
    f.add_argument("--gt", metavar="FLO", help="ground-truth flow for AEE/AAE")
    f.add_argument("--csv", metavar="PATH", help="write metric rows to this CSV")
    f.set_defaults(func=cmd_flow)

    g = sub.add_parser("synth", help="write synthetic fixtures")
    g.add_argument("generator", choices=["junction", "rectangles", "biased", "shifted-pair", "texture"])
    g.add_argument("--out", required=True, help="output path prefix")
    g.add_argument("--size", type=int, default=128, help="canvas size (default %(default)s)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--regions", type=int, default=5, help="junction: region count (default %(default)s)")
    g.add_argument("--disc-frac", type=float, default=0.25, help="junction: disc radius as a fraction of the half-size")
    g.add_argument("--noise", type=float, nargs=4, default=[0.0, 0.05, 0.15, 0.30], metavar=("BG", "S1", "S2", "S3"), help="rectangles: per-region sigmas")
    g.add_argument("--input", help="biased / shifted-pair: source image (default: generated texture)")
    g.add_argument("--sigma-max", type=float, default=0.3, help="biased: peak noise sigma (default %(default)s)")
    g.add_argument("--profile", choices=["half", "radial"], default="half", help="biased: sigma profile (default %(default)s)")
    g.add_argument("--shift", type=float, nargs=2, default=[1.0, 0.0], metavar=("DX", "DY"), help="shifted-pair: translation (default %(default)s)")
    g.add_argument("--sigma", type=float, default=6.0, help="texture: smoothing sigma (default %(default)s)")
    g.set_defaults(func=cmd_synth)
    return parser


def entry(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(entry())
