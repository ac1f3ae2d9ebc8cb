"""Residual-driven adaptive regularization for variational imaging.

Three Huber-Huber ADMM solvers (denoising, multi-label segmentation,
optical flow) share a residual-to-weight map that lowers the fidelity
weight where the current model explains the data poorly, plus the grid
operators, metrics, file formats, and synthetic fixtures around them.
"""

from .adaptive import AdaptiveParams, residual_to_nu, weight_fields
from .denoise import DenoiseState, run_denoise
from .flow import FlowParams, FlowState, linearize, run_flow, tau_schedule
from .metrics import aae, aee, label_scores, match_labels, psnr, ssim
from .segment import (
    SegmentParams,
    SegmentState,
    extract_labels,
    run_segment,
    warm_start_labels,
)
from .solver import (
    DivergenceError,
    IterationRecord,
    SolverParams,
    exact_screened_solve,
    history_to_csv,
    run_admm,
    screened_solve,
)
from .synth import (
    Splitmix64,
    add_gaussian_noise,
    biased_noise_image,
    junction_image,
    noisy_rectangles,
    shifted_pair,
    smooth_texture,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptiveParams",
    "DenoiseState",
    "DivergenceError",
    "FlowParams",
    "FlowState",
    "IterationRecord",
    "SegmentParams",
    "SegmentState",
    "SolverParams",
    "Splitmix64",
    "aae",
    "aee",
    "add_gaussian_noise",
    "biased_noise_image",
    "exact_screened_solve",
    "extract_labels",
    "history_to_csv",
    "junction_image",
    "label_scores",
    "linearize",
    "match_labels",
    "noisy_rectangles",
    "psnr",
    "residual_to_nu",
    "run_admm",
    "run_denoise",
    "run_flow",
    "run_segment",
    "screened_solve",
    "shifted_pair",
    "smooth_texture",
    "ssim",
    "tau_schedule",
    "warm_start_labels",
    "weight_fields",
]
