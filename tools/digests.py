"""Print a sha256 per solver run, over everything the run produces.

Each library run hashes its outputs, every state field after every
iteration (through on_check) and its history CSV, with every
iteration's energy formed as the command line's --history-csv forms it
(a run forms the energy only on its last iteration); each command-line run
hashes the files it writes, its history CSV among them, and what it
prints.  The runs:

    denoise-{adaptive,constant}
    denoise-adaptive-alpha0                        alpha 0, where the split's penalty falls back
    segment-{adaptive,constant}                    4 labels
    segment-constant-2label                        2 labels
    segment-constant-odd                           4 labels, image of side SIZE + 1
    flow-{anisotropic,isotropic}-{1,2}level-{adaptive,constant}
    flow-anisotropic-2level-odd                    adaptive, frames of side SIZE + 1
    cli-{denoise,segment,flow}                     the criterion-15 runs
    cli-{denoise,segment,flow}-scored              metrics against a reference
    cli-synth-{junction,rectangles,biased,shifted-pair,texture}

A refactor that keeps every output bitwise prints the same JSON before
and after it, so diffing the two is its bitwise gate.  Fields are hashed
in C order with their shapes, so a field's memory layout does not
change its digest.

    python3 tools/digests.py [SIZE [ITERS]]      (default 64 30)
    python3 tools/digests.py [SIZE [ITERS]] --against OLD.json

SIZE is the side of the library runs' images and ITERS their iteration
cap (per warp for flow); the command-line runs have fixed sizes.  With
--against, it prints, instead of the JSON, the names of the runs whose
digests differ from those in OLD.json (a run missing there counts as
changed) and of those that do not, and exits 1 if any run changed, 0
if none did; OLD.json must come from the same SIZE and ITERS.  Run it
with src/ on PYTHONPATH or the package installed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

from adaptreg import (
    AdaptiveParams,
    FlowParams,
    SegmentParams,
    SolverParams,
    add_gaussian_noise,
    biased_noise_image,
    history_to_csv,
    noisy_rectangles,
    run_denoise,
    run_flow,
    run_segment,
    shifted_pair,
    smooth_texture,
)
from adaptreg.cli import entry
from adaptreg.imageio import write_flo, write_pnm

FIELDS = {
    "denoise": ("u", "v", "w", "r", "z", "y", "lam"),
    "segment": ("u", "v", "w", "r", "z", "lam", "c"),
    "flow": ("u", "v", "w", "r", "z", "y", "lam", "A", "ft"),
}


def _update(h, name: str, value) -> None:
    """Hash a name, then an array by its shape and its C-ordered bytes, or
    anything else (a float lambda, a list) by its repr."""
    h.update(name.encode())
    if hasattr(value, "tobytes"):
        h.update(repr(value.shape).encode())
        h.update(value.tobytes())
    else:
        h.update(repr(value).encode())


class _Run:
    """A sha256 fed by on_check with the fields of the state after every
    iteration, and then with the run's outputs and the history rows that
    on_check kept, each with its energy formed."""

    def __init__(self, problem: str):
        self.fields = FIELDS[problem]
        self.h = hashlib.sha256()
        self.rows = []

    def on_check(self, state, record):
        if math.isnan(record.energy):
            record = dataclasses.replace(record, energy=state.energy())
        self.rows.append(record)
        for name in self.fields:
            _update(self.h, name, getattr(state, name))

    def finish(self, outputs: dict) -> str:
        for name, value in outputs.items():
            _update(self.h, name, value)
        self.h.update(history_to_csv(self.rows).encode())
        return self.h.hexdigest()


def _adaptive(beta: float, sigma: float, constant, alpha: float = 0.01):
    if constant is None:
        return AdaptiveParams(beta=beta, alpha=alpha, smoothing_sigma=sigma)
    return AdaptiveParams(beta=beta, alpha=alpha, constant_lambda=constant)


def library_runs(size: int, iters: int) -> dict:
    digests = {}
    clean = noisy_rectangles(size, noise_levels=(0.0, 0.0, 0.0, 0.0))[0]
    noisy = biased_noise_image(clean, 0.3, "half", seed=2)
    for kind, constant, alpha in (("adaptive", None, 0.01), ("constant", 0.5, 0.01),
                                  ("adaptive-alpha0", None, 0.0)):
        sp = SolverParams(mu=0.16, eta=0.08, theta=1.0, adaptive=_adaptive(1.0, 1.0, constant, alpha),
                          max_iters=iters, tol_primal=1e-12)
        run = _Run("denoise")
        u, _ = run_denoise(noisy, sp, on_check=run.on_check)
        digests["denoise-" + kind] = run.finish({"u": u})

    def segment(side, n_labels, constant):
        image = noisy_rectangles(side, seed=1)[0]
        sp = SolverParams(mu=0.5, eta=0.5, theta=1.0, adaptive=_adaptive(0.05, 1.5, constant),
                          max_iters=iters, tol_primal=1e-12)
        run = _Run("segment")
        labels, state, _ = run_segment(image, SegmentParams(solver=sp, n_labels=n_labels),
                                       on_check=run.on_check)
        outputs = {"labels": labels, "c": state.c, "degenerate": state.degenerate_events}
        return run.finish(outputs)

    for kind, constant in (("adaptive", None), ("constant", 0.2)):
        digests["segment-" + kind] = segment(size, 4, constant)
    # Two labels, where a constant weight's exact solve takes one label
    # of the two; and an odd side, for the exact solve's odd transforms.
    digests["segment-constant-2label"] = segment(size, 2, 0.2)
    digests["segment-constant-odd"] = segment(size + 1, 4, 0.2)

    def flow(side, reg, levels, constant):
        f1, f2, _ = shifted_pair(smooth_texture(side, seed=5), (1.0, 0.5))
        sp = SolverParams(mu=0.01, eta=0.01, theta=0.1, adaptive=_adaptive(10.0, 1.0, constant),
                          max_iters=iters, tol_primal=1e-12)
        fp = FlowParams(solver=sp, n_warps=2, pyramid_levels=levels,
                        anisotropic_reg=reg == "anisotropic")
        run = _Run("flow")
        u, _ = run_flow(f1, f2, fp, on_check=run.on_check)
        return run.finish({"u": u})

    for reg in ("anisotropic", "isotropic"):
        for levels in (1, 2):
            for kind, constant in (("adaptive", None), ("constant", 0.99)):
                digests["flow-%s-%dlevel-%s" % (reg, levels, kind)] = flow(size, reg, levels, constant)
    # An odd side, so that upsampling the coarse level repeats its last
    # row and column.
    digests["flow-anisotropic-2level-odd"] = flow(size + 1, "anisotropic", 2, None)
    return digests


def cli_runs(workdir: Path) -> dict:
    """The three runs of acceptance criterion 15 (at --threads 1, each
    with --history-csv), one run of denoise, segment and flow that scores
    against a reference (metric CSV, scores, color flow; the denoise run
    also dumps its weight field), and one run per synth generator."""
    side = [0.25 if x < 24 else 0.75 for x in range(48)]
    write_pnm(workdir / "clean.pgm", [side] * 48)
    write_pnm(workdir / "noisy.pgm", add_gaussian_noise([side] * 48, 0.08, seed=0))
    # labels 0 and 1, since write_pnm stores rint(255 x)
    write_pnm(workdir / "gt.pgm", [[0.0 if x < 24 else 1.0 / 255 for x in range(48)]] * 48)
    f1, f2, gt = shifted_pair(smooth_texture(32, seed=5), (1.0, 0.0))
    write_pnm(workdir / "f1.pgm", f1)
    write_pnm(workdir / "f2.pgm", f2)
    write_flo(workdir / "gt.flo", gt)
    # {in} is the input directory and {out} the run's own; files are the
    # run's outputs, named inside {out}.
    denoise = ["denoise", "--input", "{in}/noisy.pgm", "--output", "{out}/d.pgm"]
    segment = ["segment", "--input", "{in}/noisy.pgm", "--labels", "2"]
    flow = ["flow", "--frame1", "{in}/f1.pgm", "--frame2", "{in}/f2.pgm"]
    history = ["--threads", "1", "--history-csv", "{out}/history.csv"]
    runs = {
        "denoise": (denoise + ["--iters", "30"] + history, ["d.pgm", "history.csv"]),
        "segment": (segment + ["--iters", "30", "--out-labels", "{out}/s.pgm",
                               "--out-json", "{out}/s.json"] + history,
                    ["s.pgm", "s.json", "history.csv"]),
        "flow": (flow + ["--out-flo", "{out}/f.flo", "--warps", "2", "--iters", "15"] + history,
                 ["f.flo", "history.csv"]),
        # At the default beta 1 the dumped weight is 1 - alpha (gray 252)
        # everywhere, and a dump of one gray level hides its rounding.
        "denoise-scored": (denoise + ["--iters", "10", "--metrics-ref", "{in}/clean.pgm",
                                      "--csv", "{out}/m.csv", "--dump-lambda-every", "5",
                                      "--beta", "0.02"],
                           ["d.pgm", "m.csv", "d.pgm.lambda0005.pgm", "d.pgm.lambda0010.pgm"]),
        "segment-scored": (segment + ["--iters", "10", "--gt", "{in}/gt.pgm",
                                      "--out-json", "{out}/s.json"], ["s.json"]),
        "flow-scored": (flow + ["--warps", "1", "--iters", "10", "--gt", "{in}/gt.flo",
                                "--csv", "{out}/m.csv", "--out-color", "{out}/c.ppm"],
                        ["m.csv", "c.ppm"]),
    }
    synth = {
        "junction": ["x.pgm", "x_labels.pgm"],
        "rectangles": ["x.pgm", "x_labels.pgm"],
        "biased": ["x.pgm", "x_clean.pgm"],
        "shifted-pair": ["x_1.pgm", "x_2.pgm", "x_gt.flo"],
        "texture": ["x.pgm"],
    }
    for generator, files in synth.items():
        runs["synth-" + generator] = (["synth", generator, "--size", "32", "--out", "{out}/x"], files)
    digests = {}
    for name, (args, files) in runs.items():
        out = workdir / name
        out.mkdir()
        args = [a.format(**{"in": workdir, "out": out}) for a in args]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = entry(args)
        if rc != 0:
            raise RuntimeError("cli %s exited with %d" % (name, rc))
        h = hashlib.sha256()
        for f in files:
            h.update(f.encode())
            h.update((out / f).read_bytes())
        h.update(b"stdout")
        h.update(stdout.getvalue().encode())
        digests["cli-" + name] = h.hexdigest()
    return digests


def digests(size: int = 64, iters: int = 30) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        cli = cli_runs(Path(tmp))
    return {**library_runs(size, iters), **cli}


def compare(new: dict, old: dict) -> tuple[str, bool]:
    """The names of the runs in new whose digests differ from old's, then
    those of the runs whose digests match; and whether any run changed."""
    changed = sorted(name for name, d in new.items() if old.get(name) != d)
    same = sorted(name for name in new if name not in changed)
    lines = ["changed (%d):" % len(changed)] + ["  " + name for name in changed]
    lines += ["unchanged (%d):" % len(same)] + ["  " + name for name in same]
    return "\n".join(lines), bool(changed)


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("size", nargs="?", type=int, default=64)
    p.add_argument("iters", nargs="?", type=int, default=30)
    p.add_argument("--against", type=Path, help="digests printed earlier, to compare with")
    args = p.parse_args(argv[1:])
    new = digests(args.size, args.iters)
    if args.against is None:
        print(json.dumps(new, indent=1, sort_keys=True))
        return 0
    report, changed = compare(new, json.loads(args.against.read_text()))
    print(report)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
