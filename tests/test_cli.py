"""End-to-end command-line runs over temporary files."""

import json
from pathlib import Path

import numpy as np
import pytest

from adaptreg import denoise, flow, segment
from adaptreg.cli import entry
from adaptreg.imageio import read_flo, read_pnm, write_flo, write_pnm
from adaptreg.synth import add_gaussian_noise, shifted_pair, smooth_texture


def _denoise_fixture(tmp_path):
    side = np.where(np.arange(48)[None, :] < 24, 0.25, 0.75)
    clean = side * np.ones((48, 1))
    noisy = add_gaussian_noise(clean, 0.08, seed=0)
    clean_path = tmp_path / "clean.pgm"
    noisy_path = tmp_path / "noisy.pgm"
    gt_path = tmp_path / "gt.pgm"
    write_pnm(clean_path, clean)
    write_pnm(noisy_path, noisy)
    write_pnm(gt_path, (np.arange(48)[None, :] >= 24).astype(np.uint8) * np.ones((48, 1), dtype=np.uint8))
    return clean_path, noisy_path, gt_path


def _flow_fixture(tmp_path):
    tex = smooth_texture(32, seed=5)
    f1, f2, gt = shifted_pair(tex, (1.0, 0.0))
    p1 = tmp_path / "f1.pgm"
    p2 = tmp_path / "f2.pgm"
    pgt = tmp_path / "gt.flo"
    write_pnm(p1, f1)
    write_pnm(p2, f2)
    write_flo(pgt, gt)
    return p1, p2, pgt


def _read_csv(path):
    rows = {}
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "metric,value"
    for line in lines[1:]:
        key, value = line.split(",")
        rows[key] = float(value)
    return rows


def test_denoise_zero_iterations_is_identity(tmp_path):
    _, noisy_path, _ = _denoise_fixture(tmp_path)
    out = tmp_path / "out.pgm"
    rc = entry(["denoise", "--input", str(noisy_path), "--output", str(out), "--iters", "0"])
    assert rc == 0
    assert out.read_bytes() == noisy_path.read_bytes()


def test_denoise_improves_and_reports_metrics(tmp_path, capsys):
    clean_path, noisy_path, _ = _denoise_fixture(tmp_path)
    out = tmp_path / "out.pgm"
    csv = tmp_path / "metrics.csv"
    rc = entry([
        "denoise", "--input", str(noisy_path), "--output", str(out),
        "--iters", "40", "--metrics-ref", str(clean_path), "--csv", str(csv),
    ])
    assert rc == 0
    rows = _read_csv(csv)
    assert set(rows) == {"psnr", "ssim"}
    assert rows["psnr"] > 15.0
    assert 0.0 < rows["ssim"] <= 1.0
    # stdout carries the same block
    assert capsys.readouterr().out == csv.read_text()
    # the denoised image is closer to the clean one than the input was
    clean = read_pnm(clean_path)
    assert np.abs(read_pnm(out) - clean).mean() < np.abs(read_pnm(noisy_path) - clean).mean()


def test_denoise_history_and_lambda_dumps(tmp_path):
    _, noisy_path, _ = _denoise_fixture(tmp_path)
    out = tmp_path / "out.pgm"
    hist = tmp_path / "history.csv"
    rc = entry([
        "denoise", "--input", str(noisy_path), "--output", str(out),
        "--iters", "20", "--tol", "1e-300", "--history-csv", str(hist),
        "--dump-lambda-every", "10",
    ])
    assert rc == 0
    lines = hist.read_text().strip().splitlines()
    assert lines[0] == "iter,energy,primal_residual,mean_lambda"
    assert len(lines) == 21
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert all(np.isfinite(float(v)) for v in first[1:])
    for k in (10, 20):
        dump = tmp_path / ("out.pgm.lambda%04d.pgm" % k)
        lam = read_pnm(dump)
        assert lam.shape == (48, 48)


STATES = {
    "denoise": denoise.DenoiseState,
    "segment": segment.SegmentState,
    "flow": flow.FlowState,
}


@pytest.mark.parametrize("command", ["denoise", "segment", "flow"])
def test_history_rows_carry_every_energy(tmp_path, monkeypatch, command):
    # A run forms its energy once (flow: once per warp); --history-csv
    # forms the energy of every other iteration, and only it does.
    _, noisy_path, _ = _denoise_fixture(tmp_path)
    p1, p2, _ = _flow_fixture(tmp_path)
    calls = []
    energy = STATES[command].energy

    def counted(self):
        calls.append(self)
        return energy(self)

    monkeypatch.setattr(STATES[command], "energy", counted)
    argv = {
        "denoise": ["denoise", "--input", str(noisy_path), "--output", str(tmp_path / "d.pgm")],
        "segment": ["segment", "--input", str(noisy_path), "--labels", "2"],
        "flow": ["flow", "--frame1", str(p1), "--frame2", str(p2), "--warps", "2"],
    }[command] + ["--iters", "6", "--tol", "1e-300"]
    runs = 2 if command == "flow" else 1
    assert entry(argv) == 0
    assert len(calls) == runs
    hist = tmp_path / "history.csv"
    assert entry(argv + ["--history-csv", str(hist)]) == 0
    lines = hist.read_text().splitlines()
    assert len(lines) == 1 + 6 * runs == len(calls) - runs + 1
    for line in lines[1:]:
        assert all(np.isfinite(float(v)) for v in line.split(",")[1:])


def test_segment_scores_and_sidecar(tmp_path, capsys):
    _, noisy_path, gt_path = _denoise_fixture(tmp_path)
    out_labels = tmp_path / "labels.pgm"
    out_json = tmp_path / "run.json"
    # Every recorded flag is passed, each with its own value.
    params = {
        "mu": 0.4, "eta": 0.45, "alpha": 0.02, "beta": 8.0, "theta": 1.2,
        "smooth_sigma": 0.5, "constant_lambda": 0.6, "labels": 2, "tau_excl": 0.3,
        "iters": 80, "tol": 1e-7,
    }
    flags = []
    for name, value in params.items():
        flags += ["--" + name.replace("_", "-"), repr(value)]
    rc = entry([
        "segment", "--input", str(noisy_path), "--gt", str(gt_path),
        "--out-labels", str(out_labels), "--out-json", str(out_json),
    ] + flags)
    assert rc == 0
    labels = np.rint(read_pnm(out_labels) * 255).astype(np.int64)
    assert set(np.unique(labels)) <= {0, 1}
    sidecar = json.loads(out_json.read_text())
    assert set(sidecar) == {"c", "degenerate_updates", "iterations", "params", "scores"}
    assert sidecar["scores"]["f_measure"] >= 0.99
    assert sidecar["iterations"] >= 1
    assert sidecar["params"] == params
    assert all(type(sidecar["params"][name]) is type(value) for name, value in params.items())
    c = sorted(sidecar["c"])
    assert abs(c[0] - 0.25) < 0.05
    assert abs(c[1] - 0.75) < 0.05
    assert "f_measure," in capsys.readouterr().out


def test_segment_reads_label_maps_at_any_maxval(tmp_path):
    # The labels are the stored integers, not samples rescaled to 255.
    _, noisy_path, gt_path = _denoise_fixture(tmp_path)
    labels = (np.arange(48)[None, :] >= 24) * np.ones((48, 1))
    scores = {}
    for maxval in (None, 7, 255, 65535):
        path = gt_path
        if maxval is not None:
            path = tmp_path / ("gt%d.pgm" % maxval)
            write_pnm(path, labels / maxval, maxval=maxval)
        out_json = tmp_path / ("run%s.json" % maxval)
        rc = entry(["segment", "--input", str(noisy_path), "--labels", "2", "--iters", "20",
                    "--gt", str(path), "--out-json", str(out_json)])
        assert rc == 0
        scores[maxval] = json.loads(out_json.read_text())["scores"]
    assert scores[None]["f_measure"] >= 0.99
    for maxval in (7, 255, 65535):
        assert scores[maxval] == scores[None], maxval


def test_flow_same_frame_gives_zero_field(tmp_path):
    p1, _, _ = _flow_fixture(tmp_path)
    out = tmp_path / "u.flo"
    rc = entry([
        "flow", "--frame1", str(p1), "--frame2", str(p1),
        "--out-flo", str(out), "--warps", "2", "--iters", "10",
    ])
    assert rc == 0
    u = read_flo(out)
    assert u.shape == (32, 32, 2)
    assert np.max(np.abs(u)) == 0.0


def test_flow_with_a_step_whose_schedule_quotient_overflows(tmp_path):
    # (1 - tau0)/dtau overflows to inf at dtau 1e-320; the run keeps tau
    # at tau0 instead of failing.
    p1, p2, _ = _flow_fixture(tmp_path)
    rc = entry(["flow", "--frame1", str(p1), "--frame2", str(p2), "--dtau", "1e-320",
                "--warps", "1", "--iters", "5", "--out-flo", str(tmp_path / "u.flo")])
    assert rc == 0
    assert np.all(np.isfinite(read_flo(tmp_path / "u.flo")))


def test_flow_metrics_and_color_output(tmp_path, capsys):
    p1, p2, pgt = _flow_fixture(tmp_path)
    out = tmp_path / "u.flo"
    color = tmp_path / "u.ppm"
    csv = tmp_path / "m.csv"
    rc = entry([
        "flow", "--frame1", str(p1), "--frame2", str(p2),
        "--out-flo", str(out), "--out-color", str(color),
        "--warps", "3", "--iters", "25",
        "--gt", str(pgt), "--csv", str(csv),
    ])
    assert rc == 0
    rows = _read_csv(csv)
    assert rows["aee"] < 0.5
    assert rows["aae"] < 0.5
    assert capsys.readouterr().out == csv.read_text()
    assert read_pnm(color).shape == (32, 32, 3)


@pytest.mark.parametrize("subcommand", ["denoise", "segment", "flow"])
def test_threads_flag_does_not_change_output(tmp_path, subcommand):
    _, noisy_path, _ = _denoise_fixture(tmp_path)
    p1, p2, _ = _flow_fixture(tmp_path)
    outputs = []
    for threads in ("1", "4"):
        tag = tmp_path / ("t%s" % threads)
        if subcommand == "denoise":
            argv = ["denoise", "--input", str(noisy_path), "--output", str(tag) + ".pgm",
                    "--iters", "30", "--threads", threads]
            files = [str(tag) + ".pgm"]
        elif subcommand == "segment":
            argv = ["segment", "--input", str(noisy_path), "--labels", "2", "--iters", "30",
                    "--out-labels", str(tag) + ".pgm", "--out-json", str(tag) + ".json",
                    "--threads", threads]
            files = [str(tag) + ".pgm", str(tag) + ".json"]
        else:
            argv = ["flow", "--frame1", str(p1), "--frame2", str(p2),
                    "--out-flo", str(tag) + ".flo", "--warps", "2", "--iters", "15",
                    "--threads", threads]
            files = [str(tag) + ".flo"]
        assert entry(argv) == 0
        outputs.append([Path(f).read_bytes() for f in files])
    assert outputs[0] == outputs[1]


def test_synth_junction_files(tmp_path):
    prefix = tmp_path / "j"
    rc = entry(["synth", "junction", "--out", str(prefix), "--size", "64"])
    assert rc == 0
    img = read_pnm(str(prefix) + ".pgm")
    labels = np.rint(read_pnm(str(prefix) + "_labels.pgm") * 255).astype(np.int64)
    assert img.shape == (64, 64)
    assert set(np.unique(labels)) == {0, 1, 2, 3, 4}
    # regenerating with the same flags reproduces the bytes
    prefix2 = tmp_path / "j2"
    entry(["synth", "junction", "--out", str(prefix2), "--size", "64"])
    assert (tmp_path / "j.pgm").read_bytes() == (tmp_path / "j2.pgm").read_bytes()


def test_synth_rectangles_and_texture(tmp_path):
    prefix = tmp_path / "r"
    rc = entry(["synth", "rectangles", "--out", str(prefix), "--size", "64",
                "--noise", "0", "0", "0", "0"])
    assert rc == 0
    img = read_pnm(str(prefix) + ".pgm")
    labels = np.rint(read_pnm(str(prefix) + "_labels.pgm") * 255).astype(np.int64)
    assert set(np.unique(labels)) == {0, 1, 2, 3}
    assert img.max() == 1.0
    rc = entry(["synth", "texture", "--out", str(tmp_path / "t"), "--size", "32", "--seed", "9"])
    assert rc == 0
    tex = read_pnm(str(tmp_path / "t") + ".pgm")
    assert tex.shape == (32, 32)


def test_synth_biased_zero_sigma_matches_clean(tmp_path):
    prefix = tmp_path / "b"
    rc = entry(["synth", "biased", "--out", str(prefix), "--size", "32", "--sigma-max", "0"])
    assert rc == 0
    noisy = (tmp_path / "b.pgm").read_bytes()
    clean = (tmp_path / "b_clean.pgm").read_bytes()
    assert noisy == clean


def test_synth_shifted_pair_files(tmp_path):
    prefix = tmp_path / "s"
    rc = entry(["synth", "shifted-pair", "--out", str(prefix), "--size", "32",
                "--shift", "2", "0"])
    assert rc == 0
    f1 = read_pnm(str(prefix) + "_1.pgm")
    f2 = read_pnm(str(prefix) + "_2.pgm")
    gt = read_flo(str(prefix) + "_gt.flo")
    assert f1.shape == f2.shape == (32, 32)
    assert np.all(gt[..., 0] == 2.0)
    assert np.all(gt[..., 1] == 0.0)


def test_error_exit_codes(tmp_path):
    out = str(tmp_path / "x.pgm")
    assert entry(["denoise", "--input", str(tmp_path / "missing.pgm"), "--output", out]) == 2
    _, noisy_path, _ = _denoise_fixture(tmp_path)
    assert entry(["segment", "--input", str(noisy_path), "--labels", "1"]) == 2
    assert entry(["denoise", "--input", str(noisy_path), "--output", out, "--threads", "0"]) == 2
    p1, p2, pgt = _flow_fixture(tmp_path)
    pgt.write_bytes(pgt.read_bytes() + b"\0")
    assert entry(["flow", "--frame1", str(p1), "--frame2", str(p2), "--warps", "1",
                  "--iters", "1", "--gt", str(pgt)]) == 2


def test_pnm_header_field_beyond_int_digit_limit_exits_2(tmp_path, capsys):
    path = tmp_path / "long.pgm"
    path.write_bytes(b"P5 " + b"1" * 5000 + b" 1 255\n")
    assert entry(["denoise", "--input", str(path), "--output", str(tmp_path / "x.pgm")]) == 2
    assert "malformed PNM header" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["denoise", "segment", "flow"])
def test_bad_reference_exits_2_before_solving(tmp_path, capsys, command):
    # the reference is read and shape-checked first: no output, no history
    clean_path, noisy_path, gt_path = _denoise_fixture(tmp_path)
    out = tmp_path / "out"
    history = tmp_path / "history.csv"
    if command == "flow":
        p1, p2, pgt = _flow_fixture(tmp_path)
        pgt.write_bytes(pgt.read_bytes() + b"\0")
        argv = ["flow", "--frame1", str(p1), "--frame2", str(p2), "--out-flo", str(out),
                "--gt", str(pgt)]
    else:
        small = tmp_path / "small.pgm"
        write_pnm(small, np.zeros((48, 40), dtype=np.uint8))
        argv = {
            "denoise": ["denoise", "--output", str(out), "--metrics-ref", str(small)],
            "segment": ["segment", "--labels", "2", "--out-labels", str(out), "--gt", str(small)],
        }[command] + ["--input", str(noisy_path)]
    assert entry(argv + ["--history-csv", str(history)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists() and not history.exists()


@pytest.mark.parametrize("command", ["denoise", "flow"])
def test_csv_without_a_reference_exits_2_before_reading(tmp_path, capsys, command):
    # --csv holds scores against a reference, so without one it is a usage
    # error, found before any file is read: no output, history or CSV.
    _, noisy_path, _ = _denoise_fixture(tmp_path)
    p1, p2, _ = _flow_fixture(tmp_path)
    out = tmp_path / "out"
    history = tmp_path / "history.csv"
    csv = tmp_path / "m.csv"
    missing = str(tmp_path / "missing.pgm")
    inputs = {
        "denoise": [["--input", str(noisy_path)], ["--input", missing]],
        "flow": [["--frame1", str(p1), "--frame2", str(p2)],
                 ["--frame1", missing, "--frame2", missing]],
    }[command]
    output = "--output" if command == "denoise" else "--out-flo"
    for given in inputs:
        argv = [command] + given + [output, str(out), "--iters", "2"]
        assert entry(argv + ["--csv", str(csv), "--history-csv", str(history)]) == 2
        err = capsys.readouterr().err
        assert "--csv" in err and "missing" not in err
        assert not out.exists() and not history.exists() and not csv.exists()


@pytest.mark.parametrize("command, message", [("denoise", "SSIM"), ("segment", "256 labels")])
def test_unwritable_request_exits_2_before_solving(tmp_path, capsys, command, message):
    # an 8x8 image cannot be scored by SSIM (11x11 window), and 300 labels
    # do not fit an 8-bit label map: both are known before the solve
    small = tmp_path / "small.pgm"
    write_pnm(small, add_gaussian_noise(np.full((8, 8), 0.5), 0.1, seed=1))
    out = tmp_path / "out.pgm"
    history = tmp_path / "history.csv"
    argv = {
        "denoise": ["denoise", "--output", str(out), "--metrics-ref", str(small)],
        "segment": ["segment", "--labels", "300", "--out-labels", str(out)],
    }[command]
    assert entry(argv + ["--input", str(small), "--iters", "20", "--history-csv", str(history)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists() and not history.exists()


def test_synth_junction_beyond_256_regions_exits_2(tmp_path, capsys):
    # labels 256 and above wrapped in the 8-bit label map
    assert entry(["synth", "junction", "--out", str(tmp_path / "j"), "--size", "32",
                  "--regions", "300"]) == 2
    assert "cannot write more than 256 labels as 8-bit" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [
    ["--size", "16", "--disc-frac", "1.5"],
    ["--size", "8", "--regions", "40"],
], ids=["disc-covers-sectors", "too-many-sectors"])
def test_synth_junction_with_an_empty_sector_exits_2(tmp_path, capsys, args):
    assert entry(["synth", "junction", "--out", str(tmp_path / "j")] + args) == 2
    assert "get no pixel" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, flag, value, name", [
    ("denoise", "--mu", "nan", "mu"),
    ("denoise", "--mu", "inf", "mu"),
    ("denoise", "--eta", "nan", "eta"),
    ("denoise", "--theta", "nan", "theta"),
    ("denoise", "--beta", "nan", "beta"),
    ("denoise", "--tol", "nan", "tol_primal"),
    ("denoise", "--smooth-sigma", "nan", "smoothing_sigma"),
    ("flow", "--dtau", "nan", "dtau"),
    ("segment", "--tau-excl", "inf", "tau_excl"),
])
def test_non_finite_parameters_exit_2(tmp_path, capsys, command, flag, value, name):
    _, noisy_path, _ = _denoise_fixture(tmp_path)
    inputs = {
        "denoise": ["--input", str(noisy_path), "--output", str(tmp_path / "x.pgm")],
        "segment": ["--input", str(noisy_path), "--labels", "2"],
        "flow": ["--frame1", str(noisy_path), "--frame2", str(noisy_path)],
    }[command]
    assert entry([command] + inputs + [flag, value]) == 2
    err = capsys.readouterr().err
    assert name in err and "finite" in err


@pytest.mark.parametrize("generator, flag, values", [
    ("texture", "--sigma", ["inf"]),
    ("texture", "--sigma", ["nan"]),
    ("rectangles", "--noise", ["0", "0", "0", "nan"]),
    ("rectangles", "--noise", ["inf", "0", "0", "0"]),
    ("biased", "--sigma-max", ["nan"]),
    ("biased", "--sigma-max", ["inf"]),
    ("junction", "--disc-frac", ["nan"]),
    ("junction", "--disc-frac", ["-1"]),
    ("shifted-pair", "--shift", ["nan", "0"]),
    ("shifted-pair", "--shift", ["0", "inf"]),
])
def test_non_finite_synth_parameters_exit_2(tmp_path, capsys, generator, flag, values):
    rc = entry(["synth", generator, "--out", str(tmp_path / "s"), "--size", "16", flag] + values)
    assert rc == 2
    assert "finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_synth_shift_beyond_float32_exits_2(tmp_path, capsys):
    # finite, but the ground truth .flo stores float32
    rc = entry(["synth", "shifted-pair", "--out", str(tmp_path / "s"), "--size", "8",
                "--shift", "1e300", "0"])
    assert rc == 2
    assert "float32" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("generator", ["rectangles", "texture", "biased", "shifted-pair"])
def test_synth_empty_canvas_exits_2(tmp_path, capsys, generator):
    assert entry(["synth", generator, "--out", str(tmp_path / "s"), "--size", "0"]) == 2
    assert "size" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_constant_lambda_dumps_are_uniform_full_size(tmp_path):
    _, noisy_path, _ = _denoise_fixture(tmp_path)
    out = tmp_path / "out.pgm"
    rc = entry(["denoise", "--input", str(noisy_path), "--output", str(out), "--iters", "4",
                "--tol", "1e-300", "--constant-lambda", "0.3", "--dump-lambda-every", "2"])
    assert rc == 0
    for k in (2, 4):
        lam = read_pnm(tmp_path / ("out.pgm.lambda%04d.pgm" % k))
        assert lam.shape == (48, 48)
        assert np.all(lam == np.rint(0.3 * 255) / 255)


@pytest.mark.parametrize("every", ["0", "-1"])
def test_dump_lambda_every_rejects_nonpositive(tmp_path, capsys, every):
    _, noisy_path, _ = _denoise_fixture(tmp_path)
    out = tmp_path / "out.pgm"
    rc = entry(["denoise", "--input", str(noisy_path), "--output", str(out),
                "--iters", "2", "--dump-lambda-every", every])
    assert rc == 2
    assert "--dump-lambda-every" in capsys.readouterr().err
    assert list(tmp_path.glob("out.pgm*")) == []


def test_usage_errors_raise_system_exit(tmp_path):
    with pytest.raises(SystemExit):
        entry([])
    with pytest.raises(SystemExit):
        entry(["synth", "nope", "--out", str(tmp_path / "n")])
    with pytest.raises(SystemExit):
        entry(["denoise", "--output", str(tmp_path / "x.pgm")])
