"""End-to-end command-line runs over temporary files."""

import json
from pathlib import Path

import numpy as np
import pytest

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
    assert "psnr," in capsys.readouterr().out
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


def test_segment_scores_and_sidecar(tmp_path, capsys):
    _, noisy_path, gt_path = _denoise_fixture(tmp_path)
    out_labels = tmp_path / "labels.pgm"
    out_json = tmp_path / "run.json"
    rc = entry([
        "segment", "--input", str(noisy_path), "--labels", "2",
        "--iters", "80", "--gt", str(gt_path),
        "--out-labels", str(out_labels), "--out-json", str(out_json),
    ])
    assert rc == 0
    labels = np.rint(read_pnm(out_labels) * 255).astype(np.int64)
    assert set(np.unique(labels)) <= {0, 1}
    sidecar = json.loads(out_json.read_text())
    assert set(sidecar) == {"c", "degenerate_updates", "iterations", "params", "scores"}
    assert sidecar["scores"]["f_measure"] >= 0.99
    assert sidecar["iterations"] >= 1
    assert sidecar["params"]["labels"] == 2
    c = sorted(sidecar["c"])
    assert abs(c[0] - 0.25) < 0.05
    assert abs(c[1] - 0.75) < 0.05
    assert "f_measure," in capsys.readouterr().out


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


def test_flow_metrics_and_color_output(tmp_path):
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
