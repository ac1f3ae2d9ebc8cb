"""Tests of the benchmark's own code, on 32-pixel grids with a few
iterations so that the whole file runs in seconds."""

import json
import os
import signal

import pytest

import harness
import run
import tracing
import workloads

TINY = {
    "denoise-halfplane": {"size": 32, "adaptive_iters": 3, "constant_iters": 2},
    "segment-rectangles": {"size": 32, "adaptive_iters": 3, "constant_iters": 2,
                           "gated_constants": ("lambda0.2",)},
    "flow-shift": {"size": 32, "warps": 1, "iters": 3},
    "denoise-cli-512": {"size": 32, "iters": 3},
}

QUALITY = {
    "denoise-halfplane": {"ssim", "ssim_gap"},
    "segment-rectangles": {"label_accuracy", "accuracy_gap"},
    "flow-shift": {"aee_px", "aae_rad"},
    "denoise-cli-512": {"ssim", "psnr_db"},
}

CONFIG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def tiny(name, tmp_path):
    """Factory of a 32-pixel instance of the workload."""
    return lambda: workloads.WORKLOADS[name](0, str(tmp_path), **TINY[name])


def bindings():
    """Every binding the tracer replaces, as (owner, attribute) -> object."""
    out = {}
    for owners, attr, _ in tracing.LAYERS.values():
        for path in owners:
            owner = tracing._owner(path)
            out[(path, attr)] = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return out


@pytest.fixture
def tiny_settings(monkeypatch, tmp_path):
    """Run the command-line entry on tiny settings, writing into tmp_path."""
    for name, settings in TINY.items():
        monkeypatch.setattr(workloads.WORKLOADS[name], "TIMED", settings)
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    for var in run.THREAD_VARS:
        monkeypatch.setenv(var, "1")


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(name, trace, tiny_settings, capsys):
    assert run.main(["--workload", name, "--seconds", "0", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["attempted"] >= 1
    with open(CONFIG) as fh:
        config = json.load(fh)
    declared = config["per_layer"] if trace else config["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in last["metrics"].items()}
    printed = {line.split()[1] for line in lines[:-1] if line.startswith(name)}
    assert QUALITY[name] | {"fail_rate"} | {m["name"] for m in declared} <= printed


def test_config_matches_the_code():
    with open(CONFIG) as fh:
        config = json.load(fh)
    assert [w["name"] for w in config["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in config["per_layer"]} == harness.per_layer_units()
    assert config["paths"] == ["perfbench"]
    assert config["command"] == ["python3", "perfbench/run.py"]


def test_patches_are_restored_after_a_traced_run(tmp_path):
    before = bindings()
    res = harness.measure(tiny("segment-rectangles", tmp_path), 0, trace=True)
    assert res["layers"]["solver.screened_solve.calls"] > 0
    assert bindings() == before


def test_patches_are_restored_when_a_solve_raises(tmp_path, monkeypatch):
    before = bindings()

    def boom():
        raise FloatingPointError("forced")

    def make():
        wl = tiny("flow-shift", tmp_path)()
        wl.solves = lambda warm=False: [workloads.Solve("flow", boom)]
        return wl

    res = harness.measure(make, 0, trace=True)
    assert res["failed"] == res["attempted"] == 2
    assert bindings() == before


@pytest.mark.parametrize("name", list(TINY))
def test_traced_and_untraced_digests_match(name, tmp_path):
    untraced = harness.measure(tiny(name, tmp_path), 0)
    traced = harness.measure(tiny(name, tmp_path), 0, trace=True)
    assert traced["digests"] == untraced["digests"]
    assert not any("digest" in r for r in traced["failures"])


def test_gauge_probes_leave_outputs_and_signals_alone(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "PROBE_EVERY_S", 0.001)
    handler = signal.getsignal(signal.SIGALRM)
    gauge = harness.Gauge(32)
    wl = tiny("segment-rectangles", tmp_path)()
    probed = harness.run_pass(wl, gauge)
    assert len(gauge.samples) > 2 and gauge.inside > 0
    assert signal.getsignal(signal.SIGALRM) == handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    plain = harness.measure(tiny("segment-rectangles", tmp_path), 0, trace=True)
    assert probed["digests"] == plain["digests"]
    assert all(r > 0 for r in probed["ref_s"].values())


def test_traced_layers_see_the_consumer_bindings(tmp_path):
    res = harness.measure(tiny("flow-shift", tmp_path), 0, trace=True)
    layers = res["layers"]
    for name in ("solver.screened_solve", "flow.update_v_w", "flow._linearize",
                 "grid.warp_bilinear", "adaptive.weight_fields", "flow.iterate"):
        assert layers[name + ".calls"] > 0, name
    assert layers["solver.runs"] == 1 and layers["solver.admm_iters"] == 3
    assert layers["solver.converged_ratio"] == 0.0
    assert layers["solver.screened_solve.pixel_sweeps"] == 2 * 3 * 32 * 32 * 20


def test_cli_layers(tmp_path):
    layers = harness.measure(tiny("denoise-cli-512", tmp_path), 0, trace=True)["layers"]
    assert layers["imageio.read_pnm.calls"] == 2
    assert layers["imageio.write_pnm.calls"] == 1
    assert layers["imageio.write_pnm.bytes"] == os.path.getsize(tmp_path / "out.pgm")
    assert layers["cli.overhead_s"] > 0


def test_unmet_threshold_counts_as_failure(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.THRESHOLDS, "c10_aee_px", -1.0)
    res = harness.measure(tiny("flow-shift", tmp_path), 0)
    assert res["failed"] == res["attempted"] >= 1
    assert "c10: endpoint error too large" in res["failures"]


def test_raising_solve_counts_as_failure(tmp_path, monkeypatch):
    def boom():
        raise ValueError("forced")

    def make():
        wl = tiny("denoise-halfplane", tmp_path)()
        solves = wl.solves()
        solves[3] = workloads.Solve(solves[3].name, boom)
        wl.solves = lambda warm=False: solves[:1] if warm else solves
        return wl

    res = harness.measure(make, 0)
    assert (res["attempted"], res["failed"]) == (10, 1)
    assert res["failures"] == ["ValueError: forced"]


def test_self_time_excludes_children():
    t = tracing.Tracer()
    t.spans = [
        ["solve", 0.0, 10.0, -1, 0, "a"],
        ["outer", 1.0, 9.0, 0, 0, None],
        ["inner", 2.0, 4.0, 1, 0, None],
        ["inner", 5.0, 6.0, 1, 0, None],
    ]
    table = t.summary()
    assert table["solve"]["self_s"] == 2.0
    assert table["outer"]["self_s"] == 5.0
    assert table["inner"]["self_s"] == 3.0 and table["inner"]["calls"] == 2


def test_tail_percentile_keeps_ten_samples_beyond():
    p50, tail, pct = harness._tail(range(1, 101))
    assert (p50, tail, pct) == (50.5, 90, 90.0)
    assert harness._tail([3.0, 1.0, 2.0]) == (2.0, 2.0, 50.0)


def test_missing_package_exits_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    for var in run.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    assert run.main(["--workload", "flow-shift", "--seconds", "0"]) == 2
    assert capsys.readouterr().out == ""
