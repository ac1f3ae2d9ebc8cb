"""ADMM driver mechanics, the screened Gauss-Seidel inner solver and the
exact constant-weight solve."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import adaptreg
from adaptreg import solver
from adaptreg.adaptive import AdaptiveParams
from adaptreg.denoise import DenoiseState, run_denoise
from adaptreg.flow import FlowParams, FlowState, run_flow
from adaptreg.grid import laplacian
from adaptreg.segment import SegmentParams, SegmentState, run_segment
from adaptreg.solver import (
    DivergenceError,
    IterationRecord,
    SolverParams,
    dual_step,
    exact_screened_solve,
    history_to_csv,
    rms,
    run_admm,
    screened_solve,
    solve_scratch_size,
)
from adaptreg.synth import Splitmix64, shifted_pair, smooth_texture
from helpers import (
    assemble_screened_matrix,
    exact_screened_solve_reference,
    screened_sweep_reference,
)

_AP = AdaptiveParams(beta=1.0, alpha=0.01)


def make_params(**kw):
    base = dict(mu=0.16, eta=0.08, theta=1.0, adaptive=_AP)
    base.update(kw)
    return SolverParams(**base)


class ScriptedState:
    """Replays prescribed energies/residuals through the driver's state
    contract; u counts the iterate() calls, and formed lists the
    iterations whose energy was formed."""

    def __init__(self, energies, residuals):
        self.energies = list(energies)
        self.residuals = list(residuals)
        self.u = 0
        self.lam = np.array([0.25, 0.75])
        self.residual = 0.0
        self.formed = []

    def iterate(self):
        self.u += 1
        self.residual = self.residuals[self.u - 1]

    def energy(self):
        self.formed.append(self.u)
        return self.energies[self.u - 1]


def test_params_validation():
    for bad in (
        dict(mu=0.0),
        dict(mu=-1.0),
        dict(eta=0.0),
        dict(theta=0.0),
        dict(theta=-2.0),
        dict(max_iters=-1),
        dict(tol_primal=0.0),
        dict(gs_sweeps=0),
    ):
        with pytest.raises(ValueError):
            make_params(**bad)
    make_params(max_iters=0)  # zero iterations is allowed


COUNT_FIELDS = {
    "max_iters": lambda v: make_params(max_iters=v),
    "gs_sweeps": lambda v: make_params(gs_sweeps=v),
    "n_labels": lambda v: SegmentParams(solver=make_params(), n_labels=v),
    "n_warps": lambda v: FlowParams(solver=make_params(), n_warps=v),
    "pyramid_levels": lambda v: FlowParams(solver=make_params(), pyramid_levels=v),
}


@pytest.mark.parametrize("value", [2.5, 3.0, "3", True], ids=["2.5", "3.0", "str", "bool"])
@pytest.mark.parametrize("name", list(COUNT_FIELDS))
def test_count_fields_reject_non_integers(name, value):
    # 2.5 labels would otherwise run with np.arange(2.5), three labels
    with pytest.raises(ValueError, match=name):
        COUNT_FIELDS[name](value)
    COUNT_FIELDS[name](np.int64(3))


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("name", ["mu", "eta", "theta", "tol_primal"])
def test_params_reject_non_finite(name, value):
    with pytest.raises(ValueError, match=name):
        make_params(**{name: value})


def test_zero_iterations_returns_initial_solution():
    state = ScriptedState([], [])
    sol, hist = run_admm(state, make_params(max_iters=0))
    assert sol == 0
    assert hist == []


def test_early_stop_at_first_passing_checkpoint():
    state = ScriptedState([3.0, 2.0, 1.0, 1.0], [0.5, 1e-9, 1e-9, 1e-9])
    sol, hist = run_admm(state, make_params(max_iters=4, tol_primal=1e-6))
    assert sol == 2
    assert [r.iter for r in hist] == [1, 2]
    assert [r.mean_lambda for r in hist] == [0.5, 0.5]  # the mean of the lam field
    assert hist[-1].primal_residual == 1e-9


def test_divergence_raises_with_iteration_number():
    state = ScriptedState([1.0] * 5, [1.0, float("nan"), 1.0, 1.0, 1.0])
    with pytest.raises(DivergenceError) as exc:
        run_admm(state, make_params(max_iters=5))
    assert exc.value.iteration == 2
    assert "divergence detected at iteration 2" in str(exc.value)
    assert state.formed == []


@pytest.mark.parametrize("residual", [float("inf"), 1e200], ids=["inf", "overflow"])
def test_infinite_residual_also_diverges(residual):
    # An RMS whose square overflows is infinite, without a warning:
    # divergence, not a stop.
    r = rms(np.full(4, residual))
    assert r == float("inf")
    state = ScriptedState([1.0, 1.0], [1.0, r])
    with pytest.raises(DivergenceError) as exc:
        run_admm(state, make_params(max_iters=2))
    assert exc.value.iteration == 2


def test_infinite_energy_also_diverges():
    state = ScriptedState([float("inf")], [1.0])
    with pytest.raises(DivergenceError):
        run_admm(state, make_params(max_iters=1))


@pytest.mark.parametrize("last", ["cap", "converged"])
def test_energy_formed_only_on_the_last_iteration(last):
    # A non-finite energy before the last iteration is never formed, so it
    # cannot raise; the last record carries the only energy.
    residuals = [1.0, 1.0, 1e-9 if last == "converged" else 1.0, 1.0]
    state = ScriptedState([float("nan"), 2.0, 1.5, 1.0], residuals)
    _, hist = run_admm(state, make_params(max_iters=3 if last == "cap" else 4))
    assert state.formed == [3]
    assert [r.iter for r in hist] == [1, 2, 3]
    assert all(math.isnan(r.energy) for r in hist[:-1])
    assert hist[-1].energy == 1.5


def test_start_iter_offsets_records():
    state = ScriptedState([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
    _, hist = run_admm(state, make_params(max_iters=3), start_iter=100)
    assert [r.iter for r in hist] == [101, 102, 103]


def test_on_check_sees_every_record():
    # Every record, with its residual; the energy only on the last, and
    # an on_check that wants more forms it from the state.
    state = ScriptedState([3.0, 2.0, 1.0], [1.0, float("nan"), 1.0])
    seen = []
    with pytest.raises(DivergenceError):
        run_admm(
            state,
            make_params(max_iters=3),
            on_check=lambda st, rec: seen.append((st, rec.iter, rec.primal_residual, rec.energy)),
        )
    assert [(s is state, i, r) for s, i, r, _ in seen] == [(True, 1, 1.0)]
    assert math.isnan(seen[0][3])
    state = ScriptedState([3.0, 2.0], [1.0, 1.0])
    seen = []
    run_admm(
        state,
        make_params(max_iters=2),
        on_check=lambda st, rec: seen.append((st, rec.iter, st.energy(), rec.energy)),
    )
    assert [(s is state, i, e) for s, i, e, _ in seen] == [
        (True, 1, 3.0),
        (True, 2, 2.0),
    ]
    assert math.isnan(seen[0][3]) and seen[1][3] == 2.0


def test_history_csv_round_trips_floats():
    hist = [
        IterationRecord(1, 0.1, 1.0 / 3.0, 0.99),
        IterationRecord(2, 1e-300, 2.5e17, 0.0),
    ]
    text = history_to_csv(hist)
    lines = text.splitlines()
    assert lines[0] == "iter,energy,primal_residual,mean_lambda"
    assert len(lines) == 3
    assert text.endswith("\n")
    for rec, line in zip(hist, lines[1:]):
        it, e, res, lam = line.split(",")
        assert int(it) == rec.iter
        assert float(e) == rec.energy
        assert float(res) == rec.primal_residual
        assert float(lam) == rec.mean_lambda


def test_rms_values():
    assert rms(np.zeros((3, 3))) == 0.0
    assert abs(rms(np.array([3.0, 4.0])) - np.sqrt(12.5)) <= 1e-15
    assert rms(np.array([[-2.0]])) == 2.0


# Leading shapes of the solver input: one (H, W) grid, and a stack of three.
LEADS = ((), (3,))


def test_screened_solve_xi_zero_returns_rhs_bitwise():
    rng = Splitmix64(400)
    for lead in LEADS:
        shape = lead + (8, 8)
        rhs = rng.normals(int(np.prod(shape))).reshape(shape)
        v0 = rng.normals(int(np.prod(shape))).reshape(shape)
        out = screened_solve(rhs, np.zeros(shape), v0, 3)
        assert np.array_equal(out, rhs)


def test_screened_solve_constant_is_exact_fixed_point():
    for lead in LEADS:
        rhs = np.full(lead + (6, 7), 0.3)
        xi = np.full(lead + (6, 7), 2.5)
        out = screened_solve(rhs, xi, rhs.copy(), 10)
        assert np.array_equal(out, rhs)


def test_screened_solve_does_not_mutate_start():
    rng = Splitmix64(401)
    for lead in LEADS:
        shape = lead + (4, 4)
        rhs = rng.normals(int(np.prod(shape))).reshape(shape)
        v0 = rng.normals(int(np.prod(shape))).reshape(shape)
        keep = v0.copy()
        screened_solve(rhs, np.full(shape, 1.0), v0, 5)
        assert np.array_equal(v0, keep)


def assert_bitwise(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


GRIDS = ((128, 128), (127, 130), (1, 5), (5, 1), (1, 1), (2, 2), (7, 9), (8, 8))


@pytest.mark.parametrize(
    "lead, hw",
    # two leading axes: the per-color runs cross planes and stack entries
    [((3,), hw) for hw in GRIDS] + [((2, 3), (7, 9))],
    ids=["%dx%d" % hw for hw in GRIDS] + ["2x3x7x9"],
)
def test_screened_solve_stack_matches_slices_and_full_grid_sweep(lead, hw):
    shape = lead + hw
    size = int(np.prod(shape))
    rng = Splitmix64(404)
    rhs = rng.normals(size).reshape(shape)
    v0 = rng.normals(size).reshape(shape)
    xi = rng.uniforms(size).reshape(shape) * 12.0
    xi[..., ::3, ::2] = 0.0
    # signed zeros: where xi = 0 too, the sign of the result follows the
    # sign of the neighbor sum
    rhs[..., ::4, 1::3] = -0.0
    v0[..., 1::2, ::5] = -0.0
    first = (0,) * len(lead)
    # 45 sweeps take three chunks, each from a fresh float64 defect
    for sweeps in (0, 1, 20, 45):
        stacked = screened_solve(rhs, xi, v0, sweeps)
        # one (H, W) weight shared by the whole stack, as the flow solver uses it
        shared = screened_solve(rhs, xi[first], v0, sweeps)
        for i in np.ndindex(lead):
            single = screened_solve(rhs[i], xi[i], v0[i], sweeps)
            assert_bitwise(stacked[i], single)
            assert_bitwise(single, screened_sweep_reference(rhs[i], xi[i], v0[i], sweeps))
            assert_bitwise(shared[i], screened_sweep_reference(rhs[i], xi[first], v0[i], sweeps))


@pytest.mark.parametrize("sweeps", [1, 20, 45])
def test_screened_solve_zero_xi_cells_return_rhs_whatever_out_is(sweeps):
    # The float32 correction would leave v0 + float32(rhs - v0) at a cell
    # with xi = 0; the solve writes rhs there, also when out is rhs or v0.
    rhs, xi, v0 = solver_inputs((3, 7, 9), 411)
    fixed = xi == 0.0
    assert fixed.any() and np.signbit(rhs[fixed]).any()
    fresh = screened_solve(rhs, xi, v0, sweeps)
    for target in ("rhs", "v0"):
        r, v = rhs.copy(), v0.copy()
        out = screened_solve(r, xi, v, sweeps, out={"rhs": r, "v0": v}[target])
        assert_bitwise(out[fixed], rhs[fixed])
        assert_bitwise(out, fresh)


def test_screened_solve_error_scales_with_the_start_error():
    # Flow warm-starts each solve from a v that is nearly converged.  The
    # sweeps solve for the correction, so the error they leave shrinks
    # with the start error delta; sweeping v itself in float32 would leave
    # a floor of float32 rounding of |v|, about 1e-7 here.
    rng = Splitmix64(414)
    shape = (2, 24, 31)
    exact = rng.normals(int(np.prod(shape))).reshape(shape) + 3.0
    xi = rng.uniforms(24 * 31).reshape(24, 31) * 12.0
    rhs = exact - xi * laplacian(exact)
    noise = rng.normals(exact.size).reshape(shape)
    ratios = []
    for delta in (1e-2, 1e-5, 1e-8):
        v = screened_solve(rhs, xi, exact + delta * noise, 20)
        ratios.append(rms(v - exact) / delta)
    assert max(ratios) < rms(noise)
    assert max(ratios) <= 1.01 * min(ratios)


def test_screened_solve_nan_reaches_the_next_stack_entry():
    # Stack entries share pad cells, and 0 * nan = nan there, so a
    # non-finite value in one entry spreads into the next, as the
    # docstring states.  A layout that gives each entry pad cells of its
    # own changes this, and must change this test with it.
    rng = Splitmix64(407)
    shape = (2, 6, 6)
    rhs = rng.normals(72).reshape(shape)
    xi = rng.uniforms(72).reshape(shape) * 12.0
    rhs[0, 5, 5] = np.nan
    out = screened_solve(rhs, xi, np.zeros(shape), 5)
    assert np.isnan(out[0, 5, 5])
    assert not np.all(np.isfinite(out[1]))
    # each entry alone stays finite
    assert np.all(np.isfinite(screened_solve(rhs[1], xi[1], np.zeros(shape[1:]), 5)))


def solver_inputs(shape, seed):
    rng = Splitmix64(seed)
    size = int(np.prod(shape))
    rhs = rng.normals(size).reshape(shape)
    v0 = rng.normals(size).reshape(shape)
    xi = rng.uniforms(size).reshape(shape) * 12.0
    xi[..., ::3, ::2] = 0.0
    rhs[..., ::4, 1::3] = -0.0
    return rhs, xi, v0


@pytest.mark.parametrize("scalar", [False, True], ids=["field", "scalar"])
@pytest.mark.parametrize(
    "shape", [(3,) + hw for hw in GRIDS] + [(2, 3, 7, 9)], ids=["3x%dx%d" % hw for hw in GRIDS] + ["2x3x7x9"]
)
def test_screened_solve_buffers_give_the_same_bits(shape, scalar):
    # A scratch full of NaN, as a reused workspace leaves it, and an out
    # that is a fresh buffer, a strided view (a flow field stored
    # interleaved), rhs itself or v0 itself.
    rhs, xi, v0 = solver_inputs(shape, 408)
    if scalar:
        xi = 2.5
    for sweeps in (0, 3):
        fresh = screened_solve(rhs, xi, v0, sweeps)
        for target in ("new", "strided", "rhs", "v0"):
            r, v = rhs.copy(), v0.copy()
            strided = np.moveaxis(np.full(shape[1:] + shape[:1], np.nan), -1, 0)
            out = {"new": np.full(shape, np.nan), "strided": strided, "rhs": r, "v0": v}[target]
            scratch = np.full(solve_scratch_size(shape), np.nan)
            assert screened_solve(r, xi, v, sweeps, out=out, scratch=scratch) is out
            assert_bitwise(out, fresh)


@pytest.mark.parametrize("solve", ["screened-field", "screened-scalar", "exact"])
def test_result_without_out_never_aliases_the_scratch(solve):
    # A second solve through the same scratch must leave the first
    # result as it was.
    shape = (2, 7, 9)
    rhs, xi, v0 = solver_inputs(shape, 411)
    if solve != "screened-field":
        xi = 2.5
    scratch = np.empty(solve_scratch_size(shape))
    results = []
    for r in (rhs, 2.0 * rhs):
        if solve == "exact":
            results.append(exact_screened_solve(r, xi, scratch=scratch))
        else:
            results.append(screened_solve(r, xi, v0, 3, scratch=scratch))
        assert not np.shares_memory(results[-1], scratch)
    assert_bitwise(results[0], screened_solve(rhs, xi, v0, 3))


@pytest.mark.parametrize("scalar", [False, True], ids=["field", "scalar"])
@pytest.mark.parametrize("shape", [(6, 6), (2, 6, 6), (7, 9)], ids=["6x6", "2x6x6", "7x9"])
def test_reused_scratch_pad_cells_stay_zero(shape, scalar):
    # A NaN turns the pad cells of the planes it reaches into NaN.  A solve
    # that reuses that scratch must still return the bits of a fresh one,
    # so a non-finite value never outlives the solve that met it.
    rhs, xi, v0 = solver_inputs(shape, 409)
    if scalar:
        xi = 2.5
    scratch = np.empty(solve_scratch_size(shape))
    out = np.empty(shape)
    bad = rhs.copy()
    bad[..., -1, -1] = np.nan
    screened_solve(bad, xi, v0, 5, out=out, scratch=scratch)
    assert np.isnan(out).any()
    screened_solve(rhs, xi, v0, 5, out=out, scratch=scratch)
    assert_bitwise(out, screened_solve(rhs, xi, v0, 5))


def test_dual_step_updates_w_and_returns_the_residual():
    rng = Splitmix64(412)
    u, v, w = (rng.normals(3 * 40 * 31).reshape(3, 40, 31) for _ in range(3))
    expected_w = w + (u - v)
    expected = rms(u - v)
    w_given = w.copy()
    out = np.full(u.shape, np.nan)
    assert dual_step(u, v, w_given, out=out) == expected
    assert np.array_equal(w_given, expected_w)
    # out took u - v and then its squares
    assert np.array_equal(out, (u - v) * (u - v))
    assert dual_step(u, v, w) == expected
    assert np.array_equal(w, expected_w)


def test_rms_takes_its_squares_in_a_given_buffer():
    a = Splitmix64(410).normals(40 * 31).reshape(40, 31)
    expected = float(np.sqrt(np.mean(a * a)))
    assert rms(a, out=np.full(a.shape, np.nan)) == expected
    b = a.copy()
    assert rms(b, out=b) == expected


def test_screened_solve_rejects_mismatched_inputs():
    rhs = np.zeros((3, 4, 5))
    xi = np.ones((4, 5))
    v0 = np.zeros_like(rhs)
    with pytest.raises(ValueError, match="v0"):
        screened_solve(rhs, xi, np.zeros((4, 5)), 1)  # would broadcast over the stack
    for bad_xi in (np.ones((5, 4)), np.ones((2, 4, 5)), np.ones((2, 3, 4, 5))):
        with pytest.raises(ValueError, match="xi"):
            screened_solve(rhs, bad_xi, v0, 1)
    for bad_sweeps in (-1, 2.5, True, "3"):
        with pytest.raises(ValueError, match="sweeps"):
            screened_solve(rhs, xi, v0, bad_sweeps)
    # negative, non-finite, and -1/c, which would make 1 + xi*c zero
    for bad in (-0.25, -1.0 / 3.0, np.inf, np.nan):
        field = np.full((4, 5), 0.5)
        field[2, 3] = bad
        for bad_xi in (bad, field):
            with pytest.raises(ValueError, match="xi"):
                screened_solve(rhs, bad_xi, v0, 1)
    with pytest.raises(ValueError, match="rhs"):
        screened_solve(np.zeros(5), np.ones(5), np.zeros(5), 1)


def test_screened_solve_peak_memory():
    # The float64 defect and laplacian's two difference runs set the peak:
    # 3.13 rhs sizes at 512^2.  The float32 field planes (d/(1 + xi*c) and
    # the gain), the planes of the correction and the cached count planes
    # come after the difference runs are freed and take 2.0 besides the
    # defect.  The bound leaves no room for a float64 plane block (4.3
    # sizes, as the float64 sweeps took), nor for a full-size float32
    # temporary while the fields are formed (3.53).
    rng = Splitmix64(405)
    shape = (512, 512)
    rhs = rng.normals(shape[0] * shape[1]).reshape(shape)
    xi = rng.uniforms(shape[0] * shape[1]).reshape(shape) * 12.0
    v0 = rhs.copy()
    tracemalloc.start()
    try:
        screened_solve(rhs, xi, v0, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.2 * rhs.nbytes


def test_screened_solve_with_buffers_allocates_nothing_of_field_size():
    # Given out and a scratch, a field xi's solve (two chunks, the count
    # planes of its grid cached by a first call) allocates only numpy's
    # iteration buffers, shrunk here as in test_states: 0.05 rhs sizes at
    # 256^2.  A full-size float32 temporary would take 0.5.  Where xi has
    # zeros, their masks live in the scratch too; the mask xi == 0 alone
    # would take 0.125.
    rng = Splitmix64(417)
    shape = (256, 256)
    rhs = rng.normals(shape[0] * shape[1]).reshape(shape)
    xi = rng.uniforms(shape[0] * shape[1]).reshape(shape) * 12.0 + 0.1
    with_zeros = xi.copy()
    with_zeros[::3, ::2] = 0.0
    out = np.empty(shape)
    scratch = np.empty(solve_scratch_size(shape))
    for field in (xi, with_zeros):
        screened_solve(rhs, field, rhs, 25, out=out, scratch=scratch)
        bufsize = np.setbufsize(1024)
        tracemalloc.start()
        try:
            screened_solve(rhs, field, rhs, 25, out=out, scratch=scratch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            np.setbufsize(bufsize)
        assert peak < 0.1 * rhs.nbytes
    assert np.array_equal(out[::3, ::2], rhs[::3, ::2])


def test_exact_screened_solve_peak_memory():
    # After the gains are cached, the peak is the row transform's field
    # and the half spectrum, 2.004 fields, plus 0.06 of numpy buffers in
    # the row passes: 2.07 fields at 512^2, whether or not out is given.
    # The bound leaves no room for one more field-sized temporary; a
    # spatial residual took 3.07, and a copy pass per reorder with a
    # spectrum held to the end 5.01.
    rhs = Splitmix64(416).normals(512 * 512).reshape(512, 512)
    exact_screened_solve(rhs, 2.5)
    tracemalloc.start()
    try:
        exact_screened_solve(rhs, 2.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * rhs.nbytes


def test_screened_solve_matches_dense_oracle():
    rng = Splitmix64(402)
    for _ in range(3):
        xi = rng.uniforms(64).reshape(8, 8) * 3.0
        rhs = rng.normals(64).reshape(8, 8)
        v = screened_solve(rhs, xi, np.zeros((8, 8)), sweeps=500)
        ref = np.linalg.solve(assemble_screened_matrix(xi), rhs.ravel()).reshape(8, 8)
        assert rms(v - ref) <= 1e-6


@pytest.mark.parametrize(
    "shape", [(2, 7, 9), (1, 6), (6, 1), (3, 2, 2)], ids=["2x7x9", "1x6", "6x1", "3x2x2"]
)
def test_screened_solve_converges_to_the_exact_solve(shape):
    # A scalar xi broadcast to a field: run to convergence from zeros,
    # the sweeps must reach the exact DCT solve on odd and thin grids,
    # whose boundary and pad cells the 8x8 dense oracle does not reach.
    rhs = Splitmix64(413).normals(int(np.prod(shape))).reshape(shape)
    for xi in (0.05, 1.0, 3.7):
        v = screened_solve(rhs, np.full(shape[-2:], xi), np.zeros(shape), sweeps=500)
        assert rms(v - exact_screened_solve(rhs, xi)) <= 1e-10


def test_screened_solve_deterministic():
    rng = Splitmix64(403)
    rhs = rng.normals(100).reshape(10, 10)
    xi = rng.uniforms(100).reshape(10, 10)
    a = screened_solve(rhs, xi, np.zeros((10, 10)), sweeps=7)
    b = screened_solve(rhs, xi, np.zeros((10, 10)), sweeps=7)
    assert np.array_equal(a, b)


EXACT_GRIDS = ((1, 1), (1, 6), (6, 1), (2, 2), (7, 9), (8, 8), (16, 11))


@pytest.mark.parametrize("hw", EXACT_GRIDS, ids=["%dx%d" % hw for hw in EXACT_GRIDS])
def test_exact_screened_solve_matches_dense_oracle(hw):
    rng = Splitmix64(410)
    for xi in (0.0, 0.05, 1.0, 3.7, 250.0):
        rhs = rng.normals(hw[0] * hw[1]).reshape(hw)
        v = exact_screened_solve(rhs, xi)
        ref = np.linalg.solve(assemble_screened_matrix(np.full(hw, xi)), rhs.ravel()).reshape(hw)
        assert rms(v - ref) <= 1e-10


ORACLE_SHAPES = ((1, 1), (1, 9), (9, 1), (2, 2), (7, 9), (8, 8), (128, 128), (3, 7, 9), (2, 3, 7, 9))


@pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=["x".join(map(str, s)) for s in ORACLE_SHAPES])
def test_exact_screened_solve_matches_frozen_reorders(shape):
    # The solve with its even-odd reorders fused into the DCT assembly and
    # the final add, against the one with a copy pass per reorder: same
    # bits, sign of zero included, also for a component-first view.
    rng = Splitmix64(415)
    n = int(np.prod(shape))
    rhs = np.where(rng.uniforms(n) < 0.25, -0.0, rng.normals(n)).reshape(shape)
    rhs[..., 0] = -0.0
    view = np.moveaxis(rng.normals(2 * n).reshape(shape + (2,)), -1, 0)
    for field in (rhs, view, np.full(shape, -0.0)):
        for xi in (0.0, 0.05, 3.7, 250.0):
            assert_bitwise(exact_screened_solve(field, xi), exact_screened_solve_reference(field, xi))


@pytest.mark.parametrize("hw", [(7, 9), (16, 13)], ids=["7x9", "16x13"])
def test_exact_screened_solve_stack_matches_slices(hw):
    shape = (2, 3) + hw
    rhs = Splitmix64(411).normals(int(np.prod(shape))).reshape(shape)
    stacked = exact_screened_solve(rhs, 2.5)
    for i in np.ndindex(shape[:2]):
        assert_bitwise(stacked[i], exact_screened_solve(rhs[i], 2.5))


def test_exact_screened_solve_keeps_constants_and_xi_zero():
    rng = Splitmix64(412)
    for lead in LEADS:
        rhs = np.full(lead + (6, 7), 0.3)
        assert np.array_equal(exact_screened_solve(rhs, 2.5), rhs)
        rhs = rng.normals(int(np.prod(lead)) * 42).reshape(lead + (6, 7))
        assert np.array_equal(exact_screened_solve(rhs, 0.0), rhs)


def test_exact_screened_solve_shifts_each_grid_by_its_own_corner():
    # Each grid of a stack gives up its own corner value before the
    # transform: a stack of different constants comes back as it was,
    # which a corner shared by the stack would not give.
    rhs = np.array([0.3, -0.0, 1e300, 5e-324])[:, None, None] * np.ones((4, 6, 7))
    for xi in (0.05, 2.5, 250.0):
        assert np.array_equal(exact_screened_solve(rhs, xi), rhs)


def test_exact_screened_solve_is_as_accurate_under_a_large_offset():
    # Without the shift, the offset's spectrum rounds every frequency:
    # 7.3e-10 here, against 1.09e-10 with it.
    for shape in ((31, 47), (2, 7, 9), (128, 128)):
        rhs = Splitmix64(7).normals(int(np.prod(shape))).reshape(shape)
        for xi in (0.05, 2.5, 250.0):
            shifted = exact_screened_solve(rhs + 1e6, xi) - 1e6
            assert np.max(np.abs(shifted - exact_screened_solve(rhs, xi))) <= 2 * np.spacing(1e6)


def test_exact_screened_solve_keeps_a_nan_in_its_grid():
    rhs = Splitmix64(8).normals(84).reshape(2, 6, 7)
    rhs[0, 0, 0] = np.nan
    with np.errstate(invalid="ignore"):
        v = exact_screened_solve(rhs, 2.5)
    assert np.isnan(v[0]).any()
    assert_bitwise(v[1], exact_screened_solve(rhs[1], 2.5))


def test_screened_solve_with_zeros_over_many_chunks_in_an_exact_scratch():
    # The masks of the cells where xi is 0 live in each chunk's defect
    # entries, so the smallest scratch serves a solve of several chunks,
    # also when out is rhs and the iterate between chunks takes the
    # scratch.
    shape = (2, 13, 11)
    rhs, xi, v0 = solver_inputs(shape, 418)
    fresh = screened_solve(rhs, xi, v0, 45)
    assert np.array_equal(fresh[..., ::3, ::2], rhs[..., ::3, ::2])
    for target in ("new", "rhs"):
        r = rhs.copy()
        out = np.full(shape, np.nan) if target == "new" else r
        scratch = np.full(solve_scratch_size(shape), np.nan)
        assert screened_solve(r, xi, v0, 45, out=out, scratch=scratch) is out
        assert_bitwise(out, fresh)


@pytest.mark.parametrize("lead", LEADS, ids=["grid", "stack"])
def test_screened_solve_scalar_xi_is_the_exact_solve(lead):
    # A scalar xi takes the exact DCT solve whatever v0 and sweeps are;
    # the checks still run on that path.
    shape = lead + (7, 9)
    rng = Splitmix64(414)
    rhs = rng.normals(int(np.prod(shape))).reshape(shape)
    for xi in (0.0, 3.7, np.float64(0.25), np.array(12.5)):
        exact = exact_screened_solve(rhs, xi)
        for v0 in (np.zeros(shape), rng.normals(rhs.size).reshape(shape)):
            for sweeps in (0, 1, 20):
                assert_bitwise(screened_solve(rhs, xi, v0, sweeps), exact)
    with pytest.raises(ValueError, match="v0"):
        screened_solve(rhs, 1.0, np.zeros((7, 8)), 1)
    for bad in (-0.25, np.inf, np.nan):
        with pytest.raises(ValueError, match="xi"):
            screened_solve(rhs, bad, rhs, 1)
    for bad_sweeps in (-1, 2.5, True):
        with pytest.raises(ValueError, match="sweeps"):
            screened_solve(rhs, 1.0, rhs, bad_sweeps)


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (2, 0, 5)], ids=["0x5", "5x0", "2x0x5"])
def test_both_solves_reject_an_empty_grid(shape):
    rhs = np.zeros(shape)
    for xi in (1.0, np.ones(shape[-2:])):
        with pytest.raises(ValueError, match="nonempty"):
            screened_solve(rhs, xi, rhs, 3)
    with pytest.raises(ValueError, match="nonempty"):
        exact_screened_solve(rhs, 1.0)


def test_exact_screened_solve_rejects_bad_input():
    with pytest.raises(ValueError, match="rhs"):
        exact_screened_solve(np.zeros(5), 1.0)
    for xi in (-0.5, float("nan"), float("inf"), np.ones((4, 5))):
        with pytest.raises(ValueError, match="xi"):
            exact_screened_solve(np.zeros((4, 5)), xi)


def _run_problem(problem, sp, on_check=None, n_warps=1, levels=1):
    """Run one problem on a 16x16 texture; returns (outputs, history),
    outputs a tuple of arrays.  n_warps and levels apply to flow."""
    tex = smooth_texture(16, seed=3)
    if problem == "denoise":
        u, history = run_denoise(tex, sp, on_check=on_check)
        return (u,), history
    if problem == "segment":
        labels, state, history = run_segment(tex, SegmentParams(solver=sp, n_labels=3),
                                             on_check=on_check)
        return (labels, state.u, state.c), history
    f1, f2, _ = shifted_pair(tex, (1.0, 0.0))
    fp = FlowParams(solver=sp, n_warps=n_warps, pyramid_levels=levels)
    u, history = run_flow(f1, f2, fp, on_check=on_check)
    return (u,), history


STATES = {"denoise": DenoiseState, "segment": SegmentState, "flow": FlowState}


@pytest.mark.parametrize("problem", ["denoise", "segment", "flow"])
def test_nan_in_w_diverges_on_the_next_iteration(problem):
    # Every state carries a non-finite w into u within one iteration, so
    # the primal residual reports it on the iteration after the write.
    def poison(state, record):
        if record.iter == 3:
            state.w[(0,) * state.w.ndim] = np.nan

    with pytest.raises(DivergenceError) as exc:
        _run_problem(problem, make_params(max_iters=8, tol_primal=1e-300), on_check=poison)
    assert exc.value.iteration == 4


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("constant", [None, 0.4], ids=["adaptive", "constant"])
def test_overflow_in_w_diverges_without_a_warning(constant):
    # u - v overflows when squared on the iteration after the write; the
    # run raises DivergenceError there, and no RuntimeWarning comes first.
    def poison(state, record):
        if record.iter == 1:
            state.w[...] = 1e200

    sp = make_params(adaptive=AdaptiveParams(beta=1.0, alpha=0.01, constant_lambda=constant),
                     max_iters=8, tol_primal=1e-300)
    with pytest.raises(DivergenceError) as exc:
        _run_problem("denoise", sp, on_check=poison)
    assert exc.value.iteration == 2


@pytest.mark.parametrize("with_check", [False, True], ids=["plain", "on_check"])
@pytest.mark.parametrize("problem", ["denoise", "segment", "flow"])
def test_energy_formed_once_per_run(monkeypatch, problem, with_check):
    # Once per run_admm call: once per denoise or segment run, once per
    # warp of every pyramid level of a flow run (2 warps x 2 levels).
    calls = []
    energy = STATES[problem].energy

    def counted(self):
        calls.append(self)
        return energy(self)

    monkeypatch.setattr(STATES[problem], "energy", counted)
    on_check = (lambda state, record: None) if with_check else None
    _, history = _run_problem(problem, make_params(max_iters=4, tol_primal=1e-300),
                              on_check=on_check, n_warps=2, levels=2)
    runs = 4 if problem == "flow" else 1
    assert len(calls) == runs
    assert len(history) == 4 * runs
    assert sum(math.isfinite(rec.energy) for rec in history) == runs


@pytest.mark.parametrize("constant", [None, 0.4], ids=["adaptive", "constant"])
@pytest.mark.parametrize("problem", ["denoise", "segment", "flow"])
def test_forming_every_energy_changes_no_bits(problem, constant):
    # A run whose on_check forms every iteration's energy gives the same
    # outputs, residuals and weights, and the same last energy.
    sp = make_params(adaptive=AdaptiveParams(beta=1.0, alpha=0.01, constant_lambda=constant),
                     max_iters=6, tol_primal=1e-300)
    plain, history = _run_problem(problem, sp, n_warps=2)
    formed = []
    every, full = _run_problem(problem, sp, n_warps=2,
                               on_check=lambda state, record: formed.append(state.energy()))
    for a, b in zip(plain, every):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
    strip = [(r.iter, r.primal_residual, r.mean_lambda) for r in history]
    assert strip == [(r.iter, r.primal_residual, r.mean_lambda) for r in full]
    assert all(math.isfinite(e) for e in formed) and len(formed) == len(history)
    last = [k for k, r in enumerate(history) if math.isfinite(r.energy)]
    assert last[-1] == len(history) - 1
    assert [history[k].energy for k in last] == [full[k].energy for k in last]
    assert [history[k].energy for k in last] == [formed[k] for k in last]


@pytest.mark.parametrize("constant", [True, False], ids=["constant", "adaptive"])
@pytest.mark.parametrize("problem", ["denoise", "segment", "flow"])
def test_v_step_sweeps_only_for_a_segmentation_weight_field(monkeypatch, problem, constant):
    # Counted inside the solver: every v-step calls screened_solve, which
    # takes the exact solve or the sweeps, passing buffers by keyword.
    # Denoising and flow have one scalar xi = rho/theta whatever the
    # weight, so they solve exactly in both modes.
    calls = {"exact_screened_solve": 0, "_sweep": 0}
    for name in calls:
        def counted(*args, _solve=getattr(solver, name), _name=name, **kwargs):
            calls[_name] += 1
            return _solve(*args, **kwargs)
        monkeypatch.setattr(solver, name, counted)
    ap = AdaptiveParams(beta=1.0, alpha=0.01, constant_lambda=0.4 if constant else None)
    _run_problem(problem, make_params(adaptive=ap, max_iters=3, tol_primal=1e-300))
    expected = {"exact_screened_solve": 3, "_sweep": 0}
    if problem == "segment" and not constant:
        expected = {"exact_screened_solve": 0, "_sweep": 3}
    assert calls == expected


@pytest.mark.parametrize("problem", ["denoise", "segment", "flow"])
def test_constant_weight_history_reports_the_constant(problem):
    # A constant weight is the float itself, so its mean is exact, not
    # the rounded mean of a filled field (0.29999999999999993 on 16^2).
    ap = AdaptiveParams(beta=1.0, alpha=0.01, constant_lambda=0.3)
    _, history = _run_problem(problem, make_params(adaptive=ap, max_iters=3, tol_primal=1e-300))
    assert [rec.mean_lambda for rec in history] == [0.3] * 3


@pytest.mark.parametrize("shape", [(0, 5), (5, 0)], ids=["0x5", "5x0"])
@pytest.mark.parametrize("problem", ["denoise", "segment", "flow"])
def test_empty_grid_fails_clearly(problem, shape):
    empty = np.zeros(shape)
    for constant in (None, 0.4):
        sp = make_params(adaptive=AdaptiveParams(beta=1.0, alpha=0.01, constant_lambda=constant),
                         max_iters=2)
        run = {
            "denoise": lambda: run_denoise(empty, sp),
            "segment": lambda: run_segment(empty, SegmentParams(solver=sp, n_labels=3)),
            "flow": lambda: run_flow(empty, empty, FlowParams(solver=sp, n_warps=1)),
        }[problem]
        with pytest.raises(ValueError, match="grid is empty"):
            run()


_THREAD_PROBE = """
import hashlib
import numpy as np
from adaptreg.adaptive import AdaptiveParams
from adaptreg.denoise import run_denoise
from adaptreg.segment import SegmentParams, run_segment
from adaptreg.solver import SolverParams, exact_screened_solve
from adaptreg.synth import Splitmix64, smooth_texture

digest = hashlib.sha256()
rng = Splitmix64(413)
for shape in ((100, 100), (2, 127, 130)):
    rhs = rng.normals(int(np.prod(shape))).reshape(shape)
    digest.update(exact_screened_solve(rhs, 3.7).tobytes())
ap = AdaptiveParams(beta=1.0, alpha=0.01, constant_lambda=0.4)
sp = SolverParams(mu=0.16, eta=0.08, theta=1.0, adaptive=ap, max_iters=5)
tex = smooth_texture(40, seed=2)
digest.update(run_denoise(tex, sp)[0].tobytes())
digest.update(run_segment(tex, SegmentParams(solver=sp, n_labels=3))[1].v.tobytes())
print(digest.hexdigest())
"""


def test_exact_screened_solve_ignores_the_blas_thread_count():
    # Shapes on which BLAS matrix products round differently with one
    # and two threads: a DCT by matrix products would fail here.
    src = str(Path(adaptreg.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env,
                              capture_output=True, text=True, check=True)
        digests.append(done.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]
