"""ADMM driver mechanics and the screened Gauss-Seidel inner solver."""

import tracemalloc

import numpy as np
import pytest

from adaptreg.adaptive import AdaptiveParams
from adaptreg.solver import (
    DivergenceError,
    IterationRecord,
    SolverParams,
    history_to_csv,
    rms,
    run_admm,
    screened_solve,
)
from adaptreg.synth import Splitmix64
from helpers import assemble_screened_matrix, screened_sweep_reference

_AP = AdaptiveParams(beta=1.0, alpha=0.01)


def make_params(**kw):
    base = dict(mu=0.16, eta=0.08, theta=1.0, adaptive=_AP)
    base.update(kw)
    return SolverParams(**base)


class ScriptedState:
    """Replays prescribed energies/residuals; counts iterate() calls."""

    def __init__(self, energies, residuals):
        self.energies = list(energies)
        self.residuals = list(residuals)
        self.k = 0

    def iterate(self):
        self.k += 1

    def energy(self):
        return self.energies[self.k - 1]

    def primal_residual(self):
        return self.residuals[self.k - 1]

    def mean_lambda(self):
        return 0.5

    def solution(self):
        return self.k


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
    assert hist[-1].primal_residual == 1e-9


def test_divergence_raises_with_iteration_number():
    state = ScriptedState([1.0, float("nan")], [1.0, 1.0])
    with pytest.raises(DivergenceError) as exc:
        run_admm(state, make_params(max_iters=5))
    assert exc.value.iteration == 2
    assert "divergence detected at iteration 2" in str(exc.value)


def test_infinite_energy_also_diverges():
    state = ScriptedState([float("inf")], [1.0])
    with pytest.raises(DivergenceError):
        run_admm(state, make_params(max_iters=1))


def test_start_iter_offsets_records():
    state = ScriptedState([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
    _, hist = run_admm(state, make_params(max_iters=3), start_iter=100)
    assert [r.iter for r in hist] == [101, 102, 103]


def test_on_check_sees_every_record():
    state = ScriptedState([3.0, 2.0], [1.0, 1.0])
    seen = []
    run_admm(
        state,
        make_params(max_iters=2),
        on_check=lambda st, rec: seen.append((st, rec.iter, rec.energy)),
    )
    assert [(s is state, i, e) for s, i, e in seen] == [
        (True, 1, 3.0),
        (True, 2, 2.0),
    ]


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
    for sweeps in (0, 1, 20):
        stacked = screened_solve(rhs, xi, v0, sweeps)
        # one (H, W) weight shared by the whole stack, as the flow solver uses it
        shared = screened_solve(rhs, xi[first], v0, sweeps)
        for i in np.ndindex(lead):
            single = screened_solve(rhs[i], xi[i], v0[i], sweeps)
            assert_bitwise(stacked[i], single)
            assert_bitwise(single, screened_sweep_reference(rhs[i], xi[i], v0[i], sweeps))
            assert_bitwise(shared[i], screened_sweep_reference(rhs[i], xi[first], v0[i], sweeps))


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


def test_screened_solve_rejects_mismatched_inputs():
    rhs = np.zeros((3, 4, 5))
    xi = np.ones((4, 5))
    v0 = np.zeros_like(rhs)
    with pytest.raises(ValueError, match="v0"):
        screened_solve(rhs, xi, np.zeros((4, 5)), 1)  # would broadcast over the stack
    for bad_xi in (np.ones((5, 4)), np.ones((2, 4, 5)), np.ones((2, 3, 4, 5))):
        with pytest.raises(ValueError, match="xi"):
            screened_solve(rhs, bad_xi, v0, 1)
    with pytest.raises(ValueError, match="sweeps"):
        screened_solve(rhs, xi, v0, -1)
    with pytest.raises(ValueError, match="rhs"):
        screened_solve(np.zeros(5), np.ones(5), np.zeros(5), 1)


def test_screened_solve_peak_memory():
    # The planes of v and of rhs, xi, c*rhs and 1 + xi*c take 5 rhs sizes
    # plus their pad, and one scratch plane a quarter more (5.33 in all at
    # 512^2).  The bound leaves no room for a full-size temporary, nor for
    # holding the fields planes while the output is allocated.
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
    assert peak <= 5.5 * rhs.nbytes


def test_screened_solve_matches_dense_oracle():
    rng = Splitmix64(402)
    for _ in range(3):
        xi = rng.uniforms(64).reshape(8, 8) * 3.0
        rhs = rng.normals(64).reshape(8, 8)
        v = screened_solve(rhs, xi, np.zeros((8, 8)), sweeps=500)
        ref = np.linalg.solve(assemble_screened_matrix(xi), rhs.ravel()).reshape(8, 8)
        assert rms(v - ref) <= 1e-6


def test_screened_solve_deterministic():
    rng = Splitmix64(403)
    rhs = rng.normals(100).reshape(10, 10)
    xi = rng.uniforms(100).reshape(10, 10)
    a = screened_solve(rhs, xi, np.zeros((10, 10)), sweeps=7)
    b = screened_solve(rhs, xi, np.zeros((10, 10)), sweeps=7)
    assert np.array_equal(a, b)
