"""The state contract of denoising, segmentation and flow, tested once
over a table of the three problems (flow once per regularizer): what a
state keeps between iterations, what it forms once per iteration, what
it writes in place and what it allocates."""

import copy
import resource
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np
import pytest

from adaptreg import denoise, flow, segment
from helpers import (
    assert_denoise_intermediates,
    assert_flow_intermediates,
    assert_planar,
    assert_same_bits,
    assert_segment_intermediates,
    denoise_energy_reference,
    denoise_state,
    denoise_steady_state,
    flow_energy_reference,
    flow_state,
    flow_steady_state,
    random_denoise_state,
    random_flow_state,
    random_segment_state,
    segment_energy_reference,
    segment_state,
    segment_steady_state,
)


@dataclass
class Problem:
    name: str
    modules: tuple  # the modules whose bindings of a kernel the state calls
    state: Callable  # state(constant): a smoothed state, adaptive or constant
    steady: Callable  # steady(n, constant): a state after two iterations
    random: Callable  # random(k): the k-th state of random fields
    energy: Callable  # energy(state, params): the frozen energy formula
    kept: Callable  # kept(state): asserts what the state keeps is of its fields
    once: tuple  # kernels besides the gradient formed once per iteration
    in_place: tuple  # attributes that iterate() keeps and writes into
    planar: tuple  # (..., 2) fields that are views of component-first memory
    allocation: dict  # {(n, constant): bound}, in fields of the frame
    v_step: Callable  # v_step(state): the v-step and dual step through the state's own buffers
    frame: str = "f"
    misfit_over_gap: bool = False  # forms an envelope every iteration, over its gap
    forms: str = "_form_intermediates"  # the method that ends an iteration, forming what is kept
    relinearize: dict = field(default_factory=dict)  # calls of one relinearize
    pages: dict = field(default_factory=dict)  # {(n, constant): bound}, in minor faults over 5 iterations


def flow_problem(regularizer):
    # Flow's iteration is the linear-data state of module denoise, which
    # calls the kernels through denoise's bindings; relinearize folds the
    # prior into ft through flow's binding of _dot.  The linear-data
    # state's v-step forms grad v, so an iteration ends by forming only
    # the gap.
    aniso = regularizer == "anisotropic"
    return Problem(
        "flow-" + regularizer, (denoise, flow), state=partial(flow_state, anisotropic=aniso),
        steady=partial(flow_steady_state, anisotropic=aniso),
        random=lambda k: random_flow_state(730 + k, n=4, anisotropic=aniso),
        energy=flow_energy_reference, kept=assert_flow_intermediates,
        once=("dual_step", "_dot"), in_place=("z", "y", "r", "w", "u", "v", "workspace"),
        planar=("u", "v", "w", "A", "z", "y"), allocation={(128, False): 1, (128, True): 1},
        v_step=lambda st: flow.update_v_w(st, st.params.solver),
        frame="f1", relinearize={"gradient": 1, "_dot": 2, "_form_gap": 1}, forms="_form_gap",
        pages={(512, False): 300},
    )


# Allocation bounds in fields: an iteration with its energy took 13.0
# for segment with 4 labels at 128^2 (16.0 adaptive before its v-step
# formed xi and the right-hand side in buffers it keeps); 0.40 and 0.50
# for anisotropic and isotropic flow with the linear-data workspace
# (12.3 and 8.2 before it); and 12 to 14 for denoise before its workspace.
PROBLEMS = [
    Problem(
        "denoise", (denoise,), state=denoise_state, steady=denoise_steady_state,
        random=lambda k: random_denoise_state(311 + k, n=9),
        energy=denoise_energy_reference, kept=assert_denoise_intermediates,
        once=("dual_step", "vector_norm"), in_place=("u", "v", "w", "r", "z", "y", "workspace"),
        planar=("z", "y"),
        allocation={(n, c): 1 for n in (128, 512) for c in (False, True)},
        v_step=lambda st: denoise.update_v_w(st, st.params),
        pages={(512, False): 300}, forms="_form_gap",
    ),
    Problem(
        "segment", (segment,), state=segment_state, steady=segment_steady_state,
        random=lambda k: random_segment_state(650 + k),
        energy=segment_energy_reference, kept=assert_segment_intermediates,
        once=("dual_step",), in_place=("z", "r", "w", "u", "v", "solve_scratch", "grad_v"),
        planar=("z", "grad_v"), allocation={(128, False): 15, (128, True): 15}, misfit_over_gap=True,
        v_step=lambda st: segment.update_v_all(st, st.params, rhs=st.rhs, xi=st.xi, scratch=st.solve_scratch),
    ),
    flow_problem("anisotropic"),
    flow_problem("isotropic"),
]


def per_size(column):
    """(case, n, constant, bound) of one {(n, constant): bound} column."""
    return [
        pytest.param(case, n, constant, bound,
                     id="%s-%d-%s" % (case.name, n, "constant" if constant else "adaptive"))
        for case in PROBLEMS
        for (n, constant), bound in getattr(case, column).items()
    ]


@pytest.fixture(params=PROBLEMS, ids=lambda case: case.name)
def case(request):
    return request.param


@pytest.fixture(params=[False, True], ids=["adaptive", "constant"])
def constant(request):
    return request.param


def spy(monkeypatch, owners, name, log, note):
    """Wrap name in every owner that binds it so that every call appends
    note(*args, **kwargs) to log."""
    for owner in owners:
        if not hasattr(owner, name):
            continue
        kernel = getattr(owner, name)

        def wrapped(*args, _kernel=kernel, **kwargs):
            log.append(note(*args, **kwargs))
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapped)


def assert_formed_once_per_iteration(monkeypatch, case, constant, names):
    """Each named kernel of the problem's modules, or the state's own
    _form method, runs once in each of six iterations, plus what one
    relinearize calls before the fourth; energy() calls none."""
    st = case.state(constant)
    calls = []
    for name in names:
        owners = (st,) if name.startswith("_form") else case.modules
        spy(monkeypatch, owners, name, calls, lambda *a, _name=name, **k: _name)
    once = Counter(dict.fromkeys(names, 1))
    for k in range(6):
        expected = once
        if k == 3 and case.relinearize:
            st.relinearize()
            expected = once + Counter({n: case.relinearize.get(n, 0) for n in names})
        st.iterate()
        assert Counter(calls) == expected
        calls.clear()
        st.energy()
        st.energy()
        assert calls == []


def test_kept_intermediates_match_the_fields(case, constant):
    # What energy() and the next iterate() read is formed from the state's
    # own fields: at construction, after relinearize and at the end of
    # every iteration.  The start has u = v, so the residual is 0.0
    # until the first dual step.
    st = case.state(constant)
    case.kept(st)
    assert st.residual == 0.0
    for _ in range(2):
        if case.relinearize:
            st.relinearize()
            case.kept(st)
        for _ in range(5):
            st.iterate()
            case.kept(st)
            assert st.residual > 0.0


def test_gradient_formed_once_per_iteration(monkeypatch, case, constant):
    # relinearize differentiates v once more, as the constructor did
    assert_formed_once_per_iteration(monkeypatch, case, constant, ("gradient",))


def test_dual_step_and_intermediates_formed_once_per_iteration(monkeypatch, case, constant):
    # The dual step's u - v serves the primal residual; denoise's |P| for
    # the z-step and flow's A . u for the gap are formed once, whatever
    # run_admm then reads.  relinearize folds the prior into ft with one
    # more A . u.
    names = case.once + (case.forms,)
    assert_formed_once_per_iteration(monkeypatch, case, constant, names)


def test_energy_reads_the_gradient_of_the_current_v(case, constant):
    st = case.state(constant)
    for _ in range(5):
        st.iterate()
        assert st.energy() == case.energy(st, st.params)
        assert st.energy() == case.energy(st, st.params)
    if case.relinearize:
        # relinearizing moves A and ft, keeps v and re-forms what it reads
        v = st.v
        st.relinearize()
        assert st.v is v
        assert st.energy() == case.energy(st, st.params)


def test_envelope_only_for_a_weight_field(monkeypatch, case, constant):
    # A constant weight reads no residual, so none is formed.  Segment
    # forms its misfit d every iteration all the same, written over the
    # f - c that the r-step shrank.
    st = case.state(constant)
    residuals, over_gap = [], []
    spy(monkeypatch, case.modules, "weight_fields", residuals, lambda rho, *a, **k: rho)
    spy(monkeypatch, case.modules, "envelope_at", over_gap,
        lambda x, *a, **buffers: buffers.get("out") is x)
    for _ in range(3):
        st.iterate()
    assert [rho is None for rho in residuals] == [constant] * 3
    formed = 3 if case.misfit_over_gap or not constant else 0
    assert over_gap == [case.misfit_over_gap] * formed


def test_energy_matches_frozen_formula(case):
    # Small grids and many of them: on a large grid the total absorbs a
    # last-bit change in how the terms are grouped.
    for k in range(20):
        st = case.random(k)
        assert st.energy() == case.energy(st, st.params)


def test_iterate_writes_the_fields_in_place(case, constant):
    st = case.state(constant)
    assert_planar(st, case.planar)
    # Each field stays one array from construction on; only a constant
    # weight's lambda is left out, since the first iteration makes it a float.
    names = case.in_place + (() if constant else ("lam",))
    arrays = {name: getattr(st, name) for name in names}
    for _ in range(5):
        st.iterate()
        st.energy()
        for name in names:
            assert getattr(st, name) is arrays[name], name
    assert np.shape(st.lam) == (() if constant else st.r.shape)
    assert_planar(st, case.planar)


@pytest.mark.parametrize("case, n, constant, bound", per_size("allocation"))
def test_steady_state_allocation_is_bounded(case, n, constant, bound):
    # numpy copies a broadcast operand through an iteration buffer of
    # np.getbufsize() entries per ufunc call, 128 KiB for complex128
    # whatever the grid; at 128^2 that alone is a field, so it is shrunk
    # here to measure the package's own buffers.
    st = case.steady(n, constant)
    bufsize = np.setbufsize(1024)
    tracemalloc.start()
    try:
        st.iterate()
        st.energy()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        np.setbufsize(bufsize)
    assert peak < bound * getattr(st, case.frame).nbytes


@pytest.mark.parametrize("case, n, constant, bound", per_size("pages"))
def test_steady_state_takes_no_fresh_pages(case, n, constant, bound):
    # Without the workspace, five 512^2 adaptive denoise iterations took
    # 3097 minor faults (about 1.75 fields faulted in fresh per
    # iteration), and anisotropic flow's took 10100 before it shared
    # the workspace; the bound is a tenth of denoise's.
    st = case.steady(n, constant)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        st.iterate()
        st.energy()
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before <= bound


def test_v_step_with_the_states_buffers_allocates_nothing_of_field_size(case, constant):
    # The right-hand side, xi, u + w, the solve, segment's projection and
    # the dual step's u - v all go into the state's own buffers, so only
    # numpy's iteration buffers remain, shrunk as above: 0.05 fields at
    # 256^2.
    st = case.steady(256, constant)
    case.v_step(st)
    bufsize = np.setbufsize(1024)
    tracemalloc.start()
    try:
        case.v_step(st)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        np.setbufsize(bufsize)
    assert peak < 0.1 * getattr(st, case.frame).nbytes


def test_adaptive_run_continues_a_constant_runs_state(case):
    # A constant-weight run leaves lambda a float.  An adaptive run of
    # that state forms its weight field once and then writes it in place;
    # it matches the same state continued with lambda a field, since the
    # weight step writes lambda before anything reads it, and its energy
    # matches the frozen formula.
    st = case.state(True)
    for _ in range(3):
        st.iterate()
    assert isinstance(st.lam, float)
    ref = copy.deepcopy(st)
    ref.lam = np.full(ref.r.shape, ref.lam)
    st.params = ref.params = case.state(False).params
    for k in range(4):
        st.iterate()
        ref.iterate()
        if k == 0:
            lam = st.lam
        assert st.lam is lam
        assert st.energy() == case.energy(st, st.params) == ref.energy()
    for name in ("u", "v", "w", "r", "z", "lam"):
        assert_same_bits(getattr(st, name), getattr(ref, name))
