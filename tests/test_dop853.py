"""The in-repo DOP853 against scipy's, which stays the tests' reference,
and its lane core against the scalar core."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.integrate._ivp import dop853_coefficients as ref
from scipy.optimize import brentq as scipy_brentq

from emdenlab import (
    Frame,
    IntegratorConfig,
    ProblemParams,
    SolverStats,
    State,
    Termination,
    TerminationKind,
    derive_constants,
    dop853,
    integrate,
    integrate_many,
    log_frame_rhs,
    shoot,
    shoot_many,
    shooting,
)

CONFIG = IntegratorConfig()


def dense(rows, shape):
    out = np.zeros(shape)
    for i, row in enumerate(rows):
        for j, a in row:
            out[i, j] = a
    return out


def test_tableau_is_scipys():
    n = ref.N_STAGES
    assert np.array_equal(np.array(dop853.C), ref.C)
    assert np.array_equal(dense(dop853.A, ref.A.shape), ref.A)
    assert np.array_equal(dense([dop853.B], (1, n)), ref.B[None])
    assert np.array_equal(dense([dop853.E3], (1, n + 1)), ref.E3[None])
    assert np.array_equal(dense([dop853.E5], (1, n + 1)), ref.E5[None])
    assert np.array_equal(dense(dop853.D, ref.D.shape), ref.D)


def scipy_run(params, frame, start, t_target, config):
    """scipy's solve_ivp with the options and terminal events that
    integrate runs, and the termination kind it reports."""
    def positivity(t, y):
        return y[0]

    def cap(t, y):
        return abs(y[0]) - config.amplitude_cap

    positivity.terminal = cap.terminal = True
    positivity.direction, cap.direction = -1.0, 1.0
    sol = scipy_solve_ivp(
        log_frame_rhs(params, frame.alpha), (start.t, t_target),
        [start.v, start.vdot], method="DOP853", rtol=config.rtol,
        atol=config.atol, max_step=config.max_step, dense_output=True,
        events=(positivity, cap))
    if sol.status == 1:
        kind = TerminationKind.POSITIVITY_LOST if len(sol.t_events[0]) \
            else TerminationKind.AMPLITUDE_CAP
    elif sol.status == 0:
        kind = TerminationKind.REACHED_SPAN_END
    else:
        kind = TerminationKind.STEP_UNDERFLOW
    return sol, kind


@st.composite
def problems(draw):
    n = draw(st.integers(3, 6))
    p = draw(st.floats(1.2, 4.0))
    q = draw(st.floats(p + 0.05, p + 3.0))
    l1 = draw(st.floats(-1.0, 0.0))
    l2 = draw(st.floats(-1.9, l1 - 0.05))
    k1, k2 = draw(st.sampled_from([(1.0, 1.0), (1.0, 0.0), (0.0, 1.0)]))
    return ProblemParams(n=n, p=p, q=q, l1=l1, l2=l2, k1=k1, k2=k2)


def _dot_reversed(row, kv, kw):
    """dop853._dot summed in the opposite order: the same sums, rounded
    differently."""
    sv = sw = 0.0
    for j, a in reversed(row):
        sv += a * kv[j]
        sw += a * kw[j]
    return sv, sw


def run_ours(params, frame, start, t_target):
    return dop853.solve_ivp(log_frame_rhs(params, frame.alpha), start.t,
                            t_target, (start.v, start.vdot), CONFIG.rtol,
                            CONFIG.atol, CONFIG.max_step,
                            CONFIG.amplitude_cap)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(params=problems(),
       frame_name=st.sampled_from(["raw", "alpha1", "alpha2"]),
       t0=st.floats(-2.0, 2.0), v0=st.floats(0.05, 3.0),
       vdot0=st.floats(-2.0, 2.0), span=st.floats(0.2, 4.0),
       forward=st.booleans())
def test_same_run_as_scipy(params, frame_name, t0, v0, vdot0, span,
                           forward):
    dc = derive_constants(params)
    frame = Frame({"raw": 0.0, "alpha1": dc.alpha1,
                   "alpha2": dc.alpha2}[frame_name])
    start = State(t0, v0, vdot0)
    t_target = t0 + span if forward else t0 - span
    theirs, kind = scipy_run(params, frame, start, t_target, CONFIG)
    ours = run_ours(params, frame, start, t_target)
    traj = integrate(start, frame, t_target, params, CONFIG)
    assert ours.status == traj.termination.kind == kind

    # While h ramps up from a start whose error scale in one component is
    # near atol (dv/dt = 0 under a strong pull), the E5/E3 sums are
    # rounding noise and their rounding picks the growth factor.  scipy's
    # sums round as its BLAS build does, so no run has canonical steps
    # there; summing in the opposite order exposes such runs.  They are
    # held only to agree within the two runs' global errors (the largest
    # seen in 4500 random draws was 1.2e-8 relative).
    with mock.patch.object(dop853, "_dot", _dot_reversed):
        reordered = run_ours(params, frame, start, t_target)
    tol = 1e-6
    if ours.t.shape == reordered.t.shape \
            and np.max(np.abs(ours.t - reordered.t)) <= 1e-13:
        assert len(ours.t) == len(theirs.t)
        assert ours.nfev == theirs.nfev
        tol = 1e-12
    assert abs(ours.t[-1] - theirs.t[-1]) <= tol
    v, vdot = theirs.sol(traj.t)
    assert np.max(np.abs(traj.v - v)) <= tol * np.max(np.abs(v))
    assert np.max(np.abs(traj.vdot - vdot)) \
        <= tol * max(np.max(np.abs(vdot)), 1.0)


def test_amplitude_cap_branch(config_a, dc_a):
    # v rises from 1.5 through the cap at 2 within the first few steps
    traj = integrate(State(0.0, 1.5, 3.0), Frame(dc_a.alpha1), 12.0,
                     config_a, IntegratorConfig(amplitude_cap=2.0))
    assert traj.termination.kind == TerminationKind.AMPLITUDE_CAP
    assert traj.termination.t == pytest.approx(0.157841792994667, abs=1e-12)
    assert traj.v[-1] == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("f,b", [
    (lambda x: x * x - 2.0, 2.0),
    (lambda x: math.cos(x) - x, 1.0),
    (lambda x: 1e-133 * (0.3 - x) ** 3, 1.0),
    # Brent's extrapolation denominator underflows to 0 here; the event
    # on an orbit decayed to v ~ 1e-133 met this in `solve`
    (lambda x: 1e-140 * (0.3 - x - x * x), 1.0),
])
def test_brentq_is_scipys(f, b):
    tol = 4 * dop853.EPS
    assert dop853._brentq(f, 0.0, b) == scipy_brentq(f, 0.0, b, xtol=tol,
                                                     rtol=tol)


def test_brentq_needs_a_sign_change():
    with pytest.raises(ValueError, match="sign change"):
        dop853._brentq(lambda x: x * x + 1.0, 0.0, 2.0)


def same_grid(params, frame, start, t_target):
    """True unless summing the tableau rows in reverse moves the scalar
    core's step grid: the run's steps are then decided by rounding."""
    plain = run_ours(params, frame, start, t_target)
    with mock.patch.object(dop853, "_dot", _dot_reversed):
        reordered = run_ours(params, frame, start, t_target)
    return plain.t.shape == reordered.t.shape \
        and np.max(np.abs(plain.t - reordered.t)) <= 1e-13


@st.composite
def shot_problems(draw):
    # l2 >= -1.5 keeps the series start radius, and with it v(r0) in the
    # alpha1 frame, well inside double range
    n = draw(st.integers(3, 6))
    p = draw(st.floats(1.2, 4.0))
    q = draw(st.floats(p + 0.05, p + 3.0))
    l1 = draw(st.floats(-1.0, 0.0))
    l2 = draw(st.floats(-1.5, l1 - 0.05))
    k1, k2 = draw(st.sampled_from([(1.0, 1.0), (1.0, 0.0), (0.0, 1.0)]))
    return ProblemParams(n=n, p=p, q=q, l1=l1, l2=l2, k1=k1, k2=k2)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(params=shot_problems(),
       amplitudes=st.lists(st.floats(1e-2, 1e2), min_size=1, max_size=3),
       t_target=st.sampled_from([2.0, 12.0]))
def test_lane_is_the_scalar_run(params, amplitudes, t_target):
    # A lane evaluates exp and power with numpy, which rounds 1 ulp away
    # from math in a few percent of values; past that it takes the
    # scalar core's steps.  Where rounding decides the steps (see
    # test_same_run_as_scipy) the runs agree only to their global errors.
    dc = derive_constants(params)
    frame = Frame(dc.alpha1)
    lanes = shoot_many(amplitudes, params, dc, t_target=t_target)
    for a, lane in zip(amplitudes, lanes):
        one = shoot(a, params, dc, t_target=t_target)
        ours, theirs = lane.trajectory, one.trajectory
        assert lane.kind == one.kind
        assert ours.termination.kind == theirs.termination.kind
        tol = 1e-6
        if same_grid(params, frame, shooting._regular_start(a, params,
                                                             frame)[1],
                     t_target):
            assert (ours.stats.nfev, ours.stats.steps) \
                == (theirs.stats.nfev, theirs.stats.steps)
            tol = 1e-12
        assert abs(ours.t_end - theirs.t_end) <= tol
        n = min(ours.t.size, theirs.t.size)
        scale = np.max(np.abs(theirs.v))
        for x, y in ((ours.v, theirs.v), (ours.vdot, theirs.vdot)):
            assert np.max(np.abs(x[:n - 1] - y[:n - 1])) <= tol * scale
            assert abs(x[-1] - y[-1]) <= tol * scale


def test_lane_core_with_the_same_rhs_is_the_scalar_core(config_a, dc_a):
    # fed the values the lanes compute, the scalar core takes the same
    # steps bit for bit and its stride samples are the lane's; the cap
    # ends six of the lanes, positivity three, and the last one runs
    # backwards to the span end
    frame, config = Frame(dc_a.alpha1), IntegratorConfig(amplitude_cap=2.0)
    starts = [shooting._regular_start(a, config_a, frame)[1]
              for a in np.logspace(-2.0, 2.0, 6)] \
        + [State(0.0, 1.0, 0.0), State(0.0, 1.5, 3.0), State(0.0, 0.5, -1.0),
           State(13.5, 1.2, 0.1)]
    rhs = log_frame_rhs(config_a, frame.alpha)
    for start, traj in zip(starts, integrate_many(starts, frame, 12.0,
                                                  config_a, config)):
        sol = dop853.solve_ivp(dop853._one_lane(rhs.lanes), start.t, 12.0,
                               (start.v, start.vdot), config.rtol,
                               config.atol, config.max_step,
                               config.amplitude_cap)
        ts = dop853.stride_grid(start.t, float(sol.t[-1]),
                                config.dense_output_stride)
        v, vdot = sol(ts)
        assert traj.termination == Termination(sol.status, sol.t[-1])
        assert traj.stats == sol.stats
        assert np.array_equal(traj.t, ts)
        assert np.array_equal(traj.v, v)
        assert np.array_equal(traj.vdot, vdot)


def test_lane_does_not_depend_on_its_batch(config_a, dc_a):
    frame = Frame(dc_a.alpha1)
    starts = [shooting._regular_start(a, config_a, frame)[1]
              for a in np.logspace(-2.0, 2.0, 128)]
    alone = integrate_many([starts[40]], frame, 12.0, config_a)[0]
    in_64 = integrate_many(starts[::2], frame, 12.0, config_a)[20]
    in_128 = integrate_many(starts[::-1], frame, 12.0, config_a)[87]
    for traj in (in_64, in_128):
        assert traj.termination == alone.termination
        assert traj.stats == alone.stats
        for name in ("t", "v", "vdot"):
            assert np.array_equal(getattr(traj, name), getattr(alone, name))


def test_amplitude_cap_on_a_lane(config_a, dc_a):
    # the scalar test_amplitude_cap_branch start, between two lanes that
    # stay under the cap
    frame, config = Frame(dc_a.alpha1), IntegratorConfig(amplitude_cap=2.0)
    starts = [State(0.0, 1.0, 0.0), State(0.0, 1.5, 3.0),
              State(0.0, 1.2, -0.5)]
    trajs = integrate_many(starts, frame, 12.0, config_a, config)
    capped = trajs[1]
    assert capped.termination.kind == TerminationKind.AMPLITUDE_CAP
    assert capped.termination.t == pytest.approx(0.157841792994667,
                                                 abs=1e-12)
    assert capped.v[-1] == pytest.approx(2.0, abs=1e-12)
    for start, traj in zip(starts, trajs):
        one = integrate(start, frame, 12.0, config_a, config)
        assert traj.termination.kind == one.termination.kind
        assert traj.stats == one.stats
        assert traj.termination.t == pytest.approx(one.termination.t,
                                                   abs=1e-12)


def test_underflow_and_zero_span_lanes(config_a, dc_a):
    # 10 ulp of t = 1e15 is 1.25, above max_step: neither lane can step;
    # a start already at t_target takes no step and calls no solver
    t_target, frame = 1e15 + 1.0, Frame(dc_a.alpha1)
    starts = [State(1e15, 1.0, 0.0), State(t_target, 2.0, 0.5),
              State(1e15 + 0.5, 3.0, -1.0)]
    trajs = integrate_many(starts, frame, t_target, config_a)
    kinds = [TerminationKind.STEP_UNDERFLOW,
             TerminationKind.REACHED_SPAN_END,
             TerminationKind.STEP_UNDERFLOW]
    for start, kind, traj in zip(starts, kinds, trajs):
        assert traj.termination == Termination(kind, start.t)
        assert (traj.t.tolist(), traj.v.tolist(), traj.vdot.tolist()) \
            == ([start.t], [start.v], [start.vdot])
        assert traj.stats == integrate(start, frame, t_target,
                                       config_a).stats
    assert trajs[1].stats == SolverStats(0, 0, 0)


@pytest.mark.parametrize("t_target,bad,name", [
    (math.inf, State(0.0, 1.0, 0.0), "t_target"),
    (1.0, State(0.0, math.nan, 0.0), "start.v"),
    (1.0, State(0.0, 1.0, -math.inf), "start.vdot"),
])
def test_lane_rejects_nonfinite_input(config_a, dc_a, t_target, bad, name):
    starts = [State(0.0, math.sqrt(2.0), 0.0), bad]
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        integrate_many(starts, Frame(dc_a.alpha1), t_target, config_a)


def test_lane_rhs_rejects_nonfinite_state(config_a):
    lanes = log_frame_rhs(config_a, 0.0).lanes
    with pytest.raises(RuntimeError, match="non-finite"):
        lanes(np.zeros(3), np.ones(3), np.array([0.0, math.inf, 0.0]))
