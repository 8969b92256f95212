"""The in-repo DOP853 against scipy's, which stays the tests' reference,
its generated scalar core against the loop formulation of the same
tableau, its lane core against the scalar core, the step attempt and
lane stages log_frame_rhs compiles against a right-hand side called at
each stage, and the dense-output rows it builds on first read against
the rows the loop formulation makes of each accepted step as it is
taken."""

import functools
import importlib
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.integrate._ivp import dop853_coefficients as ref
from scipy.optimize import brentq as scipy_brentq

from emdenlab import (
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
from emdenlab.acceptance import CONFIG_A
from emdenlab.integrate import LANES_MIN, _non_finite, forced_expansion, \
    stride_grid
from emdenlab.params import FrameEquation, frame_equation, frame_exp

from conftest import one_lane

CONFIG = IntegratorConfig()


def lane_batch(starts: list) -> list:
    """starts padded with repeats of the first to LANES_MIN, the
    smallest batch integrate_many runs on the lane core; a lane does not
    depend on its batch."""
    return list(starts) + [starts[0]] * (LANES_MIN - len(starts))


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


def scipy_run(params, alpha, start, t_target, config):
    """scipy's solve_ivp with the options and terminal events that
    integrate runs, and the termination kind it reports.  Its first two
    calls, the first evaluation and the initial step's probe, go to
    log_frame_rhs on one lane, as ours do; the later ones, its stages,
    to the float term loop, which our step attempt inlines."""
    one = one_lane(log_frame_rhs(frame_equation(params, alpha)))
    floats, calls = loop_rhs(params, alpha), []

    def fun(t, y):
        calls.append(t)
        return (one if len(calls) <= 2 else floats)(t, y)

    def positivity(t, y):
        return y[0]

    def cap(t, y):
        return abs(y[0]) - config.amplitude_cap

    positivity.terminal = cap.terminal = True
    positivity.direction, cap.direction = -1.0, 1.0
    sol = scipy_solve_ivp(
        fun, (start.t, t_target),
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


def reversed_rows(rows):
    return tuple(tuple(reversed(row)) for row in rows)


# The tableau rows of the scalar core's step attempt with every stage
# sum taken in the opposite order: the same sums, rounded differently.
REVERSED = (reversed_rows(dop853.TABLEAU[0]),
            *reversed_rows(dop853.TABLEAU[1:]))


def run(fun, start, t_target, cap=CONFIG.amplitude_cap):
    return dop853.solve_ivp(fun, start.t, t_target, (start.v, start.vdot),
                            CONFIG.rtol, CONFIG.atol, CONFIG.max_step, cap)


def run_ours(params, alpha, start, t_target, cap=CONFIG.amplitude_cap):
    return run(log_frame_rhs(frame_equation(params, alpha)), start,
               t_target, cap)


def run_reversed(params, alpha, start, t_target):
    """run_ours with a step attempt built from the REVERSED rows that
    calls the float term loop at each stage."""
    rhs = log_frame_rhs(frame_equation(params, alpha))
    return run(calling(rhs, called_attempt(loop_rhs(params, alpha),
                                           REVERSED)), start, t_target)


# a run that loses positivity on a grid summing in reverse does not move,
# so its nfev, with the located step's 3 evaluations, is scipy's exactly
EVENT_ENDED = dict(
    params=ProblemParams(n=3, p=3.51, q=5.92, l1=-0.67, l2=-1.5),
    frame_name="raw", t0=-0.2, v0=0.4, vdot0=0.2, span=2.6, forward=False)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(params=problems(),
       frame_name=st.sampled_from(["raw", "alpha1", "alpha2"]),
       t0=st.floats(-2.0, 2.0), v0=st.floats(0.05, 3.0),
       vdot0=st.floats(-2.0, 2.0), span=st.floats(0.2, 4.0),
       forward=st.booleans())
@example(**EVENT_ENDED)
def test_same_run_as_scipy(params, frame_name, t0, v0, vdot0, span,
                           forward):
    assert_same_run_as_scipy(params, frame_name, t0, v0, vdot0, span,
                             forward)


def test_event_ended_run_has_scipys_nfev():
    # the pinned example is compared exactly, and ends by its event
    ours = assert_same_run_as_scipy(**EVENT_ENDED)
    assert ours is not None and located(ours)
    assert ours.stats == SolverStats(149, 12, 0)


def assert_same_run_as_scipy(params, frame_name, t0, v0, vdot0, span,
                             forward):
    """Our run ends as scipy's; where summing in reverse leaves its grid
    in place, it takes scipy's steps and evaluations and its samples
    agree to 1e-12, and it is returned, else to 1e-6 (None)."""
    dc = derive_constants(params)
    alpha = {"raw": 0.0, "alpha1": dc.alpha1,
             "alpha2": dc.alpha2}[frame_name]
    start = State(t0, v0, vdot0)
    t_target = t0 + span if forward else t0 - span
    theirs, kind = scipy_run(params, alpha, start, t_target, CONFIG)
    ours = run_ours(params, alpha, start, t_target)
    traj = integrate(start, frame_equation(params, alpha), t_target, CONFIG)
    assert ours.status == traj.termination.kind == kind

    # While h ramps up from a start whose error scale in one component is
    # near atol (dv/dt = 0 under a strong pull), the E5/E3 sums are
    # rounding noise and their rounding picks the growth factor.  scipy's
    # sums round as its BLAS build does, so no run has canonical steps
    # there; summing in the opposite order (REVERSED_CORE) exposes such
    # runs.  They are held only to agree within the two runs' global
    # errors (the largest seen in 4500 random draws was 1.2e-8 relative).
    reordered = run_reversed(params, alpha, start, t_target)
    tol = 1e-6
    if ours.t.shape == reordered.t.shape \
            and np.max(np.abs(ours.t - reordered.t)) <= 1e-13:
        assert len(ours.t) == len(theirs.t)
        # scipy evaluates the dense-output stages of every step as it is
        # taken; ours evaluates them for the step an event is located on
        # and, on read, for every step
        on_read = count_dense_reads(ours, log_frame_rhs(
            frame_equation(params, alpha)))
        assert on_read == 3 * ours.stats.steps
        assert ours.nfev + on_read - 3 * located(ours) == theirs.nfev
        tol = 1e-12
    assert abs(ours.t[-1] - theirs.t[-1]) <= tol
    v, vdot = theirs.sol(traj.t)
    assert np.max(np.abs(traj.v - v)) <= tol * np.max(np.abs(v))
    assert np.max(np.abs(traj.vdot - vdot)) \
        <= tol * max(np.max(np.abs(vdot)), 1.0)
    return ours if tol == 1e-12 else None


def located(sol) -> int:
    """1 when an event ended the run sol, else 0."""
    return int(sol.status in (TerminationKind.POSITIVITY_LOST,
                              TerminationKind.AMPLITUDE_CAP))


def count_dense_reads(sol, fun) -> int:
    """The right-hand side evaluations that building sol's dense output
    makes, one a step and stage; fun is its fun(t, v, vdot)."""
    steps = []

    def counted(t, v, w):
        steps.append(t.size)
        return fun(t, v, w)

    sol.dense(counted)
    return sum(steps)


def test_amplitude_cap_branch(dc_a):
    # v rises from 1.5 through the cap at 2 within the first few steps
    traj = integrate(State(0.0, 1.5, 3.0), dc_a.end("infinity").equation,
                     12.0, IntegratorConfig(amplitude_cap=2.0))
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


# a start whose steps rounding decides: with every sum taken in reverse
# it rejects five more attempts on the way to the same crossing
ROUNDING_DECIDED = (ProblemParams(n=3, p=2.55, q=4.25, l1=-0.86, l2=-1.4),
                    0.0, State(-1.2, 2.8, 0.0), 2.1)


def test_reversed_core_moves_a_rounding_decided_grid():
    # the probe of test_same_run_as_scipy and same_grid is live: it
    # changes the run where rounding picks the steps
    plain = run_ours(*ROUNDING_DECIDED)
    reordered = run_reversed(*ROUNDING_DECIDED)
    assert plain.stats == SolverStats(329, 21, 6)
    assert reordered.stats == SolverStats(389, 21, 11)
    assert not same_grid(*ROUNDING_DECIDED)
    assert abs(plain.t[-1] - reordered.t[-1]) <= 1e-12


# The scalar core as it was written before its step arithmetic was
# generated: every stage sum a loop over its tableau row from 0.0, and
# the acceleration a loop over the term table.  It is the oracle of the
# generated core and of both forms of the generated right-hand side.
def _dot(row, kv, kw):
    """(sum a_j kv_j, sum a_j kw_j) over one sparse tableau row."""
    sv = sw = 0.0
    for j, a in row:
        sv += a * kv[j]
        sw += a * kw[j]
    return sv, sw


def loop_attempt(fun, t, h, v, w, k0v, k0w):
    kv, kw = [k0v] + [0.0] * 15, [k0w] + [0.0] * 15
    for s in range(1, 12):
        dv, dw = _dot(dop853.A[s], kv, kw)
        kv[s], kw[s] = fun(t + dop853.C[s] * h, (v + dv * h, w + dw * h))
    dv, dw = _dot(dop853.B, kv, kw)
    v_new, w_new = v + h * dv, w + h * dw
    kv[12], kw[12] = fun(t + h, (v_new, w_new))
    return (v_new, w_new, kv[12], kw[12], *_dot(dop853.E5, kv, kw),
            *_dot(dop853.E3, kv, kw), (kv, kw))


def loop_dense(lanes, t, h, v, w, v_new, w_new, ks):
    # stages 13-15 by the array form lanes, which builds every interpolant
    one, (kv, kw) = one_lane(lanes), ks
    for s in range(13, 16):
        dv, dw = _dot(dop853.A[s], kv, kw)
        kv[s], kw[s] = one(t + dop853.C[s] * h, (v + dv * h, w + dw * h))
    fd = [_dot(row, kv, kw) for row in dop853.D]
    step = (t, h)
    for i, y_old, y_new, k in ((0, v, v_new, kv), (1, w, w_new, kw)):
        dy = y_new - y_old
        step += (y_old, dy, h * k[0] - dy, 2.0 * dy - h * (k[12] + k[0]),
                 *(h * f[i] for f in fd))
    return step


def loop_run(floats, lanes, t0, t_bound, y0, cap):
    """The loop core's run, stepping with floats(t, y) and starting with
    lanes(t, v, vdot) on one lane, and the rows loop_dense makes of its
    accepted steps with lanes, as the core made them when it evaluated
    every step's dense output while stepping: the oracle of the rows
    that Solution.dense builds on first read."""
    last = {}  # the last attempt from each t, the one accepted
    attempts = []

    def attempt(_, t, h, v, w, k0v, k0w):
        attempts.append(t)
        *out, (kv, kw) = loop_attempt(floats, t, h, v, w, k0v, k0w)
        last[t] = (h, v, w, out[0], out[1], (kv, kw))
        return (*out, tuple(k for s in dop853.KEPT[1:]
                            for k in (kv[s], kw[s])))

    sol = dop853.solve_ivp(calling(lanes, attempt), t0, t_bound, y0,
                           CONFIG.rtol, CONFIG.atol, CONFIG.max_step, cap)
    # every attempt of the run was the loop core's
    assert 12 * len(attempts) == sol.nfev - 2 * (sol.nfev > 0) \
        - 3 * located(sol)
    rows = [loop_dense(lanes, t, *last[t]) for t in sol.t[:-1].tolist()]
    return sol, np.array(rows).reshape(-1, dop853.ROW)


def call_stage(kv, kw, t, v, w):
    """attempt_source's stage as a call of fun(t, y) on floats."""
    return f"    {kv}, {kw} = fun({t}, ({v}, {w}))\n"


@functools.cache
def _called(rows):
    code = {}
    exec(compile(dop853.attempt_source(*rows, call_stage), "<called>",
                 "exec"), code)
    return code["attempt"]


def called_attempt(floats, rows=dop853.TABLEAU):
    """attempt_source's step attempt over the tableau rows that calls
    floats(t, y) at each stage, in place of the fun solve_ivp hands it."""
    attempt = _called(rows)
    return lambda _, *args: attempt(floats, *args)


def calling(lanes, attempt=None):
    """lanes(t, v, vdot) as the right-hand side object both cores take:
    the lane core calls it at each stage, and the scalar core steps with
    attempt."""
    def fun(t, v, w):
        return lanes(t, v, w)

    fun.attempt = attempt
    fun.stages = lambda ts: lambda i, v, w: lanes(ts[i], v, w)
    return fun


def loop_rhs(params, alpha):
    """log_frame_rhs's acceleration summed in a loop over the term
    table, on floats (rhs(t, y)) and on arrays (rhs.lanes)."""
    n = params.n
    return term_loop(alpha * (n - 2.0 - alpha), n - 2.0 - 2.0 * alpha,
                     [(exp_, frame_exp(exp_, l, alpha), float(k))
                      for exp_, l, k in params.active_terms()])


def term_loop(lin, c, terms):
    """loop_rhs of the equation v'' = lin v - c v' - sum of the terms
    (exp_, e, k), each k e^{e t} max(v, 0)^exp_."""
    def accel(t, v, vd, vp, exp):
        acc = lin * v - c * vd
        for exp_, e, k in terms:
            # e^{0 t} = 1 exactly; the exponential is evaluated first, as
            # in the compiled stage, so math's overflows raise alike
            term = exp(e * t) * vp ** exp_ if e else vp ** exp_
            acc -= term if k == 1.0 else k * term
        return acc

    def rhs(t, y):
        v, vd = y[0], y[1]
        acc = accel(t, v, vd, v if v > 0.0 else 0.0, math.exp)
        if not math.isfinite(acc):  # so is a non-finite v or vdot
            _non_finite(t, v, vd, acc)
        return (vd, acc)

    def lanes(t, v, vd):
        acc = accel(t, v, vd, np.maximum(v, 0.0), np.exp)
        if not np.isfinite(acc).all():
            raise RuntimeError("non-finite state")
        return (vd, acc)

    rhs.lanes = lanes
    return rhs


def same_run(sol, ref):
    return sol.t.tobytes() == ref.t.tobytes() \
        and sol.stages.tobytes() == ref.stages.tobytes() \
        and sol.tail.tobytes() == ref.tail.tobytes() \
        and (sol.stats, sol.status) == (ref.stats, ref.status)


def assert_loop_core_run(params, alpha, start, t_target, cap):
    """The generated core's run is the loop core's bit for bit, and the
    rows it builds on read are the loop core's eager rows."""
    rhs = log_frame_rhs(frame_equation(params, alpha))
    ours = run_ours(params, alpha, start, t_target, cap)
    floats = loop_rhs(params, alpha)
    ref, rows = loop_run(floats, floats.lanes, start.t, t_target,
                         (start.v, start.vdot), cap)
    assert same_run(ours, ref)
    assert ours.dense(rhs).T.tobytes() == rows.tobytes()
    return ours


@settings(max_examples=60, deadline=None, derandomize=True)
@given(params=problems(),
       frame_name=st.sampled_from(["raw", "alpha1", "alpha2"]),
       t0=st.floats(-2.0, 2.0), v0=st.floats(0.05, 3.0),
       vdot0=st.floats(-2.0, 2.0), span=st.floats(0.2, 4.0),
       forward=st.booleans(), cap=st.sampled_from([1e8, 4.0, 2.0]))
def test_generated_core_is_the_loop_core(params, frame_name, t0, v0, vdot0,
                                         span, forward, cap):
    dc = derive_constants(params)
    alpha = {"raw": 0.0, "alpha1": dc.alpha1,
             "alpha2": dc.alpha2}[frame_name]
    assert_loop_core_run(params, alpha, State(t0, v0, vdot0),
                         t0 + span if forward else t0 - span, cap)


@pytest.mark.parametrize("case,cap,kind,rejected", [
    # the scalar amplitude-cap start of test_amplitude_cap_branch
    ((CONFIG_A, "alpha1", State(0.0, 1.5, 3.0), 12.0), 2.0,
     TerminationKind.AMPLITUDE_CAP, 0),
    (ROUNDING_DECIDED, 1e8, TerminationKind.POSITIVITY_LOST, 6),
    # backwards to the span end in the alpha2 frame
    ((CONFIG_A, "alpha2", State(1.0, 1.2, 0.3), -1.5), 1e8,
     TerminationKind.REACHED_SPAN_END, None),
])
def test_loop_core_cases(case, cap, kind, rejected):
    params, alpha, start, t_target = case
    if isinstance(alpha, str):
        alpha = getattr(derive_constants(params), alpha)
    sol = assert_loop_core_run(params, alpha, start, t_target, cap)
    assert sol.status == kind
    assert len(sol.t) > 2
    if rejected is not None:
        assert sol.stats.rejected == rejected


def assert_rows_are_eager(fun, start, t_target, cap=CONFIG.amplitude_cap,
                          batched=None):
    """Both cores' runs of the array form fun from start (the scalar
    core's calling it on one lane at each stage) are the loop core's run
    of it, and the rows each builds on read are the loop core's eager
    rows byte for byte; so is batched, the start's lane in a batch of
    solve_lanes, when given."""
    one = one_lane(fun)
    ref, rows = loop_run(one, fun, start.t, t_target, (start.v, start.vdot),
                         cap)
    scalar = dop853.solve_ivp(calling(fun, called_attempt(one)), start.t,
                              t_target, (start.v, start.vdot), CONFIG.rtol,
                              CONFIG.atol, CONFIG.max_step, cap)
    (_, lane), = dop853.solve_lanes(
        fun, [start.t], t_target, [[start.v], [start.vdot]], CONFIG.rtol,
        CONFIG.atol, CONFIG.max_step, cap)
    for sol in [scalar, lane] + ([batched] if batched else []):
        assert same_run(sol, ref)
        assert sol.dense(fun).T.tobytes() == rows.tobytes()
    return ref


@settings(max_examples=40, deadline=None, derandomize=True)
@given(params=problems(),
       frame_name=st.sampled_from(["raw", "alpha1", "alpha2"]),
       t0=st.floats(-2.0, 2.0), v0=st.floats(0.05, 3.0),
       vdot0=st.floats(-2.0, 2.0), span=st.floats(0.2, 4.0),
       forward=st.booleans(), cap=st.sampled_from([1e8, 4.0, 2.0]))
def test_built_rows_are_the_eager_rows(params, frame_name, t0, v0, vdot0,
                                       span, forward, cap):
    dc = derive_constants(params)
    alpha = {"raw": 0.0, "alpha1": dc.alpha1,
             "alpha2": dc.alpha2}[frame_name]
    assert_rows_are_eager(
        log_frame_rhs(frame_equation(params, alpha)),
        State(t0, v0, vdot0), t0 + span if forward else t0 - span, cap)


def test_built_rows_of_runs_that_end_oddly(dc_a):
    # the ends whose last step the packed layout treats apart: an event
    # on the previous grid point drops the step that located it, so the
    # run's last step ends where the dropped one started; a step size
    # that underflows ends the run after its last step (near t = 2^46)
    # or before its first (at 1e15, where 10 ulp of t exceeds max_step);
    # a zero span has no step
    lanes = log_frame_rhs(dc_a.end("infinity").equation)
    start = State(10.0, 1.5, 3.0)
    base = assert_rows_are_eager(lanes, start, 13.0)
    # a cap 1 ulp above v at the end of step 11: step 12 crosses it
    # within rounding of its start
    cap = math.nextafter(float(base.stages[11, 0]), math.inf)
    ref = assert_rows_are_eager(lanes, start, 13.0, cap)
    assert ref.status == TerminationKind.AMPLITUDE_CAP
    assert ref.t[-1] == base.t[11]
    assert ref.stats == SolverStats(2 + 12 * (12 + 2) + 3, 11, 2)
    # one batch under that cap, each lane ended another way after its
    # steps: the dropped step, the cap, two crossings on the same step
    # round (events are located after the loop, all in one build), and
    # the span end, reached backwards; each lane is its start's run
    starts = [start, State(10.0, 2.0, 4.0), State(10.0, 3.0, 3.0),
              State(11.0, 2.5, 2.0), State(14.0, 1.2, 0.1)]
    batch = dict(dop853.solve_lanes(
        lanes, [s.t for s in starts], 13.0,
        [[s.v for s in starts], [s.vdot for s in starts]], CONFIG.rtol,
        CONFIG.atol, CONFIG.max_step, cap))
    for i, s in enumerate(starts):
        assert_rows_are_eager(lanes, s, 13.0, cap, batched=batch[i])
    assert [batch[i].status for i in range(5)] == [
        TerminationKind.AMPLITUDE_CAP, TerminationKind.AMPLITUDE_CAP,
        TerminationKind.POSITIVITY_LOST, TerminationKind.POSITIVITY_LOST,
        TerminationKind.REACHED_SPAN_END]
    assert batch[0].t[-1] == base.t[11]
    # every running lane attempts a step on each round: the same work
    # is the same round
    assert batch[2].nfev == batch[3].nfev
    assert batch[2].t[-1] != batch[3].t[-1]
    ref = assert_rows_are_eager(lanes, State(2.0 ** 46 - 0.5, 1.0, 0.0),
                                2.0 ** 46 + 1.0)
    assert ref.status == TerminationKind.STEP_UNDERFLOW
    assert ref.stats.steps == 6
    for start, t_target in ((State(1e15, 1.0, 0.0), 1e15 + 1.0),
                            (State(1.5, 2.0, 0.5), 1.5)):
        ref = assert_rows_are_eager(lanes, start, t_target)
        assert ref.stats.steps == 0


class Weighted:
    """A stand-in term table with weights other than the 0/1 toggles of
    ProblemParams."""

    def __init__(self, n, terms):
        self.n, self.terms = n, terms

    def active_terms(self):
        return self.terms


@st.composite
def term_tables(draw):
    """(params, alpha): a problem in its raw, alpha1 or alpha2 frame (the
    last two zero a term's frame exponent), or a stand-in table with
    weights other than 1 and l = -2 terms (e = 0 in the raw frame)."""
    if draw(st.booleans()):
        params = draw(problems())
        dc = derive_constants(params)
        return params, draw(st.sampled_from([0.0, dc.alpha1, dc.alpha2]))
    terms = draw(st.lists(st.tuples(
        st.floats(1.2, 7.0), st.sampled_from([-2.0, -0.5, 0.0]),
        st.sampled_from([1.0, -1.0, 0.5, 3.0])), max_size=3))
    return Weighted(draw(st.integers(3, 6)), terms), \
        draw(st.sampled_from([0.0, 0.5]))


def outcome(f, *args):
    """f(*args) as bytes, or RuntimeError when it raises that."""
    try:
        with np.errstate(invalid="ignore"):  # 0 * inf in lin * v
            return np.array(f(*args)).tobytes()
    except RuntimeError:
        return RuntimeError


@settings(max_examples=80, deadline=None, derandomize=True)
@given(table=term_tables(), t=st.floats(-3.0, 3.0),
       v=st.lists(st.floats(-1e-3, 0.0) | st.floats(0.0, 5.0), min_size=1,
                  max_size=5),
       vdot=st.floats(-3.0, 3.0),
       bad=st.sampled_from([math.inf, -math.inf, math.nan]))
def test_generated_rhs_is_the_term_loop(table, t, v, vdot, bad):
    # the array form on the whole array; v below 0 is clamped, problems()
    # switches terms off (k = 0), and a non-finite v or vdot raises in
    # both
    params, alpha = table
    ours = log_frame_rhs(frame_equation(params, alpha))
    ref = loop_rhs(params, alpha)
    v = np.array(v)
    ts, vd = np.full(v.size, t), np.full(v.size, vdot)
    assert outcome(ours, ts, v, vd) == outcome(ref.lanes, ts, v, vd)
    for y in ((bad, vdot), (v[0], bad)):
        v_bad, vd_bad = v.copy(), vd.copy()
        v_bad[0], vd_bad[0] = y
        assert outcome(ours, ts, v_bad, vd_bad) \
            == outcome(ref.lanes, ts, v_bad, vd_bad) == RuntimeError


@st.composite
def compiled_runs(draw):
    """(eq, start, t_target, cap): a problem in one of its frames run
    forwards or backwards, where the smaller caps end some runs by an
    event, or in its alpha1 frame (where its forced term decays) from
    near t = 2^46 across it, where the step size underflows."""
    params = draw(problems())
    dc = derive_constants(params)
    if draw(st.booleans()):
        start = State(2.0 ** 46 - draw(st.floats(0.2, 1.0)),
                      draw(st.floats(0.05, 3.0)), draw(st.floats(-2.0, 2.0)))
        return frame_equation(params, dc.alpha1), start, 2.0 ** 46 + 1.0, \
            CONFIG.amplitude_cap
    alpha = draw(st.sampled_from([0.0, dc.alpha1, dc.alpha2]))
    start = State(draw(st.floats(-2.0, 2.0)), draw(st.floats(0.05, 3.0)),
                  draw(st.floats(-2.0, 2.0)))
    span = draw(st.floats(0.2, 4.0)) * draw(st.sampled_from([1.0, -1.0]))
    return frame_equation(params, alpha), start, start.t + span, \
        draw(st.sampled_from([1e8, 4.0, 2.0]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=compiled_runs())
@example(case=(frame_equation(CONFIG_A, derive_constants(CONFIG_A).alpha1),
               State(0.0, 1.5, 3.0), 12.0, 2.0))  # the amplitude cap
@example(case=(frame_equation(*ROUNDING_DECIDED[:2]),
               *ROUNDING_DECIDED[2:], 1e8))  # positivity, 6 rejections
def test_compiled_attempt_is_the_called_rhs(case):
    # log_frame_rhs steps with its attempt, which inlines the acceleration
    # at each stage; the float term loop of the same equation called at
    # each stage by the generic attempt takes the same steps bit for bit,
    # whatever ends the run
    eq, start, t_target, cap = case
    rhs = log_frame_rhs(eq)
    calls = []

    def fun(t, v, w):
        calls.append(t.size)
        return rhs(t, v, w)

    fun.attempt = rhs.attempt
    ours = run(fun, start, t_target, cap)
    ref = run(calling(rhs, called_attempt(
        term_loop(eq.lin, eq.damping, eq.terms))), start, t_target, cap)
    assert same_run(ours, ref)
    # fun itself is called on one lane for the first evaluation and the
    # initial step's probe, and on a located event's three dense stages
    assert calls == [1] * (2 * (ours.nfev > 0) + 3 * located(ours))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(table=term_tables(), t=st.floats(-3.0, 3.0),
       h=st.sampled_from([0.1, -0.1, 1e200]),
       y=st.lists(st.floats(-1e-3, 5.0) | st.sampled_from(
           [1e300, math.inf, -math.inf, math.nan]), min_size=4, max_size=4))
@example(table=(CONFIG_A, 0.0), t=0.0, h=0.1, y=[1.0, 0.0, 0.0, math.inf])
def test_compiled_attempt_fails_as_the_called_rhs(table, t, h, y):
    # one attempt from (v, vdot) with f (k0v, k0w) there: the same values,
    # or the same error (a non-finite stage's RuntimeError naming the same
    # t, v, vdot and vddot, or math's OverflowError)
    params, alpha = table
    rhs = log_frame_rhs(frame_equation(params, alpha))

    def outcome(attempt):
        try:
            return repr(attempt(None, t, h, *y))
        except (RuntimeError, OverflowError) as exc:
            return type(exc), str(exc)

    assert outcome(rhs.attempt) \
        == outcome(called_attempt(loop_rhs(params, alpha)))


def test_compiled_attempt_names_the_failing_stage(config_a):
    rhs = log_frame_rhs(frame_equation(config_a, 0.0))
    with pytest.raises(RuntimeError, match=r"^non-finite state during "
                       r"integration at t=0\.005260015195876773: v=1\.0, "
                       r"vdot=inf, vddot=-inf$"):
        rhs.attempt(None, 0.0, 0.1, 1.0, 0.0, 0.0, math.inf)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(params=problems(),
       frame_name=st.sampled_from(["raw", "alpha1", "alpha2"]),
       lanes=st.sampled_from([1, 7, 64]), seed=st.integers(0, 2 ** 16),
       t_bound=st.sampled_from([-4.0, 4.0]),
       cap=st.sampled_from([1e8, 4.0, 2.0]))
def test_staged_lanes_are_the_per_stage_lanes(params, frame_name, lanes,
                                              seed, t_bound, cap):
    # the lane attempt through rhs.stages, each exponential computed once
    # for the 13 stage times and one finiteness test, takes the steps of
    # the attempt that calls rhs at each stage, lane for lane
    dc = derive_constants(params)
    alpha = {"raw": 0.0, "alpha1": dc.alpha1,
             "alpha2": dc.alpha2}[frame_name]
    rng = np.random.default_rng(seed)
    t0 = rng.uniform(-2.0, 2.0, lanes)
    y0 = [rng.uniform(0.05, 3.0, lanes), rng.uniform(-2.0, 2.0, lanes)]
    f = log_frame_rhs(frame_equation(params, alpha))
    ts = rng.uniform(-2.0, 2.0, (13, lanes))
    at = f.stages(ts)
    for i in range(13):
        assert np.array(at(i, *y0)).tobytes() \
            == np.array(f(ts[i], *y0)).tobytes()
    staged = []

    def fun(t, v, w):
        return f(t, v, w)

    def stages(ts):
        staged.append(ts.shape)
        return f.stages(ts)

    fun.stages = stages
    ours, ref = ([(i, sol) for i, sol in dop853.solve_lanes(
        g, t0, t_bound, y0, CONFIG.rtol, CONFIG.atol, CONFIG.max_step, cap)]
        for g in (fun, calling(f)))
    assert [i for i, _ in ours] == [i for i, _ in ref]
    for (_, sol), (_, other) in zip(ours, ref):
        assert same_run(sol, other)
    assert staged and all(shape[0] == 13 for shape in staged)


@pytest.mark.parametrize("mode", ["always", "error"])
def test_staged_lanes_fail_as_the_per_stage_lanes(mode):
    # a forced term whose exponential overflows from t = 1.7745 on: the
    # attempt that crosses it fails with the error of the attempt that
    # calls rhs at each stage, and no numpy warning escapes either (none
    # is raised as an error when warnings are errors, as the tests run
    # them)
    eq = FrameEquation(0.0, 0.0, 0.0, ((1.0, 400.0, -1e-300),))
    lanes = log_frame_rhs(eq)

    def outcome(fun):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter(mode)
            try:
                list(dop853.solve_lanes(fun, [1.0, 1.2, 1.3], 2.0,
                                        [[1.0, 2.0, 0.5], [0.0, 0.1, 0.0]],
                                        CONFIG.rtol, CONFIG.atol,
                                        CONFIG.max_step, 1e300))
            except (RuntimeError, RuntimeWarning) as exc:
                return type(exc), str(exc), \
                    [(w.category, str(w.message)) for w in seen]
        raise AssertionError("the run did not fail")

    with mock.patch.object(dop853, "_stage_error",
                           wraps=dop853._stage_error) as stage_error:
        ours = outcome(lanes)
    assert stage_error.call_count == 1
    assert ours == outcome(calling(lanes))
    assert ours[0] is RuntimeError and ours[2] == []
    assert ours[1].startswith("non-finite state during integration at "
                              "t=1.76")


def test_stage_error_takes_the_first_failing_stage():
    # from the attempt's start y, steps h and stage values K, the state at
    # the first stage whose acceleration is not finite, stage 12's from
    # the b row, goes to fun, which must raise
    rng = np.random.default_rng(0)
    y, h = rng.uniform(-1.0, 1.0, (2, 3)), np.full(3, 0.1)
    t_stage = 1.0 + dop853.C_LANES * h
    K = rng.uniform(-1.0, 1.0, (13, 2, 3))
    b = (dop853.BE_LANES * K[:12]).sum(1)[0]
    seen = []

    def fun(t, v, w):
        seen.append((t.tolist(), v.tolist(), w.tolist()))
        raise RuntimeError("fun raised")

    for stages, i, state in (((4, 12), 4, y + (dop853.A_LANES[4] * K[:4])
                              .sum(0) * h), ((12,), 12, y + h * b)):
        bad = K.copy()
        bad[stages, 1, 1] = math.nan
        with pytest.raises(RuntimeError, match="fun raised"):
            dop853._stage_error(fun, t_stage, y, bad, h)
        assert seen.pop() == (t_stage[i].tolist(), *state.tolist())
    with pytest.raises(RuntimeError, match="stage 12 .* raised nothing"):
        dop853._stage_error(lambda t, v, w: None, t_stage, y, bad, h)


def same_grid(params, alpha, start, t_target):
    """True unless summing the tableau rows in reverse moves the scalar
    core's step grid: the run's steps are then decided by rounding."""
    plain = run_ours(params, alpha, start, t_target)
    reordered = run_reversed(params, alpha, start, t_target)
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
       amplitudes=st.lists(st.floats(1e-2, 1e2), min_size=1, max_size=5),
       t_target=st.sampled_from([2.0, 12.0]))
def test_lane_is_the_scalar_run(params, amplitudes, t_target):
    # A lane evaluates exp and power with numpy, which rounds 1 ulp away
    # from math in a few percent of values; past that it takes the
    # scalar core's steps.  Where rounding decides the steps (see
    # test_same_run_as_scipy) the runs agree only to their global errors.
    dc = derive_constants(params)
    module = importlib.import_module("emdenlab.integrate")
    with mock.patch.object(module, "solve_lanes",
                           wraps=module.solve_lanes) as solve_lanes:
        lanes = shoot_many(lane_batch(amplitudes), dc, t_target=t_target)
        # a lane's run does not depend on the lanes it rides with
        alones = [shoot_many([a] * LANES_MIN, dc, t_target=t_target)[0]
                  for a in amplitudes]
        ones = [shoot(a, dc, t_target=t_target) for a in amplitudes]
    # each batch is one lane batch, and each shot a scalar run
    assert solve_lanes.call_count == 1 + len(amplitudes)
    for a, lane, alone, one in zip(amplitudes, lanes, alones, ones):
        ours, theirs = lane.trajectory, one.trajectory
        alone = alone.trajectory
        assert (alone.termination, alone.stats) \
            == (ours.termination, ours.stats)
        for name in ("t", "v", "vdot"):
            assert getattr(alone, name).tobytes() \
                == getattr(ours, name).tobytes()
        assert lane.kind == one.kind
        assert ours.termination.kind == theirs.termination.kind
        tol = 1e-6
        start = shooting.regular_start(a, dc, t_target)[1]
        if same_grid(params, dc.alpha1, start, t_target):
            assert (ours.stats.nfev, ours.stats.steps) \
                == (theirs.stats.nfev, theirs.stats.steps)
            tol = 1e-12
        assert abs(ours.t_end - theirs.t_end) <= tol
        n = min(ours.t.size, theirs.t.size)
        scale = np.max(np.abs(theirs.v))
        for x, y in ((ours.v, theirs.v), (ours.vdot, theirs.vdot)):
            assert np.max(np.abs(x[:n - 1] - y[:n - 1])) <= tol * scale
            assert abs(x[-1] - y[-1]) <= tol * scale


def test_scalar_run_and_lane_share_their_first_evaluation(dc_a,
                                                          lane_batches):
    # both cores make their first evaluation with the one right-hand
    # side on arrays; at this start math's exp, inlined in the scalar
    # step attempt, rounds the acceleration 1 ulp away from numpy's
    eq = dc_a.end("infinity").equation
    start = State(0.89, 1.6, -0.76)
    one = integrate(start, eq, 2.89)._run
    lane = integrate_many([start] * LANES_MIN, eq, 2.89)[0]._run
    assert lane_batches == [LANES_MIN]
    assert one.stages[0, 2:4].tobytes() == lane.stages[0, 2:4].tobytes()
    assert one.stages[0, 2:4].tolist() == [-0.76, -2.2263385530534556]


def test_lane_core_with_the_same_rhs_is_the_scalar_core(dc_a,
                                                        lane_batches):
    # fed the values the lanes compute, the scalar core takes the same
    # steps bit for bit and its stride samples are the lane's; the cap
    # ends six of the lanes, positivity three, and the last one runs
    # backwards to the span end
    eq = dc_a.end("infinity").equation
    config = IntegratorConfig(amplitude_cap=2.0)
    starts = [shooting.regular_start(a, dc_a, 12.0)[1]
              for a in np.logspace(-2.0, 2.0, 6)] \
        + [State(0.0, 1.0, 0.0), State(0.0, 1.5, 3.0), State(0.0, 0.5, -1.0),
           State(13.5, 1.2, 0.1)]
    rhs = log_frame_rhs(eq)
    fed = calling(rhs, called_attempt(one_lane(rhs)))
    trajs = integrate_many(lane_batch(starts), eq, 12.0, config)
    assert lane_batches == [LANES_MIN]
    for start, traj in zip(starts, trajs):
        sol = dop853.solve_ivp(fed, start.t, 12.0, (start.v, start.vdot),
                               config.rtol, config.atol, config.max_step,
                               config.amplitude_cap)
        ts = stride_grid(start.t, float(sol.t[-1]),
                         config.dense_output_stride)
        v, vdot = sol(ts, rhs)
        assert traj.termination == Termination(sol.status, sol.t[-1])
        assert traj.stats == sol.stats
        assert np.array_equal(traj.t, ts)
        assert np.array_equal(traj.v, v)
        assert np.array_equal(traj.vdot, vdot)


def test_lane_does_not_depend_on_its_batch(dc_a, lane_batches):
    eq = dc_a.end("infinity").equation
    starts = [shooting.regular_start(a, dc_a, 12.0)[1]
              for a in np.logspace(-2.0, 2.0, 128)]
    alone = integrate_many([starts[40]] * LANES_MIN, eq, 12.0)[0]
    in_64 = integrate_many(starts[::2], eq, 12.0)[20]
    in_128 = integrate_many(starts[::-1], eq, 12.0)[87]
    assert lane_batches == [LANES_MIN, 64, 128]
    for traj in (in_64, in_128):
        assert traj.termination == alone.termination
        assert traj.stats == alone.stats
        for name in ("t", "v", "vdot"):
            assert np.array_equal(getattr(traj, name), getattr(alone, name))


def test_amplitude_cap_on_a_lane(dc_a, lane_batches):
    # the scalar test_amplitude_cap_branch start, between two lanes that
    # stay under the cap
    eq = dc_a.end("infinity").equation
    config = IntegratorConfig(amplitude_cap=2.0)
    starts = [State(0.0, 1.0, 0.0), State(0.0, 1.5, 3.0),
              State(0.0, 1.2, -0.5)]
    trajs = integrate_many(lane_batch(starts), eq, 12.0, config)
    assert lane_batches == [LANES_MIN]
    capped = trajs[1]
    assert capped.termination.kind == TerminationKind.AMPLITUDE_CAP
    assert capped.termination.t == pytest.approx(0.157841792994667,
                                                 abs=1e-12)
    assert capped.v[-1] == pytest.approx(2.0, abs=1e-12)
    for start, traj in zip(starts, trajs):
        one = integrate(start, eq, 12.0, config)
        assert traj.termination.kind == one.termination.kind
        assert traj.stats == one.stats
        assert traj.termination.t == pytest.approx(one.termination.t,
                                                   abs=1e-12)


def test_underflow_and_zero_span_lanes(dc_a, lane_batches):
    # 10 ulp of t = 1e15 is 1.25, above max_step: neither lane can step;
    # a start already at t_target takes no step and evaluates no fun
    t_target, eq = 1e15 + 1.0, dc_a.end("infinity").equation
    starts = [State(1e15, 1.0, 0.0), State(t_target, 2.0, 0.5),
              State(1e15 + 0.5, 3.0, -1.0)]
    trajs = integrate_many(lane_batch(starts), eq, t_target)
    assert lane_batches == [LANES_MIN]
    kinds = [TerminationKind.STEP_UNDERFLOW,
             TerminationKind.REACHED_SPAN_END,
             TerminationKind.STEP_UNDERFLOW]
    for start, kind, traj in zip(starts, kinds, trajs):
        assert traj.termination == Termination(kind, start.t)
        assert (traj.t.tolist(), traj.v.tolist(), traj.vdot.tolist()) \
            == ([start.t], [start.v], [start.vdot])
        assert traj.stats == integrate(start, eq, t_target).stats
    assert trajs[1].stats == SolverStats(0, 0, 0)
    # the lane core yields the scalar core's empty Solution for the
    # zero-span lane, and yields it first
    rhs = log_frame_rhs(eq)
    runs = list(dop853.solve_lanes(
        rhs, [s.t for s in starts], t_target,
        [[s.v for s in starts], [s.vdot for s in starts]], CONFIG.rtol,
        CONFIG.atol, CONFIG.max_step, CONFIG.amplitude_cap))
    assert sorted(i for i, _ in runs) == [0, 1, 2] and runs[0][0] == 1
    one = dop853.solve_ivp(rhs, t_target, t_target, (2.0, 0.5), CONFIG.rtol,
                           CONFIG.atol, CONFIG.max_step, CONFIG.amplitude_cap)
    for sol in (runs[0][1], one):
        assert sol.t.tolist() == [t_target]
        assert sol.stages.shape == (0, dop853.STEP - 1)
        assert sol.tail.shape == (0,)
        assert sol.stats == SolverStats(0, 0, 0)
        assert sol.status == TerminationKind.REACHED_SPAN_END


def test_small_norm_starts_on_lanes(lane_batches):
    # at the equilibrium v = lambda1 = 1 of n = 4, p = 3 in the alpha1
    # frame f is exactly 0: both small-norm branches of the starting step
    # give scipy's 1e-6, and the error stays 0, so every step grows 10
    # times up to max_step.  The start with vdot = 1e-20 takes only the
    # first branch (h = 100 h0 = 1e-4), the others neither.  Each lane
    # is its start's run alone, so no branch leaks across lanes, and
    # starts as its scalar run.
    params = ProblemParams(n=4, p=3.0, q=4.0, k2=0.0)
    eq = frame_equation(params, derive_constants(params).alpha1)
    starts = [State(0.0, 0.5, 0.1), State(0.0, 1.0, 0.0),
              State(0.2, 1.5, -0.4), State(0.0, 1.0, 1e-20),
              State(-0.3, 1.0, 1e-3)]
    trajs = integrate_many(lane_batch(starts), eq, 3.0)
    alone = [integrate_many([start] * LANES_MIN, eq, 3.0)[0]
             for start in starts]
    assert lane_batches == [LANES_MIN] * (1 + len(starts))
    first = [traj._run.t[1] - start.t for start, traj in zip(starts, trajs)]
    assert first[1] == 1e-6 and first[3] == 100.0 * 1e-6
    assert trajs[1].stats == SolverStats(422, 35, 0)
    # scipy's run takes the same grid and evaluates 3 dense-output
    # stages more a step
    theirs, _ = scipy_run(params, eq.alpha, starts[1], 3.0, CONFIG)
    assert theirs.t.tolist() == trajs[1]._run.t.tolist()
    assert theirs.nfev == 422 + 3 * 35
    for start, h, traj, own in zip(starts, first, trajs, alone):
        one = integrate(start, eq, 3.0)
        assert one._run.t[1] - start.t == h
        assert traj.termination == own.termination
        assert traj.stats == own.stats == one.stats
        assert one.termination.kind == traj.termination.kind
        for name in ("t", "v", "vdot"):
            assert np.array_equal(getattr(traj, name), getattr(own, name))


def test_lane_start_makes_two_calls(dc_a):
    # the first evaluation and the initial step's probe of a whole batch
    # are one call of fun each; the lane attempts call fun.stages, and
    # no event is located over this span
    rhs, calls = log_frame_rhs(dc_a.end("infinity").equation), []

    def fun(t, v, w):
        calls.append(t.size)
        return rhs(t, v, w)

    fun.stages = rhs.stages
    v0 = np.linspace(1.0, 1.5, LANES_MIN)
    runs = list(dop853.solve_lanes(
        fun, np.zeros(LANES_MIN), 0.5, [v0, np.zeros(LANES_MIN)],
        CONFIG.rtol, CONFIG.atol, CONFIG.max_step, CONFIG.amplitude_cap))
    assert all(sol.status == TerminationKind.REACHED_SPAN_END
               for _, sol in runs)
    assert calls == [LANES_MIN, LANES_MIN]


def test_lane_start_fails_as_the_scalar_start():
    # seeded at t = 20 towards -1500, the initial step's probe is capped
    # at the span and overflows the forced term's exponential there (the
    # `solve` case over [spans] -1500 to 20); the lanes around it start
    # near t = 20.  The batch raises the scalar run's error.
    dc = derive_constants(ProblemParams(n=5, p=2.5, q=3.0, l1=0.0,
                                        l2=-0.5))
    eq = dc.end("infinity").equation
    start = forced_expansion(dc, "infinity").start(20.0)
    with pytest.raises(RuntimeError) as scalar:
        integrate(start, eq, -1500.0)
    text = str(scalar.value)
    assert text.startswith("non-finite state during integration at "
                           "t=-1500.0: v=")
    others = [State(20.0, 1.7, 0.1), State(20.0, 1.0, -0.3),
              State(19.0, 2.0, 0.0)]
    with pytest.raises(RuntimeError) as lanes:
        integrate_many(lane_batch(others * 2 + [start] + others), eq,
                       -1500.0)
    assert str(lanes.value) == text


def test_zero_span_is_an_empty_solution():
    # no step and no evaluation of fun: a fun that raises is not called
    def fun(t, y):
        raise AssertionError("fun evaluated on a zero span")

    sol = dop853.solve_ivp(fun, 1.5, 1.5, (2.0, 0.5), CONFIG.rtol,
                           CONFIG.atol, CONFIG.max_step,
                           CONFIG.amplitude_cap)
    assert sol.t.tolist() == [1.5] and len(sol.stages) == 0
    assert sol.stats == SolverStats(0, 0, 0)
    assert sol.status == TerminationKind.REACHED_SPAN_END


def test_stride_under_the_spacing_of_t_is_rejected_before_the_run():
    # near t = 2^46 the default stride 0.01 is under 2 ulp of t (0.031),
    # so the stride grid would repeat times; the solver still steps
    # there (10 ulp of 2^46 - 0.5 is 0.078, under max_step), so the span
    # is rejected before the first step, naming t and the stride
    params = ProblemParams(n=5, p=3.0, q=4.0, k2=0.0)
    dc = derive_constants(params)
    start = State(2.0 ** 46 - 0.5, dc.lambda1 + 0.1, 0.0)
    with mock.patch.object(dop853, "_start",
                           side_effect=AssertionError("solver ran")):
        for run in (integrate,
                    lambda *a: integrate_many([a[0]] * LANES_MIN, *a[1:])):
            with pytest.raises(ValueError, match=r"stride 0\.01 .* t = "
                               r"70368744177664\.08"):
                run(start, frame_equation(params, dc.alpha1), 2.0 ** 46 + 0.08)


def test_lanes_that_step_then_underflow(dc_a, lane_batches):
    # near t = 2^46 a few steps fit before h falls under 10 ulp of t; the
    # last sample sits at the end of the last step, not at its start.
    # The stride is 0.05 because the default 0.01 is under 2 ulp there.
    t_target, eq = 2.0 ** 46 + 1.0, dc_a.end("infinity").equation
    config = IntegratorConfig(dense_output_stride=0.05)
    starts = [State(2.0 ** 46 - 0.5, 1.0, 0.0),
              State(2.0 ** 46 - 0.8, 1.2, 0.1)]
    rhs = log_frame_rhs(eq)
    fed = calling(rhs, called_attempt(one_lane(rhs)))
    trajs = integrate_many(lane_batch(starts), eq, t_target, config)
    assert lane_batches == [LANES_MIN]
    for start, traj, steps in zip(starts, trajs, (6, 9)):
        sol = dop853.solve_ivp(fed, start.t, t_target, (start.v, start.vdot),
                               config.rtol, config.atol, config.max_step,
                               config.amplitude_cap)
        v, vdot = sol(traj.t, rhs)
        assert traj.termination == Termination(
            TerminationKind.STEP_UNDERFLOW, sol.t[-1])
        assert traj.stats == sol.stats and sol.stats.steps == steps
        assert np.array_equal(traj.t, stride_grid(
            start.t, sol.t[-1], config.dense_output_stride))
        assert np.array_equal(traj.v, v)
        assert np.array_equal(traj.vdot, vdot)


def test_lane_rows_are_released_when_the_samples_are_read(dc_a,
                                                         lane_batches):
    # an unread lane keeps its steps, STEP floats a step (its Solution's
    # t and stage values), in place of its grid and samples, and reading
    # the samples builds both and drops the steps; beyond the grids and
    # samples a 128-lane batch and its reads need the step chunks and
    # one lane's rows at a time, about 0.3 MB, where keeping the steps
    # past the read would add 2.5 MB
    eq = dc_a.end("infinity").equation
    starts = [shooting.regular_start(a, dc_a, 12.0)[1]
              for a in np.logspace(-2.0, 2.0, 128)]
    integrate_many(starts[:LANES_MIN], eq, 12.0)
    tracemalloc.start()
    try:
        trajs = integrate_many(starts, eq, 12.0)
        unread = tracemalloc.get_traced_memory()[0]
        for traj in trajs:
            traj.v
        read, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lane_batches == [LANES_MIN, 128]
    samples = sum(traj.v.nbytes + traj.vdot.nbytes for traj in trajs)
    kept = samples + sum(traj.t.nbytes for traj in trajs)
    rows = sum(8 * dop853.STEP * traj.stats.steps for traj in trajs)
    assert peak - kept < 1.5e6
    assert read - unread < kept - 0.9 * rows


@pytest.mark.parametrize("t_target,bad,name", [
    (math.inf, State(0.0, 1.0, 0.0), "t_target"),
    (1.0, State(0.0, math.nan, 0.0), "start.v"),
    (1.0, State(0.0, 1.0, -math.inf), "start.vdot"),
])
def test_lane_rejects_nonfinite_input(dc_a, t_target, bad, name):
    starts = [State(0.0, math.sqrt(2.0), 0.0)] * (LANES_MIN - 1) + [bad]
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        integrate_many(starts, dc_a.end("infinity").equation, t_target)


def test_lane_rhs_rejects_nonfinite_state(config_a):
    lanes = log_frame_rhs(frame_equation(config_a, 0.0))
    with pytest.raises(RuntimeError, match="non-finite"):
        lanes(np.zeros(3), np.ones(3), np.array([0.0, math.inf, 0.0]))
