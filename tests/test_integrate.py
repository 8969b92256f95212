import dataclasses
import importlib
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emdenlab import (
    End,
    IntegratorConfig,
    ProblemParams,
    RunConfig,
    SolverStats,
    State,
    Termination,
    TerminationKind,
    Trajectory,
    canonical_json,
    classify_end,
    csv_round_trip,
    derive_constants,
    dop853,
    end_window,
    fmt_float,
    forced_expansion,
    integrate,
    integrate_many,
    log_frame_rhs,
    read_trajectory_csv,
    reframe,
    shoot,
    shoot_many,
    sweep,
    write_trajectory_csv,
)
from emdenlab.integrate import CSV_HEADER as HEADER, LANES_MIN, RTOL_MIN, \
    stride_grid
from emdenlab.params import FrameEquation, frame_equation
from emdenlab.serialize import ROWS_PER_BLOCK
from emdenlab.shooting import classify_ends, regular_start

from conftest import one_lane

SINGLE = ProblemParams(n=5, p=3.0, q=2.0, k2=0.0)


class TestIntegrateCore:
    def test_exact_singular_profile_is_preserved(self):
        # u = sqrt(2)/r solves the single-term equation; in the alpha1
        # frame it is the constant v = sqrt(2)
        dc = derive_constants(SINGLE)
        traj = integrate(State(0.0, math.sqrt(2.0), 0.0),
                         dc.end("infinity").equation, math.log(10.0))
        exact = math.sqrt(2.0) * np.exp(-traj.t)
        assert traj.termination.kind == TerminationKind.REACHED_SPAN_END
        assert np.max(np.abs(traj.u - exact) / exact) < 1e-10

    def test_sampling_grid_stride(self, dc_a):
        start = State(2.0, 1.0001 * dc_a.lambda1, 0.0)
        traj = integrate(start, dc_a.end("infinity").equation, 0.0)
        steps = np.diff(traj.t)
        assert np.all(np.abs(steps[:-1] + 0.01) < 1e-12)
        assert abs(traj.t[0] - 2.0) == 0.0
        assert traj.t[-1] == 0.0

    def test_zero_span_returns_single_sample(self, config_a):
        traj = integrate(State(1.0, 2.0, 0.5), frame_equation(config_a, 0.0),
                         1.0)
        assert traj.t.size == 1
        assert traj.termination.kind == TerminationKind.REACHED_SPAN_END

    def test_direction_symmetry(self, dc_a):
        # integrate backward over [0, 6], then forward from the endpoint;
        # the far endpoint must reproduce the seed within solver budget
        start = forced_expansion(dc_a, "infinity").start(6.0)
        back = integrate(start, dc_a.end("infinity").equation, 0.0)
        end = State(back.t_end, float(back.v[-1]), float(back.vdot[-1]))
        fwd = integrate(end, dc_a.end("infinity").equation, 6.0)
        assert abs(fwd.v[-1] - start.v) < 1e-8
        assert abs(fwd.vdot[-1] - start.vdot) < 1e-8

    def test_positivity_event_is_located(self, dc_a):
        start = regular_start(1.0, dc_a, 12.0)[1]
        traj = integrate(start, dc_a.end("infinity").equation, 12.0)
        assert traj.termination.kind == TerminationKind.POSITIVITY_LOST
        assert traj.t[-1] == pytest.approx(traj.termination.t, abs=1e-12)
        # the event sample itself sits on the zero crossing
        assert abs(traj.v[-1]) < 1e-11

    def test_amplitude_cap_terminates(self, dc_b):
        # the critical-q oscillation rises above 3.2; a cap at 3.0 sits
        # between the seed (2.75) and the first envelope maximum
        cfg = IntegratorConfig(amplitude_cap=3.0)
        traj = integrate(State(-2.0, dc_b.lambda2 + 0.5, 0.0),
                         dc_b.end("origin").equation, -30.0, cfg)
        assert traj.termination.kind == TerminationKind.AMPLITUDE_CAP
        assert abs(traj.v[-1]) == pytest.approx(3.0, abs=1e-9)

    def test_stats_count_the_work(self, config_a, dc_a, tmp_path,
                                  lane_batches):
        # the 2 evaluations of the initial step, 12 stages per attempt
        # and the 3 dense-output stages of the step an event is located
        # on; reading the samples builds every step's dense output and
        # leaves the stats as they were
        eq = dc_a.end("infinity").equation
        traj = integrate(State(0.0, 1.0, 0.0), eq, 3.0,
                         IntegratorConfig(max_step=0.5))
        stats = traj.stats
        assert traj.termination.kind == TerminationKind.REACHED_SPAN_END
        assert stats.steps > 0 and stats.rejected > 0
        assert stats.nfev == 2 + 12 * (stats.steps + stats.rejected)
        start = regular_start(1.0, dc_a, 12.0)[1]
        lane = integrate_many([start] * LANES_MIN, eq, 12.0)[1]
        assert lane_batches == [LANES_MIN]
        for crossed in (integrate(start, eq, 12.0), lane):
            s = crossed.stats
            assert crossed.termination.kind == TerminationKind.POSITIVITY_LOST
            assert s.nfev == 2 + 12 * (s.steps + s.rejected) + 3
            crossed.v
            assert crossed.stats == s
        traj.v
        assert traj.stats == stats
        assert reframe(traj, 0.0).stats == traj.stats
        assert traj.window((0.0, 1.0), 2).stats == traj.stats
        assert integrate(State(1.0, 1.0, 0.0), frame_equation(config_a, 0.0),
                         1.0).stats == SolverStats(0, 0, 0)
        write_trajectory_csv(traj, tmp_path / "t.csv")
        assert read_trajectory_csv(tmp_path / "t.csv").stats is None

    def test_underflow_at_the_first_step_is_reported(self, dc_a):
        # 10 ulp of t = 1e15 is 1.25, above max_step: no step is possible
        traj = integrate(State(1e15, 1.0, 0.0), dc_a.end("infinity").equation,
                         1e15 + 1.0)
        assert traj.termination == Termination(
            TerminationKind.STEP_UNDERFLOW, 1e15)
        assert (traj.t.tolist(), traj.v.tolist(), traj.vdot.tolist()) \
            == ([1e15], [1.0], [0.0])

    @pytest.mark.parametrize("t_target,start,name", [
        (math.inf, State(0.0, math.sqrt(2.0), 0.0), "t_target"),
        (math.nan, State(0.0, math.sqrt(2.0), 0.0), "t_target"),
        (1.0, State(-math.inf, 1.0, 0.0), "start.t"),
        (1.0, State(0.0, math.inf, 0.0), "start.v"),
        (1.0, State(0.0, 1.0, math.nan), "start.vdot"),
    ])
    def test_rejects_nonfinite_input(self, t_target, start, name):
        # from the criterion-1 equilibrium, t_target = inf would run forever
        dc = derive_constants(SINGLE)
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            integrate(start, frame_equation(SINGLE, dc.alpha1), t_target)

    def test_rejects_nonpositive_start(self, config_a):
        with pytest.raises(ValueError):
            integrate(State(0.0, 0.0, 1.0), frame_equation(config_a, 0.0),
                      1.0)

    def test_nonfinite_frame_rejected(self, config_a):
        for alpha in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="frame alpha must be "
                               "finite"):
                frame_equation(config_a, alpha)


class TestConfigValidation:
    def test_stride_coarser_than_the_step_cap(self, dc_a, lane_batches):
        # samples are read off the step interpolants and events are
        # located on them, so a stride of 100 capped steps samples the
        # same run as the default stride, in both cores
        start = State(0.0, 1.0, 0.0)
        coarse_cfg = IntegratorConfig(max_step=0.01, dense_output_stride=1.0)
        fine_cfg = IntegratorConfig(max_step=0.01)
        for run in (integrate, lambda s, *rest: integrate_many(
                [s] * LANES_MIN, *rest)[0]):
            fine = run(start, dc_a.end("infinity").equation, 6.0, fine_cfg)
            coarse = run(start, dc_a.end("infinity").equation, 6.0,
                         coarse_cfg)
            assert coarse.stats == fine.stats
            assert coarse.termination == fine.termination
            assert coarse.t[:-1] == pytest.approx(fine.t[:-1:100],
                                                  abs=1e-13)
            assert coarse.v[:-1] == pytest.approx(fine.v[:-1:100],
                                                  abs=1e-12)
            assert coarse.v[-1] == fine.v[-1]
        assert lane_batches == [LANES_MIN, LANES_MIN]

    @pytest.mark.parametrize("kwargs", [
        dict(rtol=0.0), dict(atol=-1e-12), dict(max_step=0.0),
        dict(amplitude_cap=-1.0), dict(amplitude_cap=10 ** 400),
        # below 100 eps the error test asks more than doubles carry
        dict(rtol=0.5 * RTOL_MIN),
    ])
    def test_positivity_of_knobs(self, kwargs):
        with pytest.raises(ValueError):
            IntegratorConfig(**kwargs)

    @pytest.mark.parametrize("name,value", [
        ("max_step", True), ("rtol", np.True_),
        ("dense_output_stride", np.int64(1)), ("max_step", np.float32(0.25)),
        ("amplitude_cap", np.int64(10 ** 6)),
    ])
    def test_bool_is_not_a_number_and_numpy_numbers_are(self, name, value):
        if isinstance(value, (bool, np.bool_)):
            with pytest.raises(ValueError, match=f"^{name} must be"):
                IntegratorConfig(**{name: value})
            return
        got = getattr(IntegratorConfig(**{name: value}), name)
        assert got == value and type(got) is type(value.item())

    def test_trajectory_needs_monotone_grid(self):
        with pytest.raises(ValueError):
            Trajectory(0.0, np.array([0.0, 1.0, 1.0]),
                       np.ones(3), np.zeros(3),
                       Termination(TerminationKind.REACHED_SPAN_END, 1.0))


@pytest.mark.parametrize("t_target", [3.0, -3.0])
def test_window_takes_the_grid_or_its_reverse(dc_a, t_target):
    # the grid is strictly monotone, so the ascending samples are the
    # arrays or their reverse: the argsort order, bit for bit
    traj = integrate(State(0.0, 1.0, 0.0), dc_a.end("infinity").equation,
                     t_target)
    order = np.argsort(traj.t)
    for window in ((-1.0, 1.0), (-4.0, 4.0), (-0.25, 0.25)):
        sub = traj.window(window, 1)
        t = traj.t[order]
        idx = order[(t >= window[0] - 1e-12) & (t <= window[1] + 1e-12)]
        for got, want in ((sub.t, traj.t), (sub.v, traj.v),
                          (sub.vdot, traj.vdot)):
            assert got.tobytes() == want[idx].tobytes()


def holds_a_solution(traj) -> bool:
    return any(isinstance(x, dop853.Solution) for x in vars(traj).values())


class TestSamplesOnFirstRead:
    @pytest.fixture
    def dense_calls(self, monkeypatch):
        """The Solutions whose dense output is evaluated, one per call."""
        calls, evaluate = [], dop853.Solution.__call__

        def counted(sol, ts, fun):
            calls.append(sol)
            return evaluate(sol, ts, fun)

        monkeypatch.setattr(dop853.Solution, "__call__", counted)
        return calls

    def test_a_run_is_read_through_the_array_form(self, dc_a, monkeypatch):
        # integrate calls its right-hand side on one lane twice, for its
        # first evaluation and the initial step's probe, and steps with
        # its attempt; every interpolant stage, the located crossing's
        # and then each step's on read, goes through it on arrays of
        # steps
        module = importlib.import_module("emdenlab.integrate")
        make, arrays = module.log_frame_rhs, []

        def counted_rhs(eq):
            rhs = make(eq)

            def fun(t, v, w):
                arrays.append(t.size)
                return rhs(t, v, w)

            fun.attempt, fun.stages = rhs.attempt, rhs.stages
            return fun

        monkeypatch.setattr(module, "log_frame_rhs", counted_rhs)
        traj = integrate(regular_start(1.0, dc_a, 12.0)[1],
                         dc_a.end("infinity").equation, 12.0)
        assert traj.termination.kind == TerminationKind.POSITIVITY_LOST
        assert arrays == [1, 1] + [1, 1, 1]
        traj.v
        assert arrays[5:] == [traj.stats.steps] * 3

    def test_grid_shots_are_sampled_only_when_read(self, dc_a, dense_calls):
        # criteria 8 and 9's lane batch: every shot loses positivity, a
        # verdict read from its termination, so nothing is sampled
        shots = shoot_many(np.concatenate(
            [np.logspace(-2.0, 2.0, n) for n in (50, 64, 128)]), dc_a)
        assert len(shots) == 242 and dense_calls == []
        assert {shot.kind.value for shot in shots} == {"crosses_zero"}
        traj = shots[100].trajectory
        sol = traj._run
        v, vdot = traj.v, traj.vdot
        assert dense_calls == [sol] and not holds_a_solution(traj)
        want_v, want_vdot = sol(traj.t, log_frame_rhs(
            dc_a.end("infinity").equation))
        assert np.array_equal(v, want_v) and np.array_equal(vdot, want_vdot)

    def test_rows_are_built_for_crossings_and_reads_only(self, dc_a,
                                                         monkeypatch):
        # the same batch builds no run's dense output: the builder sees
        # only the 242 steps a crossing is located on, and the shots'
        # work counts the 3 stages of each; reading one shot's v and
        # vdot builds its rows once
        built, build = [], dop853._dense_rows

        def counted(fun, t, stages, ends):
            built.append(t.size)
            return build(fun, t, stages, ends)

        monkeypatch.setattr(dop853, "_dense_rows", counted)
        shots = shoot_many(np.concatenate(
            [np.logspace(-2.0, 2.0, n) for n in (50, 64, 128)]), dc_a)
        assert {shot.kind.value for shot in shots} == {"crosses_zero"}
        assert sum(built) == 242
        for shot in shots:
            s = shot.trajectory.stats
            assert s.nfev == 2 + 12 * (s.steps + s.rejected) + 3
        built.clear()
        traj = shots[100].trajectory
        traj.v, traj.vdot, traj.v
        assert built == [traj.stats.steps]

    def test_unread_batch_holds_its_steps_and_no_grids(self, dc_a,
                                                        lane_batches):
        # an unread run holds its Solution's steps, STEP floats a step,
        # and no sample grid: beyond the steps a 128-lane batch holds
        # about 1 KB a lane (its objects and last step's end), where
        # grids built with the runs would add 1.2 MB
        eq = dc_a.end("infinity").equation
        starts = [regular_start(a, dc_a, 12.0)[1]
                  for a in np.logspace(-2.0, 2.0, 128)]
        integrate_many(starts[:LANES_MIN], eq, 12.0)
        tracemalloc.start()
        try:
            trajs = integrate_many(starts, eq, 12.0)
            unread = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert lane_batches == [LANES_MIN, 128]
        assert not any("t" in vars(traj) for traj in trajs)
        rows = sum(8 * dop853.STEP * traj.stats.steps for traj in trajs)
        assert unread - rows < 2.5e5

    def test_crossing_shots_leave_their_grids_unbuilt(self, dc_a):
        # a crossing's verdict reads the run's direction and termination,
        # neither of which builds the grid
        shots = shoot_many(np.logspace(-2.0, 2.0, 50), dc_a)
        assert {shot.kind.value for shot in shots} == {"crosses_zero"}
        assert not any("t" in vars(shot.trajectory) for shot in shots)

    def test_grid_is_built_on_first_read(self, dc_a, dense_calls,
                                         lane_batches):
        # the first read of t builds the run's stride grid and samples
        # nothing; v and vdot are sampled on that grid, which a first
        # read of v builds as well; a scalar run and a lane are read
        # through the same array right-hand side
        eq = dc_a.end("infinity").equation
        rhs = log_frame_rhs(eq)
        start = regular_start(1.0, dc_a, 12.0)[1]
        runs = ((integrate(start, eq, 12.0), True),
                (integrate_many([start] * LANES_MIN, eq, 12.0)[0], False))
        assert lane_batches == [LANES_MIN]  # the second run is a lane
        for traj, t_first in runs:
            sol, stride = traj._run, traj.config.dense_output_stride
            grid = stride_grid(start.t, traj.termination.t, stride)
            assert traj.direction == 1
            if t_first:
                assert traj.t.tobytes() == grid.tobytes()
                assert traj.t is traj.t and dense_calls == []
            v, vdot = traj.v, traj.vdot
            assert traj.t.tobytes() == grid.tobytes()
            want = sol(grid, rhs)
            assert (v.tobytes(), vdot.tobytes()) \
                == (want[0].tobytes(), want[1].tobytes())

    def test_unread_run_survives_pickling(self, dc_a, lane_batches):
        # a scalar shot, and a lane shot as scan's worker pool receives
        # it: a Solution of arrays and the FrameEquation whose right-hand
        # side reads it
        lane = shoot_many([1.0] * LANES_MIN, dc_a)[0]
        one = shoot(1.0, dc_a)
        assert lane_batches == [LANES_MIN]
        for traj in (one.trajectory, lane.trajectory):
            assert holds_a_solution(traj)
            back = pickle.loads(pickle.dumps(traj))
            for name in ("t", "v", "vdot"):
                assert getattr(back, name).tobytes() \
                    == getattr(traj, name).tobytes()
            assert (back.termination, back.stats, back.config) \
                == (traj.termination, traj.stats, traj.config)

    @pytest.mark.parametrize("core", ["scalar", "lanes"])
    @pytest.mark.parametrize("run", ["ascending", "descending"])
    def test_window_of_an_unread_run_is_the_window_of_its_read(
            self, dc_a, lane_batches, core, run):
        # a window read of an unread run samples its grid points inside
        # the window from the rows of just the steps they fall in: the
        # same bits as the window cut from a fully read copy, and the
        # run stays unread, keeping rows only once a window spans it
        # all; ascending is a regular shot to t = 2, descending a
        # from_infinity crossing, whose origin window its classification
        # reads
        if run == "ascending":
            t_target = 2.0
            start = regular_start(1.0, dc_a, t_target)[1]
        else:
            t_target = -34.0
            start = forced_expansion(dc_a, "infinity").start(14.0)
        eq = dc_a.end("infinity").equation
        if core == "scalar":
            traj = integrate(start, eq, t_target)
        else:
            traj = integrate_many([start] * LANES_MIN, eq, t_target)[0]
        assert lane_batches == ([] if core == "scalar" else [LANES_MIN])
        full = pickle.loads(pickle.dumps(traj))
        ref = full._run
        full.v
        sol = traj._run
        steps = np.sort(sol.t)
        longest = int(np.argmax(np.diff(steps)))
        lo, hi = steps[longest], steps[longest + 1]
        partial = [(steps[0], steps[1]), (steps[-2], steps[-1]),
                   (lo + 0.25 * (hi - lo), lo + 0.75 * (hi - lo))]
        assert traj.direction == (1 if run == "ascending" else -1)
        for window in partial + [(steps[0], steps[-1])]:
            got, want = traj.window(window, 1), full.window(window, 1)
            for name in ("t", "v", "vdot"):
                assert getattr(got, name).tobytes() \
                    == getattr(want, name).tobytes()
            assert holds_a_solution(traj) and traj._run is sol
            assert "v" not in vars(traj) and "vdot" not in vars(traj)
            if window in partial:
                assert sol._rows is None
        assert sol._rows.tobytes() == ref._rows.tobytes()
        for name in ("t", "v", "vdot"):
            assert getattr(traj, name).tobytes() \
                == getattr(full, name).tobytes()


class TestBatchSize:
    # integrate_many picks the core from the batch size alone: fewer
    # than LANES_MIN starts are a loop of integrate, LANES_MIN or more
    # one lane batch
    def test_small_batch_is_a_loop_of_scalar_runs(self, dc_a,
                                                  lane_batches):
        eq = dc_a.end("infinity").equation
        grid = np.logspace(-2.0, 2.0, LANES_MIN - 1)
        starts = [regular_start(a, dc_a, 2.0)[1] for a in grid]
        trajs = integrate_many(starts, eq, 2.0)
        shots = shoot_many(grid, dc_a, t_target=2.0)
        ones = [shoot(a, dc_a, t_target=2.0) for a in grid]
        assert lane_batches == []
        for start, traj, shot, one in zip(starts, trajs, shots, ones):
            for ours, theirs in ((traj, integrate(start, eq, 2.0)),
                                 (shot.trajectory, one.trajectory)):
                assert (ours.termination, ours.stats, ours.config) \
                    == (theirs.termination, theirs.stats, theirs.config)
                for name in ("t", "v", "vdot"):
                    assert getattr(ours, name).tobytes() \
                        == getattr(theirs, name).tobytes()
            assert canonical_json(shot.to_dict()) \
                == canonical_json(one.to_dict())

    def test_batch_of_lanes_min_is_one_lane_batch(self, dc_a, lane_batches):
        eq = dc_a.end("infinity").equation
        grid = np.logspace(-2.0, 2.0, LANES_MIN)
        integrate_many([regular_start(a, dc_a, 2.0)[1] for a in grid], eq,
                       2.0)
        assert lane_batches == [LANES_MIN]
        shoot_many(grid, dc_a, t_target=2.0)
        assert lane_batches == [LANES_MIN, LANES_MIN]


def old_series_start(a, r0, params, alpha):
    """The regular start as the second-order series wrote it before it
    became the raw-frame forced expansion: the oracle for that rule."""
    u, up = a, 0.0
    for exp_, l, k in params.active_terms():
        u -= k * a ** exp_ * r0 ** (2.0 + l) / ((2.0 + l) * (params.n + l))
        up -= k * a ** exp_ * r0 ** (1.0 + l) / (params.n + l)
    t0 = math.log(r0)
    v = math.exp(alpha * t0) * u
    return State(t0, v, alpha * v + math.exp((alpha + 1.0) * t0) * up)


class TestSeries:
    def test_gate_rejects_large_radius(self, dc_a):
        # at a = 50 the q-term correction at r0 = 1e-4 exceeds 1e-6 a
        with pytest.raises(ValueError, match="too shallow.* >= 1e-06 x "
                           "amplitude"):
            forced_expansion(dc_a, 50.0).start(math.log(1e-4))

    def test_series_radius_respects_gate(self, dc_a):
        for a in (0.01, 1.0, 50.0, 4000.0):
            r0 = regular_start(a, dc_a, 12.0)[0]
            state = forced_expansion(dc_a, a).start(math.log(r0))
            assert state.v == pytest.approx(a, rel=1e-5)

    def test_start_radius_insensitivity(self, dc_a):
        # starting the same shot at r0 and r0/2 must agree downstream
        a = 1.3
        r0 = regular_start(a, dc_a, 12.0)[0]
        ends = []
        for r in (r0, r0 / 2.0):
            start = forced_expansion(dc_a, a).start(math.log(r), dc_a.alpha1)
            ends.append(integrate(start, dc_a.end("infinity").equation, 0.0))
        u1, u2 = ends[0].u[-1], ends[1].u[-1]
        d1, d2 = ends[0].du_dr[-1], ends[1].du_dr[-1]
        assert abs(u1 - u2) / abs(u1) < 1e-9
        assert abs(d1 - d2) / abs(d1) < 1e-5

    def test_rejects_nonpositive_inputs(self, dc_a):
        with pytest.raises(ValueError, match="amplitude must be positive"):
            forced_expansion(dc_a, -1.0)
        # r0 = 0 is t = -inf
        with pytest.raises(ValueError, match="must be finite"):
            forced_expansion(dc_a, 1.0).start(-math.inf)

    def test_regular_k_is_the_series_correction(self, config_a, dc_a):
        # K = -a^P / ((2+l)(n+l)) at rate 2 + l, one per term, to 1 ulp;
        # the start reframed to alpha1 is the old series start to 2 ulp
        n = config_a.n
        for a in np.logspace(-2.0, 2.0, 41):
            exp = forced_expansion(dc_a, a)
            assert (exp.alpha, exp.amp) == (0.0, a)
            assert len(exp.terms) == 2
            for (k, e), (exp_, l, _) in zip(exp.terms,
                                            config_a.active_terms()):
                old = -a ** exp_ / ((2.0 + l) * (n + l))
                assert e == 2.0 + l
                assert abs(k - old) <= math.ulp(old)
            r0 = regular_start(a, dc_a, 12.0)[0]
            new, old = exp.start(math.log(r0), dc_a.alpha1), \
                old_series_start(a, r0, config_a, dc_a.alpha1)
            assert new.t == old.t
            assert abs(new.v - old.v) <= 2 * math.ulp(old.v)
            assert abs(new.vdot - old.vdot) <= 2 * math.ulp(old.vdot)


class TestSeeds:
    def test_seed_values(self, config_a, dc_a, config_c, dc_c):
        # the closed form K = -lambda^P_force / (rate^2 + damping rate + L),
        # L = alpha (n-2-alpha) (P_auto - 1), of the forced tail
        # lambda + K e^{rate t} (README criterion 6)
        a, c = config_a, config_c
        for params, dc, name, k_ref, t, rate, damping, p_auto, p_force in (
                (a, dc_a, "infinity", -1.1639, 14.0, dc_a.delta,
                 dc_a.c1coef, a.p, a.q),
                (c, dc_c, "origin", -0.3527, -10.0, dc_c.delta2,
                 dc_c.c2coef, c.q, c.p)):
            end = dc.end(name)
            exp = forced_expansion(dc, name)
            (k, e), = exp.terms
            assert k == pytest.approx(k_ref, abs=5e-5)
            assert e == rate
            alpha = end.equation.alpha
            lin = alpha * (params.n - 2.0 - alpha)
            assert k * (e * e + damping * e + lin * (p_auto - 1.0)) \
                == pytest.approx(-end.lam ** p_force, rel=1e-14)
            s = exp.start(t)
            w = k * math.exp(e * t)
            assert (s.t, s.v, s.vdot) == (t, end.lam + w, e * w)

    @pytest.mark.parametrize("p,q,name", [
        *((p, q, "infinity") for p in (1.88, 1.9, 1.92)
          for q in (1.93, 1.95, 1.97)),
        (2.5, 3.0, "origin"),
    ])
    def test_seed_rate_is_the_integrated_rate(self, p, q, name):
        # the README sweep cells and CONFIG_C: the forced rate of the
        # seed is, bit for bit, the one e^{E t} the compiled right-hand
        # side of the end's frame multiplies (the free e0/e1 constants of
        # its stages; an autonomous term has none)
        params = ProblemParams(n=5, p=p, q=q, l1=0.0, l2=-0.5)
        dc = derive_constants(params)
        stages = log_frame_rhs(dc.end(name).equation).stages
        consts = dict(zip(stages.__code__.co_freevars,
                          (cell.cell_contents
                           for cell in stages.__closure__)))
        rates = [v for key, v in sorted(consts.items())
                 if key.startswith("e")]
        assert [e for _, e in forced_expansion(dc, name).terms] == rates

    def test_seed_frame_mapping(self, dc_a):
        # seeds live in the frame dc.end(name).equation.alpha
        assert dc_a.end("infinity").equation.alpha == dc_a.alpha1
        assert dc_a.end("origin").equation.alpha == dc_a.alpha2

    def test_zero_eps_seeds_the_equilibrium(self):
        # q-term off: infinity has no forced term, so the seed offset
        # eps = K e^{rate t} is zero and lambda1 is exact
        dc = derive_constants(SINGLE)
        exp = forced_expansion(dc, "infinity")
        assert exp.terms == ()
        s = exp.start(14.0)
        assert (s.v, s.vdot) == (dc.lambda1, 0.0)
        assert math.copysign(1.0, s.vdot) == 1.0

    def test_eps_bound(self, dc_a):
        # the seed offset eps = K e^{rate t_seed} must stay below 0.1
        # lambda: |K| = 1.16 at t_seed = 0 is above 0.1 lambda1 = 0.18
        exp = forced_expansion(dc_a, "infinity")
        with pytest.raises(ValueError, match="too shallow.* >= 0.1 x "
                           "amplitude"):
            exp.start(0.0)
        exp.start(4.0)

    def test_undefined_lambda_rejected(self):
        params = ProblemParams(n=3, p=1.2, q=5.0, l1=0.0, l2=-0.5)
        dc = derive_constants(params)
        with pytest.raises(ValueError, match="no singular equilibrium"):
            forced_expansion(dc, "infinity")

    def test_switched_off_autonomous_term_rejected(self):
        # p-term off: lambda1 is no equilibrium of the alpha1 frame
        params = ProblemParams(n=5, p=1.9, q=1.95, l2=-0.5, k1=0.0)
        dc = derive_constants(params)
        with pytest.raises(ValueError, match="no singular equilibrium"):
            forced_expansion(dc, "infinity")

    def test_resonance_rejected(self, dc_a):
        # alpha 1, n 5, P 2: L = 2; rate 1 and damping -3 make
        # 1 - 3 + 2 = 0, the forcing rate a root of the linearisation
        eq = FrameEquation(1.0, 2.0, -3.0, ((2.0, 0.0, 1.0), (3.0, 1.0, 1.0)))
        end = End("infinity", 1, 3.0, 2.0, eq)
        with pytest.raises(ValueError, match="resonance"):
            forced_expansion(dataclasses.replace(dc_a, ends=(end,)),
                             "infinity")


class TestReframe:
    def test_round_trip_and_invariance(self, orbit_a, dc_a):
        traj = orbit_a.trajectory
        raw = reframe(traj, 0.0)
        # u is frame-invariant
        assert np.max(np.abs(raw.u - traj.u)
                      / np.maximum(np.abs(traj.u), 1e-300)) < 1e-12
        back = reframe(raw, dc_a.alpha1)
        assert np.max(np.abs(back.v - traj.v)) < 1e-12 * np.max(traj.v)
        assert np.max(np.abs(back.vdot - traj.vdot)) < 1e-10

    def test_rhs_consistency_across_frames(self, config_a, dc_a):
        # the same radial point expressed in two frames must produce
        # consistent second derivatives: check via u'' continuation
        t0, u0, up0 = 0.5, 0.8, -0.3
        for alpha in (0.0, dc_a.alpha1, dc_a.alpha2):
            v = math.exp(alpha * t0) * u0
            vdot = alpha * v + math.exp((alpha + 1.0) * t0) * up0
            rhs = log_frame_rhs(frame_equation(config_a, alpha))
            vd, vdd = one_lane(rhs)(t0, (v, vdot))
            # reconstruct r^2 u'' from the frame quantities
            upp = (vdd - (2.0 * alpha + 1.0) * vdot
                   + alpha * (alpha + 1.0) * v) * math.exp(-(alpha + 2) * t0)
            if alpha == 0.0:
                upp_raw = upp
            else:
                assert upp == pytest.approx(upp_raw, rel=1e-10)

    def test_rhs_clamps_negative_v(self, config_a):
        # an event-located crossing may overshoot below zero; the power
        # terms then act on max(v, 0) and only the linear part remains
        rhs = log_frame_rhs(frame_equation(config_a, 0.0))
        assert one_lane(rhs)(0.0, (-0.1, 0.2)) == (0.2, -3.0 * 0.2)

    def test_rhs_rejects_nonfinite_state(self, config_a):
        rhs = log_frame_rhs(frame_equation(config_a, 0.0))
        with pytest.raises(RuntimeError, match="non-finite"):
            rhs(np.zeros(1), np.ones(1), np.array([math.inf]))


# t = 0.5, v = 2, dv_dt = 0 in the raw frame: r = e^0.5, u = 2, du_dr = 0
ROW_2 = "0.5,1.6487212707001282,2,0,2,0,0"


class TestCsv:
    def test_round_trip_bit_exact(self, orbit_a, tmp_path):
        assert csv_round_trip(orbit_a.trajectory, tmp_path)

    def test_loaded_samples_match(self, orbit_a, tmp_path):
        path = tmp_path / "t.csv"
        write_trajectory_csv(orbit_a.trajectory, path)
        loaded = read_trajectory_csv(path)
        assert loaded.alpha == orbit_a.trajectory.alpha
        assert np.array_equal(loaded.t, orbit_a.trajectory.t)
        assert np.array_equal(loaded.v, orbit_a.trajectory.v)
        assert np.array_equal(loaded.vdot, orbit_a.trajectory.vdot)
        assert orbit_a.trajectory.termination.kind \
            == TerminationKind.REACHED_SPAN_END
        assert loaded.termination == orbit_a.trajectory.termination

    def test_reloaded_orbit_classifies_as_written(self, orbit_a, dc_a,
                                                  tmp_path):
        path = tmp_path / "t.csv"
        write_trajectory_csv(orbit_a.trajectory, path)
        reports = classify_ends(read_trajectory_csv(path), dc_a)
        assert [canonical_json(r.to_dict()) for r in reports] == [
            canonical_json(r.to_dict())
            for r in (orbit_a.report_infinity, orbit_a.report_origin)]

    def test_crossing_termination_inferred(self, dc_a, tmp_path):
        shot = shoot(1.0, dc_a)
        path = tmp_path / "cross.csv"
        write_trajectory_csv(shot.trajectory, path)
        loaded = read_trajectory_csv(path)
        assert shot.trajectory.termination.kind \
            == TerminationKind.POSITIVITY_LOST
        assert loaded.termination == shot.trajectory.termination
        report = classify_end(loaded, dc_a, "infinity")
        assert canonical_json(report.to_dict()) \
            == canonical_json(shot.report.to_dict())

    @pytest.mark.parametrize("v", [[-0.5], [0.0, 0.0]])
    def test_nonpositive_last_v_reads_positivity_lost(self, tmp_path, v):
        # no earlier sample is above zero, so only the sign of the last
        # v can read the run as a crossing
        t = np.arange(len(v), dtype=float)
        path = tmp_path / "neg.csv"
        write_trajectory_csv(Trajectory(
            0.0, t, v, np.zeros(t.size),
            Termination(TerminationKind.REACHED_SPAN_END, t[-1])), path)
        assert read_trajectory_csv(path).termination == Termination(
            TerminationKind.POSITIVITY_LOST, t[-1])

    def test_header_error_carries_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n1,2,3,4,5,6,7\n")
        with pytest.raises(ValueError, match="line 1"):
            read_trajectory_csv(path)

    def test_field_count_error_carries_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(f"{HEADER}\n0,1,1,0,1,0\n")
        with pytest.raises(ValueError,
                           match="line 2: expected 7 fields, got 6"):
            read_trajectory_csv(path)

    @pytest.mark.parametrize("row", ["0,1,1,0,1,0,0,0", "0,1,1,0,1,0,0,"])
    def test_long_row_error_carries_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"{HEADER}\n{row}\n")
        with pytest.raises(ValueError,
                           match="line 2: expected 7 fields, got 8"):
            read_trajectory_csv(path)

    def test_bad_float_error_carries_line(self, tmp_path):
        # the bad value sits in column u, which the reader parses but the
        # Trajectory drops; the blank line before it still counts
        path = tmp_path / "bad.csv"
        path.write_text(f"{HEADER}\n0,1,1,0,1,0,0\n\n0.5,1,x,0,1,0,0\n")
        with pytest.raises(ValueError, match="line 4: could not convert "
                           "string to float: 'x'"):
            read_trajectory_csv(path)

    def test_comment_line_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(f"{HEADER}\n0,1,1,0,1,0,0\n# note\n")
        with pytest.raises(ValueError, match="line 3: expected 7 fields"):
            read_trajectory_csv(path)

    def test_underscore_digits_rejected(self, tmp_path):
        # float() reads "1_0" as 10; the reader does not, and names the file
        path = tmp_path / "bad.csv"
        path.write_text(f"{HEADER}\n1_0,1,1,0,1,0,0\n")
        with pytest.raises(ValueError, match="bad.csv: .*'1_0'"):
            read_trajectory_csv(path)

    @pytest.mark.parametrize("body", [
        f"0,1,1,0,1,0,0\r\n{ROW_2}\r\n",
        f"\n0,1,1,0,1,0,0\n\n\n{ROW_2}\n\n\n",
        f"0,1,1,0,1,0,0\n{ROW_2}",
    ], ids=["crlf", "blank-lines", "no-final-newline"])
    def test_line_ends_and_blank_lines(self, tmp_path, body):
        path = tmp_path / "ok.csv"
        path.write_bytes((HEADER + "\n" + body).encode())
        loaded = read_trajectory_csv(path)
        assert loaded.t.tolist() == [0.0, 0.5]
        assert loaded.v.tolist() == [1.0, 2.0]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("body", ["", "\n", "\n\n"])
    def test_header_only_has_no_data_rows(self, tmp_path, body):
        path = tmp_path / "header.csv"
        path.write_text(HEADER + body)
        with pytest.raises(ValueError, match="no data rows"):
            read_trajectory_csv(path)

    def test_derived_columns_must_match(self, tmp_path):
        # a README-sweep cell CSV with r, u and du_dr all set to 7
        params = ProblemParams(n=5, p=1.9, q=1.95, l1=0.0, l2=-0.5)
        cell = sweep(RunConfig(params, output_dir=str(tmp_path))).cells[0]
        path = next(tmp_path.glob("*/" + cell["files"][0]))
        rows = path.read_text().splitlines()
        assert read_trajectory_csv(path).t.size == len(rows) - 1
        bad = tmp_path / "sevens.csv"
        bad.write_text("\n".join([rows[0]] + [
            ",".join(c[:1] + ["7", "7", "7"] + c[4:])
            for c in (row.split(",") for row in rows[1:])]) + "\n")
        with pytest.raises(ValueError, match=r"sevens.csv: line 2: r = 7 "
                           "does not match .* from t, v, dv_dt and "
                           "frame_alpha"):
            read_trajectory_csv(bad)

    @pytest.mark.parametrize("value,line", [
        ("2.0000000000001", None), ("2.00000000001", 4), ("nan", 4)])
    def test_derived_column_tolerance(self, tmp_path, value, line):
        # u of ROW_2 is 2: 5e-14 off passes, 5e-12 off or nan names the
        # line, counting the blank line before it
        path = tmp_path / "u.csv"
        path.write_text(f"{HEADER}\n0,1,1,0,1,0,0\n\n"
                        f"{ROW_2.replace(',2,0,2,', f',{value},0,2,')}\n")
        if line is None:
            assert read_trajectory_csv(path).v.tolist() == [1.0, 2.0]
        else:
            with pytest.raises(ValueError, match=f"line {line}: u = "):
                read_trajectory_csv(path)

    def test_inconsistent_frame_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(f"{HEADER}\n"
                        "0,1,1,0,1,0,0\n0.5,1,1,0,1,0,1\n")
        with pytest.raises(ValueError, match="frame_alpha"):
            read_trajectory_csv(path)

    @pytest.mark.parametrize("body,reason", [
        ("0,1,1,0,1,0,inf\n", "frame alpha must be finite"),
        ("0,1,1,0,1,0,0\n0,1,1,0,1,0,0\n",
         "sample grid must be strictly monotone in t"),
    ], ids=["infinite-frame", "repeated-t"])
    def test_trajectory_errors_name_the_file(self, tmp_path, body, reason):
        path = tmp_path / "bad.csv"
        path.write_text(f"{HEADER}\n{body}")
        with pytest.raises(ValueError, match=f"bad.csv: {reason}$"):
            read_trajectory_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_trajectory_csv(path)


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
           2.2250738585072014e-308, 1e-300, 1.7976931348623157e308,
           -1.7976931348623157e308, 3e307, math.inf, -math.inf, math.nan]


def floats64(allow_non_finite=True):
    pool = [x for x in SPECIAL if allow_non_finite or math.isfinite(x)]
    return st.one_of(st.sampled_from(pool),
                     st.floats(allow_nan=allow_non_finite,
                               allow_infinity=allow_non_finite))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(t=st.lists(floats64(False), min_size=1, max_size=12, unique=True),
       v=st.lists(floats64(), min_size=12, max_size=12),
       vdot=st.lists(floats64(), min_size=12, max_size=12),
       alpha=floats64(False), ascending=st.booleans())
def test_writer_bytes_are_fmt_float_rows(tmp_path_factory, t, v, vdot,
                                         alpha, ascending):
    t = sorted(set(t), reverse=not ascending)
    size = len(t)
    _assert_fmt_float_rows(tmp_path_factory.getbasetemp() / "property.csv",
                           alpha, t, v[:size], vdot[:size])


@pytest.mark.parametrize("size", [ROWS_PER_BLOCK, ROWS_PER_BLOCK + 1,
                                  3 * ROWS_PER_BLOCK + 7],
                         ids=["one-block", "one-row-more", "several-blocks"])
def test_writer_bytes_across_blocks(tmp_path, size):
    # the rows are rendered a block at a time; the last block of the
    # several holds every special value
    rng = np.random.default_rng(size)
    t = np.cumsum(rng.uniform(1e-3, 0.05, size)) - 20.0
    v = rng.standard_normal(size) * 10.0 ** rng.integers(-40, 40, size)
    vdot = -rng.standard_normal(size) * 10.0 ** rng.integers(-9, 9, size)
    if size > 2 * ROWS_PER_BLOCK:
        v[-len(SPECIAL):] = SPECIAL
        vdot[-len(SPECIAL):] = SPECIAL[::-1]
    _assert_fmt_float_rows(tmp_path / "blocks.csv", -0.5, t, v, vdot)


def _assert_fmt_float_rows(path, alpha, t, v, vdot):
    # the rule of the original per-value writer, kept as the oracle: each
    # row is ",".join(fmt_float(x)) of the sample's seven values
    size = len(t)
    with np.errstate(all="ignore"):
        traj = Trajectory(alpha, t, v, vdot,
                          Termination(TerminationKind.REACHED_SPAN_END,
                                      t[-1]))
        cols = (traj.t, traj.r, traj.u, traj.du_dr, traj.v, traj.vdot,
                np.full(size, alpha))
        write_trajectory_csv(traj, path)
        written = path.read_bytes()
        assert written.decode().split("\n") == [HEADER] + [
            ",".join(fmt_float(c[i]) for c in cols)
            for i in range(size)] + [""]
        loaded = read_trajectory_csv(path)
        for name in ("t", "v", "vdot"):
            np.testing.assert_array_equal(getattr(loaded, name),
                                          getattr(traj, name))
        write_trajectory_csv(loaded, path)
        assert path.read_bytes() == written


class TestEndWindow:
    @pytest.mark.parametrize("width,inf,ori", [
        (None, (6.0, 10.0), (-6.0, -2.0)),
        (1.5, (8.5, 10.0), (-6.0, -4.5)),
    ])
    @pytest.mark.parametrize("t", [np.linspace(-6.0, 10.0, 161),
                                   np.linspace(10.0, -6.0, 161)])
    def test_window_on_each_side(self, dc_a, t, width, inf, ori):
        # no width: the outer quarter of the span, whatever the direction
        traj = Trajectory(0.0, t, np.ones_like(t), np.zeros_like(t),
                          Termination(TerminationKind.REACHED_SPAN_END,
                                      float(t[-1])))
        assert end_window(traj, dc_a.end("infinity"), width) == inf
        assert end_window(traj, dc_a.end("origin"), width) == ori
