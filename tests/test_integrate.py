import math

import numpy as np
import pytest

from emdenlab import (
    RAW,
    Frame,
    IntegratorConfig,
    ProblemParams,
    SolverStats,
    State,
    Termination,
    TerminationKind,
    Trajectory,
    csv_round_trip,
    derive_constants,
    integrate,
    integrate_many,
    log_frame_rhs,
    read_trajectory_csv,
    reframe,
    regular_series_start,
    series_radius,
    singular_seed_start,
    write_trajectory_csv,
)
from emdenlab.integrate import RTOL_MIN

SINGLE = ProblemParams(n=5, p=3.0, q=2.0, k2=0.0)


class TestIntegrateCore:
    def test_exact_singular_profile_is_preserved(self):
        # u = sqrt(2)/r solves the single-term equation; in the alpha1
        # frame it is the constant v = sqrt(2)
        dc = derive_constants(SINGLE)
        traj = integrate(State(0.0, math.sqrt(2.0), 0.0), Frame(dc.alpha1),
                         math.log(10.0), SINGLE)
        exact = math.sqrt(2.0) * np.exp(-traj.t)
        assert traj.termination.kind == TerminationKind.REACHED_SPAN_END
        assert np.max(np.abs(traj.u - exact) / exact) < 1e-10

    def test_sampling_grid_stride(self, dc_a, config_a):
        start = singular_seed_start(dc_a.end("infinity"),
                                    1e-4 * dc_a.lambda1, 2.0)
        traj = integrate(start, Frame(dc_a.alpha1), 0.0, config_a)
        steps = np.diff(traj.t)
        assert np.all(np.abs(steps[:-1] + 0.01) < 1e-12)
        assert abs(traj.t[0] - 2.0) == 0.0
        assert traj.t[-1] == 0.0

    def test_zero_span_returns_single_sample(self, config_a):
        traj = integrate(State(1.0, 2.0, 0.5), Frame(0.0), 1.0, config_a)
        assert traj.t.size == 1
        assert traj.termination.kind == TerminationKind.REACHED_SPAN_END

    def test_direction_symmetry(self, config_a, dc_a):
        # integrate backward over [0, 6], then forward from the endpoint;
        # the far endpoint must reproduce the seed within solver budget
        start = singular_seed_start(dc_a.end("infinity"),
                                    1e-3 * dc_a.lambda1, 6.0)
        back = integrate(start, Frame(dc_a.alpha1), 0.0, config_a)
        fwd = integrate(back.state_at(-1), Frame(dc_a.alpha1), 6.0, config_a)
        assert abs(fwd.v[-1] - start.v) < 1e-8
        assert abs(fwd.vdot[-1] - start.vdot) < 1e-8

    def test_positivity_event_is_located(self, config_a, dc_a):
        r0 = series_radius(1.0, config_a)
        start = regular_series_start(1.0, r0, config_a, Frame(dc_a.alpha1))
        traj = integrate(start, Frame(dc_a.alpha1), 12.0, config_a)
        assert traj.termination.kind == TerminationKind.POSITIVITY_LOST
        assert traj.t[-1] == pytest.approx(traj.termination.t, abs=1e-12)
        # the event sample itself sits on the zero crossing
        assert abs(traj.v[-1]) < 1e-11

    def test_amplitude_cap_terminates(self, config_b, dc_b):
        # the critical-q oscillation rises above 3.2; a cap at 3.0 sits
        # between the seed (2.75) and the first envelope maximum
        cfg = IntegratorConfig(amplitude_cap=3.0)
        traj = integrate(State(-2.0, dc_b.lambda2 + 0.5, 0.0),
                         Frame(dc_b.alpha2), -30.0, config_b, cfg)
        assert traj.termination.kind == TerminationKind.AMPLITUDE_CAP
        assert abs(traj.v[-1]) == pytest.approx(3.0, abs=1e-9)

    def test_stats_count_the_work(self, config_a, dc_a, tmp_path):
        # 12 stages per attempt and 3 dense-output stages per accepted
        # step, after the 2 evaluations of the initial step
        traj = integrate(State(0.0, 1.0, 0.0), Frame(dc_a.alpha1), 3.0,
                         config_a, IntegratorConfig(max_step=0.5))
        stats = traj.stats
        assert stats.steps > 0 and stats.rejected > 0
        assert stats.nfev == 2 + 15 * stats.steps + 12 * stats.rejected
        assert reframe(traj, RAW).stats == traj.stats
        assert traj.window((0.0, 1.0), 2).stats == traj.stats
        assert integrate(State(1.0, 1.0, 0.0), RAW, 1.0,
                         config_a).stats == SolverStats(0, 0, 0)
        write_trajectory_csv(traj, tmp_path / "t.csv")
        assert read_trajectory_csv(tmp_path / "t.csv").stats is None

    def test_underflow_at_the_first_step_is_reported(self, config_a, dc_a):
        # 10 ulp of t = 1e15 is 1.25, above max_step: no step is possible
        traj = integrate(State(1e15, 1.0, 0.0), Frame(dc_a.alpha1),
                         1e15 + 1.0, config_a)
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
            integrate(start, Frame(dc.alpha1), t_target, SINGLE)

    def test_rejects_nonpositive_start(self, config_a):
        with pytest.raises(ValueError):
            integrate(State(0.0, 0.0, 1.0), Frame(0.0), 1.0, config_a)

    def test_nonfinite_frame_rejected(self):
        with pytest.raises(ValueError):
            Frame(math.inf)


class TestConfigValidation:
    def test_stride_coarser_than_the_step_cap(self, config_a, dc_a):
        # samples are read off the step interpolants and events are
        # located on them, so a stride of 100 capped steps samples the
        # same run as the default stride, in both cores
        start = State(0.0, 1.0, 0.0)
        coarse_cfg = IntegratorConfig(max_step=0.01, dense_output_stride=1.0)
        fine_cfg = IntegratorConfig(max_step=0.01)
        for run in (integrate,
                    lambda s, *rest: integrate_many([s], *rest)[0]):
            fine = run(start, Frame(dc_a.alpha1), 6.0, config_a, fine_cfg)
            coarse = run(start, Frame(dc_a.alpha1), 6.0, config_a,
                         coarse_cfg)
            assert coarse.stats == fine.stats
            assert coarse.termination == fine.termination
            assert coarse.t[:-1] == pytest.approx(fine.t[:-1:100],
                                                  abs=1e-13)
            assert coarse.v[:-1] == pytest.approx(fine.v[:-1:100],
                                                  abs=1e-12)
            assert coarse.v[-1] == fine.v[-1]

    @pytest.mark.parametrize("kwargs", [
        dict(rtol=0.0), dict(atol=-1e-12), dict(max_step=0.0),
        dict(amplitude_cap=-1.0),
        # below 100 eps the error test asks more than doubles carry
        dict(rtol=0.5 * RTOL_MIN),
    ])
    def test_positivity_of_knobs(self, kwargs):
        with pytest.raises(ValueError):
            IntegratorConfig(**kwargs)

    def test_trajectory_needs_monotone_grid(self):
        with pytest.raises(ValueError):
            Trajectory(Frame(0.0), np.array([0.0, 1.0, 1.0]),
                       np.ones(3), np.zeros(3), None)


class TestSeries:
    def test_gate_rejects_large_radius(self, config_a):
        # at a = 50 the q-term correction at r0 = 1e-4 exceeds 1e-6 a
        with pytest.raises(ValueError, match="series accuracy"):
            regular_series_start(50.0, 1e-4, config_a)

    def test_series_radius_respects_gate(self, config_a):
        for a in (0.01, 1.0, 50.0, 4000.0):
            r0 = series_radius(a, config_a)
            state = regular_series_start(a, r0, config_a)
            assert state.v == pytest.approx(a, rel=1e-5)

    def test_start_radius_insensitivity(self, config_a, dc_a):
        # starting the same shot at r0 and r0/2 must agree downstream
        frame = Frame(dc_a.alpha1)
        a = 1.3
        r0 = series_radius(a, config_a)
        ends = []
        for r in (r0, r0 / 2.0):
            start = regular_series_start(a, r, config_a, frame)
            ends.append(integrate(start, frame, 0.0, config_a))
        u1, u2 = ends[0].u[-1], ends[1].u[-1]
        d1, d2 = ends[0].du_dr[-1], ends[1].du_dr[-1]
        assert abs(u1 - u2) / abs(u1) < 1e-9
        assert abs(d1 - d2) / abs(d1) < 1e-5

    def test_rejects_nonpositive_inputs(self, config_a):
        with pytest.raises(ValueError):
            regular_series_start(-1.0, 1e-5, config_a)
        with pytest.raises(ValueError):
            regular_series_start(1.0, 0.0, config_a)


class TestSeeds:
    def test_seed_values(self, dc_a):
        s = singular_seed_start(dc_a.end("infinity"), 1e-3, 14.0)
        assert s.v == dc_a.lambda1 + 1e-3
        assert s.vdot == pytest.approx(1e-3 * dc_a.delta, rel=1e-15)
        s2 = singular_seed_start(dc_a.end("origin"), -1e-3, -10.0)
        assert s2.v == dc_a.lambda2 - 1e-3
        assert s2.vdot == pytest.approx(-1e-3 * dc_a.delta2, rel=1e-15)

    def test_seed_frame_mapping(self, dc_a):
        # seeds live in Frame(dc.end(name).alpha)
        assert dc_a.end("infinity").alpha == dc_a.alpha1
        assert dc_a.end("origin").alpha == dc_a.alpha2

    def test_zero_eps_seeds_the_equilibrium(self, dc_a):
        s = singular_seed_start(dc_a.end("infinity"), 0.0, 14.0)
        assert (s.v, s.vdot) == (dc_a.lambda1, 0.0)
        assert math.copysign(1.0, s.vdot) == 1.0

    def test_eps_bound(self, dc_a):
        with pytest.raises(ValueError, match="0.1 lambda"):
            singular_seed_start(dc_a.end("infinity"), 0.5 * dc_a.lambda1,
                                0.0)

    def test_undefined_lambda_rejected(self):
        params = ProblemParams(n=3, p=1.2, q=5.0, l1=0.0, l2=-0.5)
        dc = derive_constants(params)
        with pytest.raises(ValueError, match="undefined"):
            singular_seed_start(dc.end("infinity"), 1e-4, 0.0)


class TestReframe:
    def test_round_trip_and_invariance(self, orbit_a, dc_a):
        traj = orbit_a.trajectory
        raw = reframe(traj, Frame(0.0))
        # u is frame-invariant
        assert np.max(np.abs(raw.u - traj.u)
                      / np.maximum(np.abs(traj.u), 1e-300)) < 1e-12
        back = reframe(raw, Frame(dc_a.alpha1))
        assert np.max(np.abs(back.v - traj.v)) < 1e-12 * np.max(traj.v)
        assert np.max(np.abs(back.vdot - traj.vdot)) < 1e-10

    def test_rhs_consistency_across_frames(self, config_a, dc_a):
        # the same radial point expressed in two frames must produce
        # consistent second derivatives: check via u'' continuation
        t0, u0, up0 = 0.5, 0.8, -0.3
        for alpha in (0.0, dc_a.alpha1, dc_a.alpha2):
            v = math.exp(alpha * t0) * u0
            vdot = alpha * v + math.exp((alpha + 1.0) * t0) * up0
            vd, vdd = log_frame_rhs(config_a, alpha)(t0, (v, vdot))
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
        rhs = log_frame_rhs(config_a, 0.0)
        assert rhs(0.0, (-0.1, 0.2)) == (0.2, -3.0 * 0.2)

    def test_rhs_rejects_nonfinite_state(self, config_a):
        with pytest.raises(RuntimeError, match="non-finite"):
            log_frame_rhs(config_a, 0.0)(0.0, (1.0, math.inf))


class TestCsv:
    def test_round_trip_bit_exact(self, orbit_a, tmp_path):
        assert csv_round_trip(orbit_a.trajectory, tmp_path)

    def test_loaded_samples_match(self, orbit_a, tmp_path):
        path = tmp_path / "t.csv"
        write_trajectory_csv(orbit_a.trajectory, path)
        loaded = read_trajectory_csv(path)
        assert loaded.frame.alpha == orbit_a.trajectory.frame.alpha
        assert np.array_equal(loaded.t, orbit_a.trajectory.t)
        assert np.array_equal(loaded.v, orbit_a.trajectory.v)
        assert np.array_equal(loaded.vdot, orbit_a.trajectory.vdot)
        term = loaded.effective_termination()
        assert term.kind == TerminationKind.REACHED_SPAN_END

    def test_crossing_termination_inferred(self, config_a, dc_a, tmp_path):
        r0 = series_radius(1.0, config_a)
        start = regular_series_start(1.0, r0, config_a, Frame(dc_a.alpha1))
        traj = integrate(start, Frame(dc_a.alpha1), 12.0, config_a)
        path = tmp_path / "cross.csv"
        write_trajectory_csv(traj, path)
        loaded = read_trajectory_csv(path)
        assert loaded.effective_termination().kind \
            == TerminationKind.POSITIVITY_LOST

    def test_header_error_carries_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n1,2,3,4,5,6,7\n")
        with pytest.raises(ValueError, match="line 1"):
            read_trajectory_csv(path)

    def test_field_count_error_carries_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,r,u,du_dr,v,dv_dt,frame_alpha\n0,1,1,0,1,0\n")
        with pytest.raises(ValueError, match="line 2"):
            read_trajectory_csv(path)

    def test_bad_float_error_carries_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,r,u,du_dr,v,dv_dt,frame_alpha\n"
                        "0,1,1,0,1,0,0\n0,1,x,0,1,0,0\n")
        with pytest.raises(ValueError, match="line 3"):
            read_trajectory_csv(path)

    def test_inconsistent_frame_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,r,u,du_dr,v,dv_dt,frame_alpha\n"
                        "0,1,1,0,1,0,0\n0.5,1,1,0,1,0,1\n")
        with pytest.raises(ValueError, match="frame_alpha"):
            read_trajectory_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_trajectory_csv(path)


class TestEndWindow:
    @pytest.mark.parametrize("width,inf,ori", [
        (None, (6.0, 10.0), (-6.0, -2.0)),
        (1.5, (8.5, 10.0), (-6.0, -4.5)),
    ])
    @pytest.mark.parametrize("t", [np.linspace(-6.0, 10.0, 161),
                                   np.linspace(10.0, -6.0, 161)])
    def test_window_on_each_side(self, dc_a, t, width, inf, ori):
        # no width: the outer quarter of the span, whatever the direction
        traj = Trajectory(Frame(0.0), t, np.ones_like(t), np.zeros_like(t),
                          None)
        assert traj.end_window(dc_a.end("infinity"), width) == inf
        assert traj.end_window(dc_a.end("origin"), width) == ori
