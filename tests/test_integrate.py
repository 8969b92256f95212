import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emdenlab import (
    RAW,
    End,
    Frame,
    IntegratorConfig,
    ProblemParams,
    RunConfig,
    SolverStats,
    State,
    Termination,
    TerminationKind,
    Trajectory,
    csv_round_trip,
    derive_constants,
    fmt_float,
    forced_expansion,
    integrate,
    integrate_many,
    log_frame_rhs,
    read_trajectory_csv,
    reframe,
    series_radius,
    sweep,
    write_trajectory_csv,
)
from emdenlab.integrate import CSV_HEADER as HEADER, RTOL_MIN

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
        start = State(2.0, 1.0001 * dc_a.lambda1, 0.0)
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
        start = forced_expansion(config_a, dc_a.end("infinity")).start(6.0)
        back = integrate(start, Frame(dc_a.alpha1), 0.0, config_a)
        fwd = integrate(back.state_at(-1), Frame(dc_a.alpha1), 6.0, config_a)
        assert abs(fwd.v[-1] - start.v) < 1e-8
        assert abs(fwd.vdot[-1] - start.vdot) < 1e-8

    def test_positivity_event_is_located(self, config_a, dc_a):
        start = forced_expansion(config_a, 1.0).start(
            math.log(series_radius(1.0, config_a)), Frame(dc_a.alpha1))
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


def old_series_start(a, r0, params, frame):
    """The regular start as the second-order series wrote it before it
    became the raw-frame forced expansion: the oracle for that rule."""
    u, up = a, 0.0
    for exp_, l, k in params.active_terms():
        u -= k * a ** exp_ * r0 ** (2.0 + l) / ((2.0 + l) * (params.n + l))
        up -= k * a ** exp_ * r0 ** (1.0 + l) / (params.n + l)
    t0 = math.log(r0)
    v = math.exp(frame.alpha * t0) * u
    return State(t0, v,
                 frame.alpha * v + math.exp((frame.alpha + 1.0) * t0) * up)


class TestSeries:
    def test_gate_rejects_large_radius(self, config_a):
        # at a = 50 the q-term correction at r0 = 1e-4 exceeds 1e-6 a
        with pytest.raises(ValueError, match="too shallow.* >= 1e-06 x "
                           "amplitude"):
            forced_expansion(config_a, 50.0).start(math.log(1e-4))

    def test_series_radius_respects_gate(self, config_a):
        for a in (0.01, 1.0, 50.0, 4000.0):
            r0 = series_radius(a, config_a)
            state = forced_expansion(config_a, a).start(math.log(r0))
            assert state.v == pytest.approx(a, rel=1e-5)

    def test_start_radius_insensitivity(self, config_a, dc_a):
        # starting the same shot at r0 and r0/2 must agree downstream
        frame = Frame(dc_a.alpha1)
        a = 1.3
        r0 = series_radius(a, config_a)
        ends = []
        for r in (r0, r0 / 2.0):
            start = forced_expansion(config_a, a).start(math.log(r), frame)
            ends.append(integrate(start, frame, 0.0, config_a))
        u1, u2 = ends[0].u[-1], ends[1].u[-1]
        d1, d2 = ends[0].du_dr[-1], ends[1].du_dr[-1]
        assert abs(u1 - u2) / abs(u1) < 1e-9
        assert abs(d1 - d2) / abs(d1) < 1e-5

    def test_rejects_nonpositive_inputs(self, config_a):
        with pytest.raises(ValueError, match="amplitude must be positive"):
            forced_expansion(config_a, -1.0)
        # r0 = 0 is t = -inf
        with pytest.raises(ValueError, match="must be finite"):
            forced_expansion(config_a, 1.0).start(-math.inf)

    def test_regular_k_is_the_series_correction(self, config_a, dc_a):
        # K = -a^P / ((2+l)(n+l)) at rate 2 + l, one per term, to 1 ulp;
        # the start reframed to alpha1 is the old series start to 2 ulp
        frame = Frame(dc_a.alpha1)
        n = config_a.n
        for a in np.logspace(-2.0, 2.0, 41):
            exp = forced_expansion(config_a, a)
            assert (exp.alpha, exp.amp) == (0.0, a)
            assert len(exp.terms) == 2
            for (k, e), (exp_, l, _) in zip(exp.terms,
                                            config_a.active_terms()):
                old = -a ** exp_ / ((2.0 + l) * (n + l))
                assert e == 2.0 + l
                assert abs(k - old) <= math.ulp(old)
            r0 = series_radius(a, config_a)
            new, old = exp.start(math.log(r0), frame), \
                old_series_start(a, r0, config_a, frame)
            assert new.t == old.t
            assert abs(new.v - old.v) <= 2 * math.ulp(old.v)
            assert abs(new.vdot - old.vdot) <= 2 * math.ulp(old.vdot)


class TestSeeds:
    def test_seed_values(self, config_a, dc_a, config_c, dc_c):
        # the closed form K = -lambda^q / (delta^2 + damping delta + L)
        # of the forced tail lambda1 + K e^{delta t} (README criterion 6)
        for params, dc, name, k_ref, t in (
                (config_a, dc_a, "infinity", -1.1639, 14.0),
                (config_c, dc_c, "origin", -0.3527, -10.0)):
            end = dc.end(name)
            exp = forced_expansion(params, end)
            (k, e), = exp.terms
            assert k == pytest.approx(k_ref, abs=5e-5)
            assert e == end.rate
            lin = end.alpha * (params.n - 2.0 - end.alpha)
            assert k * (e * e + end.damping * e
                        + lin * (end.auto_exp - 1.0)) \
                == pytest.approx(-end.lam ** end.force_exp, rel=1e-14)
            s = exp.start(t)
            w = k * math.exp(e * t)
            assert (s.t, s.v, s.vdot) == (t, end.lam + w, e * w)

    def test_seed_frame_mapping(self, dc_a):
        # seeds live in Frame(dc.end(name).alpha)
        assert dc_a.end("infinity").alpha == dc_a.alpha1
        assert dc_a.end("origin").alpha == dc_a.alpha2

    def test_zero_eps_seeds_the_equilibrium(self):
        # q-term off: infinity has no forced term, so the seed offset
        # eps = K e^{rate t} is zero and lambda1 is exact
        dc = derive_constants(SINGLE)
        exp = forced_expansion(SINGLE, dc.end("infinity"))
        assert exp.terms == ()
        s = exp.start(14.0)
        assert (s.v, s.vdot) == (dc.lambda1, 0.0)
        assert math.copysign(1.0, s.vdot) == 1.0

    def test_eps_bound(self, config_a, dc_a):
        # the seed offset eps = K e^{rate t_seed} must stay below 0.1
        # lambda: |K| = 1.16 at t_seed = 0 is above 0.1 lambda1 = 0.18
        exp = forced_expansion(config_a, dc_a.end("infinity"))
        with pytest.raises(ValueError, match="too shallow.* >= 0.1 x "
                           "amplitude"):
            exp.start(0.0)
        exp.start(4.0)

    def test_undefined_lambda_rejected(self):
        params = ProblemParams(n=3, p=1.2, q=5.0, l1=0.0, l2=-0.5)
        dc = derive_constants(params)
        with pytest.raises(ValueError, match="no singular equilibrium"):
            forced_expansion(params, dc.end("infinity"))

    def test_switched_off_autonomous_term_rejected(self):
        # p-term off: lambda1 is no equilibrium of the alpha1 frame
        params = ProblemParams(n=5, p=1.9, q=1.95, l2=-0.5, k1=0.0)
        dc = derive_constants(params)
        with pytest.raises(ValueError, match="no singular equilibrium"):
            forced_expansion(params, dc.end("infinity"))

    def test_resonance_rejected(self, config_a):
        # alpha 1, n 5, P 2: L = 2; rate 1 and damping -3 make
        # 1 - 3 + 2 = 0, the forcing rate a root of the linearisation
        end = End("infinity", 1, 3.0, 1.0, 2.0, 1.0, 2.0, 1.0, -3.0, 3.0,
                  1.0, "b1")
        with pytest.raises(ValueError, match="resonance"):
            forced_expansion(config_a, end)


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


# t = 0.5, v = 2, dv_dt = 0 in the raw frame: r = e^0.5, u = 2, du_dr = 0
ROW_2 = "0.5,1.6487212707001282,2,0,2,0,0"


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
        start = forced_expansion(config_a, 1.0).start(
            math.log(series_radius(1.0, config_a)), Frame(dc_a.alpha1))
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
    # the rule of the original per-value writer, kept as the oracle: each
    # row is ",".join(fmt_float(x)) of the sample's seven values
    t = sorted(set(t), reverse=not ascending)
    size = len(t)
    path = tmp_path_factory.getbasetemp() / "property.csv"
    with np.errstate(all="ignore"):
        traj = Trajectory(Frame(alpha), t, v[:size], vdot[:size], None)
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
        traj = Trajectory(Frame(0.0), t, np.ones_like(t), np.zeros_like(t),
                          None)
        assert traj.end_window(dc_a.end("infinity"), width) == inf
        assert traj.end_window(dc_a.end("origin"), width) == ori
