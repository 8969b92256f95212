import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from emdenlab import (
    Kind,
    SaturationError,
    Termination,
    TerminationKind,
    Trajectory,
    canonical_json,
    classify_end,
    fit_exponential_rate,
    fit_power_tail,
    oscillation_envelope,
    quadratic_extrema,
)
from emdenlab.classify import OSC_RELAMP, SLOPE_TOL, SPIRAL_CONTRACTION, \
    TOL_CLASS


def synthetic(t, v, vdot, alpha=0.0):
    """A run that reached the end of its span at t[-1]."""
    end = Termination(TerminationKind.REACHED_SPAN_END, float(t[-1]))
    return Trajectory(alpha, t, v, vdot, end)


class TestQuadraticExtrema:
    def test_sine_extrema(self):
        t = np.linspace(0.0, 10.0, 2001)
        times, values, kinds = quadratic_extrema(t, np.sin(t))
        expected = [math.pi / 2 + k * math.pi for k in range(3)]
        assert times.size == 3
        for te, tm in zip(expected, times):
            assert tm == pytest.approx(te, abs=1e-5)
        assert np.all(np.abs(np.abs(values) - 1.0) < 1e-6)
        assert list(kinds) == [1, -1, 1]

    def test_monotone_has_none(self):
        t = np.linspace(0.0, 1.0, 100)
        times, values, kinds = quadratic_extrema(t, t ** 2 + 1.0)
        assert times.size == 0

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(steps=st.lists(st.floats(1e-3, 2.0), min_size=0, max_size=40),
           levels=st.lists(st.integers(-3, 3) | st.floats(-1e3, 1e3),
                           min_size=40, max_size=40))
    # the end-plateau rule: a change then one repeat ends the series (an
    # extremum), a longer final plateau (none), an interior plateau (none)
    # before an end plateau, and an end plateau whose second difference
    # 2^-53 rounds to 0 (offset 0); and a series with no interior sample
    @example(steps=[1.0] * 3, levels=[0, 1, 2, 2] + [0] * 36)
    @example(steps=[1.0] * 5, levels=[0, 1, 2, 2, 2, 2] + [0] * 34)
    @example(steps=[0.5] * 4, levels=[0, 1, 1, 0, 0] + [0] * 35)
    @example(steps=[1.0, 1.0], levels=[1.0 - 2.0 ** -53, 1.0, 1.0] + [0] * 37)
    @example(steps=[1.0], levels=[0] * 40)
    def test_is_the_loop(self, steps, levels):
        # small integer levels make plateaus and zero second differences
        t = np.cumsum([0.0] + steps)
        y = np.array(levels[:t.size], dtype=float)
        ours = quadratic_extrema(t, y)
        ref = loop_quadratic_extrema(t, y)
        for x, r in zip(ours, ref):
            assert x.tobytes() == r.tobytes()
        assert ours[2].dtype == np.int64 and ours[0].dtype == float


def test_zero_second_difference_keeps_the_sample():
    # the denominator of the parabola's offset rounds to 0
    t = np.array([0.0, 1.0, 2.0])
    times, values, kinds = quadratic_extrema(t, np.array([1.0 - 2.0 ** -53,
                                                          1.0, 1.0]))
    assert (times.tolist(), values.tolist(), kinds.tolist()) \
        == ([1.0], [1.0], [1])


def loop_quadratic_extrema(t, y):
    """quadratic_extrema as a loop over the interior samples: the oracle of
    the array form."""
    times, values, kinds = [], [], []
    for i in range(1, t.size - 1):
        d0 = y[i] - y[i - 1]
        d1 = y[i + 1] - y[i]
        if d0 * d1 < 0.0 or (d0 != 0.0 and d1 == 0.0 and i + 1 == t.size - 1):
            denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
            off = 0.0 if denom == 0.0 else 0.5 * (y[i - 1] - y[i + 1]) / denom
            h = 0.5 * (t[i + 1] - t[i - 1])
            times.append(t[i] + off * h)
            values.append(y[i] - 0.25 * (y[i - 1] - y[i + 1]) * off)
            kinds.append(1 if d0 > 0.0 else -1)
    return np.array(times), np.array(values), np.array(kinds)


class TestFits:
    def test_power_tail_recovers_coefficient(self):
        t = np.linspace(1.0, 3.0, 200)
        u = 3.0 * np.exp(-2.0 * t)
        traj = synthetic(t, u, -2.0 * u)
        coef, resid = fit_power_tail(traj, 2.0, (1.0, 3.0))
        assert coef == pytest.approx(3.0, rel=1e-12)
        assert resid < 1e-12
        _, resid_bad = fit_power_tail(traj, 1.5, (1.0, 3.0))
        assert resid_bad > 0.1

    def test_power_tail_rejects_nonpositive(self):
        t = np.linspace(0.0, 1.0, 50)
        traj = synthetic(t, np.linspace(1.0, -0.1, 50), np.zeros(50))
        with pytest.raises(ValueError, match="u > 0"):
            fit_power_tail(traj, 1.0, (0.0, 1.0))

    def test_exponential_rate_direct(self):
        t = np.linspace(0.0, 10.0, 1001)
        lam = 2.0
        v = lam + 0.01 * np.exp(-0.5 * t)
        traj = synthetic(t, v, -0.005 * np.exp(-0.5 * t))
        rate = fit_exponential_rate(traj, lam, (0.0, 10.0))
        assert rate == pytest.approx(-0.5, abs=1e-6)

    def test_exponential_rate_envelope(self):
        # oscillatory approach: the fit must use |w| peaks, not samples
        t = np.linspace(0.0, 20.0, 4001)
        w = np.exp(-0.3 * t) * np.cos(2.0 * t)
        traj = synthetic(t, 2.0 + w, np.gradient(w, t))
        rate = fit_exponential_rate(traj, 2.0, (0.0, 20.0))
        assert rate == pytest.approx(-0.3, abs=0.02)

    def test_saturation_raises(self):
        t = np.linspace(0.0, 5.0, 500)
        rng = np.random.default_rng(7)
        v = 2.0 + 1e-13 * rng.standard_normal(t.size)
        traj = synthetic(t, v, np.zeros(t.size))
        with pytest.raises(SaturationError):
            fit_exponential_rate(traj, 2.0, (0.0, 5.0))

    def test_rate_without_clean_decay_raises(self):
        # one interior minimum of |v - lambda| and no envelope peaks
        t = np.linspace(0.0, 4.0, 401)
        w = 0.01 * ((t - 1.5) ** 2 + 0.1)
        traj = synthetic(t, 2.0 + w, np.gradient(w, t))
        with pytest.raises(SaturationError, match="0 points"):
            fit_exponential_rate(traj, 2.0, (0.0, 4.0))

    def test_orbit_rate_matches_forced_exponent(self, orbit_a, dc_a):
        rate = fit_exponential_rate(orbit_a.trajectory, dc_a.lambda1,
                                    (6.0, 10.0))
        assert rate == pytest.approx(dc_a.delta, abs=0.05)


class TestClassifyEnd:
    def test_orbit_infinity_slow_decay(self, orbit_a, dc_a):
        rep = classify_end(orbit_a.trajectory, dc_a, "infinity",
                           window=(10.0, 14.0))
        assert rep.kind == Kind.SLOW_DECAY_SINGULAR
        assert rep.fitted_constant == pytest.approx(dc_a.lambda1, rel=1e-3)

    def test_orbit_origin_slow_decay(self, orbit_a, dc_a):
        rep = classify_end(orbit_a.trajectory, dc_a, "origin",
                           window=(-34.0, -30.0))
        assert rep.kind == Kind.SLOW_DECAY_SINGULAR
        assert rep.fitted_constant == pytest.approx(dc_a.lambda2, rel=5e-4)

    def test_orbit_origin_rate_in_end_frame(self, orbit_a, dc_a):
        # the alpha1-frame orbit is read in the alpha2 frame at the
        # origin: the deviation from lambda2 decays at the real part
        # -c2/2 of the linearised spiral eigenvalue
        rate = orbit_a.report_origin.rate
        assert rate == pytest.approx(-dc_a.c2coef / 2.0, rel=1e-2)

    def test_orbit_seed_side_reads_the_forced_rate(self, orbit_a, dc_a,
                                                   orbit_c, dc_c):
        # the seed sits on lambda + K e^{rate t}, so the seed-side window
        # shows the forced rate: -0.61084 against delta = -0.61111 at
        # infinity for config A, 0.87472 against delta2 = 0.875 at the
        # origin for config C
        for rep, window, rate in (
                (orbit_a.report_infinity, (10.0, 14.0), dc_a.delta),
                (orbit_c.report_origin, (-10.0, -6.0), dc_c.delta2)):
            assert rep.window == window
            assert rep.kind == Kind.SLOW_DECAY_SINGULAR
            assert rep.rate == pytest.approx(rate, abs=5e-4)

    def test_bubble_fast_decay(self, lab):
        rep = lab.bubble["report"]
        assert rep.kind == Kind.FAST_DECAY_REGULAR
        assert rep.fitted_constant == pytest.approx(15.0 ** 0.75, rel=5e-4)
        assert rep.residual < 0.05

    def test_regular_at_origin(self, lab, dc_a):
        # a regular shot is flat in u near the origin
        shot = lab.shots_50[25]
        t0 = float(shot.trajectory.t[0])
        rep = classify_end(shot.trajectory, dc_a, "origin",
                           window=(t0, t0 + 2.0))
        assert rep.kind == Kind.REGULAR_AT_ORIGIN
        assert rep.fitted_constant == pytest.approx(shot.a, rel=1e-3)

    def test_crossing_reported_from_termination(self, lab):
        rep = lab.shots_50[0].report
        assert rep.kind == Kind.CROSSES_ZERO
        assert "t_cross" in rep.diagnostics

    def test_oscillatory_on_critical_run(self, lab, dc_b):
        assert lab.envelope_b["report"].kind == Kind.OSCILLATORY

    def test_window_needs_samples(self, orbit_a, dc_a):
        with pytest.raises(ValueError, match=">= 10"):
            classify_end(orbit_a.trajectory, dc_a, "infinity",
                         window=(13.95, 14.0))

    @pytest.mark.parametrize("factor,kind", [
        (1.0 + 0.9 * TOL_CLASS, Kind.SLOW_DECAY_SINGULAR),
        (1.0 - 0.9 * TOL_CLASS, Kind.SLOW_DECAY_SINGULAR),
        (1.0 + 1.1 * TOL_CLASS, Kind.UNDETERMINED),
        (1.0 - 1.1 * TOL_CLASS, Kind.UNDETERMINED),
    ])
    def test_flat_window_reads_lambda_within_tol_class(self, dc_a, factor,
                                                       kind):
        # a flat window is the singular kind only with its mean within
        # TOL_CLASS (relative) of lambda
        t = np.linspace(0.0, 4.0, 400)
        v = np.full(t.size, factor * dc_a.lambda1)
        traj = synthetic(t, v, np.zeros(t.size), alpha=dc_a.alpha1)
        assert classify_end(traj, dc_a, "infinity").kind == kind

    def test_undetermined_on_unstructured_data(self, dc_a):
        t = np.linspace(0.0, 4.0, 400)
        v = 1.0 + 0.5 * np.sin(3.0 * t) + 0.2 * t
        traj = synthetic(t, v, np.gradient(v, t), alpha=dc_a.alpha1)
        rep = classify_end(traj, dc_a, "infinity")
        assert rep.kind == Kind.UNDETERMINED
        assert "reason" in rep.diagnostics

    def test_spiral_away_from_lambda_undetermined(self, dc_a):
        # a contracting spiral is the singular kind only about lambda
        t = np.linspace(0.0, 8.0, 801)
        w = np.exp(-t) * np.cos(10.0 * t)
        dw = -np.exp(-t) * (np.cos(10.0 * t) + 10.0 * np.sin(10.0 * t))
        traj = synthetic(t, 0.5 * dc_a.lambda1 + w, dw, alpha=dc_a.alpha1)
        rep = classify_end(traj, dc_a, "infinity")
        assert rep.kind == Kind.UNDETERMINED
        assert rep.diagnostics["nsc"] >= 3
        assert rep.diagnostics["contraction"] > SPIRAL_CONTRACTION
        assert rep.diagnostics["reason"] \
            == "contracting spiral away from lambda"

    def test_fat_oscillation_wins_over_flat_at_lambda(self, dc_a):
        # three whole periods centred on the default window [6, 8]: flat
        # and centred on lambda, yet fat and not contracting
        t = np.linspace(0.0, 8.0, 801)
        phase = 6.0 * math.pi * (t - 7.0)
        v = dc_a.lambda1 * (1.0 + 0.2 * np.cos(phase))
        dv = -dc_a.lambda1 * 0.2 * 6.0 * math.pi * np.sin(phase)
        rep = classify_end(synthetic(t, v, dv, alpha=dc_a.alpha1), dc_a,
                           "infinity")
        diag = rep.diagnostics
        assert abs(diag["slope"]) < SLOPE_TOL
        assert abs(diag["mean"] - dc_a.lambda1) <= TOL_CLASS * dc_a.lambda1
        assert diag["contraction"] <= SPIRAL_CONTRACTION
        assert diag["relamp"] > OSC_RELAMP
        assert rep.kind == Kind.OSCILLATORY

    def test_power_fit_skipped_where_u_is_not_positive(self, dc_a):
        # a run that reached its span end below zero: no power fit, and
        # no rule reads the window
        t = np.linspace(0.0, 4.0, 400)
        traj = synthetic(t, 1.0 - 0.5 * t, np.full(t.size, -0.5),
                         alpha=dc_a.alpha1)
        rep = classify_end(traj, dc_a, "infinity")
        assert rep.kind == Kind.UNDETERMINED
        assert rep.diagnostics["power_residual"] is None
        assert rep.diagnostics["reason"] == "no decision rule matched"

    def test_bad_end_rejected(self, orbit_a, dc_a):
        with pytest.raises(ValueError, match="end"):
            classify_end(orbit_a.trajectory, dc_a, "nowhere")

    def test_report_serializes(self, orbit_a, dc_a):
        rep = classify_end(orbit_a.trajectory, dc_a, "infinity",
                           window=(10.0, 14.0))
        text = canonical_json(rep.to_dict())
        assert '"kind": "slow_decay_singular"' in text


class TestEnvelope:
    def test_critical_q_envelope_values(self, lab, dc_b):
        env = lab.envelope_b["envelope"]
        assert env.n_extrema >= 6
        assert env.mu1 == pytest.approx(0.8359, abs=2e-3)
        assert env.mu2 == pytest.approx(3.2019, abs=2e-3)
        assert env.mu1 < dc_b.lambda2 < env.mu2
        assert env.spread_min < 1e-4
        assert env.spread_max < 1e-4
        assert env.b_match_rel < 2e-4
        assert env.b_mu1 < 0.0

    def test_extrema_interleave(self, lab):
        env = lab.envelope_b["envelope"]
        merged = np.sort(np.concatenate([env.times_min, env.times_max]))
        # reconstruct kinds by membership; adjacent extrema must alternate
        is_min = np.isin(merged, env.times_min)
        assert np.all(is_min[1:] != is_min[:-1])

    def test_too_few_extrema_raises(self, dc_b):
        from emdenlab import State, integrate
        traj = integrate(State(-2.0, dc_b.lambda2 + 0.5, 0.0),
                         dc_b.end("origin").equation, -6.0)
        with pytest.raises(ValueError, match="extrema"):
            oscillation_envelope(traj, dc_b, "origin")

    def test_envelope_serializes(self, lab):
        env = lab.envelope_b["envelope"]
        d = env.to_dict()
        assert d["n_extrema"] == env.n_extrema
        canonical_json(d)
