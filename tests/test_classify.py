import math

import numpy as np
import pytest

from emdenlab import (
    Frame,
    Kind,
    SaturationError,
    Trajectory,
    canonical_json,
    classify_end,
    fit_exponential_rate,
    fit_power_tail,
    oscillation_envelope,
    quadratic_extrema,
)


def synthetic(t, v, vdot, alpha=0.0):
    return Trajectory(Frame(alpha), t, v, vdot, None)


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

    def test_undetermined_on_unstructured_data(self, dc_a):
        t = np.linspace(0.0, 4.0, 400)
        v = 1.0 + 0.5 * np.sin(3.0 * t) + 0.2 * t
        traj = synthetic(t, v, np.gradient(v, t), alpha=dc_a.alpha1)
        rep = classify_end(traj, dc_a, "infinity")
        assert rep.kind == Kind.UNDETERMINED
        assert "reason" in rep.diagnostics

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
        assert env.potential == "b"
        assert env.b_match_rel < 2e-4
        assert env.b_mu1 < 0.0

    def test_extrema_interleave(self, lab):
        env = lab.envelope_b["envelope"]
        merged = np.sort(np.concatenate([env.times_min, env.times_max]))
        # reconstruct kinds by membership; adjacent extrema must alternate
        is_min = np.isin(merged, env.times_min)
        assert np.all(is_min[1:] != is_min[:-1])

    def test_too_few_extrema_raises(self, config_b, dc_b):
        from emdenlab import State, integrate
        traj = integrate(State(-2.0, dc_b.lambda2 + 0.5, 0.0),
                         Frame(dc_b.alpha2), -6.0, config_b)
        with pytest.raises(ValueError, match="extrema"):
            oscillation_envelope(traj, dc_b, "origin")

    def test_envelope_serializes(self, lab):
        env = lab.envelope_b["envelope"]
        d = env.to_dict()
        assert d["n_extrema"] == env.n_extrema
        canonical_json(d)
