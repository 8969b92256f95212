import math

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson as scipy_cumulative_simpson

from emdenlab import (
    Frame,
    IntegratorConfig,
    ProblemParams,
    State,
    apriori_bound_report,
    derive_constants,
    energy_trace,
    forced_expansion,
    integrate,
    reframe,
    well_potential,
)
from emdenlab.energy import cumulative_simpson

SINGLE = ProblemParams(n=5, p=3.0, q=2.0, k2=0.0)


@pytest.mark.parametrize("size", [2, 3, 4, 5, 101, 1000])
def test_cumulative_simpson_is_scipys(size):
    rng = np.random.default_rng(size)
    for _ in range(20):
        x = np.cumsum(rng.uniform(0.01, 1.0, size)) - 3.0
        y = rng.normal(size=size)
        ours = cumulative_simpson(y, x)
        ref = scipy_cumulative_simpson(y, x=x, initial=0.0)
        assert ours.tobytes() == ref.tobytes()


class TestPotentials:
    def test_b_exact_values(self, dc_b):
        # q = 2, lambda2 = 9/4: b(v) = v^3/3 - (9/4) v^2/2
        b = dc_b.end("origin")
        assert b.well == "b"
        assert well_potential(2.25, b) == pytest.approx(-1.8984375,
                                                        rel=1e-15)
        assert well_potential(0.0, b) == 0.0
        # second positive zero: lambda2 ((q+1)/2)^{1/(q-1)} = 3.375
        assert well_potential(3.375, b) == pytest.approx(0.0, abs=1e-12)

    def test_b1_critical_point_is_minimum(self, dc_a):
        b1 = dc_a.end("infinity")
        assert b1.well == "b1"
        lam = dc_a.lambda1
        assert well_potential(lam, b1) < 0.0
        for off in (0.9, 1.1):
            assert well_potential(lam * off, b1) > well_potential(lam, b1)

    def test_vectorized_and_negative_clamp(self, dc_a):
        vals = well_potential(np.array([-1.0, 0.0, 1.0]),
                              dc_a.end("infinity"))
        assert vals.shape == (3,)
        # the power term is clamped to the positive cone, the quadratic
        # well is even
        assert vals[0] == pytest.approx(
            -dc_a.lambda1 ** (dc_a.params.p - 1.0) / 2.0, rel=1e-14)

    def test_undefined_amplitude_rejected(self):
        params = ProblemParams(n=3, p=1.2, q=5.0, l1=0.0, l2=-0.5)
        dc = derive_constants(params)
        with pytest.raises(ValueError):
            well_potential(1.0, dc.end("infinity"))


class TestEnergyTrace:
    def test_single_term_equilibrium_conserves(self):
        # no forcing term: E is a strict invariant and forcing_work = 0
        dc = derive_constants(SINGLE)
        traj = integrate(State(0.0, math.sqrt(2.0), 0.0), Frame(dc.alpha1),
                         5.0, SINGLE)
        tr = energy_trace(traj, dc)
        assert np.all(tr.forcing_work == 0.0)
        assert tr.balance_residual() < 1e-12
        assert np.max(np.abs(tr.energy - tr.energy[0])) \
            <= 1e-10 * abs(tr.energy[0])

    def test_balance_on_forced_run(self, config_a, dc_a):
        traj = integrate(State(0.0, 1.2 * dc_a.lambda1, 0.0),
                         Frame(dc_a.alpha1), 8.0, config_a,
                         IntegratorConfig(dense_output_stride=0.0025))
        res = energy_trace(traj, dc_a).balance_residual()
        assert res < 1e-6

    def test_backward_trajectory_sorted_ascending(self, orbit_a, dc_a):
        tr = energy_trace(orbit_a.trajectory, dc_a)
        assert np.all(np.diff(tr.t) > 0.0)
        assert tr.balance_residual() < 1e-5

    def test_alpha2_frame_uses_swapped_roles(self, config_b, dc_b):
        traj = integrate(State(-2.0, dc_b.lambda2 + 0.5, 0.0),
                         Frame(dc_b.alpha2), -20.0, config_b)
        tr = energy_trace(traj, dc_b)
        # forcing (the p-term, exponent delta2) does real work here
        assert np.max(np.abs(tr.forcing_work)) > 0.0
        assert tr.balance_residual() < 1e-6

    def test_wrong_frame_rejected(self, orbit_a, dc_a):
        raw = reframe(orbit_a.trajectory, Frame(0.0))
        with pytest.raises(ValueError, match="frame"):
            energy_trace(raw, dc_a)


class TestBoundReport:
    def test_orbit_tail_fields(self, orbit_a, dc_a):
        rep = apriori_bound_report(orbit_a.trajectory, dc_a, (10.0, 14.0))
        assert rep.applicable
        assert rep.sup_v == pytest.approx(dc_a.lambda1, rel=1e-3)
        # the forced-mode slope |delta K| e^{delta t} at the window's
        # inner edge t = 10, with the closed-form K of the seed (1.578e-3
        # predicted, 1.574e-3 read)
        (k, delta), = forced_expansion(dc_a.params,
                                       dc_a.end("infinity")).terms
        assert rep.sup_abs_vdot == pytest.approx(
            abs(delta * k) * math.exp(10.0 * delta), rel=5e-3)
        assert rep.integral_vdot_sq > 0.0
        assert rep.mass_monotone_ok
        assert rep.flux_monotone_ok

    def test_dissipation_decreases_toward_infinity(self, orbit_a, dc_a):
        vals = [apriori_bound_report(orbit_a.trajectory, dc_a,
                                     (T, T + 2.0)).integral_vdot_sq
                for T in (8.0, 10.0, 12.0)]
        assert vals[0] > vals[1] > vals[2]

    def test_window_validation(self, orbit_a, dc_a):
        with pytest.raises(ValueError, match="window"):
            apriori_bound_report(orbit_a.trajectory, dc_a, (13.0, 99.0))

    def test_crossing_flagged_not_applicable(self, lab, dc_a):
        shot = lab.shots_50[-1]
        rep = apriori_bound_report(shot.trajectory, dc_a)
        assert not rep.applicable
        assert "positivity" in rep.reason

    def test_flux_nonincreasing_on_positive_solutions(self, lab):
        # r^{n-1} u' of the ground state over its whole sampled span
        bub = lab.bubble
        traj = bub["traj"]
        rep = apriori_bound_report(traj, bub["dc"],
                                   (float(traj.t[0]), float(traj.t[-1])))
        assert rep.applicable
        assert rep.flux_monotone_ok
        assert rep.margins["max_flux_step_rel"] <= 1e-10

    def test_default_window_is_last_quarter(self, orbit_a, dc_a):
        rep = apriori_bound_report(orbit_a.trajectory, dc_a)
        lo, hi = rep.window
        assert hi == pytest.approx(14.0)
        assert lo == pytest.approx(14.0 - 0.25 * 48.0)

    def test_to_dict_round_trips_keys(self, orbit_a, dc_a):
        d = apriori_bound_report(orbit_a.trajectory, dc_a,
                                 (10.0, 14.0)).to_dict()
        for key in ("sup_v", "sup_abs_vdot", "integral_vdot_sq",
                    "mass_monotone_ok", "flux_monotone_ok", "margins"):
            assert key in d
