import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import cumulative_simpson as scipy_cumulative_simpson

from emdenlab import (
    TOLERANCES,
    IntegratorConfig,
    Kind,
    ProblemParams,
    State,
    apriori_bound_report,
    derive_constants,
    end_window,
    energy_trace,
    forced_expansion,
    integrate,
    reframe,
    shoot,
    well_potential,
)
from emdenlab.energy import cumulative_simpson
from emdenlab.params import frame_equation, frame_exp

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
        assert well_potential(2.25, b) == pytest.approx(-1.8984375,
                                                        rel=1e-15)
        assert well_potential(0.0, b) == 0.0
        # second positive zero: lambda2 ((q+1)/2)^{1/(q-1)} = 3.375
        assert well_potential(3.375, b) == pytest.approx(0.0, abs=1e-12)

    def test_b1_critical_point_is_minimum(self, dc_a):
        b1 = dc_a.end("infinity")
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
        traj = integrate(State(0.0, math.sqrt(2.0), 0.0),
                         frame_equation(SINGLE, dc.alpha1), 5.0)
        tr = energy_trace(traj, dc)
        assert np.all(tr.forcing_work == 0.0)
        assert tr.balance_residual() < 1e-12
        assert np.max(np.abs(tr.energy - tr.energy[0])) \
            <= 1e-10 * abs(tr.energy[0])

    def test_balance_on_forced_run(self, dc_a):
        traj = integrate(State(0.0, 1.2 * dc_a.lambda1, 0.0),
                         dc_a.end("infinity").equation, 8.0,
                         IntegratorConfig(dense_output_stride=0.0025))
        res = energy_trace(traj, dc_a).balance_residual()
        assert res < 1e-6

    def test_backward_trajectory_sorted_ascending(self, orbit_a, dc_a):
        tr = energy_trace(orbit_a.trajectory, dc_a)
        assert np.all(np.diff(tr.t) > 0.0)
        assert tr.balance_residual() < 1e-5

    def test_backward_trace_is_the_forward_ordered_one(self, orbit_a, dc_a):
        # the reversed views give the bytes of sorted copies
        traj = orbit_a.trajectory
        order = np.argsort(traj.t)
        ordered = replace(traj, t=traj.t[order], v=traj.v[order],
                          vdot=traj.vdot[order])
        back, fwd = energy_trace(traj, dc_a), energy_trace(ordered, dc_a)
        for name in ("t", "energy", "forcing_work", "damping_work"):
            assert getattr(back, name).tobytes() \
                == getattr(fwd, name).tobytes()

    def test_alpha2_frame_uses_swapped_roles(self, dc_b):
        traj = integrate(State(-2.0, dc_b.lambda2 + 0.5, 0.0),
                         dc_b.end("origin").equation, -20.0)
        tr = energy_trace(traj, dc_b)
        # forcing (the p-term, exponent delta2) does real work here
        assert np.max(np.abs(tr.forcing_work)) > 0.0
        assert tr.balance_residual() < 1e-6


@st.composite
def balance_configs(draw):
    """A parameter set and start amp * lambda1 from criterion 7's ranges
    (acceptance.sample_balance_configs)."""
    n = draw(st.integers(min_value=3, max_value=6))
    l1 = draw(st.floats(min_value=-0.9, max_value=0.0))
    l2 = draw(st.floats(min_value=max(-1.9, l1 - 1.0), max_value=l1 - 0.01))
    serrin1 = (n + l1) / (n - 2.0)
    p = draw(st.floats(min_value=serrin1 + 0.05, max_value=serrin1 + 1.0))
    q = draw(st.floats(min_value=p + 0.02, max_value=p + 0.8))
    amp = draw(st.floats(min_value=1.1, max_value=1.4))
    return ProblemParams(n=n, p=p, q=q, l1=l1, l2=l2), amp


@given(balance_configs())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_balance_holds_in_every_frame(config):
    # one run read in the raw, Pohozaev (alpha0), alpha1 and alpha2 frames
    params, amp = config
    dc = derive_constants(params)
    traj = integrate(State(0.0, amp * dc.lambda1, 0.0),
                     dc.end("infinity").equation, 8.0,
                     IntegratorConfig(dense_output_stride=0.0025))
    for alpha in (0.0, (params.n - 2.0) / 2.0, dc.alpha1, dc.alpha2):
        tr = energy_trace(reframe(traj, alpha), dc)
        assert tr.balance_residual() < TOLERANCES["c7_balance"], alpha


@pytest.mark.parametrize("a", [0.05, 1.0, 20.0])
def test_pohozaev_frame_forbids_positive_config_a_shots(config_a, dc_a, a):
    # alpha0 = (n-2)/2 has no damping and both CONFIG_A rates positive
    # (0.650, 0.075), so H starts at 0 on a regular start and only rises
    # while v > 0; a positive tail would need H -> 0, so every shot
    # crosses zero (README, "Known infeasible checks")
    alpha0 = (config_a.n - 2.0) / 2.0
    assert min(frame_exp(e, l, alpha0)
               for e, l, _ in config_a.active_terms()) > 0.0
    shot = shoot(a, dc_a, IntegratorConfig(dense_output_stride=0.0025), 12.0)
    tr = energy_trace(reframe(shot.trajectory, alpha0), dc_a)
    scale = float(np.max(np.abs(tr.energy)))
    assert np.all(tr.damping_work == 0.0)
    assert abs(tr.energy[0]) <= 1e-12 * scale
    assert np.min(np.diff(tr.forcing_work)) >= -1e-10 * scale
    assert shot.report.kind == Kind.CROSSES_ZERO


class TestBoundReport:
    def test_orbit_tail_fields(self, orbit_a, dc_a):
        rep = apriori_bound_report(orbit_a.trajectory, dc_a, (10.0, 14.0))
        assert rep.applicable
        assert rep.sup_v == pytest.approx(dc_a.lambda1, rel=1e-3)
        # the forced-mode slope |delta K| e^{delta t} at the window's
        # inner edge t = 10, with the closed-form K of the seed (1.578e-3
        # predicted, 1.574e-3 read)
        (k, delta), = forced_expansion(dc_a, "infinity").terms
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
        rep = apriori_bound_report(
            shot.trajectory, dc_a,
            end_window(shot.trajectory, dc_a.end("infinity")))
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

    def test_to_dict_round_trips_keys(self, orbit_a, dc_a):
        d = apriori_bound_report(orbit_a.trajectory, dc_a,
                                 (10.0, 14.0)).to_dict()
        for key in ("sup_v", "sup_abs_vdot", "integral_vdot_sq",
                    "mass_monotone_ok", "flux_monotone_ok", "margins"):
            assert key in d
