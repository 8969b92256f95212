import math
import re

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st

from emdenlab import (
    Kind,
    ProblemParams,
    bisect_boundary,
    classify_regime,
    connecting_orbit,
    derive_constants,
    forced_expansion,
    scan_thresholds,
    series_radius,
    shoot,
    shoot_many,
    shooting,
)


class TestShoot:
    def test_deterministic(self, config_a, dc_a):
        s1 = shoot(1.0, config_a, dc_a)
        s2 = shoot(1.0, config_a, dc_a)
        assert np.array_equal(s1.trajectory.v, s2.trajectory.v)
        assert s1.kind == s2.kind

    def test_adaptive_radius_shrinks_with_amplitude(self, config_a):
        radii = [series_radius(a, config_a) for a in (0.1, 1.0, 100.0)]
        assert radii[0] == 1e-4
        assert radii[1] < 1e-4
        assert radii[2] < radii[1]
        # the shot itself must clear the series gate at any amplitude
        shoot(4000.0, config_a, t_target=-8.0)

    def test_rejects_bad_amplitude(self, config_a):
        with pytest.raises(ValueError):
            shoot(-1.0, config_a)
        with pytest.raises(ValueError):
            shoot(0.0, config_a)

    def test_underflowed_start_is_named(self):
        # alpha1 = 8 and a series radius near 1e-80: r0^alpha1 is 0
        params = ProblemParams(n=3, p=1.25, q=1.3, l2=-1.9)
        msg = r"r0 = .*e-80 raised to alpha1 = 8\.0 underflows"
        with pytest.raises(ValueError, match=msg):
            shoot(1.0, params)
        with pytest.raises(ValueError, match="alpha1 = 8.0 underflows"):
            shoot_many([0.01, 1.0], params)

    def test_crossing_kinds_on_dichotomy_config(self, lab):
        # every amplitude on this grid leaves the positive cone
        kinds = {s.kind for s in lab.shots_50}
        assert kinds == {Kind.CROSSES_ZERO}

    def test_report_serializes(self, config_a, dc_a):
        d = shoot(1.0, config_a, dc_a).to_dict()
        assert d["a"] == 1.0
        assert d["report"]["kind"] == "crosses_zero"


class TestBisect:
    # short-span fixture: stopping at t = 2 splits amplitudes into
    # span-enders and crossers with a genuine boundary near a = 1.268
    def test_boundary_bracket_and_contraction(self, config_a, dc_a):
        res = bisect_boundary(0.5, 5.0, config_a, dc_a, t_target=2.0)
        assert res.kind_lo != res.kind_hi
        assert res.kind_hi == Kind.CROSSES_ZERO
        assert res.a_star == pytest.approx(1.26797, rel=1e-4)
        assert res.rel_width < 1e-12
        # arithmetic bisection halves the bracket every step
        for w1, w2 in zip(res.widths, res.widths[1:]):
            assert w2 == pytest.approx(0.5 * w1, rel=1e-9)

    def test_equal_kinds_rejected(self, config_a, dc_a):
        with pytest.raises(ValueError, match="agree"):
            bisect_boundary(0.5, 0.6, config_a, dc_a, t_target=2.0)

    def test_bad_bracket_rejected(self, config_a, dc_a):
        with pytest.raises(ValueError, match="a_lo < a_hi"):
            bisect_boundary(2.0, 1.0, config_a, dc_a)


class TestScan:
    def test_grid_validation(self, config_a, dc_a):
        with pytest.raises(ValueError, match=">= 16"):
            scan_thresholds(np.linspace(0.5, 5.0, 8), config_a, dc_a)
        bad = np.concatenate([np.linspace(0.5, 5.0, 15), [4.0]])
        with pytest.raises(ValueError, match="increasing"):
            scan_thresholds(bad, config_a, dc_a)

    def test_short_span_scan_finds_one_boundary(self, config_a, dc_a):
        grid = np.logspace(-0.3, 0.7, 16)
        scan = scan_thresholds(grid, config_a, dc_a, t_target=2.0)
        assert len(scan.boundaries) == 1
        assert scan.boundaries[0].a_star == pytest.approx(1.26797, rel=1e-4)

    def test_jobs_do_not_change_results(self, config_a, dc_a):
        grid = np.logspace(-0.3, 0.7, 16)
        serial = scan_thresholds(grid, config_a, dc_a, t_target=2.0,
                                 jobs=1, bisect=False)
        parallel = scan_thresholds(grid, config_a, dc_a, t_target=2.0,
                                   jobs=4, bisect=False)
        assert serial.kinds == parallel.kinds
        for s, p in zip(serial.shots, parallel.shots):
            assert np.array_equal(s.trajectory.v, p.trajectory.v)

    def test_lane_shots_are_the_scalar_shots(self, lab, config_a, dc_a):
        # the default-horizon 64-point grid, shot as one lane batch
        for shot in lab.scan_64.shots:
            one = shoot(shot.a, config_a, dc_a)
            assert shot.kind == one.kind
            assert shot.trajectory.stats == one.trajectory.stats
            assert shot.trajectory.t_end == pytest.approx(
                one.trajectory.t_end, abs=1e-12)

    def test_shoot_many_is_shoot_per_amplitude(self, config_a, dc_a):
        grid = [0.5, 1.268, 3.0]
        many = shoot_many(grid, config_a, dc_a, t_target=2.0)
        assert [s.a for s in many] == grid
        assert [s.kind for s in many] \
            == [shoot(a, config_a, dc_a, t_target=2.0).kind for a in grid]
        with pytest.raises(ValueError, match="amplitude must be positive"):
            shoot_many([1.0, -1.0], config_a, dc_a)

    def test_worker_count_capped_at_cpu_count(self, monkeypatch):
        monkeypatch.setattr(shooting.os, "cpu_count", lambda: 2)
        assert [shooting.effective_jobs(j) for j in (0, 1, 2, 8)] \
            == [1, 1, 2, 2]
        monkeypatch.setattr(shooting.os, "cpu_count", lambda: None)
        assert shooting.effective_jobs(8) == 1

    def test_worker_count_precedence(self, monkeypatch):
        # --jobs, then [sweep] jobs, then EMDEN_JOBS, then 1
        monkeypatch.delenv("EMDEN_JOBS", raising=False)
        assert shooting.resolve_jobs() == 1
        monkeypatch.setenv("EMDEN_JOBS", "")
        assert shooting.resolve_jobs() == 1
        monkeypatch.setenv("EMDEN_JOBS", "3")
        assert shooting.resolve_jobs() == 3
        assert shooting.resolve_jobs(None, 1) == 1
        assert shooting.resolve_jobs(2, 1) == 2

    @pytest.mark.parametrize("requested,configured,env,message", [
        (0, None, None, "--jobs must be >= 1, got 0"),
        (None, 0, None, "[sweep] jobs must be >= 1, got 0"),
        (None, None, "abc", "EMDEN_JOBS: cannot parse 'abc' as an integer"),
        (None, None, "2.5", "EMDEN_JOBS: cannot parse '2.5' as an integer"),
        (None, None, "0", "EMDEN_JOBS must be >= 1, got 0"),
    ])
    def test_bad_worker_count_names_its_source(self, monkeypatch, requested,
                                               configured, env, message):
        monkeypatch.delenv("EMDEN_JOBS", raising=False)
        if env is not None:
            monkeypatch.setenv("EMDEN_JOBS", env)
        with pytest.raises(ValueError, match=re.escape(message)):
            shooting.resolve_jobs(requested, configured)

    def test_one_worker_maps_in_process(self, monkeypatch):
        # a lambda cannot be pickled, so this only passes without a pool
        monkeypatch.setattr(shooting.os, "cpu_count", lambda: 1)
        assert shooting.map_jobs(lambda x: 2 * x, [3, 1, 2], 8) == [6, 2, 4]

    def test_scan_serializes(self, config_a, dc_a):
        grid = np.logspace(-0.3, 0.7, 16)
        d = scan_thresholds(grid, config_a, dc_a, t_target=2.0,
                            bisect=False).to_dict()
        assert len(d["kinds"]) == 16
        assert len(d["shots"]) == 16


class TestConnectingOrbit:
    def test_from_infinity_reaches_both_limits(self, orbit_a, dc_a):
        assert orbit_a.report_infinity.kind == Kind.SLOW_DECAY_SINGULAR
        assert orbit_a.report_origin.kind == Kind.SLOW_DECAY_SINGULAR
        assert orbit_a.report_infinity.fitted_constant == pytest.approx(
            dc_a.lambda1, rel=5e-3)
        assert orbit_a.report_origin.fitted_constant == pytest.approx(
            dc_a.lambda2, rel=5e-3)

    def test_from_origin_mirror_case(self, orbit_c, dc_c):
        # config C is singular at the origin; the crossing runs forward
        assert orbit_c.report_origin.kind == Kind.SLOW_DECAY_SINGULAR
        assert orbit_c.report_origin.fitted_constant == pytest.approx(
            dc_c.lambda2, rel=5e-3)
        assert orbit_c.report_infinity.kind == Kind.SLOW_DECAY_SINGULAR
        assert orbit_c.report_infinity.fitted_constant == pytest.approx(
            dc_c.lambda1, rel=5e-3)

    def test_regime_mismatch_rejected(self, config_b, dc_b):
        with pytest.raises(ValueError, match="regime"):
            connecting_orbit(config_b, dc_b, "from_infinity")

    def test_wrong_direction_for_regime(self, config_a, dc_a):
        with pytest.raises(ValueError, match="regime"):
            connecting_orbit(config_a, dc_a, "from_origin")

    def test_eps_bound(self, config_a, dc_a):
        # the seed offset eps = K e^{delta t_seed} must stay below 0.1
        # lambda1: |K| = 1.16 at t_seed = 0 is too shallow
        with pytest.raises(ValueError, match="too shallow"):
            connecting_orbit(config_a, dc_a, "from_infinity", t_seed=0.0)

    def test_direction_validation(self, config_a, dc_a):
        with pytest.raises(ValueError, match="direction"):
            connecting_orbit(config_a, dc_a, "sideways")


@st.composite
def theorem3_params(draw):
    """Parameters with a singular end: serrin1 < p < q < sobolev2
    (infinity) or sobolev1 < p < q (origin), with l2 = l1 - u (2 + l1)/2
    for u in [0.1, 0.95], above the (l1 - 2)/2 the infinity case needs;
    u >= 0.1 keeps |delta| away from 0, where the seed depth diverges."""
    n = draw(st.integers(min_value=3, max_value=8))
    l1 = draw(st.floats(min_value=-0.95, max_value=0.0))
    l2 = l1 - draw(st.floats(min_value=0.1, max_value=0.95)) \
        * (2.0 + l1) / 2.0
    serrin1, sobolev1 = (n + l1) / (n - 2.0), (n + 2.0 + 2.0 * l1) / (n - 2.0)
    sobolev2 = (n + 2.0 + 2.0 * l2) / (n - 2.0)
    lo, hi = (serrin1, sobolev2) if draw(st.booleans()) \
        else (sobolev1, sobolev1 + 2.0)
    x = draw(st.floats(min_value=0.02, max_value=0.9))
    y = draw(st.floats(min_value=x + 0.05, max_value=0.98))
    params = ProblemParams(n=n, p=lo + x * (hi - lo), q=lo + y * (hi - lo),
                           l1=l1, l2=l2)
    assume(classify_regime(params, derive_constants(params)).theorem3_case
           != "none")
    return params


@settings(max_examples=25, deadline=None, derandomize=True)
@given(params=theorem3_params())
def test_forced_seed_reads_the_end_rate_and_leaves_the_far_end(params):
    # The seed depth is the caller's, and connect's fixed defaults are too
    # shallow for slow forced rates.  This one seeds where the first-order
    # term is 1e-5 lambda on the inner edge of the seed-side window, so
    # that window is read on every draw.  The seed-side rate is then the
    # end's forced rate, and the far-end report does not depend on where
    # the seed sits (t_seed +- 2).
    dc = derive_constants(params)
    end = dc.end(classify_regime(params, dc).theorem3_case
                 .removeprefix("singular_at_"))
    event(end.name)
    (k, rate), = forced_expansion(params, end).terms
    t_seed = math.log(1e-5 * end.lam / abs(k)) / rate \
        + end.side * shooting.END_WINDOW
    reports = []
    for shift in (0.0, -2.0, 2.0):
        orbit = connecting_orbit(params, dc, f"from_{end.name}",
                                 t_seed=t_seed + shift)
        # (seed side, far side)
        reports.append((orbit.report_infinity, orbit.report_origin)
                       [::end.side])
    seed, far = reports[0]
    assert seed.kind == Kind.SLOW_DECAY_SINGULAR
    assert seed.rate == pytest.approx(end.rate, rel=5e-4)
    for _, other in reports[1:]:
        assert other.kind == far.kind
        if far.fitted_constant is None:
            assert other.fitted_constant is None
        else:
            assert other.fitted_constant == pytest.approx(
                far.fitted_constant, rel=1e-9)
