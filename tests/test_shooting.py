import re

import numpy as np
import pytest

from emdenlab import (
    Kind,
    bisect_boundary,
    connecting_orbit,
    scan_thresholds,
    series_radius,
    shoot,
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
        with pytest.raises(ValueError, match="1e-3"):
            connecting_orbit(config_a, dc_a, "from_infinity",
                             eps=0.01 * dc_a.lambda1)

    def test_zero_eps_records_drift(self, config_a, dc_a):
        orbit = connecting_orbit(config_a, dc_a, "from_infinity", eps=0.0,
                                 t_end=6.0)
        assert orbit.report_infinity.kind == Kind.SLOW_DECAY_SINGULAR
        assert abs(orbit.report_infinity.fitted_constant
                   - dc_a.lambda1) / dc_a.lambda1 < 1e-3

    def test_direction_validation(self, config_a, dc_a):
        with pytest.raises(ValueError, match="direction"):
            connecting_orbit(config_a, dc_a, "sideways")
