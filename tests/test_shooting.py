import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st

from emdenlab import (
    IntegratorConfig,
    Kind,
    ProblemParams,
    ThresholdScan,
    bisect_boundary,
    canonical_json,
    classify_regime,
    connecting_orbit,
    derive_constants,
    forced_expansion,
    scan_thresholds,
    shoot,
    shoot_many,
    shooting,
)
from emdenlab.shooting import classify_ends, regular_start, \
    seed_and_integrate


class TestShoot:
    def test_deterministic(self, dc_a):
        s1 = shoot(1.0, dc_a)
        s2 = shoot(1.0, dc_a)
        assert np.array_equal(s1.trajectory.v, s2.trajectory.v)
        assert s1.kind == s2.kind

    def test_adaptive_radius_shrinks_with_amplitude(self, dc_a):
        radii = [regular_start(a, dc_a, 12.0)[0]
                 for a in (0.1, 1.0, 100.0)]
        assert radii[0] == 1e-4
        assert radii[1] < 1e-4
        assert radii[2] < radii[1]
        # the shot itself must clear the series gate at any amplitude
        shoot(4000.0, dc_a, t_target=-8.0)

    def test_horizon_before_the_start_rejected(self, dc_a):
        # a = 1 starts at t = ln r0 ~ -9.47: a horizon there or before it
        # would integrate inward
        t0 = regular_start(1.0, dc_a, 12.0)[1].t
        message = re.escape(f"t_target = {t0!r} must exceed the shot's "
                            f"start t = ln r0 = {t0!r}")
        with pytest.raises(ValueError, match=message):
            shoot(1.0, dc_a, t_target=t0)
        with pytest.raises(ValueError, match=message):
            shoot_many([1.0, 2.0], dc_a, t_target=t0)

    def test_rejects_bad_amplitude(self, dc_a):
        with pytest.raises(ValueError):
            shoot(-1.0, dc_a)
        with pytest.raises(ValueError):
            shoot(0.0, dc_a)
        with pytest.raises(ValueError, match="positive and finite, got inf"):
            shoot(math.inf, dc_a)
        # 1e200^1.9 overflows: a float amplitude would raise OverflowError
        # in the power, a numpy one warn and give K = -inf
        message = re.escape("amplitude 1e+200 is too large")
        with pytest.raises(ValueError, match=message):
            shoot(1e200, dc_a)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                shoot_many(np.array([1e200]), dc_a)

    def test_underflowed_start_is_named(self):
        # alpha1 = 8 and a series radius near 1e-80: r0^alpha1 is 0
        dc = derive_constants(ProblemParams(n=3, p=1.25, q=1.3, l2=-1.9))
        msg = r"r0 = .*e-80 raised to alpha1 = 8\.0 underflows"
        with pytest.raises(ValueError, match=msg):
            shoot(1.0, dc)
        with pytest.raises(ValueError, match="alpha1 = 8.0 underflows"):
            shoot_many([0.01, 1.0], dc)
        # the q-term's rate 2 + l2 = 0.1 underflows r0 itself to 0.0
        dc = derive_constants(ProblemParams(n=5, p=1.9, q=1.95, l2=-1.9))
        with pytest.raises(ValueError, match=re.escape(
                "u(0) = 1e+30 cannot start: its series radius r0 = 0.0 ")):
            shoot(1e30, dc)

    def test_crossing_kinds_on_dichotomy_config(self, lab):
        # every amplitude on this grid leaves the positive cone
        kinds = {s.kind for s in lab.shots_50}
        assert kinds == {Kind.CROSSES_ZERO}

    def test_report_serializes(self, dc_a):
        d = shoot(1.0, dc_a).to_dict()
        assert d["a"] == 1.0
        assert d["report"]["kind"] == "crosses_zero"


def shot_pair(a_lo, a_hi, dc):
    return [shoot(a, dc, t_target=2.0) for a in (a_lo, a_hi)]


# a 16-point grid whose t_target 2 shots have one kind change, near
# a = 1.268
SHORT_GRID = np.logspace(-0.3, 0.7, 16)


@pytest.fixture(scope="module")
def short_shots(dc_a):
    return shoot_many(SHORT_GRID, dc_a, t_target=2.0)


def no_shot(*args, **kwargs):
    raise AssertionError("a shot ran before the inputs were checked")


class TestBisect:
    # short-span fixture with a horizon boundary near a = 1.268: shots
    # that cross zero before t = 2 against shots still positive there
    # (undetermined)
    def test_boundary_bracket_and_contraction(self, dc_a):
        res = bisect_boundary(*shot_pair(0.5, 5.0, dc_a))
        assert res.kind_lo != res.kind_hi
        assert res.kind_hi == Kind.CROSSES_ZERO
        assert res.a_star == pytest.approx(1.26797, rel=1e-4)
        assert res.rel_width < 1e-12
        # arithmetic bisection halves the dyadic bracket exactly every step
        assert res.a_hi - res.a_lo == (5.0 - 0.5) / 2 ** res.iterations

    def test_equal_kinds_rejected(self, dc_a):
        with pytest.raises(ValueError, match="agree"):
            bisect_boundary(*shot_pair(0.5, 0.6, dc_a))

    def test_bad_bracket_rejected(self, dc_a):
        with pytest.raises(ValueError, match="a_lo < a_hi"):
            bisect_boundary(*shot_pair(2.0, 1.0, dc_a))

    def test_mismatched_pair_rejected(self, dc_a, dc_b, monkeypatch):
        # a pair not shot alike has no one equation and horizon to bisect
        # on: a t_target 2 shot against a default-horizon one, a CONFIG_B
        # shot, or a shot at another rtol
        lo = shoot(0.5, dc_a, t_target=2.0)
        his = {"t_target": shoot(5.0, dc_a),
               "dc": shoot(5.0, dc_b, t_target=2.0),
               "config": shoot(5.0, dc_a, IntegratorConfig(rtol=1e-10),
                               t_target=2.0)}
        monkeypatch.setattr(shooting, "shoot", no_shot)
        for name, hi in his.items():
            assert hi.kind != lo.kind
            with pytest.raises(ValueError, match=f"bracket endpoints were "
                               f"not all shot alike: they differ in {name}$"):
                bisect_boundary(lo, hi)

    def test_midpoints_are_shot_like_the_pair(self, dc_a, monkeypatch):
        # every midpoint and a* take the pair's dc, config and t_target
        lo, hi = shot_pair(0.5, 5.0, dc_a)
        calls, shoot_ = [], shooting.shoot

        def recording_shoot(a, *args):
            calls.append(args)
            return shoot_(a, *args)

        monkeypatch.setattr(shooting, "shoot", recording_shoot)
        res = bisect_boundary(lo, hi)
        assert len(calls) == res.iterations + 1
        assert set(calls) == {(dc_a, lo.trajectory.config, 2.0)}


class TestScan:
    def test_grid_validation(self, short_shots, monkeypatch):
        monkeypatch.setattr(shooting, "shoot", no_shot)
        with pytest.raises(ValueError, match=">= 16"):
            scan_thresholds(short_shots[:8])
        with pytest.raises(ValueError, match="increasing"):
            scan_thresholds(short_shots[:15] + short_shots[:1])

    @pytest.mark.parametrize("grid,reason", [
        (np.int64(20), None), (np.int64(8), "grid needs >= 16 points, got 8"),
        (True, "grid must be an array of amplitudes or a point count, got "
               "True"),
    ], ids=["numpy-count", "short-numpy-count", "bool"])
    def test_grid_count_is_an_integer_not_a_bool(self, grid, reason):
        if reason is None:
            shooting.check_grid(grid)
            return
        with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
            shooting.check_grid(grid)

    def test_mixed_shots_rejected(self, dc_a, dc_b, short_shots,
                                  monkeypatch):
        # a scan bisects with its shots' settings, so they must be one
        # set: no bisection shot runs before the mix is found
        horizon = short_shots[:8] + shoot_many(SHORT_GRID[8:], dc_a)
        problem = short_shots[:8] + shoot_many(SHORT_GRID[8:], dc_b,
                                               t_target=2.0)
        monkeypatch.setattr(shooting, "shoot", no_shot)
        monkeypatch.setattr(shooting, "map_jobs", no_shot)
        for shots, name in ((horizon, "t_target"), (problem, "dc")):
            with pytest.raises(ValueError, match=f"scan shots were not all "
                               f"shot alike: they differ in {name}$"):
                scan_thresholds(shots)

    def test_short_span_scan_finds_one_boundary(self, short_shots):
        scan = scan_thresholds(short_shots)
        assert len(scan.boundaries) == 1
        assert scan.boundaries[0].a_star == pytest.approx(1.26797, rel=1e-4)

    def test_grid_amplitudes_are_shot_once(self, short_shots, monkeypatch):
        # the grid batch gives each amplitude its one verdict; the
        # bisection shoots only midpoints and a*
        shot, shoot_ = [], shooting.shoot

        def recording_shoot(a, *args):
            shot.append(a)
            return shoot_(a, *args)

        monkeypatch.setattr(shooting, "shoot", recording_shoot)
        scan = scan_thresholds(short_shots)
        assert len(scan.boundaries) == 1 and shot
        assert not set(shot) & set(SHORT_GRID.tolist())
        i = int(np.searchsorted(SHORT_GRID, scan.boundaries[0].a_star)) - 1
        assert scan.kinds[i] != scan.kinds[i + 1]
        assert (scan.boundaries[0].kind_lo, scan.boundaries[0].kind_hi) \
            == (scan.kinds[i], scan.kinds[i + 1])

    def test_jobs_do_not_change_results(self, monkeypatch):
        # two kind changes, so two brackets go to the pool of 2
        monkeypatch.setattr(shooting.os, "cpu_count", lambda: 2)
        dc = derive_constants(ProblemParams(n=5, p=2.3, q=2.5, l2=-0.5))
        shots = shoot_many(np.logspace(-2.0, 4.0, 16), dc, t_target=20.0)
        serial = scan_thresholds(shots, jobs=1)
        parallel = scan_thresholds(shots, jobs=2)
        assert len(serial.boundaries) >= 2
        assert canonical_json(serial.to_dict()) \
            == canonical_json(parallel.to_dict())

    def test_pool_gets_the_kind_change_brackets(self, monkeypatch):
        # the pool sees only brackets, each the pair of neighbouring grid
        # shots whose kinds differ
        dc = derive_constants(ProblemParams(n=5, p=2.3, q=2.5, l2=-0.5))
        shots = shoot_many(np.logspace(-2.0, 4.0, 16), dc, t_target=20.0)
        pooled = []

        def recording_map_jobs(fn, arg_tuples, jobs):
            pooled.append((fn, arg_tuples, jobs))
            return [f"boundary {i}" for i in range(len(arg_tuples))]

        monkeypatch.setattr(shooting, "map_jobs", recording_map_jobs)
        scan = scan_thresholds(shots, jobs=1)
        changes = [i for i in range(15) if scan.kinds[i] != scan.kinds[i + 1]]
        assert len(changes) >= 2
        (fn, arg_tuples, jobs), = pooled
        assert (fn, jobs) == (bisect_boundary, 1)
        assert len(arg_tuples) == len(changes)
        for (lo, hi), i in zip(arg_tuples, changes):
            assert lo is shots[i] and hi is shots[i + 1]
        assert scan.boundaries == [f"boundary {i}"
                                   for i in range(len(changes))]

    def test_scan_is_its_shots_then_their_kind_changes(self, short_shots):
        # a scan is its shots, their kinds and one bisect_boundary per
        # kind change, byte for byte: the one boundary of the t_target 2
        # grid included
        brackets = [(lo, hi) for lo, hi in zip(short_shots, short_shots[1:])
                    if lo.kind != hi.kind]
        assert len(brackets) == 1
        by_hand = ThresholdScan(SHORT_GRID, [s.kind for s in short_shots],
                                short_shots,
                                [bisect_boundary(*pair) for pair in brackets])
        assert canonical_json(scan_thresholds(short_shots).to_dict()) \
            == canonical_json(by_hand.to_dict())

    def test_lane_shots_are_the_scalar_shots(self, lab, dc_a):
        # the default-horizon 64-point grid, shot as one lane batch
        for shot in lab.scan_64.shots:
            one = shoot(shot.a, dc_a)
            assert shot.kind == one.kind
            assert shot.trajectory.stats == one.trajectory.stats
            assert shot.trajectory.t_end == pytest.approx(
                one.trajectory.t_end, abs=1e-12)

    def test_shoot_many_is_shoot_per_amplitude(self, dc_a):
        grid = [0.5, 1.268, 3.0]
        many = shoot_many(grid, dc_a, t_target=2.0)
        assert [s.a for s in many] == grid
        assert [s.kind for s in many] \
            == [shoot(a, dc_a, t_target=2.0).kind for a in grid]
        with pytest.raises(ValueError, match="amplitude must be positive"):
            shoot_many([1.0, -1.0], dc_a)

    def test_worker_count_capped_at_cpu_count(self, monkeypatch):
        monkeypatch.setattr(shooting.os, "cpu_count", lambda: 2)
        assert [shooting.effective_jobs(j) for j in (1, 2, 8)] == [1, 2, 2]
        monkeypatch.setattr(shooting.os, "cpu_count", lambda: None)
        assert shooting.effective_jobs(8) == 1

    @pytest.mark.parametrize("jobs,want", [
        (np.int64(2), 2), (True, "jobs must be an integer, got True"),
        (np.True_, "jobs must be an integer, got np.True_"),
    ], ids=["numpy-int", "bool", "numpy-bool"])
    def test_worker_count_is_an_integer_not_a_bool(self, jobs, want,
                                                  monkeypatch):
        monkeypatch.setattr(shooting.os, "cpu_count", lambda: 4)
        if isinstance(want, int):
            got = shooting.effective_jobs(jobs)
            assert got == want and type(got) is int
            return
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            shooting.effective_jobs(jobs)

    @pytest.mark.parametrize("jobs", [0, -3, 1.5, 2.0])
    def test_worker_count_below_1_rejected(self, short_shots, jobs,
                                           monkeypatch):
        message = f"jobs must be >= 1, got {jobs}" if isinstance(jobs, int) \
            else f"jobs must be an integer, got {jobs!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            shooting.effective_jobs(jobs)
        monkeypatch.setattr(shooting, "shoot", no_shot)
        with pytest.raises(ValueError, match=re.escape(message)):
            scan_thresholds(short_shots, jobs=jobs)

    def test_environment_does_not_set_jobs(self, dc_a, monkeypatch):
        # the worker count is the jobs argument alone
        monkeypatch.setenv("EMDEN_JOBS", "abc")
        shots = shoot_many(np.logspace(0.3, 1.0, 16), dc_a, t_target=2.0)
        assert scan_thresholds(shots).kinds \
            == scan_thresholds(shots, jobs=1).kinds

    def test_one_worker_maps_in_process(self, monkeypatch):
        # a lambda cannot be pickled, so this only passes without a pool
        monkeypatch.setattr(shooting.os, "cpu_count", lambda: 1)
        assert shooting.map_jobs(lambda x: 2 * x, [(3,), (1,), (2,)], 8) \
            == [6, 2, 4]
        # no more workers than calls: one call starts no pool either
        monkeypatch.setattr(shooting.os, "cpu_count", lambda: 2)
        assert shooting.map_jobs(lambda x, y: x - y, [(3, 1)], 8) == [2]
        assert shooting.map_jobs(lambda x: 2 * x, [], 8) == []

    def test_scan_serializes(self, short_shots):
        d = scan_thresholds(short_shots).to_dict()
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

    def test_regime_mismatch_rejected(self, dc_b):
        with pytest.raises(ValueError, match="regime"):
            connecting_orbit(dc_b, "from_infinity")

    def test_wrong_direction_for_regime(self, dc_a):
        with pytest.raises(ValueError, match="regime"):
            connecting_orbit(dc_a, "from_origin")

    def test_eps_bound(self, dc_a):
        # the seed offset eps = K e^{delta t_seed} must stay below 0.1
        # lambda1: |K| = 1.16 at t_seed = 0 is too shallow; infinity
        # seeds at the top of the span
        t_min = shooting.CONNECT_DEFAULTS["from_infinity"][0]
        with pytest.raises(ValueError, match="too shallow"):
            seed_and_integrate(dc_a, "infinity", (t_min, 0.0))

    def test_unknown_end_rejected(self, dc_a):
        with pytest.raises(ValueError,
                           match="end must be 'origin' or 'infinity'"):
            seed_and_integrate(dc_a, "sideways", (-34.0, 14.0))

    def test_direction_validation(self, dc_a):
        with pytest.raises(ValueError, match="direction"):
            connecting_orbit(dc_a, "sideways")


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
    # connect's fixed seed depths are too shallow for slow forced rates,
    # so this seeds through seed_and_integrate, where the first-order
    # term is 1e-5 lambda on the inner edge of the seed-side window, and
    # crosses to connect's far end; that window is read on every draw.
    # The seed-side rate is then the end's forced rate, and the far-end
    # report does not depend on where the seed sits (t_seed +- 2).
    dc = derive_constants(params)
    end = dc.end(classify_regime(params, dc).theorem3_case
                 .removeprefix("singular_at_"))
    event(end.name)
    (k, rate), = forced_expansion(dc, end.name).terms
    t_seed = math.log(1e-5 * end.lam / abs(k)) / rate \
        + end.side * shooting.END_WINDOW
    t_min, t_max = shooting.CONNECT_DEFAULTS[f"from_{end.name}"]
    reports = []
    for shift in (0.0, -2.0, 2.0):
        span = (t_min, t_seed + shift) if end.side > 0 \
            else (t_seed + shift, t_max)
        traj = seed_and_integrate(dc, end.name, span)
        # (seed side, far side)
        reports.append(classify_ends(traj, dc)[::end.side])
    seed, far = reports[0]
    assert seed.kind == Kind.SLOW_DECAY_SINGULAR
    assert seed.rate == pytest.approx(rate, rel=5e-4)
    for _, other in reports[1:]:
        assert other.kind == far.kind
        if far.fitted_constant is None:
            assert other.fitted_constant is None
        else:
            assert other.fitted_constant == pytest.approx(
                far.fitted_constant, rel=1e-9)
