import math
import pickle
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
    bisect_many,
    canonical_json,
    classify_end,
    classify_regime,
    connecting_orbit,
    derive_constants,
    forced_expansion,
    scan_thresholds,
    shoot,
    shoot_many,
    shooting,
)
from emdenlab import cli
from emdenlab.cli import build_parser
from emdenlab.integrate import LANES_MIN
from emdenlab.shooting import classify_ends, regular_start, \
    seed_and_integrate
from emdenlab.sweep import effective_jobs


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


@pytest.fixture(scope="module")
def p23_shots():
    """A 16-point t_target 20 grid of p = 2.3 with two kind changes."""
    dc = derive_constants(ProblemParams(n=5, p=2.3, q=2.5, l2=-0.5))
    return shoot_many(np.logspace(-2.0, 4.0, 16), dc, t_target=20.0)


def no_shot(*args, **kwargs):
    raise AssertionError("a shot ran before the inputs were checked")


def recorded_shoot_many(monkeypatch) -> list:
    """(amplitudes, settings) of every shooting.shoot_many call from now
    on, in call order."""
    calls, shoot_many_ = [], shooting.shoot_many

    def recording(grid, *args):
        calls.append((list(grid), args))
        return shoot_many_(grid, *args)

    monkeypatch.setattr(shooting, "shoot_many", recording)
    return calls


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
        monkeypatch.setattr(shooting, "shoot_many", no_shot)
        for name, hi in his.items():
            assert hi.kind != lo.kind
            with pytest.raises(ValueError, match=f"bracket endpoints were "
                               f"not all shot alike: they differ in {name}$"):
                bisect_boundary(lo, hi)

    def test_midpoints_are_shot_like_the_pair(self, dc_a, monkeypatch):
        # every midpoint and a* take the pair's dc, config and t_target
        lo, hi = shot_pair(0.5, 5.0, dc_a)
        calls = recorded_shoot_many(monkeypatch)
        res = bisect_boundary(lo, hi)
        assert len(calls) == res.iterations + 1
        assert {(len(grid), args) for grid, args in calls} \
            == {(1, (dc_a, lo.trajectory.config, 2.0))}

    def test_every_pair_is_checked_before_the_first_shot(self, dc_a,
                                                         monkeypatch):
        # a bad pair after a good one fails before the good one is shot
        good, same = shot_pair(0.5, 5.0, dc_a), shot_pair(0.5, 0.6, dc_a)
        horizon = (good[0], shoot(5.0, dc_a))
        monkeypatch.setattr(shooting, "shoot_many", no_shot)
        assert bisect_many([]) == []
        with pytest.raises(ValueError, match="a_lo < a_hi"):
            bisect_many([good, good[::-1]])
        with pytest.raises(ValueError, match="agree"):
            bisect_many([good, same])
        with pytest.raises(ValueError, match="differ in t_target$"):
            bisect_many([good, horizon])

    @pytest.mark.parametrize("case", ["config_a", "p2.3"])
    def test_a_lane_batch_of_brackets_is_each_bracket_alone(
            self, case, dc_a, p23_shots, lane_batches):
        # 32 copies of the t_target 2 bracket, or the two t_target 20
        # brackets of a p = 2.3 grid 16 times: the midpoints run on the
        # lane core while at least LANES_MIN brackets are live, and each
        # bracket ends where it ends bisected alone
        if case == "config_a":
            pairs = [tuple(shot_pair(0.5, 5.0, dc_a))]
        else:
            pairs = [(lo, hi) for lo, hi in zip(p23_shots, p23_shots[1:])
                     if lo.kind != hi.kind]
            assert len(pairs) == 2
        alone = [bisect_boundary(*pair) for pair in pairs]
        assert lane_batches == []
        copies = LANES_MIN // len(pairs)
        together = bisect_many(pairs * copies)
        assert lane_batches and min(lane_batches) >= LANES_MIN
        assert lane_batches[-1] == len(together) == LANES_MIN
        for res, one in zip(together, alone * copies):
            assert (res.a_star, res.a_lo, res.a_hi, res.iterations) \
                == (one.a_star, one.a_lo, one.a_hi, one.iterations)
            assert res.report_star.kind == one.report_star.kind
        if case == "config_a":
            assert (alone[0].a_star, alone[0].iterations) \
                == (1.2679701365307778, 42)

    def test_brackets_leave_the_live_set_one_by_one(self, dc_a,
                                                    monkeypatch):
        # three widths about the one t_target 2 boundary: each halving
        # shoots only the brackets still wider than BISECT_REL_WIDTH
        pairs = [tuple(shot_pair(a_lo, a_hi, dc_a))
                 for a_lo, a_hi in ((0.5, 5.0), (1.2, 1.3), (1.0, 1.5))]
        alone = [bisect_boundary(*pair) for pair in pairs]
        calls = recorded_shoot_many(monkeypatch)
        together = bisect_many(pairs)
        counts = [one.iterations for one in alone]
        assert len(set(counts)) == 3
        assert [len(grid) for grid, _ in calls] \
            == [sum(n > k for n in counts) for k in range(max(counts))] + [3]
        for res, one in zip(together, alone):
            assert (res.a_star, res.a_lo, res.a_hi, res.iterations) \
                == (one.a_star, one.a_lo, one.a_hi, one.iterations)


class TestScan:
    def test_grid_validation(self, short_shots, monkeypatch):
        monkeypatch.setattr(shooting, "shoot_many", no_shot)
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
        monkeypatch.setattr(shooting, "shoot_many", no_shot)
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
        calls = recorded_shoot_many(monkeypatch)
        scan = scan_thresholds(short_shots)
        shot = [a for grid, _ in calls for a in grid]
        assert len(scan.boundaries) == 1 and shot
        assert not set(shot) & set(SHORT_GRID.tolist())
        i = int(np.searchsorted(SHORT_GRID, scan.boundaries[0].a_star)) - 1
        assert scan.kinds[i] != scan.kinds[i + 1]
        assert (scan.boundaries[0].kind_lo, scan.boundaries[0].kind_hi) \
            == (scan.kinds[i], scan.kinds[i + 1])

    def test_bisect_many_gets_the_kind_change_brackets(self, p23_shots,
                                                       monkeypatch):
        # bisect_many sees only brackets, each the pair of neighbouring
        # grid shots whose kinds differ, in grid order
        shots = p23_shots
        bisected = []

        def recording_bisect_many(pairs):
            bisected.append(pairs)
            return [f"boundary {i}" for i in range(len(pairs))]

        monkeypatch.setattr(shooting, "bisect_many", recording_bisect_many)
        scan = scan_thresholds(shots)
        changes = [i for i in range(15) if scan.kinds[i] != scan.kinds[i + 1]]
        assert len(changes) >= 2
        pairs, = bisected
        assert len(pairs) == len(changes)
        for (lo, hi), i in zip(pairs, changes):
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
        by_hand = ThresholdScan(short_shots,
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

    @pytest.mark.parametrize("core", ["scalar", "lanes"])
    def test_window_reads_give_the_reports_of_full_reads(
            self, dc_a, lane_batches, core):
        # a shot that does not cross is classified from its end window,
        # sampled from its unread run; on the CONFIG_A t = 2 grid, shot
        # as one lane batch or as scalar runs, every report equals the
        # report of a fully read copy of its run, and every undetermined
        # shot reaches the power fit
        grid = np.logspace(-2.0, 2.0, 64)
        if core == "lanes":
            shots = shoot_many(grid, dc_a, t_target=2.0)
        else:
            shots = [shot for part in np.split(grid, 4)
                     for shot in shoot_many(part, dc_a, t_target=2.0)]
        assert lane_batches == ([64] if core == "lanes" else [])
        assert {shot.kind for shot in shots} \
            == {Kind.CROSSES_ZERO, Kind.UNDETERMINED}
        for shot in shots:
            assert "v" not in vars(shot.trajectory)
            full = pickle.loads(pickle.dumps(shot.trajectory))
            full.v
            report = classify_end(full, dc_a, "infinity")
            assert canonical_json(shot.report.to_dict()) \
                == canonical_json(report.to_dict())
            if shot.kind == Kind.UNDETERMINED:
                assert report.diagnostics["power_residual"] is not None

    def test_shoot_many_is_shoot_per_amplitude(self, dc_a):
        grid = [0.5, 1.268, 3.0]
        many = shoot_many(grid, dc_a, t_target=2.0)
        assert [s.a for s in many] == grid
        assert [s.kind for s in many] \
            == [shoot(a, dc_a, t_target=2.0).kind for a in grid]
        with pytest.raises(ValueError, match="amplitude must be positive"):
            shoot_many([1.0, -1.0], dc_a)

    @pytest.mark.parametrize("jobs", [0, -3, 1.5, 2.0])
    def test_worker_count_below_1_rejected(self, jobs, monkeypatch):
        # scan --jobs changes nothing but is still checked, by the one
        # effective_jobs check, before the first shot
        message = f"jobs must be >= 1, got {jobs}" if isinstance(jobs, int) \
            else f"jobs must be an integer, got {jobs!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            effective_jobs(jobs)
        args = build_parser().parse_args(["scan", "--n", "5", "--p", "1.9",
                                          "--q", "1.95", "--l2", "-0.5"])
        args.jobs = jobs
        monkeypatch.setattr(cli, "shoot_many", no_shot)
        monkeypatch.setattr(shooting, "shoot_many", no_shot)
        with pytest.raises(ValueError, match=re.escape(message)):
            args.func(args)

    def test_environment_does_not_set_jobs(self, short_shots, monkeypatch):
        # a scan reads no environment variable, a worker count included
        plain = canonical_json(scan_thresholds(short_shots).to_dict())
        monkeypatch.setenv("EMDEN_JOBS", "abc")
        assert canonical_json(scan_thresholds(short_shots).to_dict()) == plain

    def test_scan_serializes(self, short_shots):
        # the grid and kinds are read from the shots, so they cannot
        # disagree with them
        scan = scan_thresholds(short_shots)
        d = scan.to_dict()
        assert sorted(d) == ["a_grid", "boundaries", "kinds", "shots"]
        assert d["a_grid"] == SHORT_GRID.tolist() == [s.a for s in scan.shots]
        assert d["kinds"] == [s.kind.value for s in short_shots]
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
