"""The JSON schema of every result record (serialize.Record)."""

import math

import numpy as np
import pytest

from emdenlab import RunConfig, apriori_bound_report, bisect_boundary, \
    canonical_json, classify_regime, fmt_float, scan_thresholds, shoot, \
    shoot_many
from emdenlab.classify import ClassificationReport, OscillationEnvelope
from emdenlab.energy import BoundReport
from emdenlab.params import DerivedConstants, RegimeFlags
from emdenlab.serialize import _digits17, fmt_rows
from emdenlab.shooting import BoundaryResult, ConnectingOrbit, ShotResult, \
    ThresholdScan, seed_and_integrate

# the keys each record's to_dict() wrote when it was written out by hand:
# trajectories and back-references stay out, the
# derived n_extrema, omega and rel_width go in
KEYS = {
    ClassificationReport: {"end", "kind", "window", "fitted_constant",
                           "residual", "rate", "diagnostics"},
    OscillationEnvelope: {"end", "times_min", "values_min", "times_max",
                          "values_max", "mu1", "mu2", "spread_min",
                          "spread_max", "b_mu1", "b_mu2",
                          "b_match_rel", "n_extrema"},
    DerivedConstants: {"alpha1", "alpha2", "lambda1", "lambda2", "serrin1",
                       "sobolev1", "sobolev2", "c1coef", "c2coef", "delta",
                       "delta2", "omega_sq", "omega"},
    RegimeFlags: {"theorem1_applies", "theorem2_case", "theorem3_case",
                  "criticality_margins"},
    BoundReport: {"window", "applicable", "reason", "sup_v", "sup_abs_vdot",
                  "integral_vdot_sq", "mass_monotone_ok", "flux_monotone_ok",
                  "margins"},
    ShotResult: {"a", "r0", "report"},
    BoundaryResult: {"a_star", "a_lo", "a_hi", "kind_lo", "kind_hi",
                     "iterations", "rel_width", "report_star"},
    ThresholdScan: {"a_grid", "kinds", "shots", "boundaries"},
    ConnectingOrbit: {"direction", "report_infinity", "report_origin"},
}


@pytest.fixture(scope="module")
def records(config_a, dc_a, lab, orbit_a):
    shot = shoot(1.0, dc_a)
    return {
        ClassificationReport: shot.report,
        OscillationEnvelope: lab.envelope_b["envelope"],
        DerivedConstants: dc_a,
        RegimeFlags: classify_regime(config_a, dc_a),
        BoundReport: apriori_bound_report(orbit_a.trajectory, dc_a,
                                          (10.0, 14.0)),
        ShotResult: shot,
        BoundaryResult: bisect_boundary(shoot(0.5, dc_a, t_target=2.0),
                                        shoot(5.0, dc_a, t_target=2.0)),
        ThresholdScan: scan_thresholds(shoot_many(np.logspace(-0.3, 0.7, 16),
                                                  dc_a, t_target=2.0)),
        ConnectingOrbit: orbit_a,
    }


@pytest.mark.parametrize("cls", list(KEYS), ids=lambda cls: cls.__name__)
def test_record_json_schema(records, cls):
    rec = records[cls]
    assert type(rec) is cls
    d = rec.to_dict()
    assert set(d) == KEYS[cls]
    assert canonical_json(d).endswith("}\n")


@pytest.mark.parametrize("x,text", [
    (math.nan, "nan"), (-math.nan, "nan"), (math.inf, "inf"),
    (-math.inf, "-inf"), (-0.0, "-0"), (5e-324, "4.9406564584124654e-324"),
    (0.1, "0.10000000000000001"), (np.float64(-math.inf), "-inf"),
])
def test_fmt_float_strings(x, text):
    assert fmt_float(x) == text


def test_fmt_float_rejects_bool():
    with pytest.raises(TypeError, match="bool"):
        fmt_float(True)


def _oracle_rows(table, end: str) -> bytes:
    return "".join("".join("%.17g," % v for v in row) + end
                   for row in table.tolist()).encode()


def test_array_renderer_is_percent_17g():
    rng = np.random.default_rng(38)
    bits = rng.integers(0, 2 ** 64, 100_000, dtype=np.uint64)
    tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
    # odd m 2^e whose decimal text ends in a 5 just past the 17th digit:
    # ties, which round half to even where 10^(16 - k) is exact (a
    # 53-bit m, 2^e = 1/4) and keep fmt_float where it is not (3 2^-24)
    odd = rng.integers(2 ** 51, 2 ** 52, 40, dtype=np.int64) * 2 + 1
    dyadic = np.concatenate((
        np.ldexp(odd[:, None].astype(float), np.arange(-64, 12)).ravel(),
        np.ldexp(np.arange(1.0, 64.0, 2.0)[:, None],
                 np.arange(-80, 0)).ravel()))
    special = np.array([0.0, 5e-324, 2.2250738585072009e-308,
                        2.2250738585072014e-308, 1.7976931348623157e308,
                        1e-290, 1e290, math.nan])
    near = np.concatenate((tens, dyadic, special))
    with np.errstate(over="ignore"):  # the neighbour of max is inf
        near = np.concatenate((near, np.nextafter(near, 0.0),
                               np.nextafter(near, math.inf)))
    x = np.concatenate((bits.view(np.float64), near, -near,
                        [math.inf, -math.inf, -math.nan]))[:, None]
    assert b"".join(fmt_rows(x, "\n")) == _oracle_rows(x, "\n")
    # the ties of an inexact scale, 1.78813934326171875e-07 and kin
    ties = np.ldexp(np.arange(3.0, 16.0, 2.0), -24)
    assert _digits17(ties)[2].all()
    # log10 names the wrong decade at some of these; the corrected k
    # keeps them all on the array path
    powers = tens[(tens > 1e-290) & (tens < 1e290)]
    assert not _digits17(np.concatenate(
        (powers, np.nextafter(powers, 0.0),
         np.nextafter(powers, math.inf))))[2].any()


def test_sweep_cell_renders_in_arrays(config_a, dc_a, record_property):
    # a CONFIG_A sweep cell: the values that keep fmt_float are a handful
    cfg = RunConfig(config_a)
    traj = seed_and_integrate(dc_a, "infinity", (cfg.t_min, cfg.t_max),
                              cfg.integrator)
    table = np.column_stack((traj.t, traj.r, traj.u, traj.du_dr, traj.v,
                             traj.vdot))
    fallbacks = int(_digits17(table.ravel())[2].sum())
    record_property("fallbacks", fallbacks)
    print(f"{fallbacks} of {table.size} values keep fmt_float")
    assert fallbacks <= 4
    assert b"".join(fmt_rows(table, "0\n")) == _oracle_rows(table, "0\n")
