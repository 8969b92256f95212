"""The JSON schema of every result record (serialize.Record)."""

import math

import numpy as np
import pytest

from emdenlab import apriori_bound_report, bisect_boundary, canonical_json, \
    classify_regime, fmt_float, scan_thresholds, shoot, shoot_many
from emdenlab.classify import ClassificationReport, OscillationEnvelope
from emdenlab.energy import BoundReport
from emdenlab.params import DerivedConstants, RegimeFlags
from emdenlab.shooting import BoundaryResult, ConnectingOrbit, ShotResult, \
    ThresholdScan

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
