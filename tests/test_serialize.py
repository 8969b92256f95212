"""The JSON schema of every result record (serialize.Record)."""

import numpy as np
import pytest

from emdenlab import apriori_bound_report, bisect_boundary, canonical_json, \
    classify_regime, scan_thresholds, shoot
from emdenlab.classify import ClassificationReport, OscillationEnvelope
from emdenlab.energy import BoundReport
from emdenlab.params import DerivedConstants, RegimeFlags
from emdenlab.shooting import BoundaryResult, ConnectingOrbit, ShotResult, \
    ThresholdScan

# the keys each record's to_dict() wrote when it was written out by hand:
# trajectories, back-references and bisection widths stay out, the
# derived n_extrema, omega and rel_width go in
KEYS = {
    ClassificationReport: {"end", "kind", "window", "fitted_constant",
                           "residual", "rate", "diagnostics"},
    OscillationEnvelope: {"end", "times_min", "values_min", "times_max",
                          "values_max", "mu1", "mu2", "spread_min",
                          "spread_max", "potential", "b_mu1", "b_mu2",
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
    shot = shoot(1.0, config_a, dc_a)
    return {
        ClassificationReport: shot.report,
        OscillationEnvelope: lab.envelope_b["envelope"],
        DerivedConstants: dc_a,
        RegimeFlags: classify_regime(config_a, dc_a),
        BoundReport: apriori_bound_report(orbit_a.trajectory, dc_a),
        ShotResult: shot,
        BoundaryResult: bisect_boundary(0.5, 5.0, config_a, dc_a,
                                        t_target=2.0),
        ThresholdScan: scan_thresholds(np.logspace(-0.3, 0.7, 16), config_a,
                                       dc_a, t_target=2.0),
        ConnectingOrbit: orbit_a,
    }


@pytest.mark.parametrize("cls", list(KEYS), ids=lambda cls: cls.__name__)
def test_record_json_schema(records, cls):
    rec = records[cls]
    assert type(rec) is cls
    d = rec.to_dict()
    assert set(d) == KEYS[cls]
    assert canonical_json(d).endswith("}\n")
