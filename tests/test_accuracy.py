"""Accuracy of the default IntegratorConfig against exact oracles.

The defaults are the cheapest point of a work-precision grid that keeps
the exact oracles well inside their acceptance bounds (see the
IntegratorConfig docstring); these tests hold them to that choice.
"""

import numpy as np
import pytest

from emdenlab import (
    ProblemParams,
    TerminationKind,
    derive_constants,
    run_acceptance,
    shoot_many,
)
from emdenlab.acceptance import TOLERANCES

# factor by which each oracle error sits inside its acceptance bound
MARGIN = 10.0


def test_crossing_time_is_translation_invariant():
    # one power term: in the alpha1 frame the p-term is autonomous, so the
    # shot u(0) = a is the u(0) = 1 shot translated by -ln(a)/alpha1 and
    # t_cross(a) + ln(a)/alpha1 does not depend on a
    params = ProblemParams(n=5, p=1.9, q=2.0, k2=0.0)
    dc = derive_constants(params)
    a = np.logspace(-2.0, 2.0, 41)
    ends = [s.trajectory.termination
            for s in shoot_many(a, params, dc, t_target=40.0)]
    assert {e.kind for e in ends} == {TerminationKind.POSITIVITY_LOST}
    shifted = np.array([e.t for e in ends]) + np.log(a) / dc.alpha1
    assert np.ptp(shifted) < 1e-10


@pytest.mark.parametrize("number, key, subcheck", [
    (1, "c1_profile_rel", "max_rel_err"),
    (2, "c2_profile_rel", "profile_rel_err"),
    (7, "c7_balance", None),
])
def test_oracle_error_sits_inside_its_bound_with_margin(lab, number, key,
                                                        subcheck):
    res = run_acceptance(only=[number],
                         overrides={key: TOLERANCES[key] / MARGIN},
                         lab=lab)[0]
    subs = [(name, ok, detail) for name, ok, detail in res.subchecks
            if subcheck in (None, name)]
    assert subs and all(ok for _, ok, _ in subs), subs
