import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emdenlab import (
    ProblemParams,
    UndefinedLambdaError,
    aubin_talenti_profile,
    classify_regime,
    derive_constants,
    exact_single_term_singular,
)
from emdenlab.params import frame_exp


class TestDerivedConstants:
    def test_config_a_closed_forms(self, dc_a):
        assert dc_a.alpha1 == pytest.approx(2.2222222222222222, rel=1e-15)
        assert dc_a.alpha2 == pytest.approx(1.5789473684210526, rel=1e-15)
        assert dc_a.lambda1 == pytest.approx(1.8367404753952032, rel=1e-14)
        assert dc_a.lambda2 == pytest.approx(2.3412637106373519, rel=1e-14)
        assert dc_a.delta == pytest.approx(-0.61111111111111111, rel=1e-15)
        assert dc_a.delta2 == pytest.approx(0.57894736842105263, rel=1e-15)
        assert dc_a.omega_sq == pytest.approx(1.0339506172839506, rel=1e-14)
        assert dc_a.serrin1 == pytest.approx(5.0 / 3.0, rel=1e-15)
        assert dc_a.sobolev1 == pytest.approx(7.0 / 3.0, rel=1e-15)
        assert dc_a.sobolev2 == pytest.approx(2.0, rel=1e-15)
        assert dc_a.c1coef == pytest.approx(-13.0 / 9.0, rel=1e-15)
        assert dc_a.omega == pytest.approx(math.sqrt(1.0339506172839506),
                                           rel=1e-14)

    def test_config_b_exact_values(self, dc_b):
        assert dc_b.alpha2 == 1.5
        assert dc_b.lambda2 == 2.25
        assert dc_b.delta == pytest.approx(-0.72222222222222222, rel=1e-15)
        assert dc_b.delta2 == pytest.approx(0.65, rel=1e-15)

    def test_config_c_closed_forms(self, dc_c):
        assert dc_c.alpha1 == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert dc_c.alpha2 == 0.75
        assert dc_c.lambda1 == pytest.approx(1.7029098497634513, rel=1e-14)
        assert dc_c.lambda2 == pytest.approx(1.299038105676658, rel=1e-14)
        assert dc_c.delta == pytest.approx(-1.1666666666666667, rel=1e-15)
        assert dc_c.delta2 == pytest.approx(0.875, rel=1e-15)
        assert dc_c.omega_sq == pytest.approx(3.3055555555555556, rel=1e-14)

    def test_negative_discriminant_leaves_omega_none(self):
        # large alpha1 pushes the linearization discriminant positive,
        # c1^2/4 > (2+l1)(n-2-alpha1) makes omega_sq negative
        params = ProblemParams(n=3, p=1.2, q=5.0, l1=0.0, l2=-0.5)
        dc = derive_constants(params)
        assert dc.alpha1 == pytest.approx(10.0)
        assert dc.lambda1 is None
        assert dc.omega_sq < 0.0
        assert dc.omega is None

    def test_end_lookup(self, dc_a):
        assert dc_a.end("infinity").lam == dc_a.lambda1
        assert dc_a.end("origin").rate == dc_a.delta2
        with pytest.raises(ValueError, match="end must be"):
            dc_a.end("middle")
        with pytest.raises(ValueError, match="frame"):
            dc_a.frame_end(0.0)

    def test_rejects_active_unit_exponent(self):
        with pytest.raises(ValueError):
            ProblemParams(n=5, p=1.0, q=2.0)


class TestSingleTermOracles:
    @pytest.mark.parametrize("n,l,exp,alpha,lam", [
        (5, 0.0, 3.0, 1.0, 1.4142135623730951),
        (3, 0.0, 5.0, 0.5, 0.70710678118654752),
        (5, -1.0, 2.0, 1.0, 2.0),
    ])
    def test_exact_profiles(self, n, l, exp, alpha, lam):
        a, m = exact_single_term_singular(n, l, exp)
        assert a == pytest.approx(alpha, rel=1e-15)
        assert m == pytest.approx(lam, rel=1e-14)

    def test_undefined_amplitude_raises(self):
        # alpha = 2 equals n-2 in n=4, so alpha (n-2-alpha) = 0
        with pytest.raises(UndefinedLambdaError):
            exact_single_term_singular(4, 0.0, 2.0)

    def test_unit_exponent_raises(self):
        with pytest.raises(ValueError):
            exact_single_term_singular(5, 0.0, 1.0)

    def test_aubin_talenti_point_values(self):
        prof = aubin_talenti_profile(3)
        assert prof(1.0) == pytest.approx(0.9306048591020996, rel=1e-14)
        prof5 = aubin_talenti_profile(5)
        assert prof5(0.0) == pytest.approx(15.0 ** 0.75, rel=1e-15)
        # derivative vanishes at the center and is negative outward
        assert prof5.derivative(0.0) == 0.0
        assert prof5.derivative(1.0) < 0.0

    def test_profile_solves_equation(self):
        # residual of u'' + (n-1)/r u' + u^{(n+2)/(n-2)} at a few radii
        n = 5
        prof = aubin_talenti_profile(n)
        # h much below 1e-4 lets float cancellation dominate the residual
        h = 1e-4
        for r in (0.3, 1.0, 2.7):
            upp = (prof(r + h) - 2 * prof(r) + prof(r - h)) / h ** 2
            up = (prof(r + h) - prof(r - h)) / (2 * h)
            res = upp + (n - 1) / r * up + prof(r) ** ((n + 2) / (n - 2))
            assert abs(res) < 1e-5


class TestRegimeFlags:
    def test_config_a_flags(self, config_a, dc_a):
        fl = classify_regime(config_a, dc_a)
        assert fl.theorem1_applies
        assert fl.theorem2_case == "none"
        assert fl.theorem3_case == "singular_at_infinity"
        assert fl.criticality_margins["q_minus_sobolev2"] < 0.0

    def test_config_b_critical_q(self, config_b, dc_b):
        fl = classify_regime(config_b, dc_b)
        assert not fl.theorem1_applies
        assert fl.theorem2_case == "critical_q"
        assert fl.theorem3_case == "none"

    def test_config_c_origin_case(self, config_c, dc_c):
        fl = classify_regime(config_c, dc_c)
        assert fl.theorem1_applies
        assert fl.theorem2_case == "none"
        assert fl.theorem3_case == "singular_at_origin"

    def test_eps_crit_window(self, config_b):
        base = dict(n=5, p=1.9, l1=0.0, l2=-0.5)
        near = ProblemParams(q=2.0 + 5e-13, **base)
        far = ProblemParams(q=2.0 + 1e-9, **base)
        assert classify_regime(near, derive_constants(near)) \
            .theorem2_case == "critical_q"
        assert classify_regime(far, derive_constants(far)) \
            .theorem2_case == "none"

    def test_critical_p_detected(self):
        # p at sobolev1 = (n+2)/(n-2) with subcritical q untouched
        params = ProblemParams(n=5, p=7.0 / 3.0, q=2.5, l1=0.0, l2=-0.5)
        fl = classify_regime(params, derive_constants(params))
        assert fl.theorem2_case == "critical_p"

    def test_single_term_has_no_theorem_flags(self):
        params = ProblemParams(n=5, p=3.0, q=2.0, k2=0.0)
        fl = classify_regime(params, derive_constants(params))
        assert not fl.theorem1_applies
        assert fl.theorem2_case == "none"
        assert fl.theorem3_case == "none"


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(n=2, p=1.9, q=1.95),
        dict(n=5, p=1.95, q=1.9),
        dict(n=5, p=1.9, q=1.95, l1=-0.5, l2=0.0),
        dict(n=5, p=1.9, q=1.95, l2=-2.5),
        dict(n=5, p=1.9, q=1.95, l1=0.5),
        dict(n=5, p=1.9, q=1.95, k1=0.0, k2=0.0),
        dict(n=5, p=1.9, q=1.95, k1=0.5),
        dict(n=5, p=0.9, q=1.95),
    ])
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(ValueError):
            ProblemParams(**kwargs)

    def test_single_term_ignores_inactive_side(self):
        # q and l2 are irrelevant with k2 = 0
        params = ProblemParams(n=5, p=3.0, q=1.5, l2=-1.9, k2=0.0)
        assert params.active_terms() == [(3.0, 0.0, 1.0)]


@st.composite
def param_sets(draw):
    n = draw(st.integers(min_value=3, max_value=8))
    l1 = draw(st.floats(min_value=-0.95, max_value=0.0))
    dl = draw(st.floats(min_value=0.01, max_value=0.9))
    l2 = max(l1 - dl, -1.9)
    if not l2 < l1:
        l2 = l1 - 0.01
    p = draw(st.floats(min_value=1.05, max_value=4.0))
    dq = draw(st.floats(min_value=0.01, max_value=2.0))
    return ProblemParams(n=n, p=p, q=p + dq, l1=l1, l2=l2)


class TestIdentities:
    @given(param_sets())
    @settings(max_examples=200, deadline=None)
    def test_frame_exponent_identities(self, params):
        dc = derive_constants(params)
        scale = max(1.0, abs(dc.alpha1) * params.p, abs(dc.alpha2) * params.q)
        # the defining property of alpha1/alpha2: their own term is
        # autonomous in their frame
        p, q, l1, l2 = params.p, params.q, params.l1, params.l2
        assert abs(frame_exp(p, l1, dc.alpha1)) <= 1e-13 * scale
        assert abs(frame_exp(q, l2, dc.alpha2)) <= 1e-13 * scale
        # delta/delta2 are the cross-term exponents
        assert frame_exp(q, l2, dc.alpha1) == pytest.approx(
            dc.delta, rel=1e-10, abs=1e-12 * scale)
        assert frame_exp(p, l1, dc.alpha2) == pytest.approx(
            dc.delta2, rel=1e-10, abs=1e-12 * scale)

    @given(param_sets())
    @settings(max_examples=200, deadline=None)
    def test_amplitude_fixed_point(self, params):
        dc = derive_constants(params)
        if dc.lambda1 is not None:
            assert dc.lambda1 ** (params.p - 1.0) == pytest.approx(
                dc.alpha1 * (params.n - 2.0 - dc.alpha1), rel=1e-11)
        if dc.lambda2 is not None:
            assert dc.lambda2 ** (params.q - 1.0) == pytest.approx(
                dc.alpha2 * (params.n - 2.0 - dc.alpha2), rel=1e-11)

    @given(param_sets())
    @settings(max_examples=200, deadline=None)
    def test_end_records_match_closed_forms(self, params):
        dc = derive_constants(params)
        n, p, q, l1, l2 = params.n, params.p, params.q, params.l1, params.l2
        alpha1, alpha2 = (2.0 + l1) / (p - 1.0), (2.0 + l2) / (q - 1.0)
        inf, ori = dc.end("infinity"), dc.end("origin")
        for end, alpha, exp_ in ((inf, alpha1, p), (ori, alpha2, q)):
            assert end.alpha == pytest.approx(alpha, rel=1e-15)
            prod = alpha * (n - 2.0 - alpha)
            if prod > 0.0:
                assert end.lam == pytest.approx(
                    prod ** (1.0 / (exp_ - 1.0)), rel=1e-13)
            else:
                assert end.lam is None
            assert end.damping == pytest.approx(n - 2.0 - 2.0 * alpha,
                                                rel=1e-13, abs=1e-13)
            assert dc.frame_end(end.alpha) is end
        assert inf.rate == pytest.approx(
            (2.0 + l1) * (1.0 - q) / (p - 1.0) + 2.0 + l2, rel=1e-13,
            abs=1e-13)
        assert ori.rate == pytest.approx((p - 1.0) * (alpha1 - alpha2),
                                         rel=1e-13, abs=1e-13)
        # each frame freezes its own term and forces the other one
        assert (inf.auto_exp, inf.auto_k, inf.force_exp, inf.force_k) \
            == (p, params.k1, q, params.k2)
        assert (ori.auto_exp, ori.auto_k, ori.force_exp, ori.force_k) \
            == (q, params.k2, p, params.k1)
        # infinity is the large-t side with the regular law r^{-(n-2)};
        # the origin is the small-t side with u flat
        assert (inf.side, inf.regular_exp) == (1, n - 2.0)
        assert (ori.side, ori.regular_exp) == (-1, 0.0)

    @given(param_sets())
    @settings(max_examples=200, deadline=None)
    def test_threshold_ordering(self, params):
        dc = derive_constants(params)
        assert dc.serrin1 < dc.sobolev1
        assert dc.sobolev2 < dc.sobolev1
