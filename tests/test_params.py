import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emdenlab import (
    ProblemParams,
    aubin_talenti_profile,
    classify_regime,
    derive_constants,
)
from emdenlab.acceptance import sample_balance_configs
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

    @pytest.mark.parametrize("q", [1.93, 1.95, 1.97])
    @pytest.mark.parametrize("p", [1.88, 1.9, 1.92])
    def test_omega_sq_reads_the_frame_equation(self, p, q):
        # the README sweep's cells: omega_sq is the discriminant of
        # mu^2 + damping mu + L = 0 with forced_expansion's restoring L
        dc = derive_constants(ProblemParams(n=5, p=p, q=q, l1=0.0, l2=-0.5))
        eq = dc.end("infinity").equation
        restoring = sum(eq.lin * (exp_ - 1.0) for exp_, e, _ in eq.terms
                        if e == 0.0)
        assert dc.omega_sq == restoring - 0.25 * eq.damping ** 2

    def test_negative_discriminant_leaves_omega_none(self):
        # large alpha1 pushes the linearization discriminant positive,
        # c1^2/4 > lin (p-1) makes omega_sq negative
        params = ProblemParams(n=3, p=1.2, q=5.0, l1=0.0, l2=-0.5)
        dc = derive_constants(params)
        assert dc.alpha1 == pytest.approx(10.0)
        assert dc.lambda1 is None
        assert dc.omega_sq < 0.0
        assert dc.omega is None

    def test_end_lookup(self, dc_a):
        assert dc_a.end("infinity").lam == dc_a.lambda1
        # the origin frame forces the p-term at delta2
        assert dc_a.end("origin").equation.terms[0] \
            == (dc_a.params.p, dc_a.delta2, 1.0)
        with pytest.raises(ValueError, match="end must be"):
            dc_a.end("middle")

    def test_end_lam_needs_its_autonomous_term(self):
        # p-term off: lambda1 exists but is no equilibrium at infinity
        dc = derive_constants(ProblemParams(n=5, p=1.9, q=1.95, l2=-0.5,
                                            k1=0.0))
        assert dc.lambda1 is not None
        assert dc.end("infinity").lam is None
        assert dc.end("origin").lam == dc.lambda2

    def test_rejects_active_unit_exponent(self):
        with pytest.raises(ValueError):
            ProblemParams(n=5, p=1.0, q=2.0)

    @pytest.mark.parametrize("kwargs,name", [
        (dict(p=1.0, q=3.0, k1=0), "p"),
        (dict(p=3.0, q=1.0, k2=0), "q"),
        (dict(p=0.5, q=3.0, k1=0), "p"),
    ])
    def test_switched_off_exponent_must_exceed_1(self, kwargs, name):
        # both frames are derived from p and q, on or off; p = 1 used to
        # divide by zero in derive_constants and q = 1 to give alpha2 inf
        with pytest.raises(ValueError, match=f"^{name} must exceed 1, got "):
            ProblemParams(n=5, **kwargs)


def single_term(n, l, exp):
    """The constants of u'' + (n-1)/r u' + r^l u^exp = 0, whose exact
    singular profile is lambda1 r^{-alpha1}."""
    return derive_constants(ProblemParams(n, p=exp, q=exp + 1.0, l1=l,
                                          k2=0.0))


class TestSingleTermOracles:
    @pytest.mark.parametrize("n,l,exp,alpha,lam", [
        (5, 0.0, 3.0, 1.0, 1.4142135623730951),
        (3, 0.0, 5.0, 0.5, 0.70710678118654752),
        (5, -1.0, 2.0, 1.0, 2.0),
    ])
    def test_exact_profiles(self, n, l, exp, alpha, lam):
        dc = single_term(n, l, exp)
        assert dc.alpha1 == pytest.approx(alpha, rel=1e-15)
        assert dc.lambda1 == pytest.approx(lam, rel=1e-14)

    def test_undefined_amplitude_is_none(self):
        # alpha = 2 equals n-2 in n=4, so alpha (n-2-alpha) = 0
        dc = single_term(4, 0.0, 2.0)
        assert dc.lambda1 is None
        assert dc.end("infinity").lam is None

    def test_aubin_talenti_point_values(self):
        prof = aubin_talenti_profile(3)
        assert prof(1.0) == pytest.approx(0.9306048591020996, rel=1e-14)
        prof5 = aubin_talenti_profile(5)
        assert prof5(0.0) == pytest.approx(15.0 ** 0.75, rel=1e-15)

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

    def test_equal_weights_are_the_papers_equation(self):
        # (1.4): l1 = l2 = 0, the defaults; the theorems are stated for
        # l2 < l1, so no flag is raised, though serrin1 < p < q holds
        params = ProblemParams(n=5, p=1.9, q=2.5)
        dc = derive_constants(params)
        assert dc.alpha2 < dc.alpha1 and dc.delta < 0.0 < dc.delta2
        fl = classify_regime(params, dc)
        assert (fl.theorem1_applies, fl.theorem2_case, fl.theorem3_case) \
            == (False, "none", "none")
        assert fl.criticality_margins["p_minus_serrin1"] > 0.0

    def test_constants_of_another_parameter_set_rejected(self, config_a):
        # n = 6 constants would read CONFIG_A as theorem3_case none
        other = derive_constants(replace(config_a, n=6))
        with pytest.raises(ValueError, match="constants of"):
            classify_regime(config_a, other)


BAD_PARAMS = [
    (dict(n=2, p=1.9, q=1.95), "n must be an integer >= 3"),
    (dict(n=5, p=1.95, q=1.9), "need 1 < p < q"),
    (dict(n=5, p=1.9, q=1.95, l1=-0.5, l2=0.0), "need -2 < l2 <= l1"),
    (dict(n=5, p=1.9, q=1.95, l2=-2.5), "need -2 < l2 <= l1"),
    (dict(n=5, p=1.9, q=1.95, l1=0.5), "need -2 < l2 <= l1 <= 0"),
    (dict(n=5, p=1.9, q=1.95, k1=0.0, k2=0.0), "at least one power"),
    (dict(n=5, p=1.9, q=1.95, k1=0.5), "toggles"),
    (dict(n=5, p=0.9, q=1.95), "p must exceed 1"),
    (dict(n=5, p=1.9, q=10 ** 400), "q must be a finite number"),
]


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs,reason", BAD_PARAMS,
        ids=[f"kwargs{i}" for i in range(len(BAD_PARAMS))])
    def test_rejects_bad_params(self, kwargs, reason):
        with pytest.raises(ValueError, match=reason):
            ProblemParams(**kwargs)

    @pytest.mark.parametrize("name,value", [
        ("n", True), ("l1", False), ("l2", np.False_), ("k1", True),
        ("k2", np.True_),
        ("n", np.int64(5)), ("p", np.float32(1.875)), ("q", np.float64(1.95)),
        ("l1", np.int64(0)), ("l2", np.float32(-0.5)), ("k1", np.int64(1)),
        ("k2", np.float64(1.0)),
    ])
    def test_bool_is_not_a_number_and_numpy_numbers_are(self, name, value):
        # a bool is refused where its int value would pass; a numpy
        # number is kept as the Python number it equals, which the
        # params' JSON and run id take
        kwargs = {"n": 5, "p": 1.9, "q": 1.95, "l2": -0.5, name: value}
        if isinstance(value, (bool, np.bool_)):
            with pytest.raises(ValueError, match=f"^{name} must be"):
                ProblemParams(**kwargs)
            return
        params = ProblemParams(**kwargs)
        got = getattr(params, name)
        assert got == value and type(got) is type(value.item())

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
    # criterion 7's draw 4: l2 - (q-1) alpha2 + 2 rounds to 2.2e-16
    @example(sample_balance_configs()[4][0])
    @settings(max_examples=200, deadline=None)
    def test_frame_exponent_identities(self, params):
        dc = derive_constants(params)
        # the defining property of alpha1/alpha2: their own term is
        # autonomous in their frame, bit for bit
        p, q, l1, l2 = params.p, params.q, params.l1, params.l2
        assert frame_exp(p, l1, dc.alpha1) == 0.0
        assert frame_exp(q, l2, dc.alpha2) == 0.0
        # delta/delta2 are the cross-term exponents
        assert frame_exp(q, l2, dc.alpha1) == dc.delta
        assert frame_exp(p, l1, dc.alpha2) == dc.delta2

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
            eq = end.equation
            assert eq.alpha == pytest.approx(alpha, rel=1e-15)
            prod = alpha * (n - 2.0 - alpha)
            if prod > 0.0:
                assert end.lam == pytest.approx(
                    prod ** (1.0 / (exp_ - 1.0)), rel=1e-13)
            else:
                assert end.lam is None
            assert eq.lin == pytest.approx(alpha * (n - 2.0 - alpha),
                                           rel=1e-13, abs=1e-13)
            assert eq.damping == pytest.approx(n - 2.0 - 2.0 * alpha,
                                               rel=1e-13, abs=1e-13)
        assert dc.delta == pytest.approx(
            (2.0 + l1) * (1.0 - q) / (p - 1.0) + 2.0 + l2, rel=1e-13,
            abs=1e-13)
        assert dc.delta2 == pytest.approx((p - 1.0) * (alpha1 - alpha2),
                                          rel=1e-13, abs=1e-13)
        # each frame freezes its own term and forces the other one
        assert inf.equation.terms == ((p, 0.0, 1.0), (q, dc.delta, 1.0))
        assert ori.equation.terms == ((p, dc.delta2, 1.0), (q, 0.0, 1.0))
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
