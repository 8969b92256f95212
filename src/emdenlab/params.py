"""Parameter algebra for the double-power Emden-Fowler radial equation.

The equation under study is

    u'' + (n-1)/r u' + k1 r^{l1} u^p + k2 r^{l2} u^q = 0,   r > 0,

with n >= 3, 1 < p < q and -2 < l2 < l1 <= 0 when both power terms are
active.  Everything in this module is closed-form algebra over the
parameter quintuple: scaling exponents alpha1/alpha2, the exact singular
amplitudes lambda1/lambda2, the Serrin and Sobolev-type thresholds, the
log-frame forcing exponents delta/delta2, and the regime flags that decide
which asymptotic theorems apply.  The pairing of each end with its frame
(alpha, lambda, forced rate, damping, well) is the End record,
dc.end("infinity") / dc.end("origin"); no other module re-derives it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .serialize import SKIP, Record


class UndefinedLambdaError(ValueError):
    """alpha (n-2-alpha) <= 0, so the singular amplitude does not exist."""


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


@dataclass(frozen=True)
class ProblemParams:
    """The quintuple (n, p, q, l1, l2) plus the k1/k2 term toggles.

    k1 and k2 take values in {0, 1}; switching one off gives the
    single-term degenerate modes used as closed-form oracles.
    """

    n: int
    p: float
    q: float
    l1: float = 0.0
    l2: float = 0.0
    k1: float = 1.0
    k2: float = 1.0

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 3:
            raise ValueError(f"n must be an integer >= 3, got {self.n!r}")
        for name in ("p", "q", "l1", "l2"):
            if not _is_number(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number")
        if self.k1 not in (0, 1, 0.0, 1.0) or self.k2 not in (0, 1, 0.0, 1.0):
            raise ValueError("k1 and k2 are toggles in {0, 1}")
        if not (self.k1 or self.k2):
            raise ValueError("at least one power term must be active")
        if self.k1 and self.k2:
            if not (1.0 < self.p < self.q):
                raise ValueError(f"need 1 < p < q, got p={self.p}, q={self.q}")
            if not (-2.0 < self.l2 < self.l1 <= 0.0):
                raise ValueError(
                    f"need -2 < l2 < l1 <= 0, got l1={self.l1}, l2={self.l2}")
        else:
            exp, wt = (self.p, self.l1) if self.k1 else (self.q, self.l2)
            if not exp > 1.0:
                raise ValueError(f"active exponent must exceed 1, got {exp}")
            if not wt > -2.0:
                raise ValueError(f"active weight must exceed -2, got {wt}")

    def active_terms(self):
        """(exponent, weight, toggle) triples of the active power terms."""
        terms = []
        if self.k1:
            terms.append((self.p, self.l1, self.k1))
        if self.k2:
            terms.append((self.q, self.l2, self.k2))
        return terms


def _amplitude(alpha: float, n: int, exponent: float):
    """lambda = [alpha (n-2-alpha)]^{1/(exponent-1)}, None when undefined."""
    prod = alpha * (n - 2 - alpha)
    if prod <= 0.0:
        return None
    return prod ** (1.0 / (exponent - 1.0))


def frame_exp(exponent: float, weight: float, alpha: float) -> float:
    """Exponent of e^{.t} multiplying the power term r^weight u^exponent
    in the alpha log-frame: weight - (exponent - 1) alpha + 2.

    It vanishes identically for the p-term at alpha1 and the q-term at
    alpha2; the cross terms give delta and delta2.
    """
    return weight - (exponent - 1.0) * alpha + 2.0


_FRAME_TOL = 1e-9


@dataclass(frozen=True)
class End:
    """One end of the radial line paired with its singular frame.

    Infinity lives in the alpha1 frame: amplitude lambda1, the p-term
    autonomous, the q-term forced at rate delta, well b1.  The origin
    lives in the alpha2 frame: lambda2, the q-term autonomous, the p-term
    forced at rate delta2, well b.  lam is None when the amplitude is
    undefined; damping is the frame's n-2-2 alpha.  side is the end's
    side of the t-axis (+1 large t, -1 small t) and regular_exp the s of
    its regular law u ~ c r^{-s} (n-2 at infinity, 0 at the origin).
    """

    name: str
    side: int
    regular_exp: float
    alpha: float
    lam: float | None
    rate: float
    auto_exp: float
    auto_k: float
    damping: float
    force_exp: float
    force_k: float
    well: str


@dataclass(frozen=True)
class DerivedConstants(Record):
    """Closed-form quantities attached to a parameter set.

    lambda1/lambda2 are None when alpha (n-2-alpha) <= 0 (no real
    amplitude); omega_sq carries its sign, the root is taken only when
    positive.  ends holds the (infinity, origin) End records, reached
    by name as dc.end(name) or by frame exponent as dc.frame_end(alpha).
    """

    params: ProblemParams = field(metadata=SKIP)
    alpha1: float
    alpha2: float
    lambda1: float | None
    lambda2: float | None
    serrin1: float
    sobolev1: float
    sobolev2: float
    c1coef: float
    c2coef: float
    delta: float
    delta2: float
    omega_sq: float
    ends: tuple = field(metadata=SKIP)

    JSON_EXTRA = ("omega",)

    def end(self, name: str) -> End:
        for e in self.ends:
            if e.name == name:
                return e
        raise ValueError(f"end must be 'origin' or 'infinity', got {name!r}")

    def frame_end(self, alpha: float) -> End:
        """The end whose singular frame has exponent alpha (within 1e-9)."""
        for e in self.ends:
            if abs(alpha - e.alpha) <= _FRAME_TOL:
                return e
        raise ValueError(
            f"energy accounting is defined in the alpha1 ({self.alpha1}) or "
            f"alpha2 ({self.alpha2}) frame, not alpha={alpha}")

    @property
    def omega(self) -> float | None:
        return math.sqrt(self.omega_sq) if self.omega_sq > 0.0 else None


def derive_constants(params: ProblemParams) -> DerivedConstants:
    """All Section-1 closed forms for a parameter set.

    alpha1 = (2+l1)/(p-1), alpha2 = (2+l2)/(q-1),
    lambda_i = [alpha_i (n-2-alpha_i)]^{1/(exp-1)},
    delta = (2+l1)(1-q)/(p-1) + 2 + l2 (the q-term exponent in the
    alpha1 frame), delta2 = (p-1)(alpha1-alpha2) (the p-term exponent in
    the alpha2 frame), omega_sq = (2+l1)(n-2-alpha1) - (n-2-2 alpha1)^2/4.
    """
    n, p, q, l1, l2 = params.n, params.p, params.q, params.l1, params.l2
    k1, k2 = params.k1, params.k2
    if k1 and p == 1.0:
        raise ValueError("p = 1 makes alpha1 undefined")
    if k2 and q == 1.0:
        raise ValueError("q = 1 makes alpha2 undefined")
    alpha1 = (2.0 + l1) / (p - 1.0) if p != 1.0 else math.inf
    alpha2 = (2.0 + l2) / (q - 1.0) if q != 1.0 else math.inf
    lambda1 = _amplitude(alpha1, n, p) if math.isfinite(alpha1) else None
    lambda2 = _amplitude(alpha2, n, q) if math.isfinite(alpha2) else None
    c1coef = n - 2.0 - 2.0 * alpha1
    c2coef = n - 2.0 - 2.0 * alpha2
    delta = (2.0 + l1) * (1.0 - q) / (p - 1.0) + 2.0 + l2
    delta2 = (p - 1.0) * (alpha1 - alpha2)
    return DerivedConstants(
        params=params,
        alpha1=alpha1,
        alpha2=alpha2,
        lambda1=lambda1,
        lambda2=lambda2,
        serrin1=(n + l1) / (n - 2.0),
        sobolev1=(n + 2.0 + 2.0 * l1) / (n - 2.0),
        sobolev2=(n + 2.0 + 2.0 * l2) / (n - 2.0),
        c1coef=c1coef,
        c2coef=c2coef,
        delta=delta,
        delta2=delta2,
        omega_sq=(2.0 + l1) * (n - 2.0 - alpha1)
        - 0.25 * (n - 2.0 - 2.0 * alpha1) ** 2,
        ends=(End("infinity", 1, n - 2.0, alpha1, lambda1, delta, p, k1,
                  c1coef, q, k2, "b1"),
              End("origin", -1, 0.0, alpha2, lambda2, delta2, q, k2, c2coef,
                  p, k1, "b")),
    )


@dataclass(frozen=True)
class RegimeFlags(Record):
    """Which of the asymptotic theorems apply to a parameter set.

    theorem2_case: 'none' | 'critical_q' | 'critical_p'
    theorem3_case: 'none' | 'singular_at_infinity' | 'singular_at_origin'
    """

    theorem1_applies: bool
    theorem2_case: str
    theorem3_case: str
    criticality_margins: dict = field(default_factory=dict)


# criticality is equality with a Sobolev-type threshold within EPS_CRIT
EPS_CRIT = 1e-12


def classify_regime(params: ProblemParams, dc: DerivedConstants,
                    eps_crit: float = EPS_CRIT) -> RegimeFlags:
    """Regime flags from the exponent thresholds.

    theorem1_applies needs the Serrin bound serrin1 < p < q with both
    exponents away from their critical values.  Criticality means exact
    equality with a Sobolev-type threshold, hence the tight default
    eps_crit.  All theorem-keyed flags require both terms active.
    """
    p, q = params.p, params.q
    margins = {
        "p_minus_sobolev1": p - dc.sobolev1,
        "q_minus_sobolev2": q - dc.sobolev2,
        "p_minus_serrin1": p - dc.serrin1,
        "abs_q_minus_sobolev2": abs(q - dc.sobolev2),
    }
    if not (params.k1 and params.k2):
        return RegimeFlags(False, "none", "none", margins)

    q_critical = abs(q - dc.sobolev2) <= eps_crit
    p_critical = abs(p - dc.sobolev1) <= eps_crit
    theorem1 = dc.serrin1 < p < q and not p_critical and not q_critical

    if q_critical:
        theorem2 = "critical_q"
    elif p_critical:
        theorem2 = "critical_p"
    else:
        theorem2 = "none"

    if dc.serrin1 < p < q < dc.sobolev2:
        theorem3 = "singular_at_infinity"
    elif dc.sobolev1 < p < q and not q_critical:
        theorem3 = "singular_at_origin"
    else:
        theorem3 = "none"

    return RegimeFlags(theorem1, theorem2, theorem3, margins)


def exact_single_term_singular(n: int, l: float, exponent: float):
    """The exact singular profile u = lambda r^{-alpha} of the single-term
    equation u'' + (n-1)/r u' + r^l u^exponent = 0.

    alpha = (2+l)/(exponent-1), lambda = [alpha (n-2-alpha)]^{1/(exponent-1)};
    substituting lambda r^{-alpha} makes the residual vanish identically.
    """
    if exponent == 1.0:
        raise ValueError("exponent = 1 makes alpha undefined")
    alpha = (2.0 + l) / (exponent - 1.0)
    lam = _amplitude(alpha, n, exponent)
    if lam is None:
        raise UndefinedLambdaError(
            f"alpha (n-2-alpha) = {alpha * (n - 2 - alpha)} <= 0 for "
            f"n={n}, l={l}, exponent={exponent}")
    return alpha, lam


def aubin_talenti_profile(n: int):
    """Regular ground state of Delta u + u^{(n+2)/(n-2)} = 0.

    Returns r -> (n(n-2))^{(n-2)/4} (1 + r^2)^{-(n-2)/2}; the callable
    carries a .derivative attribute with du/dr.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    coef = (n * (n - 2.0)) ** ((n - 2.0) / 4.0)
    half = (n - 2.0) / 2.0

    def profile(r):
        return coef * (1.0 + r * r) ** (-half)

    def derivative(r):
        return coef * (-(n - 2.0)) * r * (1.0 + r * r) ** (-half - 1.0)

    profile.derivative = derivative
    return profile
