"""Parameter algebra for the double-power Emden-Fowler radial equation.

The equation under study is

    u'' + (n-1)/r u' + k1 r^{l1} u^p + k2 r^{l2} u^q = 0,   r > 0,

with n >= 3, p > 1, q > 1, and p < q, -2 < l2 <= l1 <= 0 when both power
terms are active.  Everything in this module is closed-form algebra over the
parameter quintuple: scaling exponents alpha1/alpha2, the exact singular
amplitudes lambda1/lambda2, the Serrin and Sobolev-type thresholds, the
log-frame forcing exponents delta/delta2, and the regime flags that decide
which asymptotic theorems apply.  The equation in any log frame is one
FrameEquation (frame_equation); the pairing of each end with its frame
(alpha, lambda, equation) is the End record, dc.end("infinity") /
dc.end("origin"); no other module re-derives either.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

from .serialize import SKIP, Record


def is_integer(x) -> bool:
    """x is an integer, Python's or numpy's; a bool is not."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def real_number(x):
    """x as a Python int or float when it is a finite real number,
    numpy's included (kept as numpy's type, a float32 would compute in
    single precision and an int64 fail canonical_json); None for
    anything else, a bool and an int beyond the double range included."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        return None
    try:
        if not math.isfinite(x):
            return None
    except OverflowError:
        return None
    return int(x) if isinstance(x, numbers.Integral) else float(x)


@dataclass(frozen=True)
class ProblemParams:
    """The quintuple (n, p, q, l1, l2) plus the k1/k2 term toggles.

    k1 and k2 take values in {0, 1}; switching one off gives the
    single-term degenerate modes used as closed-form oracles.  p and q
    exceed 1 even when their term is off: both frames are derived.
    """

    n: int
    p: float
    q: float
    l1: float = 0.0
    l2: float = 0.0
    k1: float = 1.0
    k2: float = 1.0

    def __post_init__(self):
        if not is_integer(self.n) or self.n < 3:
            raise ValueError(f"n must be an integer >= 3, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        for name in ("p", "q", "l1", "l2", "k1", "k2"):
            value = real_number(getattr(self, name))
            if value is None:
                raise ValueError(f"{name} must be a finite number")
            object.__setattr__(self, name, value)
        for name in ("p", "q"):
            if not getattr(self, name) > 1.0:
                raise ValueError(f"{name} must exceed 1, got "
                                 f"{getattr(self, name)}")
        if self.k1 not in (0, 1) or self.k2 not in (0, 1):
            raise ValueError("k1 and k2 are toggles in {0, 1}")
        if not (self.k1 or self.k2):
            raise ValueError("at least one power term must be active")
        if self.k1 and self.k2:
            if not self.p < self.q:
                raise ValueError(f"need 1 < p < q, got p={self.p}, q={self.q}")
            if not (-2.0 < self.l2 <= self.l1 <= 0.0):
                raise ValueError(
                    f"need -2 < l2 <= l1 <= 0, got l1={self.l1}, l2={self.l2}")
        else:
            wt = self.l1 if self.k1 else self.l2
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


def _amplitude(lin: float, exponent: float):
    """lambda = lin^{1/(exponent-1)}, lin = alpha (n-2-alpha) of the
    frame; None when lin <= 0."""
    return lin ** (1.0 / (exponent - 1.0)) if lin > 0.0 else None


def frame_exp(exponent: float, weight: float, alpha: float) -> float:
    """Exponent of e^{.t} multiplying the power term r^weight u^exponent
    in the alpha log-frame: weight - (exponent - 1) alpha + 2.

    Exactly 0.0 in the term's own frame, alpha = (2 + weight) /
    (exponent - 1) as derive_constants computes alpha1 and alpha2, so a
    term is autonomous there bit for bit.
    """
    if alpha == (2.0 + weight) / (exponent - 1.0):
        return 0.0
    return weight - (exponent - 1.0) * alpha + 2.0


@dataclass(frozen=True)
class FrameEquation:
    """The radial equation in the alpha frame v = r^alpha u, t = ln r:

        v'' + damping v' - lin v + sum_i k_i e^{E_i t} v_+^{P_i} = 0,

    lin = alpha (n-2-alpha), damping = n-2-2 alpha, and terms one
    (P_i, E_i, k_i) per active power term, E_i = frame_exp(P_i, l_i,
    alpha).  A term with E_i = 0 is autonomous in this frame, the others
    are forced.
    """

    alpha: float
    lin: float
    damping: float
    terms: tuple


def frame_equation(params: ProblemParams, alpha: float) -> FrameEquation:
    """The FrameEquation of params in the alpha frame; ValueError for a
    non-finite alpha."""
    if not math.isfinite(alpha):
        raise ValueError("frame alpha must be finite")
    n = params.n
    return FrameEquation(
        alpha, alpha * (n - 2.0 - alpha), n - 2.0 - 2.0 * alpha,
        tuple((exp_, frame_exp(exp_, l, alpha), float(k))
              for exp_, l, k in params.active_terms()))


@dataclass(frozen=True)
class End:
    """One end of the radial line paired with its singular frame.

    Infinity lives in the alpha1 frame, where the p-term is autonomous
    and the q-term forced at rate delta; the origin in the alpha2 frame,
    the q-term autonomous and the p-term forced at rate delta2.
    equation is that frame's FrameEquation, and equation.alpha names
    the frame.  lam is the equilibrium amplitude (lambda1 or lambda2),
    None when it is undefined or the autonomous term is off.  side is
    the end's side of the t-axis (+1 large t, -1 small t) and
    regular_exp the s of its regular law u ~ c r^{-s} (n-2 at infinity,
    0 at the origin).
    """

    name: str
    side: int
    regular_exp: float
    lam: float | None
    equation: FrameEquation


@dataclass(frozen=True)
class DerivedConstants(Record):
    """Closed-form quantities attached to a parameter set.

    lambda1/lambda2 are None when alpha (n-2-alpha) <= 0 (no real
    amplitude); omega_sq carries its sign, the root is taken only when
    positive.  ends holds the (infinity, origin) End records, reached
    by name as dc.end(name).
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

    @property
    def omega(self) -> float | None:
        return math.sqrt(self.omega_sq) if self.omega_sq > 0.0 else None


def derive_constants(params: ProblemParams) -> DerivedConstants:
    """All Section-1 closed forms for a parameter set.

    alpha1 = (2+l1)/(p-1), alpha2 = (2+l2)/(q-1),
    lambda_i = [alpha_i (n-2-alpha_i)]^{1/(exp-1)}, delta and delta2 the
    frame_exp of the q-term at alpha1 and of the p-term at alpha2,
    c1coef/c2coef the frames' damping, omega_sq = L - c1coef^2/4 with
    the alpha1 frame's restoring L = lin (p-1), as in forced_expansion.
    """
    n, p, q, l1, l2 = params.n, params.p, params.q, params.l1, params.l2
    alpha1 = (2.0 + l1) / (p - 1.0)
    alpha2 = (2.0 + l2) / (q - 1.0)
    eq1 = frame_equation(params, alpha1)
    eq2 = frame_equation(params, alpha2)
    lambda1 = _amplitude(eq1.lin, p)
    lambda2 = _amplitude(eq2.lin, q)
    return DerivedConstants(
        params=params,
        alpha1=alpha1,
        alpha2=alpha2,
        lambda1=lambda1,
        lambda2=lambda2,
        serrin1=(n + l1) / (n - 2.0),
        sobolev1=(n + 2.0 + 2.0 * l1) / (n - 2.0),
        sobolev2=(n + 2.0 + 2.0 * l2) / (n - 2.0),
        c1coef=eq1.damping,
        c2coef=eq2.damping,
        delta=frame_exp(q, l2, alpha1),
        delta2=frame_exp(p, l1, alpha2),
        omega_sq=eq1.lin * (p - 1.0) - 0.25 * eq1.damping ** 2,
        ends=(End("infinity", 1, n - 2.0, lambda1 if params.k1 else None,
                  eq1),
              End("origin", -1, 0.0, lambda2 if params.k2 else None, eq2)),
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


def classify_regime(params: ProblemParams,
                    dc: DerivedConstants) -> RegimeFlags:
    """Regime flags from the exponent thresholds.

    theorem1_applies needs the Serrin bound serrin1 < p < q with both
    exponents away from their critical values.  Criticality means exact
    equality with a Sobolev-type threshold, hence the tight EPS_CRIT.
    All theorem-keyed flags require both terms active with l2 < l1, the
    order the theorems are stated for; equal weights get none.
    dc must be derive_constants(params); a pair of two parameter sets is
    a ValueError.
    """
    if dc.params != params:
        raise ValueError(f"dc holds the constants of {dc.params}, "
                         f"not of {params}")
    p, q = params.p, params.q
    margins = {
        "p_minus_sobolev1": p - dc.sobolev1,
        "q_minus_sobolev2": q - dc.sobolev2,
        "p_minus_serrin1": p - dc.serrin1,
        "abs_q_minus_sobolev2": abs(q - dc.sobolev2),
    }
    if not (params.k1 and params.k2 and params.l2 < params.l1):
        return RegimeFlags(False, "none", "none", margins)

    q_critical = abs(q - dc.sobolev2) <= EPS_CRIT
    p_critical = abs(p - dc.sobolev1) <= EPS_CRIT
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


def aubin_talenti_profile(n: int):
    """Regular ground state of Delta u + u^{(n+2)/(n-2)} = 0.

    Returns r -> (n(n-2))^{(n-2)/4} (1 + r^2)^{-(n-2)/2}.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    coef = (n * (n - 2.0)) ** ((n - 2.0) / 4.0)
    half = (n - 2.0) / 2.0

    def profile(r):
        return coef * (1.0 + r * r) ** (-half)

    return profile
