"""End-behavior classification of log-frame trajectories.

Near either end a positive solution does one of: cross zero, oscillate
persistently around the singular amplitude (critical exponents), settle
on the amplitude (slow decay, i.e. the singular behavior), or follow the
regular power law (r^{-(n-2)} at infinity, a constant at the origin).
The decision procedure reads windowed statistics of v in the end's own
frame, Frame(dc.end(end).alpha): sign changes of vdot, relative
amplitude, envelope contraction, least-squares drift, and a
fixed-exponent power-law fit of u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .energy import well_potential
from .integrate import Frame, TerminationKind, Trajectory, reframe
from .params import DerivedConstants, classify_regime
from .serialize import Record


# decision thresholds of classify_end (see its docstring)
TOL_CLASS = 0.02
OSC_RELAMP = 0.05
SLOPE_TOL = 1e-3
POWER_RESID_TOL = 0.05
SPIRAL_CONTRACTION = 1.5


class Kind(str, Enum):
    CROSSES_ZERO = "crosses_zero"
    OSCILLATORY = "oscillatory"
    SLOW_DECAY_SINGULAR = "slow_decay_singular"
    FAST_DECAY_REGULAR = "fast_decay_regular"
    REGULAR_AT_ORIGIN = "regular_at_origin"
    UNDETERMINED = "undetermined"


class SaturationError(RuntimeError):
    """The deviation from the limit sits at the integrator noise floor."""


def quadratic_extrema(t: np.ndarray, y: np.ndarray):
    """Interior extrema refined by a local parabola.

    Returns (times, values, kinds) with kinds +1 for maxima, -1 for
    minima; consecutive extrema of a sampled sequence alternate.
    """
    times, values, kinds = [], [], []
    for i in range(1, t.size - 1):
        d0 = y[i] - y[i - 1]
        d1 = y[i + 1] - y[i]
        if d0 * d1 < 0.0 or (d0 != 0.0 and d1 == 0.0 and i + 1 == t.size - 1):
            denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
            off = 0.0 if denom == 0.0 else 0.5 * (y[i - 1] - y[i + 1]) / denom
            h = 0.5 * (t[i + 1] - t[i - 1])
            times.append(t[i] + off * h)
            values.append(y[i] - 0.25 * (y[i - 1] - y[i + 1]) * off)
            kinds.append(1 if d0 > 0.0 else -1)
    return np.array(times), np.array(values), np.array(kinds)


@dataclass(frozen=True)
class ClassificationReport(Record):
    end: str
    kind: Kind
    window: tuple
    fitted_constant: float | None
    residual: float | None
    rate: float | None
    diagnostics: dict = field(default_factory=dict)


def fit_power_tail(traj: Trajectory, exponent_hypothesis: float,
                   window: tuple) -> tuple:
    """Fit u ~ C r^{-s} with the slope FIXED to the hypothesis s.

    Only the intercept is free: ln C = mean(ln u + s t); the returned
    residual is the RMS of ln u + s t around it.  u must be positive on
    the window.
    """
    sub = traj.window(window, 2)
    u = sub.u
    if np.any(u <= 0.0):
        raise ValueError("power-law fit needs u > 0 on the window")
    shifted = np.log(u) + exponent_hypothesis * sub.t
    intercept = float(np.mean(shifted))
    resid = float(np.sqrt(np.mean((shifted - intercept) ** 2)))
    return math.exp(intercept), resid


def fit_exponential_rate(traj: Trajectory, lambda_target: float,
                         window: tuple) -> float:
    """ln|v - lambda| slope over the window (the approach rate).

    A window where |v - lambda| has no interior extremum is fitted on
    its samples above the noise floor of 100 atol; otherwise on the
    peaks of |v - lambda| above that floor (the envelope of an
    oscillatory approach; the near-zero cusps are not quadratic and
    would skew the fit).  Raises SaturationError when neither gives at
    least 2 points: the window shows no clean decay to fit.
    """
    sub = traj.window(window, 10)
    t, w = sub.t, np.abs(sub.v - lambda_target)
    atol = traj.config.atol if traj.config is not None else 1e-12
    floor = 100.0 * atol
    pt, pv, pk = quadratic_extrema(t, w)
    if pt.size == 0:  # no interior extremum: every sample is a point
        pt, pv, pk = t, w, np.ones(t.size)
    keep = (pv > floor) & (pk > 0)
    pt, pv = pt[keep], pv[keep]
    if pt.size < 2:
        raise SaturationError(
            f"{pt.size} points of |v - lambda| above 100 atol = "
            f"{floor:.3e} on the window")
    return float(np.polyfit(pt, np.log(pv), 1)[0])


def classify_end(traj: Trajectory, dc: DerivedConstants, end: str,
                 tol_class: float = TOL_CLASS,
                 window: tuple | None = None) -> ClassificationReport:
    """Classify the behavior of a trajectory toward one end.

    Decision order: (1) an event termination decides immediately
    (positivity lost => CROSSES_ZERO); (2) with >= 3 sign changes of
    vdot, a contracting envelope (first/last deviation >
    SPIRAL_CONTRACTION) centered on lambda is SLOW_DECAY_SINGULAR, a fat
    envelope (relative amplitude > OSC_RELAMP) is OSCILLATORY; (3) a flat
    window (|drift| < SLOPE_TOL) with mean within tol_class of lambda is
    SLOW_DECAY_SINGULAR; (4) a fixed-exponent power fit of u with RMS
    ln-residual < POWER_RESID_TOL gives the regular kind for the end;
    (5) otherwise UNDETERMINED, with all statistics in diagnostics.
    The window defaults to the outer quarter of the span on the end's
    side (Trajectory.end_window); the rate is fitted in the end's frame
    (fit_exponential_rate) and is None when that fit finds no clean
    decay.
    """
    e = dc.end(end)
    term = traj.effective_termination()
    # event terminations decide only the side where integration stopped;
    # the seed side of a crossing shot still has analyzable data
    terminal_side = 1 if traj.t[-1] >= traj.t[0] else -1
    if e.side == terminal_side:
        if term.kind == TerminationKind.POSITIVITY_LOST:
            return ClassificationReport(
                end, Kind.CROSSES_ZERO, (term.t, term.t), None, None, None,
                {"t_cross": term.t, "termination": term.kind})
        if term.kind in (TerminationKind.AMPLITUDE_CAP,
                         TerminationKind.STEP_UNDERFLOW):
            return ClassificationReport(
                end, Kind.UNDETERMINED, (term.t, term.t), None, None, None,
                {"termination": term.kind,
                 "reason": "integration did not reach the requested end"})

    if window is None:
        window = traj.end_window(e)
    sub = reframe(traj.window(window, 10), Frame(e.alpha))
    t, v, vd = sub.t, sub.v, sub.vdot
    lam = e.lam

    mean = float(np.mean(v))
    vmax, vmin = float(np.max(v)), float(np.min(v))
    relamp = (vmax - vmin) / abs(mean) if mean != 0.0 else math.inf
    signs = np.sign(vd)
    signs = signs[signs != 0.0]
    nsc = int(np.sum(signs[:-1] * signs[1:] < 0)) if signs.size > 1 else 0
    ext_t, ext_v, _ = quadratic_extrema(t, v)
    contraction = None
    if ext_v.size >= 2:
        first_dev = abs(ext_v[0] - mean)
        last_dev = abs(ext_v[-1] - mean)
        contraction = math.inf if last_dev == 0.0 else first_dev / last_dev
    slope = float(np.polyfit(t, v, 1)[0])
    diag = {"mean": mean, "lambda": lam, "relamp": relamp, "nsc": nsc,
            "slope": slope, "contraction": contraction,
            "n_extrema": int(ext_v.size)}

    def _rate():
        if lam is None:
            return None
        try:
            return fit_exponential_rate(sub, lam, window)
        except (SaturationError, ValueError):
            return None

    lam_ok = lam is not None and abs(mean - lam) <= tol_class * lam
    if nsc >= 3:
        if contraction is not None and contraction > SPIRAL_CONTRACTION:
            # contracting spiral onto the equilibrium: slope gate waived
            if lam_ok:
                return ClassificationReport(
                    end, Kind.SLOW_DECAY_SINGULAR, window, mean,
                    abs(mean - lam) / lam, _rate(), diag)
            diag["reason"] = "contracting spiral away from lambda"
            return ClassificationReport(end, Kind.UNDETERMINED, window,
                                        None, None, None, diag)
        if relamp > OSC_RELAMP:
            return ClassificationReport(
                end, Kind.OSCILLATORY, window, mean, None, None, diag)

    if abs(slope) < SLOPE_TOL and lam_ok:
        return ClassificationReport(
            end, Kind.SLOW_DECAY_SINGULAR, window, mean,
            abs(mean - lam) / lam, _rate(), diag)

    try:
        coef, resid = fit_power_tail(traj, e.regular_exp, window)
    except ValueError:
        coef, resid = None, None
    diag["power_residual"] = resid
    if resid is not None and resid < POWER_RESID_TOL:
        kind = (Kind.FAST_DECAY_REGULAR if e.side > 0
                else Kind.REGULAR_AT_ORIGIN)
        return ClassificationReport(end, kind, window, coef, resid, None,
                                    diag)
    diag["reason"] = "no decision rule matched"
    return ClassificationReport(end, Kind.UNDETERMINED, window, None, None,
                                None, diag)


@dataclass(frozen=True)
class OscillationEnvelope(Record):
    """Extrema bookkeeping for persistently oscillating trajectories.

    mu1/mu2 are the means of the 3 minima/maxima nearest the requested
    end; at a critical exponent both envelope branches must carry the
    same potential value (b or b1), tracked by b_match_rel.
    """

    end: str
    times_min: np.ndarray
    values_min: np.ndarray
    times_max: np.ndarray
    values_max: np.ndarray
    mu1: float
    mu2: float
    spread_min: float
    spread_max: float
    potential: str
    b_mu1: float
    b_mu2: float
    b_match_rel: float

    JSON_EXTRA = ("n_extrema",)

    @property
    def n_extrema(self) -> int:
        return int(self.values_min.size + self.values_max.size)


def oscillation_envelope(traj: Trajectory, dc: DerivedConstants,
                         end: str) -> OscillationEnvelope:
    """Envelope statistics of v in the end frame over the whole span.

    Needs at least 3 minima and 3 maxima; extrema must interleave.  The
    b-match uses the well of the origin end (b) at critical q, of the
    infinity end (b1) at critical p, and of the requested end otherwise.
    """
    e = dc.end(end)
    window = (float(np.min(traj.t)), float(np.max(traj.t)))
    sub = reframe(traj.window(window, 10), Frame(e.alpha))
    t, v = sub.t, sub.v
    ext_t, ext_v, ext_k = quadratic_extrema(t, v)
    if np.any(ext_k[1:] == ext_k[:-1]):
        raise ValueError("extrema do not interleave")
    mins = ext_k < 0
    maxs = ext_k > 0
    if int(mins.sum()) < 3 or int(maxs.sum()) < 3:
        raise ValueError(
            f"need >= 3 extrema of each kind, got {int(mins.sum())} minima "
            f"and {int(maxs.sum())} maxima")
    # orient so index -1 is nearest the requested end
    if e.side < 0:
        ext_t, ext_v, ext_k = ext_t[::-1], ext_v[::-1], ext_k[::-1]
        mins, maxs = mins[::-1], maxs[::-1]
    tmin, vmin = ext_t[mins], ext_v[mins]
    tmax, vmax = ext_t[maxs], ext_v[maxs]
    mu1 = float(np.mean(vmin[-3:]))
    mu2 = float(np.mean(vmax[-3:]))
    npair = min(vmin.size, vmax.size)
    if not np.all(vmin[-npair:] < vmax[-npair:]):
        raise ValueError("envelope branches are not separated")

    # the critical term's frame owns the well; off criticality the end's
    critical = {"critical_q": "origin", "critical_p": "infinity"}
    well = dc.end(critical.get(classify_regime(dc.params, dc).theorem2_case,
                               end))
    b1v = float(well_potential(mu1, well))
    b2v = float(well_potential(mu2, well))
    scale = max(abs(b1v), 1e-300)
    return OscillationEnvelope(
        end=end,
        times_min=tmin, values_min=vmin,
        times_max=tmax, values_max=vmax,
        mu1=mu1, mu2=mu2,
        spread_min=float(np.max(vmin[-3:]) - np.min(vmin[-3:])),
        spread_max=float(np.max(vmax[-3:]) - np.min(vmax[-3:])),
        potential=well.well, b_mu1=b1v, b_mu2=b2v,
        b_match_rel=abs(b1v - b2v) / scale,
    )
