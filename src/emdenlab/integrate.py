"""Log-radius integration frames for the double-power radial equation.

With t = ln r and v = r^alpha u the radial equation becomes the
autonomous-plus-forcing system

    v'' + (n-2-2 alpha) v' - alpha (n-2-alpha) v
        + k1 e^{E1 t} v^p + k2 e^{E2 t} v^q = 0,

where E_i = frame_exp(alpha, term_i).  Choosing alpha = alpha1 kills the
exponential on the p-term (E1 = 0, E2 = delta); alpha = alpha2 kills it
on the q-term (E2 = 0, E1 = delta2); alpha = 0 is the raw frame.  The
singular seed of an end lives in that end's frame, Frame(dc.end(name).alpha).
All trajectories are integrated with DOP853 at tight tolerances, with
the one right-hand side log_frame_rhs, and sampled on a fixed stride for
downstream fits and quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.integrate import solve_ivp

from .params import DerivedConstants, End, ProblemParams
from .serialize import fmt_float


@dataclass(frozen=True)
class Frame:
    """Log-radius frame v = r^alpha u."""

    alpha: float

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise ValueError("frame alpha must be finite")


RAW = Frame(0.0)


@dataclass(frozen=True)
class State:
    """Instantaneous (t, v, dv/dt) in some frame."""

    t: float
    v: float
    vdot: float


@dataclass(frozen=True)
class IntegratorConfig:
    rtol: float = 1e-10
    atol: float = 1e-12
    max_step: float = 0.05
    amplitude_cap: float = 1e8
    dense_output_stride: float = 0.01

    def __post_init__(self):
        for name in ("rtol", "atol", "max_step", "amplitude_cap",
                     "dense_output_stride"):
            val = getattr(self, name)
            if not (isinstance(val, (int, float)) and val > 0.0
                    and math.isfinite(val)):
                raise ValueError(f"{name} must be a positive finite number")
        # coarser stride than 10 steps defeats event localization checks
        if self.dense_output_stride > 10.0 * self.max_step:
            raise ValueError("dense_output_stride must be <= 10 * max_step")


class TerminationKind(str, Enum):
    REACHED_SPAN_END = "reached_span_end"
    POSITIVITY_LOST = "positivity_lost"
    AMPLITUDE_CAP = "amplitude_cap"
    STEP_UNDERFLOW = "step_underflow"


@dataclass(frozen=True)
class Termination:
    kind: TerminationKind
    t: float


@dataclass
class Trajectory:
    """Sampled solution in one frame, plus how the integration ended.

    config is None for trajectories reloaded from CSV; the sample arrays
    and the frame are always present.
    """

    frame: Frame
    t: np.ndarray
    v: np.ndarray
    vdot: np.ndarray
    termination: Termination | None
    config: IntegratorConfig | None = None

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        self.vdot = np.asarray(self.vdot, dtype=float)
        if not (self.t.shape == self.v.shape == self.vdot.shape):
            raise ValueError("sample arrays must share one shape")
        if self.t.ndim != 1 or self.t.size == 0:
            raise ValueError("need a non-empty 1-d sample grid")
        if self.t.size > 1:
            steps = np.diff(self.t)
            if not (np.all(steps > 0.0) or np.all(steps < 0.0)):
                raise ValueError("sample grid must be strictly monotone in t")

    @property
    def r(self) -> np.ndarray:
        return np.exp(self.t)

    @property
    def u(self) -> np.ndarray:
        return self.v * np.exp(-self.frame.alpha * self.t)

    @property
    def du_dr(self) -> np.ndarray:
        a = self.frame.alpha
        return (self.vdot - a * self.v) * np.exp(-(a + 1.0) * self.t)

    @property
    def t_end(self) -> float:
        return float(self.t[-1])

    def window(self, window: tuple, min_samples: int) -> "Trajectory":
        """The samples with t in window (1e-12 slack), ascending in t.

        Raises ValueError when fewer than min_samples fall inside.
        """
        order = np.argsort(self.t)
        t = self.t[order]
        inside = (t >= window[0] - 1e-12) & (t <= window[1] + 1e-12)
        count = int(inside.sum())
        if count < min_samples:
            raise ValueError(f"window {window} holds {count} samples; "
                             f"need >= {min_samples}")
        idx = order[inside]
        return Trajectory(self.frame, self.t[idx], self.v[idx],
                          self.vdot[idx], self.termination, self.config)

    def end_window(self, end: End, width: float | None = None) -> tuple:
        """The window of the sampled span on end's side of the t-axis:
        `width` wide, or the span's outer quarter when width is None."""
        lo, hi = float(np.min(self.t)), float(np.max(self.t))
        if width is None:
            width = 0.25 * (hi - lo)
        return (hi - width, hi) if end.side > 0 else (lo, lo + width)

    def state_at(self, i: int) -> State:
        return State(float(self.t[i]), float(self.v[i]), float(self.vdot[i]))

    def effective_termination(self) -> Termination:
        """Recorded termination, or one inferred from the final sample
        (used for CSV-reloaded trajectories that carry no metadata).

        A crossing leaves the last sample many orders below its recent
        neighbors, so the inference compares against a trailing local
        scale; a smooth exponential tail stays within a few percent of
        its neighbors however small it gets and is never flagged.
        """
        if self.termination is not None:
            return self.termination
        if self.v[-1] <= 0.0:
            return Termination(TerminationKind.POSITIVITY_LOST, self.t_end)
        if self.v.size > 1:
            tail = self.v[max(0, self.v.size - 11):-1]
            local = float(np.max(np.abs(tail)))
            if local > 0.0 and self.v[-1] <= 1e-6 * local:
                return Termination(TerminationKind.POSITIVITY_LOST,
                                   self.t_end)
        return Termination(TerminationKind.REACHED_SPAN_END, self.t_end)


def log_frame_rhs(params: ProblemParams, alpha: float):
    """The log-frame system in the alpha frame as solve_ivp's fun(t, y).

    Returns (dv/dt, d2v/dt2) for y = (v, dv/dt).  The power terms act on
    max(v, 0): an event-located crossing can overshoot to tiny negative
    v, which is clamped rather than rejected.  A non-finite state raises
    RuntimeError.
    """
    n = params.n
    c = n - 2.0 - 2.0 * alpha
    lin = alpha * (n - 2.0 - alpha)
    terms = [(exp_, l - (exp_ - 1.0) * alpha + 2.0, float(k))
             for exp_, l, k in params.active_terms()]

    def rhs(t, y):
        v, vd = y[0], y[1]
        vp = v if v > 0.0 else 0.0
        acc = lin * v - c * vd
        for exp_, e, k in terms:
            acc -= k * math.exp(e * t) * vp ** exp_
        if not (math.isfinite(acc) and math.isfinite(vd)):
            raise RuntimeError(
                f"non-finite state during integration at t={t}: "
                f"v={v}, vdot={vd}, vddot={acc}")
        return (vd, acc)

    return rhs


def integrate(start: State, frame: Frame, t_target: float,
              params: ProblemParams,
              config: IntegratorConfig | None = None) -> Trajectory:
    """Integrate from `start` to t_target (either direction) in `frame`.

    Terminates early on loss of positivity (v crosses zero from above,
    event-located) or on |v| exceeding the amplitude cap; a solver
    step-size underflow is reported rather than raised.
    """
    if config is None:
        config = IntegratorConfig()
    if not start.v > 0.0:
        raise ValueError(f"start.v must be positive, got {start.v}")
    if t_target == start.t:
        return Trajectory(frame, np.array([start.t]), np.array([start.v]),
                          np.array([start.vdot]),
                          Termination(TerminationKind.REACHED_SPAN_END,
                                      start.t),
                          config)

    def ev_positivity(t, y):
        return y[0]

    ev_positivity.terminal = True
    ev_positivity.direction = -1.0

    cap = config.amplitude_cap

    def ev_cap(t, y):
        return abs(y[0]) - cap

    ev_cap.terminal = True
    ev_cap.direction = 1.0

    sol = solve_ivp(
        log_frame_rhs(params, frame.alpha),
        (start.t, t_target),
        [start.v, start.vdot],
        method="DOP853",
        rtol=config.rtol,
        atol=config.atol,
        max_step=config.max_step,
        dense_output=True,
        events=(ev_positivity, ev_cap),
    )
    if sol.status == 1:
        if len(sol.t_events[0]):
            term = Termination(TerminationKind.POSITIVITY_LOST,
                               float(sol.t_events[0][0]))
        else:
            term = Termination(TerminationKind.AMPLITUDE_CAP,
                               float(sol.t_events[1][0]))
    elif sol.status == 0:
        term = Termination(TerminationKind.REACHED_SPAN_END, float(sol.t[-1]))
    else:
        term = Termination(TerminationKind.STEP_UNDERFLOW, float(sol.t[-1]))

    t_last = float(sol.t[-1])
    stride = config.dense_output_stride
    sgn = 1.0 if t_last > start.t else -1.0
    npts = int(math.floor(abs(t_last - start.t) / stride))
    ts = start.t + sgn * stride * np.arange(npts + 1)
    if abs(ts[-1] - t_last) <= 1e-9 * stride:
        ts[-1] = t_last
    else:
        ts = np.append(ts, t_last)
    y = sol.sol(ts)
    return Trajectory(frame, ts, y[0], y[1], term, config)


def regular_series_start(a: float, r0: float, params: ProblemParams,
                         frame: Frame = RAW) -> State:
    """Second-order series state of the regular solution u(0) = a.

    u(r0)  = a - sum_i k_i a^{P_i} r0^{2+l_i} / ((2+l_i)(n+l_i)),
    u'(r0) = - sum_i k_i a^{P_i} r0^{1+l_i} / (n+l_i),

    rejected unless every correction is below 1e-6 a (series gate).
    """
    if not a > 0.0:
        raise ValueError(f"central value a must be positive, got {a}")
    if not r0 > 0.0:
        raise ValueError(f"r0 must be positive, got {r0}")
    n = params.n
    u, up = a, 0.0
    for exp_, l, k in params.active_terms():
        corr = a ** exp_ * r0 ** (2.0 + l) / ((2.0 + l) * (n + l))
        if corr >= 1e-6 * a:
            raise ValueError(
                f"r0={r0} too large for series accuracy: correction "
                f"{corr:.3e} exceeds 1e-6 a for the exponent-{exp_} term")
        u -= k * corr
        up -= k * a ** exp_ * r0 ** (1.0 + l) / (n + l)
    t0 = math.log(r0)
    alpha = frame.alpha
    v = math.exp(alpha * t0) * u
    vdot = alpha * v + math.exp((alpha + 1.0) * t0) * up
    return State(t0, v, vdot)


def singular_seed_start(end: str, eps: float, t_seed: float,
                        params: ProblemParams,
                        dc: DerivedConstants) -> State:
    """Perturbed equilibrium seed near one end, in that end's own frame.

    With e = dc.end(end) the seed is (e.lam + eps, eps e.rate): at
    infinity the alpha1-frame equilibrium lambda1 with the forced
    exponent delta, at the origin the alpha2-frame equilibrium lambda2
    with delta2.  eps = 0 seeds the equilibrium itself, (lambda, 0).
    |eps| must stay below 0.1 lambda.
    """
    e = dc.end(end)
    if e.lam is None:
        raise ValueError(f"singular amplitude undefined at {end} for these "
                         "parameters")
    if not abs(eps) < 0.1 * e.lam:
        raise ValueError(f"|eps| = {abs(eps)} must be below 0.1 lambda "
                         f"= {0.1 * e.lam}")
    return State(t_seed, e.lam + eps, eps * e.rate if eps else 0.0)


def reframe(traj: Trajectory, new_frame: Frame) -> Trajectory:
    """Re-express a trajectory in another frame (exact pointwise algebra).

    v_new = e^{(b-a) t} v,  vdot_new = e^{(b-a) t} (vdot + (b-a) v).
    """
    d = new_frame.alpha - traj.frame.alpha
    if d == 0.0:
        return Trajectory(traj.frame, traj.t.copy(), traj.v.copy(),
                          traj.vdot.copy(), traj.termination, traj.config)
    fac = np.exp(d * traj.t)
    return Trajectory(new_frame, traj.t.copy(), fac * traj.v,
                      fac * (traj.vdot + d * traj.v), traj.termination,
                      traj.config)


CSV_HEADER = "t,r,u,du_dr,v,dv_dt,frame_alpha"


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Flat per-sample schema; every float rendered with %.17g so a
    reload and re-save is byte-identical."""
    r, u, dudr = traj.r, traj.u, traj.du_dr
    a = traj.frame.alpha
    lines = [CSV_HEADER]
    for i in range(traj.t.size):
        lines.append(",".join(fmt_float(x) for x in
                              (traj.t[i], r[i], u[i], dudr[i],
                               traj.v[i], traj.vdot[i], a)))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def csv_round_trip(traj: Trajectory, directory) -> bool:
    """Write, reload and rewrite the trajectory; True iff the two files
    are byte-identical (decimal-text exactness of the CSV schema)."""
    import os
    p1 = os.path.join(str(directory), "round_trip_a.csv")
    p2 = os.path.join(str(directory), "round_trip_b.csv")
    write_trajectory_csv(traj, p1)
    write_trajectory_csv(read_trajectory_csv(p1), p2)
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        return f1.read() == f2.read()


def read_trajectory_csv(path) -> Trajectory:
    """Inverse of write_trajectory_csv; parse errors carry line numbers.

    Metadata (integrator config, termination) is not stored in the CSV,
    so the result has config=None and termination inferred lazily via
    effective_termination().
    """
    with open(path, "r") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file")
    if lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: line 1: expected header {CSV_HEADER!r}, "
                         f"got {lines[0]!r}")
    t, v, vdot, alphas = [], [], [], []
    for ln, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != 7:
            raise ValueError(f"{path}: line {ln}: expected 7 fields, "
                             f"got {len(cells)}")
        try:
            vals = [float(c) for c in cells]
        except ValueError as exc:
            raise ValueError(f"{path}: line {ln}: {exc}") from None
        t.append(vals[0])
        v.append(vals[4])
        vdot.append(vals[5])
        alphas.append(vals[6])
    if not t:
        raise ValueError(f"{path}: no data rows")
    if len(set(alphas)) != 1:
        raise ValueError(f"{path}: frame_alpha column is not constant")
    return Trajectory(Frame(alphas[0]), np.array(t), np.array(v),
                      np.array(vdot), None)
