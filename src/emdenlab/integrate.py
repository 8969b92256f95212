"""Log-radius integration frames for the double-power radial equation.

With t = ln r and v = r^alpha u the radial equation becomes the
autonomous-plus-forcing system

    v'' + (n-2-2 alpha) v' - alpha (n-2-alpha) v
        + k1 e^{E1 t} v^p + k2 e^{E2 t} v^q = 0,

where E_i = frame_exp(exp_i, l_i, alpha) (params.py).  Choosing
alpha = alpha1 kills the exponential on the p-term (E1 = 0, E2 = delta);
alpha = alpha2 kills it on the q-term (E2 = 0, E1 = delta2); alpha = 0
is the raw frame.  Every run starts on forced_expansion, the closed-form
amp + sum_i K_i e^{E_i t} about an End's lambda or a regular u(0).  All
trajectories are integrated with the one right-hand side log_frame_rhs
at the accuracy IntegratorConfig's defaults were chosen for (the step
cap bounds the dense-output and event error, rtol the step error), and
sampled on a fixed stride for downstream fits and quadrature.

The integrator is the in-repo DOP853 of dop853.py: Dormand-Prince 8(5,3)
with its 7th-order dense output (Hairer, Norsett & Wanner, *Solving
Ordinary Differential Equations I*, sections II.5-II.6), with the
tableau, error norm and step controller of scipy's DOP853, so it takes
scipy's steps.  Integration stops at t_target, at a located loss of
positivity, at the amplitude cap, or on a step-size underflow.

It has two cores.  integrate runs one start through the scalar core,
solve_ivp, on floats.  integrate_many runs many starts in one frame
through the lane core, solve_lanes, which advances them in lockstep on
numpy arrays; each lane takes the scalar core's steps and samples, up to
numpy's exp and power rounding 1 ulp away from math's.  Both evaluate
the one term table of log_frame_rhs, and both record the solver's work
in Trajectory.stats.  The lockstep loop costs more per step than a
scalar run and pays from about 16 starts.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .dop853 import SolverStats, TerminationKind, solve_ivp, solve_lanes, \
    stride_grid
from .params import End, ProblemParams, frame_exp
from .serialize import fmt_float


@dataclass(frozen=True)
class Frame:
    """Log-radius frame v = r^alpha u."""

    alpha: float

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise ValueError("frame alpha must be finite")


RAW = Frame(0.0)

RTOL_MIN = 100.0 * sys.float_info.epsilon


@dataclass(frozen=True)
class State:
    """Instantaneous (t, v, dv/dt) in some frame."""

    t: float
    v: float
    vdot: float


@dataclass(frozen=True)
class IntegratorConfig:
    """DOP853 tolerances, step cap, amplitude cap and sampling stride.

    max_step bounds the dense-output and event error: the interpolant
    error grows with the step, so the samples and the located crossings
    degrade as the cap widens even where rtol holds every step.  rtol
    bounds the step error.  The defaults (max_step 0.1, rtol 1e-11) are
    the cheapest point of a work-precision grid (max_step 0.05 to 0.5
    x rtol 1e-10 to 1e-13, atol and stride fixed) that keeps the exact
    oracles 10x inside their acceptance bounds and changes no kind:
    singular profile (criterion 1) 0 vs 1e-8, Aubin-Talenti bubble
    (criterion 2) 7.1e-9 vs 1e-7, energy balance (criterion 7) 4.81e-8
    vs 1e-6, and a single-term crossing time t_cross(a) + ln(a)/alpha1
    constant to 1.7e-12 over a in [1e-2, 1e2].  It takes about half
    the RHS evaluations of (0.05, 1e-10).  (0.1, 1e-10) leaves the
    bubble at 2.7e-8; from a cap of 0.15 up the crossing-time spread
    exceeds the 3.5e-11 of (0.05, 1e-10) at every rtol (3.8e-7 at 0.5).

    Every setting is a positive finite number; rtol must be at least
    RTOL_MIN = 100 eps, below which the error test asks for more than
    double precision carries.
    """

    rtol: float = 1e-11
    atol: float = 1e-12
    max_step: float = 0.1
    amplitude_cap: float = 1e8
    dense_output_stride: float = 0.01

    def __post_init__(self):
        for f in fields(self):
            val = getattr(self, f.name)
            if not (isinstance(val, (int, float)) and val > 0.0
                    and math.isfinite(val)):
                raise ValueError(f"{f.name} must be a positive finite number")
        if self.rtol < RTOL_MIN:
            raise ValueError(f"rtol must be >= {RTOL_MIN!r} (100 eps), "
                             f"got {self.rtol!r}")


@dataclass(frozen=True)
class Termination:
    kind: TerminationKind
    t: float


@dataclass
class Trajectory:
    """Sampled solution in one frame, plus how the integration ended.

    config and stats (the solver's work, see dop853.SolverStats) are
    None for trajectories reloaded from CSV; the sample arrays and the
    frame are always present.
    """

    frame: Frame
    t: np.ndarray
    v: np.ndarray
    vdot: np.ndarray
    termination: Termination | None
    config: IntegratorConfig | None = None
    stats: SolverStats | None = None

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
                          self.vdot[idx], self.termination, self.config,
                          self.stats)

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


def _non_finite(t, v, vd, acc):
    raise RuntimeError(f"non-finite state during integration at t={t}: "
                       f"v={v}, vdot={vd}, vddot={acc}")


def log_frame_rhs(params: ProblemParams, alpha: float):
    """The log-frame system in the alpha frame as solve_ivp's fun(t, y).

    Returns (dv/dt, d2v/dt2) for y = (v, dv/dt).  The power terms act on
    max(v, 0): an event-located crossing can overshoot to tiny negative
    v, which is clamped rather than rejected.  A non-finite state raises
    RuntimeError.  The same term table evaluated on arrays of lanes is
    the attribute `lanes(t, v, vdot)`, solve_lanes' fun.
    """
    n = params.n
    c = n - 2.0 - 2.0 * alpha
    lin = alpha * (n - 2.0 - alpha)
    terms = [(exp_, frame_exp(exp_, l, alpha), float(k))
             for exp_, l, k in params.active_terms()]

    def accel(t, v, vd, vp, exp):
        acc = lin * v - c * vd
        for exp_, e, k in terms:
            term = vp ** exp_
            if e:  # e^{0 t} = 1 exactly
                term = exp(e * t) * term
            acc -= term if k == 1.0 else k * term
        return acc

    def rhs(t, y):
        v, vd = y[0], y[1]
        acc = accel(t, v, vd, v if v > 0.0 else 0.0, math.exp)
        if not (math.isfinite(acc) and math.isfinite(vd)):
            _non_finite(t, v, vd, acc)
        return (vd, acc)

    def lanes(t, v, vd):
        acc = accel(t, v, vd, np.maximum(v, 0.0), np.exp)
        # a non-finite v or vdot makes acc non-finite (c * inf is nan
        # when c = 0), so one test covers the state
        finite = np.isfinite(acc)
        if not finite.all():
            j = np.flatnonzero(~finite)[0]
            _non_finite(t[j], v[j], vd[j], acc[j])
        return (vd, acc)

    rhs.lanes = lanes
    return rhs


def _check_start(start: State, t_target: float) -> None:
    for name, value in (("t_target", t_target), ("start.t", start.t),
                        ("start.v", start.v), ("start.vdot", start.vdot)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not start.v > 0.0:
        raise ValueError(f"start.v must be positive, got {start.v}")


def _unmoved(start: State, frame: Frame, term: Termination,
             config: IntegratorConfig, stats: SolverStats) -> Trajectory:
    """The one-sample trajectory of a run that took no step."""
    return Trajectory(frame, np.array([start.t]), np.array([start.v]),
                      np.array([start.vdot]), term, config, stats)


def _zero_span(start: State, frame: Frame,
               config: IntegratorConfig) -> Trajectory:
    """The run from start to t_target = start.t, which calls no solver."""
    return _unmoved(start, frame, Termination(
        TerminationKind.REACHED_SPAN_END, start.t), config,
        SolverStats(0, 0, 0))


def integrate(start: State, frame: Frame, t_target: float,
              params: ProblemParams,
              config: IntegratorConfig | None = None) -> Trajectory:
    """Integrate from `start` to t_target (either direction) in `frame`.

    Terminates early on loss of positivity (v crosses zero from above,
    event-located) or on |v| exceeding the amplitude cap; a solver
    step-size underflow is reported rather than raised, also before the
    first step (a one-sample trajectory).  A non-finite t_target or
    start field raises ValueError.
    """
    if config is None:
        config = IntegratorConfig()
    _check_start(start, t_target)
    if t_target == start.t:
        return _zero_span(start, frame, config)
    sol = solve_ivp(log_frame_rhs(params, frame.alpha), start.t, t_target,
                    (start.v, start.vdot), config.rtol, config.atol,
                    config.max_step, config.amplitude_cap)
    term = Termination(sol.status, float(sol.t[-1]))
    if term.t == start.t:
        # an underflow at the first step
        return _unmoved(start, frame, term, config, sol.stats)
    ts = stride_grid(start.t, term.t, config.dense_output_stride)
    v, vdot = sol(ts)
    return Trajectory(frame, ts, v, vdot, term, config, sol.stats)


def integrate_many(starts, frame: Frame, t_target: float,
                   params: ProblemParams,
                   config: IntegratorConfig | None = None) -> list:
    """integrate() from each of `starts`, all run in lockstep by the lane
    core dop853.solve_lanes.

    Each lane takes the steps and samples that integrate takes; the two
    differ only where numpy's exp and power round differently from
    math's (1 ulp in a few percent of values), which moves the samples
    at roundoff.  The lockstep loop pays from about 16 starts; below
    that integrate is faster.
    """
    if config is None:
        config = IntegratorConfig()
    for start in starts:
        _check_start(start, t_target)
    moving = [start for start in starts if start.t != t_target]
    runs = iter(solve_lanes(
        log_frame_rhs(params, frame.alpha).lanes,
        [start.t for start in moving], t_target,
        [[start.v for start in moving], [start.vdot for start in moving]],
        config.rtol, config.atol, config.max_step, config.amplitude_cap,
        config.dense_output_stride) if moving else ())
    trajs = []
    for start in starts:
        if start.t == t_target:
            trajs.append(_zero_span(start, frame, config))
        else:
            run = next(runs)
            trajs.append(Trajectory(
                frame, run.t, run.v, run.vdot,
                Termination(run.status, float(run.t[-1])), config,
                run.stats))
    return trajs


@dataclass(frozen=True)
class Expansion:
    """v = amp + sum_i K_i e^{E_i t} in the alpha frame, one (K_i, E_i)
    in terms per forced power term (see forced_expansion)."""

    alpha: float
    amp: float
    terms: tuple
    gate: float

    def start(self, t: float, frame: Frame | None = None) -> State:
        """The state at t, exactly re-expressed in frame (default its
        own); ValueError unless every |K_i e^{E_i t}| < gate * amp."""
        if not math.isfinite(t):
            raise ValueError(f"start t must be finite, got {t}")
        v, vdot = self.amp, 0.0
        for k, e in self.terms:
            w = k * math.exp(e * t)
            if not abs(w) < self.gate * self.amp:
                raise ValueError(f"t = {t} is too shallow a start: a term "
                                 f"{abs(w):.3e} >= {self.gate:g} x amplitude")
            v, vdot = v + w, vdot + e * w
        d = 0.0 if frame is None else frame.alpha - self.alpha
        fac = math.exp(d * t)  # 1.0 for d = 0: v and vdot unchanged
        return State(t, fac * v, fac * (vdot + d * v))


def forced_expansion(params: ProblemParams, center) -> Expansion:
    """First-order expansion about a fixed point amp of the alpha frame:
    each forced term k e^{E t} v^P adds K e^{E t} with the closed form
    K = -k amp^P / (E^2 + damping E + L), L the restoring coefficient.
    center is an End of derive_constants(params): amp = lambda in its
    frame, its forced term if on, L = alpha (n-2-alpha) (auto_exp - 1),
    gate 0.1.  Or a central value a, the regular solution u(0) = a:
    alpha = 0, amp = a, L = 0, every term at rate 2 + l (the series'
    first correction), gate 1e-6.  ValueError for an end without an
    equilibrium (lambda undefined or its autonomous term off), for a
    non-positive a and for a resonance (zero denominator).
    """
    n = params.n
    if isinstance(center, End):
        if center.lam is None or not center.auto_k:
            raise ValueError(f"no singular equilibrium at {center.name}")
        alpha, amp, gate, damping = center.alpha, center.lam, 0.1, \
            center.damping
        restoring = alpha * (n - 2.0 - alpha) * (center.auto_exp - 1.0)
        forced = [(center.force_k, center.rate, center.force_exp)] \
            if center.force_k else []
    else:
        if not 0.0 < center < math.inf:
            raise ValueError(f"amplitude must be positive, got {center!r}")
        alpha, amp, gate, damping, restoring = 0.0, center, 1e-6, n - 2.0, 0.0
        forced = [(k, 2.0 + l, exp_) for exp_, l, k in params.active_terms()]
    terms = []
    for k, e, exp_ in forced:
        den = e * e + damping * e + restoring
        if den == 0.0:
            raise ValueError(f"resonance: rate {e} solves the linearisation")
        terms.append((-k * amp ** exp_ / den, e))
    return Expansion(alpha, amp, tuple(terms), gate)


def reframe(traj: Trajectory, new_frame: Frame) -> Trajectory:
    """Re-express a trajectory in another frame (exact pointwise algebra).

    v_new = e^{(b-a) t} v,  vdot_new = e^{(b-a) t} (vdot + (b-a) v).
    """
    d = new_frame.alpha - traj.frame.alpha
    if d == 0.0:
        return Trajectory(traj.frame, traj.t.copy(), traj.v.copy(),
                          traj.vdot.copy(), traj.termination, traj.config,
                          traj.stats)
    fac = np.exp(d * traj.t)
    return Trajectory(new_frame, traj.t.copy(), fac * traj.v,
                      fac * (traj.vdot + d * traj.v), traj.termination,
                      traj.config, traj.stats)


CSV_HEADER = "t,r,u,du_dr,v,dv_dt,frame_alpha"


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Flat per-sample schema; every float rendered as fmt_float renders
    it ("%.17g", nan, inf, -inf), so a reload and re-save is
    byte-identical.  Rows are streamed straight from the arrays, so no
    Python-list copy of the columns is held; the constant frame_alpha
    column is formatted once."""
    row = "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g," \
        + fmt_float(traj.frame.alpha) + "\n"
    cols = (traj.t, traj.r, traj.u, traj.du_dr, traj.v, traj.vdot)
    with open(path, "w", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        fh.writelines(row % c for c in zip(*cols))


def csv_round_trip(traj: Trajectory, directory) -> bool:
    """Write, reload and rewrite the trajectory; True iff the two files
    are byte-identical (decimal-text exactness of the CSV schema)."""
    p1, p2 = (Path(directory) / f"round_trip_{x}.csv" for x in "ab")
    write_trajectory_csv(traj, p1)
    write_trajectory_csv(read_trajectory_csv(p1), p2)
    return p1.read_bytes() == p2.read_bytes()


def read_trajectory_csv(path) -> Trajectory:
    """Inverse of write_trajectory_csv; parse errors carry line numbers.

    The header must be CSV_HEADER exactly, every other non-blank line
    holds 7 floats, frame_alpha is constant, and r, u and du_dr agree
    with the values t, v, dv_dt and frame_alpha give them (relative
    1e-12, nan equal to nan).  Blank lines are skipped and CRLF line
    ends accepted.  Metadata (integrator config, termination) is not
    stored in the CSV, so the result has config=None and termination
    inferred lazily via effective_termination().
    """
    with open(path, "r") as fh:
        header = fh.readline()
        if not header:
            raise ValueError(f"{path}: empty file")
        header = header.rstrip("\n")
        if header != CSV_HEADER:
            raise ValueError(f"{path}: line 1: expected header "
                             f"{CSV_HEADER!r}, got {header!r}")
        with warnings.catch_warnings():
            # an empty body is reported as "no data rows" below
            warnings.filterwarnings("ignore", "loadtxt: input contained no "
                                    "data", UserWarning)
            try:
                data = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
            except ValueError as exc:
                raise _line_error(path, exc) from None
    if data.shape[0] == 0:
        raise ValueError(f"{path}: no data rows")
    if data.shape[1] != 7:
        raise _line_error(path, f"expected 7 fields, got {data.shape[1]}")
    alphas = data[:, 6]
    if np.any(alphas[1:] != alphas[0]):
        raise ValueError(f"{path}: frame_alpha column is not constant")
    traj = Trajectory(Frame(float(alphas[0])), data[:, 0].copy(),
                      data[:, 4].copy(), data[:, 5].copy(), None)
    with np.errstate(all="ignore"):
        want = np.column_stack((traj.r, traj.u, traj.du_dr))
    bad = ~np.isclose(data[:, 1:4], want, rtol=1e-12, atol=0.0,
                      equal_nan=True)
    if bad.any():
        row, col = divmod(int(np.flatnonzero(bad)[0]), 3)  # first bad row
        ln = list(_body_lines(path))[row][0]
        raise ValueError(f"{path}: line {ln}: {('r', 'u', 'du_dr')[col]} = "
                         f"{data[row, col + 1]:.17g} does not match "
                         f"{want[row, col]:.17g} from t, v, dv_dt and "
                         "frame_alpha")
    return traj


def _body_lines(path):
    """(line number, text) of the non-blank lines after the header."""
    with open(path, "r") as fh:
        lines = fh.read().splitlines()
    return ((ln, line) for ln, line in enumerate(lines[1:], start=2)
            if line)


def _line_error(path, reason) -> ValueError:
    """The error for the first body line of path that does not hold 7
    floats, named by its line number; reason (the fast parser's
    complaint) when every line passes that test."""
    for ln, line in _body_lines(path):
        cells = line.split(",")
        if len(cells) != 7:
            return ValueError(f"{path}: line {ln}: expected 7 fields, "
                              f"got {len(cells)}")
        try:
            for c in cells:
                float(c)
        except ValueError as exc:
            return ValueError(f"{path}: line {ln}: {exc}")
    return ValueError(f"{path}: {reason}")
