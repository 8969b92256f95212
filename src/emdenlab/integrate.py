"""Log-radius integration frames for the double-power radial equation.

With t = ln r and v = r^alpha u the radial equation becomes the
autonomous-plus-forcing system of params.FrameEquation,

    v'' + damping v' - lin v + k1 e^{E1 t} v^p + k2 e^{E2 t} v^q = 0,

built for each alpha by params.frame_equation, the one source of its
coefficients.  A run takes the FrameEquation it solves, and its
Trajectory carries that frame's alpha.  Choosing alpha = alpha1 makes
the p-term autonomous (E1 = 0 exactly, E2 = delta); alpha = alpha2 the
q-term (E2 = 0, E1 = delta2); alpha = 0 is the raw frame.  Every run
starts on forced_expansion, the closed-form amp + sum_i K_i e^{E_i t}
about an end's lambda or a regular u(0).  All trajectories are
integrated with the one right-hand side log_frame_rhs at the accuracy
IntegratorConfig's defaults were chosen for (the step cap bounds the
dense-output and event error, rtol the step error), and sampled on a
fixed stride for downstream fits and quadrature.

The integrator is the in-repo DOP853 of dop853.py: Dormand-Prince 8(5,3)
with its 7th-order dense output (Hairer, Norsett & Wanner, *Solving
Ordinary Differential Equations I*, sections II.5-II.6), with the
tableau, error norm and step controller of scipy's DOP853, so it takes
scipy's steps.  Integration stops at t_target, at a located loss of
positivity, at the amplitude cap, or on a step-size underflow.

It has two cores, and both return a dop853.Solution per run: its steps,
work counts and dense output.  integrate runs one start through the
scalar core, solve_ivp, on floats.  integrate_many runs many starts in
one frame, and the batch size picks the core (LANES_MIN): a small batch
is a loop of integrate, a large one goes through the lane core,
solve_lanes, which advances them in lockstep on numpy arrays; each lane
takes the scalar core's steps, up to numpy's exp and power rounding
1 ulp away from math's.  Both take the one right-hand side object
log_frame_rhs compiles from the term table: it evaluates on arrays,
makes every start (one dop853._start call per run or batch: the first
evaluation and the initial-step probe, one call each for all its
lanes), and builds every interpolant; the scalar core steps with its
attempt, where the acceleration is inlined, the lane core with its
stages, which compute each exponential once for an attempt's 13 stage
times.  One function, _trajectory, turns every run into a Trajectory:
the ends and stride of its stride_grid, built when t is first read,
the Solution that samples it there when the samples are first read,
the FrameEquation whose right-hand side that read passes to it,
whichever core made the run, its termination and its work in
Trajectory.stats.  A read builds the interpolants and samples of only
the steps it touches: a full read all of them, a window of a run not
yet read (Trajectory.window, which a verdict reads once) only the grid
points inside it and the steps they fall in, leaving the run unread.
"""

from __future__ import annotations

import functools
import math
import sys
import textwrap
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .dop853 import TABLEAU, Solution, SolverStats, TerminationKind, \
    attempt_source, solve_ivp, solve_lanes
from .params import DerivedConstants, FrameEquation, frame_equation, \
    real_number
from .serialize import fmt_float, fmt_rows

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

    Every setting is a positive finite number (numpy's are stored as
    Python numbers, a bool is refused); rtol must be at least
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
            val = real_number(getattr(self, f.name))
            if val is None or not val > 0.0:
                raise ValueError(f"{f.name} must be a positive finite number")
            object.__setattr__(self, f.name, val)
        if self.rtol < RTOL_MIN:
            raise ValueError(f"rtol must be >= {RTOL_MIN!r} (100 eps), "
                             f"got {self.rtol!r}")


@dataclass(frozen=True)
class Termination:
    kind: TerminationKind
    t: float


@dataclass
class Trajectory:
    """Sampled solution in the alpha frame v = r^alpha u, plus how the
    integration ended.

    config and stats (the solver's work, see dop853.SolverStats) are
    None for trajectories reloaded from CSV; the sample arrays, the
    frame's finite alpha and the termination are always present
    (read_trajectory_csv infers a reloaded run's termination from its
    last samples).

    The trajectory of a solver run (of_run, as integrate and
    integrate_many build it) holds the ends and stride of its grid, the
    run's dop853.Solution and the FrameEquation it solved.  t is built
    from the ends and stride the first time it is read; v and vdot are
    made together from the Solution on that grid, given that equation's
    right-hand side, the first time either is read, and the Solution
    and equation are then dropped.  A read builds the interpolants and
    samples of only the steps it touches: a window of a run not yet
    read (window) samples the grid points inside it and leaves the run
    unread.  A run whose verdict needs only its direction and
    termination (a shot that loses positivity) builds no grid, is never
    sampled, and its steps' interpolants are never built; one decided
    from its end window (a shot that does not cross) samples that
    window alone.
    """

    alpha: float
    t: np.ndarray
    v: np.ndarray
    vdot: np.ndarray
    termination: Termination
    config: IntegratorConfig | None = None
    stats: SolverStats | None = None

    def __post_init__(self):
        self._check_grid()
        self._set_samples(self.v, self.vdot)

    @classmethod
    def of_run(cls, eq: FrameEquation, grid: tuple, sol: Solution,
               termination: Termination,
               config: IntegratorConfig) -> "Trajectory":
        """The trajectory of the run sol of eq on stride_grid(*grid),
        grid = (t0, t_end, stride): t is built when first read, and v
        and vdot are sampled by sol(t, log_frame_rhs(eq)) when
        either is first read.  The grid is strictly monotone by
        construction (_check_start guards the stride), so it is not
        checked."""
        traj = cls.__new__(cls)
        traj.alpha, traj.termination = eq.alpha, termination
        traj.config, traj.stats = config, sol.stats
        traj._grid, traj._run, traj._eq = grid, sol, eq
        return traj

    def __getattr__(self, name):
        # reached only for a name the instance lacks: the grid or the
        # samples of a run not yet read
        held = self.__dict__
        if name == "t" and "_grid" in held:
            self.t = stride_grid(*held.pop("_grid"))
            return self.t
        if name not in ("v", "vdot") or "_run" not in held:
            raise AttributeError(f"{type(self).__name__!r} object has no "
                                 f"attribute {name!r}")
        self._set_samples(*self._run(self.t, log_frame_rhs(self._eq)))
        del self._run, self._eq
        return held[name]

    def _check_grid(self):
        if not math.isfinite(self.alpha):
            raise ValueError("frame alpha must be finite")
        self.t = np.asarray(self.t, dtype=float)
        if self.t.ndim != 1 or self.t.size == 0:
            raise ValueError("need a non-empty 1-d sample grid")
        if self.t.size > 1:
            steps = np.diff(self.t)
            if not (np.all(steps > 0.0) or np.all(steps < 0.0)):
                raise ValueError("sample grid must be strictly monotone in t")

    def _set_samples(self, v, vdot):
        self.v = np.asarray(v, dtype=float)
        self.vdot = np.asarray(vdot, dtype=float)
        if not (self.t.shape == self.v.shape == self.vdot.shape):
            raise ValueError("sample arrays must share one shape")

    @property
    def r(self) -> np.ndarray:
        return np.exp(self.t)

    @property
    def u(self) -> np.ndarray:
        return self.v * np.exp(-self.alpha * self.t)

    @property
    def du_dr(self) -> np.ndarray:
        a = self.alpha
        return (self.vdot - a * self.v) * np.exp(-(a + 1.0) * self.t)

    @property
    def t_end(self) -> float:
        return float(self.t[-1])

    @property
    def direction(self) -> int:
        """1 when t ascends (or holds one sample), -1 when it descends;
        read from an unread run's grid without building it."""
        grid = self.__dict__.get("_grid")
        t0, t_last = grid[:2] if grid else (self.t[0], self.t[-1])
        return 1 if t0 <= t_last else -1

    def window(self, window: tuple, min_samples: int) -> "Trajectory":
        """The samples with t in window (1e-12 slack), ascending in t.

        A run not yet read samples only its grid points inside the
        window, the interpolants of only the steps they fall in, and
        stays unread: the same bits a full read gives there.  Raises
        ValueError when fewer than min_samples fall inside.
        """
        step = self.direction
        t = self.t[::step]
        inside = (t >= window[0] - 1e-12) & (t <= window[1] + 1e-12)
        count = int(inside.sum())
        if count < min_samples:
            raise ValueError(f"window {window} holds {count} samples; "
                             f"need >= {min_samples}")
        t = t[inside]
        if "_run" in self.__dict__:
            v, vdot = self._run(t, log_frame_rhs(self._eq))
        else:
            v, vdot = self.v[::step][inside], self.vdot[::step][inside]
        return Trajectory(self.alpha, t, v, vdot, self.termination,
                          self.config, self.stats)

    def ascending(self) -> tuple:
        """(t, v, vdot) in ascending t: the arrays or their reverse."""
        step = self.direction
        return self.t[::step], self.v[::step], self.vdot[::step]


def _non_finite(t, v, vd, acc):
    raise RuntimeError(f"non-finite state during integration at t={t}: "
                       f"v={v}, vdot={vd}, vddot={acc}")


# The log-frame system for one layout of the term table, as a factory
# of its constants.  The acceleration of _acceleration has two forms:
# {staged}, on arrays, with the exponentials x<i> that stages computes
# once for rows of times (the 13 stage times of a lane attempt; rhs
# passes one row), and the stage of {attempt}, dop853's attempt_source
# with it inlined on floats, math.exp for np.exp.  A non-finite v or
# vdot makes acc non-finite (c * inf is nan when c = 0), so each form
# tests acc alone.
_RHS_SOURCE = """\
def make(lin, c, {consts}):
    def stages(ts):
{exps}\
        def at(s, v, vd):
            vp = np.maximum(v, 0.0)
            return (vd, {staged})
        return at

    def rhs(t, v, vd):
        with np.errstate(all="ignore"):
            acc = stages(t[None])(0, v, vd)[1]
        finite = np.isfinite(acc)
        if not finite.all():
            j = np.flatnonzero(~finite)[0]
            _non_finite(t[j], v[j], vd[j], acc[j])
        return (vd, acc)

{attempt}
    rhs.attempt, rhs.stages = attempt, stages
    return rhs
"""


def _acceleration(layout: tuple, v: str, vd: str, ex) -> str:
    """lin v - c vd, then each term subtracted in table order, as source:
    the term k_i e^{e_i t} vp^{p_i}, its exponential ex(i) only where
    e_i != 0 (e^{0 t} = 1 exactly) and k_i only where k_i != 1."""
    acc = f"lin * {v} - c * {vd}"
    for i, (has_e, has_k) in enumerate(layout):
        term = f"vp ** p{i}"
        if has_e:
            term = f"{ex(i)} * {term}"
        if has_k:
            term = f"k{i} * ({term})"
        acc += f" - {term}"
    return acc


@functools.lru_cache(maxsize=None)
def _rhs_maker(layout: tuple):
    """The compiled _RHS_SOURCE for a term table whose i-th term has a
    frame exponent e_i != 0 and a weight k_i != 1 as layout[i] says."""
    def stage(kv, kw, t, v, w):
        # f at (t, (v, w)), inlined: v into vs, vdot into kv, acc into kw
        acc = _acceleration(layout, "vs", kv, lambda i: f"exp(e{i} * ({t}))")
        return (f"    vs = {v}\n    {kv} = {w}\n"
                f"    vp = vs if vs > 0.0 else 0.0\n    {kw} = {acc}\n"
                f"    if not isfinite({kw}):\n"
                f"        _non_finite({t}, vs, {kv}, {kw})\n")

    forced = [i for i, (has_e, _) in enumerate(layout) if has_e]
    src = _RHS_SOURCE.format(
        consts=", ".join(f"p{i}, e{i}, k{i}" for i in range(len(layout))),
        exps="".join(f"        x{i} = np.exp(e{i} * ts)\n" for i in forced),
        staged=_acceleration(layout, "v", "vd", lambda i: f"x{i}[s]"),
        attempt=textwrap.indent(attempt_source(*TABLEAU, stage), "    "))
    code = {"np": np, "exp": math.exp, "isfinite": math.isfinite,
            "_non_finite": _non_finite}
    exec(compile(src, "<log_frame_rhs>", "exec"), code)
    return code["make"]


def log_frame_rhs(eq: FrameEquation):
    """The log-frame system of eq as rhs(t, v, vdot) on arrays, the fun
    of both DOP853 cores and of every read of a run.

    Returns (dv/dt, d2v/dt2) at each (t, v, vdot).  The power terms act
    on max(v, 0): an event-located crossing can overshoot to tiny
    negative v, which is clamped rather than rejected.  It evaluates
    under np.errstate, so no numpy warning escapes, and a non-finite
    acceleration raises RuntimeError naming t, v, vdot and vddot there.
    It carries the acceleration's two compiled forms: `attempt`, the
    DOP853 step attempt with it inlined on floats at each stage, which
    solve_ivp steps with, and `stages`, which solve_lanes steps with: it
    evaluates a lane attempt's stages, unchecked, with each exponential
    computed once for all 13; rhs is stages at one row of times, then
    tested.  The attempt raises rhs's error at a stage whose
    acceleration is not finite (math.exp's OverflowError where it
    overflows).  All three are compiled together once per layout of the
    term table, when the first equation of that layout asks.
    """
    make = _rhs_maker(tuple((e != 0.0, k != 1.0) for _, e, k in eq.terms))
    return make(eq.lin, eq.damping, *(x for term in eq.terms for x in term))


def _check_start(start: State, t_target: float,
                 config: IntegratorConfig) -> None:
    """ValueError for a non-finite t_target or start field, a start.v
    that is not positive, and a stride too fine for the span's t.

    stride_grid's times sit within about 1 ulp of t of their exact
    values, so they are distinct once the stride exceeds 2 ulp of the
    span's largest |t|; a finer stride is rejected before the solver
    runs.  A start whose step floor, 10 ulp of t, exceeds max_step is
    left to the solver: it ends by step underflow at its start or after
    one step.
    """
    for name, value in (("t_target", t_target), ("start.t", start.t),
                        ("start.v", start.v), ("start.vdot", start.vdot)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not start.v > 0.0:
        raise ValueError(f"start.v must be positive, got {start.v}")
    stride = config.dense_output_stride
    t_far = max(abs(start.t), abs(t_target))
    if stride <= 2.0 * math.ulp(t_far) and start.t != t_target \
            and 10.0 * math.ulp(start.t) <= config.max_step:
        raise ValueError(f"dense_output_stride {stride!r} is not above 2 ulp "
                         f"of t = {t_far!r} ({2.0 * math.ulp(t_far)!r}): "
                         "its sample times would repeat")


def stride_grid(t0: float, t_last: float, stride: float) -> np.ndarray:
    """t0, t0 +- stride, ... towards t_last, ending on t_last: the last
    stride point moves onto it when within 1e-9 stride, else t_last is
    appended."""
    sgn = 1.0 if t_last > t0 else -1.0
    npts = int(math.floor(abs(t_last - t0) / stride))
    ts = t0 + sgn * stride * np.arange(npts + 1)
    if abs(ts[-1] - t_last) <= 1e-9 * stride:
        ts[-1] = t_last
    else:
        ts = np.append(ts, t_last)
    return ts


def _trajectory(start: State, eq: FrameEquation, sol: Solution,
                config: IntegratorConfig) -> Trajectory:
    """The Trajectory of the solver run sol of eq from start: sol on
    stride_grid from start.t to where the run ended, sampled when first
    read (Trajectory.of_run), or the start alone when it ended where it
    started (a zero span, an underflow at the first step)."""
    term = Termination(sol.status, float(sol.t[-1]))
    if term.t == start.t:
        return Trajectory(eq.alpha, [start.t], [start.v], [start.vdot], term,
                          config, sol.stats)
    return Trajectory.of_run(
        eq, (start.t, term.t, config.dense_output_stride), sol, term, config)


def integrate(start: State, eq: FrameEquation, t_target: float,
              config: IntegratorConfig | None = None) -> Trajectory:
    """Integrate eq from `start` to t_target (either direction), in eq's
    frame.

    Terminates early on loss of positivity (v crosses zero from above,
    event-located) or on |v| exceeding the amplitude cap; a solver
    step-size underflow is reported rather than raised, also before the
    first step (a one-sample trajectory).  ValueError for a start or
    stride that _check_start rejects.
    """
    if config is None:
        config = IntegratorConfig()
    _check_start(start, t_target, config)
    sol = solve_ivp(log_frame_rhs(eq), start.t, t_target,
                    (start.v, start.vdot), config.rtol, config.atol,
                    config.max_step, config.amplitude_cap)
    return _trajectory(start, eq, sol, config)


# The fewest starts integrate_many runs on the lane core.  Its lockstep
# loop costs more per step than a scalar run, so a smaller batch is a
# loop of integrate: on a 2-CPU host, lane batches of regular CONFIG_A
# shots over np.logspace(-2, 2, n) to t = 2 and 12 take 1.4-2.0 times
# the time of a loop of scalar shots at n = 16, 1.1-1.15 at 24,
# 0.75-1.06 at 32 and 0.61-0.74 at 48 (medians of 9 and of 11
# alternating repeats).
LANES_MIN = 32


def integrate_many(starts, eq: FrameEquation, t_target: float,
                   config: IntegratorConfig | None = None) -> list:
    """integrate() from each of `starts`: a loop of integrate for fewer
    than LANES_MIN starts, else all run in lockstep by the lane core
    dop853.solve_lanes.  Every start is checked before the first run.

    Each lane takes the steps that integrate takes, and _trajectory
    turns its Solution into a Trajectory when the lane is yielded; an
    unread lane keeps the Solution's stage values, and no grid, until
    its samples are first read, as a scalar run is.  A lane does not
    depend on its batch.  The two cores step differently only where
    numpy's exp and power round differently from math's (1 ulp in a few
    percent of values), which moves the samples at roundoff.
    """
    if config is None:
        config = IntegratorConfig()
    for start in starts:
        _check_start(start, t_target, config)
    if len(starts) < LANES_MIN:
        return [integrate(start, eq, t_target, config) for start in starts]
    trajs = [None] * len(starts)
    for i, sol in solve_lanes(
            log_frame_rhs(eq),
            [start.t for start in starts], t_target,
            [[start.v for start in starts], [start.vdot for start in starts]],
            config.rtol, config.atol, config.max_step, config.amplitude_cap):
        trajs[i] = _trajectory(starts[i], eq, sol, config)
    return trajs


@dataclass(frozen=True)
class Expansion:
    """v = amp + sum_i K_i e^{E_i t} in the alpha frame, one (K_i, E_i)
    in terms per forced power term (see forced_expansion)."""

    alpha: float
    amp: float
    terms: tuple
    gate: float

    def start(self, t: float, alpha: float | None = None) -> State:
        """The state at t, exactly re-expressed in the alpha frame
        (default its own); ValueError unless every |K_i e^{E_i t}| <
        gate * amp."""
        if not math.isfinite(t):
            raise ValueError(f"start t must be finite, got {t}")
        v, vdot = self.amp, 0.0
        for k, e in self.terms:
            w = k * math.exp(e * t)
            if not abs(w) < self.gate * self.amp:
                raise ValueError(f"t = {t} is too shallow a start: a term "
                                 f"{abs(w):.3e} >= {self.gate:g} x amplitude")
            v, vdot = v + w, vdot + e * w
        d = 0.0 if alpha is None else alpha - self.alpha
        fac = math.exp(d * t)  # 1.0 for d = 0: v and vdot unchanged
        return State(t, fac * v, fac * (vdot + d * v))


def forced_expansion(dc: DerivedConstants, center) -> Expansion:
    """First-order expansion about a fixed point amp of a FrameEquation:
    each forced term k e^{E t} v^P adds K e^{E t} with the closed form
    K = -k amp^P / (E^2 + damping E + L), L = lin (P - 1) summed over the
    autonomous terms (0 when there are none).  center is the name of an
    end, dc.end(center): its equation, amp = lambda, gate 0.1.  Or a
    central value a, the regular solution u(0) = a of dc.params: the
    alpha = 0 equation, where every term is forced at rate 2 + l (the
    series' first correction), amp = float(a), gate 1e-6.  ValueError
    for an unknown end name, an end without an equilibrium (lam None), a
    non-positive or non-finite a, an a whose power a^P overflows and a
    resonance (zero denominator).
    """
    if isinstance(center, str):
        end = dc.end(center)
        if end.lam is None:
            raise ValueError(f"no singular equilibrium at {end.name}")
        eq, amp, gate = end.equation, end.lam, 0.1
    else:
        if not 0.0 < center < math.inf:
            raise ValueError(
                f"amplitude must be positive and finite, got {center!r}")
        eq, amp, gate = frame_equation(dc.params, 0.0), float(center), 1e-6
    restoring = sum(eq.lin * (exp_ - 1.0) for exp_, e, _ in eq.terms
                    if e == 0.0)
    terms = []
    for exp_, e, k in eq.terms:
        if e != 0.0:
            den = e * e + eq.damping * e + restoring
            if den == 0.0:
                raise ValueError(
                    f"resonance: rate {e} solves the linearisation")
            try:
                terms.append((-k * amp ** exp_ / den, e))
            except OverflowError:
                raise ValueError(f"amplitude {amp!r} is too large: its "
                                 f"power {exp_!r} overflows") from None
    return Expansion(eq.alpha, amp, tuple(terms), gate)


def reframe(traj: Trajectory, alpha: float) -> Trajectory:
    """Re-express a trajectory in the alpha frame (exact pointwise
    algebra).

    v_new = e^{(b-a) t} v,  vdot_new = e^{(b-a) t} (vdot + (b-a) v).
    """
    d = alpha - traj.alpha
    if d == 0.0:
        return Trajectory(traj.alpha, traj.t.copy(), traj.v.copy(),
                          traj.vdot.copy(), traj.termination, traj.config,
                          traj.stats)
    fac = np.exp(d * traj.t)
    return Trajectory(alpha, traj.t.copy(), fac * traj.v,
                      fac * (traj.vdot + d * traj.v), traj.termination,
                      traj.config, traj.stats)


CSV_HEADER = "t,r,u,du_dr,v,dv_dt,frame_alpha"


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Flat per-sample schema; every float rendered as fmt_float renders
    it ("%.17g", nan, inf, -inf), so a reload and re-save is
    byte-identical.  The rows are rendered in arrays (fmt_rows) and
    streamed a block at a time; the constant frame_alpha column is
    formatted once."""
    table = np.column_stack((traj.t, traj.r, traj.u, traj.du_dr, traj.v,
                             traj.vdot))
    with open(path, "wb") as fh:
        fh.write((CSV_HEADER + "\n").encode())
        fh.writelines(fmt_rows(table, fmt_float(traj.alpha) + "\n"))


def csv_round_trip(traj: Trajectory, directory) -> bool:
    """Write, reload and rewrite the trajectory; True iff the two files
    are byte-identical (decimal-text exactness of the CSV schema)."""
    p1, p2 = (Path(directory) / f"round_trip_{x}.csv" for x in "ab")
    write_trajectory_csv(traj, p1)
    write_trajectory_csv(read_trajectory_csv(p1), p2)
    return p1.read_bytes() == p2.read_bytes()


def read_trajectory_csv(path) -> Trajectory:
    """Inverse of write_trajectory_csv; every rejection names the file,
    and parse errors carry line numbers.

    The header must be CSV_HEADER exactly, every other non-blank line
    holds 7 floats, frame_alpha is constant, and r, u and du_dr agree
    with the values t, v, dv_dt and frame_alpha give them (relative
    1e-12, nan equal to nan).  Blank lines are skipped and CRLF line
    ends accepted.  Metadata (integrator config, termination) is not
    stored in the CSV, so the result has config=None and a termination
    inferred from the last samples, at t[-1]: POSITIVITY_LOST when the
    last v is <= 0 or <= 1e-6 x the largest |v| of the (up to 10)
    samples before it, else REACHED_SPAN_END.  A crossing leaves the
    last sample many orders below its recent neighbors; a smooth
    exponential tail stays within a few percent of them however small
    it gets and is never read as one.
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
    v = data[:, 4]
    kind = TerminationKind.REACHED_SPAN_END
    if v[-1] <= 0.0:
        kind = TerminationKind.POSITIVITY_LOST
    elif v.size > 1:
        local = float(np.max(np.abs(v[max(0, v.size - 11):-1])))
        if local > 0.0 and v[-1] <= 1e-6 * local:
            kind = TerminationKind.POSITIVITY_LOST
    try:
        traj = Trajectory(float(alphas[0]), data[:, 0].copy(), v.copy(),
                          data[:, 5].copy(),
                          Termination(kind, float(data[-1, 0])))
    except ValueError as exc:  # a non-finite alpha, a non-monotone grid
        raise ValueError(f"{path}: {exc}") from None
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
