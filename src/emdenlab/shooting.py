"""Shooting from the regular end and boundary hunting in the amplitude.

A shot starts the regular solution u(0) = a on its series expansion
(forced_expansion about a) at r0 = series_radius, integrates outward in
the alpha1 frame, and classifies the infinity end.  Boundary hunting
bisects between amplitudes whose shots end in different kinds;
connecting orbits seed one end on its forced expansion about lambda at
the caller's depth and integrate across to the other: the step
(seed_and_integrate, then classify_ends) the sweep cells and `emdenlab
solve` run too, for an End record dc.end("infinity") or dc.end("origin").
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .classify import ClassificationReport, Kind, classify_end
from .integrate import Frame, IntegratorConfig, Trajectory, \
    forced_expansion, integrate, integrate_many
from .params import DerivedConstants, End, ProblemParams, classify_regime, \
    derive_constants
from .serialize import SKIP, Record


# default horizon (t_target) of shoot, bisect_boundary and scan_thresholds
T_TARGET = 12.0
SERIES_BUDGET = 1e-7
BISECT_REL_WIDTH = 1e-12
BISECT_MAX_ITER = 80


def series_radius(a: float, params: ProblemParams) -> float:
    """Largest start radius (capped at 1e-4) keeping every first-order
    term |K_i| r0^{E_i} of the expansion about a below SERIES_BUDGET a."""
    # a^P can underflow to K = 0: that term is then negligible
    return min([1e-4] + [(SERIES_BUDGET * a / abs(k)) ** (1.0 / e)
                         for k, e in forced_expansion(params, a).terms
                         if k])


def _regular_start(a: float, params: ProblemParams, frame: Frame) -> tuple:
    """(r0, start) of the regular shot u(0) = a in frame.

    ValueError for a non-positive a, and for a tiny r0 with a large alpha1,
    which underflows the frame's start v = r0^alpha1 u(r0) to 0."""
    r0 = series_radius(a, params)
    start = forced_expansion(params, a).start(math.log(r0), frame)
    if start.v == 0.0:
        raise ValueError(
            f"the shot u(0) = {a!r} cannot start: its series radius "
            f"r0 = {r0!r} raised to alpha1 = {frame.alpha!r} underflows, so "
            "the start v = r0^alpha1 u(r0) is 0")
    return r0, start


@dataclass
class ShotResult(Record):
    a: float
    r0: float
    trajectory: Trajectory = field(metadata=SKIP)
    report: ClassificationReport

    @property
    def kind(self) -> Kind:
        return self.report.kind


def shoot(a: float, params: ProblemParams,
          dc: DerivedConstants | None = None,
          config: IntegratorConfig | None = None,
          t_target: float = T_TARGET,
          window: tuple | None = None) -> ShotResult:
    """One regular shot u(0) = a, classified at the infinity end.

    The start radius shrinks automatically with a so the series gate
    always holds; integration runs in the alpha1 frame where the p-term
    is autonomous.
    """
    if dc is None:
        dc = derive_constants(params)
    frame = Frame(dc.alpha1)
    r0, start = _regular_start(a, params, frame)
    traj = integrate(start, frame, t_target, params, config)
    report = classify_end(traj, dc, "infinity", window=window)
    return ShotResult(float(a), r0, traj, report)


def shoot_many(a_grid, params: ProblemParams,
               dc: DerivedConstants | None = None,
               config: IntegratorConfig | None = None,
               t_target: float = T_TARGET,
               window: tuple | None = None) -> list:
    """shoot() at every amplitude of a_grid, the shots integrated in
    lockstep as one lane batch (integrate_many); ShotResults in grid
    order.  Worth it from about 16 amplitudes; single shots and
    bisection midpoints go through shoot.
    """
    if dc is None:
        dc = derive_constants(params)
    frame = Frame(dc.alpha1)
    starts = [_regular_start(a, params, frame) for a in a_grid]
    trajs = integrate_many([start for _, start in starts], frame, t_target,
                           params, config)
    return [ShotResult(float(a), r0, traj,
                       classify_end(traj, dc, "infinity", window=window))
            for a, (r0, _), traj in zip(a_grid, starts, trajs)]


@dataclass
class BoundaryResult(Record):
    """One bisected kind boundary in the shooting amplitude."""

    a_star: float
    a_lo: float
    a_hi: float
    kind_lo: Kind
    kind_hi: Kind
    iterations: int
    widths: list = field(metadata=SKIP)
    report_star: ClassificationReport

    JSON_EXTRA = ("rel_width",)

    @property
    def rel_width(self) -> float:
        return (self.a_hi - self.a_lo) / self.a_star


def bisect_boundary(a_lo: float, a_hi: float, params: ProblemParams,
                    dc: DerivedConstants | None = None,
                    config: IntegratorConfig | None = None,
                    t_target: float = T_TARGET,
                    window: tuple | None = None) -> BoundaryResult:
    """Bisect an amplitude bracket whose shots differ in kind.

    The bracket width contracts by exactly half per iteration; stops
    when (a_hi - a_lo)/a_mid < BISECT_REL_WIDTH or after BISECT_MAX_ITER
    steps.
    """
    if not a_lo < a_hi:
        raise ValueError(f"need a_lo < a_hi, got {a_lo} >= {a_hi}")
    if dc is None:
        dc = derive_constants(params)

    def kind_of(a):
        return shoot(a, params, dc, config, t_target, window).kind

    kind_lo = kind_of(a_lo)
    kind_hi = kind_of(a_hi)
    if kind_lo == kind_hi:
        raise ValueError(
            f"bracket endpoints agree ({kind_lo.value}); nothing to bisect")
    widths = [a_hi - a_lo]
    iterations = 0
    while iterations < BISECT_MAX_ITER:
        mid = 0.5 * (a_lo + a_hi)
        if (a_hi - a_lo) / mid < BISECT_REL_WIDTH:
            break
        if kind_of(mid) == kind_lo:
            a_lo = mid
        else:
            a_hi = mid
        widths.append(a_hi - a_lo)
        iterations += 1
    a_star = 0.5 * (a_lo + a_hi)
    star = shoot(a_star, params, dc, config, t_target, window)
    return BoundaryResult(a_star, a_lo, a_hi, kind_lo, kind_hi, iterations,
                          widths, star.report)


def effective_jobs(jobs: int) -> int:
    """Worker processes used for `jobs` requested: at least 1, at most
    os.cpu_count()."""
    return max(1, min(jobs, os.cpu_count() or 1))


def resolve_jobs(requested: int | None = None,
                 configured: int | None = None) -> int:
    """Worker count asked for: `requested` (--jobs), else `configured`
    ([sweep] jobs), else the EMDEN_JOBS environment variable (unset or
    empty counts as absent), else 1.  The value taken must be an integer
    >= 1; otherwise ValueError names its source."""
    for source, raw in (("--jobs", requested), ("[sweep] jobs", configured),
                        ("EMDEN_JOBS", os.environ.get("EMDEN_JOBS") or None)):
        if raw is None:
            continue
        try:
            jobs = int(raw)
        except ValueError:
            raise ValueError(f"{source}: cannot parse {raw!r} as an "
                             "integer") from None
        if jobs < 1:
            raise ValueError(f"{source} must be >= 1, got {jobs}")
        return jobs
    return 1


def map_jobs(fn, items, jobs: int) -> list:
    """[fn(x) for x in items], fanned out over effective_jobs(jobs)
    processes when that exceeds 1; results come back in item order."""
    workers = effective_jobs(jobs)
    if workers == 1:
        return [fn(x) for x in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


@dataclass
class ThresholdScan(Record):
    a_grid: np.ndarray
    kinds: list
    shots: list
    boundaries: list


def scan_thresholds(a_grid, params: ProblemParams,
                    dc: DerivedConstants | None = None,
                    config: IntegratorConfig | None = None,
                    t_target: float = T_TARGET,
                    window: tuple | None = None,
                    jobs: int = 1,
                    bisect: bool = True) -> ThresholdScan:
    """Shoot a grid of amplitudes and bisect every kind change.

    The grid must be strictly increasing with at least 16 points.  It is
    shot as one contiguous lane batch per worker (shoot_many over
    map_jobs); a lane's trajectory does not depend on the batch it rides
    in and batches come back in grid order, so the outcome is identical
    for any worker count.
    """
    a_grid = np.asarray(a_grid, dtype=float)
    if a_grid.size < 16:
        raise ValueError(f"grid needs >= 16 points, got {a_grid.size}")
    if not np.all(np.diff(a_grid) > 0.0):
        raise ValueError("grid must be strictly increasing")
    if dc is None:
        dc = derive_constants(params)
    batches = map_jobs(partial(shoot_many, params=params, dc=dc,
                               config=config, t_target=t_target,
                               window=window),
                       [chunk.tolist() for chunk in
                        np.array_split(a_grid, effective_jobs(jobs))], jobs)
    shots = [shot for batch in batches for shot in batch]
    kinds = [s.kind for s in shots]
    boundaries = []
    if bisect:
        for i in range(len(kinds) - 1):
            if kinds[i] != kinds[i + 1]:
                boundaries.append(bisect_boundary(
                    float(a_grid[i]), float(a_grid[i + 1]), params, dc,
                    config, t_target, window))
    return ThresholdScan(a_grid, kinds, shots, boundaries)


@dataclass
class ConnectingOrbit(Record):
    direction: str
    trajectory: Trajectory = field(metadata=SKIP)
    report_infinity: ClassificationReport
    report_origin: ClassificationReport


# seeding depth and crossing span, frozen by rate/stability calibration
CONNECT_DEFAULTS = {"from_infinity": (14.0, -34.0),
                    "from_origin": (-10.0, 20.0)}  # (t_seed, t_end)
END_WINDOW = 4.0


def seed_and_integrate(params: ProblemParams, end: End, t_seed: float,
                       t_end: float, config: IntegratorConfig | None = None
                       ) -> Trajectory:
    """Seed `end` at t_seed on its forced expansion lambda + K e^{rate t}
    and integrate to t_end in that end's frame."""
    start = forced_expansion(params, end).start(t_seed)
    return integrate(start, Frame(end.alpha), t_end, params, config)


def classify_ends(traj: Trajectory, dc: DerivedConstants) -> tuple:
    """(report_infinity, report_origin) of a crossing trajectory.

    Each end is read on the END_WINDOW-wide Trajectory.end_window (the
    default outer quarter is too wide on long crossings); spans shorter
    than 2 END_WINDOW use the default.
    """
    lo, hi = float(traj.t.min()), float(traj.t.max())
    width = END_WINDOW if hi - lo >= 2.0 * END_WINDOW else None
    return tuple(classify_end(traj, dc, e.name,
                              window=traj.end_window(e, width))
                 for e in dc.ends)


def connecting_orbit(params: ProblemParams, dc: DerivedConstants,
                     direction: str,
                     t_seed: float | None = None,
                     t_end: float | None = None,
                     config: IntegratorConfig | None = None
                     ) -> ConnectingOrbit:
    """Seed the singular behavior at one end and integrate to the other.

    from_infinity seeds lambda1 + K e^{delta t} at t_seed in the alpha1
    frame (seed_and_integrate) and integrates down to t_end; from_origin
    does the mirror run from lambda2 + K e^{delta2 t} in the alpha2
    frame.  t_seed and t_end default to CONNECT_DEFAULTS.  Both ends are
    classified by classify_ends.
    """
    if direction not in CONNECT_DEFAULTS:
        raise ValueError(f"direction must be one of "
                         f"{sorted(CONNECT_DEFAULTS)}, got {direction!r}")
    end = dc.end(direction.removeprefix("from_"))
    case = classify_regime(params, dc).theorem3_case
    if case != f"singular_at_{end.name}":
        raise ValueError(f"{direction} needs regime singular_at_{end.name}, "
                         f"but these parameters give {case!r}")
    seed_default, end_default = CONNECT_DEFAULTS[direction]
    traj = seed_and_integrate(params, end,
                              seed_default if t_seed is None else t_seed,
                              end_default if t_end is None else t_end, config)
    return ConnectingOrbit(direction, traj, *classify_ends(traj, dc))
