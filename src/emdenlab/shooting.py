"""Shooting from the regular end and boundary hunting in the amplitude.

A shot starts the regular series solution u(0) = a just off the origin,
integrates outward in the alpha1 frame, and classifies the infinity end.
Boundary hunting bisects between amplitudes whose shots end in different
kinds; connecting orbits instead seed the singular behavior at one end
and integrate across to the other.  That seed-and-cross step
(seed_and_integrate, then classify_ends) is the one the sweep cells and
`emdenlab solve` run too; the end is a DerivedConstants End record,
dc.end("infinity") or dc.end("origin").
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .classify import ClassificationReport, Kind, classify_end
from .integrate import Frame, IntegratorConfig, Trajectory, integrate, \
    regular_series_start, singular_seed_start
from .params import DerivedConstants, End, ProblemParams, classify_regime, \
    derive_constants


SERIES_BUDGET = 1e-7
BISECT_REL_WIDTH = 1e-12
BISECT_MAX_ITER = 80


def series_radius(a: float, params: ProblemParams) -> float:
    """Largest start radius (capped at 1e-4) keeping every series
    correction below SERIES_BUDGET * a."""
    r0 = 1e-4
    for exp_, l, k in params.active_terms():
        if not k:
            continue
        # correction a^P r0^{2+l} / ((2+l)(n+l)) == SERIES_BUDGET a at r0
        r_term = (SERIES_BUDGET * a * (2.0 + l) * (params.n + l)
                  / a ** exp_) ** (1.0 / (2.0 + l))
        r0 = min(r0, r_term)
    return r0


@dataclass
class ShotResult:
    a: float
    r0: float
    trajectory: Trajectory
    report: ClassificationReport

    @property
    def kind(self) -> Kind:
        return self.report.kind

    def to_dict(self) -> dict:
        return {"a": self.a, "r0": self.r0, "report": self.report.to_dict()}


def shoot(a: float, params: ProblemParams,
          dc: DerivedConstants | None = None,
          config: IntegratorConfig | None = None,
          t_target: float = 12.0,
          window: tuple | None = None) -> ShotResult:
    """One regular shot u(0) = a, classified at the infinity end.

    The start radius shrinks automatically with a so the series gate
    always holds; integration runs in the alpha1 frame where the p-term
    is autonomous.
    """
    if not (isinstance(a, (int, float)) and a > 0.0 and math.isfinite(a)):
        raise ValueError(f"shooting amplitude must be positive, got {a!r}")
    if dc is None:
        dc = derive_constants(params)
    frame = Frame(dc.alpha1)
    r0 = series_radius(a, params)
    start = regular_series_start(a, r0, params, frame)
    traj = integrate(start, frame, t_target, params, config)
    report = classify_end(traj, dc, "infinity", window=window)
    return ShotResult(float(a), r0, traj, report)


@dataclass
class BoundaryResult:
    """One bisected kind boundary in the shooting amplitude."""

    a_star: float
    a_lo: float
    a_hi: float
    kind_lo: Kind
    kind_hi: Kind
    iterations: int
    widths: list
    report_star: ClassificationReport

    @property
    def rel_width(self) -> float:
        return (self.a_hi - self.a_lo) / self.a_star

    def to_dict(self) -> dict:
        return {
            "a_star": self.a_star,
            "a_lo": self.a_lo,
            "a_hi": self.a_hi,
            "kind_lo": self.kind_lo.value,
            "kind_hi": self.kind_hi.value,
            "iterations": self.iterations,
            "rel_width": self.rel_width,
            "report_star": self.report_star.to_dict(),
        }


def bisect_boundary(a_lo: float, a_hi: float, params: ProblemParams,
                    dc: DerivedConstants | None = None,
                    config: IntegratorConfig | None = None,
                    t_target: float = 12.0,
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
class ThresholdScan:
    a_grid: np.ndarray
    kinds: list
    shots: list
    boundaries: list

    def to_dict(self) -> dict:
        return {
            "a_grid": [float(a) for a in self.a_grid],
            "kinds": [k.value for k in self.kinds],
            "shots": [s.to_dict() for s in self.shots],
            "boundaries": [b.to_dict() for b in self.boundaries],
        }


def scan_thresholds(a_grid, params: ProblemParams,
                    dc: DerivedConstants | None = None,
                    config: IntegratorConfig | None = None,
                    t_target: float = 12.0,
                    window: tuple | None = None,
                    jobs: int = 1,
                    bisect: bool = True) -> ThresholdScan:
    """Shoot a grid of amplitudes and bisect every kind change.

    The grid must be strictly increasing with at least 16 points.
    Shots come back in grid order (map_jobs), so the outcome is
    identical for any worker count.
    """
    a_grid = np.asarray(a_grid, dtype=float)
    if a_grid.size < 16:
        raise ValueError(f"grid needs >= 16 points, got {a_grid.size}")
    if not np.all(np.diff(a_grid) > 0.0):
        raise ValueError("grid must be strictly increasing")
    if dc is None:
        dc = derive_constants(params)
    shots = map_jobs(partial(shoot, params=params, dc=dc, config=config,
                             t_target=t_target, window=window),
                     a_grid.tolist(), jobs)
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
class ConnectingOrbit:
    direction: str
    trajectory: Trajectory
    report_infinity: ClassificationReport
    report_origin: ClassificationReport

    def to_dict(self) -> dict:
        return {
            "direction": self.direction,
            "report_infinity": self.report_infinity.to_dict(),
            "report_origin": self.report_origin.to_dict(),
        }


# seeding depth and crossing span, frozen by rate/stability calibration
CONNECT_DEFAULTS = {
    "from_infinity": {"t_seed": 14.0, "t_end": -34.0},
    "from_origin": {"t_seed": -10.0, "t_end": 20.0},
}
END_WINDOW = 4.0


def seed_and_integrate(params: ProblemParams, dc: DerivedConstants,
                       end: End, eps: float, t_seed: float, t_end: float,
                       config: IntegratorConfig | None = None
                       ) -> Trajectory:
    """Seed the singular behavior of `end` at t_seed and integrate to
    t_end in that end's frame (see singular_seed_start for the seed)."""
    start = singular_seed_start(end.name, eps, t_seed, params, dc)
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
                     eps: float | None = None,
                     t_seed: float | None = None,
                     t_end: float | None = None,
                     config: IntegratorConfig | None = None
                     ) -> ConnectingOrbit:
    """Seed the singular behavior at one end and integrate to the other.

    from_infinity seeds (lambda1 + eps, eps delta) at t_seed in the
    alpha1 frame and integrates down to t_end; from_origin does the
    mirror run in the alpha2 frame.  Both ends are classified by
    classify_ends.  eps defaults to 1e-4 lambda and must stay within
    1e-3 lambda (eps = 0 runs on the equilibrium and records the
    numerical drift).
    """
    flags = classify_regime(params, dc)
    wanted = {"from_infinity": "singular_at_infinity",
              "from_origin": "singular_at_origin"}
    if direction not in wanted:
        raise ValueError(f"direction must be one of {sorted(wanted)}, "
                         f"got {direction!r}")
    if flags.theorem3_case != wanted[direction]:
        raise ValueError(
            f"{direction} needs regime {wanted[direction]}, but these "
            f"parameters give {flags.theorem3_case!r}")
    end = dc.end("infinity" if direction == "from_infinity" else "origin")
    if eps is None:
        eps = 1e-4 * end.lam
    if abs(eps) > 1e-3 * end.lam:
        raise ValueError(f"|eps| = {abs(eps)} exceeds 1e-3 lambda = "
                         f"{1e-3 * end.lam}")
    defaults = CONNECT_DEFAULTS[direction]
    if t_seed is None:
        t_seed = defaults["t_seed"]
    if t_end is None:
        t_end = defaults["t_end"]
    traj = seed_and_integrate(params, dc, end, eps, t_seed, t_end, config)
    return ConnectingOrbit(direction, traj, *classify_ends(traj, dc))
