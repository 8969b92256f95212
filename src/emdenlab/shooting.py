"""Shooting from the regular end and boundary hunting in the amplitude.

Shots, scans and orbits take one DerivedConstants and read the equation
from its dc.params, so no run is integrated in one parameter set's frame
and classified against another's.  A shot starts the regular solution
u(0) = a on its series expansion (forced_expansion about a) at the
largest radius r0 its SERIES_BUDGET allows (regular_start), integrates
outward in the alpha1 frame to a later t_target, and classifies the
infinity end.  A shot keeps what it was shot with, and boundary
hunting reads it from the shots: bisect_many(pairs) halves brackets of
two neighbouring grid shots of different kinds in lockstep, one
shoot_many of the live midpoints per halving, without shooting either
end again; bisect_boundary(lo, hi) is bisect_many of one pair, and
scan_thresholds(shots) of every kind change of a grid.  A
crossing seeds one end, named as in dc.end, on its forced expansion
about lambda at its own side of a span (t_min, t_max) and integrates to
the other side (seed_and_integrate), then classifies both ends
(classify_ends): connecting orbits over their CONNECT_DEFAULTS span,
sweep cells and `emdenlab solve` over the run config's [spans].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .classify import ClassificationReport, Kind, classify_end, end_window
from .integrate import IntegratorConfig, Trajectory, forced_expansion, \
    integrate, integrate_many
from .params import DerivedConstants, classify_regime, is_integer
from .serialize import SKIP, Record


# default horizon (t_target) of shoot and shoot_many
T_TARGET = 12.0
SERIES_BUDGET = 1e-7
BISECT_REL_WIDTH = 1e-12
BISECT_MAX_ITER = 80


def regular_start(a: float, dc: DerivedConstants, t_target: float) -> tuple:
    """(r0, start) of the regular shot u(0) = a in the alpha1 frame, r0
    the largest radius (at most 1e-4) keeping every first-order term
    |K_i| r0^{E_i} of the expansion about a below SERIES_BUDGET a.
    ValueError for a non-positive or overflowing a (forced_expansion),
    for an r0 or start v = r0^alpha1 u(r0) that underflows to 0 (a huge
    a, a slow rate or a large alpha1), and unless t_target lies past the
    start t = ln r0."""
    expansion = forced_expansion(dc, a)
    # a^P can underflow to K = 0: that term is then negligible
    r0 = min([1e-4] + [(SERIES_BUDGET * a / abs(k)) ** (1.0 / e)
                       for k, e in expansion.terms if k])
    start = expansion.start(math.log(r0), dc.alpha1) if r0 else None
    if start is None or start.v == 0.0:
        raise ValueError(
            f"the shot u(0) = {a!r} cannot start: its series radius "
            f"r0 = {r0!r} raised to alpha1 = {dc.alpha1!r} underflows, so "
            "the start v = r0^alpha1 u(r0) is 0")
    if t_target <= start.t:
        raise ValueError(f"t_target = {t_target!r} must exceed the shot's "
                         f"start t = ln r0 = {start.t!r}")
    return r0, start


@dataclass
class ShotResult(Record):
    """One regular shot u(0) = a: its start radius r0, its run and the
    verdict at its infinity end, and the dc and t_target it was shot
    with (its run keeps the config); only a, r0 and report are JSON."""

    a: float
    r0: float
    trajectory: Trajectory = field(metadata=SKIP)
    report: ClassificationReport
    dc: DerivedConstants = field(metadata=SKIP)
    t_target: float = field(metadata=SKIP)

    @property
    def kind(self) -> Kind:
        return self.report.kind

    @property
    def settings(self) -> tuple:
        """(dc, config, t_target), the shot's arguments to shoot."""
        return self.dc, self.trajectory.config, self.t_target


def _check_alike(shots: list, what: str) -> None:
    """ValueError naming each setting in which the shots differ."""
    differ = [name for i, name in enumerate(("dc", "config", "t_target"))
              if any(s.settings[i] != shots[0].settings[i] for s in shots)]
    if differ:
        raise ValueError(f"{what} were not all shot alike: they differ in "
                         + ", ".join(differ))


def shoot(a: float, dc: DerivedConstants,
          config: IntegratorConfig | None = None,
          t_target: float = T_TARGET) -> ShotResult:
    """The one regular shot u(0) = a: shoot_many of that amplitude."""
    return shoot_many([a], dc, config, t_target)[0]


def shoot_many(a_grid, dc: DerivedConstants,
               config: IntegratorConfig | None = None,
               t_target: float = T_TARGET) -> list:
    """The regular shot u(0) = a at every amplitude of a_grid, each
    classified at the infinity end; ShotResults in grid order.  A shot's
    start radius shrinks with a so the series gate always holds, and it
    runs in the alpha1 frame, where the p-term is autonomous.  Every
    start is built before the first run, and the runs are one
    integrate_many batch.
    """
    starts = [regular_start(a, dc, t_target) for a in a_grid]
    trajs = integrate_many([start for _, start in starts],
                           dc.end("infinity").equation, t_target, config)
    return [ShotResult(float(a), r0, traj,
                       classify_end(traj, dc, "infinity"), dc, t_target)
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
    report_star: ClassificationReport

    JSON_EXTRA = ("rel_width",)

    @property
    def rel_width(self) -> float:
        return (self.a_hi - self.a_lo) / self.a_star


def bisect_many(pairs: list) -> list:
    """Bisect every bracket (lo, hi) of pairs in lockstep: two shots of
    different kinds, lo.a < hi.a, all shot alike and not shot again.
    Each halving is one shoot_many of the live midpoints, with the
    pairs' dc, config and t_target, and one more shoots every a*.  A
    bracket's width contracts by exactly half per halving, and the
    bracket leaves the live set once (a_hi - a_lo)/a_mid <
    BISECT_REL_WIDTH or after BISECT_MAX_ITER halvings.  Every pair is
    checked before the first shot; BoundaryResults in pair order.
    """
    for lo, hi in pairs:
        if not lo.a < hi.a:
            raise ValueError(f"need a_lo < a_hi, got {lo.a} >= {hi.a}")
        if lo.kind == hi.kind:
            raise ValueError(f"bracket endpoints agree ({lo.kind.value}); "
                             "nothing to bisect")
    if not pairs:
        return []
    _check_alike([s for pair in pairs for s in pair], "bracket endpoints")
    settings = pairs[0][0].settings
    a_lo, a_hi = [lo.a for lo, _ in pairs], [hi.a for _, hi in pairs]
    iterations = [0] * len(pairs)
    live = range(len(pairs))
    while True:
        mids = [0.5 * (lo + hi) for lo, hi in zip(a_lo, a_hi)]
        live = [i for i in live if iterations[i] < BISECT_MAX_ITER
                and (a_hi[i] - a_lo[i]) / mids[i] >= BISECT_REL_WIDTH]
        if not live:
            break
        shots = shoot_many([mids[i] for i in live], *settings)
        for i, shot in zip(live, shots):
            if shot.kind == pairs[i][0].kind:
                a_lo[i] = mids[i]
            else:
                a_hi[i] = mids[i]
            iterations[i] += 1
    stars = shoot_many(mids, *settings)
    return [BoundaryResult(mids[i], a_lo[i], a_hi[i], lo.kind, hi.kind,
                           iterations[i], stars[i].report)
            for i, (lo, hi) in enumerate(pairs)]


def bisect_boundary(lo: ShotResult, hi: ShotResult) -> BoundaryResult:
    """The one bracket (lo, hi): bisect_many of that pair."""
    return bisect_many([(lo, hi)])[0]


@dataclass
class ThresholdScan(Record):
    """A grid of shots and one BoundaryResult per kind change; its
    amplitudes and kinds are read from the shots."""

    shots: list
    boundaries: list

    JSON_EXTRA = ("a_grid", "kinds")

    @property
    def a_grid(self) -> np.ndarray:
        return np.array([s.a for s in self.shots], dtype=float)

    @property
    def kinds(self) -> list:
        return [s.kind for s in self.shots]


def check_grid(a_grid: np.ndarray | int) -> None:
    """ValueError unless the amplitude grid of a scan has at least 16
    points, strictly increasing.  An integer (not a bool) is the point
    count of a grid not yet built, and only the count is checked;
    anything else that is not an array is a ValueError."""
    count = is_integer(a_grid)
    if not (count or isinstance(a_grid, np.ndarray)):
        raise ValueError("grid must be an array of amplitudes or a point "
                         f"count, got {a_grid!r}")
    size = int(a_grid) if count else a_grid.size
    if size < 16:
        raise ValueError(f"grid needs >= 16 points, got {size}")
    if not count and not np.all(np.diff(a_grid) > 0.0):
        raise ValueError("grid must be strictly increasing")


def scan_thresholds(shots: list) -> ThresholdScan:
    """Bisect every kind change of a grid of shots: shot alike, on a
    grid check_grid accepts.  Each pair of neighbouring shots of
    different kinds is a bracket, and bisect_many halves them all
    together, back in grid order.  A bad grid is a ValueError before
    the first bisection shot."""
    check_grid(np.array([s.a for s in shots], dtype=float))
    _check_alike(shots, "scan shots")
    return ThresholdScan(shots, bisect_many(
        [(lo, hi) for lo, hi in zip(shots, shots[1:]) if lo.kind != hi.kind]))


@dataclass
class ConnectingOrbit(Record):
    direction: str
    trajectory: Trajectory = field(metadata=SKIP)
    report_infinity: ClassificationReport
    report_origin: ClassificationReport


# crossing (t_min, t_max) per direction, frozen by rate/stability calibration
CONNECT_DEFAULTS = {"from_infinity": (-34.0, 14.0),
                    "from_origin": (-10.0, 20.0)}
END_WINDOW = 4.0


def seed_and_integrate(dc: DerivedConstants, end: str, span: tuple,
                       config: IntegratorConfig | None = None
                       ) -> Trajectory:
    """Seed dc.end(end) on its forced expansion lambda + K e^{rate t} at
    its side of span = (t_min, t_max), t_max at infinity and t_min at
    the origin, and integrate to the other side in that end's frame."""
    e = dc.end(end)
    t_seed, t_stop = span[::-e.side]
    start = forced_expansion(dc, end).start(t_seed)
    return integrate(start, e.equation, t_stop, config)


def classify_ends(traj: Trajectory, dc: DerivedConstants) -> tuple:
    """(report_infinity, report_origin) of a crossing trajectory.

    Each end is read on its END_WINDOW-wide end_window (the default
    outer quarter is too wide on long crossings); spans shorter than 2
    END_WINDOW use the default.  The crossing is read in full first: its
    CSV and its checks read it whole, so it is sampled once, and each
    window is cut from its samples.
    """
    t = traj.ascending()[0]
    lo, hi = float(t[0]), float(t[-1])
    width = END_WINDOW if hi - lo >= 2.0 * END_WINDOW else None
    return tuple(classify_end(traj, dc, e.name,
                              window=end_window(traj, e, width))
                 for e in dc.ends)


def connecting_orbit(dc: DerivedConstants, direction: str,
                     config: IntegratorConfig | None = None
                     ) -> ConnectingOrbit:
    """Seed the singular behavior at one end and integrate to the other.

    from_infinity seeds lambda1 + K e^{delta t} at the top of its
    CONNECT_DEFAULTS span in the alpha1 frame (seed_and_integrate) and
    integrates down to the bottom; from_origin does the mirror run up
    from lambda2 + K e^{delta2 t} in the alpha2 frame.  Both ends are
    classified by classify_ends.
    """
    if direction not in CONNECT_DEFAULTS:
        raise ValueError(f"direction must be one of "
                         f"{sorted(CONNECT_DEFAULTS)}, got {direction!r}")
    end = dc.end(direction.removeprefix("from_"))
    case = classify_regime(dc.params, dc).theorem3_case
    if case != f"singular_at_{end.name}":
        raise ValueError(f"{direction} needs regime singular_at_{end.name}, "
                         f"but these parameters give {case!r}")
    traj = seed_and_integrate(dc, end.name, CONNECT_DEFAULTS[direction],
                              config)
    return ConnectingOrbit(direction, traj, *classify_ends(traj, dc))
