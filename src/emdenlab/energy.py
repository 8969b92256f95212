"""Energy identities and a-priori bounds in the log frames.

In any alpha frame (the FrameEquation of params.frame_equation: lin,
damping c and one (P_i, E_i, k_i) per term) the energy
H = vdot^2/2 - lin v^2/2 + sum_i k_i e^{E_i t} v_+^{P_i+1}/(P_i+1) obeys
dH/dt = -c vdot^2 + sum_i k_i E_i e^{E_i t} v_+^{P_i+1}/(P_i+1); the two
terms are the damping and forcing work, and H - forcing_work -
damping_work is constant along trajectories (its discrete residual is
the main correctness probe for the integrator).  At alpha0 = (n-2)/2
the damping vanishes: the radial Pohozaev identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .integrate import TerminationKind, Trajectory
from .params import DerivedConstants, End, frame_equation
from .serialize import Record


def _potential(lin, terms, t, v):
    """sum k e^{E t} v_+^{P+1}/(P+1) - lin v^2/2 over the (P, E, k)
    terms, and its forcing power sum E k e^{E t} v_+^{P+1}/(P+1)."""
    vp = np.maximum(v, 0.0)
    well = power = 0.0
    for exp_, e, k in terms:
        term = k * np.exp(e * t) * vp ** (exp_ + 1.0) / (exp_ + 1.0)
        well = well + term
        power = power + e * term
    return well - 0.5 * lin * v ** 2, power


def well_potential(v, end: End):
    """The autonomous well of an end's frame: energy_trace's potential
    limited to the end's autonomous term, v_+^{P+1}/(P+1) - lin v^2/2
    with lin = lambda^{P-1}: b1 (p, lambda1) at infinity and
    b (q, lambda2) at the origin.
    """
    if end.lam is None:
        raise ValueError(f"the well at {end.name} needs a defined singular "
                         "amplitude")
    eq = end.equation
    out, _ = _potential(eq.lin, [term for term in eq.terms if term[1] == 0.0],
                        0.0, np.asarray(v, dtype=float))
    return float(out) if out.ndim == 0 else out


def cumulative_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running integral of y over the increasing grid x, 0 at x[0].

    Simpson's rule on unequal intervals (Cartwright 2017, eqn 8), written
    operation for operation as scipy.integrate.cumulative_simpson(y, x=x,
    initial=0.0): each interval integrates the parabola through its own
    two points and the next one, the last interval the one through the
    previous point; two samples take the trapezoid.
    """
    dx = np.diff(x)
    if y.size < 3:
        sub = dx * (y[1:] + y[:-1]) / 2.0
    else:
        ahead = _simpson_first_intervals(y, dx)
        behind = _simpson_first_intervals(y[::-1], dx[::-1])[::-1]
        sub = np.empty(dx.size)
        sub[:-1:2] = ahead[::2]
        sub[1::2] = behind[::2]
        sub[-1] = behind[-1]
    return np.cumsum(np.concatenate(([0.0], sub)))


def _simpson_first_intervals(y, dx):
    """Integral over each [x_i, x_i+1] of the parabola through x_i, x_i+1
    and x_i+2."""
    x21, x32 = dx[:-1], dx[1:]
    x21_x31 = x21 / (x21 + x32)
    x21x21_x31x32 = x21_x31 * (x21 / x32)
    return x21 / 6 * ((3 - x21_x31) * y[:-2]
                      + (3 + x21x21_x31x32 + x21_x31) * y[1:-1]
                      - x21x21_x31x32 * y[2:])


@dataclass
class EnergyTrace:
    """Pointwise energy and cumulative work along a trajectory.

    Samples are stored ascending in t regardless of integration
    direction.  Work integrals are signed so that
    energy - forcing_work - damping_work is constant.
    """

    t: np.ndarray
    energy: np.ndarray
    forcing_work: np.ndarray
    damping_work: np.ndarray

    def residual(self) -> np.ndarray:
        return (self.energy - self.forcing_work - self.damping_work
                - self.energy[0])

    def balance_residual(self) -> float:
        """Worst energy-balance mismatch over any sub-interval, relative
        to the energy scale."""
        res = self.residual()
        scale = float(np.max(np.abs(self.energy)))
        if scale == 0.0:
            scale = 1.0
        return float((res.max() - res.min()) / scale)


def energy_trace(traj: Trajectory, dc: DerivedConstants) -> EnergyTrace:
    """H and its work integrals (module docstring) for the equation
    dc.params, in the trajectory's own frame, whatever its alpha.

    Quadrature is cumulative Simpson on the sample grid; the dense
    stride controls the residual floor.
    """
    t, v, vd = traj.ascending()
    eq = frame_equation(dc.params, traj.alpha)
    potential, power = _potential(eq.lin, eq.terms, t, v)
    energy = 0.5 * vd ** 2 + potential
    forcing = cumulative_simpson(power, t)
    damping = cumulative_simpson(-eq.damping * vd ** 2, t)
    return EnergyTrace(t, energy, forcing, damping)


@dataclass(frozen=True)
class BoundReport(Record):
    """Quantitative a-priori bound check over one t-window."""

    window: tuple
    applicable: bool
    reason: str
    sup_v: float
    sup_abs_vdot: float
    integral_vdot_sq: float
    mass_monotone_ok: bool
    flux_monotone_ok: bool
    margins: dict = field(default_factory=dict)


STEP_TOL = 1e-10


def apriori_bound_report(traj: Trajectory, dc: DerivedConstants,
                         window: tuple) -> BoundReport:
    """Tail-bound observables over a window of a positive trajectory.

    sup v and sup |vdot| are read in the trajectory's own frame;
    r^{n-2} u nondecreasing and r^{n-1} u' nonincreasing are the two
    monotone quantities of the radial operator, checked per sample step
    with relative slack STEP_TOL.  Trajectories that lost positivity are
    flagged non-applicable (the bounds concern positive solutions).
    """
    t_lo_all, t_hi_all = float(np.min(traj.t)), float(np.max(traj.t))
    t_lo, t_hi = float(window[0]), float(window[1])
    if not (t_lo_all - 1e-12 <= t_lo < t_hi <= t_hi_all + 1e-12):
        raise ValueError(f"window {window} is not inside the sampled span "
                         f"[{t_lo_all}, {t_hi_all}]")
    sub = traj.window((t_lo, t_hi), 4)
    t, v, vd = sub.t, sub.v, sub.vdot
    n = dc.params.n
    mass = np.exp((n - 2.0) * t) * sub.u
    flux = np.exp((n - 1.0) * t) * sub.du_dr

    mass_scale = float(np.max(np.abs(mass))) or 1.0
    flux_scale = float(np.max(np.abs(flux))) or 1.0
    mass_steps = np.diff(mass) / mass_scale
    flux_steps = np.diff(flux) / flux_scale
    mass_ok = bool(np.all(mass_steps >= -STEP_TOL))
    flux_ok = bool(np.all(flux_steps <= STEP_TOL))

    term = traj.termination
    applicable = term.kind != TerminationKind.POSITIVITY_LOST
    reason = "" if applicable else (
        f"positivity lost at t={term.t}; bounds concern positive solutions")

    return BoundReport(
        window=(t_lo, t_hi),
        applicable=applicable,
        reason=reason,
        sup_v=float(np.max(v)),
        sup_abs_vdot=float(np.max(np.abs(vd))),
        integral_vdot_sq=float(np.trapezoid(vd ** 2, t)),
        mass_monotone_ok=mass_ok,
        flux_monotone_ok=flux_ok,
        margins={
            "min_mass_step_rel": float(np.min(mass_steps)),
            "max_flux_step_rel": float(np.max(flux_steps)),
        },
    )
