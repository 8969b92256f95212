"""Energy identities and a-priori bounds in the singular frames.

In the alpha1 frame the autonomous part of the system has the Lyapunov
energy E = vdot^2/2 - lambda1^{p-1} v^2/2 + v^{p+1}/(p+1); the damping
term c1 vdot and the non-autonomous q-term inject the two work integrals
tracked here, and E(t) - forcing_work(t) - damping_work(t) is constant
along trajectories (the discrete residual of that identity is the main
correctness probe for the integrator).  The alpha2 frame swaps the roles
of the two power terms; which term plays which role is read from the End
record of the trajectory's frame, dc.frame_end(alpha).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .integrate import TerminationKind, Trajectory
from .params import DerivedConstants, End
from .serialize import Record


def well_potential(v, end: End):
    """The autonomous well of an end's frame,

        v^{k+1}/(k+1) - lambda^{k-1} v^2/2,  k = end.auto_exp,

    i.e. b1 (p, lambda1) at infinity and b (q, lambda2) at the origin.
    The power term is clamped to the positive cone.
    """
    if end.lam is None:
        raise ValueError(f"the well at {end.name} needs a defined singular "
                         "amplitude")
    k = end.auto_exp
    v = np.asarray(v, dtype=float)
    out = np.where(v > 0.0, np.abs(v) ** (k + 1.0), 0.0) / (k + 1.0) \
        - end.lam ** (k - 1.0) * v ** 2 / 2.0
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
    """Energy and work integrals for a singular-frame trajectory.

    Requires the trajectory frame to be alpha1 or alpha2 (the only
    frames with an autonomous well).  Quadrature is cumulative Simpson
    on the sample grid; the dense stride controls the residual floor.
    """
    end = dc.frame_end(traj.frame.alpha)
    order = np.argsort(traj.t)
    t = traj.t[order]
    v = traj.v[order]
    vd = traj.vdot[order]
    a = traj.frame.alpha
    lin = a * (dc.params.n - 2.0 - a)
    vp = np.maximum(v, 0.0)
    k_auto = end.auto_exp
    energy = (0.5 * vd ** 2 - 0.5 * lin * v ** 2
              + end.auto_k * vp ** (k_auto + 1.0) / (k_auto + 1.0))
    if t.size < 2:
        zero = np.zeros_like(t)
        return EnergyTrace(t, energy, zero, zero.copy())
    f_rate = -end.force_k * np.exp(end.rate * t) * vp ** end.force_exp * vd
    d_rate = -end.damping * vd ** 2
    forcing = cumulative_simpson(f_rate, t)
    damping = cumulative_simpson(d_rate, t)
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
                         window: tuple | None = None) -> BoundReport:
    """Tail-bound observables over a window of a positive trajectory.

    The window defaults to the outer quarter on the infinity side
    (Trajectory.end_window).  sup v and sup |vdot| are read in the
    trajectory's own frame; r^{n-2} u nondecreasing and r^{n-1} u'
    nonincreasing are the two monotone quantities of the radial operator,
    checked per sample step with relative slack STEP_TOL.  Trajectories
    that lost positivity are flagged non-applicable (the bounds concern
    positive solutions).
    """
    t_lo_all, t_hi_all = float(np.min(traj.t)), float(np.max(traj.t))
    if window is None:
        window = traj.end_window(dc.end("infinity"))
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

    term = traj.effective_termination()
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
