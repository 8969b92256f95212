"""Acceptance suite: ten end-to-end checks of the laboratory.

Each criterion exercises one quantitative claim (exact oracles, limit
values, decay rates, envelope identities, bound checks, balance
residuals, shot dichotomy, threshold stability, artifact determinism)
and reports one PASS/FAIL line.  Thresholds live in TOLERANCES and can
be overridden (the `verify --mutate` path uses that to prove the suite
actually reacts to perturbations).

Two checks fail by design of the underlying dynamics and are kept
honest rather than tuned away; see README "Known infeasible checks".
"""

from __future__ import annotations

import math
import tempfile
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .classify import Kind, classify_end, fit_exponential_rate, \
    oscillation_envelope
from .energy import apriori_bound_report, energy_trace, well_potential
from .integrate import Frame, IntegratorConfig, State, csv_round_trip, \
    integrate
from .params import ProblemParams, aubin_talenti_profile, derive_constants
from .shooting import connecting_orbit, effective_jobs, scan_thresholds, \
    shoot, shoot_many
from .sweep import RunConfig, sweep

TOLERANCES = {
    "c1_profile_rel": 1e-8,
    "c1_runtime_s": 1.0,
    "c2_profile_rel": 1e-7,
    "c2_tail_constant_rel": 1e-3,
    "c3_limit_rel": 5e-3,
    "c3_runtime_s": 10.0,
    "c4_rate_band": 0.1,
    "c5_min_extrema": 6,
    "c5_b_match_rel": 1e-3,
    "c6_sup_vdot": 1e-3,
    "c7_balance": 1e-6,
    "c9_expected_boundaries": 1,
    "c9_bisect_rel_width": 1e-12,
}

CONFIG_A = ProblemParams(n=5, p=1.9, q=1.95, l1=0.0, l2=-0.5)
CONFIG_B = ProblemParams(n=5, p=1.9, q=2.0, l1=0.0, l2=-0.5)


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str
    subchecks: list = field(default_factory=list)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number:02d} {status} - {self.title}: " \
               f"{self.detail}"


def _sub(subchecks, name, ok, detail):
    subchecks.append((name, bool(ok), detail))
    return bool(ok)


class Lab:
    """Shared, lazily built artifacts for the acceptance criteria."""

    @cached_property
    def dc_a(self):
        return derive_constants(CONFIG_A)

    @cached_property
    def orbit_a(self):
        t0 = time.perf_counter()
        orbit = connecting_orbit(CONFIG_A, self.dc_a, "from_infinity")
        self.orbit_a_seconds = time.perf_counter() - t0
        return orbit

    @cached_property
    def singular_oracle(self):
        """Single-term exact profile sqrt(2) r^{-1} on r in [1, 1e3]."""
        params = ProblemParams(n=5, p=3.0, q=2.0, k2=0.0)
        dc = derive_constants(params)
        t0 = time.perf_counter()
        traj = integrate(State(0.0, math.sqrt(2.0), 0.0), Frame(dc.alpha1),
                         math.log(1e3), params)
        seconds = time.perf_counter() - t0
        exact = math.sqrt(2.0) * np.exp(-traj.t)
        rel = float(np.max(np.abs(traj.u - exact) / exact))
        return {"traj": traj, "dc": dc, "max_rel_err": rel,
                "seconds": seconds}

    @cached_property
    def bubble(self):
        """Critical single-term ground state in n=5, checked on
        r in [0.01, 100] against the closed form."""
        n = 5
        params = ProblemParams(n=n, p=(n + 2.0) / (n - 2.0), q=4.0, k2=0.0)
        dc = derive_constants(params)
        profile = aubin_talenti_profile(n)
        a = profile(0.0)
        shot = shoot(a, params, dc, None, math.log(100.0),
                     (math.log(50.0), math.log(100.0)))
        traj = shot.trajectory
        mask = traj.r >= 0.01
        exact = profile(traj.r[mask])
        rel = float(np.max(np.abs(traj.u[mask] - exact) / exact))
        return {"traj": traj, "dc": dc, "params": params, "a": a,
                "max_rel_err": rel, "report": shot.report}

    @cached_property
    def envelope_b(self):
        """Critical-q run for the oscillation envelope, seeded off the
        alpha2 equilibrium and driven toward the origin."""
        dc = derive_constants(CONFIG_B)
        traj = integrate(State(-2.0, dc.lambda2 + 0.5, 0.0),
                         Frame(dc.alpha2), -30.0, CONFIG_B)
        env = oscillation_envelope(traj, dc, "origin")
        report = classify_end(traj, dc, "origin")
        return {"traj": traj, "dc": dc, "envelope": env, "report": report}

    @cached_property
    def shots_50(self):
        return shoot_many(np.logspace(-2.0, 2.0, 50), CONFIG_A, self.dc_a)

    @cached_property
    def scan_64(self):
        return scan_thresholds(np.logspace(-2.0, 2.0, 64), CONFIG_A,
                               self.dc_a)

    @cached_property
    def scan_128(self):
        return scan_thresholds(np.logspace(-2.0, 2.0, 128), CONFIG_A,
                               self.dc_a)


def criterion_01(lab: Lab, tol: dict) -> CriterionResult:
    art = lab.singular_oracle
    subs: list = []
    ok = _sub(subs, "max_rel_err", art["max_rel_err"] < tol["c1_profile_rel"],
              f"{art['max_rel_err']:.3e} vs {tol['c1_profile_rel']:.1e}")
    ok &= _sub(subs, "runtime", art["seconds"] < tol["c1_runtime_s"],
               f"{art['seconds']:.3f} s vs {tol['c1_runtime_s']} s")
    return CriterionResult(
        1, "exact single-term singular profile", ok,
        f"max rel err {art['max_rel_err']:.3e} over r in [1, 1e3] in "
        f"{art['seconds']:.3f} s", subs)


def criterion_02(lab: Lab, tol: dict) -> CriterionResult:
    art = lab.bubble
    rep = art["report"]
    target = 15.0 ** 0.75
    subs: list = []
    ok = _sub(subs, "profile_rel_err",
              art["max_rel_err"] < tol["c2_profile_rel"],
              f"{art['max_rel_err']:.3e} vs {tol['c2_profile_rel']:.1e}")
    ok &= _sub(subs, "kind", rep.kind == Kind.FAST_DECAY_REGULAR,
               rep.kind.value)
    c1_rel = (abs(rep.fitted_constant - target) / target
              if rep.fitted_constant is not None else math.inf)
    ok &= _sub(subs, "tail_constant", c1_rel < tol["c2_tail_constant_rel"],
               f"c1={rep.fitted_constant} vs 15^(3/4)={target} "
               f"(rel {c1_rel:.3e})")
    return CriterionResult(
        2, "regular ground-state profile and tail constant", ok,
        f"max rel err {art['max_rel_err']:.3e} on r in [0.01, 100]; "
        f"tail c1 rel dev {c1_rel:.3e}", subs)


def criterion_03(lab: Lab, tol: dict) -> CriterionResult:
    orbit = lab.orbit_a
    dc = lab.dc_a
    subs: list = []
    rel_inf = abs(orbit.report_infinity.fitted_constant - dc.lambda1) \
        / dc.lambda1 if orbit.report_infinity.fitted_constant else math.inf
    rel_ori = abs(orbit.report_origin.fitted_constant - dc.lambda2) \
        / dc.lambda2 if orbit.report_origin.fitted_constant else math.inf
    ok = _sub(subs, "kind_infinity",
              orbit.report_infinity.kind == Kind.SLOW_DECAY_SINGULAR,
              orbit.report_infinity.kind.value)
    ok &= _sub(subs, "kind_origin",
               orbit.report_origin.kind == Kind.SLOW_DECAY_SINGULAR,
               orbit.report_origin.kind.value)
    ok &= _sub(subs, "limit_infinity", rel_inf < tol["c3_limit_rel"],
               f"rel {rel_inf:.3e} vs {tol['c3_limit_rel']:.1e}")
    ok &= _sub(subs, "limit_origin", rel_ori < tol["c3_limit_rel"],
               f"rel {rel_ori:.3e} vs {tol['c3_limit_rel']:.1e}")
    ok &= _sub(subs, "runtime", lab.orbit_a_seconds < tol["c3_runtime_s"],
               f"{lab.orbit_a_seconds:.2f} s vs {tol['c3_runtime_s']} s")
    return CriterionResult(
        3, "connecting orbit hits both singular amplitudes", ok,
        f"lambda1 rel dev {rel_inf:.3e}, lambda2 rel dev {rel_ori:.3e} in "
        f"{lab.orbit_a_seconds:.2f} s", subs)


def criterion_04(lab: Lab, tol: dict) -> CriterionResult:
    dc = lab.dc_a
    rate = fit_exponential_rate(lab.orbit_a.trajectory, dc.lambda1,
                                (6.0, 10.0))
    lo, hi = dc.delta - tol["c4_rate_band"], dc.delta + tol["c4_rate_band"]
    ok = lo <= rate <= hi
    subs = [("rate_in_band", ok,
             f"{rate:.4f} in [{lo:.4f}, {hi:.4f}] (delta={dc.delta:.4f})")]
    return CriterionResult(
        4, "forced approach rate at infinity", ok,
        f"rate {rate:.4f} vs delta {dc.delta:.4f} (band {tol['c4_rate_band']})",
        subs)


def criterion_05(lab: Lab, tol: dict) -> CriterionResult:
    art = lab.envelope_b
    env = art["envelope"]
    dc = art["dc"]
    subs: list = []
    ok = _sub(subs, "n_extrema", env.n_extrema >= tol["c5_min_extrema"],
              f"{env.n_extrema} vs {tol['c5_min_extrema']}")
    ok &= _sub(subs, "lambda_bracketed", env.mu1 <= dc.lambda2 <= env.mu2,
               f"mu1={env.mu1:.4f} <= lambda2={dc.lambda2} <= "
               f"mu2={env.mu2:.4f}")
    ok &= _sub(subs, "b_match", env.b_match_rel < tol["c5_b_match_rel"],
               f"{env.b_match_rel:.3e} vs {tol['c5_b_match_rel']:.1e}")
    depth = well_potential(env.mu1, dc.end("origin"))
    ok &= _sub(subs, "well_depth_negative", depth < 0.0,
               f"b(mu1)={depth:.4f}")
    ok &= _sub(subs, "kind", art["report"].kind == Kind.OSCILLATORY,
               art["report"].kind.value)
    return CriterionResult(
        5, "critical-exponent oscillation envelope", ok,
        f"{env.n_extrema} extrema, mu1={env.mu1:.4f}, mu2={env.mu2:.4f}, "
        f"b match rel {env.b_match_rel:.3e}", subs)


def criterion_06(lab: Lab, tol: dict) -> CriterionResult:
    dc = lab.dc_a
    traj = lab.orbit_a.trajectory
    subs: list = []
    rep = apriori_bound_report(traj, dc, (10.0, 14.0))
    ok = _sub(subs, "tail_sup_vdot", rep.sup_abs_vdot < tol["c6_sup_vdot"],
              f"{rep.sup_abs_vdot:.4e} vs {tol['c6_sup_vdot']:.1e}")
    integrals = [apriori_bound_report(traj, dc, (T, T + 2.0))
                 .integral_vdot_sq for T in (8.0, 9.0, 10.0, 11.0, 12.0)]
    dec = all(b < a for a, b in zip(integrals, integrals[1:]))
    ok &= _sub(subs, "dissipation_decreasing", dec,
               "integral vdot^2 on sliding windows: "
               + ", ".join(f"{x:.3e}" for x in integrals))
    ok &= _sub(subs, "flux_nonincreasing", rep.flux_monotone_ok,
               f"max flux step rel {rep.margins['max_flux_step_rel']:.2e}")
    bub = lab.bubble
    bub_rep = apriori_bound_report(bub["traj"], bub["dc"],
                                   (math.log(50.0), math.log(100.0)))
    ok &= _sub(subs, "mass_nondecreasing", bub_rep.mass_monotone_ok,
               f"min mass step rel "
               f"{bub_rep.margins['min_mass_step_rel']:.2e}")
    return CriterionResult(
        6, "tail bounds and monotone dissipation", ok,
        f"sup |vdot| on [10,14] = {rep.sup_abs_vdot:.4e} "
        f"(bound {tol['c6_sup_vdot']:.1e}); "
        + "; ".join(f"{n}={'ok' if o else 'FAIL'}" for n, o, _ in subs),
        subs)


def sample_balance_configs(count: int = 10):
    """Frozen random parameter draws for the balance criterion."""
    rng = np.random.default_rng(20260813)
    draws = []
    for _ in range(count):
        n = int(rng.integers(3, 7))
        l1 = float(rng.uniform(-0.9, 0.0))
        l2 = float(rng.uniform(max(-1.9, l1 - 1.0), l1 - 0.01))
        serrin1 = (n + l1) / (n - 2.0)
        p = float(rng.uniform(serrin1 + 0.05, serrin1 + 1.0))
        q = float(rng.uniform(p + 0.02, p + 0.8))
        amp = float(rng.uniform(1.1, 1.4))
        draws.append((ProblemParams(n=n, p=p, q=q, l1=l1, l2=l2), amp))
    return draws


def criterion_07(lab: Lab, tol: dict) -> CriterionResult:
    config = IntegratorConfig(dense_output_stride=0.0025)
    subs: list = []
    worst = 0.0
    ok = True
    for i, (params, amp) in enumerate(sample_balance_configs()):
        dc = derive_constants(params)
        traj = integrate(State(0.0, amp * dc.lambda1, 0.0),
                         Frame(dc.alpha1), 8.0, params, config)
        res = energy_trace(traj, dc).balance_residual()
        worst = max(worst, res)
        ok &= _sub(subs, f"config_{i}", res < tol["c7_balance"],
                   f"n={params.n} p={params.p:.3f} q={params.q:.3f} "
                   f"residual {res:.3e}")
    return CriterionResult(
        7, "energy balance across random configurations", ok,
        f"worst sub-interval residual {worst:.3e} vs {tol['c7_balance']:.1e} "
        f"over {len(subs)} configs", subs)


def criterion_08(lab: Lab, tol: dict) -> CriterionResult:
    allowed = {Kind.CROSSES_ZERO, Kind.FAST_DECAY_REGULAR,
               Kind.SLOW_DECAY_SINGULAR}
    kinds = [s.kind for s in lab.shots_50]
    n_und = sum(1 for k in kinds if k == Kind.UNDETERMINED)
    n_bad = sum(1 for k in kinds if k not in allowed)
    counts = {k.value: kinds.count(k) for k in set(kinds)}
    ok = n_und == 0 and n_bad == 0
    subs = [("no_undetermined", n_und == 0, f"{n_und} undetermined"),
            ("kinds_allowed", n_bad == 0, f"{n_bad} outside dichotomy")]
    return CriterionResult(
        8, "shot dichotomy with no undetermined verdicts", ok,
        f"50 shots over a in [1e-2, 1e2]: {counts}", subs)


def criterion_09(lab: Lab, tol: dict) -> CriterionResult:
    n64 = len(lab.scan_64.boundaries)
    n128 = len(lab.scan_128.boundaries)
    subs: list = []
    ok = _sub(subs, "boundary_count",
              n64 == tol["c9_expected_boundaries"],
              f"{n64} boundaries vs expected "
              f"{tol['c9_expected_boundaries']}")
    ok &= _sub(subs, "refinement_stable", n128 == n64,
               f"64-grid {n64} vs 128-grid {n128}")
    widths_ok = all(b.rel_width < tol["c9_bisect_rel_width"]
                    for b in lab.scan_64.boundaries)
    ok &= _sub(subs, "bisect_width", widths_ok,
               "all boundary brackets below "
               f"{tol['c9_bisect_rel_width']:.1e} relative width "
               f"({n64} boundaries)")
    kinds64 = {k.value: lab.scan_64.kinds.count(k)
               for k in set(lab.scan_64.kinds)}
    return CriterionResult(
        9, "threshold count and bisection stability", ok,
        f"boundaries: 64-grid {n64}, 128-grid {n128}; kinds {kinds64}",
        subs)


def criterion_10(lab: Lab, tol: dict) -> CriterionResult:
    subs: list = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        rt_ok = csv_round_trip(lab.orbit_a.trajectory, tmp)
        _sub(subs, "csv_round_trip", rt_ok,
             f"reference orbit, bit-exact={rt_ok}")

        base = RunConfig(
            params=ProblemParams(n=5, p=1.9, q=1.95, l1=0.0, l2=-0.5),
            axes={"p": [1.88, 1.9, 1.92], "q": [1.93, 1.95, 1.97]})
        pooled = effective_jobs(8)
        m1 = sweep(replace(base, output_dir=str(tmp / "serial")), jobs=1)
        mp = sweep(replace(base, output_dir=str(tmp / "parallel")),
                   jobs=pooled)
        d1, dp = dict(m1.data), dict(mp.data)
        d1["wall_clock_seconds"] = 0.0
        dp["wall_clock_seconds"] = 0.0
        manifests_ok = d1 == dp
        _sub(subs, "manifest_identical", manifests_ok,
             f"9-cell sweep, jobs 1 vs {pooled}, run id {m1.run_id}")
        files_ok = True
        for cell in m1.cells:
            for rel in cell["files"]:
                b1 = (m1.path.parent / rel).read_bytes()
                bp = (mp.path.parent / rel).read_bytes()
                files_ok &= b1 == bp
        _sub(subs, "cell_files_identical", files_ok,
             f"{sum(len(c['files']) for c in m1.cells)} files compared")

    mutated = run_acceptance(only=[2],
                             overrides={"c2_profile_rel": 1e-16})[0]
    _sub(subs, "mutation_detected", not mutated.passed,
         "criterion 2 fails when its tolerance is tightened to 1e-16")
    ok = all(o for _, o, _ in subs)
    return CriterionResult(
        10, "deterministic artifacts and mutation sensitivity", ok,
        "; ".join(f"{n}={'ok' if o else 'FAIL'}" for n, o, _ in subs),
        subs)


_CRITERIA = {
    1: criterion_01, 2: criterion_02, 3: criterion_03, 4: criterion_04,
    5: criterion_05, 6: criterion_06, 7: criterion_07, 8: criterion_08,
    9: criterion_09, 10: criterion_10,
}


def run_acceptance(only=None, overrides=None, lab: Lab | None = None):
    """Run the acceptance criteria and return CriterionResult list.

    `only` selects criterion numbers; `overrides` replaces entries of
    TOLERANCES for this run (unknown keys are rejected).
    """
    tol = dict(TOLERANCES)
    if overrides:
        unknown = set(overrides) - set(tol)
        if unknown:
            raise ValueError(f"unknown tolerance keys: {sorted(unknown)}")
        tol.update(overrides)
    numbers = sorted(only) if only else sorted(_CRITERIA)
    bad = [n for n in numbers if n not in _CRITERIA]
    if bad:
        raise ValueError(f"unknown criterion numbers: {bad}")
    if lab is None:
        lab = Lab()
    results = []
    for num in numbers:
        try:
            results.append(_CRITERIA[num](lab, tol))
        except Exception as exc:  # noqa: BLE001 - report, never mask
            results.append(CriterionResult(
                num, _CRITERIA[num].__doc__ or f"criterion {num}", False,
                f"error: {type(exc).__name__}: {exc}"))
    return results


def format_results(results) -> str:
    lines = [res.line() for res in results]
    n_pass = sum(1 for r in results if r.passed)
    lines.append(f"{n_pass}/{len(results)} criteria passed")
    return "\n".join(lines)
