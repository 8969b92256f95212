"""Command-line front end.

Subcommands: exponents (closed-form constants and regime flags), solve
(one trajectory to CSV), classify (end behavior of a stored trajectory),
shoot / scan (regular shots and threshold hunting), connect (singular
crossing runs), sweep (manifest-producing parameter grids), verify (the
acceptance suite).  Exit codes: 0 success, 1 numeric or validation
failure, 2 usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from ._version import __version__
from .classify import TOL_CLASS, classify_end
from .integrate import Frame, IntegratorConfig, integrate, \
    read_trajectory_csv, write_trajectory_csv
from .params import EPS_CRIT, ProblemParams, classify_regime, \
    derive_constants
from .serialize import canonical_json
from .shooting import T_TARGET, _regular_start, connecting_orbit, \
    resolve_jobs, scan_thresholds, shoot
from .sweep import parse_run_config, seeded_run, sweep
from .acceptance import TOLERANCES, format_results, run_acceptance


def _add_param_flags(sp, required=True):
    sp.add_argument("--n", type=int, required=required)
    sp.add_argument("--p", type=float, required=required)
    sp.add_argument("--q", type=float, required=required)
    # a dataclass field's default is its class attribute
    sp.add_argument("--l1", type=float, default=ProblemParams.l1)
    sp.add_argument("--l2", type=float, default=ProblemParams.l2)
    sp.add_argument("--k1", type=float, default=ProblemParams.k1,
                    choices=[0.0, 1.0])
    sp.add_argument("--k2", type=float, default=ProblemParams.k2,
                    choices=[0.0, 1.0])


def _params_from_args(args) -> ProblemParams:
    values = {f.name: getattr(args, f.name)
              for f in dataclasses.fields(ProblemParams)}
    missing = [f"--{name}" for name, val in values.items() if val is None]
    if missing:
        raise ValueError(f"provide --config or {'/'.join(missing)}")
    return ProblemParams(**values)


def _resolve_params(args):
    """(params, integrator) from --config or flags."""
    if getattr(args, "config", None):
        cfg = parse_run_config(args.config)
        return cfg.params, cfg.integrator
    return _params_from_args(args), IntegratorConfig()


def cmd_exponents(args) -> int:
    params = _params_from_args(args)
    dc = derive_constants(params)
    flags = classify_regime(params, dc, eps_crit=args.eps_crit)
    payload = {
        "params": dataclasses.asdict(params),
        "constants": dc.to_dict(),
        "regime": flags.to_dict(),
    }
    sys.stdout.write(canonical_json(payload))
    return 0


def cmd_solve(args) -> int:
    cfg = parse_run_config(args.config)
    params, integrator = cfg.params, cfg.integrator
    dc = derive_constants(params)
    if args.start == "series":
        if args.a is None:
            raise ValueError("--start series needs --a")
        frame = Frame(dc.alpha1)
        _, start = _regular_start(args.a, params, frame)
        traj = integrate(start, frame, cfg.t_max, params, integrator)
    else:
        traj = seeded_run(params, dc.end(args.start), cfg)
    write_trajectory_csv(traj, args.out)
    sys.stderr.write(
        f"wrote {traj.t.size} samples to {args.out} "
        f"(termination {traj.termination.kind.value})\n")
    return 0


def cmd_classify(args) -> int:
    params = _params_from_args(args)
    dc = derive_constants(params)
    traj = read_trajectory_csv(args.csv)
    window = tuple(args.window) if args.window else None
    report = classify_end(traj, dc, args.end, tol_class=args.tol_class,
                          window=window)
    sys.stdout.write(canonical_json(report.to_dict()))
    return 0


def cmd_shoot(args) -> int:
    params, integrator = _resolve_params(args)
    res = shoot(args.a, params, config=integrator, t_target=args.t_target)
    sys.stdout.write(canonical_json(res.to_dict()))
    return 0


def cmd_scan(args) -> int:
    params, integrator = _resolve_params(args)
    jobs = resolve_jobs(args.jobs)
    grid = np.logspace(np.log10(args.a_min), np.log10(args.a_max),
                       args.points)
    res = scan_thresholds(grid, params, config=integrator,
                          t_target=args.t_target, jobs=jobs)
    text = canonical_json(res.to_dict())
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text)
        sys.stderr.write(f"wrote scan of {args.points} shots to "
                         f"{args.out} ({len(res.boundaries)} boundaries)\n")
    else:
        sys.stdout.write(text)
    return 0


def cmd_connect(args) -> int:
    params, integrator = _resolve_params(args)
    dc = derive_constants(params)
    orbit = connecting_orbit(params, dc, args.direction, config=integrator)
    if args.out:
        write_trajectory_csv(orbit.trajectory, args.out)
        sys.stderr.write(f"wrote trajectory to {args.out}\n")
    sys.stdout.write(canonical_json(orbit.to_dict()))
    return 0


def cmd_sweep(args) -> int:
    cfg = parse_run_config(args.config)
    manifest = sweep(cfg, jobs=args.jobs)
    errors = sum(1 for c in manifest.cells if c["error"])
    sys.stdout.write(f"run {manifest.run_id}: {len(manifest.cells)} cells, "
                     f"{errors} errors\n{manifest.path}\n")
    return 0


def cmd_verify(args) -> int:
    overrides = {}
    for item in args.mutate or []:
        if "=" not in item:
            raise ValueError(f"--mutate takes NAME=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        if key not in TOLERANCES:
            raise ValueError(f"unknown tolerance {key!r}; known: "
                             f"{sorted(TOLERANCES)}")
        overrides[key] = type(TOLERANCES[key])(float(raw))
    results = run_acceptance(only=args.only or None,
                             overrides=overrides or None)
    print(format_results(results))
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="emdenlab",
        description="numerical laboratory for the double-power "
                    "Emden-Fowler radial equation")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("exponents", help="closed-form constants and "
                                          "regime flags")
    _add_param_flags(sp)
    sp.add_argument("--eps-crit", type=float, default=EPS_CRIT)
    sp.set_defaults(func=cmd_exponents)

    sp = sub.add_parser("solve", help="integrate one trajectory to CSV")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--start", choices=["infinity", "origin", "series"],
                    default="infinity")
    sp.add_argument("--a", type=float, help="central value for "
                                            "--start series")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("classify", help="classify a stored trajectory")
    sp.add_argument("--csv", required=True)
    sp.add_argument("--end", choices=["origin", "infinity"], required=True)
    _add_param_flags(sp)
    sp.add_argument("--window", type=float, nargs=2, metavar=("LO", "HI"))
    sp.add_argument("--tol-class", type=float, default=TOL_CLASS)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("shoot", help="one regular shot, classified at "
                                      "infinity")
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--config")
    _add_param_flags(sp, required=False)
    sp.add_argument("--t-target", type=float, default=T_TARGET)
    sp.set_defaults(func=cmd_shoot)

    sp = sub.add_parser("scan", help="shoot a log grid and bisect kind "
                                     "changes")
    sp.add_argument("--a-min", type=float, default=1e-2)
    sp.add_argument("--a-max", type=float, default=1e2)
    sp.add_argument("--points", type=int, default=64)
    sp.add_argument("--config")
    _add_param_flags(sp, required=False)
    sp.add_argument("--t-target", type=float, default=T_TARGET)
    sp.add_argument("--jobs", type=int)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("connect", help="seed one singular end and cross")
    sp.add_argument("--direction", choices=["from_infinity", "from_origin"],
                    required=True)
    sp.add_argument("--config")
    _add_param_flags(sp, required=False)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_connect)

    sp = sub.add_parser("sweep", help="run a parameter sweep with manifest")
    sp.add_argument("--config", required=True)
    sp.add_argument("--jobs", type=int)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("verify", help="run the acceptance suite")
    sp.add_argument("--suite", choices=["acceptance"], default="acceptance")
    sp.add_argument("--only", type=int, nargs="+")
    sp.add_argument("--mutate", action="append", metavar="NAME=VALUE")
    sp.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
