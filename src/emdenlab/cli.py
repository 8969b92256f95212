"""Command-line front end.

Subcommands: exponents (closed-form constants and regime flags), solve
(one seeded crossing over the config's [spans] to CSV), classify (end
behavior of a stored trajectory: a CSV of solve, shoot --out or connect
--out), shoot / scan (regular shots, to CSV with --out, and threshold
hunting), connect (singular crossing runs), sweep (manifest-producing
parameter grids), verify (the acceptance suite).  Exit codes: 0
success, 1 numeric or validation failure, 2 usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np

from ._version import __version__
from .classify import classify_end
from .integrate import IntegratorConfig, read_trajectory_csv, \
    write_trajectory_csv
from .params import ProblemParams, classify_regime, derive_constants
from .serialize import canonical_json
from .shooting import T_TARGET, check_grid, connecting_orbit, \
    scan_thresholds, seed_and_integrate, shoot, shoot_many
from .sweep import effective_jobs, parse_run_config, sweep
from .acceptance import TOLERANCES, format_results, run_acceptance


def _add_param_flags(sp):
    """--config or the problem flags; a flag left out is None, the
    ProblemParams default."""
    sp.add_argument("--config")
    sp.add_argument("--n", type=int)
    sp.add_argument("--p", type=float)
    sp.add_argument("--q", type=float)
    sp.add_argument("--l1", type=float)
    sp.add_argument("--l2", type=float)
    sp.add_argument("--k1", type=float, choices=[0.0, 1.0])
    sp.add_argument("--k2", type=float, choices=[0.0, 1.0])


def _resolve_constants(args):
    """(derive_constants(params), integrator) from --config or the
    problem flags; flags beside --config are an error, not overridden."""
    given = {f.name: getattr(args, f.name)
             for f in dataclasses.fields(ProblemParams)
             if getattr(args, f.name) is not None}
    if args.config:
        if given:
            raise ValueError("--config sets the problem; drop "
                             + " ".join(f"--{name}" for name in given))
        cfg = parse_run_config(args.config)
        return derive_constants(cfg.params), cfg.integrator
    missing = [f"--{f.name}" for f in dataclasses.fields(ProblemParams)
               if f.default is dataclasses.MISSING and f.name not in given]
    if missing:
        raise ValueError(f"provide --config or {'/'.join(missing)}")
    return derive_constants(ProblemParams(**given)), IntegratorConfig()


def cmd_exponents(args) -> int:
    dc, _ = _resolve_constants(args)
    flags = classify_regime(dc.params, dc)
    payload = {
        "params": dataclasses.asdict(dc.params),
        "constants": dc.to_dict(),
        "regime": flags.to_dict(),
    }
    sys.stdout.write(canonical_json(payload))
    return 0


def cmd_solve(args) -> int:
    cfg = parse_run_config(args.config)
    traj = seed_and_integrate(derive_constants(cfg.params), args.start,
                              (cfg.t_min, cfg.t_max), cfg.integrator)
    write_trajectory_csv(traj, args.out)
    sys.stderr.write(
        f"wrote {traj.t.size} samples to {args.out} "
        f"(termination {traj.termination.kind.value})\n")
    return 0


def cmd_classify(args) -> int:
    dc, integrator = _resolve_constants(args)
    traj = read_trajectory_csv(args.csv)
    if args.config:
        # the run's integrator, so rates are fitted above its 100 atol
        traj.config = integrator
    window = tuple(args.window) if args.window else None
    report = classify_end(traj, dc, args.end, window=window)
    sys.stdout.write(canonical_json(report.to_dict()))
    return 0


def cmd_shoot(args) -> int:
    dc, integrator = _resolve_constants(args)
    res = shoot(args.a, dc, integrator, args.t_target)
    if args.out:
        write_trajectory_csv(res.trajectory, args.out)
        sys.stderr.write(f"wrote trajectory to {args.out}\n")
    sys.stdout.write(canonical_json(res.to_dict()))
    return 0


def cmd_scan(args) -> int:
    for flag, a in (("--a-min", args.a_min), ("--a-max", args.a_max)):
        if not 0.0 < a < math.inf:
            raise ValueError(f"{flag} must be positive and finite, got {a!r}")
    dc, integrator = _resolve_constants(args)
    effective_jobs(args.jobs)
    check_grid(args.points)
    grid = np.logspace(np.log10(args.a_min), np.log10(args.a_max),
                       args.points)
    check_grid(grid)
    res = scan_thresholds(shoot_many(grid, dc, integrator, args.t_target))
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
    dc, integrator = _resolve_constants(args)
    orbit = connecting_orbit(dc, args.direction, integrator)
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
        kind = type(TOLERANCES[key])
        try:
            overrides[key] = kind(raw)
        except ValueError:
            raise ValueError(f"--mutate {key} is {kind.__name__}-valued, "
                             f"got {raw!r}") from None
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
    sp.set_defaults(func=cmd_exponents)

    sp = sub.add_parser("solve", help="seed one end over [spans] and "
                                      "cross, to CSV")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--start", choices=["infinity", "origin"],
                    default="infinity")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("classify", help="classify a stored trajectory")
    sp.add_argument("--csv", required=True)
    sp.add_argument("--end", choices=["origin", "infinity"], required=True)
    _add_param_flags(sp)
    sp.add_argument("--window", type=float, nargs=2, metavar=("LO", "HI"))
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("shoot", help="one regular shot, classified at "
                                      "infinity")
    sp.add_argument("--a", type=float, required=True)
    _add_param_flags(sp)
    sp.add_argument("--t-target", type=float, default=T_TARGET)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_shoot)

    sp = sub.add_parser("scan", help="shoot a log grid and bisect kind "
                                     "changes")
    sp.add_argument("--a-min", type=float, default=1e-2)
    sp.add_argument("--a-max", type=float, default=1e2)
    sp.add_argument("--points", type=int, default=64)
    _add_param_flags(sp)
    sp.add_argument("--t-target", type=float, default=T_TARGET)
    sp.add_argument("--jobs", type=int, default=1,
                    help="checked as for sweep, but changes nothing: a "
                         "scan bisects all its brackets together in one "
                         "process")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("connect", help="seed one singular end and cross")
    sp.add_argument("--direction", choices=["from_infinity", "from_origin"],
                    required=True)
    _add_param_flags(sp)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_connect)

    sp = sub.add_parser("sweep", help="run a parameter sweep with manifest")
    sp.add_argument("--config", required=True)
    sp.add_argument("--jobs", type=int, default=1)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("verify", help="run the acceptance suite")
    sp.add_argument("--only", type=int, nargs="+")
    sp.add_argument("--mutate", action="append", metavar="NAME=VALUE")
    sp.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError, OverflowError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
