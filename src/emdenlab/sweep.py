"""Run configuration files, parameter sweeps, and reproducible manifests.

A run configuration is an INI file with a [params] section plus optional
[integrator], [spans], [seed], [output] and [sweep] sections.  Sweeps
expand the [sweep] axes into a parameter grid, run one seeded crossing
per cell from the End record dc.end(...) that has an amplitude (the
seed-and-cross step of connecting_orbit: seed_and_integrate, then
classify_ends), and write a content-addressed output tree

    <output>/<run-id>/manifest.json
    <output>/<run-id>/cells/<index>/trajectory.csv

where run-id is a hash of the semantic configuration (parameters,
integrator, spans, seeds, axes; never the output directory or the worker
count).  Cells come back in grid order (shooting.map_jobs, capped at
os.cpu_count() workers), so manifests and cell files are byte-identical
for any worker count apart from the recorded wall-clock time.
"""

from __future__ import annotations

import configparser
import dataclasses
import itertools
import json
import os
import time
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path

from ._version import __version__
from .integrate import IntegratorConfig, write_trajectory_csv
from .params import DerivedConstants, End, ProblemParams, classify_regime, \
    derive_constants
from .serialize import canonical_json, fmt_float
from .shooting import classify_ends, map_jobs, seed_and_integrate

_SCHEMA = {
    "params": {"n", "p", "q", "l1", "l2", "k1", "k2"},
    "integrator": {"rtol", "atol", "max_step", "amplitude_cap",
                   "dense_output_stride"},
    "spans": {"t_min", "t_max"},
    "seed": {"eps_scale"},
    "output": {"directory"},
    "sweep": {"n", "p", "q", "l1", "l2", "jobs"},
}
_AXIS_ORDER = ("n", "p", "q", "l1", "l2")


@dataclass(frozen=True)
class RunConfig:
    params: ProblemParams
    integrator: IntegratorConfig = IntegratorConfig()
    t_min: float = -14.0
    t_max: float = 14.0
    eps_scale: float = 1e-4
    output_dir: str = "out"
    axes: dict = field(default_factory=dict)
    jobs: int = 1


def _parse_float(section, key, raw):
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"[{section}] {key}: cannot parse {raw!r} as a "
                         "number") from None


def _parse_int(section, key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"[{section}] {key}: cannot parse {raw!r} as an "
                         "integer") from None


def parse_run_config_text(text: str) -> RunConfig:
    """Parse and validate run-configuration INI text.

    Unknown sections or keys are rejected by name; [params] with n, p
    and q is required, everything else has defaults.  Values that do not
    parse name their section and key; ';' starts an inline comment.
    """
    cp = configparser.ConfigParser(interpolation=None,
                                   inline_comment_prefixes=(";",))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ValueError(f"bad config syntax: {exc}") from None
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ValueError(f"unknown section [{section}]")
        for key in cp[section]:
            if key not in _SCHEMA[section]:
                raise ValueError(f"unknown key {key!r} in [{section}]")
    if "params" not in cp:
        raise ValueError("missing required section [params]")
    ps = cp["params"]
    for req in ("n", "p", "q"):
        if req not in ps:
            raise ValueError(f"[params] is missing {req!r}")
    params = ProblemParams(
        n=_parse_int("params", "n", ps["n"]),
        p=_parse_float("params", "p", ps["p"]),
        q=_parse_float("params", "q", ps["q"]),
        l1=_parse_float("params", "l1", ps.get("l1", "0")),
        l2=_parse_float("params", "l2", ps.get("l2", "0")),
        k1=_parse_float("params", "k1", ps.get("k1", "1")),
        k2=_parse_float("params", "k2", ps.get("k2", "1")),
    )
    kw = {}
    if "integrator" in cp:
        kw = {k: _parse_float("integrator", k, v)
              for k, v in cp["integrator"].items()}
    integrator = IntegratorConfig(**kw)
    t_min, t_max = -14.0, 14.0
    if "spans" in cp:
        t_min = _parse_float("spans", "t_min", cp["spans"].get("t_min", "-14"))
        t_max = _parse_float("spans", "t_max", cp["spans"].get("t_max", "14"))
    if not t_min < t_max:
        raise ValueError(f"need t_min < t_max, got {t_min} >= {t_max}")
    eps_scale = 1e-4
    if "seed" in cp and "eps_scale" in cp["seed"]:
        eps_scale = _parse_float("seed", "eps_scale", cp["seed"]["eps_scale"])
    output_dir = cp["output"].get("directory", "out") if "output" in cp \
        else "out"
    axes: dict = {}
    jobs = 1
    if "sweep" in cp:
        for key, raw in cp["sweep"].items():
            if key == "jobs":
                jobs = _parse_int("sweep", "jobs", raw)
                if jobs < 1:
                    raise ValueError("[sweep] jobs must be >= 1")
                continue
            parse = _parse_int if key == "n" else _parse_float
            vals = [parse("sweep", key, cell.strip())
                    for cell in raw.split(",") if cell.strip()]
            if not vals:
                raise ValueError(f"[sweep] {key}: empty axis")
            axes[key] = vals
    return RunConfig(params, integrator, t_min, t_max, eps_scale,
                     output_dir, axes, jobs)


def parse_run_config(path) -> RunConfig:
    with open(path, "r") as fh:
        return parse_run_config_text(fh.read())


def seeded_run(params: ProblemParams, dc: DerivedConstants, end: End,
               cfg: RunConfig):
    """Seed `end` (an End record of dc) on its side of [t_min, t_max]
    with eps = eps_scale lambda and cross to the other side with the
    config's integrator: infinity (side +1) seeds at t_max, the origin
    at t_min."""
    if end.lam is None:
        raise ValueError(f"no singular amplitude at {end.name}")
    t_seed, t_stop = ((cfg.t_max, cfg.t_min) if end.side > 0
                      else (cfg.t_min, cfg.t_max))
    return seed_and_integrate(params, dc, end, cfg.eps_scale * end.lam,
                              t_seed, t_stop, cfg.integrator)


def expanded_axes(cfg: RunConfig) -> dict:
    """Sweep axes with singleton fallbacks from [params]."""
    base = {"n": cfg.params.n, "p": cfg.params.p, "q": cfg.params.q,
            "l1": cfg.params.l1, "l2": cfg.params.l2}
    return {name: list(cfg.axes.get(name, [base[name]]))
            for name in _AXIS_ORDER}


def config_hash(cfg: RunConfig) -> str:
    """Hash of the semantic configuration (excludes output dir and jobs).

    One `section.key=value` line per field of RunConfig and of its
    params/integrator dataclasses, sections named as in the INI schema,
    sweep axes expanded.  A scalar field the schema does not place in a
    section raises KeyError rather than dropping out of the run id.
    """
    lines = []
    for f in dataclasses.fields(cfg):
        if f.name in ("output_dir", "jobs"):
            continue
        val = getattr(cfg, f.name)
        if f.name == "axes":
            axes = expanded_axes(cfg)
            items = [("sweep", name, axes[name]) for name in _AXIS_ORDER]
        elif dataclasses.is_dataclass(val):
            items = [(f.name, g.name, getattr(val, g.name))
                     for g in dataclasses.fields(val)]
        else:
            section = next((sec for sec, keys in _SCHEMA.items()
                            if f.name in keys), None)
            if section is None:
                raise KeyError(f"RunConfig.{f.name} has no config section")
            items = [(section, f.name, val)]
        for section, key, v in items:
            text = ",".join(map(fmt_float, v)) if isinstance(v, list) \
                else fmt_float(v)
            lines.append(f"{section}.{key}={text}")
    return sha256("\n".join(lines).encode()).hexdigest()


def run_id_of(cfg: RunConfig) -> str:
    return config_hash(cfg)[:12]


def _cell_job(args) -> dict:
    """One sweep cell: derive, seed the available singular end, cross,
    classify both ends.  Failures are captured per cell."""
    index, n, p, q, l1, l2, cfg, out_dir = args
    k1, k2 = cfg.params.k1, cfg.params.k2
    cell = {
        "index": index,
        "params": {"n": n, "p": p, "q": q, "l1": l1, "l2": l2,
                   "k1": k1, "k2": k2},
        "error": None,
        "files": [],
    }
    try:
        params = ProblemParams(n=n, p=p, q=q, l1=l1, l2=l2, k1=k1, k2=k2)
        dc = derive_constants(params)
        flags = classify_regime(params, dc)
        cell["constants"] = dc.to_dict()
        cell["regime"] = flags.to_dict()
        # infinity first: dc.ends is (infinity, origin)
        end = next((e for e in dc.ends if e.lam is not None), None)
        if end is None:
            raise ValueError("no singular amplitude in either frame")
        traj = seeded_run(params, dc, end, cfg)
        rep_inf, rep_ori = classify_ends(traj, dc)
        cell["seeded_end"] = end.name
        cell["termination"] = traj.termination.kind.value
        cell["kinds"] = {"infinity": rep_inf.kind.value,
                         "origin": rep_ori.kind.value}
        cell["reports"] = {"infinity": rep_inf.to_dict(),
                           "origin": rep_ori.to_dict()}
        cell_dir = Path(out_dir) / "cells" / f"{index:04d}"
        cell_dir.mkdir(parents=True, exist_ok=True)
        csv_path = cell_dir / "trajectory.csv"
        write_trajectory_csv(traj, csv_path)
        cell["files"] = [f"cells/{index:04d}/trajectory.csv"]
    except Exception as exc:  # noqa: BLE001 - per-cell isolation
        cell["error"] = f"{type(exc).__name__}: {exc}"
    return cell


@dataclass
class SweepManifest:
    run_id: str
    path: Path
    data: dict

    @property
    def cells(self) -> list:
        return self.data["cells"]


def sweep(cfg: RunConfig, jobs: int | None = None) -> SweepManifest:
    """Run the sweep grid and write the manifest tree.

    A rerun with the same semantic configuration and output directory is
    a no-op: the existing manifest is loaded and returned, provided it
    parses and records this config_hash and tool version; otherwise the
    sweep runs again.  The manifest is written atomically.
    """
    if jobs is None:
        jobs = cfg.jobs
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    rid = run_id_of(cfg)
    out_dir = Path(cfg.output_dir) / rid
    manifest_path = out_dir / "manifest.json"
    try:
        with open(manifest_path, "r") as fh:
            old = json.load(fh)
    except (OSError, ValueError):  # missing, unreadable or truncated
        old = None
    if isinstance(old, dict) and old.get("tool_version") == __version__ \
            and old.get("config_hash") == config_hash(cfg):
        return SweepManifest(rid, manifest_path, old)
    out_dir.mkdir(parents=True, exist_ok=True)
    axes = expanded_axes(cfg)
    grid = list(itertools.product(*(axes[name] for name in _AXIS_ORDER)))
    tasks = [(i, int(n), float(p), float(q), float(l1), float(l2), cfg,
              str(out_dir))
             for i, (n, p, q, l1, l2) in enumerate(grid)]
    t0 = time.monotonic()
    cells = map_jobs(_cell_job, tasks, jobs)
    wall = time.monotonic() - t0
    data = {
        "run_id": rid,
        "config_hash": config_hash(cfg),
        "tool_version": __version__,
        "wall_clock_seconds": wall,
        "axes": {k: list(v) for k, v in axes.items()},
        "cells": cells,
    }
    text = canonical_json(data)
    tmp = out_dir / f"manifest.json.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, manifest_path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return SweepManifest(rid, manifest_path, data)

