"""Run configuration files, parameter sweeps, and reproducible manifests.

A run configuration is an INI file with a [params] section plus optional
[integrator], [spans], [output] and [sweep] sections.  Sweeps expand the
[sweep] axes into a parameter grid, run one crossing per cell from the
first End of dc.ends with an equilibrium, seeded on its side of [spans]
(the seed-and-cross step of connecting_orbit: seed_and_integrate, then
classify_ends), and write a content-addressed output tree

    <output>/<run-id>/manifest.json
    <output>/<run-id>/cells/<index>/trajectory.csv

where run-id is a hash of the semantic configuration (parameters,
integrator, spans, axes; never the output directory or the worker
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
from .params import End, ProblemParams, classify_regime, derive_constants
from .serialize import canonical_json, fmt_float
from .shooting import classify_ends, map_jobs, resolve_jobs, \
    seed_and_integrate

_AXIS_ORDER = ("n", "p", "q", "l1", "l2")
_INT_KEYS = {"n", "jobs"}
# [section] key -> RunConfig keyword, for the sections that hold one field
_RUN_KEYS = {
    "spans": {"t_min": "t_min", "t_max": "t_max"},
    "output": {"directory": "output_dir"},
}
_SCHEMA = {
    "params": {f.name for f in dataclasses.fields(ProblemParams)},
    "integrator": {f.name for f in dataclasses.fields(IntegratorConfig)},
    **{section: set(keys) for section, keys in _RUN_KEYS.items()},
    "sweep": {*_AXIS_ORDER, "jobs"},
}


@dataclass(frozen=True)
class RunConfig:
    params: ProblemParams
    integrator: IntegratorConfig = IntegratorConfig()
    t_min: float = -14.0
    t_max: float = 14.0
    output_dir: str = "out"
    axes: dict = field(default_factory=dict)
    jobs: int | None = None


def _parse_number(section, key, raw):
    """An integer for _INT_KEYS, a float otherwise; errors name the
    section and key."""
    try:
        return int(raw) if key in _INT_KEYS else float(raw)
    except ValueError:
        what = "an integer" if key in _INT_KEYS else "a number"
        raise ValueError(f"[{section}] {key}: cannot parse {raw!r} as "
                         f"{what}") from None


def _parse_value(section, key, raw):
    """Text under [output], a comma list for a [sweep] axis, a number
    otherwise."""
    if section == "output":
        return raw
    if section != "sweep" or key == "jobs":
        return _parse_number(section, key, raw)
    vals = [_parse_number(section, key, cell.strip())
            for cell in raw.split(",") if cell.strip()]
    if not vals:
        raise ValueError(f"[sweep] {key}: empty axis")
    return vals


def parse_run_config_text(text: str) -> RunConfig:
    """Parse and validate run-configuration INI text.

    Unknown sections or keys are rejected by name; [params] with the
    ProblemParams fields that have no default is required, everything
    else defaults as in the dataclasses.  Values that do not parse name
    their section and key; ';' starts an inline comment.
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
    for f in dataclasses.fields(ProblemParams):
        if f.default is dataclasses.MISSING and f.name not in cp["params"]:
            raise ValueError(f"[params] is missing {f.name!r}")
    values = {section: {key: _parse_value(section, key, raw)
                        for key, raw in cp[section].items()}
              for section in cp.sections()}
    axes = values.get("sweep", {})
    jobs = axes.pop("jobs", None)
    run_kw = {_RUN_KEYS[section][key]: val
              for section in _RUN_KEYS
              for key, val in values.get(section, {}).items()}
    cfg = RunConfig(ProblemParams(**values["params"]),
                    IntegratorConfig(**values.get("integrator", {})),
                    axes=axes, jobs=jobs, **run_kw)
    if not cfg.t_min < cfg.t_max:
        raise ValueError(f"need t_min < t_max, got {cfg.t_min} >= "
                         f"{cfg.t_max}")
    return cfg


def parse_run_config(path) -> RunConfig:
    with open(path, "r") as fh:
        return parse_run_config_text(fh.read())


def seeded_run(params: ProblemParams, end: End, cfg: RunConfig):
    """Seed `end` of derive_constants(params) on its side of [t_min,
    t_max] (t_max at infinity, t_min at the origin) and cross to the
    other side with the config's integrator."""
    t_seed, t_stop = ((cfg.t_max, cfg.t_min) if end.side > 0
                      else (cfg.t_min, cfg.t_max))
    return seed_and_integrate(params, end, t_seed, t_stop, cfg.integrator)


def expanded_axes(cfg: RunConfig) -> dict:
    """Sweep axes with singleton fallbacks from [params]."""
    return {name: list(cfg.axes.get(name, [getattr(cfg.params, name)]))
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
            section = next((sec for sec, keys in _RUN_KEYS.items()
                            if f.name in keys.values()), None)
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
    index, values, cfg, out_dir = args
    cell = {
        "index": index,
        "params": {**dataclasses.asdict(cfg.params), **values},
        "error": None,
        "files": [],
    }
    try:
        params = dataclasses.replace(cfg.params, **values)
        dc = derive_constants(params)
        flags = classify_regime(params, dc)
        cell["constants"] = dc.to_dict()
        cell["regime"] = flags.to_dict()
        # infinity first; lambda is an equilibrium where auto_k is on
        end = next((e for e in dc.ends
                    if e.lam is not None and e.auto_k), None)
        if end is None:
            raise ValueError("no singular equilibrium in either frame")
        traj = seeded_run(params, end, cfg)
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
    sweep runs again.  The manifest is written atomically.  The worker
    count is resolve_jobs(jobs, cfg.jobs).
    """
    jobs = resolve_jobs(jobs, cfg.jobs)
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
    tasks = [(i, dict(zip(_AXIS_ORDER, values)), cfg, str(out_dir))
             for i, values in enumerate(grid)]
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

