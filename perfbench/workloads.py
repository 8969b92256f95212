"""The three benchmark workloads: seeded inputs, one timed pass, checks.

Each workload is built from ``--seed`` alone (seed 0 gives the documented
reference inputs) and runs serially in this process with one worker.
``run_pass`` is the timed part; ``check`` runs afterwards, untimed, and
turns the pass output into an ``Outcome``: operations attempted, failed
operations counted by the name of the check that failed them, verdict
counts and accuracy figures.

Every emdenlab function is looked up as a module attribute at call time,
so the tracer in ``tracing.py`` can rebind it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

cli = importlib.import_module("emdenlab.cli")
acc = importlib.import_module("emdenlab.acceptance")
classify = importlib.import_module("emdenlab.classify")
integ = importlib.import_module("emdenlab.integrate")
params_mod = importlib.import_module("emdenlab.params")
serialize = importlib.import_module("emdenlab.serialize")
shooting = importlib.import_module("emdenlab.shooting")
sweep_mod = importlib.import_module("emdenlab.sweep")

UNDETERMINED = "undetermined"
SINGULAR = "slow_decay_singular"
CONFIG_A = {"n": 5, "p": 1.9, "q": 1.95, "l1": 0.0, "l2": -0.5}


@dataclass
class Outcome:
    """What the checks found in one pass."""

    ops: int
    failures: Counter = field(default_factory=Counter)
    failed_ops: int = 0
    verdicts: int = 0
    undetermined: int = 0
    accuracy: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def fail(self, check: str, ops: int) -> None:
        self.failures[check] += ops
        self.failed_ops = min(self.ops, self.failed_ops + ops)


def _lambda_dev(report: dict, constants: dict) -> float | None:
    """|fitted constant - lambda| / lambda of a singular end verdict."""
    if report["kind"] != SINGULAR or report["fitted_constant"] is None:
        return None
    lam = constants["lambda1" if report["end"] == "infinity" else "lambda2"]
    return abs(report["fitted_constant"] - lam) / lam


class Scan:
    """`emdenlab scan` on CONFIG_A with a short horizon and bisection."""

    name = "scan"
    op = "shot"
    points = 64
    t_target = 2.0
    nominal_ops = points
    # the one kind change on this horizon; grid shifts must not move it
    a_star = 1.26797

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        lo, hi = (1.0, 1.0) if seed == 0 else \
            np.exp(rng.uniform(math.log(0.8), math.log(1.25), 2))
        self.a_min, self.a_max = 1e-2 * float(lo), 1e2 * float(hi)
        flags = [f"--{k}={v!r}" for k, v in CONFIG_A.items()]
        self.argv = ["scan", f"--a-min={self.a_min!r}",
                     f"--a-max={self.a_max!r}", f"--points={self.points}",
                     f"--t-target={self.t_target!r}", "--jobs=1", *flags]

    def inputs(self) -> dict:
        return {"argv": self.argv}

    def run_pass(self, work_dir):
        out = work_dir / "scan.json"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(self.argv + [f"--out={out}"])
        return {"code": code, "path": out, "stderr": err.getvalue()}

    def check(self, res, work_dir) -> Outcome:
        if res["code"] != 0 or not res["path"].is_file():
            out = Outcome(self.nominal_ops)
            out.fail("scan.exit_code", out.ops)
            out.notes["stderr"] = res["stderr"].strip()
            return out
        data = json.loads(res["path"].read_text())
        kinds, bounds = data["kinds"], data["boundaries"]
        # arithmetic bisection shoots both bracket ends, one midpoint per
        # iteration and the final a*
        out = Outcome(len(data["shots"])
                      + sum(b["iterations"] + 3 for b in bounds))
        out.verdicts = len(kinds)
        out.undetermined = kinds.count(UNDETERMINED)
        changes = sum(a != b for a, b in zip(kinds, kinds[1:]))
        if changes != 1:
            out.fail("scan.kind_changes", out.ops)
        if len(bounds) != 1:
            out.fail("scan.boundary_count", out.ops)
        elif not bounds[0]["rel_width"] < 1e-12:
            out.fail("scan.rel_width", out.ops)
        elif not abs(bounds[0]["a_star"] / self.a_star - 1.0) < 1e-4:
            out.fail("scan.a_star", out.ops)
        out.notes["a_star"] = [b["a_star"] for b in bounds]
        return out


class Sweep:
    """`emdenlab sweep` over a 3 x 3 (p, q) grid, then `classify --csv`
    on both ends of every cell trajectory."""

    name = "sweep"
    op = "cell"
    base_axes = {"p": (1.88, 1.90, 1.92), "q": (1.93, 1.95, 1.97)}
    nominal_ops = len(base_axes["p"]) * len(base_axes["q"])
    max_offset = 0.004

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        while True:
            axes = {k: [round(v + (0.0 if seed == 0 else float(
                        rng.uniform(-self.max_offset, self.max_offset))), 5)
                        for v in vals]
                    for k, vals in self.base_axes.items()}
            if self._valid(axes):
                break
        self.axes = axes
        text = "[params]\n" + "".join(
            f"{k} = {v!r}\n" for k, v in CONFIG_A.items())
        text += "[sweep]\n" + "".join(
            f"{k} = {', '.join(repr(v) for v in vals)}\n"
            for k, vals in axes.items())
        self.config_text = text
        self.cfg = sweep_mod.parse_run_config_text(text)

    @staticmethod
    def _valid(axes) -> bool:
        """Strictly increasing axes, max p < min q, and every cell in the
        singular_at_infinity regime."""
        p, q = axes["p"], axes["q"]
        if p != sorted(set(p)) or q != sorted(set(q)) or not p[-1] < q[0]:
            return False
        for pv in p:
            for qv in q:
                prm = params_mod.ProblemParams(**{**CONFIG_A, "p": pv,
                                                  "q": qv})
                dc = params_mod.derive_constants(prm)
                flags = params_mod.classify_regime(prm, dc)
                if flags.theorem3_case != "singular_at_infinity":
                    return False
        return True

    def inputs(self) -> dict:
        return {"config": self.config_text}

    def run_pass(self, work_dir):
        cfg = dataclasses.replace(self.cfg, output_dir=str(work_dir / "out"))
        manifest = sweep_mod.sweep(cfg, jobs=1)
        reread = {}
        for cell in manifest.cells:
            for rel in cell["files"]:
                path = manifest.path.parent / rel
                traj = integ.read_trajectory_csv(path)
                dc = params_mod.derive_constants(
                    params_mod.ProblemParams(**cell["params"]))
                lo, hi = float(traj.t.min()), float(traj.t.max())
                w = shooting.END_WINDOW
                wide = hi - lo >= 2.0 * w
                kinds = {
                    "infinity": classify.classify_end(
                        traj, dc, "infinity",
                        window=(hi - w, hi) if wide else None).kind.value,
                    "origin": classify.classify_end(
                        traj, dc, "origin",
                        window=(lo, lo + w) if wide else None).kind.value,
                }
                reread[cell["index"]] = (path, traj, kinds)
        return {"manifest": manifest, "reread": reread}

    def check(self, res, work_dir) -> Outcome:
        manifest, reread = res["manifest"], res["reread"]
        cells = manifest.cells
        out = Outcome(max(self.nominal_ops, len(cells)))
        if len(cells) != self.nominal_ops:
            out.fail("sweep.cell_count", out.ops)
        on_disk = manifest.path.read_bytes()
        if on_disk != serialize.canonical_json(manifest.data).encode():
            out.fail("sweep.manifest_on_disk", out.ops)
        devs = []
        rewrite = work_dir / "rewrite.csv"
        for cell in cells:
            out.verdicts += len(cell.get("kinds", {}))
            out.undetermined += list(cell.get("kinds", {}).values()).count(
                UNDETERMINED)
            if cell["error"] is not None or cell["index"] not in reread:
                out.fail("sweep.cell_error", 1)
                continue
            path, traj, kinds = reread[cell["index"]]
            integ.write_trajectory_csv(traj, rewrite)
            if rewrite.read_bytes() != path.read_bytes():
                out.fail("sweep.csv_round_trip", 1)
            elif kinds != cell["kinds"]:
                out.fail("sweep.reclassify", 1)
            for rep in cell["reports"].values():
                dev = _lambda_dev(rep, cell["constants"])
                if dev is not None:
                    devs.append(dev)
        if devs:
            out.accuracy["lambda_rel_dev"] = max(devs)
        out.notes["run_id"] = manifest.run_id
        return out


class Acceptance:
    """Acceptance criteria 1-9 with one shared Lab per pass."""

    name = "acceptance"
    op = "criterion"
    criteria = tuple(range(1, 10))
    nominal_ops = len(criteria)
    # subchecks that fail by design (README "Known infeasible checks")
    expected_failures = {6: {"tail_sup_vdot"}, 9: {"boundary_count"}}

    def __init__(self, seed: int):
        # the suite freezes its own inputs; the seed is only recorded
        self.dc = params_mod.derive_constants(acc.CONFIG_A)

    def inputs(self) -> dict:
        return {"criteria": list(self.criteria)}

    def run_pass(self, work_dir):
        lab = acc.Lab()
        results = [acc.run_acceptance(only=[n], lab=lab)[0]
                   for n in self.criteria]
        return {"lab": lab, "results": results}

    def check(self, res, work_dir) -> Outcome:
        lab, results = res["lab"], res["results"]
        out = Outcome(self.nominal_ops)
        for num, r in zip(self.criteria, results):
            failing = {name for name, ok, _ in r.subchecks if not ok}
            want = self.expected_failures.get(num, set())
            if failing != want or r.passed != (not want):
                out.fail(f"acceptance.c{num}", 1)
        # read the Lab's cached artifacts without rebuilding missing ones
        art = vars(lab)
        kinds = [s.kind.value for s in art.get("shots_50", [])]
        for key in ("scan_64", "scan_128"):
            if key in art:
                kinds += [k.value for k in art[key].kinds]
        reports = []
        if "orbit_a" in art:
            reports += [art["orbit_a"].report_infinity,
                        art["orbit_a"].report_origin]
        reports += [art[k]["report"] for k in ("bubble", "envelope_b")
                    if k in art]
        kinds += [r.kind.value for r in reports]
        out.verdicts, out.undetermined = len(kinds), kinds.count(UNDETERMINED)
        if "bubble" in art:
            out.accuracy["bubble_rel_err"] = art["bubble"]["max_rel_err"]
        if "orbit_a" in art:
            constants = self.dc.to_dict()
            devs = [_lambda_dev(r.to_dict(), constants)
                    for r in reports[:2]]
            devs = [d for d in devs if d is not None]
            if devs:
                out.accuracy["lambda_rel_dev"] = max(devs)
        c7 = results[self.criteria.index(7)]
        resid = [float(m.group(1)) for _, _, detail in c7.subchecks
                 for m in [re.search(r"residual (\S+)$", detail)] if m]
        if resid:
            out.accuracy["energy_balance_resid"] = max(resid)
        return out


WORKLOADS = {w.name: w for w in (Scan, Sweep, Acceptance)}
