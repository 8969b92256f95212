"""emdenlab benchmark: one workload, timed or traced, checked.

    python3 perfbench/run.py --workload {scan,sweep,acceptance} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
its ``src/`` directory.  ``--trace 0`` measures the end-to-end metrics:
``setup_s`` (median of several fresh interpreters, each timed from spawn
until the workload inputs are ready), ``wall_ref`` (median time of one
pass in units of a reference computation run between its stretches, see
``calibrate.py``; one untimed warm-up pass first, then the passes that
fit in S seconds) and ``peak_rss_mb``.  The report also gives the raw
``wall_s`` and the accuracy and fraction metrics.  ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics of ``tracing.py``.
Every pass is checked.  A readable report goes first; the last line of
standard output is one JSON object with keys correct, attempted, failed
and metrics.  Full records, with provenance and the traced spans, are
written under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["scan", "sweep", "acceptance"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="build the inputs, print the ready time and exit")
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def measure_setup(args) -> list:
    """Seconds from spawning a fresh interpreter until it has built the
    workload inputs, once per probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe exited {proc.returncode}: "
                               f"{proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]) - t0)
    return times


def provenance() -> dict:
    import numpy
    import scipy

    rev = "unknown"
    try:
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30)
        top, head = git.stdout.split()
        if git.returncode == 0 and Path(top).resolve() == ROOT:
            rev = head
    except (OSError, ValueError, subprocess.TimeoutExpired):
        pass
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    lines = {p.name: len(p.read_text().splitlines())
             for p in sorted((SRC / "emdenlab").glob("*.py"))}
    return {"git_rev": rev, "cpu_model": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "src_lines": sum(lines.values()), "module_lines": lines}


def measure(workload, args, work: Path):
    """Warm-up pass, then passes until the time is up; every pass is
    checked.  Untraced passes are cut by reference slices (see
    ``calibrate.py``).  Returns (passes, tracer)."""
    import workloads
    from calibrate import Calibrator
    from tracing import Tracer

    tracer = Tracer() if args.trace else None
    calibrator = Calibrator()
    passes = []

    def one(kind):
        pass_id = len(passes)
        pass_dir = work / f"pass-{pass_id:03d}"
        pass_dir.mkdir(parents=True)
        rec = {"kind": kind, "seconds": 0.0, "ref_units": None,
               "slice_s": None}
        try:
            if kind == "traced":
                tracer.install([workloads])
                t0 = time.perf_counter()
                try:
                    res = tracer.run(pass_id, workload.run_pass, pass_dir)
                finally:
                    rec["seconds"] = time.perf_counter() - t0
                    tracer.uninstall()
            else:
                calibrator.install([workloads])
                try:
                    res, timing, error = calibrator.run(workload.run_pass,
                                                        pass_dir)
                finally:
                    calibrator.uninstall()
                rec.update(seconds=timing.seconds,
                           ref_units=timing.ref_units,
                           slice_s=timing.slice_s)
                if error is not None:
                    raise error
            outcome = workload.check(res, pass_dir)
        except Exception:  # noqa: BLE001 - count the pass as failed, go on
            outcome = workloads.Outcome(workload.nominal_ops)
            outcome.fail(f"{workload.name}.exception", outcome.ops)
            outcome.notes["traceback"] = traceback.format_exc()
        shutil.rmtree(pass_dir, ignore_errors=True)
        rec["outcome"] = outcome
        passes.append(rec)

    one("warmup")
    cycle = ["timed", "traced"] if args.trace else ["timed"]
    start = time.perf_counter()
    while (len(passes) <= len(cycle)
           or time.perf_counter() - start < args.seconds):
        one(cycle[(len(passes) - 1) % len(cycle)])
    return passes, tracer


def end_to_end(passes, setup_times) -> dict:
    outcomes = [p["outcome"] for p in passes]
    ops = sum(o.ops for o in outcomes)
    verdicts = sum(o.verdicts for o in outcomes)
    timed = [p for p in passes if p["kind"] == "timed"]
    values = {
        "wall_ref": statistics.median(p["ref_units"] for p in timed),
        "wall_s": statistics.median(p["seconds"] for p in timed),
        "ref_slice_ms": 1e3 * statistics.median(
            p["slice_s"] for p in timed),
        "setup_s": statistics.median(setup_times) if setup_times else None,
        "failed_frac": sum(o.failed_ops for o in outcomes) / ops,
        "undetermined_frac": (sum(o.undetermined for o in outcomes)
                              / verdicts) if verdicts else None,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for name in ("bubble_rel_err", "energy_balance_resid", "lambda_rel_dev"):
        seen = [o.accuracy[name] for o in outcomes if name in o.accuracy]
        values[name] = max(seen) if seen else None
    return values


def per_layer(passes, tracer) -> dict:
    from tracing import layer_metrics

    traced = [i for i, p in enumerate(passes) if p["kind"] == "traced"]
    rows = [layer_metrics(tracer.spans, i) for i in traced]
    values = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    values["trace.overhead_s"] = (
        statistics.median(passes[i]["seconds"] for i in traced)
        - statistics.median(p["seconds"] for p in passes
                            if p["kind"] == "timed"))
    return values


# every end-to-end metric; BENCHMARK.json gates the ones never 0
UNITS = {"wall_ref": "ref", "wall_s": "s", "ref_slice_ms": "ms",
         "setup_s": "s", "failed_frac": "",
         "undetermined_frac": "", "peak_rss_mb": "MB",
         "bubble_rel_err": "", "energy_balance_resid": "",
         "lambda_rel_dev": ""}


def report(args, workload, passes, values, setup_times, prov,
           units) -> list:
    timed = [p for p in passes if p["kind"] == "timed"]
    ops = sum(p["outcome"].ops for p in passes)
    failures = {}
    for p in passes:
        for name, n in p["outcome"].failures.items():
            failures[name] = failures.get(name, 0) + n
    lines = [
        f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
        f"seconds={args.seconds:g}: {len(passes)} passes "
        f"(1 warm-up, {len(timed)} timed, {len(passes) - 1 - len(timed)} "
        f"traced), {ops} operations checked (one {workload.op} each)",
        f"provenance: git {prov['git_rev']}; {prov['cpu_model']}; "
        f"nproc {prov['nproc']}; python {prov['python']}, numpy "
        f"{prov['numpy']}, scipy {prov['scipy']}; src/emdenlab "
        f"{prov['src_lines']} lines "
        + "(" + ", ".join(f"{k} {v}" for k, v in
                          prov["module_lines"].items()) + ")",
        "checks: " + ("all passed" if not failures else ", ".join(
            f"{k} failed {v} operations" for k, v in failures.items())),
    ]
    for p in passes:
        if "traceback" in p["outcome"].notes:
            lines.append(p["outcome"].notes["traceback"].rstrip())
    if args.trace:
        lines.append("per-layer metrics (median over traced passes):")
        lines += [f"  {k:34s} {v:.6g} {units[k]}" for k, v in values.items()]
        return lines
    notes = {
        "wall_ref": f"median of {len(timed)} passes, in reference slices",
        "wall_s": f"median of {len(timed)} passes, slices excluded",
        "ref_slice_ms": "median reference slice",
        "setup_s": f"median of {len(setup_times)} fresh interpreters",
    }
    lines.append("end-to-end metrics:")
    for name, unit in UNITS.items():
        v = values[name]
        text = "n/a" if v is None else f"{v:.6g} {unit}"
        lines.append(f"  {name:22s} {text:16s} {notes.get(name, '')}")
    return lines


def main(argv=None) -> int:
    # a terminated run still removes its work directory and probes
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = parse_args(argv)
    if not (SRC / "emdenlab" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no emdenlab package under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import emdenlab

    if Path(emdenlab.__file__).resolve().parent != SRC / "emdenlab":
        sys.stderr.write(f"perfbench: imported {emdenlab.__file__}, not "
                         f"the checkout's copy\n")
        return 2
    import workloads

    workload_cls = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        workload_cls(args.seed)
        print(time.monotonic(), flush=True)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup_times = [] if args.trace else measure_setup(args)
    workload = workload_cls(args.seed)
    work = OUT / f"work-{os.getpid()}"
    try:
        passes, tracer = measure(workload, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values = per_layer(passes, tracer)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(passes, setup_times)
        wanted = spec["end_to_end"]
    prov = provenance()
    ops = sum(p["outcome"].ops for p in passes)
    failed = sum(p["outcome"].failed_ops for p in passes)
    result = {
        "correct": failed == 0,
        "attempted": ops,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "inputs": workload.inputs(),
        "provenance": prov, "setup_times_s": setup_times,
        "passes": [{"kind": p["kind"], "seconds": p["seconds"],
                    "ref_units": p["ref_units"], "slice_s": p["slice_s"],
                    "ops": p["outcome"].ops,
                    "failures": dict(p["outcome"].failures),
                    "notes": p["outcome"].notes} for p in passes],
        "values": values, "result": result,
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer:
        with open(results / f"{stem}-spans.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(dict(zip(
                    ("name", "start", "end", "parent", "pass", "note"),
                    span))) + "\n")

    units = {m["name"]: m["unit"] for m in wanted}
    print("\n".join(report(args, workload, passes, values, setup_times,
                           prov, units)))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
