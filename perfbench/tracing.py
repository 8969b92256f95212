"""Span tracer for the traced benchmark run, applied from outside emdenlab.

``Tracer.install`` rebinds each traced function in every ``emdenlab.*``
module (and in the benchmark's own modules) that holds it, so calls made
inside the package go through a wrapper that records a span: name, start,
end, parent span and pass id, plus a few work counts read off the
result.  Spans stay in memory; ``layer_metrics`` turns one pass's spans
into per-layer seconds and counts.  A layer is the part of a span name
before the first dot, and its self time is the time its spans cover
minus the time covered by their child spans.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from collections import Counter, defaultdict

TERMINATIONS = ("reached_span_end", "positivity_lost", "amplitude_cap",
                "step_underflow")
CRITERIA = range(1, 10)


def _criterion(args, kwargs):
    only = kwargs.get("only") or []
    return f"acceptance.c{only[0]}" if len(only) == 1 else "acceptance.run"


# (module, attribute, span name, note on the result)
TARGETS = (
    ("emdenlab.integrate", "solve_ivp", "integrate.solve_ivp",
     lambda a, k, r: (r.nfev, len(r.t) - 1)),
    ("emdenlab.integrate", "integrate", "integrate.integrate",
     lambda a, k, r: (r.t.size, r.termination.kind.value)),
    ("emdenlab.integrate", "write_trajectory_csv", "integrate.csv_write",
     lambda a, k, r: os.path.getsize(a[1] if len(a) > 1 else k["path"])),
    ("emdenlab.integrate", "read_trajectory_csv", "integrate.csv_read",
     None),
    ("emdenlab.classify", "classify_end", "classify.classify_end",
     lambda a, k, r: r.kind.value),
    ("emdenlab.energy", "energy_trace", "energy.energy_trace", None),
    ("emdenlab.energy", "apriori_bound_report", "energy.apriori_bound",
     None),
    ("emdenlab.shooting", "shoot", "shooting.shoot", None),
    ("emdenlab.shooting", "bisect_boundary", "shooting.bisect_boundary",
     None),
    ("emdenlab.shooting", "scan_thresholds", "shooting.scan_thresholds",
     None),
    ("emdenlab.shooting", "connecting_orbit", "shooting.connecting_orbit",
     None),
    ("emdenlab.serialize", "canonical_json", "serialize.canonical_json",
     lambda a, k, r: len(r.encode())),
    ("emdenlab.sweep", "sweep", "sweep.sweep",
     lambda a, k, r: (len(r.cells), sum(1 for c in r.cells if c["error"]))),
    ("emdenlab.acceptance", "run_acceptance", _criterion, None),
    ("emdenlab.cli", "main", "cli.main", None),
)


class Tracer:
    """Records spans as [name, start, end, parent, pass_id, note]."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []
        self.pass_id = -1

    def _wrap(self, name, fn, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            rec = [label, clock(), 0.0, stack[-1] if stack else -1,
                   self.pass_id, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                rec[5] = note(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def run(self, pass_id: int, fn, *args):
        """Call fn(*args) as the root span of one pass."""
        self.pass_id = pass_id
        return self._wrap("bench.pass", fn, None)(*args)

    def install(self, extra_modules=()) -> None:
        wrappers = {}
        for mod_name, attr, label, note in TARGETS:
            original = getattr(sys.modules[mod_name], attr)
            wrappers[original] = self._wrap(label, original, note)
        self._patches = rebind(wrappers, extra_modules)

    def uninstall(self) -> None:
        restore(self._patches)


def rebind(wrappers: dict, extra_modules=()) -> list:
    """Replace each function in ``wrappers`` by its wrapper under every
    name an ``emdenlab.*`` module (or one of ``extra_modules``) holds it
    by.  Returns the patches for ``restore``."""
    modules = [m for name, m in list(sys.modules.items())
               if name.startswith("emdenlab.")] + list(extra_modules)
    by_id = {id(fn): wrapper for fn, wrapper in wrappers.items()}
    patches = []
    for mod in modules:
        for key, val in list(vars(mod).items()):
            if id(val) in by_id:
                patches.append((mod, key, val))
                setattr(mod, key, by_id[id(val)])
    return patches


def restore(patches: list) -> None:
    while patches:
        mod, key, val = patches.pop()
        setattr(mod, key, val)


def _quantile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: list, pass_id: int) -> dict:
    """Per-layer seconds and counts of one traced pass."""
    ids = [i for i, s in enumerate(spans) if s[4] == pass_id]
    dur = {i: spans[i][2] - spans[i][1] for i in ids}
    child = defaultdict(float)
    for i in ids:
        if spans[i][3] >= 0:
            child[spans[i][3]] += dur[i]
    own = defaultdict(float)
    total = defaultdict(float)
    count = Counter()
    for i in ids:
        name = spans[i][0]
        own[name] += dur[i] - child[i]
        total[name] += dur[i]
        count[name] += 1

    def layer_self(layer):
        return sum((v for k, v in own.items() if k.startswith(layer + ".")),
                   0.0)

    def notes(name):
        return [spans[i][5] for i in ids if spans[i][0] == name]

    def under(i, name):
        while spans[i][3] >= 0:
            i = spans[i][3]
            if spans[i][0] == name:
                return True
        return False

    m = {}
    solves = notes("integrate.solve_ivp")
    integrations = notes("integrate.integrate")
    nfev = sum(n for n, _ in solves)
    terms = Counter(kind for _, kind in integrations)
    m["integrate.calls"] = len(integrations)
    m["integrate.nfev"] = nfev
    m["integrate.steps"] = sum(s for _, s in solves)
    m["integrate.samples"] = sum(n for n, _ in integrations)
    m["integrate.solver_s"] = total["integrate.solve_ivp"]
    # integrate's own time: dense sampling around the solver call
    m["integrate.sampling_s"] = own["integrate.integrate"]
    m["integrate.us_per_nfev"] = 1e6 * total["integrate.solve_ivp"] / nfev \
        if nfev else 0.0
    for kind in TERMINATIONS:
        m[f"integrate.term.{kind}"] = terms[kind]
    m["integrate.csv_write_s"] = total["integrate.csv_write"]
    m["integrate.csv_read_s"] = total["integrate.csv_read"]
    m["integrate.csv_bytes"] = sum(notes("integrate.csv_write"))

    shots = [i for i in ids if spans[i][0] == "shooting.shoot"]
    boundaries = count["shooting.bisect_boundary"]
    bisect_shots = sum(1 for i in shots
                       if under(i, "shooting.bisect_boundary"))
    shot_ms = sorted(1e3 * dur[i] for i in shots)
    m["shooting.shots"] = len(shots)
    m["shooting.bisect_shots"] = bisect_shots
    m["shooting.boundaries"] = boundaries
    m["shooting.shots_per_boundary"] = bisect_shots / boundaries \
        if boundaries else 0.0
    m["shooting.shot_p50_ms"] = _quantile(shot_ms, 50)
    m["shooting.shot_p90_ms"] = _quantile(shot_ms, 90)
    m["shooting.self_s"] = layer_self("shooting")
    m["shooting.connect_s"] = total["shooting.connecting_orbit"]

    kinds = notes("classify.classify_end")
    m["classify.calls"] = len(kinds)
    m["classify.s"] = total["classify.classify_end"]
    m["classify.undetermined"] = kinds.count("undetermined")

    m["energy.trace_calls"] = count["energy.energy_trace"]
    m["energy.trace_s"] = total["energy.energy_trace"]
    m["energy.bound_calls"] = count["energy.apriori_bound"]
    m["energy.bound_s"] = total["energy.apriori_bound"]

    sweeps = notes("sweep.sweep")
    m["sweep.cells"] = sum(c for c, _ in sweeps)
    m["sweep.cell_errors"] = sum(e for _, e in sweeps)
    m["sweep.self_s"] = layer_self("sweep")

    m["serialize.json_calls"] = count["serialize.canonical_json"]
    m["serialize.json_s"] = total["serialize.canonical_json"]
    m["serialize.json_bytes"] = sum(notes("serialize.canonical_json"))

    for n in CRITERIA:
        m[f"acceptance.c{n}_s"] = total[f"acceptance.c{n}"]
    m["cli.self_s"] = layer_self("cli")
    return m
