"""Pass time in units of a fixed reference computation run beside it.

The cores this benchmark gets are often shared: their speed drifts by
tens of percent, with a correlation time of a few seconds, and CPU time
drifts with wall time.  Medians over longer runs do not remove that.  A
timed pass is therefore cut into stretches of at least ``GAP_S`` seconds
and a short reference slice runs between stretches: a few DOP853 solves
of a fixed ODE with scipy alone, the same kind of work emdenlab does.
Each stretch is divided by the mean of the two slices around it, and the
quotients are summed into the pass cost in reference units (``ref``).
The slices are not part of the pass time.

The cuts are made at calls into emdenlab (``HOOKS``), rebound from
outside the package as the tracer does.  A hook only cuts once
``GAP_S`` has passed since the last cut, so it costs one clock read per
call otherwise.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from tracing import rebind, restore

SLICE_SOLVES = 2
GAP_S = 0.1
# (module, attribute): a cut may come before any call of these
HOOKS = (
    ("emdenlab.integrate", "integrate"),
    ("emdenlab.integrate", "write_trajectory_csv"),
    ("emdenlab.integrate", "read_trajectory_csv"),
    ("emdenlab.classify", "classify_end"),
    ("emdenlab.energy", "energy_trace"),
)


def _rhs(t, y):
    return np.array([y[1], -y[0] ** 5 - 2.0 * y[1] / (t + 1.0)])


def reference_slice() -> float:
    """Run the fixed reference computation once; its wall seconds."""
    t0 = time.perf_counter()
    for k in range(SLICE_SOLVES):
        solve_ivp(_rhs, (0.0, 40.0), [1.0 + 0.01 * k, 0.0],
                  method="DOP853", rtol=1e-10, atol=1e-12)
    return time.perf_counter() - t0


@dataclass
class PassTiming:
    seconds: float      # wall time of the pass, reference slices excluded
    ref_units: float    # the same time in reference units
    slice_s: float      # median wall time of one reference slice
    stretches: int


class Calibrator:
    def __init__(self):
        self._patches: list = []
        self._active = False
        self._work: list = []
        self._refs: list = []
        self._mark = 0.0

    def _cut(self) -> None:
        now = time.perf_counter()
        self._work.append(now - self._mark)
        self._refs.append(reference_slice())
        self._mark = time.perf_counter()

    def _wrap(self, fn):
        def wrapper(*args, **kwargs):
            if self._active and time.perf_counter() - self._mark >= GAP_S:
                self._cut()
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, extra_modules=()) -> None:
        originals = [getattr(sys.modules[m], a) for m, a in HOOKS]
        self._patches = rebind({f: self._wrap(f) for f in originals},
                               extra_modules)

    def uninstall(self) -> None:
        restore(self._patches)

    def run(self, fn, *args):
        """Call fn(*args); return (result or None, PassTiming, exception
        or None).  The timing is valid also when fn raised."""
        self._work, self._refs = [], [reference_slice()]
        self._active = True
        self._mark = time.perf_counter()
        result, error = None, None
        try:
            result = fn(*args)
        except Exception as exc:  # noqa: BLE001 - handed to the caller
            error = exc
        finally:
            self._active = False
            self._cut()
        units = sum(w / (0.5 * (a + b)) for w, a, b in
                    zip(self._work, self._refs, self._refs[1:]))
        refs = sorted(self._refs)
        timing = PassTiming(sum(self._work), units, refs[len(refs) // 2],
                            len(self._work))
        return result, timing, error
