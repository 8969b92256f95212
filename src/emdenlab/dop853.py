"""DOP853 for the two-state log-frame system, with its two terminal events.

The explicit Runge-Kutta pair of Dormand and Prince of order 8 with the
5th/3rd-order error estimate and the 7th-order dense output (Hairer,
Norsett & Wanner, *Solving Ordinary Differential Equations I*, 2nd ed.,
sections II.4-II.6; Hairer's dop853.f).  It is driven the way scipy's
solve_ivp(method="DOP853", dense_output=True, events=...) drives it: the
same initial-step rule, error norm, step controller, max_step cap,
underflow test and Brent event location, so it takes the same steps.
It is specialised to y = (v, dv/dt) and to the two events that end a
log-frame run: v falls through 0, or |v| rises through the amplitude cap.

There are two cores over one tableau, one start (_start), one
controller, one event rule (_fired), one event locator (_located), one
dense-output builder (_dense_rows) and one result, Solution, whose
__call__ is the dense output.  Both take one right-hand side object,
integrate.log_frame_rhs's: fun(t, v, vdot) on arrays, which raises on a
non-finite acceleration, carrying fun.attempt for the scalar core and
fun.stages for the lane core.  fun itself builds every interpolant and
makes every start: one _start call per run or batch calls it once at
all its starts and once at all their initial-step probes.  The cores:

- solve_ivp runs one start in plain floats.  Its step attempt,
  fun.attempt, is straight-line code generated from the tableau below
  by one generator, attempt_source, one flat expression per stage sum,
  with the evaluation of f at each stage given to it as source
  (log_frame_rhs inlines its acceleration there).
- solve_lanes runs L starts in lockstep on numpy arrays with the lane
  as the last axis.  Each lane keeps its own step size, error norm,
  accept/reject and events, and leaves the batch, its Solution yielded,
  when it ends.  Stage sums are lane-wise products summed along the
  stage axis in tableau order, never a matrix product, so a lane's
  numbers do not depend on the batch it rides in, and with the same
  right-hand side values a lane takes the scalar core's steps bit for
  bit.  fun.stages is prepared once for an attempt's 13 stage times
  (log_frame_rhs's computes each exponential there once), and the
  attempt tests its values' finiteness once.

Both keep each accepted step as the stage values its interpolant needs
(Solution.stages) and evaluate the three dense-output stages 13-15 only
where they are read, as dop853.f does when no dense output is asked
for: for the step an event is located on (solve_lanes locates those of
all its lanes at once, when its loop has ended), and, whichever core
took the step, for the steps a call of its Solution reads: from the
first to the last step its times fall in, kept once they are the whole
run.  A zero span (t0 == t_bound) is a Solution without steps.  Neither
samples: integrate reads every run through Solution.__call__.
"""

from __future__ import annotations

import math
import sys
from array import array
from enum import Enum
from itertools import repeat
from typing import NamedTuple

import numpy as np

# Hairer's dop853.f coefficients (c_i, a_ij, b_i, bhh_i, er_i, d_ij),
# nonzero entries only, as (j, coefficient) pairs per row.  Stages 0-11
# are the method, stage 12 (c = 1, row b) evaluates f at the new point,
# stages 13-15 feed the dense output.
C = (0.0,
     0.526001519587677318785587544488e-01,
     0.789002279381515978178381316732e-01,
     0.118350341907227396726757197510,
     0.281649658092772603273242802490,
     0.333333333333333333333333333333,
     0.25,
     0.307692307692307692307692307692,
     0.651282051282051282051282051282,
     0.6,
     0.857142857142857142857142857142,
     1.0,
     1.0,
     0.1,
     0.2,
     0.777777777777777777777777777778)

A = (
    (),
    ((0, 5.26001519587677318785587544488e-2),),
    ((0, 1.97250569845378994544595329183e-2),
     (1, 5.91751709536136983633785987549e-2)),
    ((0, 2.95875854768068491816892993775e-2),
     (2, 8.87627564304205475450678981324e-2)),
    ((0, 2.41365134159266685502369798665e-1),
     (2, -8.84549479328286085344864962717e-1),
     (3, 9.24834003261792003115737966543e-1)),
    ((0, 3.7037037037037037037037037037e-2),
     (3, 1.70828608729473871279604482173e-1),
     (4, 1.25467687566822425016691814123e-1)),
    ((0, 3.7109375e-2),
     (3, 1.70252211019544039314978060272e-1),
     (4, 6.02165389804559606850219397283e-2),
     (5, -1.7578125e-2)),
    ((0, 3.70920001185047927108779319836e-2),
     (3, 1.70383925712239993810214054705e-1),
     (4, 1.07262030446373284651809199168e-1),
     (5, -1.53194377486244017527936158236e-2),
     (6, 8.27378916381402288758473766002e-3)),
    ((0, 6.24110958716075717114429577812e-1),
     (3, -3.36089262944694129406857109825),
     (4, -8.68219346841726006818189891453e-1),
     (5, 2.75920996994467083049415600797e1),
     (6, 2.01540675504778934086186788979e1),
     (7, -4.34898841810699588477366255144e1)),
    ((0, 4.77662536438264365890433908527e-1),
     (3, -2.48811461997166764192642586468),
     (4, -5.90290826836842996371446475743e-1),
     (5, 2.12300514481811942347288949897e1),
     (6, 1.52792336328824235832596922938e1),
     (7, -3.32882109689848629194453265587e1),
     (8, -2.03312017085086261358222928593e-2)),
    ((0, -9.3714243008598732571704021658e-1),
     (3, 5.18637242884406370830023853209),
     (4, 1.09143734899672957818500254654),
     (5, -8.14978701074692612513997267357),
     (6, -1.85200656599969598641566180701e1),
     (7, 2.27394870993505042818970056734e1),
     (8, 2.49360555267965238987089396762),
     (9, -3.0467644718982195003823669022)),
    ((0, 2.27331014751653820792359768449),
     (3, -1.05344954667372501984066689879e1),
     (4, -2.00087205822486249909675718444),
     (5, -1.79589318631187989172765950534e1),
     (6, 2.79488845294199600508499808837e1),
     (7, -2.85899827713502369474065508674),
     (8, -8.87285693353062954433549289258),
     (9, 1.23605671757943030647266201528e1),
     (10, 6.43392746015763530355970484046e-1)),
    ((0, 5.42937341165687622380535766363e-2),
     (5, 4.45031289275240888144113950566),
     (6, 1.89151789931450038304281599044),
     (7, -5.8012039600105847814672114227),
     (8, 3.1116436695781989440891606237e-1),
     (9, -1.52160949662516078556178806805e-1),
     (10, 2.01365400804030348374776537501e-1),
     (11, 4.47106157277725905176885569043e-2)),
    ((0, 5.61675022830479523392909219681e-2),
     (6, 2.53500210216624811088794765333e-1),
     (7, -2.46239037470802489917441475441e-1),
     (8, -1.24191423263816360469010140626e-1),
     (9, 1.5329179827876569731206322685e-1),
     (10, 8.20105229563468988491666602057e-3),
     (11, 7.56789766054569976138603589584e-3),
     (12, -8.298e-3)),
    ((0, 3.18346481635021405060768473261e-2),
     (5, 2.83009096723667755288322961402e-2),
     (6, 5.35419883074385676223797384372e-2),
     (7, -5.49237485713909884646569340306e-2),
     (10, -1.08347328697249322858509316994e-4),
     (11, 3.82571090835658412954920192323e-4),
     (12, -3.40465008687404560802977114492e-4),
     (13, 1.41312443674632500278074618366e-1)),
    ((0, -4.28896301583791923408573538692e-1),
     (5, -4.69762141536116384314449447206),
     (6, 7.68342119606259904184240953878),
     (7, 4.06898981839711007970213554331),
     (8, 3.56727187455281109270669543021e-1),
     (12, -1.39902416515901462129418009734e-3),
     (13, 2.9475147891527723389556272149),
     (14, -9.15095847217987001081870187138)),
)

B = A[12]

# 3rd-order estimate: b - bhh
BHH = {0: 0.244094488188976377952755905512,
       8: 0.733846688281611857341361741547,
       11: 0.220588235294117647058823529412e-1}
E3 = tuple((j, b - BHH.get(j, 0.0)) for j, b in B)

# 5th-order estimate
E5 = ((0, 0.1312004499419488073250102996e-1),
      (5, -0.1225156446376204440720569753e+1),
      (6, -0.4957589496572501915214079952),
      (7, 0.1664377182454986536961530415e+1),
      (8, -0.3503288487499736816886487290),
      (9, 0.3341791187130174790297318841),
      (10, 0.8192320648511571246570742613e-1),
      (11, -0.2235530786388629525884427845e-1))

# dense output rows 4-7 (rows 1-3 come from the step's end values)
_D_COLS = (0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)
D = tuple(tuple(zip(_D_COLS, row)) for row in (
    (-0.84289382761090128651353491142e+1, 0.56671495351937776962531783590,
     -0.30689499459498916912797304727e+1, 0.23846676565120698287728149680e+1,
     0.21170345824450282767155149946e+1, -0.87139158377797299206789907490,
     0.22404374302607882758541771650e+1, 0.63157877876946881815570249290,
     -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e+2,
     -0.91946323924783554000451984436e+1, -0.44360363875948939664310572000e+1),
    (0.10427508642579134603413151009e+2, 0.24228349177525818288430175319e+3,
     0.16520045171727028198505394887e+3, -0.37454675472269020279518312152e+3,
     -0.22113666853125306036270938578e+2, 0.77334326684722638389603898808e+1,
     -0.30674084731089398182061213626e+2, -0.93321305264302278729567221706e+1,
     0.15697238121770843886131091075e+2, -0.31139403219565177677282850411e+2,
     -0.93529243588444783865713862664e+1, 0.35816841486394083752465898540e+2),
    (0.19985053242002433820987653617e+2, -0.38703730874935176555105901742e+3,
     -0.18917813819516756882830838328e+3, 0.52780815920542364900561016686e+3,
     -0.11573902539959630126141871134e+2, 0.68812326946963000169666922661e+1,
     -0.10006050966910838403183860980e+1, 0.77771377980534432092869265740,
     -0.27782057523535084065932004339e+1, -0.60196695231264120758267380846e+2,
     0.84320405506677161018159903784e+2, 0.11992291136182789328035130030e+2),
    (-0.25693933462703749003312586129e+2, -0.15418974869023643374053993627e+3,
     -0.23152937917604549567536039109e+3, 0.35763911791061412378285349910e+3,
     0.93405324183624310003907691704e+2, -0.37458323136451633156875139351e+2,
     0.10409964950896230045147246184e+3, 0.29840293426660503123344363579e+2,
     -0.43533456590011143754432175058e+2, 0.96324553959188282948394950600e+2,
     -0.39177261675615439165231486172e+2, -0.14972683625798562581422125276e+3),
))


class TerminationKind(str, Enum):
    REACHED_SPAN_END = "reached_span_end"
    POSITIVITY_LOST = "positivity_lost"
    AMPLITUDE_CAP = "amplitude_cap"
    STEP_UNDERFLOW = "step_underflow"


SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
ERROR_EXPONENT = -1.0 / 8.0  # error estimator of order 7
EPS = sys.float_info.epsilon

# one accepted step as a core keeps it: t_old, then y_old and f at the
# stages in KEPT, each as (v, vdot).  f at stage 12 and the step's end
# are the next step's f at stage 0 and its start (FSAL), and its h is
# t_new - t_old as the core computed it, so they are kept only for a
# run's last step, in Solution.tail (t_new, y_new, f at stage 12).
KEPT = (0, 5, 6, 7, 8, 9, 10, 11)
STEP = 3 + 2 * len(KEPT)

# one step's dense-output row, as _dense_rows builds it: t_old, h, then
# (y_old, F_0..F_6) for v and for vdot
T_OLD, H, V_OLD, W_OLD, ROW = 0, 1, 2, 10, 18


class SolverStats(NamedTuple):
    """Work of one run: right-hand side evaluations made while stepping
    (2 for the initial step, 12 per step attempt and 3 for the step an
    event is located on; reading the dense output evaluates 3 more per
    step and is not counted), accepted steps (the steps of its grid)
    and rejected step attempts."""

    nfev: int
    steps: int
    rejected: int


def _rms(x, y):
    return np.sqrt(x * x + y * y) / 2.0 ** 0.5


class Solution:
    """Accepted steps, work counts and dense output of one run, as
    arrays.

    t holds the start of each step, then t_end, where the run ended (the
    event time when an event ended it).  stages holds one row per step:
    y_old and f at the stages in KEPT (a STEP row without its t_old), and
    tail the end of the last step (t_new, y_new, f there); a run without
    steps has an empty tail.  status is how the run ended.  A __call__
    builds from these the dense-output rows of just the steps its times
    fall in, given the run's right-hand side on arrays, whichever core
    made it; the rows are kept only when those steps are the whole run.
    """

    def __init__(self, steps, tail, t_end: float, nfev: int, rejected: int,
                 status):
        steps = np.asarray(steps, dtype=float).reshape(-1, STEP)
        self.t = np.append(steps[:, 0], t_end)
        self.stages = steps[:, 1:].copy()
        self.tail = np.array(tail if len(steps) else (), dtype=float)
        self.nfev = nfev
        self.status = status
        self.stats = SolverStats(nfev, len(self.stages), rejected)
        self._rows = None

    def dense(self, fun, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """The (ROW, hi - lo) dense-output rows of the steps lo..hi - 1
        (by default all), one column a step.  fun(t, v, vdot) is the
        run's right-hand side, the fun either core took, here on arrays
        of steps.  _dense_rows builds each column from its own step
        alone, so a step's row is the same bits whichever range it is
        built in; the rows of the whole run are built once and kept."""
        n = len(self.stages)
        hi = n if hi is None else hi
        if self._rows is not None:
            return self._rows[:, lo:hi]
        # a step ends where the next starts, the run's last in tail
        inner = min(hi, n - 1) - lo
        ends = np.empty((5, hi - lo))
        ends[0, :inner] = self.t[lo + 1:lo + 1 + inner]
        ends[1:, :inner] = self.stages[lo + 1:lo + 1 + inner, :4].T
        if lo < hi == n:
            ends[:, -1] = self.tail
        rows = _dense_rows(fun, self.t[lo:hi], self.stages[lo:hi].T, ends)
        if (lo, hi) == (0, n):
            self._rows = rows
        return rows

    def __call__(self, ts: np.ndarray, fun):
        """(v, vdot) at the times ts, each from its step's interpolant
        (a time on a step boundary takes the earlier step in t), built
        for the steps from the first to the last that ts falls in; fun
        as for dense."""
        n = len(self.stages)
        if self.t[-1] >= self.t[0]:
            seg = np.searchsorted(self.t, ts, side="left") - 1
            seg = np.clip(seg, 0, n - 1)
        else:
            seg = np.searchsorted(self.t[::-1], ts, side="right") - 1
            seg = n - 1 - np.clip(seg, 0, n - 1)
        lo, hi = (int(seg.min()), int(seg.max()) + 1) if seg.size else (0, 0)
        cols = self.dense(fun, lo, hi)
        seg = seg - lo
        # row by row: faster than cols[r, seg], without copying every row
        x = (ts - cols[T_OLD][seg]) / cols[H][seg]
        return tuple(_horner(lambda i, b=base: cols[b + i][seg], x)
                     for base in (V_OLD, W_OLD))


def _horner(coef, x):
    """y_old + F0 x + F1 x(1-x) + F2 x^2(1-x) + ... + F6 x^4 (1-x)^3,
    nested from F6 outward, with coef(0) = y_old, coef(i + 1) = F_i."""
    x1 = 1.0 - x
    y = coef(7) * x
    for i in range(6, 0, -1):
        y = (y + coef(i)) * (x if i % 2 else x1)
    return y + coef(0)


def _brentq(f, xa, xb, tol=4 * EPS, maxiter=100):
    """Root of f in [xa, xb] by Brent's method, with scipy.optimize.brentq's
    steps and its absolute and relative tolerance tol."""
    xpre, xcur = xa, xb
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("event function has no sign change on the step")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if (fpre != 0.0 and fcur != 0.0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (tol + tol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                num, den = -fcur * (xcur - xpre), fcur - fpre
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                num = -fcur * (fblk * dblk - fpre * dpre)
                den = dblk * dpre * (fblk - fpre)
            # a denominator that underflowed to 0 gives C an inf or nan
            # step, which fails the test below: bisect
            stry = num / den if den != 0.0 else math.inf
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = f(xcur)
    raise RuntimeError("event location did not converge")


def _fired(v_old, v_new, cap) -> tuple:
    """Whether each terminal event's function changes sign over a step
    from v_old to v_new, as solve_ivp's find_active_events has it: (v
    falls through 0, |v| rises through cap), on floats or on arrays of
    lanes."""
    return ((v_old >= 0.0) & (v_new <= 0.0),
            (abs(v_old) - cap <= 0.0) & (abs(v_new) - cap >= 0.0))


def _start(fun, t, y, t_bound, rtol, atol, max_step) -> tuple:
    """(d, k0, h_abs) of L starts at the times t and (2, L) states y:
    each start's direction towards t_bound, f there, and Hairer's
    starting step (HNW I, section II.4) in scipy's select_initial_step
    order of operations.  fun is called twice for the batch, at the
    starts and at the probe.  The small-norm branches are computed for
    every lane and masked, without warnings; the power is taken in
    floats, as the controller takes it: numpy's rounds differently."""
    d = np.where(t_bound > t, 1.0, -1.0)
    k0 = np.array(fun(t, *y))
    span = np.abs(t_bound - t)
    scale = atol + np.abs(y) * rtol
    with np.errstate(all="ignore"):
        d0, d1 = _rms(*(y / scale)), _rms(*(k0 / scale))
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
        h0 = np.minimum(h0, span)
        step = h0 * d
        k1 = np.array(fun(t + step, *(y + step * k0)))
        d2 = _rms(*((k1 - k0) / scale)) / h0
        base = 0.01 / np.maximum(d1, d2)
    h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15), np.maximum(1e-6, h0 * 1e-3),
                  np.fromiter(map(pow, base.tolist(), repeat(1.0 / 8.0)),
                              float, base.size))
    return d, k0, np.minimum(np.minimum(100.0 * h0, h1),
                             np.minimum(span, max_step))


def _growth(error: float) -> float:
    """The controller's step factor before its clamps, for error > 0."""
    return SAFETY * error ** ERROR_EXPONENT


def _dense(rows, cols):
    """Sparse tableau rows as a (rows, len(cols), 1, 1) array over the
    stages cols, zero where a row has no entry (zeros add nothing to a
    sum taken in tableau order).  Its sums run along the stage axis of
    (stages, 2, n) arrays, one row after the other.  numpy would sum a
    lone 1-d axis pairwise instead; the (v, vdot) axis keeps the rows 2
    wide even for one lane or step."""
    out = np.zeros((len(rows), len(cols), 1, 1))
    for i, row in enumerate(rows):
        for j, a in row:
            out[i, cols.index(j)] = a
    return out


# the dense output's sums over the stages _D_COLS: stages 13-15 over the
# stages before each, the four D rows over all twelve
A_DENSE = [_dense([A[s]], _D_COLS[:_D_COLS.index(s)])[0]
           for s in (13, 14, 15)]
D_DENSE = _dense(D, _D_COLS)


def _dense_rows(fun, t, stages, ends) -> np.ndarray:
    """The (ROW, n) dense-output rows of n steps, one column a step.

    t holds the steps' starts, stages their Solution.stages rows as
    columns (18, n) and ends their ends (t_new, y_new, f there) as
    columns (5, n).  fun(t, v, vdot) evaluates stages 13-15 on arrays of
    steps.  The sums are taken as the lane core takes its stage sums,
    so a step's row is the same whichever run or batch it is built in.
    """
    n = t.size
    h = ends[0] - t
    y = stages[:2]
    K = np.empty((len(_D_COLS), 2, n))  # f at the stages _D_COLS
    K[:len(KEPT)] = stages[2:].reshape(len(KEPT), 2, n)
    K[len(KEPT)] = ends[3:]
    for m, (s, a) in enumerate(zip((13, 14, 15), A_DENSE), len(KEPT) + 1):
        ys = y + (a * K[:m]).sum(0) * h
        K[m, 0], K[m, 1] = fun(t + C[s] * h, ys[0], ys[1])
    dy = ends[1:3] - y
    row = np.empty((ROW, n))
    row[T_OLD], row[H] = t, h
    coef = row[V_OLD:].reshape(2, 8, n)  # v's, then vdot's
    coef[:, 0], coef[:, 1] = y, dy
    coef[:, 2] = h * K[0] - dy
    coef[:, 3] = 2.0 * dy - h * (K[len(KEPT)] + K[0])
    for i, d in enumerate(D_DENSE, 4):
        coef[:, i] = h * (d * K).sum(0)
    return row


def _located(fun, cols, dirs, cap, stepped) -> list:
    """(t_end, kind, tail, rows) of the runs that events end on m steps,
    given as (STEP + 5, m) columns (a STEP row, then its end), their
    directions dirs and whether each run stepped before: the first
    event's time and kind, root-found on the step's v interpolant (one
    _dense_rows call of fun(t, v, vdot) builds them all), the run's tail
    and its last step as a (1, STEP) row.  An event on the start of a
    run's later step sits on the previous grid point: the step is
    dropped (rows (0, STEP)) and the run ends at its start."""
    built = _dense_rows(fun, cols[0], cols[1:STEP], cols[STEP:])
    events = ((TerminationKind.POSITIVITY_LOST, lambda x: x),
              (TerminationKind.AMPLITUDE_CAP, lambda x: abs(x) - cap))
    out = []
    for k, col in enumerate(cols.T):
        t_old, v_old, t_new, v_new = col[[0, 1, STEP, STEP + 1]].tolist()
        h = t_new - t_old
        coef = built[V_OLD:V_OLD + 8, k].tolist().__getitem__
        t_end, kind = min(
            ((_brentq(lambda tau: g(_horner(coef, (tau - t_old) / h)),
                      t_old, t_new), kind)
             for (kind, g), fired in zip(events, _fired(v_old, v_new, cap))
             if fired),
            key=lambda root: dirs[k] * root[0])
        row = col[None, :STEP]
        if t_end == t_old and stepped[k]:
            out.append((t_end, kind, col[:5], row[:0]))
        else:
            out.append((t_end, kind, col[STEP:], row))
    return out


def _sum(row, y: str) -> str:
    """sum_j a_j k<j><y> over a sparse tableau row, as Python source that
    adds the products in the row's order."""
    return " + ".join(f"{a!r} * k{j}{y}" for j, a in row)


def attempt_source(a, b, e5, e3, stage) -> str:
    """Python source of the scalar core's step attempt for the tableau rows
    a (stages 1-11), b, e5 and e3, one flat expression per sum as
    Hairer's dop853.f writes them.  Each sum adds its products in its
    row's order, as the lane core does, without a leading 0.0 (which
    could change only the sign of a sum that is exactly zero).

    stage(kv, kw, t, v, w) writes the evaluation of f at each stage as
    source: f at the time t and state (v, w), each a Python expression,
    into the names kv and kw (log_frame_rhs's inlines its acceleration).
    The source defines attempt(fun, t, h, v, w, k0v, k0w), which is
    given solve_ivp's fun and evaluates stages 1-12 and
    returns (v_new, w_new, k12v, k12w, e5v, e5w, e3v, e3w, ks): the new
    state, f there, the unscaled error estimates and ks, f at stages
    5-11 as (k5v, k5w, ..., k11v, k11w).
    """
    stages = "".join(
        stage(f"k{s}v", f"k{s}w", f"t + {C[s]!r} * h",
              f"v + ({_sum(a[s], 'v')}) * h", f"w + ({_sum(a[s], 'w')}) * h")
        for s in range(1, 12))
    ks = ", ".join(f"k{s}v, k{s}w" for s in KEPT[1:])
    return f"""\
def attempt(fun, t, h, v, w, k0v, k0w):
{stages}\
    v_new = v + h * ({_sum(b, 'v')})
    w_new = w + h * ({_sum(b, 'w')})
{stage("k12v", "k12w", "t + h", "v_new", "w_new")}\
    return (v_new, w_new, k12v, k12w, {_sum(e5, 'v')}, {_sum(e5, 'w')},
            {_sum(e3, 'v')}, {_sum(e3, 'w')}, ({ks}))
"""


# the rows of the method's step attempt: stages 1-11, b, e5 and e3
TABLEAU = (A[:12], B, E5, E3)


def solve_ivp(fun, t0: float, t_bound: float, y0: tuple, rtol: float,
              atol: float, max_step: float, cap: float) -> Solution:
    """Integrate y' = fun(t, v, vdot), y = (v, vdot), from t0 towards
    t_bound.

    The run ends at t_bound, at the first time v falls through 0 or |v|
    rises through cap (whichever comes first in the direction of
    integration), or when the step size underflows 10 ulp of t.  A zero
    span (t0 == t_bound) takes no step and evaluates no fun.  fun, the
    system on arrays, starts the run as one lane of _start, as
    solve_lanes starts its batch, and builds every interpolant
    (_located, dense); the run steps with fun.attempt, attempt_source's
    attempt with fun's evaluation inlined at each stage.
    """
    if t0 == t_bound:
        return Solution((), (), t0, 0, 0, TerminationKind.REACHED_SPAN_END)
    attempt = fun.attempt
    t, (v, w) = t0, y0
    (direction,), ((k0v,), (k0w,)), (h_abs,) = (
        x.tolist() for x in _start(fun, np.array([t]), np.array([[v], [w]]),
                                   t_bound, rtol, atol, max_step))
    nfev, n_rejected = 2, 0
    steps = array("d")
    while True:
        min_step = 10.0 * abs(math.nextafter(t, direction * math.inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                return Solution(steps, (t, v, w, k0v, k0w), t, nfev,
                                n_rejected, TerminationKind.STEP_UNDERFLOW)
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0.0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            v_new, w_new, k12v, k12w, e5v, e5w, e3v, e3w, ks = attempt(
                fun, t, h, v, w, k0v, k0w)
            nfev += 12
            sv = atol + max(abs(v), abs(v_new)) * rtol
            sw = atol + max(abs(w), abs(w_new)) * rtol
            # dop853.f's blend of the 5th- and 3rd-order error estimates,
            # in scipy's RMS form
            e5v, e5w, e3v, e3w = e5v / sv, e5w / sw, e3v / sv, e3w / sw
            e5 = e5v * e5v + e5w * e5w
            e3 = e3v * e3v + e3w * e3w
            denom = (e5 + 0.01 * e3) * 2.0
            if e5 == 0.0 and e3 == 0.0:
                error = 0.0
            elif denom == 0.0:
                # e5 = 0 and 0.01 e3 underflows: scipy's 0/0 is nan,
                # which rejects the step with the smallest factor
                error = math.nan
            else:
                error = h_abs * e5 / math.sqrt(denom)
            if error < 1.0:
                factor = MAX_FACTOR if error == 0.0 else \
                    min(MAX_FACTOR, _growth(error))
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, _growth(error))  # MIN_FACTOR for nan
            rejected = True
            n_rejected += 1

        step = (t, v, w, k0v, k0w, *ks)
        end = (t_new, v_new, w_new, k12v, k12w)
        lost, capped = _fired(v, v_new, cap)
        if lost or capped:
            # an event ends the run on this step
            (t_end, kind, tail, rows), = _located(
                fun, np.array([step + end]).T, (direction,), cap,
                (bool(steps),))
            return Solution(np.append(steps, rows), tail, t_end, nfev + 3,
                            n_rejected, kind)
        steps.extend(step)
        t, v, w, k0v, k0w = end
        if direction * (t - t_bound) >= 0.0:
            return Solution(steps, end, t, nfev, n_rejected,
                            TerminationKind.REACHED_SPAN_END)


# the lane core's tableau rows: row s of A over stages 0..s-1; b, e5 and
# e3 over stages 0..11
A_LANES = [None] + [_dense([A[s]], range(s))[0] for s in range(1, 12)]
BE_LANES = _dense([B, E5, E3], range(12))
C_LANES = np.array(C[:13])[:, None]


class _Lanes:
    """The running lanes' state, the lane on the last axis of each array."""

    def __init__(self, **arrays):
        self.__dict__.update(arrays)

    def keep(self, mask) -> None:
        for name, val in vars(self).items():
            setattr(self, name, val[..., mask])


# a running lane keeps its steps in chunks of this many
STEP_CHUNK = 16


def _stage_error(fun, t_stage, y, K, h):
    """Call fun at the first stage of a lane attempt (times t_stage, start
    y, f at the stages K, steps h) whose acceleration is not finite, on
    the state the attempt computed there, so that fun raises the error
    it raises when called at each stage."""
    i = 1 + int(np.flatnonzero(~np.isfinite(K[1:, 1]).all(axis=1))[0])
    if i < 12:
        yi = y + (A_LANES[i] * K[:i]).sum(0) * h
    else:
        yi = y + h * (BE_LANES * K[:12]).sum(1)[0]
    fun(t_stage[i], yi[0], yi[1])
    raise RuntimeError(f"stage {i} of a lane attempt is not finite, but "
                       "fun raised nothing there")


def solve_lanes(fun, t0, t_bound: float, y0, rtol: float, atol: float,
                max_step: float, cap: float):
    """Integrate L starts of y' = fun(t, v, vdot) in lockstep towards
    t_bound, yielding (index, Solution) for each start.

    fun evaluates the system on arrays of lanes and carries
    fun.stages(t_stage), which takes an attempt's (13, L) stage times and
    returns f(i, v, vdot), fun at stage i without its finiteness test
    (log_frame_rhs's computes each exponential there once for all 13
    times).  The attempt evaluates its stages under np.errstate, tests
    their accelerations once, and on a non-finite one calls fun at that
    stage, which raises.  t0 holds the L start times and y0 the (2, L)
    start states.  Each lane ends as solve_ivp's run from its start
    ends, with the same Solution.

    A start at t_bound is yielded first, without steps.  A lane whose
    step size underflows, or that reaches t_bound, is yielded as it
    ends.  An event ends its lane wherever on the step its root falls,
    so a lane leaves the lockstep at the step an event fires on; when
    the loop has ended, the events of all such lanes are located by one
    _located call, as solve_ivp locates its run's, and those lanes are
    yielded last.  A lane keeps its accepted steps until it is
    yielded.  One _start call starts every lane, as it starts
    solve_ivp's one; the controller's power is taken per lane in
    floats, as solve_ivp takes it, and everything else is lane-wise
    array arithmetic.
    """
    t = np.array(t0, dtype=float)
    y = np.array(y0, dtype=float).reshape(2, t.size)
    n_lanes = t.size
    for i in np.flatnonzero(t == t_bound).tolist():
        yield i, Solution((), (), t[i], 0, 0, TerminationKind.REACHED_SPAN_END)
    lane = np.flatnonzero(t != t_bound)
    t, y = t[lane], y[:, lane]
    d, k0, h_abs = _start(fun, t, y, t_bound, rtol, atol, max_step)
    # each lane's latest steps and its full chunks
    chunk = np.empty((n_lanes, STEP_CHUNK, STEP))
    fill = np.zeros(n_lanes, dtype=int)
    parts = [[] for _ in range(n_lanes)]
    # the lanes an event ended: indices, steps and ends, directions,
    # rejected attempts and nfev, one tuple per step round
    met = []
    # every running lane attempts a step in each attempt round
    attempts = 0
    s = _Lanes(lane=lane, t=t, y=y, k0=k0, h_abs=h_abs, d=d,
               rej=np.zeros(lane.size, dtype=bool),
               rejected=np.zeros(lane.size, dtype=int))

    def finish(i, status, t_end, nfev, rejected, last, *step):
        """Lane i's Solution: its kept steps, then step when given, last
        the end of its last step (t_new, y_new, f there)."""
        rows = np.concatenate(parts[i] + [chunk[i, :fill[i]], *step])
        parts[i] = []
        return i, Solution(rows, last, t_end, nfev, rejected, status)

    while s.lane.size:
        t, d = s.t, s.d
        min_step = 10.0 * np.abs(np.nextafter(t, d * np.inf) - t)
        h_abs = np.where(s.rej, s.h_abs, np.where(
            s.h_abs > max_step, max_step,
            np.where(s.h_abs < min_step, min_step, s.h_abs)))
        under = h_abs < min_step
        if under.any():
            for j in np.flatnonzero(under).tolist():
                yield finish(int(s.lane[j]), TerminationKind.STEP_UNDERFLOW,
                             t[j], 2 + 12 * attempts, int(s.rejected[j]),
                             np.concatenate((t[j:j + 1], s.y[:, j],
                                             s.k0[:, j])))
            s.h_abs = h_abs
            s.keep(~under)
            continue

        # one step attempt on every lane
        t_new = t + h_abs * d
        t_new = np.where(d * (t_new - t_bound) > 0.0, t_bound, t_new)
        h = t_new - t
        h_abs = np.abs(h)
        t_stage = t + C_LANES * h
        y = s.y
        K = np.empty((13, 2, t.size))
        K[0] = s.k0
        with np.errstate(all="ignore"):
            f = fun.stages(t_stage)
            for i in range(1, 12):
                yi = y + (A_LANES[i] * K[:i]).sum(0) * h
                K[i, 0], K[i, 1] = f(i, yi[0], yi[1])
            b, e5, e3 = (BE_LANES * K[:12]).sum(1)
            y_new = y + h * b
            K[12, 0], K[12, 1] = f(12, y_new[0], y_new[1])
        if not np.isfinite(K[1:, 1]).all():
            _stage_error(fun, t_stage, y, K, h)
        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        e5, e3 = e5 / scale, e3 / scale
        e5 = e5[0] * e5[0] + e5[1] * e5[1]
        e3 = e3[0] * e3[0] + e3[1] * e3[1]
        with np.errstate(divide="ignore", invalid="ignore"):
            error = h_abs * e5 / np.sqrt((e5 + 0.01 * e3) * 2.0)
        error[(e5 == 0.0) & (e3 == 0.0)] = 0.0
        # the controller's power in floats, a zero error set aside (the
        # power of 0 raises): numpy's power rounds differently
        zero = error == 0.0
        growth = SAFETY * np.fromiter(
            map(pow, np.where(zero, 1.0, error).tolist(),
                repeat(ERROR_EXPONENT)), float, error.size)
        growth[zero] = MAX_FACTOR
        ok = error < 1.0
        factor = np.where(ok, np.minimum(MAX_FACTOR, growth),
                          np.fmax(MIN_FACTOR, growth))
        factor = np.where(ok & s.rej, np.minimum(1.0, factor), factor)
        s.h_abs = h_abs * factor
        attempts += 1
        s.rejected += ~ok
        s.rej = ~ok
        if not ok.any():
            continue

        # the accepted lanes: their steps, events and ends
        lost, capped = _fired(y[0], y_new[0], cap)
        hit = ok & (lost | capped)
        reached = ok & (d * (t_new - t_bound) >= 0.0)
        # each lane's step, a STEP row, then its end (t_new, y_new, f there)
        block = np.empty((STEP + 5, t.size))
        block[0], block[1:3], block[3:5] = t, y, K[0]
        block[5:STEP] = K[5:12].reshape(-1, t.size)
        block[STEP], block[STEP + 1:STEP + 3], block[STEP + 3:] = \
            t_new, y_new, K[12]
        kept = ok
        if hit.any():
            j = np.flatnonzero(hit)
            # nfev counts the 3 stages of the step the event is located on
            met.append((s.lane[j], block[:, j], d[j], s.rejected[j],
                        np.full(j.size, 2 + 12 * attempts + 3)))
            kept, reached = ok & ~hit, reached & ~hit
        if kept.all():
            new, rows = s.lane, block
        else:
            j = np.flatnonzero(kept)
            new, rows = s.lane[j], block[:, j]
        at = fill[new]
        chunk[new, at] = rows[:STEP].T
        at += 1
        fill[new] = at
        full = new[at == STEP_CHUNK]
        for i in full.tolist():
            parts[i].append(chunk[i].copy())
        fill[full] = 0
        for j in np.flatnonzero(reached).tolist():
            yield finish(int(s.lane[j]), TerminationKind.REACHED_SPAN_END,
                         t_new[j], 2 + 12 * attempts, int(s.rejected[j]),
                         block[STEP:, j])
        if ok.all():
            s.t, s.y, s.k0 = t_new, y_new, K[12]
        else:
            s.t = np.where(ok, t_new, t)
            s.y = np.where(ok, y_new, y)
            s.k0 = np.where(ok, K[12], s.k0)
        leave = hit | reached
        if leave.any():
            s.keep(~leave)

    if not met:
        return
    lanes, cols, dirs, rejected, nfev = (
        np.concatenate(x, axis=-1) for x in zip(*met))
    lanes = lanes.tolist()
    located = _located(fun, cols, dirs.tolist(), cap,
                       [bool(fill[i] or parts[i]) for i in lanes])
    for i, n, r, (t_end, kind, tail, rows) in zip(
            lanes, nfev.tolist(), rejected.tolist(), located):
        yield finish(i, kind, t_end, n, r, tail, rows)
