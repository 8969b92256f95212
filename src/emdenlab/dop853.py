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

There are two cores over one tableau, one controller and one event
locator:

- solve_ivp runs one start in plain floats and keeps every step's
  dense-output coefficients (Solution).
- solve_lanes runs L starts in lockstep on numpy arrays with the lane
  as the last axis.  Each lane keeps its own step size, error norm,
  accept/reject and events and is frozen when it ends; every accepted
  step's stride points are sampled as the step is taken.  Stage sums
  are lane-wise products summed along the stage axis in tableau order,
  never a matrix product, so a lane's numbers do not depend on the
  batch it rides in, and with the same right-hand side values a lane
  takes the scalar core's steps bit for bit.  The lockstep loop costs
  more per iteration than one scalar run; it pays from about 16 lanes.
"""

from __future__ import annotations

import math
import sys
from array import array
from enum import Enum
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

# one accepted step, a row of Solution.steps: t_old, h, then
# (y_old, F_0..F_6) for v and for vdot
T_OLD, H, V_OLD, W_OLD = 0, 1, 2, 10


class SolverStats(NamedTuple):
    """Work of one run: right-hand side evaluations, accepted steps (the
    steps of its grid) and rejected step attempts."""

    nfev: int
    steps: int
    rejected: int


def _dot(row, kv, kw):
    """(sum a_j kv_j, sum a_j kw_j) over one sparse tableau row."""
    sv = sw = 0.0
    for j, a in row:
        sv += a * kv[j]
        sw += a * kw[j]
    return sv, sw


def _rms(x, y) -> float:
    return math.sqrt(x * x + y * y) / 2.0 ** 0.5


def stride_grid(t0: float, t_last: float, stride: float) -> np.ndarray:
    """t0, t0 +- stride, ... towards t_last, ending on t_last: the last
    stride point moves onto it when within 1e-9 stride, else t_last is
    appended."""
    sgn = 1.0 if t_last > t0 else -1.0
    npts = int(math.floor(abs(t_last - t0) / stride))
    ts = t0 + sgn * stride * np.arange(npts + 1)
    if abs(ts[-1] - t_last) <= 1e-9 * stride:
        ts[-1] = t_last
    else:
        ts = np.append(ts, t_last)
    return ts


class Solution:
    """Accepted-step grid, work counts and dense output of one run.

    t holds the start and every accepted step; when an event ends the
    run its last entry is the event time.  status is how the run ended.
    """

    def __init__(self, t, nfev, rejected, status, steps: array):
        self.t = np.array(t)
        self.nfev = nfev
        self.status = status
        self.stats = SolverStats(nfev, len(t) - 1, rejected)
        self.steps = np.frombuffer(steps, dtype=float).reshape(-1, 18)

    def __call__(self, ts: np.ndarray):
        """(v, vdot) at the times ts, each from its step's interpolant
        (a time on a step boundary takes the earlier step in t)."""
        n = len(self.steps)
        if self.t[-1] >= self.t[0]:
            seg = np.searchsorted(self.t, ts, side="left") - 1
            seg = np.clip(seg, 0, n - 1)
        else:
            seg = np.searchsorted(self.t[::-1], ts, side="right") - 1
            seg = n - 1 - np.clip(seg, 0, n - 1)
        cols = self.steps.T
        x = (ts - cols[T_OLD, seg]) / cols[H, seg]
        return tuple(_horner(lambda i, b=base: cols[b + i, seg], x)
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


def _crossings(v_old: float, v_new: float, cap: float) -> list:
    """The terminal events whose functions change sign over a step from
    v_old to v_new, as solve_ivp's find_active_events: (kind, g(v))."""
    hits = []
    if v_old >= 0.0 and v_new <= 0.0:
        hits.append((TerminationKind.POSITIVITY_LOST, lambda x: x))
    if abs(v_old) - cap <= 0.0 and abs(v_new) - cap >= 0.0:
        hits.append((TerminationKind.AMPLITUDE_CAP, lambda x: abs(x) - cap))
    return hits


def _first_event(hits, t_old, t_new, h, coef, direction) -> tuple:
    """(time, kind) of the first of hits on the step from t_old to t_new,
    each root-found on the step's v interpolant coef."""
    return min(((_brentq(lambda tau: g(_horner(coef, (tau - t_old) / h)),
                         t_old, t_new), kind) for kind, g in hits),
               key=lambda root: direction * root[0])


def _initial_step(fun, t0, v, w, fv, fw, t_bound, direction, rtol, atol,
                  max_step) -> float:
    """Hairer's starting-step heuristic (HNW I, section II.4)."""
    span = abs(t_bound - t0)
    sv, sw = atol + abs(v) * rtol, atol + abs(w) * rtol
    d0 = _rms(v / sv, w / sw)
    d1 = _rms(fv / sv, fw / sw)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    fv1, fw1 = fun(t0 + h0 * direction,
                   (v + h0 * direction * fv, w + h0 * direction * fw))
    d2 = _rms((fv1 - fv) / sv, (fw1 - fw) / sw) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    return min(100.0 * h0, h1, span, max_step)


def _growth(error: float) -> float:
    """The controller's step factor before its clamps, for error > 0."""
    return SAFETY * error ** ERROR_EXPONENT


def solve_ivp(fun, t0: float, t_bound: float, y0: tuple, rtol: float,
              atol: float, max_step: float, cap: float) -> Solution:
    """Integrate y' = fun(t, y), y = (v, vdot), from t0 towards t_bound.

    The run ends at t_bound, at the first time v falls through 0 or |v|
    rises through cap (whichever comes first in the direction of
    integration), or when the step size underflows 10 ulp of t.
    """
    direction = 1.0 if t_bound > t0 else -1.0
    kv, kw = [0.0] * 16, [0.0] * 16
    t, (v, w) = t0, y0
    kv[0], kw[0] = fun(t, (v, w))
    h_abs = _initial_step(fun, t, v, w, kv[0], kw[0], t_bound, direction,
                          rtol, atol, max_step)
    nfev, n_rejected = 2, 0
    grid, steps = [t], array("d")
    status = None
    while status is None:
        min_step = 10.0 * abs(math.nextafter(t, direction * math.inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                return Solution(grid, nfev, n_rejected,
                                TerminationKind.STEP_UNDERFLOW, steps)
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0.0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            for s in range(1, 12):
                dv, dw = _dot(A[s], kv, kw)
                kv[s], kw[s] = fun(t + C[s] * h, (v + dv * h, w + dw * h))
            dv, dw = _dot(B, kv, kw)
            v_new, w_new = v + h * dv, w + h * dw
            kv[12], kw[12] = fun(t + h, (v_new, w_new))
            nfev += 12
            sv = atol + max(abs(v), abs(v_new)) * rtol
            sw = atol + max(abs(w), abs(w_new)) * rtol
            # dop853.f's blend of the 5th- and 3rd-order error estimates,
            # in scipy's RMS form
            e5v, e5w = _dot(E5, kv, kw)
            e3v, e3w = _dot(E3, kv, kw)
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

        # dense output of the accepted step
        for s in range(13, 16):
            dv, dw = _dot(A[s], kv, kw)
            kv[s], kw[s] = fun(t + C[s] * h, (v + dv * h, w + dw * h))
        nfev += 3
        fd = [_dot(row, kv, kw) for row in D]
        step = (t, h)
        for i, y_old, y_new, k in ((0, v, v_new, kv), (1, w, w_new, kw)):
            dy = y_new - y_old
            step += (y_old, dy, h * k[0] - dy, 2.0 * dy - h * (k[12] + k[0]),
                     *(h * f[i] for f in fd))
        steps.extend(step)
        hits = _crossings(v, v_new, cap)
        t, v, w = t_new, v_new, w_new
        kv[0], kw[0] = kv[12], kw[12]
        if direction * (t - t_bound) >= 0.0:
            status = TerminationKind.REACHED_SPAN_END
        if hits:
            t_old = step[T_OLD]
            t, status = _first_event(hits, t_old, t, h,
                                     step[V_OLD:V_OLD + 8].__getitem__,
                                     direction)
            if len(grid) > 1 and grid[-1] == t:
                # the event sits on the previous grid point: drop the step
                del steps[-len(step):]
                break
        grid.append(t)
    return Solution(grid, nfev, n_rejected, status, steps)


# The lane core's tableau rows, dense (zeros add nothing to a sum taken
# in tableau order): row s of A over stages 0..s-1; b, e5 and e3 over
# stages 0..11; the four dense-output rows over stages 0..15.  Its sums
# run along the stage axis of (stages, 2, L) arrays, one row after the
# other.  numpy would sum a lone 1-d axis pairwise instead; the (v, vdot)
# axis keeps the rows 2 wide even for one lane.
def _dense(rows, width):
    out = np.zeros((len(rows), width, 1, 1))
    for i, row in enumerate(rows):
        for j, a in row:
            out[i, j] = a
    return out


A_LANES = [None] + [_dense([A[s]], s)[0] for s in range(1, 16)]
BE_LANES = _dense([B, E5, E3], 12)
D_LANES = _dense(D, 16)
C_LANES = np.array(C)[:, None]


class LaneRun(NamedTuple):
    """One lane of solve_lanes: how it ended, its stride samples (t runs
    from the start to the end of the run, see stride_grid) and its work."""

    status: TerminationKind
    t: np.ndarray
    v: np.ndarray
    vdot: np.ndarray
    stats: SolverStats


class _Lanes:
    """The running lanes' state, the lane on the last axis of each array."""

    def __init__(self, **arrays):
        self.__dict__.update(arrays)

    def keep(self, mask) -> None:
        for name, val in vars(self).items():
            setattr(self, name, val[..., mask])


class _Samples:
    """The stride samples of L lanes, in order of their index.

    A lane's i-th sample is its step interpolant at t0 + i (d stride).
    New samples go to a window of `width` columns per lane, moved into
    the lane's list of parts when full, so that memory follows the
    samples taken rather than the longest run the span allows.
    """

    def __init__(self, n_lanes: int, stride: float, width: int):
        self.stride = stride
        self.window = np.empty((2, n_lanes, width))
        self.fill = np.zeros(n_lanes, dtype=int)
        self.taken = np.zeros(n_lanes, dtype=int)
        self.parts = [[] for _ in range(n_lanes)]

    def step(self, lane, t0, d, t_old, t_end, h, coef) -> None:
        """Sample one accepted step of each of `lane` at the stride
        points it has not taken up to t_end, on the step's interpolant
        coef (8, 2, len(lane)) from t_old with size h."""
        ds, nxt = d * self.stride, self.taken[lane]
        top = np.floor((t_end - t0) / ds)
        top = np.where(d * (t0 + ds * (top + 1.0) - t_end) <= 0.0,
                       top + 1.0, top)
        top = np.where(d * (t0 + ds * top - t_end) > 0.0, top - 1.0, top)
        count = np.maximum(top.astype(int) - nxt + 1, 0)
        if not count.any():
            return
        rows = np.repeat(np.arange(lane.size), count)
        offset = np.arange(rows.size) - np.repeat(np.cumsum(count) - count,
                                                  count)
        x = (t0[rows] + ds[rows] * (nxt[rows] + offset) - t_old[rows]) \
            / h[rows]
        for i in lane[self.fill[lane] + count > self.window.shape[2]]:
            self.parts[i].append(self.window[:, i, :self.fill[i]].copy())
            self.fill[i] = 0
        at = lane[rows]
        self.window[:, at, self.fill[at] + offset] = _horner(
            coef[:, :, rows].__getitem__, x)
        self.fill[lane] += count
        self.taken[lane] += count

    def pop(self, i: int, out: np.ndarray) -> None:
        """Copy lane i's first samples into out, (2, n), and release the
        lane's parts."""
        parts, self.parts[i] = self.parts[i], []
        k = 0
        for part in parts + [self.window[:, i, :self.fill[i]]]:
            m = min(part.shape[1], out.shape[1] - k)
            out[:, k:k + m] = part[:, :m]
            k += m


def _one_lane(fun):
    """A lane evaluator fun(t, v, vdot) as solve_ivp's fun(t, y) on one
    lane of floats."""
    def one(t, y):
        dv, dw = fun(np.array([t]), np.array([y[0]]), np.array([y[1]]))
        return float(dv[0]), float(dw[0])
    return one


def solve_lanes(fun, t0, t_bound: float, y0, rtol: float, atol: float,
                max_step: float, cap: float, stride: float) -> list:
    """Integrate L starts of y' = fun(t, v, vdot) in lockstep towards
    t_bound; one LaneRun per start, in order.

    fun evaluates the system on arrays of lanes.  t0 holds the L start
    times, none of them t_bound, and y0 the (2, L) start states.  Each
    lane ends as solve_ivp's run from its start ends, and its samples are
    those integrate takes from that run: the points of stride_grid from
    its start to its end, each on the step that holds it (a point on a
    step boundary takes the earlier step).  The controller's power and
    the initial step are taken per lane in floats, as solve_ivp takes
    them; everything else is lane-wise array arithmetic.
    """
    t = np.array(t0, dtype=float)
    y = np.array(y0, dtype=float).reshape(2, t.size)
    n_lanes = t.size
    d = np.where(t_bound > t, 1.0, -1.0)
    K = np.empty((16, 2, n_lanes))
    K[0, 0], K[0, 1] = fun(t, y[0], y[1])
    one = _one_lane(fun)
    h_abs = np.array([
        _initial_step(one, *lane, t_bound, dl, rtol, atol, max_step)
        for *lane, dl in zip(t.tolist(), *y.tolist(), *K[0].tolist(),
                             d.tolist())])
    nfev = np.full(n_lanes, 2)
    steps = np.zeros(n_lanes, dtype=int)
    rejected = np.zeros(n_lanes, dtype=int)
    # one step holds at most max_step / stride + 1 stride points
    samples = _Samples(n_lanes, stride,
                       max(256, int(max_step / stride) + 3))
    runs = [None] * n_lanes
    t0_all, y0_all = t.copy(), y.copy()
    s = _Lanes(lane=np.arange(n_lanes), t0=t0_all, t=t, y=y, K=K,
               h_abs=h_abs, d=d, rej=np.zeros(n_lanes, dtype=bool),
               coef=np.empty((8, 2, n_lanes)), t_old=np.empty(n_lanes),
               h=np.empty(n_lanes))

    def finish(i, status, t_last, coef, t_old, h):
        ts = stride_grid(t0_all[i], t_last, stride)
        vw = np.empty((2, ts.size))
        if t_last == t0_all[i]:
            vw[:, -1] = y0_all[:, i]
        else:
            samples.pop(i, vw[:, :-1])
            vw[:, -1] = _horner(coef.__getitem__, (t_last - t_old) / h)
        runs[i] = LaneRun(status, ts, vw[0], vw[1], SolverStats(
            int(nfev[i]), int(steps[i]), int(rejected[i])))

    while s.lane.size:
        t, d = s.t, s.d
        min_step = 10.0 * np.abs(np.nextafter(t, d * np.inf) - t)
        h_abs = np.where(s.rej, s.h_abs, np.where(
            s.h_abs > max_step, max_step,
            np.where(s.h_abs < min_step, min_step, s.h_abs)))
        under = h_abs < min_step
        if under.any():
            for j in np.flatnonzero(under):
                finish(s.lane[j], TerminationKind.STEP_UNDERFLOW, t[j],
                       s.coef[:, :, j], s.t_old[j], s.h[j])
            s.h_abs = h_abs
            s.keep(~under)
            continue

        # one step attempt on every lane
        t_new = t + h_abs * d
        t_new = np.where(d * (t_new - t_bound) > 0.0, t_bound, t_new)
        h = t_new - t
        h_abs = np.abs(h)
        t_stage = t + C_LANES * h
        y, K = s.y, s.K
        for i in range(1, 12):
            yi = y + (A_LANES[i] * K[:i]).sum(0) * h
            K[i, 0], K[i, 1] = fun(t_stage[i], yi[0], yi[1])
        b, e5, e3 = (BE_LANES * K[:12]).sum(1)
        y_new = y + h * b
        K[12, 0], K[12, 1] = fun(t_stage[12], y_new[0], y_new[1])
        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        e5, e3 = e5 / scale, e3 / scale
        e5 = e5[0] * e5[0] + e5[1] * e5[1]
        e3 = e3[0] * e3[0] + e3[1] * e3[1]
        with np.errstate(divide="ignore", invalid="ignore"):
            error = h_abs * e5 / np.sqrt((e5 + 0.01 * e3) * 2.0)
        error[(e5 == 0.0) & (e3 == 0.0)] = 0.0
        growth = np.array([_growth(e) if e else MAX_FACTOR
                           for e in error.tolist()])
        ok = error < 1.0
        factor = np.where(ok, np.minimum(MAX_FACTOR, growth),
                          np.fmax(MIN_FACTOR, growth))
        factor = np.where(ok & s.rej, np.minimum(1.0, factor), factor)
        s.h_abs = h_abs * factor
        nfev[s.lane] += 12
        rejected[s.lane[~ok]] += 1
        s.rej = ~ok
        if not ok.any():
            continue

        # the accepted lanes: dense output, events, samples
        pos = np.flatnonzero(ok)
        a = slice(None) if pos.size == ok.size else pos
        lane, Ka, ha, ta = s.lane[a], K[:, :, a], h[a], t[a]
        ya, yn, t_stage, da = y[:, a], y_new[:, a], t_stage[:, a], d[a]
        for i in range(13, 16):
            yi = ya + (A_LANES[i] * Ka[:i]).sum(0) * ha
            Ka[i, 0], Ka[i, 1] = fun(t_stage[i], yi[0], yi[1])
        nfev[lane] += 3
        dy = yn - ya
        coef = np.empty((8, 2, lane.size))
        coef[0], coef[1] = ya, dy
        coef[2] = ha * Ka[0] - dy
        coef[3] = 2.0 * dy - ha * (Ka[12] + Ka[0])
        coef[4:] = ha * (D_LANES * Ka).sum(1)

        t_end = t_new[a].copy()
        ended = {j: (TerminationKind.REACHED_SPAN_END, coef[:, :, j],
                     ta[j], ha[j])
                 for j in np.flatnonzero(da * (t_end - t_bound) >= 0.0)}
        grew = np.ones(lane.size, dtype=int)
        v0, v1 = ya[0], yn[0]
        maybe = ((v0 >= 0.0) & (v1 <= 0.0)) \
            | ((np.abs(v0) - cap <= 0.0) & (np.abs(v1) - cap >= 0.0))
        for j in np.flatnonzero(maybe):
            hits = _crossings(float(v0[j]), float(v1[j]), cap)
            if not hits:
                continue
            t_old = float(ta[j])
            t_ev, kind = _first_event(hits, t_old, float(t_end[j]),
                                      float(ha[j]),
                                      coef[:, 0, j].tolist().__getitem__,
                                      float(da[j]))
            t_end[j] = t_ev
            prev = pos[j]
            if steps[lane[j]] > 0 and t_ev == t_old:
                # the event sits on the previous grid point: drop the step
                grew[j] = 0
                ended[j] = (kind, s.coef[:, :, prev], s.t_old[prev],
                            s.h[prev])
            else:
                ended[j] = (kind, coef[:, :, j], ta[j], ha[j])
        steps[lane] += grew

        samples.step(lane, s.t0[a], da, ta, t_end, ha, coef)
        for j, (kind, c, t_old, h_j) in ended.items():
            finish(lane[j], kind, t_end[j], c, t_old, h_j)
        s.t[a], s.y[:, a], s.K[0][:, a] = t_new[a], yn, Ka[12]
        s.coef[:, :, a], s.t_old[a], s.h[a] = coef, ta, ha
        if ended:
            done = np.zeros(s.lane.size, dtype=bool)
            done[pos[list(ended)]] = True
            s.keep(~done)
    return runs
