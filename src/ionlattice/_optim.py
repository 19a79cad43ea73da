"""The four numerical routines the library would otherwise import scipy for.

Every CLI verb is its own process, and importing scipy costs more start-up
than any single call to it saves, so these are written on numpy alone:

- ``minimize``: BFGS with the Moré–Thuente line search (MINPACK-2
  ``dcsrch``/``dcstep``, as in scipy's ``line_search_wolfe1``), for the
  cold crystal solve;
- ``assignment``: minimum-cost perfect matching of a square matrix by
  Jonker–Volgenant shortest augmenting paths, for mode-branch tracking;
- ``least_squares_batch``: Levenberg–Marquardt with Marquardt's diagonal
  scaling over a stack of problems, for the Gaussian spot fits
  (``least_squares`` is its one-problem case);
- ``student_t_975``: the 0.975 quantile of Student's t, for the
  temperature interval.

tests/test_optim.py checks each against its scipy counterpart.
"""

import math
from typing import NamedTuple

import numpy as np

# the line search's constants: sufficient decrease, curvature, relative
# bracket width, step bounds and trial steps (scipy's BFGS settings)
_C1 = 1e-4
_C2 = 0.9
_XTOL = 1e-14
_STPMIN = 1e-100
_STPMAX = 1e100
_LS_MAXITER = 100


def _dcstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax):
    """MINPACK-2 dcstep: safeguarded cubic/quadratic step of the search.

    (stx, fx, dx) is the best step so far, (sty, fy, dy) the other end of
    the interval, (stp, fp, dp) the trial step; returns the updated
    interval, the next trial step and whether a minimizer is bracketed.
    """
    sgnd = np.sign(dp) * np.sign(dx)
    if fp > fx:  # higher value: the minimum is bracketed
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * np.sqrt((theta / s) ** 2 - (dx / s) * (dp / s))
        if stp < stx:
            gamma *= -1
        p = (gamma - dx) + theta
        q = ((gamma - dx) + gamma) + dp
        r = p / q
        stpc = stx + r * (stp - stx)
        stpq = stx + ((dx / ((fx - fp) / (stp - stx) + dx)) / 2.0) \
            * (stp - stx)
        if abs(stpc - stx) <= abs(stpq - stx):
            stpf = stpc
        else:
            stpf = stpc + (stpq - stpc) / 2.0
        brackt = True
    elif sgnd < 0.0:  # derivatives of opposite sign: bracketed
        theta = 3 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * np.sqrt((theta / s) ** 2 - (dx / s) * (dp / s))
        if stp > stx:
            gamma *= -1
        p = (gamma - dp) + theta
        q = ((gamma - dp) + gamma) + dx
        r = p / q
        stpc = stp + r * (stx - stp)
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        if abs(stpc - stp) > abs(stpq - stp):
            stpf = stpc
        else:
            stpf = stpq
        brackt = True
    elif abs(dp) < abs(dx):  # same sign, derivative decreasing in size
        theta = 3 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * np.sqrt(max(0, (theta / s) ** 2 - (dx / s) * (dp / s)))
        if stp > stx:
            gamma = -gamma
        p = (gamma - dp) + theta
        q = (gamma + (dx - dp)) + gamma
        r = p / q
        if r < 0 and gamma != 0:
            stpc = stp + r * (stx - stp)
        elif stp > stx:
            stpc = stpmax
        else:
            stpc = stpmin
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        if brackt:
            if abs(stpc - stp) < abs(stpq - stp):
                stpf = stpc
            else:
                stpf = stpq
            if stp > stx:
                stpf = min(stp + 0.66 * (sty - stp), stpf)
            else:
                stpf = max(stp + 0.66 * (sty - stp), stpf)
        else:
            if abs(stpc - stp) > abs(stpq - stp):
                stpf = stpc
            else:
                stpf = stpq
            stpf = np.clip(stpf, stpmin, stpmax)
    else:  # same sign, derivative not decreasing
        if brackt:
            theta = 3.0 * (fp - fy) / (sty - stp) + dy + dp
            s = max(abs(theta), abs(dy), abs(dp))
            gamma = s * np.sqrt((theta / s) ** 2 - (dy / s) * (dp / s))
            if stp > sty:
                gamma = -gamma
            p = (gamma - dp) + theta
            q = ((gamma - dp) + gamma) + dy
            r = p / q
            stpf = stp + r * (sty - stp)
        elif stp > stx:
            stpf = stpmax
        else:
            stpf = stpmin
    if fp > fx:
        sty, fy, dy = stp, fp, dp
    else:
        if sgnd < 0:
            sty, fy, dy = stx, fx, dx
        stx, fx, dx = stp, fp, dp
    return stx, fx, dx, sty, fy, dy, stpf, brackt


def line_search(fun, xk, pk, f0, g0, old_f0):
    """Strong-Wolfe step along pk from xk: (alpha, f, g) or None.

    A port of scipy's ``line_search_wolfe1`` with c1 1e-4, c2 0.9, xtol
    1e-14 and steps in [1e-100, 1e100]: the first trial step is
    min(1, 2.02 (f0 - old_f0) / phi'(0)), then MINPACK-2 ``dcsrch`` (Moré
    and Thuente, ACM TOMS 20, 1994) for at most 100 trial steps, with the
    same arithmetic in the same order. ``fun(x)`` returns (f, gradient),
    called once per trial step. None when the search ends without a step
    that satisfies both conditions.
    """
    ginit = np.dot(g0, pk)
    if ginit != 0:
        stp = min(1.0, 1.01 * 2 * (f0 - old_f0) / ginit)
        if stp < 0:
            stp = 1.0
    else:
        stp = 1.0
    if stp < _STPMIN or stp > _STPMAX or ginit >= 0:
        return None
    finit = f0
    gtest = _C1 * ginit
    brackt = False
    stage = 1
    width = _STPMAX - _STPMIN
    width1 = width / 0.5
    stx, fx, gx = 0.0, finit, ginit
    sty, fy, gy = 0.0, finit, ginit
    stmin, stmax = 0, stp + 4.0 * stp
    # dcsrch's first call (task START) takes one of its 100 iterations
    for _ in range(_LS_MAXITER - 1):
        if not np.isfinite(stp):
            return None
        f, g = fun(xk + stp * pk)
        dg = np.dot(g, pk)
        ftest = finit + stp * gtest
        if stage == 1 and f <= ftest and dg >= 0:
            stage = 2
        if f <= ftest and abs(dg) <= _C2 * -ginit:
            return stp, f, g
        if (brackt and (stp <= stmin or stp >= stmax
                        or stmax - stmin <= _XTOL * stmax)
                or stp == _STPMAX and f <= ftest and dg <= gtest
                or stp == _STPMIN and (f > ftest or dg >= gtest)):
            return None  # rounding, bracket width or a step bound
        with np.errstate(invalid="ignore", over="ignore"):
            if stage == 1 and f <= fx and f > ftest:
                # modified function psi = f - stp*gtest until the step
                # has sufficient decrease and a non-negative derivative
                stx, fxm, gxm, sty, fym, gym, stp, brackt = _dcstep(
                    stx, fx - stx * gtest, gx - gtest,
                    sty, fy - sty * gtest, gy - gtest,
                    stp, f - stp * gtest, dg - gtest, brackt, stmin, stmax)
                fx = fxm + stx * gtest
                fy = fym + sty * gtest
                gx = gxm + gtest
                gy = gym + gtest
            else:
                stx, fx, gx, sty, fy, gy, stp, brackt = _dcstep(
                    stx, fx, gx, sty, fy, gy, stp, f, dg, brackt,
                    stmin, stmax)
        if brackt:  # bisect when the interval does not shrink enough
            if abs(sty - stx) >= 0.66 * width1:
                stp = stx + 0.5 * (sty - stx)
            width1 = width
            width = abs(sty - stx)
            stmin = min(stx, sty)
            stmax = max(stx, sty)
        else:
            stmin = stp + 1.1 * (stp - stx)
            stmax = stp + 4.0 * (stp - stx)
        stp = np.clip(stp, _STPMIN, _STPMAX)
        if brackt and (stp <= stmin or stp >= stmax
                       or stmax - stmin <= _XTOL * stmax):
            stp = stx
    return None


class BFGSResult(NamedTuple):
    x: np.ndarray
    nit: int


def minimize(fun, x0, gtol, maxiter):
    """BFGS descent from x0 to gradient max-norm gtol; ``fun(x)`` -> (f, g).

    scipy's BFGS loop (first step of about unit length, rho = 1000 when
    y^T s = 0, stop on a non-finite value) with ``line_search`` and the
    inverse-Hessian update (I - rho s y^T) H (I - rho y s^T) + rho s s^T
    in its rank-two form H + s a^T + a s^T, a = (rho^2 y^T H y + rho) s/2
    - rho H y: O(n^2) per iteration instead of two dense O(n^3) products,
    with its (n, n) arrays allocated once per descent. Stops where the
    line search fails. Returns x and the iteration count.
    """
    x = x0
    f, g = fun(x)
    h = np.eye(len(x))
    sa, as_ = np.empty_like(h), np.empty_like(h)  # s a^T and a s^T
    old_f = f + np.linalg.norm(g) / 2
    k = 0
    while np.max(np.abs(g)) > gtol and k < maxiter:
        p = -(h @ g)
        step = line_search(fun, x, p, f, g, old_f)
        if step is None:
            break
        alpha, f_new, g_new = step
        old_f, f = f, f_new
        s = alpha * p
        x = x + s
        y = g_new - g
        g = g_new
        k += 1
        if np.max(np.abs(g)) <= gtol or not np.isfinite(f):
            break
        ys = np.dot(y, s)
        rho = 1000.0 if ys == 0.0 else 1.0 / ys
        hy = h @ y
        a = 0.5 * (rho * rho * np.dot(y, hy) + rho) * s - rho * hy
        _rank_two_update(h, s, a, sa, as_)
    return BFGSResult(x=x, nit=k)


def _rank_two_update(h, s, a, sa, as_):
    """h += s a^T + a s^T in place, through the (n, n) buffers sa and as_.

    Entry [i, j] adds s_i a_j + a_i s_j, which equals entry [j, i]'s
    s_j a_i + a_j s_i exactly, so a symmetric h stays exactly symmetric.
    """
    np.einsum("i,j->ij", s, a, out=sa)
    np.einsum("i,j->ij", a, s, out=as_)
    sa += as_
    h += sa


def assignment(cost):
    """Column of each row in a minimum-cost perfect matching, square cost.

    Jonker–Volgenant: duals start at the row minima, each row keeps its
    cheapest column if no earlier row took it, and every row left over is
    matched by a shortest augmenting path (Dijkstra over the reduced costs
    cost - u - v >= 0), after which the duals are updated so that the
    path's edges stay tight.
    """
    cost = np.asarray(cost, dtype=float)
    n = len(cost)
    u = cost.min(axis=1)
    v = np.zeros(n)
    col = np.full(n, -1)
    row = np.full(n, -1)
    for i, j in enumerate(cost.argmin(axis=1)):
        if row[j] < 0:
            row[j], col[i] = i, j
    for free in np.flatnonzero(col < 0):
        dist = np.full(n, np.inf)  # shortest reduced path to each column
        pred = np.zeros(n, dtype=int)
        done = np.zeros(n, dtype=bool)
        i, d = free, 0.0
        while True:
            reduced = d + cost[i] - u[i] - v
            closer = ~done & (reduced < dist)
            dist[closer] = reduced[closer]
            pred[closer] = i
            j = int(np.argmin(np.where(done, np.inf, dist)))
            d = dist[j]
            done[j] = True
            if row[j] < 0:
                break
            i = row[j]
        scanned = np.flatnonzero(done)
        inner = scanned[scanned != j]
        u[free] += d
        u[row[inner]] += d - dist[inner]
        v[scanned] -= d - dist[scanned]
        while True:  # flip the path's edges
            i = pred[j]
            row[j] = i
            col[i], j = j, col[i]
            if i == free:
                break
    return col


class LeastSquaresResult(NamedTuple):
    # one problem; least_squares_batch stacks each field along a first axis
    x: np.ndarray
    cost: float  # half the sum of squared residuals at x
    jac: np.ndarray  # the Jacobian at x
    nfev: int
    success: bool
    message: str


# The Levenberg-Marquardt fit below is MINPACK's lmder with its
# arithmetic: sums run in index order (np.add.accumulate over the m rows,
# a loop over the n parameters), squares are products, and a norm is the
# root of such a sum, as ``enorm`` computes it for components in
# (3.8e-20, 1.3e19/n). Problems are lanes along the first axis of every
# array, and each lane sees the same operations in the same order as the
# others; where MINPACK branches, both sides are computed and np.where
# keeps the lane's own, so a lane's result does not depend on the rest of
# the batch.
_EPSMCH = float(np.finfo(float).eps)
_DWARF = float(np.finfo(float).tiny)
_STOPS = ("gtol termination condition is satisfied",
          "ftol or xtol termination condition is satisfied",
          "the maximum number of function evaluations is exceeded",
          "a tolerance is below machine precision")  # the last two fail


def _pmax(a, b):
    # Python's max(a, b) per lane: b only where b > a
    return np.where(b > a, b, a)


def _pmin(a, b):
    # Python's min(a, b) per lane: b only where b < a
    return np.where(b < a, b, a)


def _sums(v, end):
    """Sums along v's last axis, in index order up to index end of each lane.

    v is (L, W) or (L, k, W); entries past a lane's end are never read.
    """
    acc = np.add.accumulate(v, axis=-1)
    lane = np.arange(len(v))
    return acc[lane, end] if v.ndim == 2 else acc[lane, :, end]


def _norms(w):
    """Norms of the rows of w (L, n), summed in index order."""
    s = 0.0
    for j in range(w.shape[1]):
        s = s + w[:, j] * w[:, j]
    return np.sqrt(s)


def _rt_dot(r, v):
    """R^T v per lane, each entry summed over R's column in index order."""
    t = np.zeros_like(v)
    for i in range(v.shape[1]):
        t[:, i:] = t[:, i:] + r[:, i, i:] * v[:, i:i + 1]
    return t


def _qrfac(a, end):
    """MINPACK qrfac of each lane of a (L, M, n): Householder QR, pivoted.

    Lane l has end[l] + 1 >= n rows. Returns the transposed factors, (L, n,
    M): row j holds R's row j right of the diagonal and the Householder
    vector from the diagonal on; then R's diagonal, the column norms of a
    and the column order, each (L, n).
    """
    at = a.transpose(0, 2, 1).copy()
    lanes, n, _ = at.shape
    acnorm = np.sqrt(_sums(at * at, end))
    rdiag = acnorm.copy()
    wa = acnorm.copy()
    ipvt = np.arange(n)[None].repeat(lanes, axis=0)
    for j in range(n):
        kmax = j + np.argmax(rdiag[:, j:], axis=1)  # the first largest
        sw = (kmax != j).nonzero()[0]
        if sw.size:
            k = kmax[sw]
            at[sw, j], at[sw, k] = at[sw, k], at[sw, j]
            rdiag[sw, k], wa[sw, k] = rdiag[sw, j], wa[sw, j]
            ipvt[sw, j], ipvt[sw, k] = ipvt[sw, k], ipvt[sw, j]
        v = at[:, j, j:]
        ajnorm = np.sqrt(_sums(v * v, end - j))
        nz = ajnorm != 0.0  # a zero column is left as it is
        ajnorm = np.where(nz & (v[:, 0] < 0.0), -ajnorm, ajnorm)
        h = v / ajnorm[:, None]
        h[:, 0] += 1.0
        rest = at[:, j + 1:, j:]
        new = rest - (_sums(rest * h[:, None], end - j)
                      / h[:, :1])[:, :, None] * h[:, None]
        at[:, j, j:] = np.where(nz[:, None], h, v)
        at[:, j + 1:, j:] = np.where(nz[:, None, None], new, rest)
        if j + 1 < n:  # downdate the remaining column norms
            rk, wk = rdiag[:, j + 1:], wa[:, j + 1:]
            go = nz[:, None] & (rk != 0.0)
            temp = at[:, j + 1:, j] / rk
            shrink = 1.0 - temp * temp
            down = rk * np.sqrt(np.where(shrink > 0.0, shrink, 0.0))
            q = down / wk
            redo = go & (0.05 * (q * q) <= _EPSMCH)
            if redo.any():  # too much cancellation: recompute the norm
                tail = at[:, j + 1:, j + 1:]
                exact = np.sqrt(_sums(tail * tail, end - j - 1))
                down = np.where(redo, exact, down)
                wa[:, j + 1:] = np.where(redo, exact, wk)
            rdiag[:, j + 1:] = np.where(go, down, rk)
        rdiag[:, j] = -ajnorm
    return at, rdiag, acnorm, ipvt


def _qtf(at, f, end):
    """The first n entries of Q^T f, from _qrfac's Householder vectors."""
    wa4 = f.copy()
    n = at.shape[1]
    for j in range(n):
        v = at[:, j, j:]
        step = v * ((-_sums(v * wa4[:, j:], end - j)) / v[:, 0])[:, None]
        wa4[:, j:] = np.where((v[:, 0] != 0.0)[:, None], wa4[:, j:] + step,
                              wa4[:, j:])
    return wa4[:, :n].copy()


def _qrsolv(r, ipvt, diag, qtb):
    """MINPACK qrsolv: least-squares x of [J; D] x = [f; 0], J P = Q R.

    r (L, n, n) holds R in its upper triangle. Returns x, the diagonal of
    the triangle S of [R; P^T D P] = Q' S, and S^T in the strict lower
    triangle of an (L, n, n) array, which ``_lmpar``'s Newton correction
    reads.
    """
    lanes, n = qtb.shape
    lane = np.arange(lanes)
    s = r.transpose(0, 2, 1).copy()  # R's upper triangle, transposed
    wa = qtb.copy()
    sdiag = np.zeros((lanes, n))
    for j in range(n):
        dj = diag[lane, ipvt[:, j]]
        on = dj != 0.0  # Givens rotations eliminate row j of D
        sdiag[:, j:] = np.where(on[:, None], 0.0, sdiag[:, j:])
        sdiag[:, j] = np.where(on, dj, sdiag[:, j])
        qtbpj = np.zeros(lanes)
        for k in range(j, n):
            rkk, sk, wak = s[:, k, k], sdiag[:, k], wa[:, k]
            go = on & (sk != 0.0)
            cotan = rkk / sk
            sin_c = 0.5 / np.sqrt(0.25 + 0.25 * (cotan * cotan))
            tan = sk / rkk
            cos_t = 0.5 / np.sqrt(0.25 + 0.25 * (tan * tan))
            small = np.abs(rkk) < np.abs(sk)
            cs = np.where(small, sin_c * cotan, cos_t)
            sn = np.where(small, sin_c, cos_t * tan)
            s[:, k, k] = np.where(go, cs * rkk + sn * sk, rkk)
            temp = cs * wak + sn * qtbpj
            qtbpj = np.where(go, -sn * wak + cs * qtbpj, qtbpj)
            wa[:, k] = np.where(go, temp, wak)
            if k + 1 < n:
                rik, si = s[:, k + 1:, k], sdiag[:, k + 1:]
                cs, sn, go = cs[:, None], sn[:, None], go[:, None]
                temp = cs * rik + sn * si
                sdiag[:, k + 1:] = np.where(go, -sn * rik + cs * si, si)
                s[:, k + 1:, k] = np.where(go, temp, rik)
        sdiag[:, j] = s[:, j, j]
    zero = sdiag == 0.0
    nsing = np.where(zero.any(axis=1), zero.argmax(axis=1), n)
    wa[np.arange(n) >= nsing[:, None]] = 0.0
    for j in range(n - 1, -1, -1):
        t = 0.0  # the terms past nsing add wa's zeros
        for i in range(j + 1, n):
            t = t + s[:, i, j] * wa[:, i]
        wa[:, j] = np.where(j < nsing, (wa[:, j] - t) / sdiag[:, j],
                            wa[:, j])
    x = np.empty_like(wa)
    x[lane[:, None], ipvt] = wa
    return x, sdiag, s


def _lmpar(r, ipvt, diag, qtb, delta, par):
    """MINPACK lmpar: damping par and step x with |D x| within 10% of delta.

    x minimizes |J x + f|^2 + par |D x|^2, given J P = Q R (R in r) and
    qtb = Q^T f; par is 0 where the Gauss-Newton step is short enough.
    """
    lanes, n = qtb.shape
    lane = np.arange(lanes)[:, None]
    col = np.arange(n)
    zero = r[:, col, col] == 0.0
    nsing = np.where(zero.any(axis=1), zero.argmax(axis=1), n)
    wa1 = np.where(col < nsing[:, None], qtb, 0.0)
    for j in range(n - 1, -1, -1):  # Gauss-Newton step
        act = j < nsing
        wj = np.where(act, wa1[:, j] / r[:, j, j], wa1[:, j])
        wa1[:, j] = wj
        wa1[:, :j] = np.where(act[:, None],
                              wa1[:, :j] - r[:, :j, j] * wj[:, None],
                              wa1[:, :j])
    x = np.empty_like(wa1)
    x[lane, ipvt] = wa1
    wa2 = diag * x
    dxnorm = _norms(wa2)
    fp = dxnorm - delta
    live = ~(fp <= 0.1 * delta)  # lanes that need a damped step
    if not live.any():
        return np.zeros(lanes), x
    dpiv = diag[lane, ipvt]
    wa1 = dpiv * (wa2[lane, ipvt] / dxnorm[:, None])
    t = np.zeros((lanes, n))  # t[:, j] sums r[i, j] wa1[i] over i < j
    for j in range(n):  # lower bound from the Newton step, if R has full rank
        wa1[:, j] = (wa1[:, j] - t[:, j]) / r[:, j, j]
        t[:, j + 1:] = t[:, j + 1:] + r[:, j, j + 1:] * wa1[:, j:j + 1]
    temp = _norms(wa1)
    parl = np.where(nsing == n, ((fp / delta) / temp) / temp, 0.0)
    gnorm = _norms(_rt_dot(r, qtb) / dpiv)
    paru = gnorm / delta
    paru = np.where(paru == 0.0, _DWARF / _pmin(delta, 0.1), paru)
    damped = live.copy()
    par = _pmin(_pmax(par, parl), paru)
    par = np.where(par == 0.0, gnorm / dxnorm, par)
    for it in range(1, 11):
        par = np.where(live & (par == 0.0), _pmax(_DWARF, 0.001 * paru), par)
        xs, sdiag, s = _qrsolv(r, ipvt, np.sqrt(par)[:, None] * diag, qtb)
        x = np.where(live[:, None], xs, x)
        wa2 = diag * xs
        dxnorm = _norms(wa2)
        prev = fp
        fp = np.where(live, dxnorm - delta, fp)
        live &= ~((np.abs(fp) <= 0.1 * delta)
                  | (parl == 0.0) & (fp <= prev) & (prev < 0.0) | (it == 10))
        if not live.any():
            break
        wa1 = dpiv * (wa2[lane, ipvt] / dxnorm[:, None])
        for j in range(n):  # Newton correction
            wj = wa1[:, j] / sdiag[:, j]
            wa1[:, j] = wj
            wa1[:, j + 1:] = wa1[:, j + 1:] - s[:, j + 1:, j] * wj[:, None]
        temp = _norms(wa1)
        parc = ((fp / delta) / temp) / temp
        parl = np.where(live & (fp > 0.0), _pmax(parl, par), parl)
        paru = np.where(live & (fp < 0.0), _pmin(paru, par), paru)
        par = np.where(live, _pmax(parl, par + parc), par)
    return np.where(damped, par, 0.0), x


# lanes that a branch does not take, and the padding, compute values that
# np.where discards or nothing reads: floating-point warnings are off
@np.errstate(all="ignore")
def least_squares_batch(fun, x0, jac, lengths, tol, max_nfev):
    """Levenberg-Marquardt minima of many |fun(x)|^2 at once: MINPACK lmder.

    The trust-region LM of Moré (Lecture Notes in Mathematics 630, 1978)
    with Marquardt's scaling D, the largest column norms of the Jacobian
    seen so far, so that the iterates do not depend on the units of the
    parameters; the first trust radius is 100 |D x0|. As scipy's
    ``least_squares(method="lm")`` with ftol = xtol = gtol = tol, it
    stops when the actual and predicted relative reductions of the sum of
    squares are both below tol, when the trust radius is below tol |D x|,
    or when every column of J is orthogonal to the residuals to tol.
    success is False after max_nfev evaluations of fun, or when a
    tolerance is below machine precision.

    x0 is (P, n), one row per problem. ``fun(x, rows)`` returns the (L, M)
    residuals of problems ``rows`` at their parameters x (L, n), and
    ``jac(x, rows)`` their (L, M, n) Jacobians; problem p has lengths[p]
    residuals (all M when lengths is None), and the padding past them is
    never read. Each problem keeps its own scaling, trust radius, damping,
    pivot order, evaluation count and stop, and is evaluated only until it
    stops, so its result is the one it gets alone. fun and jac run with
    numpy's floating-point warnings off. Returns a LeastSquaresResult of
    (P, ...) stacks; jac keeps the padding.
    """
    x = np.array(x0, dtype=float)
    count, n = x.shape
    f = fun(x, np.arange(count))
    end = (np.full(count, f.shape[1]) if lengths is None
           else np.asarray(lengths)) - 1
    nfev = np.ones(count, dtype=int)
    fnorm = np.sqrt(_sums(f * f, end))
    stop = np.full(count, -1)  # index into _STOPS once a problem stops
    par, gnorm = np.zeros(count), np.zeros(count)
    acnorm, qtf = np.zeros((count, n)), np.zeros((count, n))
    ipvt = np.zeros((count, n), dtype=int)
    r = np.zeros((count, n, n))  # R above the diagonal
    first = np.ones(count, dtype=bool)  # until the first successful step
    fresh = first.copy()  # the Jacobian at x is due
    col = np.arange(n)
    while True:
        q = (fresh & (stop < 0)).nonzero()[0]
        if q.size:
            at, rdiag, acnorm[q], ipvt[q] = _qrfac(jac(x[q], q), end[q])
            if first.all():  # the first pass: D, |D x| and the radius
                diag = np.where(acnorm != 0.0, acnorm, 1.0)
                xnorm = _norms(diag * x)
                delta = np.where(xnorm != 0.0, 100.0 * xnorm, 100.0)
            qtf[q] = qq = _qtf(at, f[q], end[q])
            rq = at[:, :, :n].transpose(0, 2, 1).copy()
            rq[:, col, col] = rdiag
            r[q] = rq
            # largest cosine between f and a column of J
            fq, an = fnorm[q], acnorm[q][np.arange(q.size)[:, None],
                                         ipvt[q]]
            cos = np.abs(_rt_dot(rq, qq / fq[:, None]) / an)
            gnorm[q] = g = np.where((fq[:, None] != 0.0) & (an != 0.0),
                                    cos, 0.0).max(axis=1)
            stop[q] = np.where(g <= tol, 0, -1)
            diag[q] = _pmax(diag[q], acnorm[q])
            fresh[q] = False
        a = (stop < 0).nonzero()[0]
        if not a.size:
            break
        ra, da, fn = r[a], diag[a], fnorm[a]
        pa, step = _lmpar(ra, ipvt[a], da, qtf[a], delta[a], par[a])
        step = -step
        x_new = x[a] + step
        pnorm = _norms(da * step)
        dl = np.where(first[a], _pmin(delta[a], pnorm), delta[a])
        f_new = fun(x_new, a)
        nfev[a] += 1
        fnorm1 = np.sqrt(_sums(f_new * f_new, end[a]))
        frac = fnorm1 / fn
        actred = np.where(0.1 * fnorm1 < fn, 1.0 - frac * frac, -1.0)
        wa3 = np.zeros((a.size, n))  # R P^T step
        spiv = step[np.arange(a.size)[:, None], ipvt[a]]
        for j in range(n):
            wa3[:, :j + 1] = wa3[:, :j + 1] + ra[:, :j + 1, j] \
                * spiv[:, j:j + 1]
        temp1 = _norms(wa3) / fn
        temp2 = np.sqrt(pa) * pnorm / fn
        prered = temp1 * temp1 + temp2 * temp2 / 0.5
        dirder = -(temp1 * temp1 + temp2 * temp2)
        ratio = np.where(prered != 0.0, actred / prered, 0.0)
        shrink = ratio <= 0.25  # shrink the trust region
        temp = np.where(actred >= 0.0, 0.5,
                        0.5 * dirder / (dirder + 0.5 * actred))
        temp = np.where((0.1 * fnorm1 >= fn) | (temp < 0.1), 0.1, temp)
        grow = ~shrink & ((pa == 0.0) | (ratio >= 0.75))
        dl = np.where(shrink, temp * _pmin(dl, pnorm / 0.1),
                      np.where(grow, pnorm / 0.5, dl))
        pa = np.where(shrink, pa / temp, np.where(grow, 0.5 * pa, pa))
        ok = ratio >= 1e-4
        xa = np.where(ok[:, None], x_new, x[a])
        xn = np.where(ok, _norms(da * xa), xnorm[a])
        x[a], xnorm[a], delta[a], par[a] = xa, xn, dl, pa
        f[a] = np.where(ok[:, None], f_new, f[a])
        fnorm[a] = np.where(ok, fnorm1, fn)
        first[a] &= ~ok
        fresh[a] = ok
        small = 0.5 * ratio <= 1.0
        stop[a] = np.where(
            (np.abs(actred) <= tol) & (prered <= tol) & small
            | (dl <= tol * xn), 1, np.where(
                nfev[a] >= max_nfev, 2, np.where(
                    (np.abs(actred) <= _EPSMCH) & (prered <= _EPSMCH)
                    & small | (dl <= _EPSMCH * xn)
                    | (gnorm[a] <= _EPSMCH), 3, -1)))
    cost = np.array([0.5 * float(row[:e + 1] @ row[:e + 1])
                     for row, e in zip(f, end)])
    return LeastSquaresResult(
        x=x, cost=cost, jac=jac(x, np.arange(count)), nfev=nfev,
        success=stop < 2, message=tuple(_STOPS[k] for k in stop))


def least_squares(fun, x0, jac, tol, max_nfev):
    """``least_squares_batch`` of one problem: fun(x) and jac(x) take x (n,).

    Returns that problem's LeastSquaresResult.
    """
    res = least_squares_batch(lambda x, rows: fun(x[0])[None], [x0],
                              lambda x, rows: jac(x[0])[None], None, tol,
                              max_nfev)
    return LeastSquaresResult(
        x=res.x[0], cost=float(res.cost[0]), jac=res.jac[0],
        nfev=int(res.nfev[0]), success=bool(res.success[0]),
        message=res.message[0])


def _t_cdf_central(t, dof):
    """P(|T| <= t) for Student's t with integer dof (A&S 26.7.3/26.7.4).

    With theta = atan(t/sqrt(dof)), cos^2 theta = dof/(dof + t^2); the
    series runs over its powers with coefficients 2/3, (2*4)/(3*5), ...
    for odd dof and 1/2, (1*3)/(2*4), ... for even dof.
    """
    c2 = dof / (dof + t * t)
    odd = dof % 2
    term, total = 1.0, 1.0
    for k in range(2 + odd, dof - odd, 2):
        term *= c2 * (k - 1) / k
        total += term
    if odd:  # 2/pi (theta + sin theta cos theta * total)
        tail = t * math.sqrt(dof) / (dof + t * t) * total if dof > 1 else 0.0
        return 2.0 / math.pi * (math.atan(t / math.sqrt(dof)) + tail)
    return t / math.sqrt(dof + t * t) * total  # sin theta * total


def student_t_975(dof):
    """0.975 quantile of Student's t with integer dof >= 1.

    Newton on the closed-form CDF from the normal quantile 1.96; the CDF
    is concave above 0, so the iterates rise monotonically to the root.
    """
    density = math.exp(math.lgamma(0.5 * (dof + 1)) - math.lgamma(0.5 * dof)) \
        / math.sqrt(dof * math.pi)
    t = 1.96
    for _ in range(100):
        pdf = density * (1.0 + t * t / dof) ** (-0.5 * (dof + 1))
        step = (0.5 * _t_cdf_central(t, dof) - 0.475) / pdf
        t -= step
        if abs(step) <= 1e-12 * t:  # the next step is below rounding
            break
    return t
