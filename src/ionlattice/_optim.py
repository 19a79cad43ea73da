"""The four numerical routines the library would otherwise import scipy for.

Every CLI verb is its own process, and importing scipy costs more start-up
than any single call to it saves, so these are written on numpy alone:

- ``minimize``: BFGS with the Moré–Thuente line search (MINPACK-2
  ``dcsrch``/``dcstep``, as in scipy's ``line_search_wolfe1``), for the
  cold crystal solve;
- ``assignment``: minimum-cost perfect matching of a square matrix by
  Jonker–Volgenant shortest augmenting paths, for mode-branch tracking;
- ``least_squares``: Levenberg–Marquardt with Marquardt's diagonal
  scaling, for the Gaussian spot fit;
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
    x: np.ndarray
    cost: float  # half the sum of squared residuals at x
    jac: np.ndarray  # the Jacobian at x
    nfev: int
    success: bool
    message: str


# The Levenberg-Marquardt fit below is MINPACK's lmder with its
# arithmetic: sums run in index order (np.add.accumulate over the m rows,
# Python floats over the n parameters), squares are products, and a norm
# is the root of such a sum, as ``enorm`` computes it for components in
# (3.8e-20, 1.3e19/n).
_EPSMCH = float(np.finfo(float).eps)
_DWARF = float(np.finfo(float).tiny)


def _enorm(v):
    """Norm of an m-vector (ndarray), summed in index order."""
    return math.sqrt(np.add.accumulate(v * v)[-1])


def _norm(v):
    """Norm of an n-vector (list), summed in index order."""
    s = 0.0
    for x in v:
        s += x * x
    return math.sqrt(s)


def _qrfac(a):
    """MINPACK qrfac: Householder QR of a (m, n), m >= n, with pivoting.

    Returns the transposed factors, (n, m): row j holds R's row j right
    of the diagonal and the Householder vector from the diagonal on; then
    R's diagonal, the column norms of a and the column order, as lists.
    """
    at = np.array(a, dtype=float).T.copy()
    n = len(at)
    acnorm = np.sqrt(np.add.accumulate(at * at, axis=1)[:, -1]).tolist()
    rdiag = acnorm[:]
    wa = acnorm[:]
    ipvt = list(range(n))
    for j in range(n):
        kmax = max(range(j, n), key=rdiag.__getitem__)  # first largest
        if kmax != j:
            at[[j, kmax]] = at[[kmax, j]]
            rdiag[kmax], wa[kmax] = rdiag[j], wa[j]
            ipvt[j], ipvt[kmax] = ipvt[kmax], ipvt[j]
        v = at[j, j:]
        ajnorm = _enorm(v)
        if ajnorm != 0.0:
            if v[0] < 0.0:
                ajnorm = -ajnorm
            v /= ajnorm
            v[0] += 1.0
            rest = at[j + 1:, j:]
            rest -= (np.add.accumulate(rest * v, axis=1)[:, -1]
                     / v[0])[:, None] * v
            for k, rjk in enumerate(at[j + 1:, j].tolist(), start=j + 1):
                if rdiag[k] != 0.0:  # downdate the remaining norm
                    temp = rjk / rdiag[k]
                    rdiag[k] *= math.sqrt(max(0.0, 1.0 - temp * temp))
                    q = rdiag[k] / wa[k]
                    if 0.05 * (q * q) <= _EPSMCH:
                        rdiag[k] = wa[k] = _enorm(at[k, j + 1:])
        rdiag[j] = -ajnorm
    return at, rdiag, acnorm, ipvt


def _qrsolv(r, ipvt, diag, qtb):
    """MINPACK qrsolv: least-squares x of [J; D] x = [f; 0], J P = Q R.

    r (nested lists) holds R in its upper triangle; its strict lower
    triangle receives the transposed triangle S of [R; P^T D P] = Q' S,
    which ``_lmpar``'s Newton correction reads. Returns x and S's
    diagonal.
    """
    n = len(qtb)
    x = [0.0] * n
    for j in range(n):
        for i in range(j, n):
            r[i][j] = r[j][i]
        x[j] = r[j][j]
    wa = list(qtb)
    sdiag = [0.0] * n
    for j in range(n):
        dj = diag[ipvt[j]]
        if dj != 0.0:  # Givens rotations eliminate row j of D
            for k in range(j, n):
                sdiag[k] = 0.0
            sdiag[j] = dj
            qtbpj = 0.0
            for k in range(j, n):
                if sdiag[k] == 0.0:
                    continue
                if abs(r[k][k]) < abs(sdiag[k]):
                    cotan = r[k][k] / sdiag[k]
                    sn = 0.5 / math.sqrt(0.25 + 0.25 * (cotan * cotan))
                    cs = sn * cotan
                else:
                    tn = sdiag[k] / r[k][k]
                    cs = 0.5 / math.sqrt(0.25 + 0.25 * (tn * tn))
                    sn = cs * tn
                r[k][k] = cs * r[k][k] + sn * sdiag[k]
                temp = cs * wa[k] + sn * qtbpj
                qtbpj = -sn * wa[k] + cs * qtbpj
                wa[k] = temp
                for i in range(k + 1, n):
                    temp = cs * r[i][k] + sn * sdiag[i]
                    sdiag[i] = -sn * r[i][k] + cs * sdiag[i]
                    r[i][k] = temp
        sdiag[j] = r[j][j]
        r[j][j] = x[j]
    nsing = sdiag.index(0.0) if 0.0 in sdiag else n
    for j in range(nsing, n):
        wa[j] = 0.0
    for j in range(nsing - 1, -1, -1):
        s = 0.0
        for i in range(j + 1, nsing):
            s += r[i][j] * wa[i]
        wa[j] = (wa[j] - s) / sdiag[j]
    for j in range(n):
        x[ipvt[j]] = wa[j]
    return x, sdiag


def _lmpar(r, ipvt, diag, qtb, delta, par):
    """MINPACK lmpar: damping par and step x with |D x| within 10% of delta.

    x minimizes |J x + f|^2 + par |D x|^2, given J P = Q R (R in r) and
    qtb = Q^T f; par is 0 when the Gauss-Newton step is short enough.
    """
    n = len(qtb)
    diagr = [r[j][j] for j in range(n)]
    nsing = diagr.index(0.0) if 0.0 in diagr else n
    wa1 = list(qtb[:nsing]) + [0.0] * (n - nsing)
    for j in range(nsing - 1, -1, -1):  # Gauss-Newton step
        wa1[j] = wa1[j] / r[j][j]
        temp = wa1[j]
        for i in range(j):
            wa1[i] = wa1[i] - r[i][j] * temp
    x = [0.0] * n
    for j in range(n):
        x[ipvt[j]] = wa1[j]
    wa2 = [d * v for d, v in zip(diag, x)]
    dxnorm = _norm(wa2)
    fp = dxnorm - delta
    if fp <= 0.1 * delta:
        return 0.0, x
    parl = 0.0  # lower bound from the Newton step, when R has full rank
    if nsing == n:
        wa1 = [diag[l] * (wa2[l] / dxnorm) for l in ipvt]
        for j in range(n):
            s = 0.0
            for i in range(j):
                s += r[i][j] * wa1[i]
            wa1[j] = (wa1[j] - s) / r[j][j]
        temp = _norm(wa1)
        parl = ((fp / delta) / temp) / temp
    for j in range(n):
        s = 0.0
        for i in range(j + 1):
            s += r[i][j] * qtb[i]
        wa1[j] = s / diag[ipvt[j]]
    gnorm = _norm(wa1)
    paru = gnorm / delta
    if paru == 0.0:
        paru = _DWARF / min(delta, 0.1)
    par = min(max(par, parl), paru)
    if par == 0.0:
        par = gnorm / dxnorm
    for it in range(1, 11):
        if par == 0.0:
            par = max(_DWARF, 0.001 * paru)
        temp = math.sqrt(par)
        x, sdiag = _qrsolv(r, ipvt, [temp * d for d in diag], qtb)
        wa2 = [d * v for d, v in zip(diag, x)]
        dxnorm = _norm(wa2)
        temp = fp
        fp = dxnorm - delta
        if (abs(fp) <= 0.1 * delta or parl == 0.0 and fp <= temp < 0.0
                or it == 10):
            break
        wa1 = [diag[l] * (wa2[l] / dxnorm) for l in ipvt]
        for j in range(n):  # Newton correction
            wa1[j] = wa1[j] / sdiag[j]
            temp = wa1[j]
            for i in range(j + 1, n):
                wa1[i] = wa1[i] - r[i][j] * temp
        temp = _norm(wa1)
        parc = ((fp / delta) / temp) / temp
        if fp > 0.0:
            parl = max(parl, par)
        if fp < 0.0:
            paru = min(paru, par)
        par = max(parl, par + parc)
    return par, x


def least_squares(fun, x0, jac, tol, max_nfev):
    """Levenberg-Marquardt minimum of |fun(x)|^2: a port of MINPACK lmder.

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
    """
    x = np.array(x0, dtype=float)
    n = len(x)
    fvec = fun(x)
    nfev = 1
    fnorm = _enorm(fvec)
    par = 0.0
    first = True  # until the first successful step
    while True:
        at, rdiag, acnorm, ipvt = _qrfac(jac(x))
        if first:
            diag = [c if c != 0.0 else 1.0 for c in acnorm]
            xnorm = _norm([d * v for d, v in zip(diag, x.tolist())])
            delta = 100.0 * xnorm if xnorm != 0.0 else 100.0
        wa4 = fvec.copy()  # Q^T f
        for j in range(n):
            v = at[j, j:]
            if v[0] != 0.0:
                wa4[j:] += v * (-np.add.accumulate(v * wa4[j:])[-1] / v[0])
        qtf = wa4[:n].tolist()
        r = at[:, :n].T.tolist()  # R above the diagonal; below, workspace
        for j in range(n):
            r[j][j] = rdiag[j]
        gnorm = 0.0  # largest cosine between f and a column of J
        if fnorm != 0.0:
            for j in range(n):
                if acnorm[ipvt[j]] != 0.0:
                    s = 0.0
                    for i in range(j + 1):
                        s += r[i][j] * (qtf[i] / fnorm)
                    gnorm = max(gnorm, abs(s / acnorm[ipvt[j]]))
        if gnorm <= tol:
            return _lm_result(jac, x, fvec, nfev, True,
                              "gtol termination condition is satisfied")
        diag = [max(d, c) for d, c in zip(diag, acnorm)]
        while True:
            par, step = _lmpar(r, ipvt, diag, qtf, delta, par)
            step = [-v for v in step]
            x_new = x + np.array(step)
            pnorm = _norm([d * v for d, v in zip(diag, step)])
            if first:
                delta = min(delta, pnorm)
            f_new = fun(x_new)
            nfev += 1
            fnorm1 = _enorm(f_new)
            actred = -1.0
            if 0.1 * fnorm1 < fnorm:
                q = fnorm1 / fnorm
                actred = 1.0 - q * q
            wa3 = [0.0] * n  # R P^T step
            for j in range(n):
                temp = step[ipvt[j]]
                for i in range(j + 1):
                    wa3[i] = wa3[i] + r[i][j] * temp
            temp1 = _norm(wa3) / fnorm
            temp2 = math.sqrt(par) * pnorm / fnorm
            prered = temp1 * temp1 + temp2 * temp2 / 0.5
            dirder = -(temp1 * temp1 + temp2 * temp2)
            ratio = actred / prered if prered != 0.0 else 0.0
            if ratio <= 0.25:  # shrink the trust region
                temp = 0.5 if actred >= 0.0 \
                    else 0.5 * dirder / (dirder + 0.5 * actred)
                if 0.1 * fnorm1 >= fnorm or temp < 0.1:
                    temp = 0.1
                delta = temp * min(delta, pnorm / 0.1)
                par = par / temp
            elif par == 0.0 or ratio >= 0.75:
                delta = pnorm / 0.5
                par = 0.5 * par
            if ratio >= 1e-4:
                x, fvec, fnorm = x_new, f_new, fnorm1
                xnorm = _norm([d * v for d, v in zip(diag, x.tolist())])
                first = False
            if (abs(actred) <= tol and prered <= tol and 0.5 * ratio <= 1.0
                    or delta <= tol * xnorm):
                return _lm_result(jac, x, fvec, nfev, True,
                                  "ftol or xtol termination condition is "
                                  "satisfied")
            if nfev >= max_nfev:
                return _lm_result(jac, x, fvec, nfev, False,
                                  "the maximum number of function "
                                  "evaluations is exceeded")
            if (abs(actred) <= _EPSMCH and prered <= _EPSMCH
                    and 0.5 * ratio <= 1.0 or delta <= _EPSMCH * xnorm
                    or gnorm <= _EPSMCH):
                return _lm_result(jac, x, fvec, nfev, False,
                                  "a tolerance is below machine precision")
            if ratio >= 1e-4:
                break


def _lm_result(jac, x, fvec, nfev, success, message):
    return LeastSquaresResult(x=x, cost=0.5 * float(fvec @ fvec), jac=jac(x),
                              nfev=nfev, success=success, message=message)


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
