"""The four numerical routines the library would otherwise import scipy for.

Every CLI verb is its own process, and importing scipy costs more start-up
than any single call to it saves, so these are written on numpy alone:

- ``minimize``: BFGS with the Moré–Thuente line search (MINPACK-2
  ``dcsrch``/``dcstep``, as in scipy's ``line_search_wolfe1``), for the
  cold crystal solve. It takes one shape, a stack of starts: each start
  is a lane, the loop it runs alone written as a generator, and the lanes
  advance in lockstep, with one call of the objective per round for the
  lanes that need a point, or a call at the lane's own point when one
  lane is left. Small crystals' starts share each energy/gradient pass
  that way, each to the bits it gets alone; the caller decides which
  starts to stack (``crystal``'s size gate);
- ``assignment``: minimum-cost perfect matching of a square matrix by
  Jonker–Volgenant shortest augmenting paths, for mode-branch tracking;
- ``least_squares_batch``: Levenberg–Marquardt, damped Gauss–Newton steps
  on the normal equations of a stack of problems, for the Gaussian spot
  fits (``least_squares`` is its one-problem case);
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


def line_search(xk, pk, f0, g0, old_f0):
    """Strong-Wolfe step along pk from xk, as a generator.

    It yields each trial point x and is sent (f, gradient) at it, once per
    trial step; it returns (alpha, f, g), or None when the search ends
    without a step that satisfies both conditions. A port of scipy's
    ``line_search_wolfe1`` with c1 1e-4, c2 0.9, xtol 1e-14 and steps in
    [1e-100, 1e100]: the first trial step is min(1, 2.02 (f0 - old_f0) /
    phi'(0)), then MINPACK-2 ``dcsrch`` (Moré and Thuente, ACM TOMS 20,
    1994) for at most 100 trial steps, with the same arithmetic in the same
    order.
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
        if not math.isfinite(stp):
            return None
        f, g = yield xk + stp * pk
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
        # np.clip's bits (a NaN stays NaN) for a fraction of its dispatch
        stp = np.float64(min(max(stp, _STPMIN), _STPMAX))
        if brackt and (stp <= stmin or stp >= stmax
                       or stmax - stmin <= _XTOL * stmax):
            stp = stx
    return None


class BFGSResult(NamedTuple):
    x: np.ndarray  # (L, n), one row per start
    nits: tuple  # the iterations of each lane
    errors: tuple  # the exception that ended each lane, or None

    @property
    def nit(self):
        """Iterations, summed over the lanes."""
        return sum(self.nits)


def minimize(fun, x0, gtol, maxiter):
    """BFGS descents to gradient max-norm gtol from a stack x0 (L, n).

    Each start is a lane, and ``fun(x)`` returns the (k,) values and (k, n)
    gradients at a stack x (k, n) of points, or (f, g) at one point x
    (n,). The lanes advance in lockstep: each round, one call of fun
    evaluates every lane that needs a point, so lanes share each pass's
    numpy dispatch, and a round with one such lane evaluates it at its own
    (n,) point. Each lane is ``_bfgs``, the loop a start runs alone, to
    the bit. A call that raises is repeated lane by lane, and a lane whose
    point raises ends there with that exception in ``errors`` (x holds the
    point) while the others go on. Returns x (L, n), each lane's iteration
    count and errors.
    """
    lanes = [_bfgs(x, gtol, maxiter) for x in x0]
    xs = [None] * len(lanes)
    nits, errors = [0] * len(lanes), [None] * len(lanes)
    live = list(range(len(lanes)))
    points = [next(lane) for lane in lanes]
    while live:
        going, ahead = [], []
        for i, point, value in zip(live, points, _evaluate(fun, points)):
            if isinstance(value, Exception):
                xs[i], errors[i] = point, value
                continue
            try:
                ahead.append(lanes[i].send(value))
                going.append(i)
            except StopIteration as done:
                xs[i], nits[i] = done.value
        live, points = going, ahead
    return BFGSResult(x=np.stack(xs), nits=tuple(nits),
                      errors=tuple(errors))


def _evaluate(fun, points):
    """fun's (f, g) at each point, or the exception raised there; one
    point is evaluated alone, at its (n,) shape."""
    try:
        if len(points) == 1:
            return [fun(points[0])]
        f, g = fun(np.array(points))  # np.stack's copy, at less dispatch
        return list(zip(f, g))
    except Exception as exc:  # it ends the lane whose point raised
        if len(points) == 1:
            return [exc]
        # each point alone gets the bits it gets in the stack
        return [value for point in points
                for value in _evaluate(fun, [point])]


def _bfgs(x, gtol, maxiter):
    """One lane of ``minimize``: BFGS from x, as a generator.

    It yields each point it needs (f, g) at and is sent them; it returns
    (x, iterations). scipy's BFGS loop (first step of about unit length,
    rho = 1000 when y^T s = 0, stop on a non-finite value) with
    ``line_search`` and the inverse-Hessian update (I - rho s y^T) H (I -
    rho y s^T) + rho s s^T in its rank-two form H + s a^T + a s^T, a =
    (rho^2 y^T H y + rho) s/2 - rho H y: O(n^2) per iteration instead of
    two dense O(n^3) products, with its (n, n) arrays allocated once per
    descent. Stops where the line search fails.
    """
    f, g = yield x
    h = np.eye(len(x))
    sa, as_ = np.empty_like(h), np.empty_like(h)  # s a^T and a s^T
    old_f = f + np.linalg.norm(g) / 2
    k = 0
    gnorm = np.abs(g).max()
    while gnorm > gtol and k < maxiter:
        p = -(h @ g)
        step = yield from line_search(x, p, f, g, old_f)
        if step is None:
            break
        alpha, f_new, g_new = step
        old_f, f = f, f_new
        s = alpha * p
        x = x + s
        y = g_new - g
        g = g_new
        k += 1
        gnorm = np.abs(g).max()
        if gnorm <= gtol or not math.isfinite(f):
            break
        # Python floats from here: the one division is guarded, and float
        # arithmetic rounds as numpy's scalars do
        ys = float(np.dot(y, s))
        rho = 1000.0 if ys == 0.0 else 1.0 / ys
        hy = h @ y
        a = 0.5 * (rho * rho * float(np.dot(y, hy)) + rho) * s - rho * hy
        _rank_two_update(h, s, a, sa, as_)
    return x, k


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


_STOPS = ("gtol termination condition is satisfied",
          "ftol or xtol termination condition is satisfied",
          # the last two fail
          "the maximum number of function evaluations is exceeded",
          "the solution ran away")
# Marquardt's first damping, and a floor that keeps it positive
_LAM0 = 1e-3
_LAM_MIN = float(np.finfo(float).tiny)


def _over_residuals(v):
    # sums over the residual axis in index order, so padding adds nothing
    return np.add.accumulate(v, axis=1)[:, -1]


def _solve(lhs, rhs):
    # np.linalg.solve per lane; a lane singular in floating point (dependent
    # columns of J) takes the least-norm solution, the rest keep their bits
    try:
        return np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:
        if len(lhs) == 1:
            return np.linalg.pinv(lhs) @ rhs
        return np.concatenate([_solve(lhs[k:k + 1], rhs[k:k + 1])
                               for k in range(len(lhs))])


# trial steps may leave fun's float range: floating-point warnings are off
@np.errstate(all="ignore")
def least_squares_batch(fun, x0, jac, lengths, tol, max_nfev,
                        ran_away=None):
    """Levenberg-Marquardt minima of many |fun(x)|^2 at once.

    Each step solves (J^T J + lam D^2) step = -J^T f with Marquardt's
    scaling (SIAM J. Appl. Math. 11, 431, 1963), D^2 the largest diagonal
    of J^T J so far (1 where 0). A step that gets 1e-4 of the predicted
    reduction of |f|^2 is taken and lam falls tenfold, else lam rises
    tenfold. As scipy's ``least_squares(method="lm")`` with ftol = xtol =
    gtol = tol, a problem stops when each column of J is orthogonal to f
    to tol, when the actual and predicted relative reductions are both
    below tol, or when |D step| < tol |D x|; it fails after max_nfev
    evaluations of fun. If given, ``ran_away(x, rows)`` flags the problems
    ``rows`` whose x (L, n) has left the region where a minimum could mean
    anything; each stops there after its step, unsuccessful.

    x0 is (P, n). ``fun(x, rows)`` and ``jac(x, rows)`` return the (L, M)
    residuals and (L, M, n) Jacobians of problems ``rows`` at x (L, n);
    problem p has lengths[p] residuals (all M if lengths is None), and the
    padding is set to 0. One stacked np.linalg.solve steps the live
    problems, each with its own damping, scaling, count and stop, so each
    gets the bits it gets alone. Returns a LeastSquaresResult of (P, ...)
    stacks; jac keeps the padding.
    """
    x = np.array(x0, dtype=float)
    count, n = x.shape
    f = fun(x, np.arange(count))
    ends = np.broadcast_to(f.shape[1] if lengths is None else lengths, count)
    pad = np.arange(f.shape[1]) >= ends[:, None]
    f = np.where(pad, 0.0, f)
    ss = _over_residuals(f * f)
    nfev = np.ones(count, dtype=int)
    stop = np.full(count, -1)  # index into _STOPS once a problem stops
    lam = np.full(count, _LAM0)
    d2 = np.zeros((count, n))
    jtj, g = np.zeros((count, n, n)), np.zeros((count, n))
    due = np.ones(count, dtype=bool)  # J^T J and J^T f at x are due
    col = np.arange(n)
    while True:
        q = (due & (stop < 0)).nonzero()[0]
        if q.size:
            j = np.where(pad[q, :, None], 0.0, jac(x[q], q))
            jtj[q] = np.stack([_over_residuals(j * j[:, :, k:k + 1])
                               for k in range(n)], axis=1)
            g[q] = _over_residuals(j * f[q, :, None])
            cn2 = jtj[q][:, col, col]  # squared column norms of J
            d2[q] = np.maximum(d2[q], cn2)
            # largest cosine between f and a column of J
            cos = np.abs(g[q]) / np.sqrt(cn2) / np.sqrt(ss[q])[:, None]
            cos = np.where((cn2 != 0.0) & (ss[q] != 0.0)[:, None], cos, 0.0)
            stop[q] = np.where(cos.max(axis=1) <= tol, 0, -1)
            due[q] = False
        a = (stop < 0).nonzero()[0]
        if not a.size:
            break
        dd = np.where(d2[a] != 0.0, d2[a], 1.0)  # D^2
        la, lhs = lam[a], jtj[a]  # lhs is a copy
        lhs[:, col, col] += la[:, None] * dd
        step = -_solve(lhs, g[a][:, :, None])[:, :, 0]
        x_new = x[a] + step
        f_new = np.where(pad[a], 0.0, fun(x_new, a))
        nfev[a] += 1
        ss_new = _over_residuals(f_new * f_new)
        # the model's relative reduction, |J step|^2 + 2 lam |D step|^2
        dstep2 = (dd * step * step).sum(axis=1)
        prered = (la * dstep2 - (step * g[a]).sum(axis=1)) / ss[a]
        actred = 1.0 - ss_new / ss[a]
        ratio = np.where(prered != 0.0, actred / prered, 0.0)
        ok = ratio >= 1e-4
        lam[a] = np.where(ok, np.maximum(0.1 * la, _LAM_MIN), 10.0 * la)
        x[a] = xa = np.where(ok[:, None], x_new, x[a])
        f[a] = np.where(ok[:, None], f_new, f[a])
        ss[a] = np.where(ok, ss_new, ss[a])
        due[a] = ok
        stop[a] = np.where(
            (np.abs(actred) <= tol) & (prered <= tol) & (ratio <= 2.0)
            | (dstep2 <= tol * tol * (dd * xa * xa).sum(axis=1)), 1,
            np.where(nfev[a] >= max_nfev, 2, -1))
        if ran_away is not None:
            stop[a] = np.where(ran_away(xa, a), 3, stop[a])
    return LeastSquaresResult(
        x=x, cost=0.5 * ss, jac=jac(x, np.arange(count)), nfev=nfev,
        success=stop < 2, message=tuple(_STOPS[k] for k in stop))


def least_squares(fun, x0, jac, tol, max_nfev):
    """``least_squares_batch`` of one problem; fun and jac take x (n,)."""
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
