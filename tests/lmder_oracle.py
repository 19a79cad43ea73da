"""The scalar port of MINPACK ``lmder``, kept as the tests' oracle.

This is the Levenberg-Marquardt loop ``ionlattice._optim`` ran one problem
at a time before ``least_squares_batch`` replaced it: the tests require
every problem of a batch to reproduce this loop's parameters, cost,
Jacobian, evaluation count and stop flag bit for bit. It is never
imported by the package.
"""

import math

import numpy as np

from ionlattice._optim import LeastSquaresResult

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



def gaussian_fit(profile):
    """The two-pass Gaussian fit of one profile, as it ran on this port.

    A frozen copy of the old ``thermometry.fit_gaussian_profile`` body in
    pixel units, for a profile it can fit. Returns both passes'
    LeastSquaresResults and the fitted (a, c, |s|, b) with their 95%
    half-widths.
    """
    from ionlattice.thermometry import _gauss

    arr = np.asarray(list(profile), dtype=float)
    x, y = arr[:, 0], arr[:, 1]
    b0 = float(np.min(y))
    a0 = float(np.max(y) - b0)
    c0 = float(x[np.argmax(y)])
    wsum = max(float(np.sum(y - b0)), 1e-12)
    s0 = math.sqrt(max(float(np.sum((y - b0) * (x - c0) ** 2)) / wsum, 0.25))

    def make_funcs(sig):
        def resid(p):
            return (_gauss(x, *p) - y) / sig

        def jac(p):
            a, c, s, _ = p
            u = (x - c) / s
            e = np.exp(-0.5 * u * u)
            return np.column_stack([e, a * e * u / s, a * e * u * u / s,
                                    np.ones_like(x)]) / sig[:, None]
        return resid, jac

    resid, jac = make_funcs(np.ones_like(y))
    first = least_squares(resid, [a0, c0, s0, b0], jac, tol=1e-14,
                          max_nfev=2000)
    sig = np.sqrt(np.maximum(_gauss(x, *first.x), 1.0))
    resid, jac = make_funcs(sig)
    res = least_squares(resid, first.x, jac, tol=1e-14, max_nfev=2000)
    a, c, s, b = res.x
    dof = max(len(y) - 4, 1)
    cov = 2.0 * res.cost / dof * np.linalg.inv(res.jac.T @ res.jac)
    ci = 1.96 * np.sqrt(np.clip(np.diag(cov), 0.0, None))
    return first, res, (a, c, abs(s), b), ci
