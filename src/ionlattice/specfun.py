"""Complete elliptic integrals and singularity-aware quadrature.

Argument convention
-------------------
All elliptic integrals here take the PARAMETER m, not the modulus k:

    K(m) = integral_0^{pi/2} dtheta / sqrt(1 - m sin^2 theta)
    E(m) = integral_0^{pi/2} sqrt(1 - m sin^2 theta) dtheta

so that energy ratios E/U0 (or U0/E) are passed directly as the argument.
Mixing up m and k = sqrt(m) silently corrupts every pendulum formula built
on top of these, which is why the convention is stated here once and tested.

Implementation is the arithmetic-geometric mean iteration (quadratic
convergence, no tables), good to ~1e-15 relative over the full domain.
"""

import math

import numpy as np

from . import _EXPORTS
from .errors import (
    DomainError,
    EllipticDivergenceError,
    QuadratureConvergenceError,
)

__all__ = list(_EXPORTS["specfun"])

# convergence tolerance for the AGM loops; must sit safely above machine
# epsilon or the iteration can cycle at the last ulp and never terminate
_EPS = 1e-15
_MAX_AGM = 64


def elliptic_k(m):
    """Complete elliptic integral of the first kind, parameter convention.

    Parameters
    ----------
    m : float or array_like
        Parameter, 0 <= m < 1, elementwise.

    Returns
    -------
    float or ndarray
        K(m), relative error <= 1e-12; a float for scalar input.

    Raises
    ------
    EllipticDivergenceError
        If m is so close to 1 that K diverges (m = 1 included).
    DomainError
        If m < 0 or m > 1.
    """
    m = _parameter(m)
    if np.any(m == 1.0):
        raise EllipticDivergenceError(
            "K(m) diverges logarithmically at m=1 (separatrix)")
    return _scalar_if_0d(_ellipk_deficit_vec(m, 1.0 - m)[0])


def elliptic_e(m):
    """Complete elliptic integral of the second kind, parameter convention.

    Parameters
    ----------
    m : float or array_like
        Parameter, 0 <= m <= 1, elementwise.

    Returns
    -------
    float or ndarray
        E(m), relative error <= 1e-12; a float for scalar input.
        E(1) = 1 exactly.
    """
    m = _parameter(m)
    one = m == 1.0  # E(1) = 1 while K diverges
    k, deficit = _ellipk_deficit_vec(np.where(one, 0.0, m),
                                     np.where(one, 1.0, 1.0 - m))
    return _scalar_if_0d(np.where(one, 1.0, k * (1.0 - deficit)))


def _parameter(m):
    m = np.asarray(m, dtype=float)
    if not np.all((m >= 0.0) & (m <= 1.0)):  # NaN fails too
        raise DomainError("elliptic parameter outside [0, 1]")
    return m


def _scalar_if_0d(v):
    return float(v) if v.ndim == 0 else v


def _ellipk_deficit_vec(m, mc):
    """K(m) and 1 - E(m)/K(m) from one vectorized AGM; 0 <= m, 0 < mc.

    mc = 1 - m is passed separately so that callers who know it more
    precisely than the rounded difference (near the separatrix) keep its
    relative accuracy. 1 - E/K is the AGM's own sum of 2^(n-1) c_n^2,
    with c_{n+1} = c_n^2/(4 a_{n+1}), so it does not cancel as m -> 0.
    """
    a = np.ones_like(mc)
    b = np.sqrt(mc)
    c2 = np.asarray(m, dtype=float)  # c_n^2, starting from c_0^2 = m
    deficit = 0.5 * c2
    pow2 = 1.0
    for _ in range(_MAX_AGM):
        if np.all(np.abs(a - b) <= _EPS * a):
            break
        a_next = 0.5 * (a + b)
        c2 = c2 * c2 / (16.0 * a_next * a_next)
        a, b = a_next, np.sqrt(a * b)
        deficit = deficit + pow2 * c2
        pow2 *= 2.0
    return np.pi / (2.0 * a), deficit


# step of the double-exponential rules (Takahasi & Mori, Publ. RIMS 9,
# 1974): node spacing in the transformed variable t
_DE_STEP = 1.0 / 16.0


def _tanh_sinh(t_max):
    """Fixed tanh-sinh rule on (0, 1): x = 1/(1 + exp(-pi sinh t)).

    Nodes at t = k h, |t| <= t_max, h = 1/16. Returns the nodes x, their
    complements 1 - x (at full relative precision near 1), the weights,
    and the weights of the nested rule on the step 2h (even k only),
    whose result differs from the full rule's by about the error of the
    coarser one. Endpoint singularities of integrable type are absorbed
    by the double-exponential clustering of the nodes.
    """
    k = np.arange(-round(t_max / _DE_STEP), round(t_max / _DE_STEP) + 1)
    e = math.pi * np.sinh(k * _DE_STEP)
    x, d = 1.0 / (1.0 + np.exp(-e)), 1.0 / (1.0 + np.exp(e))
    w = _DE_STEP * math.pi * np.cosh(k * _DE_STEP) * x * d
    return x, d, w, np.where(k % 2 == 0, 2.0 * w, 0.0)


def _exp_sinh(t_min, t_max):
    """Fixed exp-sinh rule on (0, inf): u = exp((pi/2) sinh t).

    Nodes at t = k h in [t_min, t_max], h = 1/16; returns nodes and
    weights.
    """
    t = _DE_STEP * np.arange(round(t_min / _DE_STEP),
                             round(t_max / _DE_STEP) + 1)
    u = np.exp(0.5 * math.pi * np.sinh(t))
    return u, _DE_STEP * 0.5 * math.pi * np.cosh(t) * u


def quad(*args, **kwargs):
    """``scipy.integrate.quad``, imported on first use.

    Only ``integrate_with_endpoint_singularity``, the tests' adaptive
    oracle, integrates adaptively, so no CLI run pays scipy's import.
    """
    from scipy.integrate import quad as scipy_quad
    return scipy_quad(*args, **kwargs)


def integrate_with_endpoint_singularity(f, a, b, singular_points=(), tol=1e-9):
    """Adaptive quadrature of ``f`` on [a, b] with declared singular points.

    The interval is subdivided at every listed singular abscissa and each
    sub-panel is handled by a Gauss-Kronrod scheme whose extrapolation
    absorbs integrable endpoint singularities (log or inverse-square-root
    type). ``b`` may be ``numpy.inf``; the tail is then split off at a
    finite cut beyond the last singular point and transformed.

    Needs scipy, which is a test extra of this package, not a runtime
    dependency: the verbs never call this function.

    Parameters
    ----------
    f : callable
        Scalar integrand, integrable on [a, b]. It is never evaluated
        exactly at a declared singular point.
    a, b : float
        Integration limits, a < b; b may be +inf.
    singular_points : sequence of float
        Interior abscissae where f has (integrable) singularities.
        Points must lie in [a, b].
    tol : float
        Requested absolute error.

    Returns
    -------
    float

    Raises
    ------
    QuadratureConvergenceError
        If the requested tolerance cannot be certified; the exception
        carries ``best_estimate`` and ``error_bound``.
    DomainError
        If a singular point lies outside [a, b].
    """
    pts = sorted(float(p) for p in singular_points)
    for p in pts:
        if p < a or p > b:
            raise DomainError(
                f"declared singular point {p!r} outside [{a!r}, {b!r}]")
    interior = [p for p in pts if a < p < b]

    def _run(g, lo, hi, points):
        kwargs = dict(epsabs=tol, epsrel=0.0, limit=200, full_output=1)
        if points:
            out = quad(g, lo, hi, points=points, **kwargs)
        else:
            out = quad(g, lo, hi, **kwargs)
        result, abserr = out[0], out[1]
        if len(out) > 3:  # ier != 0 path returns an explanation message
            raise QuadratureConvergenceError(
                f"quadrature on [{lo}, {hi}] did not converge: {out[3]}",
                best_estimate=result, error_bound=abserr)
        return result, abserr

    if math.isinf(b):
        cut = 2.0 * interior[-1] - a if interior else a + 1.0
        # fold [cut, inf) onto (0, 1] with a length taken from the
        # singular-point geometry; a fixed unit scale would put every
        # node far outside the support of integrands whose natural
        # units are very small or very large
        scale = cut - a if interior else 1.0

        def tail_integrand(t):
            x = cut + scale * (1.0 - t) / t
            return f(x) * scale / (t * t)

        total, err = _run(f, a, cut, interior)
        tail, terr = _run(tail_integrand, 0.0, 1.0, None)
        return total + tail
    total, err = _run(f, a, b, interior)
    return total
