"""Elliptic integrals and singular quadrature against independent oracles."""

import math
import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

from ionlattice import (
    DomainError,
    EllipticDivergenceError,
    QuadratureConvergenceError,
    elliptic_e,
    elliptic_k,
    integrate_with_endpoint_singularity,
)
from ionlattice import specfun


def ellipk_quadrature(m):
    # defining integral, independent of the AGM route; quad's roundoff
    # complaint at these tolerances is expected and irrelevant, the
    # comparison below is the check
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(lambda t: 1.0 / math.sqrt(1.0 - m * math.sin(t) ** 2),
                      0.0, math.pi / 2.0, epsabs=1e-14, epsrel=1e-14)
    return val


def ellipe_quadrature(m):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(lambda t: math.sqrt(1.0 - m * math.sin(t) ** 2),
                      0.0, math.pi / 2.0, epsabs=1e-14, epsrel=1e-14)
    return val


M_GRID = np.concatenate([
    np.linspace(0.0, 0.9, 19),
    [0.95, 0.99, 0.999, 0.999999],
])


def test_elliptic_k_vs_quadrature_oracle():
    for m in M_GRID:
        assert abs(elliptic_k(m) - ellipk_quadrature(m)) <= 1e-12 * max(
            1.0, abs(ellipk_quadrature(m)))


def test_elliptic_e_vs_quadrature_oracle():
    for m in M_GRID:
        assert abs(elliptic_e(m) - ellipe_quadrature(m)) <= 1e-12


def test_elliptic_vs_scipy():
    for m in M_GRID:
        np.testing.assert_allclose(elliptic_k(m), scipy.special.ellipk(m),
                                   rtol=0, atol=5e-15 * scipy.special.ellipk(m))
        np.testing.assert_allclose(elliptic_e(m), scipy.special.ellipe(m),
                                   rtol=5e-15)


def test_known_values():
    assert elliptic_k(0.0) == pytest.approx(math.pi / 2.0, abs=1e-15)
    assert elliptic_e(0.0) == pytest.approx(math.pi / 2.0, abs=1e-15)
    assert elliptic_e(1.0) == 1.0
    assert elliptic_k(0.5) == pytest.approx(1.8540746773013717, abs=2e-16)
    assert elliptic_e(0.5) == pytest.approx(1.3506438810476753, abs=2e-16)


def test_domain_errors():
    with pytest.raises(DomainError):
        elliptic_k(-0.1)
    with pytest.raises(DomainError):
        elliptic_k(1.1)
    with pytest.raises(EllipticDivergenceError):
        elliptic_k(1.0)
    with pytest.raises(DomainError):
        elliptic_e(-1e-9)
    with pytest.raises(DomainError):
        elliptic_e(1.0 + 1e-9)
    for m in (math.nan, [0.5, math.nan]):
        with pytest.raises(DomainError):
            elliptic_k(m)
        with pytest.raises(DomainError):
            elliptic_e(m)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-12, max_value=1.0 - 1e-12))
def test_legendre_relation(m):
    # E(m)K(1-m) + E(1-m)K(m) - K(m)K(1-m) = pi/2
    lhs = (elliptic_e(m) * elliptic_k(1.0 - m)
           + elliptic_e(1.0 - m) * elliptic_k(m)
           - elliptic_k(m) * elliptic_k(1.0 - m))
    assert abs(lhs - math.pi / 2.0) <= 1e-10


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0 - 1e-10),
       st.floats(min_value=0.0, max_value=1.0 - 1e-10))
def test_k_monotone_e_monotone(m1, m2):
    lo, hi = sorted((m1, m2))
    if hi - lo < 1e-9:  # below the AGM resolution the ordering is moot
        return
    assert elliptic_k(hi) > elliptic_k(lo)
    assert elliptic_e(hi) < elliptic_e(lo)


def test_vectorized_matches_scalar():
    m = np.array([0.0, 0.25, 0.5, 0.9, 0.999])
    kv = elliptic_k(m)
    ev = elliptic_e(m)
    for i, mi in enumerate(m):
        assert kv[i] == elliptic_k(float(mi))
        assert ev[i] == elliptic_e(float(mi))
    # E handles m=1 elementwise
    ev1 = elliptic_e(np.array([0.5, 1.0]))
    assert ev1[1] == 1.0


def test_near_one_terminates():
    # values within an ulp of 1 must not hang the AGM loop
    m = 1.0 - 1e-16
    if m < 1.0:
        assert np.isfinite(elliptic_k(m))
    assert np.isfinite(elliptic_k(np.nextafter(1.0, 0.0)))


def _checked_agm(m, mc):
    # the AGM with its convergence test before every iteration, as it was
    # before the iteration count of the smallest b was run untested
    a = np.ones_like(mc)
    b = np.sqrt(mc)
    c2 = np.asarray(m, dtype=float)
    deficit = 0.5 * c2
    pow2 = 1.0
    for _ in range(specfun._MAX_AGM):
        if np.all(np.abs(a - b) <= specfun._EPS * a):
            break
        a_next = 0.5 * (a + b)
        c2 = c2 * c2 / (16.0 * a_next * a_next)
        a, b = a_next, np.sqrt(a * b)
        deficit = deficit + pow2 * c2
        pow2 *= 2.0
    return np.pi / (2.0 * a), deficit


AGM_CASES = {
    "near 0": np.geomspace(1e-300, 1e-3, 400),
    "middle": np.random.default_rng(11).uniform(0.0, 1.0, 4000),
    "near 1": 1.0 - 10.0 ** -np.arange(1.0, 17.0),
    "one each": np.array([0.0, 0.5, np.nextafter(1.0, 0.0)]),
    "empty": np.array([]),
    "0-d": np.array(0.3),
    "mc = 0": np.array([0.2, 1.0]),
    "NaN": np.array([0.2, np.nan]),
}


@pytest.mark.parametrize("case", sorted(AGM_CASES))
def test_untested_agm_steps_keep_every_bit(case):
    m = AGM_CASES[case]
    with np.errstate(all="ignore"):
        want = _checked_agm(m, 1.0 - m)
        got = specfun._ellipk_deficit_vec(m, 1.0 - m)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g, w, equal_nan=True)


def test_agm_arrays_of_one_value_keep_every_bit():
    # each m alone: its own count decides where the test starts
    for mi in np.random.default_rng(12).uniform(0.0, 1.0, 300):
        m = np.array([mi])
        for g, w in zip(specfun._ellipk_deficit_vec(m, 1.0 - m),
                        _checked_agm(m, 1.0 - m)):
            assert np.array_equal(g, w)


# ---------------------------------------------------------------------
# singular quadrature


def test_inverse_sqrt_endpoint():
    val = integrate_with_endpoint_singularity(
        lambda x: 1.0 / math.sqrt(1.0 - x), 0.0, 1.0)
    assert val == pytest.approx(2.0, abs=1e-9)


def test_log_singularity_interior():
    # integral of ln|x - 1/2| over [0,1] = -1 - ln 2
    val = integrate_with_endpoint_singularity(
        lambda x: math.log(abs(x - 0.5)), 0.0, 1.0, singular_points=[0.5])
    assert val == pytest.approx(-1.0 - math.log(2.0), abs=1e-9)


def test_semi_infinite_tail():
    val = integrate_with_endpoint_singularity(
        lambda x: math.exp(-x), 0.0, math.inf, singular_points=[1.0])
    assert val == pytest.approx(1.0, abs=1e-9)


def test_singular_point_outside_interval():
    with pytest.raises(DomainError):
        integrate_with_endpoint_singularity(lambda x: x, 0.0, 1.0,
                                            singular_points=[2.0])


def test_divergent_integral_reports_estimate():
    with pytest.raises(QuadratureConvergenceError) as err:
        integrate_with_endpoint_singularity(lambda x: 1.0 / x, 0.0, 1.0)
    assert np.isfinite(err.value.best_estimate)
    assert err.value.error_bound > 0
