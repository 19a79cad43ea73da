"""Elliptic integrals and singular quadrature against independent oracles."""

import math
import os
import subprocess
import sys
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
)
from ionlattice import specfun
from ionlattice.specfun import integrate_with_endpoint_singularity


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

# K and 1 - E/K of the AGM against scipy, relative; the largest error
# seen over AGM_CASES is 5.6e-16 for K and 1.1e-15 for 1 - E/K
AGM_RTOL = 4e-15


def _deficit_oracle(m):
    # 1 - E/K from scipy. Below m = 1/2 through K - E = (pi m/4)
    # 2F1(3/2, 1/2; 2; m), which keeps its relative precision as m -> 0,
    # where 1 - E/K cancels
    with np.errstate(all="ignore"):
        small = np.pi * m / 4.0 * scipy.special.hyp2f1(1.5, 0.5, 2.0, m)
        k = scipy.special.ellipk(m)
        return np.where(m < 0.5, small / k, 1.0 - scipy.special.ellipe(m) / k)


@pytest.mark.parametrize("case", sorted(AGM_CASES))
def test_agm_matches_scipy(case):
    m = AGM_CASES[case]
    with np.errstate(all="ignore"):
        k, deficit = specfun._ellipk_deficit_vec(m, 1.0 - m)
    assert k.shape == deficit.shape == m.shape
    m, k, deficit = map(np.atleast_1d, (m, k, deficit))
    assert np.array_equal(np.isnan(k), np.isnan(m))
    assert np.array_equal(np.isnan(deficit), np.isnan(m))
    inside = m < 1.0  # K diverges at m = 1
    np.testing.assert_allclose(k[inside], scipy.special.ellipk(m[inside]),
                               rtol=AGM_RTOL, atol=0.0)
    np.testing.assert_allclose(deficit[inside], _deficit_oracle(m[inside]),
                               rtol=AGM_RTOL, atol=0.0)


# (m, K, 1 - E/K) as float hex, each m run through the AGM alone: in one
# array, the slowest m sets the iteration count and can move the others'
# last bits (K at m = 0.8 by 2 ulp)
AGM_TABLE = """
0x0.0p+0 0x1.921fb54442d18p+0 0x0.0p+0
0x1.56e1fc2f8f359p-997 0x1.921fb54442d18p+0 0x1.56e1fc2f8f359p-998
0x1.87e92154ef7acp-665 0x1.921fb54442d18p+0 0x1.87e92154ef7acp-666
0x1.bff2ee48e0530p-333 0x1.921fb54442d18p+0 0x1.bff2ee48e0530p-334
0x1.4484bfeebc2a0p-100 0x1.921fb54442d18p+0 0x1.4484bfeebc2a0p-101
0x1.cd2b297d889bcp-54 0x1.921fb54442d18p+0 0x1.cd2b297d889bcp-55
0x1.b7cdfd9d7bdbbp-34 0x1.921fb5446dff0p+0 0x1.b7cdfd9d93785p-35
0x1.4f8b588e368f1p-17 0x1.921ff726a72bep+0 0x1.4f8b740b1f6acp-18
0x1.0624dd2f1a9fcp-10 0x1.9239755f5cd57p+0 0x1.062d41bdf8d60p-11
0x1.999999999999ap-5 0x1.974c0099dac08p+0 0x1.9c39e370a49c7p-6
0x1.999999999999ap-4 0x1.9cc8f4cb78b28p+0 0x1.9efe61bcd9924p-5
0x1.999999999999ap-3 0x1.a8dd1797b3b97p+0 0x1.a5047e2d96ba6p-4
0x1.3333333333333p-2 0x1.b6c17578e32c4p+0 0x1.40dfaa3df726cp-3
0x1.999999999999ap-2 0x1.c70b82708fb87p+0 0x1.b3aa7842a46bap-3
0x1.0000000000000p-1 0x1.daa4a35759e4ap+0 0x1.160b1904ca3f6p-2
0x1.3333333333333p-1 0x1.f316df3ec0d12p+0 0x1.5601f4c9df1f9p-2
0x1.6666666666666p-1 0x1.09a57fccb3dcep+1 0x1.9b59ab62fde87p-2
0x1.999999999999ap-1 0x1.20ec1aa986ba2p+1 0x1.e95e44391febbp-2
0x1.ccccccccccccdp-1 0x1.49feec2073f57p+1 0x1.24987b8860645p-1
0x1.e666666666666p-1 0x1.7444651be76bcp+1 0x1.454ee9f715b15p-1
0x1.fae147ae147aep-1 0x1.d90aa525f5667p+1 0x1.733e1424ef304p-1
0x1.fff2e48e8a71ep-1 0x1.7f763323228f5p+2 0x1.aa85fea0ada40p-1
0x1.ffffde7210be9p-1 0x1.0968de9d703d6p+3 0x1.c244ce22ed2f5p-1
0x1.ffffffaa19c47p-1 0x1.5317a1c4d1d99p+3 0x1.cfaeca180ef68p-1
0x1.ffffffff24190p-1 0x1.9cc66892121c3p+3 0x1.d84ec3e8acb12p-1
0x1.fffffffffdcd1p-1 0x1.e67546c946c36p+3 0x1.de51df493cd45p-1
0x1.fffffffffffa6p-1 0x1.18139e7b0b623p+4 0x1.e2c0388a4373bp-1
0x1.ffffffffffff7p-1 0x1.2a7f5036c0b6ap+4 0x1.e48e4d51a5c70p-1
0x1.fffffffffffffp-1 0x1.3c133ab16db98p+4 0x1.e615052b993fcp-1
"""


def test_agm_keeps_every_bit_of_its_table():
    for m, k, deficit in map(str.split, AGM_TABLE.strip().splitlines()):
        m = np.array([float.fromhex(m)])
        got = specfun._ellipk_deficit_vec(m, 1.0 - m)
        assert [float(v[0]).hex() for v in got] == [k, deficit], m


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


def test_quadrature_oracle_is_not_exported():
    # it needs scipy, a test extra: only the module holds it, for the
    # tests, and neither the package nor the module's __all__ exports it
    src = os.path.dirname(os.path.dirname(specfun.__file__))
    out = subprocess.run(
        [sys.executable, "-c",
         "import ionlattice, ionlattice.specfun as s; "
         "name = 'integrate_with_endpoint_singularity'; "
         "print(hasattr(ionlattice, name), name in ionlattice.__all__, "
         "name in s.__all__, callable(getattr(s, name)))"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        check=True)
    assert out.stdout.split() == ["False", "False", "False", "True"]
