"""The numpy stand-ins of ``ionlattice._optim`` against scipy's routines."""

import math

import numpy as np
import pytest
from scipy.optimize import least_squares as scipy_least_squares
from scipy.optimize import linear_sum_assignment
from scipy.optimize._linesearch import line_search_wolfe1

from ionlattice import (
    FitConvergenceError,
    LatticeConfig,
    TrapConfig,
    crystal,
    thermometry,
)
from ionlattice import _optim
from ionlattice import constants as cn
from ionlattice.thermometry import _gauss, fit_gaussian_profile


@pytest.mark.parametrize("n", [12, 64])
def test_line_search_equals_scipy_wolfe1(ca40, monkeypatch, n):
    # every search of a cold BFGS descent, replayed through scipy
    trap = TrapConfig.from_frequencies(85e3, 300e3)
    scaled = crystal._Dimensionless(trap, None, ca40)

    def energy_and_gradient(v):
        e, g = scaled.energy_and_gradient(v.reshape(n, 3))
        return e, g.reshape(-1)

    searches = []
    ported = _optim.line_search

    def recorded(fun, xk, pk, f0, g0, old_f0):
        step = ported(fun, xk, pk, f0, g0, old_f0)
        searches.append(((xk, pk, f0, g0, old_f0), step))
        return step

    monkeypatch.setattr(_optim, "line_search", recorded)
    u0 = crystal._string_guess(n, np.random.default_rng(7), jitter=0.02)
    _optim.minimize(energy_and_gradient, u0.reshape(-1), gtol=1e-8,
                    maxiter=4000)
    assert len(searches) > 50
    for (xk, pk, f0, g0, old_f0), step in searches:
        alpha, _, _, f, _, g = line_search_wolfe1(
            lambda x: energy_and_gradient(x)[0],
            lambda x: energy_and_gradient(x)[1],
            xk, pk, g0, f0, old_f0, amin=1e-100, amax=1e100)
        if alpha is None:
            assert step is None
            continue
        assert step[0] == alpha and step[1] == f
        np.testing.assert_array_equal(step[2], g)


def test_line_search_fails_uphill():
    def fun(x):
        return float(x @ x), 2.0 * x

    x = np.array([1.0, -2.0])
    f, g = fun(x)
    assert _optim.line_search(fun, x, g, f, g, f + 1.0) is None


@pytest.mark.parametrize("kind", ["uniform", "ties", "overlap"])
def test_assignment_reaches_the_optimal_cost(kind):
    rng = np.random.default_rng(3)
    for _ in range(300):
        n = int(rng.integers(1, 30))
        if kind == "uniform":
            cost = rng.random((n, n))
        elif kind == "ties":  # few distinct values: many optimal matchings
            cost = rng.integers(0, 3, (n, n)).astype(float)
        else:  # negated |overlap| of two orthonormal bases
            q1 = np.linalg.qr(rng.standard_normal((n, n)))[0]
            q2 = np.linalg.qr(q1 + 0.3 * rng.standard_normal((n, n)))[0]
            cost = -np.abs(q1.T @ q2)
        col = _optim.assignment(cost)
        assert sorted(col) == list(range(n))
        rows, cols = linear_sum_assignment(cost)
        best = cost[rows, cols].sum()
        assert cost[np.arange(n), col].sum() == pytest.approx(
            best, rel=1e-12, abs=1e-12)


def test_assignment_matches_scipy_along_a_sweep(ca40, trap_zigzag4,
                                                monkeypatch):
    # every branch permutation of the benchmark's zigzag sweep, avoided
    # crossing included
    calls = []

    def compared(cost):
        col = _optim.assignment(cost)
        calls.append((col, linear_sum_assignment(cost)[1]))
        return col

    monkeypatch.setattr(crystal, "assignment", compared)
    lattice = LatticeConfig(depth_U0=cn.KB * 25e-3,
                            wavevector_k=ca40.lattice_wavevector,
                            detuning=2 * math.pi * 0.76e12)
    crystal.continuation(4, trap_zigzag4, lattice, species=ca40, seed=7,
                         steps=200)
    assert len(calls) >= 199
    for col, ref in calls:
        np.testing.assert_array_equal(col, ref)


def _profile_problem(rng, weighted):
    px = np.arange(-20, 21, dtype=float)
    truth = (rng.uniform(20, 3000), rng.uniform(-3, 3), rng.uniform(0.8, 6),
             rng.uniform(0, 50))
    y = rng.poisson(_gauss(px, *truth)).astype(float)
    sig = np.sqrt(np.maximum(_gauss(px, *truth), 1.0)) if weighted \
        else np.ones_like(y)

    def resid(p):
        return (_gauss(px, *p) - y) / sig

    def jac(p):
        a, c, s, _ = p
        u = (px - c) / s
        e = np.exp(-0.5 * u * u)
        return np.column_stack([e, a * e * u / s, a * e * u * u / s,
                                np.ones_like(px)]) / sig[:, None]

    x0 = [float(np.ptp(y)), float(px[np.argmax(y)]), 3.0, float(np.min(y))]
    return resid, jac, x0


@pytest.mark.parametrize("weighted", [False, True])
def test_least_squares_matches_scipy_lm(weighted):
    rng = np.random.default_rng(11)
    for _ in range(60):
        resid, jac, x0 = _profile_problem(rng, weighted)
        ref = scipy_least_squares(resid, x0, jac=jac, method="lm",
                                  xtol=1e-14, ftol=1e-14, gtol=1e-14,
                                  max_nfev=2000)
        res = _optim.least_squares(resid, x0, jac, tol=1e-14, max_nfev=2000)
        assert res.success and ref.success
        np.testing.assert_allclose(res.x, ref.x, rtol=1e-10, atol=0.0)
        assert res.cost == pytest.approx(ref.cost, rel=1e-12)
        np.testing.assert_allclose(res.jac, ref.jac, rtol=1e-10, atol=1e-300)


def test_fit_raises_when_the_solver_gives_up(monkeypatch):
    def give_up(fun, x0, jac, tol, max_nfev):
        res = _optim.least_squares(fun, x0, jac, tol, max_nfev=2)
        assert res.nfev == 2
        return res

    monkeypatch.setattr(thermometry, "least_squares", give_up)
    px = np.arange(-10.0, 11.0)
    prof = np.column_stack([px, _gauss(px, 50.0, 0.4, 2.0, 3.0)])
    with pytest.raises(FitConvergenceError, match="did not converge"):
        fit_gaussian_profile(prof)
