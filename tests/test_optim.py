"""The numpy stand-ins of ``ionlattice._optim`` against scipy's routines.

The batched Levenberg-Marquardt fit is also held, problem by problem, to
the same problem solved alone.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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


def _search(fun, xk, pk, f0, g0, old_f0):
    # the line search driven by fun alone, as minimize drives a lane's
    search = _optim.line_search(xk, pk, f0, g0, old_f0)
    try:
        x = next(search)
        while True:
            x = search.send(fun(x))
    except StopIteration as done:
        return done.value


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

    def recorded(xk, pk, f0, g0, old_f0):
        step = yield from ported(xk, pk, f0, g0, old_f0)
        searches.append(((xk, pk, f0, g0, old_f0), step))
        return step

    monkeypatch.setattr(_optim, "line_search", recorded)
    u0 = crystal._string_guess(n, np.random.default_rng(7), jitter=0.02)
    _optim.minimize(energy_and_gradient, u0.reshape(1, -1), gtol=1e-8,
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


@pytest.mark.parametrize("n", [3, 12, 192])
def test_rank_two_update_equals_outer_sum(n):
    # the in-place update against the expression it replaced, on random
    # symmetric h and random s, y, then chained: h stays exactly symmetric
    rng = np.random.default_rng(n)
    sa, as_ = np.empty((n, n)), np.empty((n, n))
    for _ in range(10):
        m = rng.standard_normal((n, n))
        h = m + m.T
        s, y = rng.standard_normal(n), rng.standard_normal(n)
        a = 0.5 * (np.dot(y, h @ y) + 1.0) * s - h @ y
        old = h + (np.outer(s, a) + np.outer(s, a).T)
        _optim._rank_two_update(h, s, a, sa, as_)
        assert np.array_equal(h, old)
    h = np.eye(n)
    for _ in range(50):
        s, y = rng.standard_normal(n), rng.standard_normal(n)
        rho = 1.0 / np.dot(y, s)
        hy = h @ y
        a = 0.5 * (rho * rho * np.dot(y, hy) + rho) * s - rho * hy
        _optim._rank_two_update(h, s, a, sa, as_)
        assert np.array_equal(h, h.T)
    assert np.all(np.isfinite(h))


def test_line_search_fails_uphill():
    def fun(x):
        return float(x @ x), 2.0 * x

    x = np.array([1.0, -2.0])
    f, g = fun(x)
    assert _search(fun, x, g, f, g, f + 1.0) is None


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


def _profile_problem(rng, weighted, half_width=20):
    px = np.arange(-half_width, half_width + 1, dtype=float)
    truth = (rng.uniform(20, 3000), rng.uniform(-3, 3),
             rng.uniform(0.8, min(6.0, half_width / 2)), rng.uniform(0, 50))
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
    # no higher a cost than scipy's MINPACK, and x within 1e-6 standard
    # errors of the stationary point that Gauss-Newton steps polish from
    # scipy's x (scipy's own x is up to about 2.3e-7 from it)
    rng = np.random.default_rng(11)
    for _ in range(60):
        resid, jac, x0 = _profile_problem(rng, weighted)
        ref = scipy_least_squares(resid, x0, jac=jac, method="lm",
                                  xtol=1e-14, ftol=1e-14, gtol=1e-14,
                                  max_nfev=2000)
        res = _optim.least_squares(resid, x0, jac, tol=1e-14, max_nfev=2000)
        assert res.success and ref.success
        assert res.cost <= ref.cost * (1.0 + 1e-12)
        x = ref.x
        for _ in range(20):
            x = x - np.linalg.lstsq(jac(x), resid(x), rcond=None)[0]
        j = jac(x)
        se = np.sqrt(np.diag(2.0 * res.cost / (len(j) - 4)
                             * np.linalg.inv(j.T @ j)))
        assert np.all(np.abs(res.x - x) <= 1e-6 * se)
        assert np.array_equal(res.jac, jac(res.x))


def test_fit_raises_when_the_solver_gives_up(monkeypatch):
    def give_up(fun, x0, jac, lengths, tol, max_nfev, ran_away):
        res = _optim.least_squares_batch(fun, x0, jac, lengths, tol,
                                         max_nfev=2, ran_away=ran_away)
        assert res.nfev == 2
        return res

    monkeypatch.setattr(thermometry, "least_squares_batch", give_up)
    px = np.arange(-10.0, 11.0)
    prof = np.column_stack([px, _gauss(px, 50.0, 0.4, 2.0, 3.0)])
    with pytest.raises(FitConvergenceError, match="did not converge"):
        fit_gaussian_profile(prof)


def _batch(problems, pad=0, fill=np.nan):
    """fun, jac and lengths of least_squares_batch over (fun, jac, x0) problems.

    Each problem keeps its own callables; the M - m entries past a
    problem's m residuals hold fill.
    """
    lengths = [len(fun(np.asarray(x0, dtype=float)))
               for fun, _, x0 in problems]
    width = max(lengths) + pad

    def fun(x, rows):
        out = np.full((len(rows), width), fill)
        for k, (row, p) in enumerate(zip(rows, x)):
            out[k, :lengths[row]] = problems[row][0](p)
        return out

    def jac(x, rows):
        out = np.full((len(rows), width, x.shape[1]), fill)
        for k, (row, p) in enumerate(zip(rows, x)):
            out[k, :lengths[row]] = problems[row][1](p)
        return out
    return fun, jac, lengths


def _solve_batch(problems, pad=0, fill=np.nan, max_nfev=2000):
    fun, jac, lengths = _batch(problems, pad, fill)
    return _optim.least_squares_batch(fun, [x0 for _, _, x0 in problems],
                                      jac, lengths, tol=1e-14,
                                      max_nfev=max_nfev)


def _assert_each_as_alone(problems, res, max_nfev=2000):
    # every lane bit for bit as its problem solved alone, a batch of one
    for k, (fun, jac, x0) in enumerate(problems):
        ref = _optim.least_squares(fun, x0, jac, tol=1e-14,
                                   max_nfev=max_nfev)
        assert np.array_equal(res.x[k], ref.x)
        assert res.cost[k] == ref.cost
        assert np.array_equal(res.jac[k, :len(ref.jac)], ref.jac)
        assert res.nfev[k] == ref.nfev
        assert res.success[k] == ref.success
        assert res.message[k] == ref.message


@settings(max_examples=30, deadline=None)
@given(seeds=st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=6),
       widths=st.lists(st.integers(4, 20), min_size=6, max_size=6),
       pad=st.integers(0, 4), fill=st.sampled_from([0.0, np.nan, 1e300]))
def test_batch_matches_each_problem_alone(seeds, widths, pad, fill):
    # whatever else is in the batch, in whatever order and padding
    problems = [_profile_problem(np.random.default_rng(seed), seed % 2 == 1,
                                 half_width=w)
                for seed, w in zip(seeds, widths)]
    res = _solve_batch(problems, pad, fill)
    _assert_each_as_alone(problems, res)
    if len(problems) > 1:  # the same problems reversed
        back = _solve_batch(problems[::-1], pad, fill)
        for name in ("x", "cost", "nfev", "success"):
            assert np.array_equal(getattr(back, name)[::-1],
                                  getattr(res, name))


def test_least_squares_is_a_batch_of_one():
    # the one problem's fields, unstacked, with the types of scipy's
    fun, jac, x0 = _profile_problem(np.random.default_rng(3), True)
    one = _optim.least_squares(fun, x0, jac, tol=1e-14, max_nfev=2000)
    batch = _solve_batch([(fun, jac, x0)])
    assert np.array_equal(one.x, batch.x[0]) and one.x.shape == (4,)
    assert np.array_equal(one.jac, batch.jac[0]) and one.jac.shape == (41, 4)
    assert (one.cost, one.nfev, one.success, one.message) == (
        batch.cost[0], batch.nfev[0], batch.success[0], batch.message[0])
    assert [type(v) for v in one[1:]] == [float, np.ndarray, int, bool, str]


def _linear_problem(a, y):
    # residuals a p - y: a zero or dependent column of a stays one of J
    return (lambda p: a @ p - y), (lambda p: a.copy()), np.zeros(a.shape[1])


def _rank_deficient(case, rng):
    a = 0.5 * rng.standard_normal((12, 4))
    if case == "zero_column":
        a[:, 2] = 0.0
    else:  # column 3 is exactly twice column 1
        a[:, 1], a[:, 3] = 0.0, 0.0
        a[0, 1], a[0, 3] = 4.0, 8.0
    y = 300.0 * rng.standard_normal(12)
    return _linear_problem(a, y), a, y


@pytest.mark.parametrize("lam0", [1e-3, 1e-300])
@pytest.mark.parametrize("case", ["zero_column", "dependent_columns"])
def test_rank_deficient_jacobian_reaches_the_least_squares_cost(
        case, lam0, monkeypatch):
    # next to two profiles, a linear problem whose J^T J is singular. With
    # the first damping at 1e-300, J^T J + lam D^2 of dependent columns is
    # singular in floating point too, and the step is the least-norm one
    monkeypatch.setattr(_optim, "_LAM0", lam0)
    pinv, taken = np.linalg.pinv, []
    monkeypatch.setattr(np.linalg, "pinv",
                        lambda m: taken.append(m) or pinv(m))
    rng = np.random.default_rng(3)
    problem, a, y = _rank_deficient(case, rng)
    problems = [_profile_problem(rng, False), problem,
                _profile_problem(rng, True)]
    res = _solve_batch(problems)
    assert bool(taken) == (case == "dependent_columns" and lam0 < 1e-3)
    _assert_each_as_alone(problems, res)
    assert res.success.all()
    best = np.linalg.lstsq(a, y, rcond=None)[0]
    assert res.cost[1] == pytest.approx(0.5 * np.sum((a @ best - y) ** 2),
                                        rel=1e-12)


def test_a_problem_that_runs_away_stops_while_others_converge():
    # problem 1 is flagged at its first step and stops there, failed; the
    # rest get the bits they get alone
    rng = np.random.default_rng(23)
    problems = [_profile_problem(rng, k % 2 == 1) for k in range(3)]
    fun, jac, lengths = _batch(problems)
    flagged = []

    def ran_away(x, rows):
        flagged.append(rows.tolist())
        return rows == 1

    res = _optim.least_squares_batch(fun, [x0 for _, _, x0 in problems],
                                     jac, lengths, tol=1e-14, max_nfev=2000,
                                     ran_away=ran_away)
    assert flagged[0] == [0, 1, 2] and all(1 not in f for f in flagged[1:])
    assert (res.nfev[1], res.success[1], res.message[1]) == (
        2, False, "the solution ran away")
    for k in (0, 2):
        fun_k, jac_k, x0 = problems[k]
        ref = _optim.least_squares(fun_k, x0, jac_k, tol=1e-14,
                                   max_nfev=2000)
        assert np.array_equal(res.x[k], ref.x)
        assert (res.nfev[k], res.success[k]) == (ref.nfev, True)


def test_one_problem_runs_out_of_evaluations_while_others_converge():
    rng = np.random.default_rng(23)
    problems = [_profile_problem(rng, k % 2 == 1) for k in range(8)]
    res = _solve_batch(problems, max_nfev=9)
    stops = set(res.message)
    assert "the maximum number of function evaluations is exceeded" in stops
    assert res.success.any() and not res.success.all()
    _assert_each_as_alone(problems, res, max_nfev=9)
