"""Pendulum action/period/localization against quadrature and ODE oracles."""

import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp

from ionlattice import (
    AdiabaticityWarning,
    BeamProfile,
    DomainError,
    IonSpecies,
    LatticeConfig,
    RampProfile,
    ScatteringScenario,
    SeparatrixError,
    TurningPointError,
    action_density,
    bunching,
    bunching_given_energy,
    delocalized_scattering_probability,
    dimensionless_action,
    energy_density,
    lattice_frequency,
    mean_scattering_rate,
    normalized_period,
    position_density_given_energy,
    scan_depth,
    scattering_probability,
    scattering_rate,
)
from ionlattice import constants as cn
from ionlattice import pendulum
from ionlattice.pendulum import _4_OVER_PI, _orbit
from ionlattice.specfun import (
    _exp_sinh,
    integrate_with_endpoint_singularity,
)

U0 = cn.KB * 25e-3  # reference depth throughout


# ---------------------------------------------------------------------
# oracles: B(theta) by adaptive quadrature and in the action variable,
# and the action from its defining phase-space integral


def bunching_theta(theta, tol=1e-9):
    """B(theta) by adaptive quadrature, the reference for _bunching_vec.

    x = E/U0; P(E) dE = w(x) dx with w = exp(-s^2/(4 theta)) tau /
    sqrt(pi theta), integrated against <sin^2>(x) across the separatrix.
    """
    norm = 1.0 / math.sqrt(math.pi * theta)

    def integrand(x):
        s, tau, b = _orbit(x, abs(x - 1.0))
        return norm * math.exp(-s * s / (4.0 * theta)) * tau * b

    return integrate_with_endpoint_singularity(
        integrand, 0.0, np.inf, singular_points=[1.0], tol=tol)


def _ratio_from_action(s):
    # invert the monotone s(x), s >= 0 arrays: Newton steps on
    # tau = ds/dx, inside a bisection bracket that takes over wherever a
    # step would leave it (tau diverges at the separatrix)
    s = np.atleast_1d(np.asarray(s, dtype=float))
    lo = np.zeros_like(s)
    # free limit s ~ 2 sqrt(x), padded so s(hi) > s everywhere
    hi = 1.5 * (s / 2.0) ** 2 + 2.0
    # start on a line through (0, 0) and (4/pi, 1), then on the free limit
    x = np.where(s < _4_OVER_PI, s / _4_OVER_PI,
                 0.25 * s * s + 1.0 - 0.25 * _4_OVER_PI ** 2)
    for _ in range(60):
        # d > 0 keeps K finite should x land exactly on the separatrix
        sx, tau, _ = _orbit(x, np.maximum(np.abs(x - 1.0), 1e-300))
        f = sx - s
        lo = np.where(f < 0.0, x, lo)
        hi = np.where(f > 0.0, x, hi)
        step = x - f / tau
        done = np.abs(step - x) <= 1e-15 * x
        inside = (step > lo) & (step < hi)
        x = np.where(done | inside, step, 0.5 * (lo + hi))
        if np.all(done):
            break
    return x


def bunching_action_oracle(theta):
    """B(theta) in the action variable, for theta <= 1e-2.

    Up to theta = 1e-8, the series: K and E to O(m^3) give s = m + m^2/8
    + 3m^3/64 and <sin^2> = m/2 + m^2/16 + m^3/32, so <sin^2> = s/2 +
    s^3/128 + O(s^4) and B = sqrt(theta/pi)(1 + theta/16), with a next
    term of about 0.1 theta^1.5 relative. Above it, quad in t =
    s/(2 sqrt(theta)): B = (2/sqrt(pi)) integral exp(-t^2)
    <sin^2>(2 sqrt(theta) t) dt, split at the separatrix.
    """
    if theta <= 1e-8:
        return math.sqrt(theta / math.pi) * (1.0 + theta / 16.0)
    root = 2.0 * math.sqrt(theta)

    def integrand(t):
        x = _ratio_from_action(root * t)[0]
        return math.exp(-t * t) * float(_orbit(x, abs(x - 1.0))[2])

    sep = 2.0 / (math.pi * math.sqrt(theta))
    return 2.0 / math.sqrt(math.pi) * sum(
        quad(integrand, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
        for a, b in ((0.0, sep), (sep, np.inf)))


def action_oracle(E, u0):
    """(4/pi) integral of sqrt(x - sin^2) over the accessible interval."""
    x = E / u0
    if x <= 1.0:
        theta_t = math.asin(math.sqrt(x))
        val, _ = quad(lambda t: math.sqrt(max(x - math.sin(t) ** 2, 0.0)),
                      0.0, theta_t, epsabs=1e-13, epsrel=1e-13, limit=200)
    else:
        val, _ = quad(lambda t: math.sqrt(x - math.sin(t) ** 2),
                      0.0, math.pi / 2.0, epsabs=1e-13, epsrel=1e-13,
                      limit=200)
    return 4.0 / math.pi * val


class TestAction:
    def test_against_oracle_below_and_above(self):
        for x in [1e-6, 0.01, 0.3, 0.7, 0.999, 1.001, 1.5, 4.0, 100.0]:
            e = x * U0
            np.testing.assert_allclose(dimensionless_action(e, U0),
                                       action_oracle(e, U0), rtol=1e-9)

    def test_separatrix_value(self):
        assert dimensionless_action(U0, U0) == pytest.approx(4.0 / math.pi,
                                                             rel=1e-12)

    def test_zero_energy(self):
        assert dimensionless_action(0.0, U0) == 0.0

    def test_deep_limit(self):
        # far above the barrier the free-rotor action 2 sqrt(E/U0) applies
        e = 1e4 * U0
        assert dimensionless_action(e, U0) == pytest.approx(
            2.0 * math.sqrt(1e4), rel=1e-4)

    @settings(max_examples=150, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=50.0))
    def test_monotone_in_energy(self, x):
        e = x * U0
        e2 = (x + 1e-3) * U0
        assert dimensionless_action(e2, U0) > dimensionless_action(e, U0)


class TestPeriod:
    def test_harmonic_bottom(self):
        # normalized period -> (2/pi) K(0) = 1 at the well bottom
        assert normalized_period(1e-12 * U0, U0) == pytest.approx(1.0,
                                                                  rel=1e-6)

    def test_separatrix_divergence(self):
        with pytest.raises(SeparatrixError):
            normalized_period(U0, U0)
        assert normalized_period((1.0 - 1e-12) * U0, U0) > 5.0

    def test_tau_is_action_derivative(self):
        # tau = ds/dx on both sides of the separatrix, 1e-6 relative
        h = 1e-7
        for x in [0.05, 0.3, 0.8, 0.99, 1.01, 1.6, 3.0, 20.0]:
            ds = (dimensionless_action((x + h) * U0, U0)
                  - dimensionless_action((x - h) * U0, U0)) / (2.0 * h)
            tau = normalized_period(x * U0, U0)
            np.testing.assert_allclose(tau, ds, rtol=1e-6)


class TestEnergyDistribution:
    @pytest.mark.parametrize("theta", [0.05, 0.144, 1.0, 10.0])
    def test_energy_density_normalized(self, theta):
        t0 = theta * U0 / cn.KB

        val = integrate_with_endpoint_singularity(
            lambda e: energy_density(e, t0, U0), 0.0, np.inf,
            singular_points=[U0], tol=1e-10)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_energy_density_is_one_orbit_evaluation(self):
        # one orbit call gives s and tau: bit-equal to the two-call form
        t0 = 0.144 * U0 / cn.KB
        theta = cn.KB * t0 / U0
        for x in [0.0, 1e-9, 0.3, 0.999999, 1.000001, 1.6, 40.0]:
            e = x * U0
            s = dimensionless_action(e, U0)
            tau = normalized_period(e, U0)
            want = (math.exp(-s * s / (4.0 * theta))
                    / (U0 * math.sqrt(math.pi * theta)) * tau)
            assert energy_density(e, t0, U0) == want, x
        with pytest.raises(SeparatrixError):
            energy_density(U0, t0, U0)
        with pytest.raises(DomainError):
            energy_density(-U0, t0, U0)

    def test_action_density_normalized(self):
        t0 = 0.144 * U0 / cn.KB
        val, _ = quad(lambda s: action_density(s, t0, U0), 0.0, np.inf)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_energies_from_actions_round_trip(self, rng):
        # the half-Gaussian actions of the initial gas at T0 = 3.6 mK
        theta = cn.KB * 3.6e-3 / U0
        s = np.abs(rng.normal(0.0, math.sqrt(2.0 * theta), size=500))
        e = _ratio_from_action(s) * U0
        s_back = np.array([dimensionless_action(ei, U0) for ei in e])
        np.testing.assert_allclose(s_back, s, rtol=1e-9, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        st.floats(min_value=0.0, max_value=0.999 * 4.0 / math.pi),
        st.floats(min_value=1.001 * 4.0 / math.pi, max_value=60.0),
        st.floats(min_value=-1e-9, max_value=1e-9).map(
            lambda ds: 4.0 / math.pi + ds)))
    def test_action_inversion_round_trip(self, s):
        # s -> x by Newton on both branches and at the separatrix, then
        # back through the s(x) it inverts (the scalar closed form loses
        # relative accuracy to cancellation as s -> 0)
        x = _ratio_from_action([s])
        s_back = _orbit(x, np.maximum(np.abs(x - 1.0), 1e-300))[0][0]
        assert s_back == pytest.approx(s, rel=1e-12, abs=1e-300)


class TestPositionDistribution:
    @pytest.mark.parametrize("x", [0.1, 0.5, 0.96, 1.4, 5.0])
    def test_normalized_over_one_well(self, x):
        # support is (-zt, zt) below the barrier, the whole well above it
        e = x * U0
        zt = math.asin(math.sqrt(min(x, 1.0)))
        val = integrate_with_endpoint_singularity(
            lambda kz: position_density_given_energy(kz, e, U0),
            -zt, zt, tol=1e-9)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_forbidden_region_raises(self):
        with pytest.raises(TurningPointError):
            position_density_given_energy(1.0, 0.25 * U0, U0)

    def test_mean_sin2_consistent_with_position_density(self):
        # <sin^2> from the closed form vs direct quadrature over P(kz|E):
        # two independent routes that must agree
        for x in [0.2, 0.7, 0.98, 1.3, 6.0]:
            e = x * U0
            zt = math.asin(math.sqrt(min(x, 1.0)))
            val = integrate_with_endpoint_singularity(
                lambda kz: math.sin(kz) ** 2
                * position_density_given_energy(kz, e, U0),
                -zt, zt, tol=1e-9)
            np.testing.assert_allclose(bunching_given_energy(e, U0), val,
                                       rtol=0, atol=1e-6)

    def test_mean_sin2_limits(self):
        assert bunching_given_energy(0.0, U0) == 0.0
        assert bunching_given_energy(U0, U0) == 1.0
        assert bunching_given_energy(1e6 * U0, U0) == pytest.approx(0.5,
                                                                    rel=1e-5)


class TestBunching:
    # reference values from the defining double integral at tol 1e-10
    ANCHORS = {
        1e-5: 0.00178413,
        1e-3: 0.01784242,
        0.144: 0.21703265,
        1.0: 0.41291767,
        100.0: 0.49878840,
    }

    def test_anchor_values(self):
        for theta, b in self.ANCHORS.items():
            t0 = theta * U0 / cn.KB
            assert bunching(t0, U0) == pytest.approx(b, abs=2e-8)

    def test_deep_lattice_limit(self):
        theta = 1e-5
        t0 = theta * U0 / cn.KB
        assert bunching(t0, U0) == pytest.approx(math.sqrt(theta / math.pi),
                                                 rel=2e-3)

    def test_delocalized_limit(self):
        assert bunching(10.0, 1e-6 * cn.KB) == pytest.approx(0.5, abs=1e-4)

    def test_monotone_in_theta(self):
        t0s = np.geomspace(1e-4, 1.0, 12) * U0 / cn.KB
        vals = [bunching(t, U0) for t in t0s]
        assert np.all(np.diff(vals) > 0)

    def test_fast_path_matches_quadrature(self):
        # the fixed-node rule behind mean_scattering_rate vs the adaptive
        # quadrature of the same integral
        from ionlattice.pendulum import _bunching_vec
        rng = np.random.default_rng(5)
        thetas = 10.0 ** rng.uniform(-4.8, 3.8, 25)
        exact = np.array([bunching_theta(t, 1e-10) for t in thetas])
        np.testing.assert_allclose(_bunching_vec(thetas), exact,
                                   rtol=0, atol=1e-6)

    def test_fixed_rule_accuracy_over_theta_range(self):
        from ionlattice.pendulum import _bunching_vec
        thetas = np.geomspace(1e-5, 1e5, 31)
        exact = np.array([bunching_theta(t, 1e-10) for t in thetas])
        np.testing.assert_allclose(_bunching_vec(thetas), exact,
                                   rtol=0, atol=1e-8)

    def test_vector_matches_scalar_calls(self):
        # chunked evaluation must not depend on where a theta falls
        from ionlattice.pendulum import _bunching_vec
        thetas = np.geomspace(1e-3, 1e3, 300).reshape(3, 100)
        scalar = [bunching(t * U0 / cn.KB, U0) for t in thetas.ravel()]
        np.testing.assert_allclose(_bunching_vec(thetas).ravel(), scalar,
                                   rtol=1e-13, atol=0)

    def test_matches_action_oracle_at_every_theta(self):
        # one table at every theta, from the well bottom's sqrt(theta/pi)
        # limit to the paper's regime
        from ionlattice.pendulum import _bunching_vec
        thetas = np.concatenate([np.geomspace(1e-300, 1e-9, 60),
                                 np.geomspace(1e-8, 1e-2, 7)])
        exact = np.array([bunching_action_oracle(t) for t in thetas])
        np.testing.assert_allclose(_bunching_vec(thetas), exact,
                                   rtol=1e-10, atol=0)
        # the public API at a subnormal theta
        t0, u0 = 1e-3, 1e-3 * cn.KB / 1e-320
        theta = cn.KB * t0 / u0
        assert bunching(t0, u0) == pytest.approx(
            math.sqrt(theta) / math.sqrt(math.pi), rel=1e-12, abs=0.0)

    def test_extreme_theta_stays_finite(self):
        from ionlattice.pendulum import _bunching_vec
        vals = _bunching_vec(np.array([1e-300, 1e40, 1e300]))
        assert vals[0] == pytest.approx(0.0, abs=1e-100)
        np.testing.assert_allclose(vals[1:], 0.5, rtol=0, atol=1e-15)


# the upper rule and the theta clamp of that evaluation, frozen here
_AGM_UP_U, _AGM_UP_W = _exp_sinh(-4.5, 2.0)
_AGM_THETA_FREE = 1e30


def _bunching_every_chunk_on_agm(theta):
    # B(theta) with the upper panel as computed before it was tabulated:
    # every block runs the orbit on its upper nodes, scaled by
    # max(1, theta). The lower panel is the module's, its s/2 added back
    # in closed form, so that only the upper panel is compared
    p = pendulum
    theta = np.minimum(np.asarray(theta, dtype=float), _AGM_THETA_FREE)
    flat = theta.ravel()
    out = np.empty_like(flat)
    for start in range(0, flat.size, p._THETA_CHUNK):
        th = flat[start:start + p._THETA_CHUNK, None]
        scale = np.maximum(th, 1.0)
        d = scale * _AGM_UP_U
        s, tau, sin2 = _orbit(1.0 + d, d)
        upper = (np.exp(-0.25 * s * s / th) * tau * sin2) @ _AGM_UP_W
        lower = np.exp(-0.25 * p._LOW_S ** 2 / th) @ p._LOW_WEIGHT
        well = np.sqrt(th[:, 0] / math.pi) * -np.expm1(
            -4.0 / (math.pi ** 2 * th[:, 0]))
        out[start:start + p._THETA_CHUNK] = (
            (lower + scale[:, 0] * upper) / np.sqrt(math.pi * th[:, 0])
            + well)
    return out.reshape(theta.shape)


class TestBunchingTable:
    """The one tabulated path against the all-AGM evaluation."""

    def test_matches_all_agm_evaluation(self):
        # a different upper rule, so the two agree to the rules' error,
        # not to rounding
        thetas = np.geomspace(1e-5, 1e31, 4000).reshape(40, 100)
        got = pendulum._bunching_vec(thetas)
        assert got.shape == thetas.shape
        np.testing.assert_allclose(got, _bunching_every_chunk_on_agm(thetas),
                                   rtol=0, atol=1e-11)

    def test_shuffled_mix_matches_each_alone(self):
        # a theta's value does not depend on the others in its block
        rng = np.random.default_rng(8)
        thetas = rng.permutation(np.concatenate([
            np.geomspace(1e-4, 1e4, 397),
            [np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 1e40]]))
        mixed = pendulum._bunching_vec(thetas)
        alone = [pendulum._bunching_vec(np.array([t]))[0] for t in thetas]
        np.testing.assert_allclose(mixed, alone, rtol=0, atol=1e-15)
        edge = pendulum._bunching_vec(
            np.array([np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)]))
        np.testing.assert_allclose(edge, edge[1], rtol=0, atol=1e-15)

    def test_nan_gives_nan_beside_finite_values(self):
        with np.errstate(invalid="ignore"):
            vals = pendulum._bunching_vec(np.array([0.5, np.nan, 2.0]))
        assert np.isnan(vals[1]) and np.all(np.isfinite(vals[[0, 2]]))

    def test_no_theta_runs_the_agm(self, monkeypatch):
        calls = []
        agm = pendulum._ellipk_deficit_vec

        def counted(m, mc):
            calls.append(np.shape(m))
            return agm(m, mc)

        monkeypatch.setattr(pendulum, "_ellipk_deficit_vec", counted)
        thetas = np.append(np.geomspace(1e-5, 1e31, 4000), [np.inf, np.nan])
        vals = pendulum._bunching_vec(thetas)
        assert calls == []
        assert vals[-2] == 0.5 and np.isnan(vals[-1])

    def test_table_path_stays_chunked(self):
        # one (theta, node) array over all 200k thetas takes the input's
        # bytes once per node (126 upper, 103 lower); blocked, the peak is
        # about 1.2x the input's bytes. 21x is the bound of the 105-node
        # upper rule this replaced, kept fixed
        thetas = np.geomspace(1e-5, 1.0, 200_000)
        pendulum._bunching_vec(thetas[:10])
        tracemalloc.start()
        try:
            pendulum._bunching_vec(thetas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 21 * thetas.nbytes


# ---------------------------------------------------------------------
# species / lattice / ramp plumbing


class TestParameterBundles:
    def test_lattice_frequency_anchor(self, ca40):
        nu = lattice_frequency(25e-3, ca40, ca40.lattice_wavevector)
        assert nu == pytest.approx(3.7244e6, rel=1e-4)

    def test_depth_frequency_round_trip(self, ca40):
        cfg = LatticeConfig(depth_U0=U0, wavevector_k=ca40.lattice_wavevector,
                            detuning=2 * math.pi * 0.76e12)
        nu = cfg.vibrational_frequency(ca40)
        assert nu == pytest.approx(
            lattice_frequency(25e-3, ca40, ca40.lattice_wavevector),
            rel=1e-12)

    def test_lattice_sign_consistency(self, ca40):
        with pytest.raises(DomainError):
            LatticeConfig(depth_U0=U0, wavevector_k=ca40.lattice_wavevector,
                          detuning=-2 * math.pi * 0.76e12)

    def test_ramp_profile(self):
        ramp = RampProfile(u0_max=U0, ramp_duration=2e-6, hold_duration=1e-6)
        assert ramp.depth(0.0) == 0.0
        assert ramp.depth(1e-6) == pytest.approx(0.5 * U0)
        assert ramp.depth(2e-6) == U0
        assert ramp.depth(3e-6) == U0
        with pytest.raises(DomainError):
            ramp.depth(-1e-9)
        with pytest.raises(DomainError):
            ramp.depth(3e-6 + 1e-9)

    def test_smoothstep_shape(self):
        ramp = RampProfile(u0_max=U0, ramp_duration=2e-6, hold_duration=0.0,
                           shape="smoothstep")
        assert ramp.depth(1e-6) == pytest.approx(0.5 * U0)
        assert ramp.depth(0.5e-6) < 0.25 * U0  # slow start

    def test_bad_shape(self):
        with pytest.raises(DomainError):
            RampProfile(u0_max=U0, ramp_duration=1e-6, hold_duration=0.0,
                        shape="cubic")


# ---------------------------------------------------------------------
# scattering


def _blue(ca40, depth=U0):
    return LatticeConfig(depth_U0=depth, wavevector_k=ca40.lattice_wavevector,
                         detuning=2 * math.pi * 0.76e12)


def _red(ca40, depth=U0):
    return LatticeConfig(depth_U0=-depth,
                         wavevector_k=ca40.lattice_wavevector,
                         detuning=-2 * math.pi * 0.76e12)


PAPER_RAMP = RampProfile(u0_max=U0, ramp_duration=2e-6, hold_duration=1e-6)

NAN_CALLS = {
    "bunching T0": lambda sp, cfg: bunching(math.nan, U0),
    "bunching U0": lambda sp, cfg: bunching(3.6e-3, math.nan),
    "action E": lambda sp, cfg: dimensionless_action(math.nan, U0),
    "action U0": lambda sp, cfg: dimensionless_action(0.5 * U0, math.nan),
    "period E": lambda sp, cfg: normalized_period(math.nan, U0),
    "bunching_given_energy E": lambda sp, cfg: bunching_given_energy(
        math.nan, U0),
    "action density T0": lambda sp, cfg: action_density(1.0, math.nan, U0),
    "rate T0": lambda sp, cfg: mean_scattering_rate(
        2.5e-6, math.nan, PAPER_RAMP, cfg, sp),
    "probability T0": lambda sp, cfg: scattering_probability(
        3e-6, math.nan, PAPER_RAMP, cfg, sp),
    "probability t0": lambda sp, cfg: scattering_probability(
        math.nan, 3.6e-3, PAPER_RAMP, cfg, sp),
}


@pytest.mark.parametrize("name", sorted(NAN_CALLS))
def test_nan_input_rejected(name, ca40):
    # a NaN must fail the domain check, not come back as a NaN result
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError):
            NAN_CALLS[name](ca40, _blue(ca40))


CA40 = IonSpecies.ca40()


def _ramp_to(u0):
    return RampProfile(u0_max=u0, ramp_duration=2e-6, hold_duration=1e-6)


def _one_ion_scenario(t0):
    # a single ion on the beam axis
    return ScatteringScenario(
        crystal=SimpleNamespace(positions=np.zeros((1, 3))), species=CA40,
        lattice=_blue(CA40), ramp=PAPER_RAMP, T0=t0)


T0_U0_CALLS = {
    "bunching": lambda t0, u0: bunching(t0, u0),
    "action density": lambda t0, u0: action_density(0.1, t0, u0),
    "energy density": lambda t0, u0: energy_density(1e-3 * U0, t0, u0),
    "mean rate": lambda t0, u0: mean_scattering_rate(
        1e-6, t0, _ramp_to(u0), _blue(CA40), CA40),
    "probability": lambda t0, u0: scattering_probability(
        3e-6, t0, _ramp_to(u0), _blue(CA40), CA40),
    "scan_depth": lambda t0, u0: scan_depth(
        _one_ion_scenario(t0), BeamProfile(waist_radius=37e-6), [u0]),
}
# infinite T0 or U0, and a depth so large that kB*T0/U0 underflows to 0
BAD_T0_U0 = {
    "T0 inf": (math.inf, U0),
    "U0 inf": (1e-3, math.inf),
    "U0 -inf": (1e-3, -math.inf),
    "theta underflow": (1e-3, 1e300),
}


@pytest.mark.parametrize("case", sorted(BAD_T0_U0))
@pytest.mark.parametrize("name", sorted(T0_U0_CALLS))
def test_non_finite_t0_u0_rejected(name, case):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError):
            T0_U0_CALLS[name](*BAD_T0_U0[case])


# the functions of one orbit energy E, each at E = inf
E_INF_CALLS = {
    "dimensionless_action": lambda: dimensionless_action(math.inf, U0),
    "normalized_period": lambda: normalized_period(math.inf, U0),
    "energy_density": lambda: energy_density(math.inf, 1e-3, U0),
    "position_density_given_energy": lambda: position_density_given_energy(
        0.3, math.inf, U0),
    "bunching_given_energy": lambda: bunching_given_energy(math.inf, U0),
}


@pytest.mark.parametrize("name", sorted(E_INF_CALLS))
def test_infinite_energy_rejected(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError, match="E must be"):
            E_INF_CALLS[name]()


def test_infinite_depth_is_the_well_bottom_limit():
    # E/U0 = 0: no action, the small-oscillation period, no bunching
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert dimensionless_action(1e-3 * U0, math.inf) == 0.0
        assert normalized_period(1e-3 * U0, math.inf) == 1.0
        assert bunching_given_energy(1e-3 * U0, math.inf) == 0.0


def test_tiny_positive_theta_accepted():
    # a subnormal theta is still > 0, and B ~ sqrt(theta/pi) there
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert bunching(1e-3, 1e-3 * cn.KB / 1e-310) == pytest.approx(
            math.sqrt(1e-310 / math.pi), rel=1e-12, abs=0.0)


class TestScattering:
    def test_rate_vanishes_at_node(self, ca40):
        cfg = _blue(ca40)
        assert scattering_rate(0.0, cfg.rabi, cfg, ca40) == 0.0

    def test_full_lorentzian_far_detuned_limit(self, ca40):
        # at 0.76 THz the Lorentzian collapses onto the U0-proportional
        # form within (Gamma/Delta)^2 corrections
        cfg = _blue(ca40)
        kz = 0.7
        full = scattering_rate(kz, cfg.rabi, cfg, ca40)
        far = (ca40.gamma_397 / (cn.HBAR * abs(cfg.detuning)) * U0
               * math.sin(kz) ** 2)
        np.testing.assert_allclose(full, far, rtol=1e-3)

    def test_probability_against_ode_oracle(self, ca40):
        # independent route: integrate dp/dt = <Gamma>(t) (1 - p) directly
        for cfg in (_blue(ca40), _red(ca40)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", AdiabaticityWarning)
                p = scattering_probability(3e-6, 3.6e-3, PAPER_RAMP, cfg,
                                           ca40)

            def rhs(t, y):
                return [mean_scattering_rate(t, 3.6e-3, PAPER_RAMP, cfg,
                                             ca40) * (1.0 - y[0])]

            sol = solve_ivp(rhs, (0.0, 3e-6), [0.0], rtol=1e-10, atol=1e-14,
                            dense_output=False, max_step=1e-7)
            np.testing.assert_allclose(p, sol.y[0, -1], rtol=0, atol=1e-6)

    def test_red_exceeds_blue(self, ca40):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AdiabaticityWarning)
            for t0 in (1e-3, 3.6e-3, 10e-3):
                pb = scattering_probability(3e-6, t0, PAPER_RAMP,
                                            _blue(ca40), ca40)
                pr = scattering_probability(3e-6, t0, PAPER_RAMP,
                                            _red(ca40), ca40)
                assert pr >= pb

    def test_probability_monotone_in_time(self, ca40):
        cfg = _blue(ca40)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AdiabaticityWarning)
            ps = [scattering_probability(t, 3.6e-3, PAPER_RAMP, cfg, ca40)
                  for t in (0.5e-6, 1e-6, 2e-6, 3e-6)]
        assert np.all(np.diff(ps) > 0)

    def test_pumping_scales_linearly(self, ca40):
        cfg = _blue(ca40)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AdiabaticityWarning)
            p1 = scattering_probability(3e-6, 3.6e-3, PAPER_RAMP, cfg, ca40)
            p2 = scattering_probability(3e-6, 3.6e-3, PAPER_RAMP, cfg, ca40,
                                        p0=0.5)
        assert p2 == pytest.approx(0.5 * p1, rel=1e-12)

    def test_adiabaticity_warning_on_fast_ramp(self, ca40):
        cfg = _blue(ca40)
        fast = RampProfile(u0_max=U0, ramp_duration=50e-9,
                           hold_duration=1e-6)
        with pytest.warns(AdiabaticityWarning):
            scattering_probability(1e-6, 3.6e-3, fast, cfg, ca40)

    def test_rule_error_in_p_warns(self, ca40, monkeypatch):
        # a nested rule off by 1e-3 makes the estimate of dp about 1e-4
        monkeypatch.setattr(pendulum, "_TS_W2", pendulum._TS_W2 * 1.001)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AdiabaticityWarning)
            with pytest.warns(RuntimeWarning, match="probability only"):
                scattering_probability(3e-6, 3.6e-3, PAPER_RAMP,
                                       _blue(ca40), ca40)

    def test_delocalized_baseline(self, ca40):
        # closed form: exponent = pref * integral of U0(t) / 2
        cfg = _blue(ca40)
        p = delocalized_scattering_probability(3e-6, PAPER_RAMP, cfg, ca40)
        pref = ca40.gamma_397 / (cn.HBAR * cfg.detuning)
        expo = 0.5 * pref * U0 * (1e-6 + 1e-6)  # ramp/2 + hold
        assert p == pytest.approx(-math.expm1(-expo), rel=1e-9)
        # red and blue coincide on the uniform baseline
        pr = delocalized_scattering_probability(3e-6, PAPER_RAMP, _red(ca40),
                                                ca40)
        assert pr == pytest.approx(p, rel=1e-12)

    @pytest.mark.parametrize("shape", ["linear", "smoothstep"])
    @pytest.mark.parametrize("t0", [1.3e-6, 2.5e-6, 5e-6])
    def test_delocalized_closed_form_matches_quadrature(self, ca40, shape,
                                                        t0):
        # t0 inside the ramp, inside the hold and past the end
        ramp = RampProfile(u0_max=U0, ramp_duration=2e-6, hold_duration=1e-6,
                           shape=shape)
        cfg = _blue(ca40)
        # polynomial on each panel, which Gauss-Kronrod integrates exactly
        depth_integral, _ = quad(ramp.depth, 0.0, min(t0, ramp.t_end),
                                 points=[ramp.ramp_duration], epsabs=0.0,
                                 epsrel=1e-13, limit=200)
        pref = ca40.gamma_397 / (cn.HBAR * cfg.detuning)
        expect = -math.expm1(-0.5 * pref * depth_integral)
        p = delocalized_scattering_probability(t0, ramp, cfg, ca40)
        assert p == pytest.approx(expect, rel=1e-13)

    def test_static_lattice_needs_detuning(self, ca40):
        cfg = LatticeConfig(depth_U0=U0,
                            wavevector_k=ca40.lattice_wavevector,
                            detuning=0.0)
        with pytest.raises(DomainError):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", AdiabaticityWarning)
                scattering_probability(3e-6, 3.6e-3, PAPER_RAMP, cfg, ca40)
