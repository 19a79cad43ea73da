"""Acceptance gate: one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line;
each test prints its verdict before asserting so failures still report.
"""

import math
import time
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad, solve_ivp
from scipy.stats import binom

from ionlattice import (
    AdiabaticityWarning,
    BeamProfile,
    LatticeConfig,
    RampProfile,
    ScatteringScenario,
    TrapConfig,
    bunching,
    classify_structure,
    continuation,
    delocalized_scattering_probability,
    dimensionless_action,
    elliptic_e,
    elliptic_k,
    energy_density,
    estimate_temperature,
    excess_micromotion,
    lattice_frequency,
    mean_scattering_rate,
    normalized_period,
    position_density_given_energy,
    scan_depth,
    scatter_count_pmf,
    scattering_probability,
    synthesize_spots,
)
from ionlattice import constants as cn
from ionlattice.specfun import integrate_with_endpoint_singularity

U25 = cn.KB * 25e-3


def _report(num, label, ok, detail):
    print(f"ACCEPTANCE {num} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {label}: {detail}"


def _blue(ca40, depth):
    return LatticeConfig(depth_U0=depth,
                         wavevector_k=ca40.lattice_wavevector,
                         detuning=2 * math.pi * 0.76e12)


def _latt_at_nu(ca40, nu):
    k = ca40.lattice_wavevector
    return _blue(ca40, ca40.mass * (2 * math.pi * nu) ** 2 / (2 * k * k))


def test_01_lattice_frequency_anchor(ca40):
    nu = lattice_frequency(25e-3, ca40, ca40.lattice_wavevector)
    ok = abs(nu / 3.7e6 - 1.0) <= 0.02
    _report(1, "lattice frequency 25 mK", ok, f"{nu / 1e6:.4f} MHz vs 3.7 "
            "MHz +-2%")


def test_02_bunching_anchor():
    start = time.perf_counter()
    vals = {t0: bunching(t0 * 1e-3, U25) for t0 in (3.6, 3.5, 3.1)}
    elapsed = time.perf_counter() - start
    ok = all(0.19 <= b <= 0.25 for b in vals.values()) and elapsed < 60
    detail = ", ".join(f"T0={t0} mK: B={b:.4f}" for t0, b in vals.items())
    _report(2, "bunching at 25 mK", ok, f"{detail}; {elapsed:.1f} s")


def test_03_avoided_crossing(ca40, trap_zigzag4):
    start = time.perf_counter()
    res = continuation(4, trap_zigzag4, _latt_at_nu(ca40, 0.25e6),
                       steps=200, species=ca40, seed=7)
    elapsed = time.perf_counter() - start
    az = res.block_weight("z")

    def at(nu):
        i = int(np.argmin(np.abs(res.nu_latt - nu)))
        return az[2, i], az[3, i]

    b2_lo, b3_lo = at(0.05e6)
    b2_mid, b3_mid = at(0.10e6)
    b2_hi, b3_hi = at(0.20e6)
    ok = (b2_lo > 0.9 and b3_lo < 0.2          # pure before the window
          and min(b2_mid, 1 - b3_mid) < 0.5    # mixing under way at 0.1
          and b2_mid < 0.9 and b3_mid > 0.2
          and b2_hi < 0.1 and b3_hi > 0.9      # swapped by 0.2
          and elapsed < 300)
    _report(3, "mode 2/3 exchange in [0.1, 0.2] MHz", ok,
            f"axial weight b2: {b2_lo:.2f}->{b2_mid:.2f}->{b2_hi:.2f}, "
            f"b3: {b3_lo:.2f}->{b3_mid:.2f}->{b3_hi:.2f}; "
            f"{len(res.nu_latt)}-pt sweep in {elapsed:.1f} s")


def test_04_deep_lattice_degeneracy(ca40):
    latt5 = _latt_at_nu(ca40, 5e6)
    worst = 0.0
    counts = []
    for fz, fr, n, seed, kw in (
            (70e3, 350e3, 8, 3, {}),
            (85e3, 170e3, 4, 7, {"q_axial": 5e-4}),
            (105e3, 190e3, 6, 1, {})):
        trap = TrapConfig.from_frequencies(fz, fr, **kw)
        res = continuation(n, trap, latt5, steps=60, species=ca40,
                           seed=seed)
        dom = res.block_weight("z")[:, -1] > 0.5
        rel = np.abs(res.frequencies[dom, -1] / 5e6 - 1.0)
        worst = max(worst, float(rel.max()))
        counts.append(int(dom.sum()))
    ok = worst <= 0.01 and counts == [8, 4, 6]
    _report(4, "axial branches at nu_latt for 5 MHz lattice", ok,
            f"axial-dominant counts {counts}, worst offset {worst:.3%}")


def test_05_highest_mode(string8_modes):
    top = string8_modes.frequencies.max() / (2.0 * math.pi)
    ok = abs(top / 385e3 - 1.0) <= 0.05
    _report(5, "8-ion top mode", ok, f"{top / 1e3:.1f} kHz vs 385 kHz +-5%")


def test_06_structure_regimes(string8, trap_string8, zigzag4, trap_zigzag4,
                              octa6, trap_octa6):
    r8 = classify_structure(string8.positions, trap_string8)
    r4 = classify_structure(zigzag4.positions, trap_zigzag4)
    r6 = classify_structure(octa6.positions, trap_octa6)
    ok = (r8.kind == "linear" and r4.kind == "planar"
          and r6.kind == "three-dimensional" and r6.out_of_plane_count == 2)
    _report(6, "structure regimes", ok,
            f"N=8: {r8.kind}, N=4: {r4.kind}, N=6: {r6.kind} with "
            f"{r6.out_of_plane_count} out of plane")


def test_07_subsequent_fraction_ceiling(string8, ca40):
    start = time.perf_counter()
    ramp = RampProfile(u0_max=U25, ramp_duration=2e-6, hold_duration=1e-6)
    scen = ScatteringScenario(crystal=string8, species=ca40,
                              lattice=_blue(ca40, U25), ramp=ramp,
                              T0=3.6e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AdiabaticityWarning)
        table = scan_depth(scen, BeamProfile(waist_radius=37e-6),
                           np.linspace(0.0, U25, 26))
    elapsed = time.perf_counter() - start
    fmax = max(row["subsequent_fraction"] for row in table)
    ok = fmax < 0.15 and elapsed < 60
    _report(7, "subsequent fraction below 15%", ok,
            f"max f = {fmax:.4f} over 26 depths <= 25 mK; {elapsed:.1f} s")


def test_08_micromotion_brackets(zigzag4, trap_zigzag4, octa6, trap_octa6,
                                 ca40):
    rep_z = excess_micromotion(zigzag4, trap_zigzag4, species=ca40)
    rep_o = excess_micromotion(octa6, trap_octa6, species=ca40)
    t_z = float(rep_z.equivalent_temperature[:, :2].sum(axis=1).max())
    t_o = float(rep_o.equivalent_temperature[:, :2].sum(axis=1).max())
    ok = 0.08 <= t_z <= 0.24 and 0.4 <= t_o <= 1.2
    _report(8, "micromotion temperatures", ok,
            f"zigzag {t_z * 1e3:.0f} mK in [80, 240], octahedron "
            f"{t_o * 1e3:.0f} mK in [400, 1200]")


def test_09_property_suites(string8_modes, string8, string8_gamma,
                            trap_string8, ca40, imaging):
    start = time.perf_counter()
    checks = {}

    # elliptic integrals against their defining quadratures; quad's own
    # roundoff complaint at these tolerances is irrelevant, the check
    # is the cross-implementation gap
    worst_k = worst_leg = 0.0
    for m in (0.1, 0.5, 0.9, 0.99):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            kq, _ = quad(
                lambda t: 1.0 / math.sqrt(1.0 - m * math.sin(t) ** 2),
                0.0, math.pi / 2.0, epsabs=1e-14, epsrel=1e-14)
            eq_, _ = quad(
                lambda t: math.sqrt(1.0 - m * math.sin(t) ** 2),
                0.0, math.pi / 2.0, epsabs=1e-14, epsrel=1e-14)
        worst_k = max(worst_k, abs(elliptic_k(m) - kq),
                      abs(elliptic_e(m) - eq_))
        mc = 1.0 - m
        leg = (elliptic_e(m) * elliptic_k(mc) + elliptic_e(mc)
               * elliptic_k(m) - elliptic_k(m) * elliptic_k(mc)
               - math.pi / 2.0)
        worst_leg = max(worst_leg, abs(leg))
    checks["elliptic<=1e-12"] = worst_k <= 1e-12
    checks["legendre<=1e-10"] = worst_leg <= 1e-10

    # distribution normalizations
    worst_pe = 0.0
    for theta in (0.144, 1.0):
        val = integrate_with_endpoint_singularity(
            lambda e: energy_density(e, theta * U25 / cn.KB, U25),
            0.0, np.inf, singular_points=[U25], tol=1e-10)
        worst_pe = max(worst_pe, abs(val - 1.0))
    worst_pkz = 0.0
    for x in (0.5, 1.4):
        zt = math.asin(math.sqrt(min(x, 1.0)))
        val = integrate_with_endpoint_singularity(
            lambda kz: position_density_given_energy(kz, x * U25, U25),
            -zt, zt, tol=1e-9)
        worst_pkz = max(worst_pkz, abs(val - 1.0))
    checks["P(E) norm<=1e-6"] = worst_pe <= 1e-6
    checks["P(kz|E) norm<=1e-6"] = worst_pkz <= 1e-6

    # period as the action derivative
    worst_tau = 0.0
    h = 1e-7
    for x in (0.3, 0.8, 1.01, 1.6):
        ds = (dimensionless_action((x + h) * U25, U25)
              - dimensionless_action((x - h) * U25, U25)) / (2.0 * h)
        tau = normalized_period(x * U25, U25)
        worst_tau = max(worst_tau, abs(tau / ds - 1.0))
    checks["tau=ds/dx<=1e-6"] = worst_tau <= 1e-6

    # mode orthonormality
    b = string8_modes.coordinates
    ortho = float(np.abs(b.T @ b - np.eye(24)).max())
    checks["orthonormal<=1e-10"] = ortho <= 1e-10

    # binomial counts against Monte Carlo
    rng = np.random.default_rng(2024)
    draws = rng.binomial(8, 0.3, size=10_000_000)
    mc = np.bincount(draws, minlength=9) / draws.size
    pmf_err = float(np.abs(np.asarray(scatter_count_pmf(8, 0.3)) - mc).max())
    checks["pmf vs MC<=1e-3"] = pmf_err <= 1e-3
    assert np.allclose(scatter_count_pmf(8, 0.3),
                       binom.pmf(np.arange(9), 8, 0.3), atol=1e-12)

    # thermometry: noiseless round trip and noisy CI consistency
    spots = synthesize_spots(3.5e-3, string8, string8_gamma, imaging,
                             photon_budget=1e4, seed=0, trap=trap_string8,
                             species=ca40, axes=("axial",), noise=False)
    est = estimate_temperature(spots, string8_gamma, trap_string8, ca40,
                               imaging)
    checks["round trip<=5%"] = abs(est.T / 3.5e-3 - 1.0) <= 0.05
    hits = 0
    trials = 40
    for seed in range(trials):
        noisy = synthesize_spots(3.5e-3, string8, string8_gamma, imaging,
                                 photon_budget=2e4, seed=seed,
                                 trap=trap_string8, species=ca40,
                                 axes=("axial",))
        e = estimate_temperature(noisy, string8_gamma, trap_string8, ca40,
                                 imaging)
        if abs(e.T - 3.5e-3) <= e.ci95:
            hits += 1
    checks["CI coverage>=90%"] = hits / trials >= 0.90

    elapsed = time.perf_counter() - start
    ok = all(checks.values()) and elapsed < 600
    failed = [k for k, v in checks.items() if not v]
    _report(9, "property suites", ok,
            f"{len(checks)} checks, failed: {failed or 'none'}; "
            f"coverage {hits}/{trials}; {elapsed:.1f} s")


def test_10_oracle_substitutes(ca40):
    # point values of the measured scattering curves are not recoverable
    # (plotted, not tabulated; absolute calibration external), so the
    # model is pinned by independent routes instead
    ramp = RampProfile(u0_max=U25, ramp_duration=2e-6, hold_duration=1e-6)
    blue = _blue(ca40, U25)
    red = LatticeConfig(depth_U0=-U25,
                        wavevector_k=ca40.lattice_wavevector,
                        detuning=-2 * math.pi * 0.76e12)

    worst_ode = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AdiabaticityWarning)
        for cfg in (blue, red):
            p = scattering_probability(3e-6, 3.6e-3, ramp, cfg, ca40)

            def rhs(t, y, cfg=cfg):
                return [mean_scattering_rate(t, 3.6e-3, ramp, cfg, ca40)
                        * (1.0 - y[0])]

            sol = solve_ivp(rhs, (0.0, 3e-6), [0.0], rtol=1e-10,
                            atol=1e-14, max_step=1e-7)
            worst_ode = max(worst_ode, abs(p - sol.y[0, -1]))

        ordered = all(
            scattering_probability(3e-6, t0, ramp, red, ca40)
            >= scattering_probability(3e-6, t0, ramp, blue, ca40)
            for t0 in (1e-3, 3.6e-3, 10e-3))

        p_free = delocalized_scattering_probability(3e-6, ramp, blue, ca40)
        pref = ca40.gamma_397 / (cn.HBAR * blue.detuning)
        expo = 0.5 * pref * U25 * 2e-6  # triangle ramp + hold
        analytic = -math.expm1(-expo)

    b_hot = bunching(10.0, 1e-6 * cn.KB)
    b_anchor = bunching(3.6e-3, U25)

    ok = (worst_ode <= 1e-6 and ordered
          and abs(p_free - analytic) <= 1e-9 * analytic
          and abs(b_hot - 0.5) <= 1e-4
          and 0.19 <= b_anchor <= 0.25)
    _report(10, "scattering oracle substitutes", ok,
            f"ODE gap {worst_ode:.2e}, red>=blue {ordered}, "
            f"delocalized B {b_hot:.5f}, anchor B {b_anchor:.4f}")
