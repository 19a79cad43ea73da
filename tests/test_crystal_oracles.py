"""The sweep's spectra against forms that do not use `crystal`.

Everything here is in trap units: lengths in the Coulomb length l,
curvatures in M omega_z^2, so a curvature lam is a frequency f_z sqrt(lam).
A lattice of vibrational frequency nu_L at a node curves the potential by
r = (nu_L / f_z)^2 there, and with kappa = k l the lattice energy of an
ion is u0 sin^2(kappa z), where 2 u0 kappa^2 = +-r (blue +, red -).

Two ions on the axis, at z1 > z2 with d = z1 - z2, balance where
z1 - 1/d^2 + u0 kappa sin 2 kappa z1 = 0 and z2 + 1/d^2 + u0 kappa
sin 2 kappa z2 = 0. Their Hessian splits into 2x2 blocks:

- x and y: alpha^2 and alpha^2 - 2/d^3, alpha the radial frequency over
  f_z;
- z: [[1 + 2/d^3 + L1, -2/d^3], [-2/d^3, 1 + 2/d^3 + L2]], with
  L_i = 2 u0 kappa^2 cos 2 kappa z_i.

Deep in a lattice, each axial branch of a crystal approaches
sqrt(nu_L^2 + mu_p f_z^2), where mu_p are the eigenvalues of the trap +
Coulomb z block: the lattice adds r to every diagonal entry and couples
the z motion to x and y only at order 1/r.
"""

import math

import numpy as np
import pytest

from ionlattice import LatticeConfig, TrapConfig, continuation
from ionlattice import constants as cn

GTOL = 1e-10  # the solver's gradient max-norm, in trap units


def _coulomb_length(trap, species):
    return (cn.ECHARGE ** 2 / (4.0 * math.pi * cn.EPS0 * species.mass
                               * trap.omega_z ** 2)) ** (1.0 / 3.0)


def _lattice(species, sign, nu):
    # the lattice whose vibrational frequency is nu Hz, blue or red
    k = species.lattice_wavevector
    depth = species.mass * (2.0 * math.pi * nu) ** 2 / (2.0 * k * k)
    return LatticeConfig(depth_U0=sign * depth, wavevector_k=k,
                         detuning=sign * 2.0 * math.pi * 0.76e12)


def _mirror_root(kappa, u0k, z_near):
    """z0 > 0 with z0 - 1/(4 z0^2) + u0k sin 2 kappa z0 = 0, on a red
    lattice (u0k < 0), by bisection over the middle half of the well
    nearest z_near, where the left side increases; the closed form
    4^(-1/3) without a lattice."""
    if u0k == 0.0:
        return 4.0 ** (-1.0 / 3.0)
    well = round(kappa * z_near / math.pi - 0.5)  # centre (well + 1/2) pi

    def f(z):
        return z - 0.25 / (z * z) + u0k * math.sin(2.0 * kappa * z)

    lo, hi = ((well + 0.25) * math.pi / kappa,
              (well + 0.75) * math.pi / kappa)
    assert f(lo) < 0.0 < f(hi)
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid


def _z_block(z, kappa, u0k):
    d = z[0] - z[1]
    c = 2.0 / d ** 3
    lat = 2.0 * u0k * kappa * np.cos(2.0 * kappa * z)
    return np.array([[1.0 + c + lat[0], -c], [-c, 1.0 + c + lat[1]]])


def _axis_root(z, kappa, u0k):
    """(z1, z2), z1 > z2, where both on-axis forces vanish: Newton with
    the z block as Jacobian, from z."""
    z = np.sort(z)[::-1]
    for _ in range(20):
        d = z[0] - z[1]
        g = (z + np.array([-1.0, 1.0]) / (d * d)
             + u0k * np.sin(2.0 * kappa * z))
        step = np.linalg.solve(_z_block(z, kappa, u0k), g)
        z = z - step
        if np.abs(step).max() <= 1e-15:
            return z
    raise AssertionError(f"no root near {z}")


@pytest.mark.parametrize("sign", [-1, 1], ids=["red", "blue"])
def test_two_ions_on_the_axis(ca40, sign):
    """85/170 kHz, 25 mK lattice, nu_L on 0:2:9:lin MHz. On the red
    lattice the pair stays at +-z0, and z0 is this module's own 1-D root
    in the well the sweep's ion sits in (which well is not what is
    checked). On the blue lattice the pair leaves the mirror
    configuration (here by about 1.9e-2 l), so the two on-axis equations
    are solved here as a 2-D root, started at the sweep's positions.

    The sweep stops at a gradient max-norm of 1e-10, so its positions may
    be off the root by off = sqrt(2) 1e-10 / lam_min, and a curvature lam
    then by (2 kappa r + 24/d^4) off: the tolerances add that to 1e-12.
    """
    trap = TrapConfig.from_frequencies(85e3, 170e3)
    f_z = trap.omega_z / (2.0 * math.pi)
    grid = np.linspace(0.0, 2e6, 9)
    latt = LatticeConfig(depth_U0=sign * cn.KB * 25e-3,
                         wavevector_k=ca40.lattice_wavevector,
                         detuning=sign * 2.0 * math.pi * 0.76e12)
    res = continuation(2, trap, latt, species=ca40, seed=1, nu_grid=grid)
    assert np.array_equal(res.nu_latt, grid)
    ell = _coulomb_length(trap, ca40)
    kappa = ca40.lattice_wavevector * ell
    radial = (np.array([trap.omega_x, trap.omega_y]) / trap.omega_z) ** 2
    for i, nu in enumerate(grid):
        r = (nu / f_z) ** 2
        u0k = sign * r / (2.0 * kappa)  # u0 kappa
        got = res.positions[i] / ell
        assert np.abs(got[:, :2]).max() <= 1e-13, nu
        if sign < 0:
            z0 = _mirror_root(kappa, u0k, got[:, 2].max())
            z = np.array([z0, -z0])
        else:
            z = _axis_root(got[:, 2], kappa, u0k)
        d = z[0] - z[1]
        lam = np.concatenate([radial, radial - 2.0 / d ** 3,
                              np.linalg.eigvalsh(_z_block(z, kappa, u0k))])
        off = math.sqrt(2.0) * GTOL / lam.min()
        slope = 2.0 * kappa * r + 24.0 / d ** 4
        np.testing.assert_allclose(np.sort(got[:, 2])[::-1], z, rtol=0.0,
                                   atol=off, err_msg=f"{nu} Hz")
        np.testing.assert_allclose(
            np.sort(res.frequencies[:, i]), np.sort(f_z * np.sqrt(lam)),
            rtol=1e-12 + slope * off / (2.0 * lam.min()), atol=0.0,
            err_msg=f"{nu} Hz")


def _trap_coulomb_z_block(u):
    """The trap + Coulomb z block at positions u (N, 3), in trap units."""
    dif = u[None, :, :] - u[:, None, :]  # [j, i] = u_i - u_j
    r = np.sqrt((dif * dif).sum(axis=-1))
    np.fill_diagonal(r, 1.0)
    t = 3.0 * dif[:, :, 2] ** 2 / r ** 5 - 1.0 / r ** 3
    np.fill_diagonal(t, 0.0)
    return np.diag(1.0 + t.sum(axis=0)) - t


@pytest.mark.parametrize("case", [
    (8, 70e3, 350e3, 3),  # string8
    (4, 85e3, 170e3, 7),  # zigzag4
    (6, 105e3, 190e3, 1),  # octa6
], ids=["string8", "zigzag4", "octa6"])
def test_deep_lattice_limit(ca40, case):
    """The paper's three crystals swept on their default grids to a blue
    lattice of nu_L,max = 0.76, 5 and 50 MHz. At each last row, the N
    branches with the most z weight against sqrt(nu_L^2 + mu_p f_z^2),
    mu_p from the sweep's own positions of that row. The largest error
    over f - nu_L falls as nu_L^-2 (100x per decade) from 5 to 50 MHz, to
    within a factor 2, and falls from 0.76 to 5 MHz too, if more slowly
    on string8, where 0.76 MHz is not yet deep."""
    n, f_z, f_radial, seed = case
    trap = TrapConfig.from_frequencies(f_z, f_radial)
    errors = []
    for nu_max in (0.76e6, 5e6, 50e6):
        res = continuation(n, trap, _lattice(ca40, 1, nu_max),
                           species=ca40, seed=seed)
        nu = res.nu_latt[-1]
        weight = res.block_weight("z")[:, -1]
        axial = np.argsort(weight)[-n:]
        got = np.sort(res.frequencies[axial, -1])
        mu = np.linalg.eigvalsh(_trap_coulomb_z_block(
            res.positions[-1] / _coulomb_length(trap, ca40)))
        want = np.sqrt(nu ** 2 + mu * f_z ** 2)
        errors.append(np.max(np.abs(got - want) / (got - nu)))
        if nu_max > 1e6:
            assert weight[axial].min() > 0.999
    assert errors[0] > errors[1]
    assert 50.0 < errors[1] / errors[2] < 200.0
