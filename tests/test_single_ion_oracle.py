"""One ion's axial branch against closed forms that do not use `crystal`.

One ion on a 100 kHz trap, swept through a standing wave whose lattice
frequency nu_L runs from 10 to 300 kHz. With omega_L = 2 pi nu_L the
lattice curvature at a node is M omega_L^2 = 2 |U0| k^2, so:

- blue lattice (wells at the nodes): the ion stays at z = 0, and
  omega_ax^2 = omega_z^2 + omega_L^2;
- red lattice, up to the pitchfork at nu_L = f_z: z = 0 is a maximum of
  the lattice, and omega_ax^2 = omega_z^2 - omega_L^2;
- red lattice beyond it: the ion sits at x = k z* off the node, where the
  trap and lattice forces balance, omega_z^2 x = (omega_L^2 / 2) sin 2x,
  and omega_ax^2 = omega_z^2 - omega_L^2 cos 2x.

The root x comes from this module's own bisection. The nodes next to the
pitchfork, where the axial mode goes soft, are left out.

The sweep stops each solve at a gradient max-norm of 1e-10 in trap units
(``equilibrium``), so beyond the pitchfork the ion may sit off z* by that
over the axial curvature lam = (f_ax/f_z)^2, and lam then moves by its
slope 2 kappa r sin 2x times as much (kappa = k l, l the Coulomb length,
r = omega_L^2/omega_z^2). The tolerances add that to 1e-9: 1e-9 where
x = 0, below 4e-9 on the 5-node grid, and at most 2.7e-6 relative on the
200-node grid, at its first node checked beyond the pitchfork.
"""

import math

import numpy as np
import pytest

from ionlattice import LatticeConfig, TrapConfig, continuation
from ionlattice import constants as cn

F_Z = 100e3  # Hz
GTOL = 1e-10  # the solver's gradient max-norm, in trap units


def _displacement(ratio):
    """The root x in (0, pi/2) of x = (ratio/2) sin 2x, ratio > 1, by
    bisection: the right side exceeds x just above 0 and falls short of
    it at pi/2."""
    lo, hi = 0.0, 0.5 * math.pi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if 0.5 * ratio * math.sin(2.0 * mid) > mid:
            lo = mid
        else:
            hi = mid


def _axial_oracle(nu_l, sign):
    """(axial frequency Hz, |k z*|) of one ion at lattice frequency nu_l."""
    ratio = (nu_l / F_Z) ** 2  # omega_L^2 / omega_z^2
    if sign > 0:
        return F_Z * math.sqrt(1.0 + ratio), 0.0
    if ratio < 1.0:
        return F_Z * math.sqrt(1.0 - ratio), 0.0
    x = _displacement(ratio)
    return F_Z * math.sqrt(1.0 - ratio * math.cos(2.0 * x)), x


def _lattice(ca40, sign, nu):
    k = ca40.lattice_wavevector
    depth = ca40.mass * (2.0 * math.pi * nu) ** 2 / (2.0 * k * k)
    return LatticeConfig(depth_U0=sign * depth, wavevector_k=k,
                         detuning=sign * 2.0 * math.pi * 0.76e12)


@pytest.mark.parametrize("nodes", [5, 200])
@pytest.mark.parametrize("sign", [1, -1], ids=["blue", "red"])
def test_axial_branch_matches_closed_form(ca40, nodes, sign):
    grid = np.linspace(10e3, 300e3, nodes)
    trap = TrapConfig.from_frequencies(F_Z, 2.5 * F_Z)
    res = continuation(1, trap, _lattice(ca40, sign, grid[-1]),
                       species=ca40, seed=1, nu_grid=grid)
    assert np.array_equal(res.nu_latt, np.r_[0.0, grid])
    axial = np.argmax(res.block_weight("z")[:, -1])
    assert np.all(res.block_weight("z")[axial] > 1.0 - 1e-12)
    k = ca40.lattice_wavevector
    coulomb_length = (cn.ECHARGE ** 2 / (4.0 * math.pi * cn.EPS0 * ca40.mass
                                         * (2.0 * math.pi * F_Z) ** 2)) ** (
        1.0 / 3.0)
    kappa = k * coulomb_length
    # the last node below the pitchfork and the first beyond it
    beyond = int(np.searchsorted(grid, F_Z))
    checked = 0
    for i, nu in enumerate(grid):
        if i in (beyond - 1, beyond):
            continue
        want, x = _axial_oracle(nu, sign)
        lam = (want / F_Z) ** 2
        off = kappa * GTOL / lam  # in x = k z
        slope = 2.0 * kappa * (nu / F_Z) ** 2 * abs(math.sin(2.0 * x))
        got = res.frequencies[axial, i + 1]
        assert got == pytest.approx(
            want, rel=1e-9 + slope * GTOL / lam ** 2, abs=0.0), nu
        z = res.positions[i + 1, 0, 2]
        assert abs(k * z) == pytest.approx(x, rel=1e-9, abs=off), nu
        checked += 1
    assert checked == nodes - 2
