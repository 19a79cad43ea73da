"""Physical constants (CODATA 2022 literals) and documented Ca-40 defaults.

The SI constants are CODATA 2022 literals, so this module needs no scipy
import; tests/test_constants.py checks that each equals its
``scipy.constants`` value exactly.

Every transition constant here is a configuration default, not a hard-coded
truth: configs may override any of them.
"""

import math

KB = 1.380649e-23  # J/K, exact
HBAR = 1.0545718176461565e-34  # J s, exact (h / 2 pi)
ECHARGE = 1.602176634e-19  # C, exact
EPS0 = 8.8541878188e-12  # F/m
AMU = 1.66053906892e-27  # kg, atomic mass constant

# e^2 / (4 pi eps0), the Coulomb coupling in SI (J m)
COULOMB = ECHARGE**2 / (4.0 * math.pi * EPS0)

# --- Ca-40 defaults -------------------------------------------------------
# Mass in atomic mass units (AME2020).
CA40_MASS_AMU = 39.962590866
CA40_MASS = CA40_MASS_AMU * AMU

# Total decay rate of the P1/2 level (lifetime ~7.1 ns).
CA40_GAMMA_P = 1.41e8  # rad/s
# Branching of P1/2 decay into the S1/2 ground state (397 nm photon).
CA40_BRANCHING_397 = 0.94

CA40_LATTICE_WAVELENGTH = 866e-9  # D3/2 -> P1/2
CA40_DETECTION_WAVELENGTH = 397e-9  # P1/2 -> S1/2
