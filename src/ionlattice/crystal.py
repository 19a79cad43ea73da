"""Coulomb crystals in a linear rf trap, with an optional standing wave.

Equilibrium structures and 3N normal modes of N ions in a pseudo-potential
(omega_x, omega_y, omega_z) plus the lattice term U0 sin^2(k z), and
depth-continuation of the mode spectrum with branch tracking by eigenvector
overlap.

Internally everything is dimensionless: lengths in the Coulomb length
l = (e^2/(4 pi eps0 M omega_z^2))^(1/3), frequencies in omega_z, energies
in M omega_z^2 l^2. The lattice then enters with a huge dimensionless
wavevector kappa = k*l (about 167 at 85 kHz axial for a 433 nm period),
which is why the continuation warm-starts every depth step from the
previous equilibrium: a cold solve at deep lattice would land in an
arbitrary well.

Mode bookkeeping: coordinates are stacked x-block, y-block, z-block, so
row l = a*N + m is axis a of ion m; eigenvector matrices hold one mode per
column. Branches across a depth sweep are identified by overlap, never by
frequency order, which swaps at avoided crossings.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from scipy.optimize import linear_sum_assignment, minimize

from . import constants as cn
from .errors import (
    DomainError,
    EquilibriumError,
    SingularConfigurationError,
    SoftModeError,
    UnstableConfigurationError,
)
from .pendulum import IonSpecies

__all__ = [
    "TrapConfig",
    "CrystalState",
    "ModeDecomposition",
    "GammaTable",
    "ContinuationResult",
    "StructureReport",
    "length_scale",
    "total_potential",
    "equilibrium",
    "normal_modes",
    "gamma_parameters",
    "spot_variance_model",
    "continuation",
    "classify_structure",
]

_BLOCKS = {"x": 0, "y": 1, "z": 2}


@dataclass(frozen=True)
class TrapConfig:
    """Secular frequencies and rf-drive parameters of the linear trap.

    q_radial defaults to the value implied by the mean radial secular
    frequency and the drive (q = 2 sqrt(2) omega_sec/Omega_rf, lowest
    order); q_axial defaults to zero (an ideal linear trap has no axial
    rf gradient) and is set from measurement when modeling parasitic
    axial micromotion.
    """

    omega_z: float  # rad/s
    omega_x: float  # rad/s
    omega_y: float  # rad/s
    omega_rf: float = 2.0 * math.pi * 3.98e6  # rad/s
    q_radial: Optional[float] = None
    q_axial: float = 0.0

    def __post_init__(self):
        if not all(0 < w < math.inf for w in (  # NaN fails too
                self.omega_z, self.omega_x, self.omega_y, self.omega_rf)):
            raise DomainError(
                "secular and rf frequencies must be positive and finite")
        # an unset q_radial is derived from the frequencies: check that too
        derived = "derived " if self.q_radial is None else ""
        for name, q in ((derived + "q_radial", self.q_radial_effective),
                        ("q_axial", self.q_axial)):
            if not 0.0 <= q <= 0.92:
                raise DomainError(
                    f"{name} {q!r} outside the stability-sanity range "
                    "[0, 0.92]")

    @classmethod
    def from_frequencies(cls, f_z, f_radial, asymmetry=0.03, f_rf=3.98e6,
                         q_radial=None, q_axial=0.0):
        """Build from secular frequencies in Hz.

        The radial asymmetry splits omega_x/omega_y by +-asymmetry/2
        about the mean; the softer y axis then fixes the orientation of
        planar structures (default 3%, matching typical bias fields).
        """
        two_pi = 2.0 * math.pi
        return cls(
            omega_z=two_pi * f_z,
            omega_x=two_pi * f_radial * (1.0 + 0.5 * asymmetry),
            omega_y=two_pi * f_radial * (1.0 - 0.5 * asymmetry),
            omega_rf=two_pi * f_rf,
            q_radial=q_radial,
            q_axial=q_axial,
        )

    @property
    def omega_radial_mean(self):
        return 0.5 * (self.omega_x + self.omega_y)

    @property
    def q_radial_effective(self):
        """Configured q_radial, or 2 sqrt(2) omega_sec/Omega_rf if unset."""
        if self.q_radial is not None:
            return self.q_radial
        return 2.0 * math.sqrt(2.0) * self.omega_radial_mean / self.omega_rf


@dataclass(frozen=True, eq=False)
class CrystalState:
    """A converged stationary configuration.

    gradient_norm is the dimensionless max-norm of the potential gradient
    at the solution; is_saddle flags stationary points whose Hessian has a
    negative eigenvalue beyond tolerance (reported, never re-seeded).
    """

    positions: np.ndarray  # (N, 3), m
    potential_value: float  # J
    lattice_depth: float  # J, signed; 0 when no lattice
    gradient_norm: float
    is_saddle: bool = False

    @property
    def n_ions(self):
        return self.positions.shape[0]


@dataclass(frozen=True, eq=False)
class ModeDecomposition:
    """3N normal modes at one configuration.

    eigenvalues are the dimensionless Hessian spectrum (potential
    curvature over M omega_z^2), ascending; frequencies = omega_z
    sqrt(lambda) in rad/s; coordinates[l, p] is component l of mode p
    with the x/y/z block stacking.
    """

    eigenvalues: np.ndarray  # (3N,)
    frequencies: np.ndarray  # (3N,), rad/s
    coordinates: np.ndarray  # (3N, 3N)

    @property
    def n_ions(self):
        return self.coordinates.shape[0] // 3

    def block_weight(self, block):
        """Per-mode weight in one coordinate block ('x', 'y' or 'z')."""
        a = _BLOCKS[block]
        n = self.n_ions
        rows = self.coordinates[a * n:(a + 1) * n, :]
        return np.sum(rows * rows, axis=0)


@dataclass(frozen=True, eq=False)
class GammaTable:
    """Per-ion thermal-excursion factors.

    gamma[m, a] relates ion m's position variance along axis a to the
    single-ion value at omega_z: <du^2> = (kB T/(M omega_z^2)) gamma^2.
    gamma_radial_projected[m] is the same for the 45-degree camera
    projection of the two radial axes.
    """

    gamma: np.ndarray  # (N, 3)
    gamma_radial_projected: np.ndarray  # (N,)

    @property
    def axial(self):
        return self.gamma[:, 2]


@dataclass(frozen=True, eq=False)
class StructureReport:
    """Geometric classification of a crystal.

    kind is 'linear', 'planar' or 'three-dimensional'. For non-linear
    structures the reference plane is the axis-containing plane holding
    the most ions; out_of_plane_count counts the ions off that plane.
    """

    kind: str
    out_of_plane_count: int
    plane_angle: float  # rad, orientation of the reference plane, y=soft


def _default_species(species):
    return species if species is not None else IonSpecies.ca40()


def length_scale(trap, species):
    """Coulomb length l = (e^2/(4 pi eps0 M omega_z^2))^(1/3)."""
    if trap.omega_z <= 0:
        raise DomainError("omega_z must be positive")
    return (cn.COULOMB / (species.mass * trap.omega_z ** 2)) ** (1.0 / 3.0)


class _Dimensionless:
    """Scaled potential, gradient and Hessian for one (trap, lattice)."""

    def __init__(self, trap, lattice, species):
        self.ell = length_scale(trap, species)
        self.energy_unit = species.mass * trap.omega_z ** 2 * self.ell ** 2
        self.alpha2 = np.array([
            (trap.omega_x / trap.omega_z) ** 2,
            (trap.omega_y / trap.omega_z) ** 2,
            1.0,
        ])
        if lattice is None:
            self.kappa = 0.0
            self.u0 = 0.0
        else:
            self.kappa = lattice.wavevector_k * self.ell
            self.u0 = lattice.depth_U0 / self.energy_unit

    def _pairs(self, u):
        d = u[:, None, :] - u[None, :, :]
        r2 = np.sum(d * d, axis=-1)
        np.fill_diagonal(r2, 1.0)
        return d, np.sqrt(r2)

    def potential(self, u):
        d, r = self._pairs(u)
        if np.min(r + np.eye(len(u)) * 1e30) < 1e-14:
            raise SingularConfigurationError(
                "two ions coincide; Coulomb energy is singular")
        coul = np.sum(np.triu(1.0 / r, k=1))
        harm = 0.5 * np.sum(self.alpha2 * u * u)
        latt = 0.0
        if self.u0 != 0.0:
            latt = self.u0 * np.sum(np.sin(self.kappa * u[:, 2]) ** 2)
        return harm + coul + latt

    def gradient(self, u):
        d, r = self._pairs(u)
        inv3 = 1.0 / (r * r * r)
        np.fill_diagonal(inv3, 0.0)
        g = self.alpha2 * u - np.sum(d * inv3[:, :, None], axis=1)
        if self.u0 != 0.0:
            g[:, 2] += self.u0 * self.kappa * np.sin(2.0 * self.kappa * u[:, 2])
        return g

    def hessian(self, u):
        n = len(u)
        d, r = self._pairs(u)
        inv3 = 1.0 / (r * r * r)
        inv5 = inv3 / (r * r)
        np.fill_diagonal(inv3, 0.0)
        np.fill_diagonal(inv5, 0.0)
        # pair tensor T_ij,ab = 3 d_a d_b / r^5 - delta_ab / r^3
        t = 3.0 * d[:, :, :, None] * d[:, :, None, :] * inv5[:, :, None, None]
        t -= np.eye(3)[None, None, :, :] * inv3[:, :, None, None]
        h = np.zeros((n, n, 3, 3))
        h -= t
        diag = np.sum(t, axis=1)
        h[np.arange(n), np.arange(n)] += diag
        h[np.arange(n), np.arange(n)] += np.diag(self.alpha2)[None, :, :]
        if self.u0 != 0.0:
            curv = 2.0 * self.u0 * self.kappa ** 2 * np.cos(
                2.0 * self.kappa * u[:, 2])
            h[np.arange(n), np.arange(n), 2, 2] += curv
        # (i, j, a, b) -> (a*n + i, b*n + j)
        full = h.transpose(2, 0, 3, 1).reshape(3 * n, 3 * n)
        return 0.5 * (full + full.T)


def total_potential(positions, trap, lattice=None, species=None):
    """Total potential energy (J) of the configuration.

    Harmonic pseudo-potential + pairwise Coulomb + U0 sin^2(k z) per ion
    (signed U0: blue-detuned positive, wells at the nodes). Raises
    SingularConfigurationError if two ions lie within 1e-14 Coulomb
    lengths of each other.
    """
    species = _default_species(species)
    pos = np.asarray(positions, dtype=float).reshape(-1, 3)
    scaled = _Dimensionless(trap, lattice, species)
    return scaled.potential(pos / scaled.ell) * scaled.energy_unit


def _string_guess(n, rng, jitter):
    z = (np.arange(n) - 0.5 * (n - 1)) * 1.3 * max(n, 2) ** -0.1
    u = np.zeros((n, 3))
    u[:, 2] = z
    u += rng.normal(0.0, jitter, size=(n, 3))
    return u


# equilibrium: gradient max-norm to reach (dimensionless), cold BFGS
# starts, Newton iterations per polish
_GTOL = 1e-10
_RESTARTS = 4
_NEWTON_MAX_ITER = 60


def _newton_polish(scaled, u):
    u = u.copy()
    mu = 0.0
    for _ in range(_NEWTON_MAX_ITER):
        g = scaled.gradient(u)
        gnorm = np.max(np.abs(g))
        if gnorm <= _GTOL:
            return u, gnorm, True
        h = scaled.hessian(u)
        gflat = g.reshape(-1, order="F")  # x-block, y-block, z-block
        try:
            step = np.linalg.solve(h + mu * np.eye(len(h)), gflat)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(h, gflat, rcond=None)
        trial = u - step.reshape(u.shape, order="F")
        if np.max(np.abs(scaled.gradient(trial))) < gnorm:
            u = trial
            mu = max(mu * 0.1, 0.0)
        else:  # damp and retry
            mu = 1e-6 if mu == 0.0 else mu * 10.0
            if mu > 1e6:
                return u, gnorm, False
    return u, np.max(np.abs(scaled.gradient(u))), False


def _solve_from(scaled, u0):
    n = len(u0)
    res = minimize(
        lambda v: scaled.potential(v.reshape(n, 3)),
        u0.reshape(-1),
        jac=lambda v: scaled.gradient(v.reshape(n, 3)).reshape(-1),
        method="BFGS",
        options={"gtol": 1e-8, "maxiter": 4000},
    )
    u = res.x.reshape(n, 3)
    return _newton_polish(scaled, u)


def equilibrium(N, trap, lattice=None, initial_guess=None, species=None,
                seed=0):
    """Stationary configuration of N ions, to gradient max-norm 1e-10.

    Without a guess: BFGS descent from a slightly jittered axial string
    (deterministic in ``seed``), best of four starts by energy, then
    Newton polish. With a guess (warm start): polish only, fully
    deterministic. A converged stationary point with a direction of
    negative curvature is returned with ``is_saddle`` set rather than
    re-seeded, so instability of e.g. a linear chain past the zigzag
    transition is visible to the caller.
    """
    if N < 1:
        raise DomainError("need at least one ion")
    species = _default_species(species)
    scaled = _Dimensionless(trap, lattice, species)

    candidates = []
    last = None
    if initial_guess is not None:
        u0 = np.asarray(initial_guess, dtype=float).reshape(N, 3) / scaled.ell
        u, gnorm, ok = _newton_polish(scaled, u0)
        if not ok:  # long way from quadratic: descend first, then polish
            u, gnorm, ok = _solve_from(scaled, u0)
        last = (u, gnorm)
        if ok:
            candidates.append(u)
    else:
        for attempt in range(_RESTARTS):
            rng = np.random.default_rng(seed + attempt)
            u0 = _string_guess(N, rng, jitter=0.02 * (attempt + 1))
            u, gnorm, ok = _solve_from(scaled, u0)
            last = (u, gnorm)
            if ok:
                candidates.append(u)
    if not candidates:
        u, gnorm = last
        raise EquilibriumError(
            f"equilibrium search stalled at gradient max-norm {gnorm:.3e}",
            last_positions=u * scaled.ell)

    u = min(candidates, key=scaled.potential)
    gnorm = float(np.max(np.abs(scaled.gradient(u))))
    eigmin = float(np.linalg.eigvalsh(scaled.hessian(u)).min())
    return CrystalState(
        positions=u * scaled.ell,
        potential_value=scaled.potential(u) * scaled.energy_unit,
        lattice_depth=0.0 if lattice is None else lattice.depth_U0,
        gradient_norm=gnorm,
        is_saddle=eigmin < -1e-8,
    )


def normal_modes(state, trap, lattice=None, species=None):
    """Eigendecomposition of the dimensionless Hessian at an equilibrium.

    The state must actually be stationary for the given trap + lattice
    (checked via the gradient); a negative eigenvalue beyond -1e-8 means
    the configuration is not a minimum of this potential and is an error.
    """
    species = _default_species(species)
    scaled = _Dimensionless(trap, lattice, species)
    u = np.asarray(state.positions, dtype=float) / scaled.ell
    gnorm = np.max(np.abs(scaled.gradient(u)))
    if gnorm > 1e-6:
        raise EquilibriumError(
            f"state is not an equilibrium of this potential "
            f"(gradient max-norm {gnorm:.3e}); re-solve before "
            "taking normal modes")
    lam, vec = np.linalg.eigh(scaled.hessian(u))
    if lam[0] < -1e-8:
        raise UnstableConfigurationError(
            f"Hessian has a negative eigenvalue {lam[0]:.3e}; "
            "configuration is unstable (saddle)")
    lam = np.where(np.abs(lam) < 1e-14, 0.0, lam)
    freqs = trap.omega_z * np.sqrt(np.clip(lam, 0.0, None))
    return ModeDecomposition(eigenvalues=lam, frequencies=freqs,
                             coordinates=vec)


def gamma_parameters(modes):
    """Thermal-excursion factors gamma from a mode decomposition.

    gamma2_{m,a} = sum_p b_{aN+m}^p ^2 / lambda_p, and the 45-degree
    radial projection gamma2_{m,rad} = sum_p (b_m^p + b_{N+m}^p)^2 /
    (2 lambda_p). A zero-frequency mode makes these diverge; that raises,
    naming the soft mode.
    """
    lam = modes.eigenvalues
    soft = np.nonzero(lam < 1e-12)[0]
    if soft.size:
        p = int(soft[0])
        raise SoftModeError(
            f"mode {p} (frequency {modes.frequencies[p]:.3e} rad/s) is soft; "
            "position variance diverges", mode_index=p)
    b = modes.coordinates
    n = modes.n_ions
    gamma2 = np.empty((n, 3))
    for a in range(3):
        rows = b[a * n:(a + 1) * n, :]
        gamma2[:, a] = np.sum(rows * rows / lam[None, :], axis=1)
    rad = b[0:n, :] + b[n:2 * n, :]
    gamma2_rad = np.sum(rad * rad / (2.0 * lam[None, :]), axis=1)
    return GammaTable(gamma=np.sqrt(gamma2),
                      gamma_radial_projected=np.sqrt(gamma2_rad))


def spot_variance_model(T, gamma, trap, species, sigma_res):
    """Expected image-spot variance (m^2): thermal motion + resolution.

    sigma^2 = (kB T/(M omega_z^2)) gamma^2 + sigma_res^2.
    """
    if not T >= 0:  # NaN fails too
        raise DomainError("temperature must be non-negative")
    return cn.KB * T / (species.mass * trap.omega_z ** 2) * gamma ** 2 \
        + sigma_res ** 2


# ----------------------------------------------------------------------
# depth continuation


@dataclass(frozen=True, eq=False)
class ContinuationResult:
    """Mode branches tracked along a lattice-depth sweep.

    Arrays are indexed [branch, step] (frequencies) or [step, ...]
    (coordinates, positions). Branch identity is fixed by eigenvector
    overlap between adjacent steps; the grid may contain extra points
    inserted by the tracker (refined[step] is True there). flagged lists
    crossings that stayed ambiguous at the finest refinement: each entry
    gives the step, the two branch ids involved, and the overlap gap;
    the emitted assignment is the overlap-optimal one and the alternative
    is the swap of those two branches.
    """

    nu_latt: np.ndarray  # (n,), Hz
    depths: np.ndarray  # (n,), J
    frequencies: np.ndarray  # (3N, n), Hz
    coordinates: np.ndarray  # (n, 3N, 3N)
    positions: np.ndarray  # (n, N, 3), m
    refined: np.ndarray  # (n,), bool
    flagged: list = field(default_factory=list)

    @property
    def n_branches(self):
        return self.frequencies.shape[0]

    def block_weight(self, block):
        """(3N, n) weight of each branch in one coordinate block."""
        a = _BLOCKS[block]
        n = self.coordinates.shape[1] // 3
        rows = self.coordinates[:, a * n:(a + 1) * n, :]
        return np.transpose(np.sum(rows * rows, axis=1))


def _depth_for_nu(nu, lattice_max, species):
    # U0 = M (2 pi nu)^2 / (2 k^2), signed like the reference lattice
    k = lattice_max.wavevector_k
    mag = species.mass * (2.0 * math.pi * nu) ** 2 / (2.0 * k * k)
    return math.copysign(mag, lattice_max.depth_U0) if nu > 0 else 0.0


# branch tracking: a step whose weakest matched overlap is below
# _OVERLAP_MIN is halved, at most _MAX_HALVINGS times; at that depth a
# branch whose two best overlaps differ by less than _AMBIGUITY_TOL is
# flagged
_OVERLAP_MIN = 0.5
_MAX_HALVINGS = 12
_AMBIGUITY_TOL = 1e-3


def continuation(N, trap, lattice_max, steps=200, species=None, seed=0,
                 nu_grid=None):
    """Sweep the lattice from zero to lattice_max, tracking all 3N modes.

    The grid is geometric in nu_latt (default ``steps`` points including
    nu=0) unless an explicit nu_grid (Hz) is given. Each depth re-solves
    the equilibrium warm-started from the previous one, then matches the
    new eigenvectors to the tracked branches by maximal absolute overlap
    (optimal one-to-one assignment). If the weakest match drops below 0.5
    the step is halved (geometric midpoint, arithmetic from nu=0), up to
    12 times; a crossing whose two best overlaps still differ by less
    than 1e-3 at that point is recorded in ``flagged``.

    A deepening lattice can destroy the tracked minimum outright (ions
    re-settle into wells); the warm start then converges onto the saddle
    left behind. Tracking follows the physics: relax along the unstable
    direction to the adjacent minimum and continue from there.
    """
    if steps < 2:
        raise DomainError("need at least two continuation steps")
    species = _default_species(species)
    nu_max = lattice_max.vibrational_frequency(species)
    if nu_grid is None:
        if nu_max <= 0:
            raise DomainError("lattice_max must have a nonzero depth")
        grid = np.concatenate(
            [[0.0], np.geomspace(1e-3 * nu_max, nu_max, steps - 1)])
    else:
        grid = np.asarray(sorted(float(v) for v in nu_grid))
        if grid[0] != 0.0:
            grid = np.concatenate([[0.0], grid])

    def descend_from_saddle(st, latt):
        scaled = _Dimensionless(trap, latt, species)
        u = st.positions / scaled.ell
        lam, vec = np.linalg.eigh(scaled.hessian(u))
        soft = vec[:, 0].reshape(3, N).T  # most negative curvature
        best = None
        for eps in (1e-3, -1e-3, 1e-2, -1e-2, 0.1, -0.1):
            kicked = st.positions + eps * scaled.ell * soft
            cand = equilibrium(N, trap, latt, initial_guess=kicked,
                               species=species, seed=seed)
            if cand.is_saddle:
                continue
            if best is None or cand.potential_value < best.potential_value:
                best = cand
        if best is None:
            raise UnstableConfigurationError(
                "tracked configuration lost stability and no adjacent "
                "minimum was reachable along the unstable direction")
        return best

    def solve_at(nu, guess):
        depth = _depth_for_nu(nu, lattice_max, species)
        latt = replace(lattice_max, depth_U0=depth) if depth != 0.0 else None
        st = equilibrium(N, trap, latt, initial_guess=guess,
                         species=species, seed=seed)
        if st.is_saddle:
            st = descend_from_saddle(st, latt)
        md = normal_modes(st, trap, latt, species=species)
        return st, md

    # the tracked branches start in eigh's ascending order at zero depth
    nu = grid[0]
    state, modes = solve_at(nu, None)
    b_prev = modes.coordinates
    rows = [(nu, modes.frequencies, b_prev, state.positions, False)]
    flagged = []
    # targets still to reach, nearest last: (nu_latt, halvings, refined)
    pending = [(target, 0, False) for target in grid[:0:-1]]
    while pending:
        target, level, refined = pending.pop()
        st, md = solve_at(target, state.positions)
        overlap = np.abs(b_prev.T @ md.coordinates)
        perm = linear_sum_assignment(-overlap)[1]  # rows come back 0..3N-1
        weakest = np.min(overlap[np.arange(len(perm)), perm])
        if weakest < _OVERLAP_MIN and level < _MAX_HALVINGS:
            mid = 0.5 * (nu + target) if nu == 0.0 \
                else math.sqrt(nu * target)
            pending += [(target, level + 1, refined), (mid, level + 1, True)]
            continue
        if level == _MAX_HALVINGS:
            for p, row in enumerate(overlap):
                order = np.argsort(row)
                gap = row[order[-1]] - row[order[-2]]
                if gap < _AMBIGUITY_TOL:
                    partner = int(np.nonzero(perm == order[-2])[0][0])
                    flagged.append({
                        "step": len(rows),
                        "nu_latt": target,
                        "branches": (p, partner),
                        "overlap_gap": float(gap),
                    })
        b_new = md.coordinates[:, perm]
        # keep eigenvector signs continuous across steps
        signs = np.sign(np.sum(b_prev * b_new, axis=0))
        signs[signs == 0.0] = 1.0
        nu, state, b_prev = target, st, b_new * signs
        rows.append((nu, md.frequencies[perm], b_prev, st.positions, refined))

    nus, freqs, coords, poss, refined = zip(*rows)
    return ContinuationResult(
        nu_latt=np.asarray(nus),
        depths=np.array([_depth_for_nu(v, lattice_max, species)
                         for v in nus]),
        frequencies=np.transpose(freqs) / (2.0 * math.pi),
        coordinates=np.asarray(coords),
        positions=np.asarray(poss),
        refined=np.asarray(refined, dtype=bool),
        flagged=flagged,
    )


# ----------------------------------------------------------------------
# structure classification


def classify_structure(positions, trap, species=None):
    """Classify a crystal as linear, planar or three-dimensional.

    ``positions`` is the (N, 3) array of ion positions in meters. The
    reference plane is constrained to contain the trap axis (the
    physically meaningful family for a linear trap): among the planes
    through the z axis and one off-axis ion, take the one containing the
    most ions. A best-fit free plane would miscount structures like the
    six-ion pinwheel, where four of six ions share no axis-containing
    plane but a tilted fit can graze them all. An ion counts as on the
    axis, or in a plane, within 1e-3 Coulomb lengths.
    """
    tol = 1e-3 * length_scale(trap, _default_species(species))
    pos = np.asarray(positions, dtype=float)
    radial = np.hypot(pos[:, 0], pos[:, 1])
    off = radial > tol
    if not np.any(off):
        return StructureReport(kind="linear", out_of_plane_count=0,
                               plane_angle=0.0)
    best_angle, best_count = 0.0, -1
    for phi in np.arctan2(pos[off, 1], pos[off, 0]):
        # distance of each ion from the plane spanned by z and (cos, sin)
        dist = np.abs(-pos[:, 0] * math.sin(phi) + pos[:, 1] * math.cos(phi))
        count = int(np.sum(dist <= tol))
        if count > best_count:
            best_angle, best_count = float(phi) % math.pi, count
    n_out = pos.shape[0] - best_count
    kind = "planar" if n_out == 0 else "three-dimensional"
    return StructureReport(kind=kind, out_of_plane_count=n_out,
                           plane_angle=best_angle)
