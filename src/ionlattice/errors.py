"""Exception hierarchy.

Exit-code mapping used by the CLI: configuration and input-parsing problems
are "user errors" (exit 2), numerical failures are "solver errors" (exit 3),
filesystem problems are I/O errors (exit 4). Any other exception is a bug in
the program (exit 5); a warning of the package's own that the warning
filters turn into an error stays a solver error.
"""

from contextlib import contextmanager


class IonLatticeError(Exception):
    """Base class for all library errors."""


class DomainError(IonLatticeError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class EllipticDivergenceError(DomainError):
    """K(m) requested at m = 1 where it diverges logarithmically."""


class SeparatrixError(DomainError):
    """Pendulum quantity requested exactly at E = U0 where it diverges."""


class TurningPointError(DomainError):
    """Position density requested beyond the classical turning point."""


class QuadratureConvergenceError(IonLatticeError):
    """Adaptive quadrature failed to reach the requested tolerance.

    Carries the best available estimate and its error bound.
    """

    def __init__(self, message, best_estimate, error_bound):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_bound = error_bound


class SingularConfigurationError(IonLatticeError):
    """Coincident ions make the Coulomb potential singular."""


class EquilibriumError(IonLatticeError):
    """Equilibrium search did not converge.

    Carries the last iterate (m) and its gradient max-norm (dimensionless).
    """

    def __init__(self, message, last_positions=None, gradient_norm=None):
        super().__init__(message)
        self.last_positions = last_positions
        self.gradient_norm = gradient_norm


class UnstableConfigurationError(IonLatticeError):
    """Hessian has a negative eigenvalue beyond tolerance."""


class SoftModeError(IonLatticeError):
    """A zero-frequency mode makes a gamma parameter diverge."""

    def __init__(self, message, mode_index=None):
        super().__init__(message)
        self.mode_index = mode_index


class FitConvergenceError(IonLatticeError):
    """Nonlinear least-squares fit did not converge."""


class DegenerateFitError(IonLatticeError):
    """Fit input or result is degenerate (flat profile, collapsed width)."""


class NegativeThermalVarianceError(IonLatticeError):
    """Spots are narrower than the imaging resolution allows.

    Carries the per-spot variance deficits sigma^2 - sigma_res^2 (m^2).
    """

    def __init__(self, message, deficits=None):
        super().__init__(message)
        self.deficits = deficits


class ConfigError(IonLatticeError):
    """Invalid or incomplete run configuration. Names the offending key."""


class SpotParseError(IonLatticeError):
    """Malformed spot-profile CSV. Names the offending line."""


class AdiabaticityWarning(UserWarning):
    """Ramp is fast compared to the lattice oscillation period.

    The conserved-action model assumes the depth changes slowly relative
    to 1/nu_latt; results are still returned but may be unreliable.
    """


#: exit codes for the CLI
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4
EXIT_BUG = 5


@contextmanager
def refused(name):
    """A DomainError, or an ArithmeticError from a derived value leaving the
    float range, as a ConfigError naming the key, block or flag given."""
    try:
        yield
    except DomainError as exc:
        raise ConfigError(f"{name}: {exc}") from None
    except ArithmeticError as exc:  # such as (2 pi nu)^2 beyond 1.8e308
        raise ConfigError(f"{name}: a derived value leaves the float "
                          f"range ({exc})") from None


def read_utf8(path, refusal):
    """The whole text of a UTF-8 file, line ends as written. A byte that is
    not UTF-8 raises ``refusal(line, byte)``, its line counted from 1.
    File-system errors propagate."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise refusal(line, data[exc.start]) from None


def exit_code_for(exc):
    """Map an exception to the CLI exit code."""
    if isinstance(exc, (ConfigError, SpotParseError)):
        return EXIT_CONFIG
    if isinstance(exc, (IonLatticeError, AdiabaticityWarning)):
        return EXIT_SOLVER
    if isinstance(exc, OSError):
        return EXIT_IO
    return EXIT_BUG
