"""Laser-cooled ion Coulomb crystals in an optical standing-wave lattice.

Equilibrium structures and normal modes of few-ion crystals in a linear
rf trap, their evolution with the depth of a superimposed 1-D optical
lattice, adiabatic pinning and scattering statistics of lattice-trapped
ions, fluorescence-spot thermometry, and excess-micromotion estimates.
"""

__version__ = "0.1.0"

from .config import RunConfig, load_config, parse_config
from .crystal import (
    ContinuationResult,
    CrystalState,
    GammaTable,
    ModeDecomposition,
    StructureReport,
    TrapConfig,
    classify_structure,
    continuation,
    equilibrium,
    gamma_parameters,
    length_scale,
    normal_modes,
    total_potential,
)
from .ensemble import (
    BeamProfile,
    ScatteringScenario,
    mean_scattering_probability_per_ion,
    per_ion_depths,
    scan_depth,
    scatter_count_pmf,
    subsequent_fraction,
)
from .errors import (
    AdiabaticityWarning,
    ConfigError,
    DegenerateFitError,
    DomainError,
    EllipticDivergenceError,
    EquilibriumError,
    FitConvergenceError,
    IonLatticeError,
    NegativeThermalVarianceError,
    QuadratureConvergenceError,
    SeparatrixError,
    SingularConfigurationError,
    SoftModeError,
    SpotParseError,
    TurningPointError,
    UnstableConfigurationError,
)
from .micromotion import (
    MicromotionReport,
    effective_axial_q,
    excess_micromotion,
    q_from_secular_frequency,
    variance_broadening,
)
from .pendulum import (
    IonSpecies,
    LatticeConfig,
    RampProfile,
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
    scattering_probability,
    scattering_rate,
)
from .specfun import elliptic_e, elliptic_k
from .thermometry import (
    GaussianFit,
    ImagingConfig,
    SpotMeasurement,
    TemperatureEstimate,
    estimate_temperature,
    fit_gaussian_profile,
    fit_spot_profiles,
    ion_temperature_from_mode_temperatures,
    read_spot_profiles,
    spot_variance_model,
    synthesize_spots,
    write_spot_profiles,
)

__all__ = [name for name in dir() if not name.startswith("_")]
