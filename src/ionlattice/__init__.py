"""Laser-cooled ion Coulomb crystals in an optical standing-wave lattice.

Equilibrium structures and normal modes of few-ion crystals in a linear
rf trap, their evolution with the depth of a superimposed 1-D optical
lattice, adiabatic pinning and scattering statistics of lattice-trapped
ions, fluorescence-spot thermometry, and excess-micromotion estimates.

Each public name is imported from its submodule on first use (PEP 562), so
``import ionlattice`` loads no numpy, and ``import ionlattice.cli`` runs
cli's first lines before numpy loads.
"""

__version__ = "0.1.0"

# submodule -> the public names it exports through the package, which
# are also its __all__
_EXPORTS = {
    "config": ("RunConfig", "load_config", "parse_config"),
    "constants": (),
    "crystal": (
        "ContinuationResult", "CrystalState", "GammaTable",
        "ModeDecomposition", "StructureReport", "TrapConfig",
        "classify_structure", "continuation", "equilibrium",
        "gamma_parameters", "length_scale", "normal_modes",
        "total_potential"),
    "ensemble": (
        "BeamProfile", "ScatteringScenario",
        "mean_scattering_probability_per_ion", "per_ion_depths",
        "scan_depth", "scatter_count_pmf", "subsequent_fraction"),
    "errors": (
        "AdiabaticityWarning", "ConfigError", "DegenerateFitError",
        "DomainError", "EllipticDivergenceError", "EquilibriumError",
        "FitConvergenceError", "IonLatticeError",
        "NegativeThermalVarianceError", "QuadratureConvergenceError",
        "SeparatrixError", "SingularConfigurationError", "SoftModeError",
        "SpotParseError", "TurningPointError", "UnstableConfigurationError"),
    "micromotion": (
        "MicromotionReport", "effective_axial_q", "excess_micromotion",
        "q_from_secular_frequency", "variance_broadening"),
    "pendulum": (
        "IonSpecies", "LatticeConfig", "RampProfile", "action_density",
        "bunching", "bunching_given_energy",
        "delocalized_scattering_probability", "dimensionless_action",
        "energy_density", "lattice_frequency", "mean_scattering_rate",
        "normalized_period", "position_density_given_energy",
        "scattering_probability", "scattering_rate"),
    "specfun": ("elliptic_e", "elliptic_k"),
    "thermometry": (
        "GaussianFit", "ImagingConfig", "SpotMeasurement",
        "TemperatureEstimate", "estimate_temperature",
        "fit_gaussian_profile", "fit_spot_profiles",
        "ion_temperature_from_mode_temperatures", "read_spot_profiles",
        "spot_variance_model", "synthesize_spots", "write_spot_profiles"),
}

# every public name, a submodule's own included -> its submodule
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in (module, *names)}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    submodule = _MODULE_OF.get(name)
    if submodule is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    # the import statement's own machinery (which ``-X importtime`` reports)
    # binds the submodule in this namespace
    __import__(f"{__name__}.{submodule}")
    if name == submodule:
        return globals()[name]
    # later lookups find the name here and skip this function
    value = globals()[name] = getattr(globals()[submodule], name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
