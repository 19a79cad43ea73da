"""The literal constants match scipy's exactly, the Student-t quantile to
1e-13 relative."""

import importlib
import os
import subprocess
import sys

import pytest
import scipy.constants
from scipy.special import stdtrit
from scipy.stats import t as student_t

import ionlattice
from ionlattice import constants as cn
from ionlattice._optim import student_t_975


@pytest.mark.parametrize("name, value", [
    ("KB", scipy.constants.k),
    ("HBAR", scipy.constants.hbar),
    ("ECHARGE", scipy.constants.e),
    ("EPS0", scipy.constants.epsilon_0),
    ("AMU", scipy.constants.physical_constants["atomic mass constant"][0]),
])
def test_literal_equals_scipy(name, value):
    # bit-equal, so config hashes and artifact bytes do not move
    assert getattr(cn, name) == value


def test_t_quantile_matches_t_ppf():
    # the quantile of thermometry's temperature interval
    for dof in range(1, 501):
        q = student_t_975(dof)
        assert q == pytest.approx(stdtrit(dof, 0.975), rel=1e-13, abs=0.0)
        assert q == pytest.approx(student_t.ppf(0.975, dof), rel=1e-13,
                                  abs=0.0), dof


def test_cli_import_skips_scipy_stats():
    src = os.path.dirname(os.path.dirname(ionlattice.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, ionlattice.cli; print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_cli_import_generates_no_code_and_defers_one_path_modules():
    # every verb pays its start-up: no @dataclass writes methods at import,
    # and difflib (the unknown-key hint) and csv (the spots CSV) load only
    # on the path that uses them
    src = os.path.dirname(os.path.dirname(ionlattice.__file__))
    script = (
        "import sys, ionlattice.cli\n"
        "print([m for m in ('difflib', 'csv') if m in sys.modules])\n"
        "import dataclasses, ionlattice\n"
        "print([n for n in ionlattice.__all__\n"
        "       if dataclasses.is_dataclass(getattr(ionlattice, n))])\n")
    out = subprocess.run([sys.executable, "-c", script],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    assert out.stdout.split("\n")[:2] == ["[]", "[]"]


# the package's public names: the 73 it exports from its submodules, and
# the 9 submodules themselves
PUBLIC_NAMES = """
    AdiabaticityWarning BeamProfile ConfigError ContinuationResult
    CrystalState DegenerateFitError DomainError EllipticDivergenceError
    EquilibriumError FitConvergenceError GammaTable GaussianFit
    ImagingConfig IonLatticeError IonSpecies LatticeConfig
    MicromotionReport ModeDecomposition NegativeThermalVarianceError
    QuadratureConvergenceError RampProfile RunConfig ScatteringScenario
    SeparatrixError SingularConfigurationError SoftModeError
    SpotMeasurement SpotParseError StructureReport TemperatureEstimate
    TrapConfig TurningPointError UnstableConfigurationError
    action_density bunching bunching_given_energy classify_structure
    config constants continuation crystal
    delocalized_scattering_probability dimensionless_action
    effective_axial_q elliptic_e elliptic_k energy_density ensemble
    equilibrium errors estimate_temperature excess_micromotion
    fit_gaussian_profile fit_spot_profiles gamma_parameters
    ion_temperature_from_mode_temperatures lattice_frequency
    length_scale load_config mean_scattering_probability_per_ion
    mean_scattering_rate micromotion normal_modes normalized_period
    parse_config pendulum per_ion_depths position_density_given_energy
    q_from_secular_frequency read_spot_profiles scan_depth
    scatter_count_pmf scattering_probability scattering_rate specfun
    spot_variance_model subsequent_fraction synthesize_spots thermometry
    total_potential variance_broadening write_spot_profiles
""".split()

# the variables through which OpenBLAS takes a thread count as it loads
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                         "OMP_NUM_THREADS")


def _fresh(script, **env):
    # the script's stdout lines in a new interpreter, with no BLAS thread
    # variable but those given
    src = os.path.dirname(os.path.dirname(ionlattice.__file__))
    base = {k: v for k, v in os.environ.items()
            if k not in BLAS_THREAD_VARIABLES}
    out = subprocess.run([sys.executable, "-c", script],
                         env=dict(base, PYTHONPATH=src, **env),
                         capture_output=True, text=True, check=True)
    return out.stdout.split("\n")


def test_package_import_loads_no_numpy_and_changes_nothing():
    # the names resolve on first use: the library import alone loads none
    # of its submodules, sets no variable and freezes no object
    lines = _fresh(
        "import gc, os, sys\n"
        "env, frozen = dict(os.environ), gc.get_freeze_count()\n"
        "import ionlattice\n"
        "print('numpy' in sys.modules, dict(os.environ) == env,\n"
        "      gc.get_freeze_count() == frozen)\n")
    assert lines[0] == "False True True"


def test_every_public_name_resolves():
    assert ionlattice.__all__ == PUBLIC_NAMES
    lines = _fresh(
        "import ionlattice\n"
        "print(sorted(set(ionlattice.__all__) - set(dir(ionlattice))))\n"
        "print([n for n in ionlattice.__all__\n"
        "       if getattr(ionlattice, n, None) is None])\n"
        "print(hasattr(ionlattice, 'no_such_name'))\n"
        "from ionlattice import *\n"
        "from ionlattice import RunConfig, errors\n"
        "print(RunConfig is ionlattice.config.RunConfig,\n"
        "      errors is ionlattice.errors)\n")
    assert lines[:4] == ["[]", "[]", "False", "True True"]


@pytest.mark.parametrize("module", [
    "config", "crystal", "ensemble", "micromotion", "pendulum", "specfun",
    "thermometry"])
def test_submodule_exports_its_table_entry(module):
    # the package's one table is each submodule's __all__; config alone
    # exports a name, config_hash, that the package does not
    mod = importlib.import_module(f"ionlattice.{module}")
    names = ionlattice._EXPORTS[module]
    extra = ["config_hash"] if module == "config" else []
    assert mod.__all__ == [*names, *extra]
    star = {}
    exec(f"from ionlattice.{module} import *", star)
    assert all(star[name] is getattr(mod, name) for name in mod.__all__)
    assert all(getattr(ionlattice, name) is getattr(mod, name)
               for name in names)


def test_import_time_reports_every_module():
    # the benchmark reads each module's import time from -X importtime, which
    # sees only imports made through the import statement's machinery, so
    # the package's lazy names must import their submodules that way
    src = os.path.dirname(os.path.dirname(ionlattice.__file__))
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import ionlattice.cli"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        check=True)
    reported = {line.rsplit("|", 1)[1].strip()
                for line in out.stderr.splitlines()
                if line.startswith("import time:")}
    modules = ("constants", "specfun", "pendulum", "crystal", "ensemble",
               "thermometry", "micromotion", "config", "cli")
    assert {"ionlattice", *(f"ionlattice.{m}" for m in modules)} <= reported


_CLI_IMPORT = (
    "import gc, os\n"
    "env = dict(os.environ)\n"
    "import ionlattice.cli\n"
    "from ionlattice import _fork\n"
    "print([get() for _, get in _fork.openblas_threads()])\n"
    "print(dict(os.environ) == env, 'OPENBLAS_NUM_THREADS' in os.environ,\n"
    "      gc.get_freeze_count() > 0)\n")


def test_cli_import_starts_one_blas_thread_and_freezes_the_import():
    # with no thread count given, OpenBLAS loads on one thread, so it never
    # starts its pool; the variable that said so is gone again, and the
    # import graph is frozen for the exit
    threads, rest = _fresh(_CLI_IMPORT)[:2]
    if threads == "[]":
        pytest.skip("numpy's BLAS is no OpenBLAS with a thread getter")
    assert set(threads.strip("[]").split(", ")) == {"1"}
    assert rest == "True False True"


@pytest.mark.parametrize("name", BLAS_THREAD_VARIABLES)
def test_cli_import_defers_to_a_given_thread_count(name):
    # the caller's setting wins, and the environment stays as it was
    threads, rest = _fresh(_CLI_IMPORT, **{name: "2"})[:2]
    given = name == "OPENBLAS_NUM_THREADS"
    assert rest == f"True {given} True"
    if threads != "[]":  # OpenBLAS takes no more threads than CPUs
        want = str(min(2, len(os.sched_getaffinity(0))))
        assert set(threads.strip("[]").split(", ")) == {want}
