import os
import threading

import numpy as np
import pytest

from ionlattice import _fork
from ionlattice import (
    ImagingConfig,
    IonSpecies,
    TrapConfig,
    equilibrium,
    gamma_parameters,
    normal_modes,
)

def _open_descriptors():
    # None where there is no /proc
    fd_dir = "/proc/self/fd"
    return len(os.listdir(fd_dir)) if os.path.isdir(fd_dir) else None


@pytest.fixture(autouse=True)
def nothing_left_behind():
    # after each test: no thread it started still runs, no child process
    # is left to reap, no descriptor (a worker's pipe) is left open, and
    # every OpenBLAS runs the thread count it ran before
    threads = set(threading.enumerate())
    fds = _open_descriptors()
    getters = [get for _, get in _fork.openblas_threads()]
    blas = [get() for get in getters]
    yield
    assert set(threading.enumerate()) <= threads
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_descriptors() == fds
    assert [get() for get in getters] == blas


# The three reference crystals used throughout: an 8-ion string, a 4-ion
# planar zigzag and a 6-ion three-dimensional structure. Solved once per
# session; tests must not mutate them.


@pytest.fixture(scope="session")
def ca40():
    return IonSpecies.ca40()


@pytest.fixture(scope="session")
def trap_string8():
    return TrapConfig.from_frequencies(70e3, 350e3)


@pytest.fixture(scope="session")
def trap_zigzag4():
    return TrapConfig.from_frequencies(85e3, 170e3, q_axial=5e-4)


@pytest.fixture(scope="session")
def trap_octa6():
    return TrapConfig.from_frequencies(105e3, 190e3)


@pytest.fixture(scope="session")
def string8(trap_string8):
    return equilibrium(8, trap_string8, seed=3)


@pytest.fixture(scope="session")
def zigzag4(trap_zigzag4):
    return equilibrium(4, trap_zigzag4, seed=7)


@pytest.fixture(scope="session")
def octa6(trap_octa6):
    return equilibrium(6, trap_octa6, seed=1)


@pytest.fixture(scope="session")
def string8_modes(string8, trap_string8):
    return normal_modes(string8, trap_string8)


@pytest.fixture(scope="session")
def string8_gamma(string8_modes):
    return gamma_parameters(string8_modes)


@pytest.fixture(scope="session")
def imaging():
    return ImagingConfig(sigma_res_axial=2.23e-6, sigma_res_radial=2.09e-6,
                         pixel_pitch=0.92e-6)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
