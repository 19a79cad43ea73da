"""The literal constants and the Student-t quantile match scipy's exactly."""

import os
import subprocess
import sys

import pytest
import scipy.constants
from scipy.special import stdtrit
from scipy.stats import t as student_t

import ionlattice
from ionlattice import constants as cn


@pytest.mark.parametrize("name, value", [
    ("KB", scipy.constants.k),
    ("HBAR", scipy.constants.hbar),
    ("ECHARGE", scipy.constants.e),
    ("EPS0", scipy.constants.epsilon_0),
    ("C_LIGHT", scipy.constants.c),
    ("AMU", scipy.constants.physical_constants["atomic mass constant"][0]),
])
def test_literal_equals_scipy(name, value):
    # bit-equal, so config hashes and artifact bytes do not move
    assert getattr(cn, name) == value


def test_stdtrit_equals_t_ppf():
    for dof in range(1, 201):
        assert stdtrit(dof, 0.975) == student_t.ppf(0.975, dof), dof


def test_cli_import_skips_scipy_stats():
    src = os.path.dirname(os.path.dirname(ionlattice.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, ionlattice.cli; print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
