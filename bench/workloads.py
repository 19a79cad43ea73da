"""Workloads of the benchmark: the crystals, their configs and the CLI ops.

Every workload uses the 25 mK blue lattice (detuning 0.76 THz), the
default 2 us ramp + 1 us hold and T0 = 3.6 mK, and runs each verb on its
default grid. Crystal seeds are fixed here; the benchmark's own seed
only drives the photon noise of the synthetic spots CSV.
"""

import json

LATTICE = {"detuning_THz": 0.76, "depth_max_mK": 25.0}
T0_MK = 3.6

# name -> (n_ions, f_z_kHz, f_radial_kHz, crystal seed). Kept out on
# purpose: `modes` on a 32-ion planar crystal (40/300 kHz, seed 7) exits 3
# with "equilibrium search stalled" while `equilibrium` on it exits 0. A
# failing op has no meaningful time, and fixing it would look like a
# slowdown.
CRYSTALS = {
    "string8": (8, 70.0, 350.0, 3),
    "zigzag4": (4, 85.0, 170.0, 7),
    "crystal64": (64, 85.0, 300.0, 7),
}

# the thermometry input: 128 profiles (64 ions x 2 axes) at this
# temperature and photon budget
SPOTS_T_MK = 3.5
SPOTS_PHOTONS = 1e4
SPOTS_CRYSTAL = "crystal64"

# name -> (why, ops); an op is (verb, crystal) and runs as one
# `ionlattice <verb>` process. `why` is the one-line reason also given in
# BENCHMARK.json; the comments give the measured shares it rests on
# (2-core host, Python 3.11, numpy 2.4, scipy 1.17).
WORKLOADS = {
    # pendulum and specfun do about 85% of the work here: 522,444 scalar
    # mean_scattering_rate calls from quad, plus the lazy B(theta) table.
    # crystal does under 1%. The two crystals are the extremes of shared
    # work: the string has 1 distinct per-ion beam depth factor in 8, the
    # zigzag has 3 in 4. So a per-ion dedup shows on one and not the other.
    "scatter_scan": (
        "pendulum and specfun do ~85% of the work (scalar quad callbacks, "
        "lazy B(theta) table); string vs zigzag share 1 vs 3 distinct "
        "per-ion depths, so a per-ion dedup shows on one only",
        [("scatter", "string8"), ("scatter", "zigzag4")]),
    # The warm crystal path does about 75% of the work: Newton polish,
    # Hessian, eigh and assignment, with 422 equilibrium calls. pendulum
    # does none. At N=4 (the avoided crossing of acceptance criterion 3),
    # per-step Python overhead dominates. At N=64, dense 192x192 linear
    # algebra dominates, and the step-halving path fires 11 times. This
    # workload also has the largest peak RSS.
    "mode_sweep": (
        "warm crystal path (Newton, Hessian, eigh, assignment) does ~75%: "
        "per-step Python overhead at N=4 with an avoided crossing, dense "
        "192x192 algebra and step halving at N=64; largest peak RSS",
        [("modes", "zigzag4"), ("modes", "crystal64")]),
    # equilibrium, thermometry and micromotion on one 64-ion config, like
    # a user's shell session. The cold crystal path does about 55% of the
    # work: three BFGS solves with 4 restarts each. Interpreter and import
    # start-up, paid three times, is about 35%. pendulum does none. This
    # is where import-time and cold-solver changes show most.
    "imaging_pipeline": (
        "a user's shell session on one 64-ion crystal: three cold BFGS "
        "solves (~55%) and start-up paid three times (~35%), where import "
        "and cold-solver changes show most",
        [("equilibrium", "crystal64"), ("thermometry", "crystal64"),
         ("micromotion", "crystal64")]),
}

VERBS = ("equilibrium", "modes", "scatter", "thermometry", "micromotion")


def op_name(verb, crystal):
    return f"{verb}-{crystal}"


def config_text(crystal):
    """The run config of one crystal, as JSON text (a YAML subset)."""
    n_ions, f_z, f_radial, seed = CRYSTALS[crystal]
    return json.dumps({
        "schema_version": 1,
        "trap": {"f_z_kHz": f_z, "f_radial_kHz": f_radial},
        "lattice": LATTICE,
        "crystal": {"n_ions": n_ions, "seed": seed, "T0_mK": T0_MK},
    }, indent=2, sort_keys=True) + "\n"
