"""Spans and counts around the calls into each layer of `ionlattice`.

The library is not changed: `install` replaces public names in the module
namespaces where their callers look them up (for example
`ensemble.scattering_probability` or `cli.continuation`) by wrappers.
Layer boundaries get spans (name, start, end, parent); the hot scalar
sites (`mean_scattering_rate`, `elliptic_k`/`elliptic_e`, `quad`) get
counts only, because a span per call there costs about half the solve
time again. Spans are kept in memory and written out when the op ends.
"""

import time
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.sums = Counter()  # seconds at timed sites without spans (quad)
        self._stack = []

    def spanned(self, fn, name, after=None):
        """Wrap fn in a span; name may be a function of fn's arguments.

        after(counts, result, args, kwargs) records counts read from the
        call's arguments and result.
        """
        name_of = name if callable(name) else (lambda *a, **k: name)

        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name_of(*args, **kwargs), time.perf_counter(), None,
                    parent]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(self.counts, result, args, kwargs)
            return result
        return wrapper

    def counted(self, fn, key, first_span=None):
        """Count calls; optionally give the first call its own span."""
        counts = self.counts
        first = self.spanned(fn, first_span) if first_span else fn

        def wrapper(*args, **kwargs):
            counts[key] += 1
            if counts[key] == 1:
                return first(*args, **kwargs)
            return fn(*args, **kwargs)
        return wrapper

    def timed_outermost(self, fn, key):
        """Count calls and add up the time of calls not nested in another."""
        counts, sums = self.counts, self.sums
        depth = [0]

        def wrapper(*args, **kwargs):
            counts[key] += 1
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                sums[key] += time.perf_counter() - start
                depth[0] -= 1
        return wrapper

    def dump(self):
        return {"spans": self.spans, "counts": dict(self.counts),
                "sums": dict(self.sums)}


def _equilibrium_kind(*args, **kwargs):
    guess = kwargs.get("initial_guess", args[3] if len(args) > 3 else None)
    return ("crystal.equilibrium_cold" if guess is None
            else "crystal.equilibrium_warm")


def _after_minimize(counts, res, args, kwargs):
    counts["crystal.bfgs_iterations"] += int(res.nit)


def _after_least_squares(counts, res, args, kwargs):
    counts["thermometry.nfev"] += int(res.nfev)


def _after_continuation(counts, res, args, kwargs):
    counts["crystal.rows"] += len(res.nu_latt)
    counts["crystal.refined_rows"] += int(np.sum(res.refined))
    counts["crystal.flagged"] += len(res.flagged)


def _after_scan(counts, rows, args, kwargs):
    scenario, beam, depths = args[:3]
    factors = beam.depth_factor(scenario.crystal.positions)
    counts["ensemble.points"] += len(np.asarray(depths)) * len(factors)
    counts["ensemble.ions"] += len(factors)
    # bit-equal factors only: what a per-ion dedup can share safely
    counts["ensemble.unique_ions"] += len(np.unique(factors))


def install(tracer):
    """Wrap the public names of every layer; returns nothing."""
    from ionlattice import (cli, crystal, ensemble, pendulum, specfun,
                            thermometry)

    t = tracer
    equilibrium = t.spanned(crystal.equilibrium, _equilibrium_kind)
    normal_modes = t.spanned(crystal.normal_modes, "crystal.normal_modes")
    quad = t.timed_outermost(specfun.quad, "specfun.quad")
    patches = [
        (cli, "load_config", t.spanned(cli.load_config, "config.load")),
        (cli, "equilibrium", equilibrium),
        (crystal, "equilibrium", equilibrium),
        (cli, "normal_modes", normal_modes),
        (crystal, "normal_modes", normal_modes),
        (crystal, "minimize", t.spanned(crystal.minimize, "crystal.bfgs",
                                        _after_minimize)),
        (cli, "continuation", t.spanned(cli.continuation,
                                        "crystal.continuation",
                                        _after_continuation)),
        (cli, "scan_depth", t.spanned(cli.scan_depth, "ensemble.scan",
                                      _after_scan)),
        (ensemble, "scattering_probability",
         t.spanned(ensemble.scattering_probability, "pendulum.probability")),
        (ensemble, "bunching", t.spanned(ensemble.bunching,
                                         "pendulum.bunching")),
        (pendulum, "mean_scattering_rate",
         t.counted(pendulum.mean_scattering_rate, "pendulum.rate",
                   first_span="pendulum.first_rate")),
        (pendulum, "elliptic_k", t.counted(pendulum.elliptic_k,
                                           "specfun.elliptic")),
        (pendulum, "elliptic_e", t.counted(pendulum.elliptic_e,
                                           "specfun.elliptic")),
        (pendulum, "integrate_with_endpoint_singularity",
         t.spanned(pendulum.integrate_with_endpoint_singularity,
                   "specfun.integrate")),
        (pendulum, "quad", quad),
        (specfun, "quad", quad),
        (cli, "read_spot_profiles", t.spanned(cli.read_spot_profiles,
                                              "thermometry.read")),
        (cli, "fit_spot_profiles", t.spanned(cli.fit_spot_profiles,
                                             "thermometry.fit")),
        (thermometry, "fit_gaussian_profile",
         t.counted(thermometry.fit_gaussian_profile, "thermometry.fits")),
        (thermometry, "least_squares",
         t.spanned(thermometry.least_squares, "thermometry.least_squares",
                   _after_least_squares)),
        (cli, "excess_micromotion", t.spanned(cli.excess_micromotion,
                                              "micromotion.report")),
    ]
    for module, name, wrapper in patches:
        setattr(module, name, wrapper)
