"""Benchmark of `ionlattice` CLI time-to-result, one workload per call.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of bench/workloads.py's workloads, or `all` to run each in
turn (the last line then holds every workload's metrics, prefixed by its
name).

Run it from the root of a checkout: it measures the package under src/.
An op is one `ionlattice <verb>` run in a fresh Python process (through
bench/child.py), because every user command pays interpreter start,
`import ionlattice` and any lazy set-up. Ops run one at a time. A pass
runs every op of the workload once (bench/workloads.py). Configs and the
spots CSV are written from the seed before any timing, through public
library calls.

--trace 0 repeats passes for about S seconds (the pass count that ends
nearest to S, at least one) and reports, as medians over the passes:
  wall_s       wall time of a pass, summed over its ops, each from
               process launch to exit;
  solve_s      time inside `ionlattice.cli.main`, summed over the ops;
  peak_rss_mb  largest peak RSS of the pass's processes;
and setup_s, the time from launch until `import ionlattice.cli` has
finished, as the median over every process of the run.

--trace 1 runs one untraced pass and one traced pass (bench/tracer.py)
and `python -X importtime`, and reports the per-layer metrics, with the
tracing overhead as traced minus untraced solve time.

Every artifact is checked (bench/checks.py); an op fails on a non-zero
exit or a failed check, and the run goes on. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. Host metadata, per-op values and the spans of a traced run go to
.bench_work/<workload>/result.json.
"""

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(BENCH, "reference")
sys.path.insert(0, BENCH)

import checks  # noqa: E402
from workloads import (  # noqa: E402
    SPOTS_CRYSTAL,
    SPOTS_PHOTONS,
    SPOTS_T_MK,
    VERBS,
    WORKLOADS,
    config_text,
    op_name,
)

# the whole run ends within this many seconds, set-up included
RUN_LIMIT_S = 170.0
IMPORTTIME_REPEATS = 3
IMPORTED_MODULES = ("constants", "specfun", "pendulum", "crystal", "ensemble",
                    "thermometry", "micromotion", "config", "cli")

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("solve_s", "s"),
              ("peak_rss_mb", "MiB"))

# per-layer metric -> unit
PER_LAYER = {
    "specfun.elliptic_calls": "count",
    "specfun.quad_calls": "count",
    "specfun.quad_s": "s",
    "specfun.integrate_calls": "count",
    "specfun.integrate_s": "s",
    "pendulum.rate_calls": "count",
    "pendulum.first_rate_s": "s",
    "pendulum.probability_calls": "count",
    "pendulum.probability_s": "s",
    "pendulum.probability_self_s": "s",
    "pendulum.bunching_calls": "count",
    "pendulum.bunching_s": "s",
    "ensemble.scan_s": "s",
    "ensemble.points": "count",
    "ensemble.unique_ion_share": "ratio",
    "crystal.equilibrium_cold_calls": "count",
    "crystal.equilibrium_cold_s": "s",
    "crystal.equilibrium_warm_calls": "count",
    "crystal.equilibrium_warm_s": "s",
    "crystal.bfgs_calls": "count",
    "crystal.bfgs_iterations": "count",
    "crystal.normal_modes_calls": "count",
    "crystal.normal_modes_s": "s",
    "crystal.continuation_s": "s",
    "crystal.continuation_self_s": "s",
    "crystal.rows": "count",
    "crystal.refined_rows": "count",
    "crystal.flagged": "count",
    "thermometry.fits": "count",
    "thermometry.fit_s": "s",
    "thermometry.nfev": "count",
    "thermometry.read_s": "s",
    "micromotion.report_s": "s",
    "config.load_s": "s",
    "cli.artifact_bytes": "bytes",
    **{f"cli.{verb}_wall_s": "s" for verb in VERBS},
    **{f"{module}.import_s": "s" for module in IMPORTED_MODULES},
    "ionlattice.import_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def host_metadata():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    # git must not look above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))

    def git(*args):
        try:
            out = subprocess.run(["git", *args], cwd=ROOT, env=env,
                                 capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout if out.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if commit else None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {
            k: os.environ.get(k) for k in (
                "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")},
        "git_commit": commit.strip() if commit else None,
        "git_dirty": bool(status.strip()) if status is not None else None,
    }


def child_env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=SRC + (os.pathsep + path if path else ""))


def prepare_inputs(work, workload, seed):
    """Configs of the workload's crystals and, if needed, the spots CSV."""
    inputs = {}
    for verb, crystal in WORKLOADS[workload][1]:
        path = os.path.join(work, f"{crystal}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(config_text(crystal))
        inputs[crystal] = path
    if any(verb == "thermometry" for verb, _ in WORKLOADS[workload][1]):
        inputs["spots"] = os.path.join(work, "spots.csv")
        write_spots(inputs[SPOTS_CRYSTAL], inputs["spots"], seed)
    return inputs


def write_spots(config_path, path, seed):
    """Synthesize the thermometry input from the seed, in this process."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import ionlattice as il

    cfg = il.load_config(config_path)
    state = il.equilibrium(cfg.n_ions, cfg.trap, species=cfg.species,
                           seed=cfg.seed)
    gamma = il.gamma_parameters(
        il.normal_modes(state, cfg.trap, species=cfg.species))
    spots = il.synthesize_spots(SPOTS_T_MK * 1e-3, state, gamma, cfg.imaging,
                                SPOTS_PHOTONS, seed % 2 ** 32, trap=cfg.trap,
                                species=cfg.species)
    il.write_spot_profiles(spots, path)


def check_program(env):
    """Import the CLI once (fills the bytecode cache) and check its origin."""
    try:
        out = subprocess.run(
            [sys.executable, "-c",
             "import ionlattice.cli as c; print(c.__file__)"],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    except subprocess.TimeoutExpired:
        raise BenchError("importing ionlattice.cli timed out") from None
    origin = out.stdout.strip()
    if out.returncode != 0 or not origin.startswith(SRC + os.sep):
        raise BenchError(f"cannot import ionlattice.cli from {SRC}: "
                         f"{out.stderr.strip() or origin}")


def run_op(verb, crystal, inputs, work, env, deadline, trace=False):
    """Run one op in a fresh process, check its artifacts; one record."""
    name = op_name(verb, crystal)
    out = os.path.join(work, "ops", name)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    timing_path = os.path.join(out, "timing.json")
    spans_path = os.path.join(out, "spans.json")
    argv = [verb, "--config", inputs[crystal], "--out", out]
    if verb == "thermometry":
        argv += ["--spots", inputs["spots"]]
    cmd = [sys.executable, os.path.join(BENCH, "child.py"), timing_path]
    if trace:
        cmd += ["--trace", spans_path]
    cmd += ["--", *argv]

    with open(os.path.join(out, "stderr.txt"), "wb") as err:
        launched = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(max(deadline - launched, 1.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        ended = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)

    record = {"op": name, "verb": verb, "rc": proc.returncode,
              "wall_s": ended - launched,
              "peak_rss_mb": usage.ru_maxrss / 1024.0,
              "setup_s": None, "solve_s": None, "problems": []}
    try:
        with open(timing_path, encoding="utf-8") as fh:
            timing = json.load(fh)
        record["setup_s"] = timing["imported_at"] - launched
        record["solve_s"] = timing["solve_s"]
    except (OSError, ValueError, KeyError):
        record["problems"].append("no timing record")
    if proc.returncode != 0:
        record["problems"].append(f"exit code {proc.returncode}")
    else:
        record["problems"] += checks.check_op(
            verb, crystal, out, os.path.join(REFERENCE, name))
    paths = [os.path.join(out, f) for f in checks.ARTIFACTS[verb]]
    record["artifact_bytes"] = sum(os.path.getsize(p) for p in paths
                                   if os.path.exists(p))
    if trace:
        try:
            with open(spans_path, encoding="utf-8") as fh:
                record["trace"] = json.load(fh)
        except (OSError, ValueError):
            record["problems"].append("no trace record")
    return record


def run_pass(workload, inputs, work, env, deadline, trace=False):
    return [run_op(verb, crystal, inputs, work, env, deadline, trace)
            for verb, crystal in WORKLOADS[workload][1]]


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else float("nan")


def end_to_end_metrics(passes):
    """{metric: (value, sample count)} as medians over passes."""
    setups = [op["setup_s"] for p in passes for op in p]
    return {
        "wall_s": (_median([sum(op["wall_s"] for op in p) for p in passes]),
                   len(passes)),
        "setup_s": (_median(setups), sum(s is not None for s in setups)),
        "solve_s": (_median([sum(op["solve_s"] or 0.0 for op in p)
                             for p in passes]), len(passes)),
        "peak_rss_mb": (_median([max(op["peak_rss_mb"] for op in p)
                                 for p in passes]), len(passes)),
    }


def import_times(env):
    """Median cumulative import time (s) per module over fresh processes."""
    samples = {}
    pattern = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)")
    for _ in range(IMPORTTIME_REPEATS):
        out = subprocess.run(
            [sys.executable, "-X", "importtime", "-c",
             "import ionlattice.cli"],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
        for cumulative, module in pattern.findall(out.stderr):
            samples.setdefault(module, []).append(int(cumulative) * 1e-6)
    modules = {m: f"ionlattice.{m}" for m in IMPORTED_MODULES}
    modules["ionlattice"] = "ionlattice"
    return {m: _median(samples.get(full, [])) for m, full in modules.items()}


def layer_metrics(untraced, traced, imports):
    """Per-layer metrics of a traced and an untraced pass, and imports."""
    total, calls, self_s = Counter(), Counter(), Counter()
    counts, sums = Counter(), Counter()
    for op in traced:
        trace = op.get("trace") or {"spans": [], "counts": {}, "sums": {}}
        spans = trace["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), inner in zip(spans, child):
            total[name] += end - start
            calls[name] += 1
            self_s[name] += end - start - inner
        counts.update(trace["counts"])
        sums.update(trace["sums"])

    m = {
        "specfun.elliptic_calls": counts["specfun.elliptic"],
        "specfun.quad_calls": counts["specfun.quad"],
        "specfun.quad_s": sums["specfun.quad"],
        "pendulum.rate_calls": counts["pendulum.rate"],
        "pendulum.first_rate_s": total["pendulum.first_rate"],
        "pendulum.probability_self_s": self_s["pendulum.probability"],
        "ensemble.scan_s": total["ensemble.scan"],
        "ensemble.points": counts["ensemble.points"],
        "ensemble.unique_ion_share": (
            counts["ensemble.unique_ions"] / counts["ensemble.ions"]
            if counts["ensemble.ions"] else 0.0),
        "crystal.bfgs_calls": calls["crystal.bfgs"],
        "crystal.bfgs_iterations": counts["crystal.bfgs_iterations"],
        "crystal.continuation_s": total["crystal.continuation"],
        "crystal.continuation_self_s": self_s["crystal.continuation"],
        "crystal.rows": counts["crystal.rows"],
        "crystal.refined_rows": counts["crystal.refined_rows"],
        "crystal.flagged": counts["crystal.flagged"],
        "thermometry.fits": counts["thermometry.fits"],
        "thermometry.fit_s": total["thermometry.fit"],
        "thermometry.nfev": counts["thermometry.nfev"],
        "thermometry.read_s": total["thermometry.read"],
        "micromotion.report_s": total["micromotion.report"],
        "config.load_s": total["config.load"],
        "cli.artifact_bytes": sum(op["artifact_bytes"] for op in untraced),
        "trace.overhead_s": (sum(op["solve_s"] or 0.0 for op in traced)
                             - sum(op["solve_s"] or 0.0 for op in untraced)),
    }
    for span in ("specfun.integrate", "pendulum.probability",
                 "pendulum.bunching", "crystal.equilibrium_cold",
                 "crystal.equilibrium_warm", "crystal.normal_modes"):
        m[f"{span}_calls"] = calls[span]
        m[f"{span}_s"] = total[span]
    for verb in VERBS:
        m[f"cli.{verb}_wall_s"] = sum(op["wall_s"] for op in untraced
                                      if op["verb"] == verb)
    for module, seconds in imports.items():
        m[f"{module}.import_s"] = seconds
    return {name: (m[name], 1) for name in PER_LAYER}


def run(workload, seed, seconds, trace):
    deadline = time.perf_counter() + RUN_LIMIT_S
    if not os.path.isfile(os.path.join(SRC, "ionlattice", "cli.py")):
        raise BenchError(f"no ionlattice package under {SRC}")
    work = os.path.join(ROOT, ".bench_work", workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = child_env()
    check_program(env)
    inputs = prepare_inputs(work, workload, seed)
    result = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "host": host_metadata()}

    if trace:
        untraced = run_pass(workload, inputs, work, env, deadline)
        traced = run_pass(workload, inputs, work, env, deadline, trace=True)
        ops = untraced + traced
        metrics = layer_metrics(untraced, traced, import_times(env))
        result["passes"] = [untraced, traced]
    else:
        passes = []
        measured = time.perf_counter()
        while True:
            passes.append(run_pass(workload, inputs, work, env, deadline))
            now = time.perf_counter()
            per_pass = (now - measured) / len(passes)
            # stop where the measured time ends nearest to `seconds`
            if (now - measured + per_pass / 2 >= seconds
                    or now + per_pass > deadline - 10.0):
                break
        ops = [op for p in passes for op in p]
        metrics = end_to_end_metrics(passes)
        result["passes"] = passes

    failed = [op for op in ops if op["problems"]]
    units = dict(END_TO_END) if not trace else PER_LAYER
    result["metrics"] = {k: {"value": v, "unit": units[k], "samples": n}
                         for k, (v, n) in metrics.items()}
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    print("host " + json.dumps(result["host"], sort_keys=True))
    for k, (v, n) in metrics.items():
        print(f"{workload:<17} {k:<32} {v:>14.6g} {units[k]:<6} (n={n})")
    print(f"{workload:<17} {'ops':<32} {len(ops):>14d}")
    print(f"{workload:<17} {'failed_ops':<32} {len(failed):>14d}")
    for op in failed:
        print(f"FAILED {op['op']}: {'; '.join(op['problems'])}",
              file=sys.stderr)
    return {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, (v, _) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops the op it is waiting for (see run_op)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        summaries = {name: run(name, args.seed, args.seconds,
                               bool(args.trace)) for name in names}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if len(summaries) == 1:
        print(json.dumps(summaries[names[0]]))
    else:
        print(json.dumps({
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {f"{name}.{k}": v for name, s in summaries.items()
                        for k, v in s["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
