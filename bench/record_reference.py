"""Record the reference artifacts the output checks compare against.

    python3 bench/record_reference.py

Run from the root of a checkout whose results are known to be right. It
runs every op of every workload once (thermometry on the seed-0 spots)
and copies the artifacts to bench/reference/<verb>-<crystal>/, gzipping
modes.csv. For modes it also stores the requested grid nodes (the rows
the tracker did not insert) in nodes_MHz.json.
"""

import gzip
import json
import os
import shutil
import subprocess
import sys

import run
from workloads import WORKLOADS, op_name


def main():
    work = os.path.join(run.ROOT, ".bench_work", "record")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = run.child_env()
    ops = sorted({op for _, wl_ops in WORKLOADS.values() for op in wl_ops})
    inputs = {}
    for workload in WORKLOADS:
        inputs.update(run.prepare_inputs(work, workload, seed=0))

    if run.SRC not in sys.path:
        sys.path.insert(0, run.SRC)
    import ionlattice as il

    for verb, crystal in ops:
        name = op_name(verb, crystal)
        out = os.path.join(run.REFERENCE, name)
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        argv = [verb, "--config", inputs[crystal], "--out", out]
        if verb == "thermometry":
            argv += ["--spots", inputs["spots"]]
        subprocess.run([sys.executable, "-m", "ionlattice.cli", *argv],
                       env=env, cwd=run.ROOT, check=True)
        if verb == "modes":
            path = os.path.join(out, "modes.csv")
            with open(path, "rb") as src, gzip.open(path + ".gz", "wb") as dst:
                shutil.copyfileobj(src, dst)
            os.remove(path)
            cfg = il.load_config(inputs[crystal])
            res = il.continuation(cfg.n_ions, cfg.trap, cfg.lattice,
                                  species=cfg.species, seed=cfg.seed,
                                  steps=200)
            nodes = [float(nu) / 1e6
                     for nu, refined in zip(res.nu_latt, res.refined)
                     if not refined]
            with open(os.path.join(out, "nodes_MHz.json"), "w",
                      encoding="utf-8") as fh:
                json.dump(nodes, fh)
                fh.write("\n")
        print(name, sorted(os.listdir(out)))


if __name__ == "__main__":
    main()
