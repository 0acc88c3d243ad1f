"""One operation of one workload, in a fresh process; started by run.py.

Usage: python3 bench/worker.py '<json spec>'

The spec names the workload, its generated parameters, an output directory,
the file to write this process's result to, and whether to trace or only to
set up.  The worker times three things:

- setup_s: importing madelung and building the workload's inputs;
- wall_s: from the first call into the program until its outputs exist;
- peak_rss_mib: this process's peak resident memory, read right after the
  operation, before anything is written for the output checks.

It judges nothing itself: run.py checks the outputs left in the directory.
"""

import json
import os
import resource
import sys
import time

WIDE_GRID = (65536, -1536.0, 1536.0)
WIDE_SIGMA0 = 1.0
WIDE_DT = 1e-3
WIDE_STEPS = 1000
WIDE_OBSERVE_EVERY = 100


def setup_cli(spec):
    import madelung.cli  # noqa: F401  (the import is part of set-up)

    out, p = spec["out"], spec["params"]
    if spec["workload"] == "verify_suite":
        return ["verify", "--all", "--json", os.path.join(out, "verify.json")]
    return ["run", "--scenario", "free_gaussian", "--trajectories", "--no-fields",
            "--out", out,
            "--set", f"trajectories.duration={p['duration']!r}",
            "--set", f"trajectories.n_parcels={p['n_parcels']}",
            "--set", f"state.x0={p['x0']!r}",
            "--set", f"state.k0={p['k0']!r}"]


def run_cli(argv):
    import madelung.cli

    return {"rc": madelung.cli.main(argv)}


def setup_wide(spec):
    import madelung

    p = spec["params"]
    grid = madelung.make_grid(*WIDE_GRID)
    constants = madelung.PhysicalConstants()
    wf = madelung.gaussian_packet(grid, constants, p["x0"], WIDE_SIGMA0, p["k0"])
    U = madelung.evaluate_potential(madelung.PotentialSpec("free"), grid, constants)
    config = madelung.PropagatorConfig(WIDE_DT, WIDE_STEPS, WIDE_OBSERVE_EVERY)
    return wf, U, config


def run_wide(inputs):
    import madelung

    wf, U, config = inputs
    reports = []
    # looked up on the package at call time, so a tracer's wrappers are seen
    final = madelung.evolve(
        wf, U, config, [lambda t, w: reports.append(madelung.expectations(w, U, t=t))])
    return {"psi": final.psi.values, "reports": reports}


def save_wide(out, outputs):
    import numpy as np

    reports = outputs["reports"]
    np.savez(os.path.join(out, "wide_domain.npz"), psi=outputs["psi"],
             **{k: np.array([getattr(r, k) for r in reports])
                for k in ("t", "norm", "E", "FI", "Q")})


WORKLOADS = {
    "verify_suite": (setup_cli, run_cli, None),
    "trajectory_artifacts": (setup_cli, run_cli, None),
    "wide_domain": (setup_wide, run_wide, save_wide),
}


def files_in(out):
    sizes = [os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(out) for f in fs]
    return len(sizes), sum(sizes)


def main():
    spec = json.loads(sys.argv[1])
    setup, run, save = WORKLOADS[spec["workload"]]

    start = time.perf_counter()
    import madelung

    inputs = setup(spec)
    result = {"setup_s": time.perf_counter() - start, "madelung": madelung.__file__}

    if not spec["setup_only"]:
        tracer = None
        if spec["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        try:
            outputs = run(inputs)
        finally:
            wall_s = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        result["wall_s"] = wall_s
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            n_files, n_bytes = files_in(spec["out"])
            layers = tracer.metrics()
            layers["cli.files_written"] = (n_files, "count")
            layers["cli.bytes_written"] = (n_bytes, "B")
            result["layers"] = layers
            result["sizes"] = tracer.sizes()
        if save is not None:
            save(spec["out"], outputs)
        else:
            result.update(outputs)

    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
