"""Benchmark of the madelung package: three workloads, each operation in a
fresh process, outputs checked against closed forms apart from the program.

Usage (from the repository root):

    python3 bench/run.py --workload verify_suite --seed 0 --seconds 35 --trace 0

Workloads: verify_suite, trajectory_artifacts, wide_domain (see README.md).
The run repeats whole operations, as many as fit into --seconds, and prints,
as its last line, one JSON object: correct, attempted, failed and metrics.  With
--trace 0 the metrics are wall_s, setup_s and peak_rss_mib (medians over the
run); with --trace 1 they are the per-layer metrics of a traced operation,
plus its wall time and its overhead over an untraced operation of the same
run.  A fuller record of the run goes to bench/results/.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import checks
import worker

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
RESULTS = BENCH / "results"

SETUPS_PER_ROUND = 2  # set-up-only processes added to each round for setup_s
RUN_LIMIT_S = 170.0   # every run ends within this, whatever --seconds says
TRAJ_DURATION = 1.6  # 1600 whole parcel steps at the scenario's dt = 1e-3
TRAJ_PARCELS = 16
SCENARIO_DT = 1e-3
SIGMA0 = 1.0         # free_gaussian's spreading_law check fixes sigma0 = 1

# Thread pools pinned to one thread: OpenBLAS is multi-threaded here.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def workload_params(workload, seed):
    """Packet parameters drawn from the seed, within ranges where every check
    holds (README.md lists them).  verify_suite has fixed inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "trajectory_artifacts":
        return {"x0": rng.uniform(-2.0, 2.0), "k0": rng.uniform(-1.0, 1.0),
                "duration": TRAJ_DURATION, "n_parcels": TRAJ_PARCELS}
    if workload == "wide_domain":
        return {"x0": rng.uniform(-4.0, 4.0), "k0": rng.uniform(1.5, 2.5)}
    return {}


def check_outputs(workload, out, result, params):
    if workload == "verify_suite":
        return checks.check_verify_suite(out, result)
    if workload == "trajectory_artifacts":
        return checks.check_trajectory_artifacts(out, result, params, SIGMA0, SCENARIO_DT)
    return checks.check_wide_domain(out, params, worker.WIDE_GRID, worker.WIDE_SIGMA0,
                                    worker.WIDE_DT, worker.WIDE_STEPS, worker.WIDE_OBSERVE_EVERY)


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload, params, *, trace, setup_only, deadline):
    """Run one worker process; returns its record, with 'error' set on failure."""
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        out = tmp / "out"
        out.mkdir()
        spec = {"workload": workload, "params": params, "out": str(out),
                "result": str(tmp / "result.json"), "trace": trace, "setup_only": setup_only}
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
                cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            return {"trace": trace, "error": "timed out"}
        if proc.returncode != 0:
            return {"trace": trace, "error": proc.stderr.strip()[-2000:]}
        record = json.loads((tmp / "result.json").read_text())
        record["trace"] = trace
        if not Path(record.pop("madelung")).resolve().is_relative_to(SRC):
            return {"trace": trace, "error": "imported madelung from outside src/"}
        if not setup_only:
            try:
                problems, errors = check_outputs(workload, str(out), record, params)
            except (OSError, KeyError, IndexError, ValueError) as exc:
                problems, errors = [f"outputs unreadable: {exc!r}"], {}
            record["problems"], record["errors"] = problems, errors
        return record
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def median_of(records, key):
    return statistics.median(r[key] for r in records)


def layer_metrics(traced, untraced):
    """Per-layer metrics: medians over the traced operations."""
    names = traced[0]["layers"]
    metrics = {name: {"value": statistics.median(r["layers"][name][0] for r in traced),
                      "unit": unit} for name, (_, unit) in names.items()}
    for r in traced[1:]:
        for name, (value, unit) in r["layers"].items():
            # cli.bytes_written is left out: reports carry their runtime
            if (unit == "count" or name.endswith("_bytes")) and value != names[name][0]:
                print(f"warning: count {name} differs between traced operations",
                      file=sys.stderr)
    wall = median_of(traced, "wall_s")
    metrics["trace.wall_s"] = {"value": wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": wall - median_of(untraced, "wall_s"), "unit": "s"}
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(worker.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "madelung" / "__init__.py").is_file():
        print(f"error: no madelung sources under {SRC}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    params = workload_params(args.workload, args.seed)
    WORK.mkdir(exist_ok=True)

    def child(trace=False, setup_only=False):
        return run_child(args.workload, params, trace=trace, setup_only=setup_only,
                         deadline=deadline)

    # Not counted: compiles bytecode, so every counted set-up reads the cache.
    warm = child(setup_only=True)
    if "error" in warm:
        print(f"error: set-up failed:\n{warm['error']}", file=sys.stderr)
        return 1

    # Whole rounds, as many as fit in --seconds judging by the slowest round so
    # far; the first round always runs.  Set-ups are spread over the rounds
    # because the machine's speed drifts over tens of seconds.
    ops, setups, longest = [], [], 0.0
    while True:
        began = time.perf_counter()
        setups += [child(setup_only=True) for _ in range(SETUPS_PER_ROUND)]
        if args.trace:
            ops.append(child())
        ops.append(child(trace=bool(args.trace)))
        longest = max(longest, time.perf_counter() - began)
        now = time.perf_counter()
        if now + longest - start > args.seconds or now + longest > deadline:
            break

    done = [r for r in ops if "error" not in r]
    failed = [r for r in ops if "error" in r]
    for r in failed:
        print(f"operation failed: {r['error']}", file=sys.stderr)
    for r in done:
        for p in r["problems"]:
            print(f"check failed: {p}", file=sys.stderr)
    untraced = [r for r in done if not r["trace"]]
    traced = [r for r in done if r["trace"]]
    if not untraced or (args.trace and not traced):
        print("error: no operation completed", file=sys.stderr)
        return 1

    if args.trace:
        metrics = layer_metrics(traced, untraced)
    else:
        set_up = [r for r in setups + untraced if "error" not in r]
        metrics = {
            "wall_s": {"value": median_of(untraced, "wall_s"), "unit": "s"},
            "setup_s": {"value": median_of(set_up, "setup_s"), "unit": "s"},
            "peak_rss_mib": {"value": median_of(untraced, "peak_rss_mib"), "unit": "MiB"},
        }
    summary = {"correct": all(not r["problems"] for r in done),
               "attempted": len(ops), "failed": len(failed), "metrics": metrics}

    RESULTS.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "params": params, "summary": summary,
              "operations": ops, "setups": setups}
    name = f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n")
    try:
        WORK.rmdir()
    except OSError:
        pass  # another run is still using it
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
