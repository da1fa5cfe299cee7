"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload invoke_small --seed 1 \\
        --seconds 40 --trace 0

A run spends about ``--seconds`` on *repetitions* of the workload.  Each
repetition builds the workload from the seed (timed as ``setup_s``),
runs the measured phase (timed as ``wall_s``), then checks every output
and analyses every request.  The repetitions run in two Python
processes, one per ``PYTHONHASHSEED`` value, and every repetition must
report byte-identical simulated metrics and counts.

On a shared host the speed of the interpreter varies with what the
neighbours do, by up to 1.9x and for minutes at a time, far more than
a change to the program should be judged by.  So the measured phase
runs in segments of a fixed number of simulation events with a fixed
slice of pure-Python reference work after each
(``workloads.reference_slice``), and ``wall_s`` is the host seconds
the program took, scaled to reference speed: multiplied by
:data:`REFERENCE_S` over the reference slices' mean time in that
repetition; the median over repetitions.  The record line gives each
repetition's unscaled seconds and speed factor.  ``setup_s`` is scaled
the same way, by reference slices run right after set-up, and is the
median over repetitions.  ``peak_rss_mb`` is read after each
process's first repetition (``ru_maxrss`` never falls within a
process), and is the median over the two processes.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced repetitions with repetitions whose
measured phase runs under cProfile, and prints the per-layer metrics.

The last line of standard output is the result object; the line before
it is a ``record`` with what the metrics alone do not say (the tail
percentile and its sample count, the arrival rate and in-flight counts,
the failure ratio and its errors, per-repetition times, known gaps).
An operation that raises (a fault, a refusal) counts in ``failed``.
The exit code is 1, and ``correct`` false, when an output is wrong, a
request's attribution does not reconcile, or two repetitions disagree
on a simulated value.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: One process per value; together they check hash-seed independence.
HASH_SEEDS = ("1", "7")
#: Whole-run limit; a process still running near it is killed.
RUN_LIMIT_S = 170.0
#: Mean host seconds of one reference slice between segments on a quiet
#: 2-vCPU VM (Intel Xeon, 2.1 GHz): the speed ``wall_s`` is scaled to.
REFERENCE_S = 120e-6
#: Reference slices run right after set-up to scale ``setup_s``.
SETUP_SLICES = 50


def run_once(workload_cls, seed: int, traced: bool) -> dict:
    """One repetition: set up, measure, check; returns its result."""
    import cProfile
    import resource

    from layers import ProfileSplit
    from workloads import reference_slice

    workload = workload_cls(seed)
    t0 = time.perf_counter()
    workload.setup()
    setup_s = time.perf_counter() - t0
    setup_speed = REFERENCE_S * SETUP_SLICES / sum(
        reference_slice() for _ in range(SETUP_SLICES))
    # Garbage collections then fall at the same points of the measured
    # phase in every repetition of a process.
    gc.collect()
    profile = cProfile.Profile() if traced else None
    workload.profile = profile
    if profile is not None:
        profile.enable()
    workload.measure()
    if profile is not None:
        profile.disable()
    result = workload.check()
    result["traced"] = traced
    result["program_s"] = workload.program_s
    result["speed"] = (REFERENCE_S * workload.reference_count
                       / workload.reference_s)
    result["host"] = {
        "setup_s": setup_s * setup_speed, "unscaled_setup_s": setup_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if profile is not None:
        split = ProfileSplit(profile)
        result["host"].update(split.metrics())
        result["profile_counts"] = split.counts()
    return result


def run_process(args) -> None:
    """Repetitions in this process for about ``--budget`` seconds.

    Prints one JSON line per repetition.  With tracing, repetitions
    alternate untraced and traced, and the process runs at least one
    of each.
    """
    sys.path[:0] = [SRC, HERE]
    from workloads import WORKLOADS

    workload_cls = WORKLOADS[args.workload]
    started = time.monotonic()
    k = 0
    while True:
        traced = bool(args.trace) and k % 2 == 1
        print(json.dumps(run_once(workload_cls, args.seed, traced)),
              flush=True)
        k += 1
        elapsed = time.monotonic() - started
        if k >= 1 + args.trace and elapsed * (k + 1) / k > args.budget:
            return


def spawn(args, hash_seed: str, budget: float, deadline: float) -> list:
    """Run one repetition process; returns its repetitions' results."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH", "")) if p)
    cmd = [sys.executable, os.path.abspath(__file__), "--process",
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace), "--budget", f"{budget:.3f}"]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"repetition process failed "
                         f"(exit {proc.returncode})")
    return [dict(json.loads(line), pythonhashseed=hash_seed)
            for line in proc.stdout.splitlines() if line.startswith("{")]


def scaled_wall(reps: list) -> float:
    """Median over *reps* of the program's seconds at reference speed."""
    return statistics.median(r["program_s"] * r["speed"] for r in reps)


def deterministic_view(result: dict) -> str:
    """Everything a repetition reports on the simulated clock, canonically."""
    keep = {k: result[k] for k in ("attempted", "failed", "wrong", "errors",
                                   "unreconciled", "sim", "counts",
                                   "record")}
    return json.dumps(keep, sort_keys=True)


def load_metric_specs() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--process", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--budget", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write(f"no repro sources under {SRC}\n")
        return 2
    if args.process:
        run_process(args)
        return 0
    specs = load_metric_specs()

    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    reps = []
    rss = []
    for i, hash_seed in enumerate(HASH_SEEDS):
        # Each process gets an equal share of what is left of --seconds.
        left = started + args.seconds - time.monotonic()
        done = spawn(args, hash_seed, left / (len(HASH_SEEDS) - i),
                     deadline)
        reps += done
        # After the first repetition: the peak of one workload in a
        # fresh process, whatever the number of repetitions after it.
        rss.append(done[0]["host"]["peak_rss_mb"])
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]

    first = untraced[0]
    views = {deterministic_view(r) for r in reps}
    traced_counts = {json.dumps(r["profile_counts"], sort_keys=True)
                     for r in traced}
    deterministic = len(views) == 1 and len(traced_counts) <= 1

    def host(key, group):
        return [r["host"][key] for r in group]

    sim = first["sim"]
    values = {
        "wall_s": scaled_wall(untraced),
        "setup_s": statistics.median(host("setup_s", reps)),
        "peak_rss_mb": statistics.median(rss),
        **{k: v for k, v in sim.items() if k != "failed_ratio"},
    }
    if args.trace:
        values.update(first["counts"])
        values.update(traced[0]["profile_counts"])
        for key in traced[0]["host"]:
            if key.startswith(("host.", "ws.envelope_")):
                values[key] = statistics.median(host(key, traced))
        values["simkernel.events_per_host_s"] = (
            first["counts"]["simkernel.events"] / values["wall_s"])
        values["trace.overhead"] = scaled_wall(traced) / values["wall_s"]
    group = "per_layer" if args.trace else "end_to_end"
    missing = [m["name"] for m in specs[group] if m["name"] not in values]
    if missing:
        sys.stderr.write(f"metrics not produced: {missing}\n")
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in specs[group]}

    correct = (deterministic and first["wrong"] == 0
               and not first["unreconciled"])
    record = dict(first["record"])
    record.update({
        "workload": args.workload, "seed": args.seed,
        "failed_ratio": {"value": sim["failed_ratio"], "unit": "ratio"},
        "errors": first["errors"],
        "wrong_outputs": first["wrong"],
        "unreconciled_requests": len(first["unreconciled"]),
        "deterministic_across_repetitions_and_hash_seeds": deterministic,
        "peak_rss_mb_per_process": rss,
        "unscaled_wall_s_median":
            statistics.median(r["program_s"] for r in untraced),
        "repetitions": [{"traced": r["traced"],
                         "pythonhashseed": r["pythonhashseed"],
                         "unscaled_wall_s": r["program_s"],
                         "speed": r["speed"],
                         **{k: r["host"][k] for k in
                            ("unscaled_setup_s", "peak_rss_mb")}}
                        for r in reps],
    })
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": first["attempted"],
                      "failed": first["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
