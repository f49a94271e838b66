#!/usr/bin/env python3
"""Campaign benchmark for psched: whole policy campaigns through the public
campaign API, timed end to end, with a separate traced run for per-layer
attribution.

    python3 perfbench/run.py --workload policy_fst --seed 7 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke            # tiny-scale self-test, all workloads

Run from the root of a checkout. The first run builds the library from src/
into .bench_build/ (CMake, Release flags of the product build).

Settings (one process each, because PSCHED_THREADS sizes the global pool once):
  serial    PSCHED_THREADS=1, --jobs 1
  parallel  PSCHED_THREADS=1, --jobs 2 (capped at the CPUs available)

Inputs. Every timed campaign runs its workload's committed spec on the trace
the Ross generator makes from seed 20021201, the paper's trace. Per-trace cost
is chaotic in the seed (the heavy-user-bar cells of fig14 deliver 80k to 2.3M
events across generator seeds 1..10), so a timing over one random trace would
measure the trace, not the code. --seed makes a held-out trace: the same
campaign on the generator's trace for that seed goes through every output
check, serial and parallel, and its figures are printed for claims that must
hold on a seed not used while a change was written.

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics of a traced run. Both run every output check:
  * every cell of every campaign is ok;
  * serial and parallel cells.csv / summary.json are byte-identical;
  * re-driving each cell through the layers' public functions reproduces its
    cells.csv row exactly;
  * (--trace 1) arming obs changes no cells.csv byte and no summary.json byte
    outside its breakdown block;
  * (--trace 1) the deterministic counters of the traced serial campaign, the
    traced re-drive and the traced parallel campaign agree exactly.
The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import fcntl
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "cmake")
ANCHOR_SEED = 20021201
# A run must end within 180 s of its build; every subprocess gets what is left.
RUN_LIMIT_S = 170
deadline = None
SETUP_REPS = 20

# The parallel setting: one pool thread and two lanes. The calling thread of
# run_campaign is one lane and the pool thread the other; each lane drains
# its own fork batches, so two threads run and no work waits on waking a
# sleeping worker. With as many pool threads as lanes (2/2, 3/3, 4/4) the
# parallel wall followed the wake-up latency of a shared host's vCPUs: twice
# the sample spread of the serial setting, and slower than 1/2 when the host
# was busy (see README.md).
PARALLEL_THREADS = 1
PARALLEL_JOBS = 2
PARALLEL_PER_ROUND = 2

# name -> (spec template, scale used by --smoke, fewest sample rounds a timed
# run takes). fig14_paper is not in BENCHMARK.json: its timings did not hold
# still enough to gate on (see README.md), but it runs by hand for its
# per-layer numbers and counts. One of its rounds is ~19 s, so its runs
# measure 4 rounds (~80 s) whatever --seconds says.
WORKLOADS = {
    "fig14_paper": ("fig14_paper.spec", 0.03, 4),
    "policy_fst": ("policy_fst.spec", 0.03, 3),
    "deep_queue": ("deep_queue.spec", 0.02, 3),
}

# Deterministic obs counters a later change may cite as exact counts.
DETERMINISTIC_COUNTS = [
    "engine.events_delivered",
    "engine.scheduler_invocations",
    "scheduler.replan_full",
    "scheduler.replan_incremental",
    "fst.forks",
    "fst.forks_drained",
    "fst.resolved_from_master",
    "profile.gap_index.probes",
    "profile.gap_index.skips",
]


class BenchError(Exception):
    pass


def units(kind):
    """(name, unit) of every metric BENCHMARK.json declares under `kind`."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [(metric["name"], metric["unit"]) for metric in json.load(f)[kind]]


def log(message):
    print(message, flush=True)


def fig(value):
    return f"{value:.4g}"


def time_left():
    return max(1.0, deadline - time.monotonic())


def build():
    """Configure and build once per checkout; later runs only re-check."""
    if not os.path.isfile(os.path.join(ROOT, "src", "scenario", "campaign.hpp")):
        raise BenchError(f"no psched sources under {ROOT}/src; run from a checkout")
    os.makedirs(BUILD_ROOT, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
        for step in steps:
            done = subprocess.run(step, cwd=ROOT, capture_output=True, text=True, timeout=880)
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
                raise BenchError("build failed: " + " ".join(step))


def instantiate(workload, seed, scale, work_dir, label):
    """The workload's committed spec with its trace seed (and, for --smoke,
    its scale) replaced, written into the run's work directory."""
    with open(os.path.join(BENCH_DIR, "specs", WORKLOADS[workload][0])) as f:
        text = f.read()
    text, seeds = re.subn(r"(?m)^seed = \d+$", f"seed = {seed}", text)
    if scale is not None:
        text, scales = re.subn(r"(?m)^scale = [0-9.]+$", f"scale = {scale}", text)
    if seeds != 1 or (scale is not None and scales != 1):
        raise BenchError(f"spec template for {workload} lost its seed/scale line")
    path = os.path.join(work_dir, f"{label}.spec")
    with open(path, "w") as f:
        f.write(text)
    return path


def harness(args, threads):
    env = dict(os.environ, PSCHED_THREADS=str(threads))
    env.pop("PSCHED_TRACE", None)
    env.pop("PSCHED_FAULTS", None)
    command = [os.path.join(BUILD_DIR, "campaign_bench")] + args
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=time_left())
    except subprocess.TimeoutExpired:
        raise BenchError("timed out: " + " ".join(args))
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        raise BenchError(f"campaign_bench exited {done.returncode}: " + " ".join(args))
    return json.loads(done.stdout.strip().splitlines()[-1])


def read(path):
    with open(path, "rb") as f:
        return f.read()


class Checks:
    def __init__(self):
        self.failures = []
        self.attempted = 0
        self.failed = 0

    def expect(self, ok, what):
        log(f"check  {'ok  ' if ok else 'FAIL'}  {what}")
        if not ok:
            self.failures.append(what)

    def campaign(self, label, out):
        """Account one harness process's campaigns: every cell must be ok."""
        self.attempted += out["attempted"]
        self.failed += out["not_ok"]
        self.expect(out["not_ok"] == 0, f"{label}: all {out['attempted']} cells ok")

    def same_store(self, label, dir_a, dir_b):
        for name in ("cells.csv", "summary.json"):
            a = read(os.path.join(dir_a, name))
            b = read(os.path.join(dir_b, name))
            self.expect(a == b, f"{label}: serial and parallel {name} byte-identical")

    def redrive(self, label, out):
        detail = f" ({out['first_mismatch']})" if out["mismatches"] else ""
        self.expect(out["mismatches"] == 0,
                    f"{label}: re-drive reproduces all {out['cells']} cells.csv rows{detail}")


def digest(directory):
    return hashlib.sha256(read(os.path.join(directory, "cells.csv"))).hexdigest()[:16]


def run_held_out(spec, work_dir, parallel, checks):
    """Every output check on the --seed trace; figures printed, not reported."""
    serial_dir = os.path.join(work_dir, "heldout_serial")
    parallel_dir = os.path.join(work_dir, "heldout_parallel")
    os.makedirs(serial_dir)
    os.makedirs(parallel_dir)
    threads, jobs = parallel
    serial = harness(["time", spec, "--out", serial_dir, "--jobs", "1"], 1)
    par = harness(["time", spec, "--out", parallel_dir, "--jobs", str(jobs)], threads)
    checks.campaign("held-out serial", serial)
    checks.campaign("held-out parallel", par)
    checks.same_store("held-out", serial_dir, parallel_dir)
    checks.redrive("held-out", harness(["redrive", spec, "--cells",
                                        os.path.join(serial_dir, "cells.csv"),
                                        "--lanes", str(jobs)], threads))
    log(f"info   held-out trace: {serial['jobs']} jobs, cells.csv sha256 {digest(serial_dir)}, "
        f"campaign_s {fig(serial['campaign_s'])} s, campaign_par_s {fig(par['campaign_s'])} s")


def measure(spec, seconds, min_rounds, parallel, serial_dir, parallel_dir, checks):
    """Rounds of one serial and PARALLEL_PER_ROUND parallel samples, one fresh
    process each (what a CLI user pays per campaign), until the next round
    would overrun `seconds`; at least `min_rounds` rounds. A parallel sample
    costs about two thirds of a serial one, and its wall moves with which
    lane picks up which cell, so it gets more samples. Every sample's store must be
    byte-identical."""
    samples = {"setup_s": [], "campaign_s": [], "campaign_par_s": [], "peak_rss_mb": []}
    settings = [("serial", serial_dir, (1, 1))] + [("parallel", parallel_dir, parallel)] * PARALLEL_PER_ROUND
    stores = {}
    start = time.monotonic()
    rounds = 0
    while True:
        round_start = time.monotonic()
        for label, out_dir, (threads, jobs) in settings:
            out = harness(["time", spec, "--out", out_dir, "--jobs", str(jobs),
                           "--setup-reps", str(SETUP_REPS) if label == "serial" else "1"], threads)
            checks.campaign(f"{label} sample in round {rounds + 1}", out)
            if label == "serial":
                samples["setup_s"].extend(out["setup_s"])
                samples["campaign_s"].append(out["campaign_s"])
            else:
                samples["campaign_par_s"].append(out["campaign_s"])
                samples["peak_rss_mb"].append(out["peak_rss_mb"])
            store = read(os.path.join(out_dir, "cells.csv")) + read(os.path.join(out_dir, "summary.json"))
            if label in stores and store != stores[label]:
                checks.expect(False, f"{label} sample in round {rounds + 1}: store identical to the first")
            stores.setdefault(label, store)
        rounds += 1
        elapsed = time.monotonic() - start
        if rounds >= min_rounds and elapsed + (time.monotonic() - round_start) > seconds:
            return samples, out["jobs"]


def run_workload(workload, seed, seconds, trace, scale, work_dir, checks):
    """One benchmark run of one workload; returns the metrics BENCHMARK.json
    declares for the trace mode, each the median of its samples."""
    parallel = (PARALLEL_THREADS, max(1, min(PARALLEL_JOBS, len(os.sched_getaffinity(0)))))
    log(f"workload {workload}: seed {seed}, seconds {seconds}, trace {trace}, "
        f"serial = 1 thread / jobs 1, parallel = {parallel[0]} thread / jobs {parallel[1]}")
    spec = instantiate(workload, ANCHOR_SEED, scale, work_dir, "yardstick")
    serial_dir = os.path.join(work_dir, "serial")
    parallel_dir = os.path.join(work_dir, "parallel")
    os.makedirs(serial_dir)
    os.makedirs(parallel_dir)
    if trace == 0:
        min_rounds = 2 if scale is not None else WORKLOADS[workload][2]
        samples, jobs = measure(spec, seconds, min_rounds, parallel, serial_dir,
                                parallel_dir, checks)
        checks.redrive("yardstick", harness(["redrive", spec, "--cells",
                                             os.path.join(serial_dir, "cells.csv"),
                                             "--lanes", str(parallel[1])], parallel[0]))
    else:
        traced = harness(["trace", spec, "--out", serial_dir], 1)
        armed = harness(["time", spec, "--out", parallel_dir, "--jobs", str(parallel[1]),
                         "--armed-rerun"], parallel[0])
        jobs = armed["jobs"]
        checks.campaign("traced serial", traced)
        checks.campaign("parallel", armed)
        checks.redrive("yardstick (traced)", traced)
        checks.expect(traced["traced_store_identical"] and armed["armed_store_identical"],
                      "arming obs changes no cells.csv byte and no summary.json byte "
                      "outside its breakdown block")
        for name in DETERMINISTIC_COUNTS:
            values = (traced["campaign_counters"][name], traced["redrive_counters"][name],
                      armed["armed_counters"][name])
            checks.expect(len(set(values)) == 1,
                          f"deterministic count {name} = {values[0]} in the traced serial "
                          f"campaign, the traced re-drive and the traced parallel campaign")
        samples = {name: [value] for name, value in traced["layers"].items()}
        samples["pool.tasks_leaf"] = [armed["armed_counters"]["pool.tasks_leaf"]]
        samples["pool.queue_high_water"] = [armed["armed_counters"]["pool.queue_depth_high_water"]]
        log(f"info   sched.collect_starts percentiles over "
            f"{traced['layers']['sched.collect_starts.calls']} calls; {traced['probe_calls']} "
            f"forwarded calls, less {fig(traced['clock_read_ns'])} ns of clock read on each side "
            f"of their bracket")
    checks.same_store("yardstick", serial_dir, parallel_dir)
    log(f"info   yardstick trace: {jobs} jobs, cells.csv sha256 {digest(serial_dir)}")

    if seed != ANCHOR_SEED:
        held_spec = instantiate(workload, seed, scale, work_dir, "heldout")
        run_held_out(held_spec, work_dir, parallel, checks)
    # Every campaign of the run counts, the held-out ones too.
    samples["cells_ok"] = [1.0 - checks.failed / checks.attempted]

    metrics = {}
    for name, unit in units("end_to_end" if trace == 0 else "per_layer"):
        values = samples[name]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        spread = f", from {fig(min(values))} to {fig(max(values))}" if len(values) > 1 else ""
        log(f"metric {workload} {name} = {fig(metrics[name]['value'])} {unit} (n={len(values)}{spread})")
    return metrics


def smoke_check_cli(workload, seed, scale, work_dir, checks):
    """The harness's stores must match psched_campaign's for the same spec."""
    spec = instantiate(workload, seed, scale, work_dir, "cli")
    ours = os.path.join(work_dir, "cli_harness")
    cli = os.path.join(work_dir, "cli_store")
    os.makedirs(ours)
    harness(["time", spec, "--out", ours, "--jobs", "1"], 1)
    env = dict(os.environ, PSCHED_THREADS="1")
    done = subprocess.run([os.path.join(BUILD_DIR, "psched_campaign"), spec, "--out", cli,
                           "--jobs", "1"], cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=time_left())
    checks.expect(done.returncode == 0, f"{workload}: psched_campaign exits 0")
    if done.returncode == 0:
        for name in ("cells.csv", "summary.json"):
            checks.expect(read(os.path.join(ours, name)) == read(os.path.join(cli, name)),
                          f"{workload}: {name} byte-identical to psched_campaign's")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=ANCHOR_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny-scale self-test of every workload, both trace modes")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke")

    started = time.monotonic()
    try:
        build()
    except (BenchError, subprocess.TimeoutExpired) as error:
        sys.stderr.write(f"run.py: {error}\n")
        return 2
    log(f"info   build ready in {time.monotonic() - started:.1f} s")
    global deadline
    deadline = time.monotonic() + RUN_LIMIT_S

    work_dir = os.path.join(BUILD_ROOT, "work", f"{args.workload or 'smoke'}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    checks = Checks()
    metrics = {}
    try:
        if args.smoke:
            for workload, (_, scale, _) in WORKLOADS.items():
                for trace in (0, 1):
                    sub = os.path.join(work_dir, f"{workload}-{trace}")
                    os.makedirs(sub)
                    run_workload(workload, args.seed, 0.0, trace, scale, sub, checks)
                sub = os.path.join(work_dir, f"{workload}-cli")
                os.makedirs(sub)
                smoke_check_cli(workload, args.seed, scale, sub, checks)
        else:
            metrics = run_workload(args.workload, args.seed, args.seconds, args.trace, None,
                                   work_dir, checks)
    except BenchError as error:
        sys.stderr.write(f"run.py: {error}\n")
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    correct = not checks.failures
    log(f"info   {len(checks.failures)} failed checks; run took {time.monotonic() - started:.1f} s")
    print(json.dumps({"correct": correct, "attempted": checks.attempted, "failed": checks.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
