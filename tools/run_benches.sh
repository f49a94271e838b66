#!/usr/bin/env bash
# Build Release and refresh the committed benchmark baselines:
#   BENCH_profile.json      <- bench/perf_profile
#   BENCH_schedulers.json   <- bench/perf_schedulers + bench/perf_list_scheduler
#   BENCH_fst.json          <- bench/perf_fst
#   BENCH_experiments.json  <- bench/perf_experiment (policy-sweep wall clock,
#                              serial baseline vs parallel run_all)
# Each file records per-case ns/op and the speedup of the optimized hot path
# over the preserved seed/serial implementations (BM_Ref* cases), so every
# future PR has a perf trajectory to compare against. The sweep speedup only
# shows parallel gain on multi-core hosts (pool size is recorded per case).
# tools/run_tsan.sh is the sibling data-race pass over the same concurrency.
#
# Deep-queue cases: perf_profile's BM_ProfilePack*/BM_ProfileEarliestFitDeep
# and perf_schedulers' BM_Sim*DeepQueue family measure the profile's linear
# scan on plans of thousands of reservations (the profile-level cases against
# the seed implementation; the *DeepQueue sims have no reference twin). The
# conservative deep sims run minutes-long single iterations on a slow host —
# budget ~10 minutes for a full refresh.
#
# Policy-FST pair (BENCH_fst.json): perf_fst's BM_PolicyFstForked (one pass
# over the trace + a fork per job still waiting at the next arrival) vs
# BM_RefPolicyFstNaive (the preserved seed path: one truncated re-simulation
# per job, O(n^2) simulated events) at 1k and 5k jobs. The naive 5k case is a single minutes-long iteration —
# budget another ~5-10 minutes; the pair is what documents the forked
# engine's speedup growing with trace length.
#
# Env knobs:
#   PSCHED_BENCH_MIN_TIME   min seconds per benchmark case (default 0.2)
#   PSCHED_BENCH_BUILD_DIR  build directory (default build-bench)
#   PSCHED_THREADS          pool size for the parallel sweep (default: cores)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${PSCHED_BENCH_BUILD_DIR:-build-bench}"
MIN_TIME="${PSCHED_BENCH_MIN_TIME:-0.2}"

cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release -DPSCHED_BUILD_BENCH=ON >/dev/null
cmake --build "$BUILD" -j "$(nproc)" \
  --target perf_profile --target perf_list_scheduler \
  --target perf_schedulers --target perf_fst --target perf_experiment

run_bench() {
  echo "== $1 =="
  "$BUILD/$1" \
    --benchmark_min_time="$MIN_TIME" \
    --benchmark_out="$BUILD/$1.json" \
    --benchmark_out_format=json
}

run_bench perf_profile
run_bench perf_list_scheduler
run_bench perf_schedulers
run_bench perf_fst
run_bench perf_experiment

python3 tools/summarize_benches.py BENCH_profile.json "$BUILD/perf_profile.json"
python3 tools/summarize_benches.py BENCH_schedulers.json \
  "$BUILD/perf_schedulers.json" "$BUILD/perf_list_scheduler.json"
python3 tools/summarize_benches.py BENCH_fst.json "$BUILD/perf_fst.json"
python3 tools/summarize_benches.py BENCH_experiments.json "$BUILD/perf_experiment.json"
