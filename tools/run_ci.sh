#!/usr/bin/env bash
# The whole CI gate in one script, runnable locally or from the workflow.
#
#   tools/run_ci.sh            tier-1 gate (default):
#     1. configure + build (-Werror -Wshadow are on by default)
#     2. psched-lint contract check over src/, tools/, bench/
#     3. ctest (the correctness contract; includes the lint fixture tests)
#     4. compile-gate the opt-in examples/ programs under -Werror and run
#        example_workload_analysis once
#     5. a one-spec campaign smoke run (SWF replay of the committed sample
#        trace), checked for a non-empty results store
#     6. a counter gate: the deterministic work counters (events, scheduler
#        invocations, replans, policy-FST forks and drains, per cell) of each
#        example campaign (kill-if-needed WCL enforcement included) must
#        equal its committed
#        tests/data/<name>_smoke.counters exactly
#     7. a kill-and-resume smoke: SIGKILL the campaign mid-cell (a
#        PSCHED_FAULTS-injected hang), then --resume and require the results
#        store to be byte-identical to the uninterrupted run in step 5
#     8. the chaos harness: psched_chaos re-runs the smoke campaign once per
#        registered fault point (hard-errno, transient and kill+resume legs)
#        and asserts every failure lands in the retried / degraded /
#        fail-loud trichotomy with byte-identical recovered stores
#     9. an archive-scale replay smoke: a ~50k-job synthetic trace exported
#        to SWF and replayed through a campaign with the forked
#        (policy-knowledge) FST under a wall budget
#    10. the campaign benchmark's smoke: perfbench/run.py builds its own
#        harness against the library (so a break in the Scheduler interface
#        its timing decorator overrides fails here, not at benchmark time)
#        and runs every workload at tiny scale through all output checks
#
#   tools/run_ci.sh sanitize   the sanitizer matrix (a separate workflow job
#     so tier-1 latency is unchanged): the FULL ctest suite under ASan and
#     UBSan via tools/run_sanitize.sh. TSan stays available as
#     tools/run_sanitize.sh thread (or the historical tools/run_tsan.sh).
#
#   tools/run_ci.sh all        both of the above.
#
# Env knobs:
#   PSCHED_CI_BUILD_DIR  tier-1 build directory (default build-ci)
#   PSCHED_CI_JOBS       parallel build/test jobs (default nproc)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${PSCHED_CI_BUILD_DIR:-build-ci}"
JOBS="${PSCHED_CI_JOBS:-$(nproc)}"
STEP="${1:-tier1}"

run_sanitize_matrix() {
  echo "== sanitize: ASan full suite =="
  ./tools/run_sanitize.sh address
  echo "== sanitize: UBSan full suite =="
  ./tools/run_sanitize.sh undefined
}

run_tier1() {
  echo "== tier-1: configure + build (-Werror) =="
  cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build "$BUILD" -j "$JOBS"

  echo "== psched-lint: contract check =="
  "$BUILD"/psched_lint --root .

  echo "== tier-1: ctest =="
  ctest --test-dir "$BUILD" --output-on-failure -j "$JOBS"

  echo "== examples: compile gate + workload analysis run =="
  ./tools/check_examples.sh

  echo "== campaign smoke run =="
  SMOKE_OUT="$BUILD/campaign-smoke"
  rm -rf "$SMOKE_OUT"
  "$BUILD"/psched_campaign examples/campaigns/swf_replay.spec --out "$SMOKE_OUT" --jobs 1
  test -s "$SMOKE_OUT/cells.csv" && test -s "$SMOKE_OUT/summary.json"
  # Two policies on the sample trace -> header + 2 rows.
  test "$(wc -l < "$SMOKE_OUT/cells.csv")" -eq 3

  echo "== observability smoke: traced run, byte-identical store =="
  # The obs contract: arming --trace/--stats changes NO result byte. Re-run
  # the smoke campaign traced, diff cells.csv bytewise against the untraced
  # run, diff summary.json after stripping the "breakdown" block only an
  # armed run emits, and validate the exported Perfetto JSON (span hierarchy
  # present, counters nonzero) with the stdlib-only summarizer.
  TRACE_OUT="$BUILD/campaign-trace-smoke"
  rm -rf "$TRACE_OUT"
  "$BUILD"/psched_campaign examples/campaigns/swf_replay.spec --out "$TRACE_OUT" \
    --jobs 1 --trace "$TRACE_OUT/trace.json" --stats
  cmp "$SMOKE_OUT/cells.csv" "$TRACE_OUT/cells.csv"
  grep -q '^  "breakdown": \[$' "$TRACE_OUT/summary.json"  # armed run emits it
  sed '/^  "breakdown": \[$/,/^  \],$/d' "$TRACE_OUT/summary.json" \
    | cmp - "$SMOKE_OUT/summary.json"
  python3 tools/summarize_trace.py "$TRACE_OUT/trace.json" \
    --require-spans campaign,workload-build,group,sweep,cell,store-write \
    --require-counters

  echo "== counter gate: example campaigns =="
  # Deterministic counters are exact and independent of --jobs, so a cost
  # blow-up (a timer storm, a replan regression) fails here instead of
  # hiding in wall time. A deliberate change regenerates a snapshot with the
  # two commands in the loop body and records the before/after counts in
  # CHANGES.md.
  for NAME in fig14_all_policies:fig14 swf_replay:swf_replay \
              load_sweep_multiseed:load_sweep_multiseed policy_fst_smoke:policy_fst \
              wcl_kill_smoke:wcl_kill; do
    SPEC="examples/campaigns/${NAME%%:*}.spec"
    COUNTER_OUT="$BUILD/counter-gate-${NAME##*:}"
    rm -rf "$COUNTER_OUT" "$COUNTER_OUT.txt"
    "$BUILD"/psched_campaign "$SPEC" --stats --jobs 1 --out "$COUNTER_OUT" > "$COUNTER_OUT.txt"
    python3 tools/counter_snapshot.py "$COUNTER_OUT.txt" "$COUNTER_OUT/summary.json" \
      | diff -u "tests/data/${NAME##*:}_smoke.counters" -
  done

  echo "== campaign kill-and-resume smoke =="
  # Hang the second cell, SIGKILL the process once the first cell's journal
  # record is durable, then resume without the fault: the journal must replay
  # and the final store must be byte-identical to the uninterrupted run above.
  RESUME_OUT="$BUILD/campaign-resume-smoke"
  rm -rf "$RESUME_OUT"
  PSCHED_FAULTS="campaign.cell:hang:after=2" \
    "$BUILD"/psched_campaign examples/campaigns/swf_replay.spec \
    --out "$RESUME_OUT" --jobs 1 --keep-going >/dev/null 2>&1 &
  CAMPAIGN_PID=$!
  for _ in $(seq 1 300); do
    [ "$(wc -l < "$RESUME_OUT/journal.jsonl" 2>/dev/null || echo 0)" -ge 2 ] && break
    sleep 0.1
  done
  test "$(wc -l < "$RESUME_OUT/journal.jsonl")" -ge 2  # cell 0 made it to disk
  kill -9 "$CAMPAIGN_PID"
  wait "$CAMPAIGN_PID" 2>/dev/null || true
  "$BUILD"/psched_campaign examples/campaigns/swf_replay.spec \
    --out "$RESUME_OUT" --jobs 1 --resume
  cmp "$SMOKE_OUT/cells.csv" "$RESUME_OUT/cells.csv"
  cmp "$SMOKE_OUT/summary.json" "$RESUME_OUT/summary.json"

  echo "== chaos harness: trichotomy over every fault point =="
  # Every registered point, three legs each (hard errno, transient EINTR,
  # hang+SIGKILL+resume), each child capped at 60s so a regressed hang cannot
  # stall the gate. The harness exits nonzero if any point has no plan, never
  # fires, or lands outside the trichotomy.
  CHAOS_OUT="$BUILD/chaos-smoke"
  rm -rf "$CHAOS_OUT"
  "$BUILD"/psched_chaos --campaign "$BUILD"/psched_campaign \
    --spec examples/campaigns/swf_replay.spec --out "$CHAOS_OUT" --timeout 60

  echo "== archive-scale replay smoke (~50k jobs, forked FST) =="
  # Generate a ~50k-job synthetic trace, export it to SWF, and replay it
  # through a campaign that selects the policy-knowledge (forked-engine) FST.
  # scale 3.8 condenses ~3.8x the Ross trace into the same span, so the spec
  # stretches arrivals back (rescale_load 0.26) to keep the queue realistic.
  # --wall-budget is the perf guard: blowing it exits 4 (interrupted store)
  # and fails the gate. The uncontended run takes ~15s; 180s leaves ~10x
  # headroom for slow CI hosts.
  ARCHIVE_OUT="$BUILD/archive-smoke"
  rm -rf "$ARCHIVE_OUT"
  mkdir -p "$ARCHIVE_OUT"
  "$BUILD"/psched_run --scale 3.8 --seed 42 --write-swf "$ARCHIVE_OUT/archive.swf" \
    >/dev/null
  test "$(grep -cv '^[;#]' "$ARCHIVE_OUT/archive.swf")" -ge 50000  # archive-scale, not a toy
  cat > "$ARCHIVE_OUT/archive.spec" <<SPEC
[campaign]
name = archive_smoke
metrics = policy_percent_unfair, policy_avg_miss_all, percent_unfair, avg_wait, utilization

[workload]
source = swf
file = archive.swf
rescale_load = 0.26

[policies]
names = cplant24.nomax.all
SPEC
  "$BUILD"/psched_campaign "$ARCHIVE_OUT/archive.spec" --out "$ARCHIVE_OUT/store" \
    --jobs 1 --wall-budget 180 >/dev/null
  # The forked FST actually ran: its metric columns are in the store.
  grep -q "policy_percent_unfair" "$ARCHIVE_OUT/store/cells.csv"

  echo "== campaign benchmark smoke =="
  # Builds perfbench's harness (into .bench_build/) and runs every workload
  # at tiny scale; exits nonzero if the build or any output check fails.
  python3 perfbench/run.py --smoke --seed 7
}

case "$STEP" in
  tier1)
    run_tier1
    ;;
  sanitize)
    run_sanitize_matrix
    ;;
  all)
    run_tier1
    run_sanitize_matrix
    ;;
  *)
    echo "usage: $0 [tier1|sanitize|all]" >&2
    exit 2
    ;;
esac

echo "CI green ($STEP)"
