#!/usr/bin/env bash
# Compile-gate for the opt-in examples/ programs: they only build under
# -DPSCHED_BUILD_EXPERIMENTS=ON (the option keeps its old name), so nothing
# in the default tier-1 build notices when an API change breaks them. This
# script configures a separate build tree with examples enabled, builds
# everything, and runs example_workload_analysis once (the paper's trace
# figures and tables: Tables 1-2, Figures 3-7); run it (or let the verify
# flow run it) whenever a public header changes.
#
# Env knobs:
#   PSCHED_EXAMPLES_BUILD_DIR  build directory (default build-exp)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${PSCHED_EXAMPLES_BUILD_DIR:-build-exp}"

# -Werror is the default, but pin it explicitly: the opt-in examples are
# exactly the binaries that rot behind warnings nobody sees.
cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release -DPSCHED_WERROR=ON \
  -DPSCHED_BUILD_EXPERIMENTS=ON -DPSCHED_BUILD_BENCH=OFF >/dev/null
cmake --build "$BUILD" -j "$(nproc)"
"$BUILD"/example_workload_analysis >/dev/null
echo "examples compile clean under -Werror and example_workload_analysis runs ($BUILD)"
