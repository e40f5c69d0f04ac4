#!/usr/bin/env bash
# Regenerates the root BENCH_<figure>.json files from one Release build, so
# every file carries the same git_sha and build_type.
#
#   tools/regen_bench.sh [build-dir]     (default: <repo>/build-release)
#
# A working tree with uncommitted changes is stamped "<sha>-dirty". The
# sweeps run at the default horizons on OMEGA_BENCH_THREADS workers (default:
# all cores); their tables go to stdout. fig9 is the slowest (~40 s of trial
# time per thread on a 4-core host).
set -euo pipefail

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
build=${1:-"$root/build-release"}
figures=(fig5_wait_time fig8_load_scaling fig9_multi_scheduler
         fig10_surface fig14_conflict_modes fig_mega fig_federation)

cmake -S "$root" -B "$build" -DCMAKE_BUILD_TYPE=Release
cmake --build "$build" -j "$(nproc)" --target "${figures[@]}"

sha=$(git -C "$root" rev-parse --short=12 HEAD)
if [[ -n $(git -C "$root" status --porcelain --untracked-files=no) ]]; then
  sha="$sha-dirty"
fi
export OMEGA_GIT_SHA=$sha
export OMEGA_BENCH_JSON_DIR=$root

for fig in "${figures[@]}"; do
  echo "=== $fig"
  "$build/bench/$fig"
done
