#!/usr/bin/env bash
# The repository's performance ledger (bench/ledger/README.md).
#
#   run.sh [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1|DIR]
#          [--trace-dir DIR]        one run of each selected workload
#   run.sh --smoke                  about a second per workload, gates only
#   run.sh --repeat N [--seed N] [--seconds S] [--workload NAME|all]
#          [--out FILE]             N runs per workload, medians + quartiles
#   run.sh --compare A.json B.json  verdict per workload x metric
#
# `--trace DIR` is shorthand for `--trace 1 --trace-dir DIR`. Every run
# first builds missl_ledger from this checkout's sources into
# $CARGO_TARGET_DIR/ledger (default .bench_build/ledger); all files it
# writes stay under that build directory unless told otherwise.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
cd "$root"
out_base=${CARGO_TARGET_DIR:-.bench_build}
build="$out_base/ledger"
work="$out_base/ledger-work"

workload=all seed=1 seconds=20 trace=0 trace_dir="$work/traces"
mode=run repeat=0 out="$work/repeat.json" compare=()
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload=$2; shift 2 ;;
    --seed) seed=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --trace)
      case "$2" in
        0|1) trace=$2 ;;
        *) trace=1 trace_dir=$2 ;;
      esac
      shift 2 ;;
    --trace-dir) trace_dir=$2; shift 2 ;;
    --smoke) mode=smoke; shift ;;
    --repeat) mode=repeat repeat=$2; shift 2 ;;
    --out) out=$2; shift 2 ;;
    --compare) mode=compare compare=("$2" "$3"); shift 3 ;;
    *) echo "run.sh: unknown argument: $1 (see the header of $0)" >&2; exit 2 ;;
  esac
done

if [ "$mode" = compare ]; then
  exec python3 "$here/ledger.py" compare "${compare[@]}" \
    --benchmark "$root/BENCHMARK.json"
fi

mkdir -p "$build"
if ! { [ -f "$build/configured" ] ||
       { cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release &&
         touch "$build/configured"; }; } >"$build/configure.log" 2>&1; then
  tail -n 20 "$build/configure.log" >&2
  echo "run.sh: configure failed (log: $build/configure.log)" >&2
  exit 1
fi
if ! cmake --build "$build" --target missl_ledger -j "$(nproc)" \
       >"$build/build.log" 2>&1; then
  tail -n 30 "$build/build.log" >&2
  echo "run.sh: build failed (log: $build/build.log)" >&2
  exit 1
fi
bin="$build/missl_ledger"

case "$mode" in
  smoke)
    exec "$bin" --smoke --workload all --work-dir "$work" ;;
  repeat)
    exec python3 "$here/ledger.py" repeat --bin "$bin" --runs "$repeat" \
      --seed "$seed" --seconds "$seconds" --workload "$workload" \
      --work-dir "$work" --out "$out" ;;
esac

if [ "$workload" != all ]; then
  exec "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" \
    --trace "$trace" --work-dir "$work" --trace-dir "$trace_dir"
fi
status=0
for w in serve_open_small serve_closed_large train_missl; do
  "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" \
    --trace "$trace" --work-dir "$work" --trace-dir "$trace_dir" || status=1
done
exit "$status"
