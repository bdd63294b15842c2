#!/usr/bin/env bash
# Local reproduction of the CI jobs (.github/workflows/ci.yml):
#   1. Release build, the no-FMA audit of the AVX2 kernel object
#      (scripts/check_no_fma.sh), and the full ctest suite, serial, with
#      MISSL_NUM_THREADS=4, with MISSL_SIMD=off, and with MISSL_ALLOC=system
#      (all four must agree bitwise)
#   2. ASan+UBSan build + full ctest suite
#   3. TSan build, running the threaded tests (runtime_test, models_test,
#      serve_test — the serving micro-batcher must stay race-free —
#      tcp_server_test — every handoff between the epoll thread and the
#      dispatcher-thread query completions in the TCP front-end over real
#      sockets, including the admin HTTP plane, a mid-burst Shutdown and
#      the serving-load smoke's scraped per-request accounting —
#      serve_fuzz_test, whose socket sweep disconnects at every byte offset
#      while those completions race in —
#      exposition_test, which scrapes the metrics registry and the span
#      store's seqlock rings while they are being written and grown —
#      kernel_property_test, which sweeps the SIMD tiers at 1/2/4 threads,
#      alloc_test, which stresses the pooled allocator's cross-thread
#      free path, infer_test — the planned executor's tier × thread parity
#      sweeps — quant_test, the int8 catalog tier's kernel and
#      executor parity suites — and ops_test, whose OpsThreaded gradchecks
#      run the matmul backward's per-chunk dA scratch tiles and dB row
#      ranges, and the broadcast walk's parallel rows, at 4 threads)
#   4. Documentation consistency (scripts/check_docs.sh)
#
# Usage:
#   scripts/check.sh            # all four jobs
#   scripts/check.sh release    # just one job: release | asan | tsan | docs
#
# Each job uses its own build directory (build-check-*) so the regular
# ./build tree is left untouched.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=("${1:-all}")
[[ "${jobs[0]}" == "all" ]] && jobs=(docs release asan tsan)

run_release() {
  echo "=== [release] Release build + full test suite ==="
  cmake -B build-check-release -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build-check-release -j"$(nproc)"
  echo "=== [release] no-FMA audit of the AVX2 kernel object ==="
  scripts/check_no_fma.sh build-check-release
  ctest --test-dir build-check-release --output-on-failure -j"$(nproc)"
  echo "=== [release] again with MISSL_NUM_THREADS=4 (results must match) ==="
  MISSL_NUM_THREADS=4 ctest --test-dir build-check-release --output-on-failure -j"$(nproc)"
  echo "=== [release] again with MISSL_SIMD=off (results must match) ==="
  MISSL_SIMD=off ctest --test-dir build-check-release --output-on-failure -j"$(nproc)"
  echo "=== [release] again with MISSL_ALLOC=system (results must match) ==="
  MISSL_ALLOC=system ctest --test-dir build-check-release --output-on-failure -j"$(nproc)"
  echo "=== [release] allocator-churn regression gate ==="
  ./build-check-release/bench/bench_m1_alloc --smoke
  echo "=== [release] planned-executor bitwise + latency gate ==="
  ./build-check-release/bench/bench_m1_infer --smoke
  echo "=== [release] serving smoke (selftest bitwise vs offline RecommendTopN) ==="
  ./build-check-release/examples/missl_serve --smoke \
    --queries examples/serve_queries.tsv > /dev/null
  echo "=== [release] int8 serving smoke (selftest bitwise vs offline int8 plan) ==="
  ./build-check-release/examples/missl_serve --smoke --precision int8 \
    --queries examples/serve_queries.tsv > /dev/null
  echo "=== [release] admin-plane smoke (/metrics /healthz /statusz /tracez) ==="
  scripts/admin_smoke.sh build-check-release
}

run_asan() {
  echo "=== [asan] ASan+UBSan build + full test suite ==="
  cmake -B build-check-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DMISSL_SANITIZE=address,undefined
  cmake --build build-check-asan -j"$(nproc)"
  # detect_leaks=1 guards the autograd graph-lifetime fix: backward closures
  # hold their output via a non-owning TensorRef, so LSan must stay clean.
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
    MISSL_NUM_THREADS=4 \
    ctest --test-dir build-check-asan --output-on-failure -j"$(nproc)"
}

run_tsan() {
  echo "=== [tsan] TSan build + threaded tests ==="
  cmake -B build-check-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DMISSL_SANITIZE=thread
  cmake --build build-check-tsan -j"$(nproc)" \
        --target runtime_test models_test serve_test tcp_server_test \
                 serve_fuzz_test exposition_test kernel_property_test \
                 alloc_test infer_test quant_test ops_test
  TSAN_OPTIONS=halt_on_error=1 MISSL_NUM_THREADS=4 ./build-check-tsan/tests/runtime_test
  TSAN_OPTIONS=halt_on_error=1 MISSL_NUM_THREADS=4 ./build-check-tsan/tests/models_test
  TSAN_OPTIONS=halt_on_error=1 MISSL_NUM_THREADS=4 ./build-check-tsan/tests/serve_test
  TSAN_OPTIONS=halt_on_error=1 MISSL_NUM_THREADS=4 ./build-check-tsan/tests/tcp_server_test
  TSAN_OPTIONS=halt_on_error=1 MISSL_NUM_THREADS=4 ./build-check-tsan/tests/serve_fuzz_test
  TSAN_OPTIONS=halt_on_error=1 MISSL_NUM_THREADS=4 ./build-check-tsan/tests/exposition_test
  TSAN_OPTIONS=halt_on_error=1 MISSL_NUM_THREADS=4 ./build-check-tsan/tests/kernel_property_test
  TSAN_OPTIONS=halt_on_error=1 MISSL_NUM_THREADS=4 ./build-check-tsan/tests/alloc_test
  TSAN_OPTIONS=halt_on_error=1 MISSL_NUM_THREADS=4 ./build-check-tsan/tests/infer_test
  TSAN_OPTIONS=halt_on_error=1 MISSL_NUM_THREADS=4 ./build-check-tsan/tests/quant_test
  TSAN_OPTIONS=halt_on_error=1 MISSL_NUM_THREADS=4 ./build-check-tsan/tests/ops_test
}

run_docs() {
  echo "=== [docs] documentation consistency ==="
  scripts/check_docs.sh
}

for job in "${jobs[@]}"; do
  case "$job" in
    release) run_release ;;
    asan)    run_asan ;;
    tsan)    run_tsan ;;
    docs)    run_docs ;;
    *) echo "unknown job '$job' (expected release|asan|tsan|docs|all)" >&2; exit 2 ;;
  esac
done
echo "All requested checks passed."
