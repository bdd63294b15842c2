#!/usr/bin/env bash
# No-FMA audit of the AVX2 kernel tier (docs/KERNELS.md, "The determinism
# rule"). src/tensor/simd_avx2.cc is built with -ffp-contract=off and
# without -mfma, because a fused multiply-add rounds once where the scalar
# reference rounds twice and would break the bitwise tier identity. This
# fails if the compiled object contains any FMA instruction all the same.
#
# Usage: scripts/check_no_fma.sh [BUILD_DIR]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."
obj="${1:-build}/src/CMakeFiles/missl.dir/tensor/simd_avx2.cc.o"
if [ ! -f "$obj" ]; then
  echo "check_no_fma: $obj not found (build with MISSL_SIMD=ON first)" >&2
  exit 1
fi
fma=$(objdump -d "$obj" | grep -E 'vfn?m(add|sub)' || true)
if [ -n "$fma" ]; then
  echo "check_no_fma: $(wc -l <<<"$fma") FMA instructions in $obj, e.g.:" >&2
  sed -n '1,20p' <<<"$fma" >&2
  exit 1
fi
echo "check_no_fma: 0 FMA instructions in $obj"
