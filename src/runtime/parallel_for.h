// ParallelFor: deterministic data-parallel loops over index ranges.
//
// The contract that makes "parallel" and "deterministic" compatible here is
// that a loop body handed to ParallelFor must
//   (a) write only outputs owned by its index sub-range (disjoint writes:
//       matmul output rows, softmax rows, elementwise slots), or
//   (b) perform reductions owner-computes style: the chunk that owns an
//       output element accumulates *all* of its contributions in the same
//       order the serial loop would (embedding scatter-add partitions the
//       vocab, not the index list, so duplicate ids never race and each
//       weight row sums in input order).
// Under (a)/(b) the floating-point result is independent of the partition
// and of which thread runs which chunk, so any thread count — including the
// serial threads=1 fallback, which is the exact pre-runtime code path —
// produces bitwise-identical outputs. Loop bodies use no atomics and no
// per-thread scratch buffers whose merge order could re-associate sums; the
// only atomic is the pool's chunk claim counter, which decides which thread
// runs a chunk, never what the chunk computes.
//
// Nested ParallelFor calls (e.g. tensor kernels invoked from a parallel
// evaluation batch) execute inline on the calling worker.
#ifndef MISSL_RUNTIME_PARALLEL_FOR_H_
#define MISSL_RUNTIME_PARALLEL_FOR_H_

#include <cstdint>
#include <functional>

#include "runtime/runtime.h"

namespace missl::runtime {

/// Invokes fn(sub_begin, sub_end) over a static partition of [begin, end)
/// into chunks of `grain` indices (the last chunk may be smaller), using up
/// to NumThreads() threads. With one thread (or one chunk, or when already
/// inside a ParallelFor body) this degenerates to a single fn(begin, end)
/// call on the current thread. Gradient mode (NoGradGuard state) of the
/// calling thread is inherited by the pool workers for the duration of the
/// job. `fn` must follow the disjoint-write / owner-computes rules above.
void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn);

/// Picks a grain so one chunk amounts to roughly kMinChunkCost units of
/// work, given the per-index cost in arbitrary units (e.g. flops).
int64_t GrainForCost(int64_t cost_per_index);

/// Picks a grain that splits `range` into about `chunks_per_thread` chunks
/// per available thread; used when per-index cost is unknown but chunk
/// count should stay bounded (e.g. owner-computes scatter-add, where every
/// chunk scans the full index list once).
int64_t GrainForChunks(int64_t range, int64_t chunks_per_thread = 4);

/// Work units per chunk targeted by GrainForCost. Small enough to expose
/// parallelism on the kernel shapes used here, large enough that dispatch
/// overhead stays negligible.
inline constexpr int64_t kMinChunkCost = 16384;

}  // namespace missl::runtime

#endif  // MISSL_RUNTIME_PARALLEL_FOR_H_
