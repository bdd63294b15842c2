#include "tensor/alloc.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "obs/metrics.h"
#include "utils/check.h"
#include "utils/logging.h"

// Under ASan the pool is compiled out entirely: a cached block would look
// like one long-lived allocation to LSan (hiding genuine tensor leaks) and
// would recycle memory without redzones (hiding use-after-free). Plain
// aligned system allocation keeps both detectors at full fidelity.
#if defined(__SANITIZE_ADDRESS__)
#define MISSL_ALLOC_NO_POOL 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MISSL_ALLOC_NO_POOL 1
#endif
#endif

namespace missl::alloc {

namespace {

// Size classes: powers of two from 2^kMinClassLog (64 B, one cache line
// pair) through 2^kMaxClassLog (64 MiB). Anything larger is rare (full
// catalog score matrices at extreme scale) and goes straight to the system.
constexpr int kMinClassLog = 6;
constexpr int kMaxClassLog = 26;
constexpr int kNumClasses = kMaxClassLog - kMinClassLog + 1;
// Per-thread, per-class front-cache depth. Small on purpose: the front
// cache only has to absorb the free/alloc ping-pong inside one training
// step; the global pool holds everything else, and stays trimmable.
constexpr int kThreadCacheBlocks = 8;

int ClassIndex(int64_t bytes) {
  int cls = 0;
  int64_t cap = int64_t{1} << kMinClassLog;
  while (cap < bytes) {
    cap <<= 1;
    ++cls;
  }
  return cls < kNumClasses ? cls : -1;
}

int64_t ClassBytes(int cls) { return int64_t{1} << (kMinClassLog + cls); }

// ---- Always-on counters -----------------------------------------------------

std::atomic<int64_t> g_pool_hits{0};
std::atomic<int64_t> g_pool_misses{0};
std::atomic<int64_t> g_system_allocs{0};
std::atomic<int64_t> g_system_frees{0};
std::atomic<int64_t> g_cached_bytes{0};
std::atomic<int64_t> g_live_bytes{0};

// Opt-in mirrors in the metrics registry (counters alloc.pool_hits/misses,
// gauges alloc.cached_bytes/live_bytes). Gauges are Set to the authoritative
// atomic value on every change, so they are exact whenever metrics are on.
struct ObsMirror {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Gauge& cached;
  obs::Gauge& live;
  static ObsMirror& Get() {
    static ObsMirror m{
        obs::MetricsRegistry::Global().GetCounter("alloc.pool_hits"),
        obs::MetricsRegistry::Global().GetCounter("alloc.pool_misses"),
        obs::MetricsRegistry::Global().GetGauge("alloc.cached_bytes"),
        obs::MetricsRegistry::Global().GetGauge("alloc.live_bytes")};
    return m;
  }
};

void NoteLiveBytes(int64_t delta) {
  int64_t now = g_live_bytes.fetch_add(delta, std::memory_order_relaxed) + delta;
  ObsMirror::Get().live.Set(now);
}

void NoteCachedBytes(int64_t delta) {
  int64_t now =
      g_cached_bytes.fetch_add(delta, std::memory_order_relaxed) + delta;
  ObsMirror::Get().cached.Set(now);
}

// ---- System backend ---------------------------------------------------------

void* SystemAlloc(int64_t cap_bytes) {
  // cap_bytes is always a multiple of kAlignment (RoundUpBytes), which
  // std::aligned_alloc requires.
  void* p = std::aligned_alloc(static_cast<size_t>(kAlignment),
                               static_cast<size_t>(cap_bytes));
  MISSL_CHECK(p != nullptr) << "tensor allocation of " << cap_bytes
                            << " bytes failed";
  g_system_allocs.fetch_add(1, std::memory_order_relaxed);
  return p;
}

void SystemFree(void* p) {
  std::free(p);
  g_system_frees.fetch_add(1, std::memory_order_relaxed);
}

#ifndef MISSL_ALLOC_NO_POOL

// ---- Global pool ------------------------------------------------------------

// Leaky singleton: thread caches flush into it from thread_local
// destructors and static-lifetime tensors release into it after main(), so
// it must never be destroyed.
struct GlobalPool {
  std::mutex mu;
  std::vector<void*> lists[kNumClasses];

  static GlobalPool& Get() {
    static GlobalPool* pool = new GlobalPool();
    return *pool;
  }
};

// ---- Per-thread front cache -------------------------------------------------

struct ThreadCache;
ThreadCache* CurrentThreadCache();

struct ThreadCache {
  std::vector<void*> lists[kNumClasses];
  ~ThreadCache();
};

// Set by ~ThreadCache. Plain bool (zero-initialized, no dynamic dtor), so
// it stays readable during thread teardown after the cache itself is gone;
// releases that happen then skip straight to the global pool.
thread_local bool t_cache_dead = false;
thread_local ThreadCache t_cache;

ThreadCache::~ThreadCache() {
  GlobalPool& pool = GlobalPool::Get();
  std::lock_guard<std::mutex> lock(pool.mu);
  for (int c = 0; c < kNumClasses; ++c) {
    for (void* p : lists[c]) pool.lists[c].push_back(p);
    lists[c].clear();
  }
  t_cache_dead = true;
}

ThreadCache* CurrentThreadCache() {
  return t_cache_dead ? nullptr : &t_cache;
}

#endif  // !MISSL_ALLOC_NO_POOL

// ---- Mode resolution --------------------------------------------------------

// Mirrors the MISSL_SIMD tier resolution (tensor/simd.cc): unknown values
// warn and fall back rather than aborting — a bad env var must not take
// down a serving process.
Mode ResolveMode() {
  const char* env = std::getenv("MISSL_ALLOC");
  Mode want = Mode::kPool;
  if (env == nullptr || env[0] == '\0' || std::strcmp(env, "pool") == 0 ||
      std::strcmp(env, "auto") == 0 || std::strcmp(env, "on") == 0 ||
      std::strcmp(env, "1") == 0) {
    want = Mode::kPool;
  } else if (std::strcmp(env, "system") == 0 || std::strcmp(env, "off") == 0 ||
             std::strcmp(env, "0") == 0) {
    want = Mode::kSystem;
  } else {
    MISSL_LOG_WARN << "unknown MISSL_ALLOC value '" << env
                   << "' (want pool|system); using pool";
    want = Mode::kPool;
  }
  if (want == Mode::kPool && !PoolAvailable()) want = Mode::kSystem;
  return want;
}

// -1 = unresolved; otherwise the Mode value. Write-once via CAS (or
// explicitly overridden by SetMode), same pattern as the SIMD tier cache.
std::atomic<int> g_mode{-1};

}  // namespace

bool PoolAvailable() {
#ifdef MISSL_ALLOC_NO_POOL
  return false;
#else
  return true;
#endif
}

Mode ActiveMode() {
  int m = g_mode.load(std::memory_order_relaxed);
  if (m < 0) {
    Mode resolved = ResolveMode();
    int expected = -1;
    if (g_mode.compare_exchange_strong(expected, static_cast<int>(resolved),
                                       std::memory_order_relaxed)) {
      m = static_cast<int>(resolved);
    } else {
      m = expected;  // another thread resolved (or SetMode ran) first
    }
  }
  return static_cast<Mode>(m);
}

void SetMode(Mode m) {
  if (m == Mode::kPool && !PoolAvailable()) {
    MISSL_LOG_WARN << "MISSL allocator pool is unavailable in this build "
                   << "(address-sanitized); staying on system allocation";
    m = Mode::kSystem;
  }
  g_mode.store(static_cast<int>(m), std::memory_order_relaxed);
}

const char* ModeName(Mode m) {
  switch (m) {
    case Mode::kSystem: return "system";
    case Mode::kPool: return "pool";
  }
  return "unknown";
}

ScopedMode::ScopedMode(Mode m) : prev_(ActiveMode()) { SetMode(m); }
ScopedMode::~ScopedMode() { SetMode(prev_); }

AllocStats GetAllocStats() {
  AllocStats s;
  s.pool_hits = g_pool_hits.load(std::memory_order_relaxed);
  s.pool_misses = g_pool_misses.load(std::memory_order_relaxed);
  s.system_allocs = g_system_allocs.load(std::memory_order_relaxed);
  s.system_frees = g_system_frees.load(std::memory_order_relaxed);
  s.cached_bytes = g_cached_bytes.load(std::memory_order_relaxed);
  s.live_bytes = g_live_bytes.load(std::memory_order_relaxed);
  return s;
}

int64_t RoundUpBytes(int64_t bytes) {
  MISSL_CHECK(bytes > 0) << "RoundUpBytes on non-positive size " << bytes;
  int cls = ClassIndex(bytes);
  if (cls >= 0) return ClassBytes(cls);
  return (bytes + kAlignment - 1) / kAlignment * kAlignment;
}

int64_t Trim() {
#ifdef MISSL_ALLOC_NO_POOL
  return 0;
#else
  int64_t released = 0;
  if (ThreadCache* cache = CurrentThreadCache()) {
    for (int c = 0; c < kNumClasses; ++c) {
      for (void* p : cache->lists[c]) {
        SystemFree(p);
        released += ClassBytes(c);
      }
      cache->lists[c].clear();
    }
  }
  {
    GlobalPool& pool = GlobalPool::Get();
    std::lock_guard<std::mutex> lock(pool.mu);
    for (int c = 0; c < kNumClasses; ++c) {
      for (void* p : pool.lists[c]) {
        SystemFree(p);
        released += ClassBytes(c);
      }
      pool.lists[c].clear();
    }
  }
  if (released > 0) NoteCachedBytes(-released);
  return released;
#endif
}

namespace internal {

void* Acquire(int64_t bytes, int64_t* cap_bytes, int* cls) {
  MISSL_CHECK(bytes > 0);
  const int c = ClassIndex(bytes);
#ifndef MISSL_ALLOC_NO_POOL
  if (c >= 0 && ActiveMode() == Mode::kPool) {
    const int64_t cap = ClassBytes(c);
    void* p = nullptr;
    if (ThreadCache* cache = CurrentThreadCache()) {
      auto& list = cache->lists[c];
      if (!list.empty()) {
        p = list.back();
        list.pop_back();
      }
    }
    if (p == nullptr) {
      GlobalPool& pool = GlobalPool::Get();
      std::lock_guard<std::mutex> lock(pool.mu);
      auto& list = pool.lists[c];
      if (!list.empty()) {
        p = list.back();
        list.pop_back();
      }
    }
    if (p != nullptr) {
      g_pool_hits.fetch_add(1, std::memory_order_relaxed);
      ObsMirror::Get().hits.Add(1);
      NoteCachedBytes(-cap);
    } else {
      g_pool_misses.fetch_add(1, std::memory_order_relaxed);
      ObsMirror::Get().misses.Add(1);
      p = SystemAlloc(cap);
    }
    NoteLiveBytes(cap);
    *cap_bytes = cap;
    *cls = c;
    return p;
  }
#endif
  // System mode, or an oversize block that bypasses the cache. Both record
  // cls -1, so Release frees them to the system whatever the mode is by
  // then: a block's route is fixed by where it came from, not by its size.
  const int64_t cap = RoundUpBytes(bytes);
  void* p = SystemAlloc(cap);
  NoteLiveBytes(cap);
  *cap_bytes = cap;
  *cls = -1;
  return p;
}

void Release(void* ptr, int64_t cap_bytes, int cls) {
  if (ptr == nullptr) return;
  NoteLiveBytes(-cap_bytes);
#ifndef MISSL_ALLOC_NO_POOL
  if (cls >= 0) {
    // Pool-origin block: park it in a free list regardless of the current
    // mode (its memory came from the pool's accounting).
    if (ThreadCache* cache = CurrentThreadCache()) {
      auto& list = cache->lists[cls];
      if (static_cast<int>(list.size()) < kThreadCacheBlocks) {
        list.push_back(ptr);
        NoteCachedBytes(cap_bytes);
        return;
      }
    }
    GlobalPool& pool = GlobalPool::Get();
    std::lock_guard<std::mutex> lock(pool.mu);
    pool.lists[cls].push_back(ptr);
    NoteCachedBytes(cap_bytes);
    return;
  }
#else
  (void)cls;
#endif
  SystemFree(ptr);
}

}  // namespace internal

}  // namespace missl::alloc

namespace missl {

void Storage::Reserve(int64_t n) {
  const int64_t need = n * static_cast<int64_t>(sizeof(float));
  if (need <= cap_bytes_) return;
  if (ptr_ != nullptr) alloc::internal::Release(ptr_, cap_bytes_, cls_);
  ptr_ = static_cast<float*>(alloc::internal::Acquire(need, &cap_bytes_, &cls_));
}

void Storage::assign(int64_t n, float value) {
  MISSL_CHECK(n >= 0);
  Reserve(n);
  size_ = n;
  for (int64_t i = 0; i < n; ++i) ptr_[i] = value;
}

void Storage::copy_from(const float* src, int64_t n) {
  MISSL_CHECK(n >= 0);
  Reserve(n);
  size_ = n;
  if (n > 0) std::memcpy(ptr_, src, static_cast<size_t>(n) * sizeof(float));
}

void Storage::reset() {
  if (ptr_ != nullptr) {
    alloc::internal::Release(ptr_, cap_bytes_, cls_);
    ptr_ = nullptr;
  }
  size_ = 0;
  cap_bytes_ = 0;
  cls_ = -1;
}

}  // namespace missl
