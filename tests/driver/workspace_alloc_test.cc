// Zero-allocation proof for workspace reuse.
//
// Global operator new/delete are replaced with counting versions gated by a
// flag (same interposer as tests/storage/alloc_count_test.cc).  The first
// run through an ExperimentWorkspace builds the whole stack and grows every
// pool to its high-water mark; the second run re-touches every warm path
// (compile-cache hit included).  The third, counted run must then perform
// ZERO heap allocations end to end — engine reset, storage reset, workload
// key check, compile lookup, cluster reset, the full simulation, and the
// finalize_into result fill.  A new allocation anywhere on the reuse path
// fails here, not as a silent grid-throughput regression.
//
// Scope: plain runs (no audit, no telemetry — those install per-run
// observer objects by design).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "driver/workspace.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void note_allocation() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
}

void* counted_alloc(std::size_t n) {
  note_allocation();
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_alloc_aligned(std::size_t n, std::size_t align) {
  note_allocation();
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, n == 0 ? align : n) != 0) throw std::bad_alloc();
  return p;
}

}  // namespace

// Replaceable global allocation functions — every variant the runtime may
// pick, so no allocation slips past the counter.
void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc_aligned(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc_aligned(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  note_allocation();
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  note_allocation();
  return std::malloc(n == 0 ? 1 : n);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace dasched {
namespace {

ExperimentConfig small_cell() {
  ExperimentConfig cfg;
  cfg.app = "sar";
  cfg.scale.num_processes = 4;
  cfg.scale.factor = 0.1;
  cfg.policy = PolicyKind::kHistory;
  cfg.use_scheme = true;
  return cfg;
}

void expect_zero_alloc_reuse(const ExperimentConfig& cfg) {
  ExperimentWorkspace ws;
  // Warm-up: the first run builds and grows everything, the second re-runs
  // the exact steady-state path of the counted run (compile-cache hit,
  // recycled pools at their high-water marks).
  const SimTime t1 = ws.run(cfg).exec_time;
  const SimTime t2 = ws.run(cfg).exec_time;
  ASSERT_EQ(t1.count(), t2.count());

  g_allocations.store(0);
  g_counting.store(true);
  const ExperimentResult& r = ws.run(cfg);
  g_counting.store(false);

  EXPECT_EQ(r.exec_time.count(), t1.count());
  EXPECT_EQ(g_allocations.load(), 0u)
      << "workspace reuse hit the heap on run " << ws.runs_completed();
  // Sanity: the counted run did real work and reused the warm stack.
  EXPECT_GT(r.events, 0);
  EXPECT_EQ(ws.engine_rebuilds(), 1u);
  EXPECT_EQ(ws.workload_builds(), 1u);
  EXPECT_EQ(ws.compile_misses(), 1u);
}

TEST(WorkspaceAlloc, ClassicEngineReuseAllocatesNothing) {
  expect_zero_alloc_reuse(small_cell());
}

TEST(WorkspaceAlloc, ScaleGrowthReallocatesOnceThenNothing) {
  // Capacity high-water-mark policy: scaling the workload up is a workload
  // change, so the first bigger run rebuilds the trace and grows every pool
  // to the new high-water mark — and after that single growth run, repeat
  // runs at the bigger size are as allocation-free as the small ones were.
  ExperimentConfig small = small_cell();
  ExperimentConfig big = small;
  big.scale.num_processes = 8;

  ExperimentWorkspace ws;
  (void)ws.run(small);
  (void)ws.run(small);
  (void)ws.run(big);  // grows once: workload rebuild + pool growth
  (void)ws.run(big);  // re-touches the steady-state path at the new size

  g_allocations.store(0);
  g_counting.store(true);
  const ExperimentResult& r = ws.run(big);
  g_counting.store(false);
  EXPECT_EQ(g_allocations.load(), 0u)
      << "warm runs at the grown size still hit the heap";
  EXPECT_GT(r.events, 0);
  // The growth was absorbed in place: same engine, one workload rebuild for
  // the scale change, one compile per workload epoch.
  EXPECT_EQ(ws.engine_rebuilds(), 1u);
  EXPECT_EQ(ws.workload_builds(), 2u);
}

}  // namespace
}  // namespace dasched
