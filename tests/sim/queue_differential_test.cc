// Differential suite: LadderQueue (sim/ladder_queue.h) vs the reference
// BinaryHeapQueue (binary_heap_queue.h).
//
// Every event key (time, seq) is unique, so the strict total order has
// exactly one pop sequence — any correct priority queue must produce it.
// These tests drive both implementations through identical randomized
// push/pop mixes and compare every popped entry bit-for-bit.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>

#include "binary_heap_queue.h"
#include "sim/ladder_queue.h"

namespace dasched {
namespace {

QueuedEvent ev(std::int64_t time, std::uint64_t seq) {
  return QueuedEvent{SimTime{time}, seq, static_cast<std::uint32_t>(seq)};
}

/// Drives both queues through the same operation stream: `push_weight`% of
/// steps push an event drawn by `next_time`, the rest pop (when non-empty)
/// and compare.  Ends by draining both and comparing the tails.
template <typename NextTime>
void run_differential(std::mt19937& rng, int steps, int push_weight,
                      NextTime next_time) {
  LadderQueue ladder;
  BinaryHeapQueue heap;
  std::uint64_t seq = 0;
  std::int64_t now = 0;
  std::uniform_int_distribution<int> coin(0, 99);
  for (int i = 0; i < steps; ++i) {
    if (ladder.empty() || coin(rng) < push_weight) {
      const QueuedEvent e = ev(next_time(now), seq++);
      ladder.push(e);
      heap.push(e);
    } else {
      ASSERT_FALSE(heap.empty());
      const QueuedEvent a = ladder.top();
      const QueuedEvent b = heap.top();
      ASSERT_EQ(a.time.count(), b.time.count()) << "step " << i;
      ASSERT_EQ(a.seq, b.seq) << "step " << i;
      ASSERT_EQ(a.slot, b.slot) << "step " << i;
      now = a.time.count();  // times are monotone within one drain phase
      ladder.pop();
      heap.pop();
    }
  }
  ASSERT_EQ(ladder.size(), heap.size());
  while (!heap.empty()) {
    const QueuedEvent a = ladder.top();
    const QueuedEvent b = heap.top();
    ASSERT_EQ(a.time.count(), b.time.count());
    ASSERT_EQ(a.seq, b.seq);
    ladder.pop();
    heap.pop();
  }
  EXPECT_TRUE(ladder.empty());
  ladder.validate();
}

TEST(QueueDifferential, UniformRandomTimes) {
  std::mt19937 rng(1);
  std::uniform_int_distribution<std::int64_t> dt(0, 1'000'000);
  for (int round = 0; round < 4; ++round) {
    run_differential(rng, 20'000, 60,
                     [&](std::int64_t now) { return now + dt(rng); });
  }
}

TEST(QueueDifferential, TimerChainsWithJitter) {
  // The engine's dominant shape: short strictly-increasing strides, which
  // exercises the bottom ring's tail-append and compaction paths.
  std::mt19937 rng(2);
  std::uniform_int_distribution<std::int64_t> dt(1, 50);
  run_differential(rng, 50'000, 50,
                   [&](std::int64_t now) { return now + dt(rng); });
}

TEST(QueueDifferential, TieHeavyWorkload) {
  // Many events per instant: only the seq tie-break distinguishes them, so
  // any tier boundary through a tie group would show up immediately.
  std::mt19937 rng(3);
  std::uniform_int_distribution<std::int64_t> dt(0, 5);
  run_differential(rng, 50'000, 55,
                   [&](std::int64_t now) { return now + dt(rng); });
}

TEST(QueueDifferential, BimodalNearAndFarFuture) {
  // 80% near events, 20% far-future spikes: drives spill, top conversion,
  // rung spawn/collapse — every structural transition the ladder has.
  std::mt19937 rng(4);
  std::uniform_int_distribution<std::int64_t> near(1, 100);
  std::uniform_int_distribution<std::int64_t> far(100'000, 10'000'000);
  std::uniform_int_distribution<int> mode(0, 4);
  run_differential(rng, 50'000, 65, [&](std::int64_t now) {
    return now + (mode(rng) == 0 ? far(rng) : near(rng));
  });
}

TEST(QueueDifferential, BurstFillThenDrain) {
  // Alternating full fills and full drains at varying scales, so the ladder
  // repeatedly tears down to empty and re-arms its bottom bound.
  std::mt19937 rng(5);
  std::uniform_int_distribution<std::int64_t> dt(0, 1'000'000);
  for (int size : {1, 3, 64, 65, 257, 2'000, 5'000}) {
    LadderQueue ladder;
    BinaryHeapQueue heap;
    std::uint64_t seq = 0;
    for (int i = 0; i < size; ++i) {
      const QueuedEvent e = ev(dt(rng), seq++);
      ladder.push(e);
      heap.push(e);
    }
    ladder.validate();
    for (int i = 0; i < size; ++i) {
      ASSERT_EQ(ladder.top().seq, heap.top().seq) << "size " << size;
      ASSERT_EQ(ladder.top().time.count(), heap.top().time.count());
      ladder.pop();
      heap.pop();
    }
    EXPECT_TRUE(ladder.empty());
  }
}

}  // namespace
}  // namespace dasched
