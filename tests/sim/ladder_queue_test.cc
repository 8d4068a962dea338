// Unit tests for the tiered LadderQueue (sim/ladder_queue.h, DESIGN.md §15).
//
// The differential suite (tests/sim/queue_differential_test.cc) proves the
// ladder pops the same sequence as the reference heap (binary_heap_queue.h);
// these tests pin the *mechanics* — which tier an event lands in, when rungs
// spawn and collapse, when the bottom spills to the top — plus the internal
// invariants via validate() after every structural transition.
#include "sim/ladder_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace dasched {
namespace {

QueuedEvent ev(std::int64_t time, std::uint64_t seq) {
  return QueuedEvent{SimTime{time}, seq, 0};
}

/// Pops everything, checking strict (time, seq) order and the invariants.
std::vector<QueuedEvent> drain_checked(LadderQueue& q) {
  std::vector<QueuedEvent> out;
  while (!q.empty()) {
    q.validate();
    out.push_back(q.top());
    q.pop();
    if (out.size() >= 2) {
      EXPECT_TRUE(event_before(out[out.size() - 2], out.back()))
          << "pop order violated at index " << out.size() - 1;
    }
  }
  q.validate();
  return out;
}

TEST(LadderQueue, PopsStrictTimeSeqOrder) {
  LadderQueue q;
  std::uint64_t seq = 0;
  for (std::int64_t t : {50, 10, 30, 10, 90, 30, 10}) q.push(ev(t, seq++));
  const std::vector<QueuedEvent> out = drain_checked(q);
  ASSERT_EQ(out.size(), 7u);
  // Ties (three events at t=10, two at t=30) resolve by scheduling order.
  EXPECT_EQ(out[0].seq, 1u);
  EXPECT_EQ(out[1].seq, 3u);
  EXPECT_EQ(out[2].seq, 6u);
  EXPECT_EQ(out[3].seq, 2u);
  EXPECT_EQ(out[4].seq, 5u);
}

TEST(LadderQueue, TimerChainStaysInTheBottomRing) {
  // The engine's dominant pattern: each pop schedules the next event a
  // little later.  Everything must live in the bottom tier — no rungs, no
  // top — so the insert is the O(1) tail append.
  LadderQueue q;
  q.push(ev(0, 0));
  std::uint64_t seq = 1;
  for (int i = 0; i < 10'000; ++i) {
    const QueuedEvent cur = q.top();
    q.pop();
    q.push(ev(cur.time.count() + 7, seq++));
    EXPECT_EQ(q.num_rungs(), 0);
    EXPECT_EQ(q.top_size(), 0u);
  }
  q.validate();
}

TEST(LadderQueue, SameTimeFloodIsOneTieGroup) {
  // A tie group may never straddle a tier boundary; a flood of equal times
  // larger than every threshold must still pop in seq order.
  LadderQueue q;
  for (std::uint64_t s = 0; s < 2'000; ++s) q.push(ev(42, s));
  q.validate();
  const std::vector<QueuedEvent> out = drain_checked(q);
  ASSERT_EQ(out.size(), 2'000u);
  for (std::uint64_t s = 0; s < out.size(); ++s) EXPECT_EQ(out[s].seq, s);
}

TEST(LadderQueue, BottomSpillsFarTailToTop) {
  // More near-term events than the bottom wants to hold: the far tail moves
  // to the top tier, keeping the sorted ring small.
  LadderQueue q;
  std::uint64_t seq = 0;
  const auto n = LadderQueue::kBottomSpill + 64;
  for (std::size_t i = 0; i < n; ++i) {
    q.push(ev(static_cast<std::int64_t>(i * 3), seq++));
  }
  q.validate();
  EXPECT_GT(q.top_size(), 0u);
  EXPECT_LE(q.bottom_size(), LadderQueue::kBottomSpill + 1);
  const std::vector<QueuedEvent> out = drain_checked(q);
  EXPECT_EQ(out.size(), n);
}

TEST(LadderQueue, FarFutureSpanSpawnsAndCollapsesRungs) {
  // A wide far-future span lands in the top tier, converts to a rung when
  // the bottom drains, and the rungs collapse again as they empty.
  LadderQueue q;
  std::uint64_t seq = 0;
  q.push(ev(0, seq++));  // pins the bottom bound at 0
  q.pop();               // queue now empty; bound re-arms
  q.push(ev(1, seq++));
  for (int i = 0; i < 4'096; ++i) {
    // 64 events per millisecond bucket over a 64 ms span.
    q.push(ev(10'000 + (i % 64) * 1'000 + (i / 64), seq++));
  }
  q.validate();
  EXPECT_GT(q.top_size(), 0u);

  int max_rungs = 0;
  std::size_t popped = 0;
  SimTime prev = SimTime::min();
  while (!q.empty()) {
    const QueuedEvent e = q.top();
    EXPECT_GE(e.time, prev);
    prev = e.time;
    q.pop();
    ++popped;
    if (q.num_rungs() > max_rungs) max_rungs = q.num_rungs();
    if (popped % 512 == 0) q.validate();
  }
  EXPECT_EQ(popped, 4'097u);
  // The far-future span converted into at least one rung on the way down.
  EXPECT_GE(max_rungs, 1);
  EXPECT_EQ(q.num_rungs(), 0);  // everything collapsed on the way out
}

TEST(LadderQueue, DrainReArmsTheBottomFastPath) {
  LadderQueue q;
  std::uint64_t seq = 0;
  for (int i = 0; i < 100; ++i) q.push(ev(1'000'000 + i, seq++));
  while (!q.empty()) q.pop();
  // After a full drain the bound must re-arm: a nearby event goes straight
  // to the bottom even though it is far below the last popped time.
  q.push(ev(3, seq++));
  EXPECT_EQ(q.num_rungs(), 0);
  EXPECT_EQ(q.top_size(), 0u);
  EXPECT_EQ(q.bottom_size(), 1u);
  EXPECT_EQ(q.top().time, 3);
  q.validate();
}

TEST(LadderQueue, ReserveBoundsArenaAndRings) {
  LadderQueue q;
  q.reserve(8'192);
  const std::size_t arena0 = q.arena_capacity();
  EXPECT_GE(arena0, 8'192u);
  std::uint64_t seq = 0;
  q.push(ev(0, seq++));
  q.pop();
  q.push(ev(1, seq++));
  for (int i = 0; i < 4'096; ++i) {
    q.push(ev(10'000 + (i % 64) * 1'000 + (i / 64), seq++));
  }
  while (!q.empty()) q.pop();
  // Rung traffic stayed within the pre-reserve: the arena never regrew.
  EXPECT_EQ(q.arena_capacity(), arena0);
}

TEST(LadderQueue, InterleavedPushPopAcrossTiersKeepsInvariants) {
  // Pushes that land in every tier while pops drain the front, with
  // validate() sweeping the full structure throughout.
  LadderQueue q;
  std::uint64_t seq = 0;
  std::uint64_t lcg = 1;
  std::int64_t now = 0;
  std::size_t pushed = 0;
  std::size_t popped = 0;
  for (int step = 0; step < 20'000; ++step) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto r = static_cast<std::int64_t>((lcg >> 33) % 1'000);
    if (q.empty() || r < 600) {
      // Mix of near (timer-chain), mid, and far-future horizons.
      const std::int64_t horizon = r < 300 ? 10 : (r < 500 ? 1'000 : 100'000);
      q.push(ev(now + 1 + r % horizon, seq++));
      ++pushed;
    } else {
      const QueuedEvent e = q.top();
      EXPECT_GE(e.time.count(), now);
      now = e.time.count();
      q.pop();
      ++popped;
    }
    if (step % 1'000 == 0) q.validate();
  }
  q.validate();
  EXPECT_EQ(q.size(), pushed - popped);
}

}  // namespace
}  // namespace dasched
