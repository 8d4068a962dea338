#include "io/global_buffer.h"

#include <gtest/gtest.h>

#include <vector>

namespace dasched {
namespace {

TEST(GlobalBuffer, ReserveTracksCapacity) {
  GlobalBuffer buf(kib(128));
  EXPECT_TRUE(buf.try_reserve(0, kib(64)));
  EXPECT_TRUE(buf.try_reserve(1, kib(64)));
  EXPECT_FALSE(buf.try_reserve(2, kib(64)));
  EXPECT_EQ(buf.used(), kib(128));
  EXPECT_EQ(buf.stats().full_rejections, 1);
}

TEST(GlobalBuffer, LifecycleAbsentInFlightReadyDone) {
  GlobalBuffer buf(kib(128));
  EXPECT_EQ(buf.state(5), BufferEntryState::kAbsent);
  buf.try_reserve(5, kib(64));
  EXPECT_EQ(buf.state(5), BufferEntryState::kInFlight);
  buf.mark_ready(5);
  EXPECT_EQ(buf.state(5), BufferEntryState::kReady);
  buf.consume(5);
  EXPECT_EQ(buf.state(5), BufferEntryState::kDone);
  EXPECT_EQ(buf.used(), 0);
}

TEST(GlobalBuffer, ConsumeWakesSpaceWaiters) {
  GlobalBuffer buf(kib(64));
  buf.try_reserve(0, kib(64));
  buf.mark_ready(0);
  int woken = 0;
  buf.wait_space(1, kib(64), [&] { ++woken; });
  buf.wait_space(2, kib(32), [&] { ++woken; });
  buf.consume(0);
  EXPECT_EQ(woken, 2);
}

TEST(GlobalBuffer, ReadyWaiterFiresOnArrival) {
  GlobalBuffer buf(kib(128));
  buf.try_reserve(3, kib(64));
  bool fired = false;
  buf.wait_ready(3, [&] { fired = true; });
  EXPECT_FALSE(fired);
  buf.mark_ready(3);
  EXPECT_TRUE(fired);
  EXPECT_EQ(buf.stats().consumed_in_flight, 1);
}

TEST(GlobalBuffer, OvertakenPrefetchReclaimedOnLanding) {
  GlobalBuffer buf(kib(64));
  buf.try_reserve(7, kib(64));
  buf.mark_done(7);  // the app fetched the data itself
  int woken = 0;
  buf.wait_space(8, kib(64), [&] { ++woken; });
  buf.mark_ready(7);  // the stale prefetch lands
  EXPECT_EQ(buf.used(), 0);
  EXPECT_EQ(woken, 1);
  EXPECT_EQ(buf.stats().wasted, 1);
  EXPECT_EQ(buf.state(7), BufferEntryState::kDone);
}

TEST(GlobalBuffer, MarkDoneWithoutReservation) {
  GlobalBuffer buf(kib(64));
  buf.mark_done(9);
  EXPECT_TRUE(buf.is_done(9));
  EXPECT_EQ(buf.state(9), BufferEntryState::kDone);
}

TEST(GlobalBuffer, PeakBytesTracked) {
  GlobalBuffer buf(kib(192));
  buf.try_reserve(0, kib(64));
  buf.try_reserve(1, kib(128));
  buf.mark_ready(0);
  buf.consume(0);
  EXPECT_EQ(buf.stats().peak_bytes, kib(192));
  EXPECT_EQ(buf.used(), kib(128));
}

TEST(GlobalBuffer, StatsCountReservationsAndConsumes) {
  GlobalBuffer buf(mib(1));
  for (int i = 0; i < 5; ++i) {
    buf.try_reserve(i, kib(64));
    buf.mark_ready(i);
    buf.consume(i);
  }
  EXPECT_EQ(buf.stats().reservations, 5);
  EXPECT_EQ(buf.stats().consumed, 5);
}

// Fills a 128 KiB buffer with two ready 64 KiB entries (ids 0 and 1), so
// each consume frees exactly 64 KiB.
void fill(GlobalBuffer& buf) {
  ASSERT_TRUE(buf.try_reserve(0, kib(64)));
  ASSERT_TRUE(buf.try_reserve(1, kib(64)));
  buf.mark_ready(0);
  buf.mark_ready(1);
}

TEST(GlobalBuffer, ReleaseSkipsWaiterLargerThanFreeBytes) {
  GlobalBuffer buf(kib(128));
  fill(buf);
  std::vector<int> woken;
  buf.wait_space(10, kib(96), [&] { woken.push_back(10); });  // too big
  buf.wait_space(11, kib(32), [&] { woken.push_back(11); });
  buf.consume(0);  // frees 64 KiB
  EXPECT_EQ(woken, std::vector<int>{11});
  EXPECT_EQ(buf.space_waiters(), 1);
  buf.consume(1);  // now 128 KiB free
  EXPECT_EQ(woken, (std::vector<int>{11, 10}));
  EXPECT_EQ(buf.space_waiters(), 0);
}

TEST(GlobalBuffer, SkippedWaiterKeepsItsChainPosition) {
  GlobalBuffer buf(kib(128));
  fill(buf);
  std::vector<int> woken;
  buf.wait_space(10, kib(96), [&] { woken.push_back(10); });
  buf.consume(0);  // 64 KiB free: 10 stays parked
  ASSERT_TRUE(woken.empty());
  // A waiter queued after the skip must still fire after it.
  buf.wait_space(11, kib(32), [&] { woken.push_back(11); });
  buf.consume(1);
  EXPECT_EQ(woken, (std::vector<int>{10, 11}));
}

TEST(GlobalBuffer, ReleaseWakesWaiterWhoseEntryWasHandled) {
  GlobalBuffer buf(kib(128));
  fill(buf);
  bool woken = false;
  buf.wait_space(10, kib(96), [&] { woken = true; });
  buf.mark_done(10);  // the application read entry 10 itself
  buf.consume(0);     // 64 KiB free: too little, but 10 no longer needs it
  EXPECT_TRUE(woken);
  EXPECT_EQ(buf.space_waiters(), 0);
}

TEST(GlobalBuffer, InvokedWaitersRunInChainOrder) {
  GlobalBuffer buf(kib(128));
  fill(buf);
  buf.consume(0);
  buf.consume(1);
  ASSERT_TRUE(buf.try_reserve(2, kib(128)));
  std::vector<int> woken;
  for (int id : {13, 10, 12, 11}) {
    buf.wait_space(id, kib(16), [&woken, id] { woken.push_back(id); });
  }
  buf.mark_ready(2);
  buf.consume(2);
  EXPECT_EQ(woken, (std::vector<int>{13, 10, 12, 11}));
}

TEST(GlobalBuffer, WaiterReparkedDuringReleaseQueuesBehindSkippedOnes) {
  // A woken waiter that fails again re-parks at the tail of the chain being
  // rebuilt, behind waiters the same release skipped before reaching it.
  GlobalBuffer buf(kib(128));
  fill(buf);
  std::vector<int> woken;
  buf.wait_space(10, kib(96), [&] { woken.push_back(10); });
  buf.wait_space(11, kib(64), [&] {
    woken.push_back(11);
    ASSERT_TRUE(buf.try_reserve(11, kib(64)));
    buf.wait_space(12, kib(96), [&] { woken.push_back(12); });
  });
  buf.consume(0);
  EXPECT_EQ(woken, std::vector<int>{11});
  buf.mark_ready(11);
  buf.consume(11);  // 64 KiB free: both stay parked
  EXPECT_EQ(buf.space_waiters(), 2);
  buf.consume(1);
  // 10 (skipped at the first release) precedes 12 (parked during it).
  EXPECT_EQ(woken, (std::vector<int>{11, 10, 12}));
}

TEST(GlobalBuffer, FullRejectionsCountOnlyFailedReservations) {
  GlobalBuffer buf(kib(128));
  fill(buf);
  EXPECT_FALSE(buf.try_reserve(10, kib(96)));
  EXPECT_EQ(buf.stats().full_rejections, 1);
  buf.wait_space(10, kib(96), [] {});
  // Releases that cannot satisfy the waiter neither wake nor count it.
  buf.consume(0);
  EXPECT_EQ(buf.stats().full_rejections, 1);
  EXPECT_EQ(buf.space_waiters(), 1);
  EXPECT_TRUE(buf.try_reserve(12, kib(32)));
  EXPECT_FALSE(buf.try_reserve(13, kib(64)));
  EXPECT_EQ(buf.stats().full_rejections, 2);
}

}  // namespace
}  // namespace dasched
