// Randomized differential test: the fast-path AccessScheduler must be
// bit-identical to the preserved pre-rewrite implementation
// (reference_scheduler.h) — same placements, same forced/fallback decisions,
// same float stats, same group signatures, across every option combination
// that changes the code path: θ on/off, randomized tie-break on/off,
// candidate sampling off/aggressive/default, single- and multi-word
// signatures, mixed access lengths — and on the real slacked traces of
// three paper applications.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "compiler/slack.h"
#include "core/scheduler.h"
#include "driver/experiment.h"
#include "reference_scheduler.h"
#include "util/rng.h"
#include "workload/app.h"

namespace dasched {
namespace {

std::vector<AccessRecord> random_accesses(int count, int nodes, Slot slots,
                                          int processes, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<AccessRecord> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    AccessRecord rec;
    rec.id = i;
    rec.process = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(processes)));
    rec.end =
        static_cast<Slot>(rng.next_below(static_cast<std::uint64_t>(slots)));
    rec.begin = rec.end - static_cast<Slot>(rng.next_below(
                              static_cast<std::uint64_t>(rec.end) + 1));
    rec.original = rec.begin + static_cast<Slot>(rng.next_below(
                                   static_cast<std::uint64_t>(rec.slack_length())));
    // Mixed lengths 1..4, clamped to the slack as the compiler does.
    rec.length = std::min<int>(
        1 + static_cast<int>(rng.next_below(4)),
        static_cast<int>(rec.slack_length()));
    rec.sig = Signature(nodes);
    const int stripe = 1 + static_cast<int>(rng.next_below(4));
    for (int s = 0; s < stripe; ++s) {
      rec.sig.set(static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(nodes))));
    }
    out.push_back(std::move(rec));
  }
  return out;
}

struct Variant {
  int theta;
  bool random_tie_break;
  int max_candidates;
};

TEST(SchedulerDifferentialTest, MatchesReferenceBitForBit) {
  // 2 θ × 2 tie-break × 3 sampling × 4 seeds = 48 randomized runs (>= 40).
  const Variant variants[] = {
      {0, false, 0},  {0, false, 8},  {0, false, 128},
      {0, true, 0},   {0, true, 8},   {0, true, 128},
      {4, false, 0},  {4, false, 8},  {4, false, 128},
      {4, true, 0},   {4, true, 8},   {4, true, 128},
  };
  const std::uint64_t seeds[] = {1, 2, 3, 4};

  int runs = 0;
  for (const Variant& v : variants) {
    for (std::uint64_t seed : seeds) {
      SCOPED_TRACE("theta=" + std::to_string(v.theta) +
                   " tie=" + std::to_string(v.random_tie_break) +
                   " max_candidates=" + std::to_string(v.max_candidates) +
                   " seed=" + std::to_string(seed));
      // Odd seeds use a >64-node cluster to exercise multi-word signatures.
      const int nodes = (seed % 2 == 0) ? 12 : 96;
      const Slot slots = 512;
      const auto accesses = random_accesses(400, nodes, slots, 24, seed);

      ScheduleOptions opts;
      opts.theta = v.theta;
      opts.random_tie_break = v.random_tie_break;
      opts.max_candidates = v.max_candidates;
      opts.seed = seed * 1000 + 7;

      ReferenceScheduler ref(nodes, slots, opts);
      AccessScheduler fast(nodes, slots, opts);
      const auto expected = ref.schedule(accesses);
      const auto actual = fast.schedule(accesses);

      ASSERT_EQ(expected.size(), actual.size());
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(expected[i].rec.id, actual[i].rec.id) << "index " << i;
        EXPECT_EQ(expected[i].slot, actual[i].slot)
            << "access #" << expected[i].rec.id;
        EXPECT_EQ(expected[i].forced, actual[i].forced)
            << "access #" << expected[i].rec.id;
      }

      EXPECT_EQ(ref.stats().scheduled, fast.stats().scheduled);
      EXPECT_EQ(ref.stats().forced, fast.stats().forced);
      EXPECT_EQ(ref.stats().theta_fallbacks, fast.stats().theta_fallbacks);
      // Bit-identical, not just approximately equal: the fast path must sum
      // the same terms in the same order.
      EXPECT_EQ(ref.stats().mean_advance_slots, fast.stats().mean_advance_slots);

      for (Slot s = 0; s < slots; ++s) {
        ASSERT_EQ(ref.group_signature(s), fast.group_signature(s))
            << "group signature diverges at slot " << s;
      }
      runs += 1;
    }
  }
  EXPECT_GE(runs, 40);
}

/// The slacked read trace a scheme-on compile of `app_name` schedules, at
/// the ExperimentConfig defaults (Table II storage, max_slack, the app's
/// length unit).
CompiledProgram slacked_trace(const std::string& app_name,
                              WorkloadScale scale) {
  const ExperimentConfig cfg;
  const App& app = app_by_name(app_name);
  StripingMap striping(cfg.storage.num_io_nodes, cfg.storage.stripe_size);
  CompiledProgram program = app.build(striping, scale);
  SlackOptions slack = cfg.compile.slack;
  slack.length_unit = app.length_unit;
  slack.max_slack = cfg.max_slack;
  analyze_slacks(program, striping, slack);
  return program;
}

// Real traces reach shapes random ones rarely do: slacks wider than
// max_candidates (strided candidates), σ windows clipped at slot 0 and at
// the last slot, and θ fallbacks with tied E_t.  The test checks that each shape occurs,
// so the comparison covers them.
TEST(SchedulerDifferentialTest, PaperTracesMatchReference) {
  const ExperimentConfig defaults;
  ScheduleOptions random_ties;  // θ = 0 with the randomized tie-break
  random_ties.theta = 0;
  random_ties.random_tie_break = true;
  // θ = 1 makes most placements fall back to E_t, where equal minima are
  // common and the reuse order must break the tie.
  ScheduleOptions tight = defaults.compile.sched;
  tight.theta = 1;
  const ScheduleOptions variants[] = {defaults.compile.sched, random_ties,
                                      tight};
  const int nodes = defaults.storage.num_io_nodes;

  bool strided = false;
  bool clipped_low = false;
  bool clipped_high = false;
  std::int64_t fallbacks = 0;
  for (const char* app : {"sar", "madbench2", "wupwise"}) {
    const CompiledProgram trace = slacked_trace(app, WorkloadScale{8, 0.05});
    const Slot slots = std::max<Slot>(trace.num_slots, 1);
    for (const AccessRecord& rec : trace.reads) {
      const ScheduleOptions& opts = variants[0];
      strided |= rec.latest_start() - rec.begin + 1 > opts.max_candidates;
      clipped_low |= rec.begin - opts.delta < 0;
      clipped_high |= rec.latest_start() + rec.length - 1 + opts.delta >= slots;
    }
    for (const ScheduleOptions& opts : variants) {
      SCOPED_TRACE(std::string(app) + " theta=" + std::to_string(opts.theta) +
                   " tie=" + std::to_string(opts.random_tie_break));
      ReferenceScheduler ref(nodes, slots, opts);
      AccessScheduler fast(nodes, slots, opts);
      const auto expected = ref.schedule(trace.reads);
      std::vector<ScheduledAccess> actual;
      fast.schedule_into(trace.reads, actual);

      ASSERT_EQ(expected.size(), actual.size());
      for (std::size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(expected[i].rec.id, actual[i].rec.id) << "index " << i;
        EXPECT_EQ(expected[i].slot, actual[i].slot)
            << "access #" << expected[i].rec.id;
        EXPECT_EQ(expected[i].forced, actual[i].forced)
            << "access #" << expected[i].rec.id;
      }
      EXPECT_EQ(ref.stats().forced, fast.stats().forced);
      EXPECT_EQ(ref.stats().theta_fallbacks, fast.stats().theta_fallbacks);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(ref.stats().mean_advance_slots),
                std::bit_cast<std::uint64_t>(fast.stats().mean_advance_slots));
      for (Slot s = 0; s < slots; ++s) {
        ASSERT_EQ(ref.group_signature(s), fast.group_signature(s))
            << "group signature diverges at slot " << s;
      }
      fallbacks += fast.stats().theta_fallbacks;
    }
  }
  EXPECT_TRUE(strided);
  EXPECT_TRUE(clipped_low);
  EXPECT_TRUE(clipped_high);
  EXPECT_GT(fallbacks, 0);
}

// reset() + schedule_into() must replay exactly: a reused scheduler is
// indistinguishable from a fresh one (RNG reseeded, timeline cleared).
TEST(SchedulerDifferentialTest, ResetReplaysIdentically) {
  ScheduleOptions opts;
  opts.theta = 4;
  opts.random_tie_break = true;
  const auto accesses = random_accesses(300, 12, 256, 16, 99);

  AccessScheduler fresh(12, 256, opts);
  const auto expected = fresh.schedule(accesses);

  AccessScheduler reused(12, 256, opts);
  std::vector<ScheduledAccess> out;
  reused.schedule_into(accesses, out);
  reused.reset();
  reused.schedule_into(accesses, out);

  ASSERT_EQ(expected.size(), out.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].slot, out[i].slot) << "access #" << expected[i].rec.id;
    EXPECT_EQ(expected[i].forced, out[i].forced);
  }
  EXPECT_EQ(fresh.stats().forced, reused.stats().forced);
  EXPECT_EQ(fresh.stats().theta_fallbacks, reused.stats().theta_fallbacks);
  EXPECT_EQ(fresh.stats().mean_advance_slots, reused.stats().mean_advance_slots);
  for (Slot s = 0; s < 256; ++s) {
    ASSERT_EQ(fresh.group_signature(s), reused.group_signature(s));
  }
}

}  // namespace
}  // namespace dasched
