#include "compiler/compile.h"

#include <gtest/gtest.h>

#include "compiler/trace_builder.h"

namespace dasched {
namespace {

using AE = AffineExpr;

class CompileTest : public ::testing::Test {
 protected:
  CompileTest() : striping_(4, kib(64).count()) {
    file_ = striping_.create_file("f", mib(64).count());
  }

  /// Two processes, each: 20 iterations x (read 64K at a process-private
  /// offset + compute-only pad slots, so the scheduler has room to hoist).
  LoopProgram simple_program() {
    LoopProgram prog;
    prog.body.push_back(make_loop(
        "i", 0, AE(19),
        {
            make_loop("_io", 0, 0,
                      {make_read(file_,
                                 AE::var("p") * mib(8).count() + AE::var("i") * kib(64).count(),
                                 kib(64).count()),
                       make_compute(AE(1'000))},
                      /*slot_loop=*/true),
            make_loop("_pad", 0, 1, {make_compute(AE(500))},
                      /*slot_loop=*/true),
        },
        /*slot_loop=*/false));
    return prog;
  }

  /// Process p reads `count` 64K blocks from its own band; each read slot
  /// is followed by two compute-only pad slots.
  Stmt sequential_scan(std::int64_t count, const std::string& var) const {
    const AE offset = AE::var("p") * (count * kib(64).count()) +
                      AE::var(var) * kib(64).count();
    return make_loop(
        var, 0, AE(count - 1),
        {make_loop("_s", 0, 0,
                   {make_read(file_, offset, kib(64).count()),
                    make_compute(AE(4'000))},
                   /*slot_loop=*/true),
         make_loop("_pad", 0, AE(1), {make_compute(AE(2'000))},
                   /*slot_loop=*/true)},
        /*slot_loop=*/false);
  }

  StripingMap striping_;
  FileId file_;
};

TEST_F(CompileTest, ProducesOneTableEntryPerRead) {
  const Compiled c = compile(simple_program(), 2, striping_);
  EXPECT_EQ(c.program.reads.size(), 40u);
  EXPECT_EQ(c.table.total_entries(), 40);
  EXPECT_EQ(c.scheduled.size(), 40u);
  EXPECT_EQ(c.sched_stats.scheduled, 40);
}

TEST_F(CompileTest, DisabledSchedulingPinsAccessesToOriginals) {
  CompileOptions opts;
  opts.enable_scheduling = false;
  const Compiled c = compile(simple_program(), 2, striping_, opts);
  for (const ScheduledAccess& s : c.scheduled) {
    EXPECT_EQ(s.slot, s.rec.original);
  }
}

TEST_F(CompileTest, EnabledSchedulingHoistsSomething) {
  const Compiled c = compile(simple_program(), 2, striping_);
  EXPECT_GT(c.sched_stats.mean_advance_slots, 0.0);
}

TEST_F(CompileTest, ScheduledSlotsStayInsideSlacks) {
  const Compiled c = compile(simple_program(), 2, striping_);
  for (const ScheduledAccess& s : c.scheduled) {
    if (s.forced) continue;
    EXPECT_GE(s.slot, s.rec.begin);
    EXPECT_LE(s.slot + s.rec.length - 1, s.rec.end);
  }
}

TEST_F(CompileTest, TraceFrontEndMatchesPipeline) {
  TraceBuilder tb(1);
  tb.write(0, file_, 0, kib(64).count());
  tb.end_slot(0);
  for (int i = 0; i < 5; ++i) {
    tb.compute(0, 100);
    tb.end_slot(0);
  }
  tb.read(0, file_, 0, kib(64).count());
  tb.end_slot(0);
  const Compiled c = compile_trace(tb.build(), striping_);
  ASSERT_EQ(c.program.reads.size(), 1u);
  EXPECT_EQ(c.program.reads[0].begin, 1);
  EXPECT_EQ(c.program.reads[0].end, 6);
  ASSERT_EQ(c.table.entries(0).size(), 1u);
}

TEST_F(CompileTest, SlackBoundFlowsThrough) {
  CompileOptions opts;
  opts.slack.max_slack = 3;
  const Compiled c = compile(simple_program(), 2, striping_, opts);
  for (const AccessRecord& r : c.program.reads) {
    EXPECT_LE(r.slack_length(), 3);
  }
}

TEST_F(CompileTest, EmptyProgramCompilesCleanly) {
  LoopProgram prog;
  const Compiled c = compile(prog, 2, striping_);
  EXPECT_EQ(c.program.reads.size(), 0u);
  EXPECT_EQ(c.table.total_entries(), 0);
}

TEST_F(CompileTest, WriteOnlyProgramHasNoTableEntries) {
  LoopProgram prog;
  prog.body.push_back(make_loop(
      "i", 0, AE(9), {make_write(file_, AE::var("i") * kib(64).count(), kib(64).count())}));
  const Compiled c = compile(prog, 1, striping_);
  EXPECT_EQ(c.program.reads.size(), 0u);
}

TEST_F(CompileTest, RepeatedUpdateSweepGivesOneSweepSlacks) {
  // Three sweeps of an in-place update: read block i, then write it back in
  // the next slot, then two pad slots.  Read and write sit in separate
  // slots, so the same-slot race rule does not clamp the read's slack.
  const AE offset = AE::var("i") * kib(64).count();
  LoopProgram prog;
  prog.body.push_back(make_loop(
      "t", 0, AE(2),
      {make_loop(
          "i", 0, AE(5),
          {make_loop("_r", 0, 0,
                     {make_read(file_, offset, kib(64).count()),
                      make_compute(AE(4'000))}),
           make_loop("_w", 0, 0,
                     {make_compute(AE(2'000)),
                      make_write(file_, offset, kib(64).count())}),
           make_loop("_pad", 0, AE(1), {make_compute(AE(2'000))})},
          /*slot_loop=*/false)},
      /*slot_loop=*/false));
  const Compiled c = compile(prog, 1, striping_);
  // Reads of sweeps 2 and 3 see the writes of the previous sweep.
  int bounded = 0;
  for (const AccessRecord& rec : c.program.reads) {
    if (rec.writer_process >= 0) {
      ++bounded;
      EXPECT_GT(rec.slack_length(), 1);
    }
  }
  EXPECT_EQ(bounded, 12);
}

TEST_F(CompileTest, ComposedWorkloadCompilesAndSchedules) {
  // Two scans separated by a 10 s compute-only phase in one slot.
  LoopProgram prog;
  prog.body.push_back(sequential_scan(20, "i"));
  prog.body.push_back(make_loop("_ph", 0, 0, {make_compute(AE(10'000'000))}));
  prog.body.push_back(sequential_scan(20, "j"));
  const Compiled c = compile(prog, 4, striping_);
  EXPECT_EQ(c.program.reads.size(), 4u * 40u);
  EXPECT_GT(c.sched_stats.mean_advance_slots, 0.0);
}

}  // namespace
}  // namespace dasched
