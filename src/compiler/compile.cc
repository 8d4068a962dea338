#include "compiler/compile.h"

namespace dasched {

namespace {

Compiled finish(CompiledProgram lowered, const StripingMap& striping,
                const CompileOptions& opts) {
  analyze_slacks(lowered, striping, opts.slack);

  Compiled out;
  if (opts.enable_scheduling && !lowered.reads.empty()) {
    AccessScheduler scheduler(striping.num_io_nodes(),
                              std::max<Slot>(lowered.num_slots, 1), opts.sched);
    scheduler.add_observer(opts.sched_observer);
    scheduler.schedule_into(lowered.reads, out.scheduled);
    out.sched_stats = scheduler.stats();
  } else {
    out.scheduled.reserve(lowered.reads.size());
    for (const AccessRecord& rec : lowered.reads) {
      out.scheduled.push_back(ScheduledAccess{rec, rec.original, false});
    }
    out.sched_stats.scheduled = static_cast<std::int64_t>(out.scheduled.size());
  }
  out.table = SchedulingTable(out.scheduled);
  out.program = std::move(lowered);
  return out;
}

}  // namespace

Compiled compile(const LoopProgram& program, int num_processes,
                 const StripingMap& striping, const CompileOptions& opts) {
  return finish(lower(program, num_processes, opts.lowering), striping, opts);
}

Compiled compile_trace(CompiledProgram lowered, const StripingMap& striping,
                       const CompileOptions& opts) {
  return finish(std::move(lowered), striping, opts);
}

}  // namespace dasched
