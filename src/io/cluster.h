// Client-side runtime (Sec. III): application processes plus the data access
// scheduler threads.
//
// A `Cluster` wires one `ClientProcess` per MPI rank to the storage system
// and — when the compiler-directed scheme is enabled — one `SchedulerThread`
// per client node that prefetches data into the shared `GlobalBuffer`
// according to the scheduling table.  Application reads first consult the
// buffer: a hit returns immediately and invalidates the entry; a miss goes
// to storage.  Scheduler threads respect the writers' "local times" so a
// prefetch never runs ahead of the producing process.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "compiler/compile.h"
#include "io/global_buffer.h"
#include "sim/simulator.h"
#include "storage/storage_system.h"
#include "util/units.h"

namespace dasched {

class Cluster;

struct RuntimeConfig {
  /// Capacity of the collectively managed client-side prefetch buffer.
  Bytes buffer_capacity = mib(128);
  /// Prefetch only accesses scheduled more than `min_lead` slots before
  /// their original point ("scheduled at much earlier iterations").
  Slot min_lead = 1;
  /// Latency of serving an application read from the buffer.
  SimTime buffer_hit_latency = usec(10);
  /// Concurrent fetches a scheduler thread keeps in flight.
  int scheduler_fetch_depth = 4;
  /// False disables the scheduler threads entirely (the Default scheme and
  /// the paper's "without our approach" runs).
  bool use_runtime_scheduler = true;
};

struct RuntimeStats {
  std::int64_t buffer_hits = 0;
  /// Application reads that found their prefetch still in flight and waited.
  std::int64_t in_flight_hits = 0;
  std::int64_t direct_reads = 0;
  std::int64_t writes = 0;
  std::int64_t prefetches = 0;
  /// Table entries skipped because the scheduled point was too close to the
  /// original point to be worth prefetching.
  std::int64_t skipped_min_lead = 0;
  BufferStats buffer;
};

/// One application process: executes its slot plan (compute + I/O calls),
/// publishing its local time for the scheduler threads.
class ClientProcess {
 public:
  ClientProcess(Cluster& cluster, int pid);

  void start();

  /// Rewinds to slot 0, un-finishes, and drops pending progress waiters.
  /// Waiter vectors keep their capacity.
  void reset();

  /// Number of fully completed slots (the paper's "local time").
  [[nodiscard]] Slot local_time() const { return completed_; }

  /// Fires `cb` (once) as soon as local_time() >= needed.
  void subscribe_progress(Slot needed, std::function<void()> cb);

  /// Progress subscriptions not yet fired.
  [[nodiscard]] int pending_subscriptions() const {
    return static_cast<int>(waiters_.size());
  }

  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] SimTime finish_time() const { return finish_time_; }
  [[nodiscard]] int pid() const { return pid_; }

 private:
  void begin_slot();
  void run_op(std::size_t op_index);
  void op_done(std::size_t op_index);
  void after_ops();
  void finish_slot();

  Cluster& cluster_;
  int pid_;
  Slot current_ = 0;
  Slot completed_ = 0;
  bool finished_ = false;
  SimTime finish_time_ = 0;
  std::vector<std::pair<Slot, std::function<void()>>> waiters_;
  /// Matured waiters staged here before firing (finish_slot); a member so
  /// the staging storage is reused instead of reallocated every slot.
  std::vector<std::function<void()>> ready_scratch_;
};

/// One runtime data-access scheduler thread (light-weight, per client node).
/// It keeps a small bounded number of fetches in flight (a blocking thread
/// with limited lookahead), so prefetch traffic can never flood the disks.
///
/// A blocked thread waits for one condition: a process (its owner, or the
/// writer of the entry) reaching a slot, or buffer space.  It holds at most
/// one wakeup registration per condition: blocking again on a condition it
/// already has a registration for keeps that one and its queue position.
/// A registration left behind when the thread moved on (its entry was handled
/// by the application meanwhile) stays queued and still wakes the thread,
/// so wakeups happen exactly where the first of the duplicates used to fire
/// (DESIGN.md "Runtime prefetcher wakeups").
class SchedulerThread {
 public:
  SchedulerThread(Cluster& cluster, int pid);

  /// Re-evaluates the table cursor; invoked on owner progress, buffer space
  /// release, writer progress and fetch completion.
  void kick();

  /// Rewinds the table cursor for a fresh run and forgets the registrations
  /// (the owning cluster resets the queues that held them).
  void reset();

  /// Wakeup registrations queued and not yet fired; at most one per
  /// condition.
  [[nodiscard]] int registrations() const {
    return static_cast<int>(registrations_.size());
  }

  /// kick() calls since construction or reset().
  [[nodiscard]] std::int64_t kicks() const { return kicks_; }

  /// False when the entry under the cursor is still absent although its
  /// owner has passed the entry's original slot.  The owner's own read marks
  /// it done first, and GlobalBuffer::wait_space's skip rule relies on that.
  [[nodiscard]] bool cursor_entry_consistent() const;

 private:
  struct WaitKey {
    bool space = false;
    int process = -1;  // !space: whose local time
    Slot slot = 0;     // !space: the local time needed
    friend bool operator==(const WaitKey&, const WaitKey&) = default;
  };
  struct Registration {
    WaitKey key;
    std::uint32_t token = 0;
  };

  /// Blocks the thread on `key`, registering a wakeup unless one is already
  /// queued for it.  A space waiter names the entry it retries and its size.
  void park(WaitKey key, int access_id = -1, Bytes size = 0);
  /// A registration fired: forget it and re-evaluate.
  void wake(std::uint32_t token);

  Cluster& cluster_;
  int pid_;
  std::size_t cursor_ = 0;
  int fetches_in_flight_ = 0;
  /// Queued registrations; capacity is kept across runs.
  std::vector<Registration> registrations_;
  std::uint32_t next_token_ = 0;
  std::int64_t kicks_ = 0;
};

class Cluster {
 public:
  Cluster(Simulator& sim, StorageSystem& storage, const Compiled& compiled,
          RuntimeConfig cfg = {});

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Restores the cluster for a new run over (possibly different) compiled
  /// output and runtime config.  Same-shape parts — clients, schedulers, the
  /// prefetch buffer — reset in place without allocating; a process-count
  /// change rebuilds the per-process objects, and a change of compiled
  /// program (by address) rebuilds the read-site index.  The compiled output
  /// must outlive the cluster, as with the constructor.
  void reset(const Compiled& compiled, RuntimeConfig cfg);

  /// Launches every client process (and scheduler thread) at the current
  /// simulated time.
  void start();

  /// Convenience driver: start() if needed, then step the simulator until
  /// every client finishes, and return the completion time.  Use this rather
  /// than Simulator::run(): power-policy watchdog timers can keep the event
  /// queue alive indefinitely after the application completes.
  SimTime run_to_completion();

  [[nodiscard]] bool all_finished() const;
  /// Completion time of the slowest process.
  [[nodiscard]] SimTime exec_time() const;

  [[nodiscard]] RuntimeStats stats() const;

  /// SchedulerThread::kick() calls in this run, over all threads and every
  /// source (start, owner and writer progress, space release, fetch
  /// completion).  Observability only: not part of RuntimeStats or any
  /// serialized result.
  [[nodiscard]] std::int64_t kicks() const;

  /// The scheduler thread of process `p` (scheme-on runs only).
  [[nodiscard]] const SchedulerThread& scheduler(int p) const {
    return *schedulers_[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] int num_schedulers() const {
    return static_cast<int>(schedulers_.size());
  }

  [[nodiscard]] int num_processes() const {
    return static_cast<int>(clients_.size());
  }
  [[nodiscard]] ClientProcess& client(int p) {
    return *clients_[static_cast<std::size_t>(p)];
  }

  // --- Internal plumbing shared by ClientProcess / SchedulerThread ---------
  [[nodiscard]] Simulator& sim() { return sim_; }
  [[nodiscard]] StorageSystem& storage() { return storage_; }
  [[nodiscard]] GlobalBuffer& buffer() { return buffer_; }
  [[nodiscard]] const Compiled& compiled() const { return *compiled_; }
  [[nodiscard]] const RuntimeConfig& config() const { return cfg_; }
  [[nodiscard]] RuntimeStats& mutable_stats() { return stats_; }

  /// Access id of the read at (process, slot, op index); -1 for writes.
  [[nodiscard]] int access_id_at(int process, Slot slot, int op_index) const;

  /// The I/O operation behind an access id.
  [[nodiscard]] const IoOp& op_for(int access_id) const;

 private:
  void rebuild_site_index();

  Simulator& sim_;
  StorageSystem& storage_;
  const Compiled* compiled_;  // rebindable on reset(); never null
  RuntimeConfig cfg_;
  GlobalBuffer buffer_;
  std::vector<std::unique_ptr<ClientProcess>> clients_;
  std::vector<std::unique_ptr<SchedulerThread>> schedulers_;
  // Read-site index, flat over (process, slot, op): process p's slots are
  // slot_first_op_[process_first_slot_[p] + s], each the offset of the
  // slot's first op in op_access_ids_ (an access id, or -1 for a write).
  // Both offset tables end with a sentinel.
  std::vector<int> process_first_slot_;
  std::vector<int> slot_first_op_;
  std::vector<int> op_access_ids_;
  RuntimeStats stats_;
  bool started_ = false;
};

}  // namespace dasched
