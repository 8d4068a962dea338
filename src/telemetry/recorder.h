// Low-overhead per-run trace recorder.
//
// `TraceBuffer` stores events in pooled fixed-size chunks: appending is a
// bounds check plus a 32-byte store, chunks are recycled through a free
// list on `clear()`, and `reserve()` pre-allocates so steady-state
// recording performs zero heap allocations
// (tests/telemetry/recorder_alloc_test.cc).
//
// `TelemetryRecorder` implements every layer's observer interface and
// filters by `TraceLevel`, so one object taps the whole stack (simulator,
// disks, power policies, I/O nodes, storage router, access scheduler).  It
// is strictly passive: it never mutates simulation state, so an enabled
// recorder cannot change any result — and an absent one costs each hook
// site a single empty-list test (the disabled path stays bit-identical and
// allocation-free, tests/telemetry/telemetry_run_test.cc).
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/scheduler.h"
#include "disk/disk.h"
#include "sim/simulator.h"
#include "storage/io_node.h"
#include "storage/storage_system.h"
#include "telemetry/events.h"
#include "util/annotations.h"

namespace dasched {

/// Append-only event store built from pooled fixed-size chunks.
class TraceBuffer {
 public:
  static constexpr std::size_t kChunkEvents = 8192;

  DASCHED_HOT void append(const TraceEvent& ev) {
    if (chunks_.empty() || chunks_.back()->used == kChunkEvents) grow();
    Chunk& c = *chunks_.back();
    c.events[c.used] = ev;
    c.used += 1;
    size_ += 1;
  }

  /// Pre-allocates capacity for at least `events` further appends.
  void reserve(std::size_t events);

  /// Drops all events, recycling every chunk into the free list (no
  /// deallocation; the next recording reuses the memory).
  void clear();

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Random access by append index.  Chunks fill sequentially, so every
  /// chunk except the last is full and the address is O(1) arithmetic.
  [[nodiscard]] const TraceEvent& operator[](std::size_t i) const {
    return chunks_[i / kChunkEvents]->events[i % kChunkEvents];
  }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& c : chunks_) {
      for (std::size_t i = 0; i < c->used; ++i) fn(c->events[i]);
    }
  }

 private:
  struct Chunk {
    std::array<TraceEvent, kChunkEvents> events;
    std::size_t used = 0;
  };

  void grow();

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::vector<std::unique_ptr<Chunk>> free_;
  std::size_t size_ = 0;
};

/// One recorder per run; attach with telemetry/install.h.
class DASCHED_OBSERVER_PASSIVE TelemetryRecorder final
    : public SimObserver,
                                public DiskObserver,
                                public IoNodeObserver,
                                public StorageObserver,
                                public PolicyObserver,
                                public SchedulerObserver {
 public:
  explicit TelemetryRecorder(TraceLevel level) : level_(level) {
    meta_.level = level;
  }

  [[nodiscard]] TraceLevel level() const { return level_; }
  [[nodiscard]] TraceBuffer& buffer() { return buf_; }
  [[nodiscard]] const TraceBuffer& buffer() const { return buf_; }
  [[nodiscard]] TraceMeta& meta() { return meta_; }
  [[nodiscard]] const TraceMeta& meta() const { return meta_; }

  /// Maps `disk` to the global disk id `node * disks_per_node + local`.
  void register_disk(const Disk& disk, int node, int local);

  /// Clock source for hooks whose callback carries no simulator reference
  /// (storage routing).  Set by install_telemetry.
  void set_simulator(const Simulator& sim) { sim_ = &sim; }

  // SimObserver (kFull) ------------------------------------------------------
  void on_event_fired(std::uint64_t seq, SimTime t, bool cancelled) override;

  // DiskObserver (kState / kRequest) -----------------------------------------
  void on_state_change(const Disk& disk, DiskState from, DiskState to) override;
  void on_energy_accrued(const Disk& disk, DiskState state, Rpm rpm,
                         SimTime dt, Joules joules) override;
  void on_stream_idle_begin(const Disk& disk) override;
  void on_stream_idle_end(const Disk& disk, SimTime duration,
                          bool counted) override;
  void on_request_submitted(const Disk& disk, const DiskRequest& req) override;
  void on_service_start(const Disk& disk, const DiskRequest& req) override;
  void on_service_complete(const Disk& disk, SimTime service_time) override;
  void on_finalized(const Disk& disk) override;

  // PolicyObserver (kState) --------------------------------------------------
  void on_policy_action(const Disk& disk, PolicyDecision decision,
                        SimTime predicted_idle, Rpm rpm) override;
  void on_idle_observed(const Disk& disk, SimTime predicted,
                        SimTime actual) override;

  // IoNodeObserver (kRequest / kFull) ----------------------------------------
  void on_read(const IoNode& node, Bytes offset, Bytes size,
               bool background) override;
  void on_write(const IoNode& node, Bytes offset, Bytes size) override;
  void on_block_lookup(const IoNode& node, Bytes block, bool hit) override;
  void on_prefetch_issued(const IoNode& node, Bytes block) override;
  void on_disk_ops_issued(const IoNode& node, std::size_t count) override;

  // StorageObserver (kFull) --------------------------------------------------
  void on_request_routed(FileId f, Bytes offset, Bytes size, bool is_write,
                         std::span<const StripePiece> pieces) override;

  // SchedulerObserver (kFull; compile time, stamped at t=0) ------------------
  void on_access_placed(const AccessRecord& rec, Slot slot, bool forced,
                        bool theta_fallback) override;

 private:
  [[nodiscard]] bool wants(TraceLevel required) const {
    return static_cast<int>(level_) >= static_cast<int>(required);
  }
  [[nodiscard]] std::uint16_t disk_id(const Disk& disk) const {
    const auto it = disk_ids_.find(&disk);
    return it == disk_ids_.end() ? 0xffff : it->second;
  }
  DASCHED_HOT void record(SimTime t, TraceEventKind kind, std::uint16_t subject,
              std::uint32_t aux, std::uint64_t arg0, std::uint64_t arg1) {
    buf_.append(TraceEvent{t, static_cast<std::uint16_t>(kind), subject, aux,
                           arg0, arg1});
  }

  TraceLevel level_;
  TraceBuffer buf_;
  TraceMeta meta_;
  const Simulator* sim_ = nullptr;
  std::unordered_map<const Disk*, std::uint16_t> disk_ids_;
};

}  // namespace dasched
