#include "telemetry/recorder.h"

namespace dasched {

void TraceBuffer::reserve(std::size_t events) {
  std::size_t capacity = free_.size() * kChunkEvents;
  if (!chunks_.empty()) {
    capacity += kChunkEvents - chunks_.back()->used;
  }
  while (capacity < events) {
    free_.push_back(std::make_unique<Chunk>());
    capacity += kChunkEvents;
  }
  // grow() moves free-listed chunks into chunks_; pre-size the pointer
  // array too, so the reserved appends stay allocation-free.
  chunks_.reserve(chunks_.size() + free_.size());
}

void TraceBuffer::clear() {
  for (auto& c : chunks_) {
    c->used = 0;
    free_.push_back(std::move(c));
  }
  chunks_.clear();
  size_ = 0;
}

void TraceBuffer::grow() {
  if (!free_.empty()) {
    // dasched-lint: allow(hot-alloc): pointer-array growth amortizes; a
    // reserve() pre-sizes it for bounded captures.
    chunks_.push_back(std::move(free_.back()));
    free_.pop_back();
  } else {
    // dasched-lint: allow(hot-alloc): chunk allocation is the documented
    // cold path (once per kChunkEvents appends, never after clear()).
    chunks_.push_back(std::make_unique<Chunk>());
  }
}

void TelemetryRecorder::register_disk(const Disk& disk, int node, int local) {
  const int id = node * (meta_.disks_per_node > 0 ? meta_.disks_per_node : 1) +
                 local;
  disk_ids_.emplace(&disk, static_cast<std::uint16_t>(id));
}

void TelemetryRecorder::on_event_fired(std::uint64_t seq, SimTime t,
                                       bool cancelled) {
  if (!wants(TraceLevel::kFull) || cancelled) return;
  record(t, TraceEventKind::kEventDispatched, 0, 0, seq, 0);
}

void TelemetryRecorder::on_state_change(const Disk& disk, DiskState from,
                                        DiskState to) {
  if (!wants(TraceLevel::kState)) return;
  const auto aux = static_cast<std::uint32_t>(from) |
                   (static_cast<std::uint32_t>(to) << 8);
  record(disk.sim().now(), TraceEventKind::kStateChange, disk_id(disk), aux,
         static_cast<std::uint64_t>(disk.current_rpm()), 0);
}

void TelemetryRecorder::on_energy_accrued(const Disk& disk, DiskState state,
                                          Rpm rpm, SimTime dt, Joules joules) {
  if (!wants(TraceLevel::kState)) return;
  record(disk.sim().now(), TraceEventKind::kEnergyAccrued, disk_id(disk),
         static_cast<std::uint32_t>(state), std::bit_cast<std::uint64_t>(joules),
         static_cast<std::uint64_t>(dt.count()));
  (void)rpm;
}

void TelemetryRecorder::on_stream_idle_begin(const Disk& disk) {
  if (!wants(TraceLevel::kState)) return;
  record(disk.sim().now(), TraceEventKind::kStreamIdleBegin, disk_id(disk), 0,
         0, 0);
}

void TelemetryRecorder::on_stream_idle_end(const Disk& disk, SimTime duration,
                                           bool counted) {
  if (!wants(TraceLevel::kState)) return;
  record(disk.sim().now(), TraceEventKind::kStreamIdleEnd, disk_id(disk),
         counted ? 1u : 0u, static_cast<std::uint64_t>(duration.count()), 0);
}

void TelemetryRecorder::on_request_submitted(const Disk& disk,
                                             const DiskRequest& req) {
  if (!wants(TraceLevel::kRequest)) return;
  const std::uint32_t aux =
      (req.is_write ? 1u : 0u) | (req.background ? 2u : 0u);
  const SimTime now = disk.sim().now();
  const std::uint16_t id = disk_id(disk);
  record(now, TraceEventKind::kRequestSubmitted, id, aux,
         static_cast<std::uint64_t>(req.offset.count()),
         static_cast<std::uint64_t>(req.size.count()));
  record(now, TraceEventKind::kQueueDepth, id, 0,
         static_cast<std::uint64_t>(disk.queue_depth()), 0);
}

void TelemetryRecorder::on_service_start(const Disk& disk,
                                         const DiskRequest& req) {
  if (!wants(TraceLevel::kRequest)) return;
  const std::uint32_t aux =
      (req.is_write ? 1u : 0u) | (req.background ? 2u : 0u);
  record(disk.sim().now(), TraceEventKind::kServiceStart, disk_id(disk), aux,
         static_cast<std::uint64_t>(req.offset.count()),
         static_cast<std::uint64_t>(req.size.count()));
}

void TelemetryRecorder::on_service_complete(const Disk& disk,
                                            SimTime service_time) {
  if (!wants(TraceLevel::kRequest)) return;
  const SimTime now = disk.sim().now();
  const std::uint16_t id = disk_id(disk);
  record(now, TraceEventKind::kServiceComplete, id, 0,
         static_cast<std::uint64_t>(service_time.count()), 0);
  record(now, TraceEventKind::kQueueDepth, id, 0,
         static_cast<std::uint64_t>(disk.queue_depth()), 0);
}

void TelemetryRecorder::on_finalized(const Disk& disk) {
  if (!wants(TraceLevel::kState)) return;
  record(disk.sim().now(), TraceEventKind::kDiskFinalized, disk_id(disk), 0,
         std::bit_cast<std::uint64_t>(disk.stats().energy_j), 0);
}

void TelemetryRecorder::on_policy_action(const Disk& disk,
                                         PolicyDecision decision,
                                         SimTime predicted_idle, Rpm rpm) {
  if (!wants(TraceLevel::kState)) return;
  record(disk.sim().now(), TraceEventKind::kPolicyAction, disk_id(disk),
         static_cast<std::uint32_t>(decision),
         static_cast<std::uint64_t>(predicted_idle.count()),
         static_cast<std::uint64_t>(rpm));
}

void TelemetryRecorder::on_idle_observed(const Disk& disk, SimTime predicted,
                                         SimTime actual) {
  if (!wants(TraceLevel::kState)) return;
  record(disk.sim().now(), TraceEventKind::kIdleObserved, disk_id(disk), 0,
         static_cast<std::uint64_t>(predicted.count()),
         static_cast<std::uint64_t>(actual.count()));
}

void TelemetryRecorder::on_read(const IoNode& node, Bytes offset, Bytes size,
                                bool background) {
  if (!wants(TraceLevel::kRequest)) return;
  record(node.disk(0).sim().now(), TraceEventKind::kNodeRead,
         static_cast<std::uint16_t>(node.node_id()), background ? 1u : 0u,
         static_cast<std::uint64_t>(offset.count()), static_cast<std::uint64_t>(size.count()));
}

void TelemetryRecorder::on_write(const IoNode& node, Bytes offset, Bytes size) {
  if (!wants(TraceLevel::kRequest)) return;
  record(node.disk(0).sim().now(), TraceEventKind::kNodeWrite,
         static_cast<std::uint16_t>(node.node_id()), 0,
         static_cast<std::uint64_t>(offset.count()), static_cast<std::uint64_t>(size.count()));
}

void TelemetryRecorder::on_block_lookup(const IoNode& node, Bytes block,
                                        bool hit) {
  if (!wants(TraceLevel::kFull)) return;
  record(node.disk(0).sim().now(), TraceEventKind::kBlockLookup,
         static_cast<std::uint16_t>(node.node_id()), hit ? 1u : 0u,
         static_cast<std::uint64_t>(block.count()), 0);
}

void TelemetryRecorder::on_prefetch_issued(const IoNode& node, Bytes block) {
  if (!wants(TraceLevel::kFull)) return;
  record(node.disk(0).sim().now(), TraceEventKind::kPrefetchIssued,
         static_cast<std::uint16_t>(node.node_id()), 0,
         static_cast<std::uint64_t>(block.count()), 0);
}

void TelemetryRecorder::on_disk_ops_issued(const IoNode& node,
                                           std::size_t count) {
  if (!wants(TraceLevel::kFull)) return;
  record(node.disk(0).sim().now(), TraceEventKind::kDiskOpsIssued,
         static_cast<std::uint16_t>(node.node_id()), 0,
         static_cast<std::uint64_t>(count), 0);
}

void TelemetryRecorder::on_request_routed(FileId f, Bytes offset, Bytes size,
                                          bool is_write,
                                          std::span<const StripePiece> pieces) {
  if (!wants(TraceLevel::kFull)) return;
  const std::uint32_t aux =
      (is_write ? 1u : 0u) |
      (static_cast<std::uint32_t>(pieces.size() & 0x7fffffffu) << 1);
  record(sim_ != nullptr ? sim_->now() : 0, TraceEventKind::kRequestRouted,
         static_cast<std::uint16_t>(f), aux, static_cast<std::uint64_t>(offset.count()),
         static_cast<std::uint64_t>(size.count()));
}

void TelemetryRecorder::on_access_placed(const AccessRecord& rec, Slot slot,
                                         bool forced, bool theta_fallback) {
  if (!wants(TraceLevel::kFull)) return;
  const std::uint32_t aux = (forced ? 1u : 0u) | (theta_fallback ? 2u : 0u);
  const std::uint64_t packed =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(slot))) |
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(rec.original))
       << 32);
  // Placement happens at compile time, before the simulation clock starts.
  record(0, TraceEventKind::kAccessPlaced,
         static_cast<std::uint16_t>(rec.process), aux, packed,
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(rec.id)));
}

}  // namespace dasched
