#include "io/cluster.h"

#include <algorithm>
#include <cassert>

namespace dasched {

namespace {
/// `v[i]` for a signed index the caller has range-checked.
int at(const std::vector<int>& v, std::int64_t i) {
  return v[static_cast<std::size_t>(i)];
}
}  // namespace

// ---------------------------------------------------------------------------
// ClientProcess
// ---------------------------------------------------------------------------

ClientProcess::ClientProcess(Cluster& cluster, int pid)
    : cluster_(cluster), pid_(pid) {}

void ClientProcess::start() { begin_slot(); }

void ClientProcess::reset() {
  current_ = 0;
  completed_ = 0;
  finished_ = false;
  finish_time_ = 0;
  waiters_.clear();
  ready_scratch_.clear();
}

void ClientProcess::subscribe_progress(Slot needed, std::function<void()> cb) {
  if (completed_ >= needed || finished_) {
    cb();
    return;
  }
  waiters_.emplace_back(needed, std::move(cb));
}

void ClientProcess::begin_slot() {
  const auto& slots =
      cluster_.compiled().program.processes[static_cast<std::size_t>(pid_)].slots;

  // Fast-forward through empty padding slots iteratively (no recursion).
  while (current_ < static_cast<Slot>(slots.size())) {
    const SlotPlan& plan = slots[static_cast<std::size_t>(current_)];
    if (!plan.ops.empty() || plan.compute > 0) break;
    finish_slot();
  }
  if (current_ >= static_cast<Slot>(slots.size())) {
    finished_ = true;
    finish_time_ = cluster_.sim().now();
    // Release anyone still waiting on this process's progress.  With
    // `finished_` already set, a re-entrant subscribe_progress fires its
    // callback immediately instead of appending, so iterating in place is
    // safe — and clear() keeps the vector's capacity for the next run.
    for (auto& [needed, cb] : waiters_) cb();
    waiters_.clear();
    return;
  }

  const SlotPlan& plan = slots[static_cast<std::size_t>(current_)];
  if (!plan.ops.empty()) {
    run_op(0);
  } else {
    after_ops();
  }
}

void ClientProcess::run_op(std::size_t op_index) {
  const SlotPlan& plan =
      cluster_.compiled()
          .program.processes[static_cast<std::size_t>(pid_)]
          .slots[static_cast<std::size_t>(current_)];
  const IoOp& op = plan.ops[op_index];
  RuntimeStats& stats = cluster_.mutable_stats();

  if (op.is_write) {
    stats.writes += 1;
    cluster_.storage().write(op.file, op.offset, op.size,
                             [this, op_index] { op_done(op_index); });
    return;
  }

  if (cluster_.config().use_runtime_scheduler) {
    const int id = cluster_.access_id_at(pid_, current_, static_cast<int>(op_index));
    assert(id >= 0);
    GlobalBuffer& buffer = cluster_.buffer();
    switch (buffer.state(id)) {
      case BufferEntryState::kReady: {
        buffer.consume(id);
        stats.buffer_hits += 1;
        cluster_.sim().schedule_after(cluster_.config().buffer_hit_latency,
                                      [this, op_index] { op_done(op_index); });
        return;
      }
      case BufferEntryState::kInFlight: {
        stats.in_flight_hits += 1;
        buffer.wait_ready(id, [this, id, op_index] {
          cluster_.buffer().consume(id);
          cluster_.sim().schedule_after(cluster_.config().buffer_hit_latency,
                                        [this, op_index] { op_done(op_index); });
        });
        return;
      }
      case BufferEntryState::kAbsent:
      case BufferEntryState::kDone:
        buffer.mark_done(id);  // the scheduler must not fetch it anymore
        break;
    }
  }

  stats.direct_reads += 1;
  cluster_.storage().read(op.file, op.offset, op.size,
                          [this, op_index] { op_done(op_index); });
}

void ClientProcess::op_done(std::size_t op_index) {
  const SlotPlan& plan =
      cluster_.compiled()
          .program.processes[static_cast<std::size_t>(pid_)]
          .slots[static_cast<std::size_t>(current_)];
  if (op_index + 1 < plan.ops.size()) {
    run_op(op_index + 1);
  } else {
    after_ops();
  }
}

void ClientProcess::after_ops() {
  const SlotPlan& plan =
      cluster_.compiled()
          .program.processes[static_cast<std::size_t>(pid_)]
          .slots[static_cast<std::size_t>(current_)];
  if (plan.compute > 0) {
    cluster_.sim().schedule_after(plan.compute, [this] {
      finish_slot();
      begin_slot();
    });
  } else {
    finish_slot();
    begin_slot();
  }
}

void ClientProcess::finish_slot() {
  completed_ = ++current_;
  // Fire matured progress subscriptions.  The staging vector is swapped out
  // of a member so its storage is reused run after run; taking it by value
  // keeps a (hypothetical) re-entrant finish_slot from clobbering the walk.
  std::vector<std::function<void()>> ready = std::move(ready_scratch_);
  ready.clear();
  std::erase_if(waiters_, [this, &ready](auto& w) {
    if (w.first <= completed_) {
      ready.push_back(std::move(w.second));
      return true;
    }
    return false;
  });
  for (auto& cb : ready) cb();
  ready.clear();
  ready_scratch_ = std::move(ready);
  // GlobalBuffer skips space waiters on the strength of this (DESIGN.md §18).
  assert(!cluster_.config().use_runtime_scheduler ||
         cluster_.scheduler(pid_).cursor_entry_consistent());
}

// ---------------------------------------------------------------------------
// SchedulerThread
// ---------------------------------------------------------------------------

SchedulerThread::SchedulerThread(Cluster& cluster, int pid)
    : cluster_(cluster), pid_(pid) {}

void SchedulerThread::reset() {
  cursor_ = 0;
  fetches_in_flight_ = 0;
  registrations_.clear();
  next_token_ = 0;
  kicks_ = 0;
}

void SchedulerThread::park(WaitKey key, int access_id, Bytes size) {
  // A second registration for the same condition would fire right after the
  // first, in the same walk, find nothing changed and register yet another
  // copy: the wakeup storm.
  for (const Registration& r : registrations_) {
    if (r.key == key) return;
  }
  const std::uint32_t token = next_token_++;
  registrations_.push_back({key, token});
  auto fire = [this, token] { wake(token); };
  if (key.space) {
    cluster_.buffer().wait_space(access_id, size, fire);
  } else {
    cluster_.client(key.process).subscribe_progress(key.slot, fire);
  }
}

void SchedulerThread::wake(std::uint32_t token) {
  const auto it = std::find_if(
      registrations_.begin(), registrations_.end(),
      [token](const Registration& r) { return r.token == token; });
  assert(it != registrations_.end());
  registrations_.erase(it);
  kick();
}

bool SchedulerThread::cursor_entry_consistent() const {
  const auto& entries = cluster_.compiled().table.entries(pid_);
  if (cursor_ >= entries.size()) return true;
  const AccessRecord& rec = entries[cursor_].rec;
  return cluster_.client(pid_).local_time() <= rec.original ||
         cluster_.buffer().state(rec.id) != BufferEntryState::kAbsent;
}

void SchedulerThread::kick() {
  ++kicks_;
  if (fetches_in_flight_ >= cluster_.config().scheduler_fetch_depth) return;
  const auto& entries = cluster_.compiled().table.entries(pid_);
  ClientProcess& owner = cluster_.client(pid_);
  GlobalBuffer& buffer = cluster_.buffer();
  RuntimeStats& stats = cluster_.mutable_stats();

  while (cursor_ < entries.size()) {
    const TableEntry& e = entries[cursor_];
    const int id = e.rec.id;

    if (buffer.is_done(id) || buffer.state(id) != BufferEntryState::kAbsent) {
      ++cursor_;
      continue;
    }
    // Only fetch accesses hoisted far enough ahead of their original point.
    if (e.rec.original - e.slot <= cluster_.config().min_lead) {
      stats.skipped_min_lead += 1;
      ++cursor_;
      continue;
    }
    // Wait until this process reaches the scheduled slot.
    if (e.slot > owner.local_time() && !owner.finished()) {
      park({false, pid_, e.slot});
      return;
    }
    // If the application has already passed the original point there is no
    // one left to serve; skip.
    if (owner.local_time() > e.rec.original) {
      buffer.mark_done(id);
      ++cursor_;
      continue;
    }
    // Local-time protocol: never run ahead of the producing process.
    if (e.rec.writer_process >= 0 && e.rec.writer_process != pid_) {
      ClientProcess& writer = cluster_.client(e.rec.writer_process);
      if (writer.local_time() <= e.rec.writer_slot && !writer.finished()) {
        park({false, e.rec.writer_process, e.rec.writer_slot + 1});
        return;
      }
    }
    const IoOp& op = cluster_.op_for(id);
    if (!buffer.try_reserve(id, op.size)) {
      park({true, -1, 0}, id, op.size);
      return;
    }
    stats.prefetches += 1;
    fetches_in_flight_ += 1;
    ++cursor_;
    cluster_.storage().read(
        op.file, op.offset, op.size,
        [this, id] {
          cluster_.buffer().mark_ready(id);
          fetches_in_flight_ -= 1;
          kick();
        });
    if (fetches_in_flight_ >= cluster_.config().scheduler_fetch_depth) return;
  }
}

// ---------------------------------------------------------------------------
// Cluster
// ---------------------------------------------------------------------------

Cluster::Cluster(Simulator& sim, StorageSystem& storage, const Compiled& compiled,
                 RuntimeConfig cfg)
    : sim_(sim),
      storage_(storage),
      compiled_(&compiled),
      cfg_(cfg),
      buffer_(cfg.buffer_capacity) {
  buffer_.reset(cfg_.buffer_capacity, compiled_->program.read_sites.size());
  const int nproc = compiled_->program.num_processes();
  for (int p = 0; p < nproc; ++p) {
    clients_.push_back(std::make_unique<ClientProcess>(*this, p));
  }
  if (cfg_.use_runtime_scheduler) {
    for (int p = 0; p < nproc; ++p) {
      schedulers_.push_back(std::make_unique<SchedulerThread>(*this, p));
    }
  }
  rebuild_site_index();
}

void Cluster::rebuild_site_index() {
  process_first_slot_.clear();
  slot_first_op_.clear();
  op_access_ids_.clear();
  for (const ProcessPlan& plan : compiled_->program.processes) {
    process_first_slot_.push_back(static_cast<int>(slot_first_op_.size()));
    for (const SlotPlan& slot : plan.slots) {
      slot_first_op_.push_back(static_cast<int>(op_access_ids_.size()));
      op_access_ids_.insert(op_access_ids_.end(), slot.ops.size(), -1);
    }
  }
  process_first_slot_.push_back(static_cast<int>(slot_first_op_.size()));
  slot_first_op_.push_back(static_cast<int>(op_access_ids_.size()));
  const auto& sites = compiled_->program.read_sites;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    const ReadSite& site = sites[i];
    const int first_op =
        at(slot_first_op_, at(process_first_slot_, site.process) + site.slot);
    op_access_ids_[static_cast<std::size_t>(first_op + site.op_index)] =
        static_cast<int>(i);
  }
}

void Cluster::reset(const Compiled& compiled, RuntimeConfig cfg) {
  // The read-site index is rebuilt only when the driver hands over a
  // different compiled object; workspace reruns over a cached compile keep
  // the same address and skip it.
  const bool same_compiled = compiled_ == &compiled;
  compiled_ = &compiled;
  cfg_ = cfg;
  buffer_.reset(cfg_.buffer_capacity, compiled_->program.read_sites.size());
  const int nproc = compiled_->program.num_processes();
  if (static_cast<int>(clients_.size()) != nproc) {
    clients_.clear();
    for (int p = 0; p < nproc; ++p) {
      clients_.push_back(std::make_unique<ClientProcess>(*this, p));
    }
  } else {
    for (auto& c : clients_) c->reset();
  }
  const std::size_t nsched =
      cfg_.use_runtime_scheduler ? static_cast<std::size_t>(nproc) : 0;
  if (schedulers_.size() != nsched) {
    schedulers_.clear();
    for (std::size_t p = 0; p < nsched; ++p) {
      schedulers_.push_back(
          std::make_unique<SchedulerThread>(*this, static_cast<int>(p)));
    }
  } else {
    for (auto& s : schedulers_) s->reset();
  }
  if (!same_compiled) rebuild_site_index();
  stats_ = RuntimeStats{};
  started_ = false;
}

void Cluster::start() {
  started_ = true;
  for (auto& c : clients_) c->start();
  for (auto& s : schedulers_) s->kick();
}

SimTime Cluster::run_to_completion() {
  if (!started_) start();
  while (!all_finished() && sim_.step()) {
  }
  return exec_time();
}

bool Cluster::all_finished() const {
  return std::all_of(clients_.begin(), clients_.end(),
                     [](const auto& c) { return c->finished(); });
}

SimTime Cluster::exec_time() const {
  SimTime t = 0;
  for (const auto& c : clients_) t = std::max(t, c->finish_time());
  return t;
}

RuntimeStats Cluster::stats() const {
  RuntimeStats out = stats_;
  out.buffer = buffer_.stats();
  return out;
}

std::int64_t Cluster::kicks() const {
  std::int64_t n = 0;
  for (const auto& s : schedulers_) n += s->kicks();
  return n;
}

int Cluster::access_id_at(int process, Slot slot, int op_index) const {
  const auto nproc = static_cast<int>(process_first_slot_.size()) - 1;
  if (process < 0 || process >= nproc) return -1;
  const int first_slot = at(process_first_slot_, process);
  const int num_slots = at(process_first_slot_, process + 1) - first_slot;
  if (slot < 0 || slot >= num_slots) return -1;
  const int first_op = at(slot_first_op_, first_slot + slot);
  const int num_ops = at(slot_first_op_, first_slot + slot + 1) - first_op;
  if (op_index < 0 || op_index >= num_ops) return -1;
  return at(op_access_ids_, first_op + op_index);
}

const IoOp& Cluster::op_for(int access_id) const {
  const ReadSite& site =
      compiled_->program.read_sites[static_cast<std::size_t>(access_id)];
  return compiled_->program.processes[static_cast<std::size_t>(site.process)]
      .slots[static_cast<std::size_t>(site.slot)]
      .ops[static_cast<std::size_t>(site.op_index)];
}

}  // namespace dasched
