#include "sim/simulator.h"

#include <cassert>
#include <utility>

namespace dasched {

void EventHandle::cancel() {
  if (sim_ != nullptr) sim_->cancel_slot(slot_, gen_);
}

bool EventHandle::pending() const {
  return sim_ != nullptr && sim_->slot_pending(slot_, gen_);
}

std::uint32_t Simulator::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  // dasched-lint: allow(hot-alloc): event-pool growth; slots recycle
  // through free_slots_, so steady state allocates nothing.
  records_.emplace_back();
  return static_cast<std::uint32_t>(records_.size() - 1);
}

void Simulator::release_slot(std::uint32_t slot) {
  Record& rec = records_[slot];
  rec.cb = EventFn();
  rec.cancelled = false;
  // The generation bump turns every outstanding handle to this slot stale,
  // which is exactly the fired/cancelled = "no longer pending" semantics.
  ++rec.gen;
  // dasched-lint: allow(hot-alloc): free-list capacity is bounded by the
  // pool high-water mark.
  free_slots_.push_back(slot);
}

bool Simulator::slot_pending(std::uint32_t slot, std::uint32_t gen) const {
  const Record& rec = records_[slot];
  return rec.gen == gen && !rec.cancelled;
}

void Simulator::cancel_slot(std::uint32_t slot, std::uint32_t gen) {
  Record& rec = records_[slot];
  if (rec.gen == gen) rec.cancelled = true;
}

EventHandle Simulator::schedule_at(SimTime t, Callback cb) {
  const std::uint64_t seq = next_seq_++;
  observers_.notify(
      [&](SimObserver* o) { o->on_event_scheduled(seq, t, now_); });
  // Under audit the violation is recorded instead of aborting; either way the
  // clock must never be dragged backwards by a past-dated event.
  assert((t >= now_ || !observers_.empty()) &&
         "cannot schedule an event in the past");
  if (t < now_) t = now_;
  const std::uint32_t slot = acquire_slot();
  Record& rec = records_[slot];
  rec.cb = std::move(cb);
  queue_.push(QueuedEvent{t, seq, slot});
  return EventHandle{this, slot, rec.gen};
}

EventHandle Simulator::schedule_after(SimTime delay, Callback cb) {
  return schedule_at(now_ + delay, std::move(cb));
}

bool Simulator::step() {
  while (!queue_.empty()) {
    const QueuedEvent ev = queue_.top();
    queue_.pop();
    Record& rec = records_[ev.slot];
    if (rec.cancelled) {
      observers_.notify([&](SimObserver* o) { o->on_event_discarded(ev.seq); });
      release_slot(ev.slot);
      continue;
    }
    observers_.notify(
        [&](SimObserver* o) { o->on_event_fired(ev.seq, ev.time, false); });
    now_ = ev.time;
    // Move the callback out and recycle the slot before invoking: the
    // callback may schedule new events (reusing this slot) or cancel others,
    // and records_ may grow, so no reference into the pool survives the call.
    EventFn cb = std::move(rec.cb);
    release_slot(ev.slot);
    ++executed_;
    cb();
    return true;
  }
  return false;
}

SimTime Simulator::run(SimTime until) {
  while (!queue_.empty()) {
    if (queue_.top().time > until) {
      now_ = until;
      return now_;
    }
    step();
  }
  return now_;
}

void Simulator::reset() {
  queue_.clear();
  // Rebuild the free list over the whole pool.  Descending order so the
  // next run acquires slot 0 first — not required for correctness (slot
  // indices never affect event ordering), but it keeps reuse maximally
  // fresh-like for debugging.  Bumping every generation neutralizes any
  // EventHandle a layer object kept across the reset.
  free_slots_.clear();
  for (std::size_t i = records_.size(); i-- > 0;) {
    Record& rec = records_[i];
    rec.cb = EventFn();
    rec.cancelled = false;
    ++rec.gen;
    // dasched-lint: allow(hot-alloc): free_slots_ capacity already matches
    // records_ (release_slot keeps them in lock step), so this never grows.
    free_slots_.push_back(static_cast<std::uint32_t>(i));
  }
  now_ = 0;
  next_seq_ = 0;
  executed_ = 0;
}

bool Simulator::idle() const {
  // Cancelled events may still sit in the queue; they do not count as work,
  // but scanning the queue would be O(n).  A conservative "false" when only
  // cancelled events remain is acceptable for all callers (run() skips them).
  return queue_.empty();
}

}  // namespace dasched
