#include "io/global_buffer.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace dasched {

void GlobalBuffer::reset(Bytes capacity, std::size_t num_ids) {
  capacity_ = capacity;
  used_ = 0;
  stats_ = BufferStats{};
  if (slots_.size() < num_ids) slots_.resize(num_ids);
  std::fill(slots_.begin(), slots_.end(), Slot{});
  space_head_ = kNil;
  space_tail_ = kNil;
  // Rebuild the free list over the whole arena (descending, so node 0 is
  // handed out first — indistinguishable from a fresh buffer either way:
  // waiter order is carried by the chain links, never by node indices).
  free_head_ = kNil;
  for (std::size_t i = arena_.size(); i-- > 0;) {
    arena_[i].fn = EventFn();
    arena_[i].next = free_head_;
    free_head_ = static_cast<std::int32_t>(i);
  }
}

GlobalBuffer::Slot& GlobalBuffer::slot_for(int access_id) {
  assert(access_id >= 0);
  const auto i = static_cast<std::size_t>(access_id);
  if (i >= slots_.size()) {
    // dasched-lint: allow(hot-alloc): one-time growth; the cluster pre-sizes
    // the table via reset() so steady-state runs never land here.
    slots_.resize(i + 1);
  }
  return slots_[i];
}

std::int32_t GlobalBuffer::alloc_node(EventFn fn) {
  std::int32_t idx = free_head_;
  if (idx != kNil) {
    free_head_ = arena_[static_cast<std::size_t>(idx)].next;
  } else {
    idx = static_cast<std::int32_t>(arena_.size());
    // dasched-lint: allow(hot-alloc): arena warm-up; reset() recycles every
    // node, so repeat runs reuse this high-water-mark pool.
    arena_.emplace_back();
  }
  WaiterNode& n = arena_[static_cast<std::size_t>(idx)];
  n.fn = std::move(fn);
  n.next = kNil;
  return idx;
}

void GlobalBuffer::free_node(std::int32_t idx) {
  WaiterNode& n = arena_[static_cast<std::size_t>(idx)];
  n.fn = EventFn();
  n.next = free_head_;
  free_head_ = idx;
}

void GlobalBuffer::append(std::int32_t& head, std::int32_t& tail,
                          std::int32_t node) {
  if (head == kNil) {
    head = node;
  } else {
    arena_[static_cast<std::size_t>(tail)].next = node;
  }
  tail = node;
}

void GlobalBuffer::fire_chain(std::int32_t head) {
  while (head != kNil) {
    WaiterNode& n = arena_[static_cast<std::size_t>(head)];
    const std::int32_t next = n.next;
    EventFn fn = std::move(n.fn);
    // Free before invoking: the callback may enqueue new waiters, and they
    // may reuse this node (fn was moved out; `n` must not be touched after
    // the callback — a re-entrant wait can grow the arena).
    free_node(head);
    head = next;
    fn();
  }
}

void GlobalBuffer::wake_space_waiters() {
  std::int32_t head = space_head_;
  space_head_ = kNil;
  space_tail_ = kNil;
  while (head != kNil) {
    WaiterNode& n = arena_[static_cast<std::size_t>(head)];
    const std::int32_t next = n.next;
    if (state(n.access_id) == BufferEntryState::kAbsent &&
        used_ + n.size > capacity_) {
      // Invoked now, the waiter would fail try_reserve and park again at
      // the tail of the chain being rebuilt; re-link the node there instead.
      n.next = kNil;
      append(space_head_, space_tail_, head);
      head = next;
      continue;
    }
    EventFn fn = std::move(n.fn);
    free_node(head);
    head = next;
    fn();
  }
}

bool GlobalBuffer::try_reserve(int access_id, Bytes size) {
  Slot& s = slot_for(access_id);
  assert(s.state == BufferEntryState::kAbsent);
  if (used_ + size > capacity_) {
    stats_.full_rejections += 1;
    return false;
  }
  used_ += size;
  stats_.reservations += 1;
  stats_.peak_bytes = std::max(stats_.peak_bytes, used_);
  s.state = BufferEntryState::kInFlight;
  s.size = size;
  return true;
}

void GlobalBuffer::mark_ready(int access_id) {
  Slot& s = slot_for(access_id);
  if (s.state == BufferEntryState::kAbsent) return;  // consumed in flight
  if (s.done) {
    // The application overtook the prefetch with its own demand read; the
    // landed data is useless — reclaim the space.
    used_ -= s.size;
    s.state = BufferEntryState::kAbsent;
    s.size = 0;
    stats_.wasted += 1;
    // No one can be waiting on an overtaken entry, but recycle defensively.
    const std::int32_t orphans = s.waiter_head;
    s.waiter_head = kNil;
    s.waiter_tail = kNil;
    for (std::int32_t i = orphans; i != kNil;) {
      const std::int32_t next = arena_[static_cast<std::size_t>(i)].next;
      free_node(i);
      i = next;
    }
    wake_space_waiters();
    return;
  }
  s.state = BufferEntryState::kReady;
  const std::int32_t head = s.waiter_head;
  s.waiter_head = kNil;
  s.waiter_tail = kNil;
  fire_chain(head);
}

void GlobalBuffer::consume(int access_id) {
  Slot& s = slot_for(access_id);
  assert(s.state == BufferEntryState::kReady);
  used_ -= s.size;
  s.state = BufferEntryState::kAbsent;
  s.size = 0;
  s.done = true;
  stats_.consumed += 1;
  wake_space_waiters();
}

void GlobalBuffer::mark_done(int access_id) { slot_for(access_id).done = true; }

BufferEntryState GlobalBuffer::state(int access_id) const {
  const auto i = static_cast<std::size_t>(access_id);
  if (i >= slots_.size()) return BufferEntryState::kAbsent;
  const Slot& s = slots_[i];
  if (s.state != BufferEntryState::kAbsent) return s.state;
  return s.done ? BufferEntryState::kDone : BufferEntryState::kAbsent;
}

void GlobalBuffer::wait_ready(int access_id, EventFn cb) {
  Slot& s = slot_for(access_id);
  assert(s.state == BufferEntryState::kInFlight);
  append(s.waiter_head, s.waiter_tail, alloc_node(std::move(cb)));
  stats_.consumed_in_flight += 1;
}

void GlobalBuffer::wait_space(int access_id, Bytes size, EventFn cb) {
  const std::int32_t node = alloc_node(std::move(cb));
  WaiterNode& n = arena_[static_cast<std::size_t>(node)];
  n.access_id = access_id;
  n.size = size;
  append(space_head_, space_tail_, node);
}

int GlobalBuffer::space_waiters() const {
  int count = 0;
  for (std::int32_t i = space_head_; i != kNil;
       i = arena_[static_cast<std::size_t>(i)].next) {
    ++count;
  }
  return count;
}

}  // namespace dasched
