// The client-side global prefetch buffer (Sec. III).
//
// Prefetched data are "stored in a global buffer collectively managed by all
// scheduler threads in the client side".  Entries are keyed by access id —
// each prefetch serves exactly one scheduled future read.  On an application
// hit the entry is invalidated immediately to make space for subsequent
// prefetches; when the buffer is full, scheduler threads stop fetching and
// resume when space frees up.  A space waiter names the entry it is parked
// on, so a release wakes only the waiters whose retry could succeed.
//
// Access ids are the dense indices of the compiled program's read sites, so
// the buffer is a flat id-indexed table rather than a hash map, and the
// waiter callbacks live in a pooled node arena (EventFn, so captures up to
// the inline budget never touch the heap).  After a warm-up run through a
// workspace the buffer performs zero allocations.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/event_fn.h"
#include "util/units.h"

namespace dasched {

enum class BufferEntryState { kAbsent, kInFlight, kReady, kDone };

struct BufferStats {
  std::int64_t reservations = 0;
  /// try_reserve calls that found the buffer full.  A parked space waiter
  /// that a release cannot satisfy is not retried, so this counts real
  /// failed reservations, not wakeups.
  std::int64_t full_rejections = 0;
  std::int64_t consumed = 0;
  /// Application reads that arrived while the prefetch was still in flight.
  std::int64_t consumed_in_flight = 0;
  /// Prefetches that landed after the application had already fetched the
  /// data itself (wasted work).
  std::int64_t wasted = 0;
  Bytes peak_bytes = 0;
};

class GlobalBuffer {
 public:
  explicit GlobalBuffer(Bytes capacity) : capacity_(capacity) {}

  GlobalBuffer(const GlobalBuffer&) = delete;
  GlobalBuffer& operator=(const GlobalBuffer&) = delete;

  /// Restores the buffer to its fresh state for ids in [0, num_ids).  The
  /// slot table and waiter arena keep their high-water-mark capacity (the
  /// table only grows), so a workspace rerun over the same program allocates
  /// nothing here.
  void reset(Bytes capacity, std::size_t num_ids);

  /// Reserves space for a prefetch; false when the buffer is full.  In-flight
  /// data counts against capacity.
  bool try_reserve(int access_id, Bytes size);

  /// The prefetch completed; wakes any application read waiting on it.
  void mark_ready(int access_id);

  /// The application consumed the entry (hit): frees the bytes and wakes
  /// the space waiters that can now make progress.
  void consume(int access_id);

  /// The application handled this access itself (prefetch never issued or
  /// arrived too late to be useful); scheduler threads must skip it.  If a
  /// prefetch for it is still in flight, its bytes are reclaimed when it
  /// lands (see mark_ready).
  void mark_done(int access_id);

  [[nodiscard]] BufferEntryState state(int access_id) const;
  [[nodiscard]] bool is_done(int access_id) const {
    const auto i = static_cast<std::size_t>(access_id);
    return i < slots_.size() && slots_[i].done;
  }

  /// Fires `cb` once when the in-flight entry becomes ready.
  void wait_ready(int access_id, EventFn cb);

  /// Fires `cb` once at the first space release after which a retry of
  /// `try_reserve(access_id, size)` could do something other than fail
  /// again: the entry was reserved or handled (done) meanwhile, or the free
  /// bytes now cover `size`.  Releases that cannot satisfy it leave the
  /// waiter parked without invoking it, in unchanged FIFO order relative to
  /// the other waiters.
  void wait_space(int access_id, Bytes size, EventFn cb);

  /// Space waiters currently parked.
  [[nodiscard]] int space_waiters() const;

  [[nodiscard]] Bytes used() const { return used_; }
  [[nodiscard]] Bytes capacity() const { return capacity_; }
  [[nodiscard]] const BufferStats& stats() const { return stats_; }

 private:
  static constexpr std::int32_t kNil = -1;

  struct Slot {
    BufferEntryState state = BufferEntryState::kAbsent;
    bool done = false;
    Bytes size = 0;
    /// FIFO chain of ready-waiters through the shared node arena.
    std::int32_t waiter_head = kNil;
    std::int32_t waiter_tail = kNil;
  };

  struct WaiterNode {
    EventFn fn;
    std::int32_t next = kNil;
    /// Space waiters only: the entry the waiter retries and its size.
    std::int32_t access_id = kNil;
    Bytes size = 0;
  };

  /// Grows the slot table to cover `access_id` (tests drive the buffer
  /// directly with ad-hoc ids; the cluster pre-sizes via reset()).
  Slot& slot_for(int access_id);
  [[nodiscard]] std::int32_t alloc_node(EventFn fn);
  void free_node(std::int32_t idx);
  void append(std::int32_t& head, std::int32_t& tail, std::int32_t node);
  /// Detaches and fires a waiter chain in FIFO order.  Callbacks may re-enter
  /// the buffer (reserve, wait, consume); the chain is unlinked first so
  /// re-entry can never corrupt the walk.
  void fire_chain(std::int32_t head);
  /// After a release: detaches the space chain and fires, in FIFO order,
  /// every waiter whose retry could succeed; the others (entry still absent
  /// and not done, larger than the free bytes) are re-linked in walk order,
  /// exactly where a failed retry would have re-parked them.
  void wake_space_waiters();

  Bytes capacity_;
  Bytes used_ = 0;
  std::vector<Slot> slots_;
  std::vector<WaiterNode> arena_;
  std::int32_t free_head_ = kNil;
  std::int32_t space_head_ = kNil;
  std::int32_t space_tail_ = kNil;
  BufferStats stats_;
};

}  // namespace dasched
