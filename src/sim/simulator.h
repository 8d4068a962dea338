// Discrete-event simulation engine.
//
// A `Simulator` owns a priority queue of (time, sequence) events.  Events
// scheduled for the same instant fire in scheduling order, so the whole
// simulation is deterministic.  Events can be cancelled through the
// `EventHandle` returned by `schedule_at`/`schedule_after`.
//
// The hot path is allocation-lean: callbacks are stored in small-buffer
// `EventFn`s inside a pooled record array (recycled through a free list),
// and the event queue holds 24-byte POD entries.  The queue itself is the
// tiered `LadderQueue` (sim/ladder_queue.h).  With `reserve_events()` sized from the topology, nothing
// is heap allocated per event once the pool has warmed up.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "sim/event_fn.h"
#include "sim/ladder_queue.h"
#include "util/annotations.h"
#include "util/observer_list.h"
#include "util/units.h"

namespace dasched {

class Simulator;

/// Passive tap on the event engine, used by the invariant auditor
/// (src/check) and the telemetry recorder (src/telemetry).  All callbacks
/// default to no-ops; with nothing attached each hook site costs one empty
/// list test, so the hooks stay in release builds.  Multiple observers may
/// be attached at once (audit + telemetry compose).
class SimObserver {
 public:
  virtual ~SimObserver() = default;

  /// An event was scheduled for absolute time `t` while the clock read `now`.
  /// `t < now` is a contract violation (the engine clamps it to `now`).
  virtual void on_event_scheduled(std::uint64_t seq, SimTime t, SimTime now) {
    (void)seq, (void)t, (void)now;
  }

  /// An event is about to run.  `cancelled` is true only if the engine is
  /// violating its contract by running a cancelled event.
  virtual void on_event_fired(std::uint64_t seq, SimTime t, bool cancelled) {
    (void)seq, (void)t, (void)cancelled;
  }

  /// A cancelled event was popped and discarded without running.
  virtual void on_event_discarded(std::uint64_t seq) { (void)seq; }
};

/// Cancellation token for a scheduled event.  Copyable; all copies refer to
/// the same underlying event.  Cancelling an already-fired event is a no-op.
/// A handle refers into its simulator's event pool, so it must not be used
/// after the simulator is destroyed (every in-tree holder lives inside the
/// simulation stack, which is torn down before the simulator).
class EventHandle {
 public:
  EventHandle() = default;

  /// Prevents the event from firing.  Safe to call repeatedly.
  void cancel();

  /// True if the event has neither fired nor been cancelled.
  [[nodiscard]] bool pending() const;

 private:
  friend class Simulator;
  EventHandle(Simulator* sim, std::uint32_t slot, std::uint32_t gen)
      : sim_(sim), slot_(slot), gen_(gen) {}

  Simulator* sim_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

class Simulator {
 public:
  using Callback = EventFn;

  Simulator() = default;
  // Event handles and layer objects hold pointers/references to the
  // simulator, so it is pinned in place.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Pre-sizes the event queue, record pool and free list for `n`
  /// concurrently outstanding events.  Called by the driver with a
  /// topology-derived bound so the steady state performs zero queue/pool
  /// allocations (tests/sim/event_queue_alloc_test.cc).
  void reserve_events(std::size_t n) {
    // dasched-lint: allow(hot-alloc): grow-only warm-up (high-water-mark)
    queue_.reserve(n);
    // dasched-lint: allow(hot-alloc): grow-only warm-up (high-water-mark)
    records_.reserve(n);
    // dasched-lint: allow(hot-alloc): grow-only warm-up (high-water-mark)
    free_slots_.reserve(n);
  }

  /// Current simulated time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `cb` to run at absolute time `t` (>= now()).
  DASCHED_HOT EventHandle schedule_at(SimTime t, Callback cb);

  /// Schedules `cb` to run `delay` after the current time.
  DASCHED_HOT EventHandle schedule_after(SimTime delay, Callback cb);

  /// Runs until the event queue drains or `until` is reached (events at
  /// exactly `until` still run).  Returns the final simulated time.
  SimTime run(SimTime until = std::numeric_limits<SimTime>::max());

  /// Runs a single event; returns false if the queue is empty.
  DASCHED_HOT bool step();

  /// Restores the constructor postcondition — empty queue, zero clock, zero
  /// sequence counter — while keeping every capacity warm (queue tiers,
  /// record pool, free list) so the next run allocates nothing
  /// (tests/driver/workspace_alloc_test.cc).  Every pooled record's
  /// generation is bumped, so `EventHandle`s held across the reset by
  /// long-lived layers become inert instead of dangling.  Attached
  /// observers are preserved; pop order of the next run is unaffected by the recycled slot/generation values because
  /// event ordering depends only on (time, seq) keys.
  void reset();

  /// Number of events executed so far.
  [[nodiscard]] std::int64_t events_executed() const { return executed_; }

  /// True when no runnable events remain.
  [[nodiscard]] bool idle() const;

  /// Detaches every observer, then attaches `observer` (null = detach all).
  /// Not owned.  Legacy single-consumer entry point; see `add_observer`.
  void set_observer(SimObserver* observer) { observers_.reset(observer); }
  /// Adds one observer to the multiplexing list (audit and telemetry attach
  /// side by side).  Not owned; duplicates and null are ignored.
  void add_observer(SimObserver* observer) { observers_.add(observer); }
  void remove_observer(SimObserver* observer) { observers_.remove(observer); }
  [[nodiscard]] bool has_observers() const { return !observers_.empty(); }

 private:
  friend class EventHandle;

  /// Pooled per-event storage; `gen` distinguishes a live event from stale
  /// handles after the slot has been recycled.
  struct Record {
    EventFn cb;
    std::uint32_t gen = 0;
    bool cancelled = false;
  };

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  [[nodiscard]] bool slot_pending(std::uint32_t slot, std::uint32_t gen) const;
  void cancel_slot(std::uint32_t slot, std::uint32_t gen);

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::int64_t executed_ = 0;
  ObserverList<SimObserver> observers_;
  std::vector<Record> records_;
  std::vector<std::uint32_t> free_slots_;
  LadderQueue queue_;
};

}  // namespace dasched
