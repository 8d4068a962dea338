// The classic binary heap over (time, seq), kept as the oracle for the
// ladder queue's differential test (queue_differential_test.cc).
//
// Every event key is unique, so any correct priority queue pops exactly one
// sequence; this heap is the simplest correct one.  The production engine
// runs only on `LadderQueue` (sim/ladder_queue.h).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "sim/ladder_queue.h"

namespace dasched {

/// The classic binary heap over (time, seq), on a reservable flat vector.
class BinaryHeapQueue {
 public:
  void reserve(std::size_t n) { heap_.reserve(n); }
  /// Drops every entry, keeping the backing capacity warm.
  void clear() { heap_.clear(); }
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  [[nodiscard]] const QueuedEvent& top() const { return heap_.front(); }

  void push(const QueuedEvent& e) {
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  void pop() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }

 private:
  /// `a` fires later than `b`: the max-heap on "later" is a min-queue.
  struct Later {
    bool operator()(const QueuedEvent& a, const QueuedEvent& b) const {
      return event_before(b, a);
    }
  };
  std::vector<QueuedEvent> heap_;
};

}  // namespace dasched
