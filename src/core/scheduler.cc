#include "core/scheduler.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>
#include <utility>

namespace dasched {

AccessScheduler::AccessScheduler(int num_io_nodes, Slot num_slots,
                                 ScheduleOptions opts)
    : num_nodes_(num_io_nodes),
      num_slots_(num_slots),
      opts_(opts),
      rng_(opts.seed),
      words_(Signature(num_io_nodes).num_words()),
      group_words_(static_cast<std::size_t>(num_slots) * words_, 0),
      group_pop_(static_cast<std::size_t>(num_slots), 0),
      sigma_(static_cast<std::size_t>(opts.delta) + 1),
      recip_(2 * static_cast<std::size_t>(num_io_nodes) + 1),
      inv_d_(static_cast<std::size_t>(num_slots), 0.0),
      run_end_(static_cast<std::size_t>(num_slots), 0) {
  assert(num_io_nodes > 0 && num_slots > 0);
  if (opts_.theta > 0) {
    node_counts_.assign(
        static_cast<std::size_t>(num_slots) * static_cast<std::size_t>(num_nodes_),
        0);
    saturated_.assign(static_cast<std::size_t>(num_slots),
                      Signature(num_io_nodes));
  }
  // σ table: the exact `weight()` values, computed once instead of one
  // division per window term.
  for (int j = 0; j <= opts_.delta; ++j) {
    sigma_[static_cast<std::size_t>(j)] = weight(j, opts_.delta);
  }
  // Reciprocal table over every reachable distance 0..2n: the same
  // quotients as dividing per slot.  The paper sets 1/d to 2 when the
  // distance is 0 (a perfect reuse of an identical active set).
  for (std::size_t d = 0; d < recip_.size(); ++d) {
    recip_[d] = d == 0 ? 2.0 : 1.0 / static_cast<double>(d);
  }
}

void AccessScheduler::reset() {
  std::fill(group_words_.begin(), group_words_.end(), 0);
  std::fill(group_pop_.begin(), group_pop_.end(), 0);
  std::fill(node_counts_.begin(), node_counts_.end(), 0);
  for (Signature& s : saturated_) s.clear();
  for (auto& rows : occupied_) std::fill(rows.begin(), rows.end(), 0);
  stats_ = ScheduleStats{};
  rng_.reseed(opts_.seed);
}

double AccessScheduler::weight(int outside_distance, int delta) {
  return 1.0 - static_cast<double>(outside_distance) /
                   static_cast<double>(delta + 1);
}

double AccessScheduler::reciprocal_distance(const AccessRecord& rec,
                                            Slot s) const {
  const int d = slot_distance(rec.sig, num_nodes_ + rec.sig.popcount(),
                              static_cast<std::size_t>(s));
  return recip_[static_cast<std::size_t>(d)];
}

double AccessScheduler::reuse_factor(const AccessRecord& rec, Slot slot) const {
  double total = 0.0;
  const int l = rec.length;
  for (int k = -opts_.delta; k <= l - 1 + opts_.delta; ++k) {
    const Slot s = slot + k;
    if (s < 0 || s >= num_slots_) continue;
    const int j = k < 0 ? -k : (k > l - 1 ? k - (l - 1) : 0);
    total += weight(j, opts_.delta) * reciprocal_distance(rec, s);
  }
  return total;
}

double AccessScheduler::reuse_factor_with_weights(
    const AccessRecord& rec, Slot slot, std::span<const double> sigma) const {
  double total = 0.0;
  const int l = rec.length;
  const int range = static_cast<int>(sigma.size()) - 1;
  for (int k = -range; k <= l - 1 + range; ++k) {
    const Slot s = slot + k;
    if (s < 0 || s >= num_slots_) continue;
    const int j = k < 0 ? -k : (k > l - 1 ? k - (l - 1) : 0);
    total += sigma[static_cast<std::size_t>(j)] * reciprocal_distance(rec, s);
  }
  return total;
}

int AccessScheduler::slot_distance(const Signature& sig, int base,
                                   std::size_t s) const {
  // n - |a∧g| + |a⊕g| with |a⊕g| = |a| + |g| - 2·|a∧g|: one popcount per
  // word against the cached |g|.
  const std::uint64_t* g = group_words_.data() + s * words_;
  int common = 0;
  for (std::size_t w = 0; w < words_; ++w) {
    common += popcount64(sig.word(w) & g[w]);
  }
  return base + group_pop_[s] - 3 * common;
}

void AccessScheduler::fill_distance_cache(const AccessRecord& rec,
                                          Slot span_lo, Slot span_hi) {
  assert(span_lo >= 0 && span_hi < num_slots_ && span_lo <= span_hi);
  // The walk runs right to left so the end of the current constant run
  // stays in a register; 1/d is injective, so equal distances are exactly
  // equal reciprocals.
  const auto fill = [&](auto&& distance_at) {
    int next_d = -1;
    Slot end = span_hi;
    for (Slot s = span_hi; s >= span_lo; --s) {
      const auto i = static_cast<std::size_t>(s);
      const int d = distance_at(i);
      end = d == next_d ? end : s;
      next_d = d;
      inv_d_[i] = recip_[static_cast<std::size_t>(d)];
      run_end_[i] = end;
    }
  };
  const int base = num_nodes_ + rec.sig.popcount();
  if (words_ == 1) {
    // Up to 64 I/O nodes (every Table II configuration): one flat word
    // per slot.
    const std::uint64_t a = rec.sig.word(0);
    fill([&](std::size_t i) {
      return base + group_pop_[i] - 3 * popcount64(a & group_words_[i]);
    });
  } else {
    fill([&](std::size_t i) { return slot_distance(rec.sig, base, i); });
  }
}

double AccessScheduler::cached_reuse_factor(const AccessRecord& rec,
                                            Slot slot) const {
  // Same term order and arithmetic as `reuse_factor`, with the distance
  // already cached per slot and σ read from the table — the sum is
  // bit-identical, only cheaper.
  double total = 0.0;
  const int l = rec.length;
  const Slot k_lo = std::max<Slot>(-opts_.delta, -slot);
  const Slot k_hi = std::min<Slot>(l - 1 + opts_.delta, num_slots_ - 1 - slot);
  for (Slot k = k_lo; k <= k_hi; ++k) {
    const int j = k < 0 ? static_cast<int>(-k)
                        : (k > l - 1 ? static_cast<int>(k) - (l - 1) : 0);
    total += sigma_[static_cast<std::size_t>(j)] *
             inv_d_[static_cast<std::size_t>(slot + k)];
  }
  return total;
}

void AccessScheduler::evaluate_candidates(const AccessRecord& rec) {
  const int delta = opts_.delta;
  const int l = rec.length;
  const auto width = static_cast<std::size_t>(l + 2 * delta);
  // dasched-lint: allow(hot-alloc): window scratch keeps its capacity; it
  // grows only for the longest access of the first batch.
  window_w_.resize(width);
  for (std::size_t m = 0; m < width; ++m) {
    const int k = static_cast<int>(m) - delta;
    const int j = k < 0 ? -k : (k > l - 1 ? k - (l - 1) : 0);
    window_w_[m] = sigma_[static_cast<std::size_t>(j)];
  }

  // Constant-run memo: when a candidate's whole σ window is interior and
  // falls inside one constant run of 1/d, its sum is the exact same
  // float-operation sequence as the previous such candidate's — reuse the
  // result in O(1).  (A general prefix-sum slide would reassociate the
  // sum and break bit-identical tie behavior; see DESIGN.md §11.)
  bool have_const = false;
  double const_val = 0.0;
  double const_reuse = 0.0;
  std::size_t lanes[kLanes];
  std::size_t pending = 0;
  for (std::size_t i = 0; i < candidates_.size(); ++i) {
    Candidate& c = candidates_[i];
    const Slot wlo = c.slot - delta;
    const Slot whi = c.slot + l - 1 + delta;
    if (wlo < 0 || whi >= num_slots_) {
      c.reuse = cached_reuse_factor(rec, c.slot);
    } else if (run_end_[static_cast<std::size_t>(wlo)] >= whi) {
      const double v = inv_d_[static_cast<std::size_t>(wlo)];
      if (!have_const || v != const_val) {
        const_val = v;
        const_reuse = cached_reuse_factor(rec, c.slot);
        have_const = true;
      }
      c.reuse = const_reuse;
    } else {
      lanes[pending++] = i;
      if (pending == kLanes) {
        sum_lanes(lanes, pending);
        pending = 0;
      }
    }
  }
  if (pending > 0) sum_lanes(lanes, pending);
}

void AccessScheduler::sum_lanes(const std::size_t* lanes, std::size_t count) {
  // Each lane adds its own window's terms left to right, exactly as
  // `cached_reuse_factor` does; only independent chains are interleaved,
  // so every sum is bit-identical.  Unused lanes repeat the last real one.
  const double* x[kLanes];
  for (std::size_t c = 0; c < kLanes; ++c) {
    const Candidate& cand = candidates_[lanes[c < count ? c : count - 1]];
    x[c] = inv_d_.data() + (cand.slot - opts_.delta);
  }
  double acc[kLanes] = {};
  const std::size_t width = window_w_.size();
  for (std::size_t m = 0; m < width; ++m) {
    const double w = window_w_[m];
    for (std::size_t c = 0; c < kLanes; ++c) acc[c] += w * x[c][m];
  }
  for (std::size_t c = 0; c < count; ++c) {
    candidates_[lanes[c]].reuse = acc[c];
  }
}

void AccessScheduler::ensure_process(int process) {
  if (static_cast<std::size_t>(process) >= occupied_.size()) {
    // dasched-lint: allow(hot-alloc): warm-up growth; rows persist and are
    // reused across schedule calls.
    occupied_.resize(static_cast<std::size_t>(process) + 1);
  }
  auto& rows = occupied_[static_cast<std::size_t>(process)];
  if (rows.empty()) rows.assign(static_cast<std::size_t>(num_slots_), 0);
}

bool AccessScheduler::available(int process, Slot slot, int length) const {
  if (slot < 0 || slot + length > num_slots_) return false;
  if (static_cast<std::size_t>(process) >= occupied_.size()) return true;
  const auto& rows = occupied_[static_cast<std::size_t>(process)];
  if (rows.empty()) return true;
  for (int k = 0; k < length; ++k) {
    if (rows[static_cast<std::size_t>(slot + k)]) return false;
  }
  return true;
}

bool AccessScheduler::theta_ok(const AccessRecord& rec, Slot slot) const {
  if (opts_.theta <= 0) return true;
  // A node violates the cap iff its count has already reached θ, i.e. iff
  // its bit is set in the slot's saturated mask: one signature-AND per
  // occupied slot replaces the per-node counter rescan.
  for (int k = 0; k < rec.length; ++k) {
    const Slot s = slot + k;
    if (s < 0 || s >= num_slots_) continue;
    if (intersects(rec.sig, saturated_[static_cast<std::size_t>(s)])) {
      return false;
    }
  }
  return true;
}

double AccessScheduler::average_excess(const AccessRecord& rec, Slot slot) const {
  if (opts_.theta <= 0) return 0.0;
  std::int64_t excess = 0;
  std::int64_t oversubscribed = 0;
  for (int k = 0; k < rec.length; ++k) {
    const Slot s = slot + k;
    if (s < 0 || s >= num_slots_) continue;
    const std::size_t base =
        static_cast<std::size_t>(s) * static_cast<std::size_t>(num_nodes_);
    rec.sig.for_each_node([&](int node) {
      const int m = node_counts_[base + static_cast<std::size_t>(node)] + 1;
      if (m > opts_.theta) {
        excess += m - opts_.theta;
        oversubscribed += 1;
      }
    });
  }
  if (oversubscribed == 0) return 0.0;
  return static_cast<double>(excess) / static_cast<double>(oversubscribed);
}

void AccessScheduler::place(const AccessRecord& rec, Slot slot) {
  assert(slot >= 0 && slot + rec.length <= num_slots_);
  ensure_process(rec.process);
  auto& rows = occupied_[static_cast<std::size_t>(rec.process)];
  for (int k = 0; k < rec.length; ++k) {
    const auto s = static_cast<std::size_t>(slot + k);
    merge_group(s, rec.sig);
    rows[s] = 1;
    if (opts_.theta > 0) {
      const std::size_t base = s * static_cast<std::size_t>(num_nodes_);
      rec.sig.for_each_node([&](int node) {
        std::uint16_t& count = node_counts_[base + static_cast<std::size_t>(node)];
        count += 1;
        if (count >= opts_.theta) saturated_[s].set(node);
      });
    }
  }
}

void AccessScheduler::merge_group(std::size_t s, const Signature& sig) {
  std::uint64_t* g = group_words_.data() + s * words_;
  int pop = 0;
  for (std::size_t w = 0; w < words_; ++w) {
    g[w] |= sig.word(w);
    pop += popcount64(g[w]);
  }
  group_pop_[s] = pop;
}

Signature AccessScheduler::group_signature(Slot slot) const {
  Signature out(num_nodes_);
  const std::uint64_t* g =
      group_words_.data() + static_cast<std::size_t>(slot) * words_;
  for (std::size_t w = 0; w < words_; ++w) out.set_word(w, g[w]);
  return out;
}

std::vector<ScheduledAccess> AccessScheduler::schedule(
    std::vector<AccessRecord> accesses) {
  std::vector<ScheduledAccess> out;
  schedule_into(accesses, out);
  return out;
}

void AccessScheduler::schedule_into(std::span<const AccessRecord> accesses,
                                    std::vector<ScheduledAccess>& out) {
  // Most-constrained-first: nondecreasing slack length, access id as the
  // deterministic tie-break.
  // dasched-lint: allow(hot-alloc): scratch vectors keep their capacity
  // across calls; growth only happens on the first, largest batch.
  order_.resize(accesses.size());
  std::iota(order_.begin(), order_.end(), 0u);
  std::sort(order_.begin(), order_.end(),
            [&accesses](std::uint32_t a, std::uint32_t b) {
              const Slot la = accesses[a].slack_length();
              const Slot lb = accesses[b].slack_length();
              if (la != lb) return la < lb;
              return accesses[a].id < accesses[b].id;
            });

  out.clear();
  // dasched-lint: allow(hot-alloc): one up-front reserve per batch keeps
  // the placement loop below allocation-free.
  out.reserve(accesses.size());
  double total_advance = 0.0;

  for (std::uint32_t idx : order_) {
    const AccessRecord& rec = accesses[idx];
    assert(rec.begin <= rec.end && rec.length >= 1);

    candidates_.clear();
    const Slot lo = rec.begin;
    const Slot hi = rec.latest_start();
    Slot stride = 1;
    if (opts_.max_candidates > 0 && hi - lo + 1 > opts_.max_candidates) {
      stride = (hi - lo + opts_.max_candidates) / opts_.max_candidates;
    }

    // Hoisted distance cache: groups only change in place(), so 1/d(s)
    // over every slot any candidate's window can reach is computed once per
    // access instead of once per (candidate, window slot) pair.
    const Slot span_lo = std::max<Slot>(0, lo - opts_.delta);
    const Slot span_hi =
        std::min<Slot>(num_slots_ - 1, hi + rec.length - 1 + opts_.delta);
    if (span_lo <= span_hi && lo <= hi) {
      fill_distance_cache(rec, span_lo, span_hi);
    }

    for (Slot s = lo; s <= hi; s += stride) {
      if (!available(rec.process, s, rec.length)) continue;
      // dasched-lint: allow(hot-alloc): candidate scratch retains capacity
      // across placements.
      candidates_.push_back({s, 0.0});
    }
    if (stride > 1 && (hi - lo) % stride != 0 &&
        available(rec.process, hi, rec.length)) {
      // dasched-lint: allow(hot-alloc): candidate scratch retains capacity
      // across placements.
      candidates_.push_back({hi, 0.0});
    }
    evaluate_candidates(rec);

    ScheduledAccess result{rec, rec.original, false};
    bool theta_fallback = false;
    if (candidates_.empty()) {
      // The whole slack is occupied by this process's other accesses; pin to
      // the original point (the read must still happen there).
      result.forced = true;
      stats_.forced += 1;
      // Do not mark occupancy: the slot genuinely holds two accesses now and
      // blocking it further would only cascade more forced placements.
      for (int k = 0; k < rec.length; ++k) {
        const Slot s = result.slot + k;
        if (s >= 0 && s < num_slots_) {
          merge_group(static_cast<std::size_t>(s), rec.sig);
        }
      }
    } else if (opts_.theta <= 0) {
      // Plain max-reuse selection (Fig. 11): first best wins unless the
      // randomized tie-break is enabled.
      std::size_t best = 0;
      int ties = 1;
      for (std::size_t i = 1; i < candidates_.size(); ++i) {
        if (candidates_[i].reuse > candidates_[best].reuse) {
          best = i;
          ties = 1;
        } else if (opts_.random_tie_break &&
                   candidates_[i].reuse == candidates_[best].reuse) {
          // Reservoir-style uniform choice among ties.
          ties += 1;
          if (rng_.next_below(static_cast<std::uint64_t>(ties)) == 0) best = i;
        }
      }
      result.slot = candidates_[best].slot;
      place(rec, result.slot);
    } else {
      // θ-constrained selection (Sec. IV-B3): the paper visits candidates
      // in non-increasing reuse order (slot ascending among ties) and takes
      // the first one that satisfies θ at every occupied slot, i.e. the
      // best-ranked passing candidate.  Candidates are in ascending slot
      // order, so one pass finds it: a candidate can only win by strictly
      // beating the best passing reuse so far, and only then is θ checked.
      const Candidate* best = nullptr;
      for (const Candidate& c : candidates_) {
        if ((best == nullptr || c.reuse > best->reuse) &&
            theta_ok(rec, c.slot)) {
          best = &c;
        }
      }
      if (best == nullptr) {
        // Nothing satisfies θ: minimize the average excess E_t, the
        // best-ranked candidate winning among equal minima.
        double best_excess = std::numeric_limits<double>::infinity();
        for (const Candidate& c : candidates_) {
          const double e = average_excess(rec, c.slot);
          if (e < best_excess || (e == best_excess && c.reuse > best->reuse)) {
            best_excess = e;
            best = &c;
          }
        }
        stats_.theta_fallbacks += 1;
        theta_fallback = true;
      }
      result.slot = best->slot;
      place(rec, result.slot);
    }

    observers_.notify([&](SchedulerObserver* o) {
      o->on_access_placed(rec, result.slot, result.forced, theta_fallback);
    });
    total_advance += static_cast<double>(rec.original - result.slot);
    // dasched-lint: allow(hot-alloc): the caller pre-reserves `out` (see
    // Cluster::compile); growth here is first-run only.
    out.push_back(std::move(result));
  }

  stats_.scheduled = static_cast<std::int64_t>(out.size());
  stats_.mean_advance_slots =
      out.empty() ? 0.0 : total_advance / static_cast<double>(out.size());

  std::sort(out.begin(), out.end(),
            [](const ScheduledAccess& a, const ScheduledAccess& b) {
              return a.rec.id < b.rec.id;
            });
}

}  // namespace dasched
