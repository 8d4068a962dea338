#include "storage/storage_system.h"

#include "util/rng.h"

namespace dasched {

StorageSystem::StorageSystem(Simulator& sim, StorageConfig cfg)
    : sim_(sim),
      cfg_(cfg),
      striping_(cfg.num_io_nodes, cfg.stripe_size) {
  build_nodes();
}

void StorageSystem::build_nodes() {
  // Multi-speed hardware is implied by the chosen policy.
  cfg_.node.disk.multi_speed = needs_multi_speed(cfg_.node.policy);
  cfg_.node.chunk_size = cfg_.stripe_size;
  cfg_.node.cache_block_size = cfg_.stripe_size;
  for (int i = 0; i < cfg_.num_io_nodes; ++i) {
    nodes_.push_back(std::make_unique<IoNode>(
        sim_, cfg_.node, i,
        derive_seed(cfg_.seed, static_cast<std::uint64_t>(i))));
  }
}

void StorageSystem::route(FileId f, Bytes offset, Bytes size, bool is_write,
                          bool background, EventFn done) {
  const JoinId join = join_pool_.open(std::move(done));

  scratch_pieces_.clear();
  striping_.for_each_piece(f, offset, size, [this](const StripePiece& piece) {
    // dasched-lint: allow(hot-alloc): scratch vector retains capacity
    // across requests.
    scratch_pieces_.push_back(piece);
  });
  observers_.notify([&](StorageObserver* o) {
    o->on_request_routed(f, offset, size, is_write,
                         std::span<const StripePiece>(scratch_pieces_));
  });
  for (const StripePiece& piece : scratch_pieces_) {
    join_pool_.add(join);
    const SimTime wire =
        cfg_.network_latency +
        static_cast<SimTime>(static_cast<double>(piece.length) /
                             (cfg_.network_mb_per_sec * 1e6) *
                             static_cast<double>(kUsecPerSec));
    IoNode* node = nodes_[static_cast<std::size_t>(piece.io_node)].get();
    // The request hop delivers the piece to its node; the response hop
    // carries the completion back to the join.  All captures stay within
    // EventFn's inline buffer.
    EventFn deliver = [this, node, piece, is_write, background, join] {
      auto respond = [this, join] {
        sim_.schedule_after(cfg_.network_latency,
                            [this, join] { join_pool_.arrive(join); });
      };
      if (is_write) {
        node->write(piece.node_offset, piece.length, respond);
      } else {
        node->read(piece.node_offset, piece.length, respond, background);
      }
    };
    sim_.schedule_after(wire, std::move(deliver));
  }
  join_pool_.arrive(join);
}

void StorageSystem::read(FileId f, Bytes offset, Bytes size, EventFn done,
                         bool background) {
  route(f, offset, size, /*is_write=*/false, background, std::move(done));
}

void StorageSystem::write(FileId f, Bytes offset, Bytes size, EventFn done) {
  route(f, offset, size, /*is_write=*/true, /*background=*/false,
        std::move(done));
}

StorageStats StorageSystem::finalize() {
  StorageStats out;
  finalize_into(out);
  return out;
}

void StorageSystem::finalize_into(StorageStats& out) {
  out.energy_j = Joules{};
  out.requests = 0;
  out.disk_requests = 0;
  out.spin_downs = 0;
  out.spin_ups = 0;
  out.rpm_changes = 0;
  out.cache_hit_rate = 0.0;
  out.idle_periods.clear();
  // Grows once on first use (or on a node-count increase), then reuses the
  // per-node slots and their histogram buckets forever after.
  if (out.per_node.size() != nodes_.size()) out.per_node.resize(nodes_.size());
  std::int64_t hits = 0;
  std::int64_t lookups = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    IoNodeStats& s = out.per_node[i];
    nodes_[i]->finalize_into(s);
    out.energy_j += s.energy_j;
    out.requests += s.requests;
    out.disk_requests += s.disk_requests;
    out.spin_downs += s.spin_downs;
    out.spin_ups += s.spin_ups;
    out.rpm_changes += s.rpm_changes;
    out.idle_periods.merge(s.idle_periods);
    hits += s.cache.hits;
    lookups += s.cache.hits + s.cache.misses;
  }
  out.cache_hit_rate =
      lookups == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups);
}

void StorageSystem::reset(const StorageConfig& cfg) {
  const bool striping_same = cfg.num_io_nodes == cfg_.num_io_nodes &&
                             cfg.stripe_size == cfg_.stripe_size;
  const bool nodes_same = cfg.num_io_nodes == static_cast<int>(nodes_.size());
  cfg_ = cfg;
  if (!striping_same) {
    striping_ = StripingMap(cfg_.num_io_nodes, cfg_.stripe_size);
  }
  join_pool_.reset();
  if (!nodes_same) {
    nodes_.clear();
    build_nodes();
    return;
  }
  // build_nodes() derives these from the policy/stripe choice; the in-place
  // path must apply the same normalization before handing cfg_.node down.
  cfg_.node.disk.multi_speed = needs_multi_speed(cfg_.node.policy);
  cfg_.node.chunk_size = cfg_.stripe_size;
  cfg_.node.cache_block_size = cfg_.stripe_size;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i]->reset(cfg_.node,
                     derive_seed(cfg_.seed, static_cast<std::uint64_t>(i)));
  }
}

}  // namespace dasched
