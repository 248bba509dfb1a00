#include "sketch/graphsketch.h"

#include <algorithm>
#include <array>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "mpc/cluster.h"
#include "mpc/simulator.h"

namespace streammpc {

namespace {
// Below this batch size the per-dispatch cost of waking the pool exceeds
// the cell-parallel win; single updates always take the serial path.
constexpr std::size_t kParallelBatchMin = 4;

ThreadPool* shared_pool(unsigned configured) {
  const unsigned threads =
      configured != 0 ? configured : std::thread::hardware_concurrency();
  return threads > 1 ? &ThreadPool::shared(threads) : nullptr;
}

}  // namespace

VertexSketches::VertexSketches(VertexId n, const GraphSketchConfig& config)
    : n_(n), codec_(n), pool_(shared_pool(config.ingest_threads)) {
  SMPC_CHECK(config.banks >= 1);
  SplitMix64 sm(config.seed);
  params_.reserve(config.banks);
  arenas_.reserve(config.banks);
  for (unsigned b = 0; b < config.banks; ++b) {
    params_.emplace_back(codec_.dimension(), config.shape, sm.next());
    arenas_.emplace_back(n, params_.back());
  }
}

ThreadPool* VertexSketches::pool(std::size_t items) const {
  return items >= kParallelBatchMin ? pool_ : nullptr;
}

void VertexSketches::update_edge(Edge e, std::int64_t delta) {
  const EdgeDelta one{e, delta};
  update_edges(std::span<const EdgeDelta>(&one, 1));
}

void VertexSketches::update_edges(std::span<const EdgeDelta> batch) {
  if (batch.empty()) return;
  // Flat ingest IS the grid: one machine owning both endpoints of every
  // delta.  Same canonical preparation order and per-bank apply order as
  // every other path, hence byte-identical for any chunking.  The deltas
  // are copied (callers routinely pass transient spans); the staged CSR's
  // buffers are reused across calls.  Its offsets are 32-bit and must
  // never wrap (the flat path delivers each delta once).
  SMPC_CHECK_MSG(batch.size() <= UINT32_MAX,
                 "flat batch too large for 32-bit CSR offsets");
  constexpr std::uint8_t kBoth =
      mpc::RoutedBatch::kEndpointU | mpc::RoutedBatch::kEndpointV;
  staged_.items.clear();
  staged_.items.reserve(batch.size());
  for (const EdgeDelta& d : batch)
    staged_.items.push_back(mpc::RoutedBatch::Item{d, kBoth});
  staged_.offsets.assign({0u, static_cast<std::uint32_t>(batch.size())});
  staged_.load_words.assign(1, mpc::RoutedBatch::kWordsPerDelta * batch.size());
  update_edges(staged_);
}

std::uint64_t VertexSketches::update_edges(const mpc::RoutedBatch& routed,
                                           std::uint64_t skip_machine,
                                           unsigned skip_bank) {
  if (routed.items.empty()) return 0;
  // Deterministic canonical-order page preparation: after this, the cells
  // share no mutable state and allocate nothing, so the schedule below is
  // unobservable in the resulting bytes.  A malformed edge throws here,
  // before any page is allocated.
  begin_routed_cells(routed);
  // Every ingest path runs through here, so this is where query caches
  // learn that their snapshots went stale (core/query_cache.h).  Bumped
  // for every validated batch — a skipped-cell (faulted) run mutates the
  // other cells before the caller rolls them back, and the rollback bumps
  // again.
  ++mutation_epoch_;
  const std::uint64_t machines = routed.machines();
  const std::size_t cells = static_cast<std::size_t>(machines) * banks();
  cell_applied_.assign(cells, 0);
  const auto run_cell = [&](std::size_t m, std::size_t bank) {
    if (routed.load_words[m] == 0) return;
    if (m == skip_machine && bank == skip_bank) return;  // injected fault
    cell_applied_[m * banks() + bank] =
        ingest_cell(m, static_cast<unsigned>(bank), routed);
  };
  ThreadPool* p = pool(routed.items.size());
  if (p != nullptr && cells >= 2) {
    p->parallel_for_grid(machines, banks(), run_cell);
  } else {
    for (std::size_t m = 0; m < machines; ++m) {
      for (unsigned b = 0; b < banks(); ++b) run_cell(m, b);
    }
  }
  // Deterministic aggregation: machine-major fold of the per-cell counts,
  // regardless of which thread finished which cell when.
  std::uint64_t applied = 0;
  for (const std::uint64_t a : cell_applied_) applied += a;
  return applied;
}

void VertexSketches::begin_routed_cells(const mpc::RoutedBatch& routed) {
  const std::size_t count = routed.items.size();
  cells_ready_batch_ = nullptr;
  cells_ready_items_ = kCellsNotReady;
  // Validate and encode every item before any page is allocated, so a bad
  // edge throws with the arenas untouched (the same contract as
  // ingest_items).
  coord_scratch_.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Edge e = routed.items[i].delta.e;
    SMPC_CHECK(e.u < e.v && e.v < n_);
    coord_scratch_[i] = codec_.encode(e);
  }
  // Two plan buffers per (machine, bank) cell: ingest_cell's pipelined
  // loop double-buffers the current and lookahead CoordPlans.
  const std::size_t cells =
      static_cast<std::size_t>(routed.machines()) * banks() * 2;
  if (cell_plans_.size() < cells) cell_plans_.resize(cells);
  // Page preparation, one independent pass per bank.  The CSR already
  // stores items grouped by machine in ascending order, so a linear walk
  // IS the canonical machine-major first-touch sequence of serial ingest;
  // within an item the endpoints and levels are touched in exactly
  // apply()'s order (max endpoint first, hot page, then deepening
  // overflow).  Banks share nothing, so fanning the pass across the pool
  // cannot change any bank's allocation sequence.
  const auto prepare_bank = [&](std::size_t b) {
    BankArena& arena = arenas_[b];
    const L0Params& params = params_[b];
    for (std::size_t i = 0; i < count; ++i) {
      const mpc::RoutedBatch::Item& item = routed.items[i];
      if (item.delta.delta == 0 || item.endpoints == 0) continue;
      const unsigned depth = params.depth_of(coord_scratch_[i]);
      if (item.endpoints & mpc::RoutedBatch::kEndpointV)
        arena.prepare_pages(item.delta.e.v, depth);
      if (item.endpoints & mpc::RoutedBatch::kEndpointU)
        arena.prepare_pages(item.delta.e.u, depth);
    }
  };
  if (ThreadPool* p = pool(count)) {
    p->parallel_for(banks(), prepare_bank);
  } else {
    for (unsigned b = 0; b < banks(); ++b) prepare_bank(b);
  }
  cells_ready_batch_ = &routed;
  cells_ready_items_ = count;
}

std::uint64_t VertexSketches::ingest_cell(std::uint64_t machine, unsigned bank,
                                          const mpc::RoutedBatch& routed) {
  SMPC_CHECK(machine < routed.machines() && bank < banks());
  SMPC_CHECK_MSG(cells_ready_batch_ == &routed &&
                     cells_ready_items_ == routed.items.size(),
                 "begin_routed_cells must prepare this batch first");
  const std::size_t begin = routed.offsets[machine];
  const std::size_t end = routed.offsets[machine + 1];
  BankArena& arena = arenas_[bank];
  const L0Params& params = params_[bank];
  // Software-pipelined apply loop (the hint discipline
  // BankArena::prefetch_planned documents): item i+1's plan is hashed and
  // its exact cell records hinted while item i applies into lines
  // prefetched one iteration ago, so the random record misses overlap the
  // plan hashing instead of stalling apply.  Two plan buffers per cell
  // (cur/next) double-buffer the lookahead; the apply ORDER is untouched,
  // so the resulting bytes are identical to the unpipelined loop.
  CoordPlan* cur = &cell_plans_[2 * (machine * banks() + bank)];
  CoordPlan* next = cur + 1;
  std::size_t planned_for = end;  // index whose plan sits in *cur
  std::uint64_t applied = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const mpc::RoutedBatch::Item& item = routed.items[i];
    if (item.delta.delta == 0 || item.endpoints == 0) continue;
    if (planned_for != i)
      params.plan_coord(coord_scratch_[i], item.delta.delta, *cur);
    if (i + 1 < end) {
      const mpc::RoutedBatch::Item& peek = routed.items[i + 1];
      if (peek.delta.delta != 0 && peek.endpoints != 0) {
        arena.prefetch_hot(peek.delta.e);
        params.plan_coord(coord_scratch_[i + 1], peek.delta.delta, *next);
        arena.prefetch_planned(peek.delta.e, *next);
        planned_for = i + 1;
      }
    }
    const Coord c = coord_scratch_[i];
    if (item.endpoints & mpc::RoutedBatch::kEndpointV)
      arena.apply(item.delta.e.v, c, item.delta.delta, *cur, /*negated=*/false);
    if (item.endpoints & mpc::RoutedBatch::kEndpointU)
      arena.apply(item.delta.e.u, c, -item.delta.delta, *cur, /*negated=*/true);
    ++applied;
    if (planned_for == i + 1) std::swap(cur, next);
  }
  return applied;
}

void VertexSketches::begin_transaction(const mpc::RoutedBatch& routed) {
  const std::size_t count = routed.items.size();
  // Same validate-and-encode pass as begin_routed_cells (which re-runs it
  // identically afterwards) — a bad edge must throw before any page is
  // saved, and the snapshot needs each item's depth.
  coord_scratch_.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Edge e = routed.items[i].delta.e;
    SMPC_CHECK(e.u < e.v && e.v < n_);
    coord_scratch_[i] = codec_.encode(e);
  }
  const auto snapshot_bank = [&](std::size_t b) {
    BankArena& arena = arenas_[b];
    const L0Params& params = params_[b];
    arena.snapshot_begin();
    for (std::size_t i = 0; i < count; ++i) {
      const mpc::RoutedBatch::Item& item = routed.items[i];
      if (item.delta.delta == 0 || item.endpoints == 0) continue;
      const unsigned depth = params.depth_of(coord_scratch_[i]);
      if (item.endpoints & mpc::RoutedBatch::kEndpointV)
        arena.snapshot_pages(item.delta.e.v, depth);
      if (item.endpoints & mpc::RoutedBatch::kEndpointU)
        arena.snapshot_pages(item.delta.e.u, depth);
    }
  };
  if (ThreadPool* p = pool(count)) {
    p->parallel_for(banks(), snapshot_bank);
  } else {
    for (unsigned b = 0; b < banks(); ++b) snapshot_bank(b);
  }
}

void VertexSketches::rollback_transaction() {
  ++mutation_epoch_;  // restored bytes are still a state-change event
  for (BankArena& arena : arenas_) arena.rollback_pages();
  // The prepared-cells state described a batch whose pages may no longer
  // exist; force a fresh preparation pass before any further cell ingest.
  cells_ready_batch_ = nullptr;
  cells_ready_items_ = kCellsNotReady;
}

void VertexSketches::commit_transaction() {
  for (BankArena& arena : arenas_) arena.snapshot_commit();
}

std::uint64_t VertexSketches::resident_words(std::uint64_t machine,
                                             const mpc::Cluster& cluster) const {
  const auto [first, last] = cluster.vertex_block(machine, n_);
  std::uint64_t total = 0;
  for (const BankArena& arena : arenas_) {
    total += arena.resident_words(static_cast<VertexId>(first),
                                  static_cast<VertexId>(last));
  }
  return total;
}

void VertexSketches::resident_words(const mpc::Cluster& cluster,
                                    std::span<std::uint64_t> out) const {
  SMPC_CHECK_MSG(out.size() == cluster.machines(),
                 "resident vector does not match the machine count");
  std::fill(out.begin(), out.end(), 0);
  // Block bounds in stack-sized chunks: each machine's vertex_block (a
  // 128-bit division) is computed once rather than once per bank, and
  // nothing is allocated.
  constexpr std::size_t kChunk = 64;
  std::array<std::pair<VertexId, VertexId>, kChunk> blocks;
  for (std::size_t base = 0; base < out.size(); base += kChunk) {
    const std::size_t count = std::min(kChunk, out.size() - base);
    for (std::size_t i = 0; i < count; ++i) {
      const auto [first, last] = cluster.vertex_block(base + i, n_);
      blocks[i] = {static_cast<VertexId>(first), static_cast<VertexId>(last)};
    }
    for (const BankArena& arena : arenas_) {
      arena.add_resident_words(out.subspan(base, count),
                               [&](std::size_t i) { return blocks[i]; });
    }
  }
}

void VertexSketches::merged_into(unsigned bank,
                                 std::span<const VertexId> vertices,
                                 L0Sampler& out) const {
  SMPC_CHECK(bank < banks());
  arenas_[bank].merge_into(params_[bank], vertices, out);
}

L0Sampler VertexSketches::merged(unsigned bank,
                                 std::span<const VertexId> vertices) const {
  L0Sampler acc;
  merged_into(bank, vertices, acc);
  return acc;
}

std::optional<Edge> VertexSketches::decode_sample(unsigned bank,
                                                  const L0Sampler& s) const {
  const auto r = s.sample(params_[bank]);
  if (!r) return std::nullopt;
  return codec_.decode(r->coord);
}

std::optional<Edge> VertexSketches::sample_boundary(
    unsigned bank, std::span<const VertexId> vertices) const {
  const std::uint32_t offsets[2] = {
      0, static_cast<std::uint32_t>(vertices.size())};
  std::optional<Edge> out;
  sample_groups(bank, vertices, offsets, {}, std::span(&out, 1));
  return out;
}

void VertexSketches::sample_boundaries(
    unsigned bank, std::span<const VertexId> members,
    std::span<const std::uint32_t> offsets,
    std::span<const std::uint32_t> classes,
    std::vector<std::optional<Edge>>& out) const {
  SMPC_CHECK(!offsets.empty());
  out.resize(offsets.size() - 1);
  sample_groups(bank, members, offsets, classes, out);
}

void VertexSketches::sample_groups(unsigned bank,
                                   std::span<const VertexId> members,
                                   std::span<const std::uint32_t> offsets,
                                   std::span<const std::uint32_t> classes,
                                   std::span<std::optional<Edge>> out) const {
  SMPC_CHECK(bank < banks());
  SMPC_CHECK(!offsets.empty() && offsets.back() == members.size());
  const std::size_t groups = offsets.size() - 1;
  SMPC_CHECK(out.size() == groups);
  SMPC_CHECK(classes.empty() || classes.size() == groups);
  const BankArena& arena = arenas_[bank];
  const L0Params& params = params_[bank];
  const std::size_t cells = params.cells_per_level();
  std::fill(out.begin(), out.end(), std::nullopt);
  // Thread-local so the const query stays reentrant without allocating
  // once warm.  `sum` is all zero between uses.
  constexpr std::uint32_t kNone = ~0u;
  thread_local std::vector<OneSparseCell> sum;
  thread_local std::vector<OneSparseCell> class_sum;   // [class][cell]
  thread_local std::vector<std::uint32_t> complement;  // [class] -> group
  thread_local std::vector<std::uint8_t> open;  // [class] complement unsampled
  thread_local std::vector<std::uint8_t> done;  // [group] sample decided
  thread_local std::vector<std::uint32_t> live;         // groups to walk
  thread_local std::vector<std::uint32_t> open_classes;
  sum.assign(cells, OneSparseCell{});
  done.assign(groups, 0);
  live.clear();
  open_classes.clear();
  // Per class, the complement group: most members, ties to the lowest g.
  // It is never walked; every other group is.  A class is open while its
  // complement may still recover, which needs at least one class-mate.
  const auto size_of = [&](std::uint32_t g) {
    return offsets[g + 1] - offsets[g];
  };
  if (!classes.empty()) {
    const std::size_t class_count =
        *std::max_element(classes.begin(), classes.end()) + std::size_t{1};
    complement.assign(class_count, kNone);
    open.assign(class_count, 0);
    for (std::uint32_t g = 0; g < groups; ++g) {
      std::uint32_t& best = complement[classes[g]];
      if (best == kNone || size_of(g) > size_of(best)) best = g;
    }
    for (std::uint32_t g = 0; g < groups; ++g) {
      if (complement[classes[g]] == g) continue;
      live.push_back(g);
      if (!open[classes[g]]) {
        open[classes[g]] = 1;
        open_classes.push_back(classes[g]);
      }
    }
    class_sum.resize(class_count * cells);
  } else {
    for (std::uint32_t g = 0; g < groups; ++g) live.push_back(g);
  }
  // Top-down level walk: the first level that recovers anything is the
  // level L0Sampler::sample would pick on the full merge (every level above
  // it is zero or undecodable for the group either way), so a group
  // retires there.  A class-mate stays live until its class's complement
  // has recovered, because the complement's level sum is minus theirs.
  for (unsigned j = params.levels(); j-- > 0 && !live.empty();) {
    if (!arena.level_mapped(j)) continue;
    for (const std::uint32_t c : open_classes) {
      std::fill_n(class_sum.begin() + c * cells, cells, OneSparseCell{});
    }
    for (const std::uint32_t g : live) {
      if (!arena.add_level(j, members.subspan(offsets[g], size_of(g)), sum))
        continue;
      if (!done[g]) {
        if (const auto r = params.sample_level(j, sum)) {
          out[g] = codec_.decode(r->coord);
          done[g] = 1;
        }
      }
      if (!classes.empty() && open[classes[g]]) {
        OneSparseCell* dst = class_sum.data() + classes[g] * cells;
        for (std::size_t c = 0; c < cells; ++c) dst[c].subtract(sum[c]);
      }
      std::fill(sum.begin(), sum.end(), OneSparseCell{});
    }
    std::erase_if(open_classes, [&](std::uint32_t c) {
      const auto r = params.sample_level(
          j, std::span<const OneSparseCell>(class_sum.data() + c * cells,
                                            cells));
      if (!r) return false;
      out[complement[c]] = codec_.decode(r->coord);
      open[c] = 0;
      return true;
    });
    std::erase_if(live, [&](std::uint32_t g) {
      return done[g] && (classes.empty() || !open[classes[g]]);
    });
  }
}

std::uint64_t VertexSketches::allocated_words() const {
  std::uint64_t total = 0;
  for (const BankArena& arena : arenas_) total += arena.allocated_words();
  return total;
}

std::uint64_t VertexSketches::nominal_words_per_vertex() const {
  return params_.front().nominal_words() * banks();
}

void routed_ingest(mpc::Cluster* cluster, VertexId universe,
                   std::span<const EdgeDelta> deltas, const std::string& label,
                   VertexSketches& sketches, mpc::RoutedBatch& routed,
                   mpc::Simulator* simulator) {
  // An empty batch delivers nothing — charging a round for it would skew
  // the per-structure round accounting (front ends reach here with empty
  // delta lists on e.g. all-cancelling batches).
  if (deltas.empty()) return;
  if (cluster == nullptr) {
    sketches.update_edges(deltas);
    return;
  }
  if (simulator != nullptr) {
    simulator->execute(deltas, universe, label, sketches);
    return;
  }
  cluster->route_batch(deltas, universe, routed);
  cluster->charge_routed(routed, label);
  sketches.update_edges(routed);
}

}  // namespace streammpc
