#include "sketch/graphsketch.h"

#include <algorithm>
#include <cstdlib>
#include <string_view>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/env.h"
#include "common/random.h"
#include "mpc/batch_scheduler.h"
#include "mpc/cluster.h"
#include "mpc/simulator.h"
#include "sketch/delta_sketch.h"

namespace streammpc {

namespace {
// Below this batch size the per-dispatch cost of waking the pool exceeds
// the cell-parallel win; single updates always take the serial path.
constexpr std::size_t kParallelBatchMin = 4;

unsigned resolve_threads(unsigned configured, unsigned cells) {
  if (configured == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    configured = hw == 0 ? 1 : hw;
  }
  return std::min(configured, cells);
}

// Shard-mode resolution (construction time).  configured >= 1 fixes S.
// configured == 0 defers to SMPC_SHARDS: a number fixes S (validated like
// every other numeric knob), the literal "auto" — or the knob unset or
// invalid — selects adaptive per-batch planning (fixed stays 1; the real
// count comes from plan_shards(routed)).  Both paths cap at kShardCap.
struct ShardMode {
  unsigned fixed;
  bool adaptive;
};
ShardMode resolve_shards(unsigned configured) {
  if (configured != 0)
    return {std::min(configured, VertexSketches::kShardCap), false};
  const char* env = std::getenv("SMPC_SHARDS");
  if (env != nullptr && std::string_view(env) != "auto") {
    if (const auto v = env_positive_unsigned("SMPC_SHARDS"))
      return {std::min(*v, VertexSketches::kShardCap), false};
  }
  return {1, true};
}

// Stripe s's contiguous item sub-range of a machine's CSR slice
// [begin, end).  Items, not vertices: a hot cell whose applies all hit one
// vertex (a star hub) still splits evenly.
std::pair<std::size_t, std::size_t> shard_slice(std::size_t begin,
                                                std::size_t end,
                                                unsigned shard,
                                                unsigned shards) {
  const std::size_t len = end - begin;
  return {begin + len * shard / shards, begin + len * (shard + 1) / shards};
}
}  // namespace

VertexSketches::VertexSketches(VertexId n, const GraphSketchConfig& config)
    : n_(n),
      codec_(n),
      shards_(resolve_shards(config.shards).fixed),
      auto_shards_(resolve_shards(config.shards).adaptive),
      ingest_threads_(resolve_threads(config.ingest_threads,
                                      config.banks * shards_)) {
  SMPC_CHECK(config.banks >= 1);
  SplitMix64 sm(config.seed);
  params_.reserve(config.banks);
  arenas_.reserve(config.banks);
  for (unsigned b = 0; b < config.banks; ++b) {
    params_.emplace_back(codec_.dimension(), config.shape, sm.next());
    arenas_.emplace_back(n, params_.back());
  }
}

ThreadPool* VertexSketches::pool() {
  if (ingest_threads_ <= 1) return nullptr;
  if (!pool_) pool_ = std::make_unique<ThreadPool>(ingest_threads_);
  return pool_.get();
}

void VertexSketches::update_edge(Edge e, std::int64_t delta) {
  const EdgeDelta one{e, delta};
  update_edges(std::span<const EdgeDelta>(&one, 1));
}

void VertexSketches::run_plan(std::size_t items) {
  exec_plan_.run(*this, items >= kParallelBatchMin ? pool() : nullptr);
}

void VertexSketches::update_edges(std::span<const EdgeDelta> batch) {
  if (batch.empty()) return;
  // Flat ingest IS the grid: one machine owning both endpoints of every
  // delta.  Same canonical preparation order and per-bank apply order as
  // every other path, hence byte-identical for any chunking.
  exec_plan_.lower_flat(batch);
  run_plan(batch.size());
}

void VertexSketches::update_edges(const mpc::RoutedBatch& routed) {
  if (routed.items.empty()) return;
  exec_plan_.lower_routed(routed);
  run_plan(routed.items.size());
}

std::uint64_t VertexSketches::merge_delta(const mpc::RoutedBatch& routed,
                                          const DeltaSketch& delta) {
  if (routed.items.empty()) return 0;
  exec_plan_.lower_delta(routed, delta);
  return exec_plan_.run(
      *this, routed.items.size() >= kParallelBatchMin ? pool() : nullptr);
}

std::uint64_t VertexSketches::merge_delta_cells(const DeltaSketch& delta,
                                                ThreadPool* pool) {
  SMPC_CHECK_MSG(delta.banks() == banks(),
                 "delta sketch bank count mismatch");
  const auto merge_bank = [&](std::size_t b) {
    arenas_[b].merge_from(delta.arena(static_cast<unsigned>(b)));
  };
  if (pool != nullptr && banks() >= 2) {
    pool->parallel_for(banks(), merge_bank);
  } else {
    for (unsigned b = 0; b < banks(); ++b) merge_bank(b);
  }
  // The prepared-cells state was consumed by this batch; require a fresh
  // preparation pass before any further cell ingest.
  cells_ready_batch_ = nullptr;
  cells_ready_items_ = kCellsNotReady;
  shard_cells_ready_ = false;
  return delta.applied();
}

void VertexSketches::begin_routed_cells(const mpc::RoutedBatch& routed,
                                        ThreadPool* pool) {
  const std::size_t count = routed.items.size();
  cells_ready_batch_ = nullptr;
  cells_ready_items_ = kCellsNotReady;
  shard_cells_ready_ = false;
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
  // overflow).  Banks share nothing, so fanning the pass across `pool`
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
  if (pool != nullptr && count >= kParallelBatchMin) {
    pool->parallel_for(banks(), prepare_bank);
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

unsigned VertexSketches::plan_shards(std::size_t items) const {
  return (!auto_shards_ && shards_ > 1 && items >= kParallelBatchMin)
             ? shards_
             : 1;
}

unsigned VertexSketches::plan_shards(const mpc::RoutedBatch& routed) {
  unsigned s = 1;
  if (routed.items.size() >= kParallelBatchMin) {
    if (!auto_shards_) {
      s = shards_;
    } else {
      // skew = ceil(max-load / mean-load) over machines with nonzero load
      // — exactly the imbalance the item stripes can reclaim: a uniform
      // batch has skew 1 (keep the 2-D grid), a star stream whose hub
      // machine holds k times the mean gets ~k stripes.  Pure function of
      // load_words, so the plan — and hence the grid shape — is
      // deterministic for a given routed batch.
      std::uint64_t max_load = 0;
      std::uint64_t total = 0;
      std::uint64_t loaded = 0;
      for (const std::uint64_t w : routed.load_words) {
        if (w == 0) continue;
        ++loaded;
        total += w;
        if (w > max_load) max_load = w;
      }
      if (loaded > 0) {
        const std::uint64_t skew = (max_load * loaded + total - 1) / total;
        while (s < skew && s < kShardCap) s *= 2;
      }
      if (s > 1) ++auto_sharded_batches_;
    }
  }
  last_planned_shards_ = s;
  return s;
}

void VertexSketches::begin_shard_cells(const mpc::RoutedBatch& routed,
                                       unsigned shards, ThreadPool* pool) {
  SMPC_CHECK(shards >= 1 && shards <= kShardCap);
  SMPC_CHECK_MSG(cells_ready_batch_ == &routed &&
                     cells_ready_items_ == routed.items.size(),
                 "begin_routed_cells must prepare this batch first");
  shard_cells_ready_ = false;
  if (scratch_stride_ < shards) {
    // First sharded batch, or an adaptive plan wider than any before:
    // (re)build the scratch bed at the new stride.  The arenas are
    // scratch, so dropping narrower ones loses only warmed capacity.
    shard_scratch_.clear();
    shard_scratch_.reserve(static_cast<std::size_t>(banks()) * shards);
    for (unsigned b = 0; b < banks(); ++b) {
      for (unsigned s = 0; s < shards; ++s)
        shard_scratch_.emplace_back(n_, params_[b]);
    }
    scratch_stride_ = shards;
  }
  active_shards_ = shards;
  const std::uint64_t machines = routed.machines();
  // Two plan buffers per (machine, bank, shard) slot for the pipelined
  // ingest loop (see ingest_cell).
  const std::size_t slots =
      static_cast<std::size_t>(machines) * banks() * shards * 2;
  if (shard_plans_.size() < slots) shard_plans_.resize(slots);
  // Scratch page preparation, one independent task per (bank, shard).
  // Tasks of the same (bank, shard) across machines share one scratch
  // arena, so the task itself walks machines ascending over stripe s —
  // a deterministic first-touch sequence (the apply tasks then allocate
  // nothing and write disjoint pre-sized pages: machines own disjoint
  // vertex blocks, so the 3-D grid stays race-free in any schedule).
  const auto prepare_shard = [&](std::size_t flat) {
    const unsigned b = static_cast<unsigned>(flat / shards);
    const unsigned s = static_cast<unsigned>(flat % shards);
    BankArena& scratch =
        shard_scratch_[static_cast<std::size_t>(b) * scratch_stride_ + s];
    scratch.reset();
    const L0Params& params = params_[b];
    for (std::uint64_t m = 0; m < machines; ++m) {
      const auto [lo, hi] =
          shard_slice(routed.offsets[m], routed.offsets[m + 1], s, shards);
      for (std::size_t i = lo; i < hi; ++i) {
        const mpc::RoutedBatch::Item& item = routed.items[i];
        if (item.delta.delta == 0 || item.endpoints == 0) continue;
        const unsigned depth = params.depth_of(coord_scratch_[i]);
        if (item.endpoints & mpc::RoutedBatch::kEndpointV)
          scratch.prepare_pages(item.delta.e.v, depth);
        if (item.endpoints & mpc::RoutedBatch::kEndpointU)
          scratch.prepare_pages(item.delta.e.u, depth);
      }
    }
  };
  const std::size_t tasks = static_cast<std::size_t>(banks()) * shards;
  if (pool != nullptr && tasks >= 2) {
    pool->parallel_for(tasks, prepare_shard);
  } else {
    for (std::size_t t = 0; t < tasks; ++t) prepare_shard(t);
  }
  shard_cells_ready_ = true;
}

std::uint64_t VertexSketches::ingest_cell_shard(std::uint64_t machine,
                                                unsigned bank, unsigned shard,
                                                const mpc::RoutedBatch& routed) {
  SMPC_CHECK(machine < routed.machines() && bank < banks() &&
             shard < active_shards_);
  SMPC_CHECK_MSG(shard_cells_ready_ && cells_ready_batch_ == &routed &&
                     cells_ready_items_ == routed.items.size(),
                 "begin_shard_cells must prepare this batch first");
  const auto [begin, end] = shard_slice(routed.offsets[machine],
                                        routed.offsets[machine + 1], shard,
                                        active_shards_);
  BankArena& arena =
      shard_scratch_[static_cast<std::size_t>(bank) * scratch_stride_ + shard];
  const L0Params& params = params_[bank];
  // Same software-pipelined discipline as ingest_cell: hash + hint item
  // i+1's exact cell records while item i applies into lines prefetched
  // one iteration ago.  Apply order is untouched, so bytes are identical.
  CoordPlan* cur =
      &shard_plans_[2 * ((machine * banks() + bank) * active_shards_ + shard)];
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

void VertexSketches::merge_shard_cells(ThreadPool* pool) {
  SMPC_CHECK_MSG(shard_cells_ready_, "no prepared shard cells to merge");
  // Shard-ascending fold per bank: merge order is deterministic, and cell
  // sums commute, so the resident bytes equal the 2-D grid's exactly.  The
  // resident pages were all sized by begin_routed_cells' canonical pass,
  // so the merge allocates nothing and page numbering is untouched.
  const auto merge_bank = [&](std::size_t b) {
    for (unsigned s = 0; s < active_shards_; ++s)
      arenas_[b].merge_from(shard_scratch_[b * scratch_stride_ + s]);
  };
  if (pool != nullptr && banks() >= 2) {
    pool->parallel_for(banks(), merge_bank);
  } else {
    for (unsigned b = 0; b < banks(); ++b) merge_bank(b);
  }
  // The prepared state was consumed; a re-merge would double-apply.
  shard_cells_ready_ = false;
  cells_ready_batch_ = nullptr;
  cells_ready_items_ = kCellsNotReady;
}

void VertexSketches::begin_transaction(const mpc::RoutedBatch& routed,
                                       ThreadPool* pool) {
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
  if (pool != nullptr && count >= kParallelBatchMin) {
    pool->parallel_for(banks(), snapshot_bank);
  } else {
    for (unsigned b = 0; b < banks(); ++b) snapshot_bank(b);
  }
}

void VertexSketches::rollback_transaction() {
  note_mutation();  // restored bytes are still a state-change event
  for (BankArena& arena : arenas_) arena.rollback_pages();
  // The prepared-cells state described a batch whose pages may no longer
  // exist; force a fresh preparation pass before any further cell ingest.
  cells_ready_batch_ = nullptr;
  cells_ready_items_ = kCellsNotReady;
  shard_cells_ready_ = false;
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
    unsigned bank, std::span<const VertexId> vertices,
    L0Sampler& scratch) const {
  merged_into(bank, vertices, scratch);
  return decode_sample(bank, scratch);
}

std::optional<Edge> VertexSketches::sample_boundary(
    unsigned bank, std::span<const VertexId> vertices) const {
  L0Sampler scratch;
  return sample_boundary(bank, vertices, scratch);
}

void VertexSketches::sample_boundaries(
    unsigned bank, std::span<const VertexId> members,
    std::span<const std::uint32_t> offsets,
    std::span<const std::uint32_t> classes, std::vector<L0Sampler>& scratch,
    std::vector<std::optional<Edge>>& out) const {
  SMPC_CHECK(bank < banks());
  SMPC_CHECK(!offsets.empty());
  const std::size_t groups = offsets.size() - 1;
  SMPC_CHECK(classes.empty() || classes.size() == groups);
  if (scratch.size() < groups) scratch.resize(groups);
  out.resize(groups);
  const std::span<L0Sampler> samplers(scratch.data(), groups);
  // Per class, the complement group: most members, ties to the lowest g.
  // Thread-local so the const query stays reentrant without allocating.
  constexpr std::uint32_t kNone = ~0u;
  thread_local std::vector<std::uint32_t> complement;  // [class] -> group
  thread_local std::vector<std::uint8_t> skip;         // [group]
  skip.assign(classes.empty() ? 0 : groups, 0);
  if (!classes.empty()) {
    complement.assign(*std::max_element(classes.begin(), classes.end()) + 1,
                      kNone);
    const auto size_of = [&](std::uint32_t g) {
      return offsets[g + 1] - offsets[g];
    };
    for (std::uint32_t g = 0; g < groups; ++g) {
      std::uint32_t& best = complement[classes[g]];
      if (best == kNone || size_of(g) > size_of(best)) best = g;
    }
    for (const std::uint32_t g : complement) {
      if (g != kNone) skip[g] = 1;
    }
  }
  arenas_[bank].merge_groups(params_[bank], members, offsets, samplers, skip);
  if (!classes.empty()) {
    // The class sums to zero, so its complement is minus everyone else.
    for (std::uint32_t g = 0; g < groups; ++g) {
      if (!skip[g])
        samplers[complement[classes[g]]].subtract(params_[bank], samplers[g]);
    }
  }
  for (std::size_t g = 0; g < groups; ++g)
    out[g] = decode_sample(bank, samplers[g]);
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
                   mpc::ExecMode mode, mpc::Simulator* simulator,
                   mpc::BatchScheduler* scheduler) {
  // An empty batch delivers nothing — charging a round for it would skew
  // the per-structure round accounting (front ends reach here with empty
  // delta lists on e.g. all-cancelling batches).
  if (deltas.empty()) return;
  if (cluster == nullptr || mode == mpc::ExecMode::kFlat) {
    sketches.update_edges(deltas);
    return;
  }
  if (mode == mpc::ExecMode::kSimulated) {
    SMPC_CHECK_MSG(simulator != nullptr,
                   "simulated execution mode requires a Simulator");
    if (scheduler != nullptr && scheduler->enabled()) {
      // The adaptive control loop: route, probe resident + delivered
      // against the budget, bisect-and-retry on overflow.
      scheduler->execute(deltas, universe, label, sketches);
      return;
    }
  }
  cluster->route_batch(deltas, universe, routed);
  if (mode == mpc::ExecMode::kSimulated) {
    simulator->execute(routed, label, sketches);
  } else {
    cluster->charge_routed(routed, label);
    sketches.update_edges(routed);
  }
}

}  // namespace streammpc
