#include "core/agm_static.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"
#include "graph/reference.h"
#include "mpc/primitives.h"

namespace streammpc {

AgmStaticConnectivity::AgmStaticConnectivity(
    VertexId n, const GraphSketchConfig& sketch, mpc::Cluster* cluster,
    mpc::ExecMode mode, const mpc::SchedulerConfig& scheduler,
    mpc::FaultInjector* fault_injector)
    : n_(n),
      sketches_(n, sketch),
      ingest_(n, sketches_, cluster, mode, scheduler, 0, fault_injector),
      round_zero_(n),
      stale_(n, 1),
      dirty_(n) {
  // Nothing is cached yet: the first query samples every vertex.
  std::iota(dirty_.begin(), dirty_.end(), VertexId{0});
}

void AgmStaticConnectivity::mark_stale(VertexId x) {
  if (x < n_ && !stale_[x]) {
    stale_[x] = 1;
    dirty_.push_back(x);
  }
}

void AgmStaticConnectivity::refresh_round_zero() {
  if (dirty_.empty()) return;
  dirty_offsets_.resize(dirty_.size() + 1);
  std::iota(dirty_offsets_.begin(), dirty_offsets_.end(), std::uint32_t{0});
  sketches_.sample_boundaries(0, dirty_, dirty_offsets_, group_samples_);
  for (std::size_t i = 0; i < dirty_.size(); ++i) {
    round_zero_[dirty_[i]] = group_samples_[i];
    stale_[dirty_[i]] = 0;
  }
  dirty_.clear();
}

void AgmStaticConnectivity::apply_batch(const Batch& batch) {
  const QueryCache::PoisonOnThrow guard(query_cache());
  if (cluster() != nullptr) cluster()->begin_phase();
  // Stale marks BEFORE delivery: whatever part of the batch becomes
  // resident — now, at a later gutter drain, or not at all after a
  // rollback or a throw — its endpoints get resampled at the next query.
  for (const Update& u : batch) {
    mark_stale(u.e.u);
    mark_stale(u.e.v);
  }
  // Ingest FIRST: a rejected delta (bad edge, strict budget refusal) must
  // not leave a phantom edge in the repair buffer — a later repair would
  // then disagree with a rebuild from the actual resident sketches.  A
  // throw mid-batch leaves an unknowable subset of the deltas resident, so
  // the guard poisons instead of guessing which edges are repair-safe.
  ingest_.deliver(batch, "agm/sketch-update");
  for (const Update& u : batch) {
    // A deletion may split a component; only a fresh Boruvka can see the
    // split (the repair rule, core/query_cache.h).
    if (u.type == UpdateType::kInsert) {
      query_cache().note_link(u.e);
    } else {
      query_cache().note_split();
    }
  }
  if (cluster() != nullptr)
    cluster()->set_usage("agm/sketches", sketches_.allocated_words());
}

AgmStaticConnectivity::QueryResult
AgmStaticConnectivity::query_spanning_forest() {
  // Flush-on-query: the Boruvka below reads the resident sketches.
  flush_ingest();
  const std::uint64_t rounds_before =
      cluster() != nullptr ? cluster()->rounds() : 0;
  QueryResult result;
  Dsu dsu(n_);
  std::vector<VertexId> vertex_ids(n_);
  for (VertexId v = 0; v < n_; ++v) vertex_ids[v] = v;
  unsigned level = 0;
  for (; level < sketches_.banks(); ++level) {
    // One Boruvka level: merge each supernode's sketches (bank `level`)
    // and sample one outgoing edge per supernode.
    if (cluster() != nullptr) {
      cluster()->add_rounds(cluster()->aggregate_rounds(n_) + 1,
                           "agm/query-level");
      cluster()->charge_comm(n_);
    }
    std::span<const std::optional<Edge>> samples = round_zero_;
    if (level == 0) {
      // Every supernode is a singleton: only the stale ones are resampled,
      // and the cache is in vertex order, the singleton groups' order.
      refresh_round_zero();
    } else {
      // Supernode CSR (group id = first appearance of the DSU root in
      // vertex order — deterministic); one level-at-a-time arena pass
      // answers every supernode's boundary query together.  The groups
      // partition V, whose sketches sum to zero, so they form one class
      // and the largest supernode is the complement, never walked.
      group_csr_.build(
          n_,
          [&](std::size_t v) { return dsu.find(static_cast<VertexId>(v)); },
          [&](std::size_t v) {
            return std::span<const VertexId>(&vertex_ids[v], 1);
          });
      one_class_.assign(group_csr_.groups(), 0);
      sketches_.sample_boundaries(level, group_csr_.members(),
                                  group_csr_.offsets(), one_class_,
                                  group_samples_);
      samples = group_samples_;
    }
    bool progress = false;
    for (const auto& e : samples) {
      if (e && dsu.unite(e->u, e->v)) {
        result.forest.push_back(*e);
        progress = true;
      }
    }
    if (!progress) break;
  }
  std::sort(result.forest.begin(), result.forest.end());
  result.components = dsu.num_sets();
  result.levels = level + 1;
  result.rounds =
      cluster() != nullptr ? cluster()->rounds() - rounds_before : 0;
  return result;
}

QueryCache::SnapshotPtr AgmStaticConnectivity::snapshot() {
  // Insert-only since the published snapshot: every buffered edge either
  // merges two cached components (entering the forest) or is swallowed —
  // no Boruvka, no sketch reads.  Otherwise rebuild: one fresh Boruvka,
  // then canonical min-vertex labels from its forest (ascending-v scan, so
  // the first vertex reaching each DSU root is the component minimum).
  return ingest_.serve([&] {
    QueryResult fresh = query_spanning_forest();
    Dsu dsu(n_);
    for (const Edge& e : fresh.forest) dsu.unite(e.u, e.v);
    std::vector<VertexId> min_of_root(n_, kNoVertex);
    QueryCache::Rebuilt out{std::vector<VertexId>(n_), std::move(fresh.forest)};
    for (VertexId v = 0; v < n_; ++v) {
      VertexId& m = min_of_root[dsu.find(v)];
      if (m == kNoVertex) m = v;
      out.labels[v] = m;
    }
    return out;
  });
}

}  // namespace streammpc
