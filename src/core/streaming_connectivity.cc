#include "core/streaming_connectivity.h"

#include <algorithm>

#include "common/check.h"

namespace streammpc {

StreamingConnectivity::StreamingConnectivity(
    VertexId n, GraphSketchConfig sketch, mpc::Cluster* cluster,
    mpc::ExecMode mode, const mpc::SchedulerConfig& scheduler,
    mpc::FaultInjector* fault_injector)
    : n_(n),
      sketches_(n, sketch),
      ingest_(n, sketches_, cluster, mode, scheduler, 0, fault_injector),
      forest_(n),
      labels_(n) {
  for (VertexId v = 0; v < n; ++v) labels_[v] = v;
}

void StreamingConnectivity::apply(const Update& update) {
  if (update.type == UpdateType::kInsert) {
    insert(update.e.u, update.e.v);
  } else {
    erase(update.e.u, update.e.v);
  }
}

void StreamingConnectivity::apply_stream(std::span<const Update> updates) {
  // Buffer sketch deltas between cut queries: the sketch state is only
  // *read* when a tree edge is deleted, so every run of inserts and
  // non-tree deletions can flow through the batched ingest path.  The
  // forest/label bookkeeping still runs per update, in order.
  const QueryCache::PoisonOnThrow guard(query_cache());
  for (const Update& update : updates)
    SMPC_CHECK(make_edge(update.e.u, update.e.v).v < n_);
  if (ingest_.cluster() != nullptr) ingest_.cluster()->begin_phase();
  std::vector<EdgeDelta> pending;
  pending.reserve(updates.size());
  const auto flush = [&] {
    ingest(pending);
    pending.clear();
  };
  for (const Update& update : updates) {
    const Edge e = make_edge(update.e.u, update.e.v);
    if (update.type == UpdateType::kInsert) {
      ++stats_.inserts;
      pending.push_back(EdgeDelta{e, +1});
      insert_forest(e.u, e.v);
    } else {
      // A rejected deletion keeps the prefix applied, sketches included.
      if (labels_[e.u] != labels_[e.v]) flush();
      SMPC_CHECK_MSG(labels_[e.u] == labels_[e.v],
                     "deleting an edge whose endpoints are disconnected");
      ++stats_.deletes;
      pending.push_back(EdgeDelta{e, -1});
      if (forest_.is_tree_edge(e)) flush();  // cut query ahead
      erase_forest(e.u, e.v);
    }
  }
  flush();
}

void StreamingConnectivity::insert(VertexId u, VertexId v) {
  const QueryCache::PoisonOnThrow guard(query_cache());
  const Edge e = make_edge(u, v);
  SMPC_CHECK(e.v < n_);
  ++stats_.inserts;
  // Line 1 of Algorithm 2: the sketches always absorb the update.
  const EdgeDelta d{e, +1};
  ingest(std::span<const EdgeDelta>(&d, 1));
  insert_forest(u, v);
}

void StreamingConnectivity::insert_forest(VertexId u, VertexId v) {
  const Edge e = make_edge(u, v);
  if (labels_[u] == labels_[v]) return;  // non-tree edge
  // Merge: the side with the larger label adopts the smaller one (the
  // component id stays the minimum vertex id of the component).
  const VertexId keep = std::min(labels_[u], labels_[v]);
  for (const VertexId x : forest_.tree_members(labels_[u] == keep ? v : u))
    labels_[x] = keep;
  forest_.link(u, v);
  query_cache().note_link(e);  // the snapshot's forest delta
}

void StreamingConnectivity::erase(VertexId u, VertexId v) {
  const QueryCache::PoisonOnThrow guard(query_cache());
  const Edge e = make_edge(u, v);
  SMPC_CHECK(e.v < n_);
  SMPC_CHECK_MSG(labels_[u] == labels_[v],
                 "deleting an edge whose endpoints are disconnected");
  ++stats_.deletes;
  const EdgeDelta d{e, -1};
  ingest(std::span<const EdgeDelta>(&d, 1));
  erase_forest(u, v);
}

void StreamingConnectivity::erase_forest(VertexId u, VertexId v) {
  const Edge e = make_edge(u, v);
  if (!forest_.is_tree_edge(e)) return;  // non-tree edge: done
  ++stats_.tree_deletes;
  forest_.cut(u, v);  // leaves Z_u and Z_v of §4.2 as two trees
  query_cache().note_cut(e);

  // The cut query below reads the sketches: every buffered delta (this
  // deletion's own -1 included) must be resident first.
  flush_ingest();
  // Query the merged sketch of Z_u for a replacement edge across the cut
  // (Observation 4.3); rotate banks so consecutive deletions use fresh
  // randomness.
  const unsigned bank = next_bank_++ % sketches_.banks();
  const auto replacement =
      sketches_.sample_boundary(bank, forest_.tree_members(u));
  if (replacement.has_value()) {
    // Z_u and Z_v made up one component, so a true boundary edge of Z_u
    // leads into Z_v; anything else is a sampler false positive.
    const Edge r = *replacement;
    const bool joins =
        forest_.same_tree(r.u, u)
            ? forest_.same_tree(r.v, v)
            : forest_.same_tree(r.u, v) && forest_.same_tree(r.v, u);
    SMPC_CHECK_MSG(joins, "sampled replacement edge does not join Z_u to Z_v");
    ++stats_.replacements_found;
    forest_.link(r.u, r.v);
    query_cache().note_link(r);
    // Labels are unchanged: the component stayed whole (Algorithm 3's
    // else-if branch keeps C identical).
    return;
  }
  // No replacement: the component splits; both sides take their minimum
  // vertex id as the new label (Algorithm 3 lines 9-13).
  ++stats_.splits;
  for (const VertexId side : {u, v}) {
    const std::vector<VertexId>& z = forest_.tree_members(side);
    const VertexId label = *std::min_element(z.begin(), z.end());
    for (const VertexId x : z) labels_[x] = label;
  }
}

QueryCache::SnapshotPtr StreamingConnectivity::snapshot() {
  // Derived from the published snapshot: labels_ plus the noted forest
  // links and cuts; spanning_forest() runs only on a first or poisoned
  // build.
  return ingest_.serve(
      [&] { return QueryCache::Rebuilt{labels_, spanning_forest()}; },
      &labels_);
}

std::uint64_t StreamingConnectivity::memory_words() const {
  return sketches_.allocated_words() + forest_.words() + n_;
}

}  // namespace streammpc
