#include "core/streaming_connectivity.h"

#include <algorithm>
#include <queue>

#include "common/check.h"

namespace streammpc {

StreamingConnectivity::StreamingConnectivity(
    VertexId n, GraphSketchConfig sketch, mpc::Cluster* cluster,
    mpc::ExecMode mode, const mpc::SchedulerConfig& scheduler,
    mpc::FaultInjector* fault_injector)
    : n_(n),
      sketches_(n, sketch),
      ingest_(n, sketches_, cluster, mode, scheduler, 0, fault_injector),
      forest_adj_(n),
      labels_(n),
      components_(n) {
  for (VertexId v = 0; v < n; ++v) labels_[v] = v;
}

void StreamingConnectivity::apply(const Update& update) {
  if (update.type == UpdateType::kInsert) {
    insert(update.e.u, update.e.v);
  } else {
    erase(update.e.u, update.e.v);
  }
}

std::vector<VertexId> StreamingConnectivity::collect_tree(VertexId u) const {
  std::vector<VertexId> out{u};
  std::vector<char> seen(n_, 0);
  seen[u] = 1;
  std::queue<VertexId> q;
  q.push(u);
  while (!q.empty()) {
    const VertexId x = q.front();
    q.pop();
    for (const VertexId y : forest_adj_[x]) {
      if (!seen[y]) {
        seen[y] = 1;
        out.push_back(y);
        q.push(y);
      }
    }
  }
  return out;
}

void StreamingConnectivity::relabel(const std::vector<VertexId>& vertices,
                                    VertexId label) {
  for (const VertexId v : vertices) labels_[v] = label;
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
      SMPC_CHECK_MSG(labels_[e.u] == labels_[e.v],
                     "deleting an edge whose endpoints are disconnected");
      ++stats_.deletes;
      pending.push_back(EdgeDelta{e, -1});
      if (forest_adj_[e.u].count(e.v) > 0) flush();  // cut query ahead
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
  forest_adj_[e.u].insert(e.v);
  forest_adj_[e.v].insert(e.u);
  ++forest_edges_;
  query_cache().note_link(e);  // the snapshot's forest delta
  const VertexId keep = std::min(labels_[u], labels_[v]);
  const VertexId losing = labels_[u] == keep ? v : u;
  relabel(collect_tree(losing), keep);
  --components_;
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
  const auto it = forest_adj_[e.u].find(e.v);
  if (it == forest_adj_[e.u].end()) return;  // non-tree edge: done
  ++stats_.tree_deletes;
  forest_adj_[e.u].erase(it);
  forest_adj_[e.v].erase(e.u);
  --forest_edges_;
  query_cache().note_cut(e);

  // Components Z_u and Z_v of F after the split (§4.2).
  const auto zu = collect_tree(u);
  const auto zv = collect_tree(v);

  // The cut query below reads the sketches: every buffered delta (this
  // deletion's own -1 included) must be resident first.
  flush_ingest();
  // Query the merged sketch of Z_u for a replacement edge across the cut
  // (Observation 4.3); rotate banks so consecutive deletions use fresh
  // randomness.
  const unsigned bank = next_bank_++ % sketches_.banks();
  const auto replacement = sketches_.sample_boundary(
      bank, std::span<const VertexId>(zu.data(), zu.size()));
  if (replacement.has_value()) {
    ++stats_.replacements_found;
    forest_adj_[replacement->u].insert(replacement->v);
    forest_adj_[replacement->v].insert(replacement->u);
    ++forest_edges_;
    query_cache().note_link(*replacement);
    // Labels are unchanged: the component stayed whole (Algorithm 3's
    // else-if branch keeps C identical).
    return;
  }
  // No replacement: the component splits; both sides take their minimum
  // vertex id as the new label (Algorithm 3 lines 9-13).
  ++stats_.splits;
  ++components_;
  relabel(zu, *std::min_element(zu.begin(), zu.end()));
  relabel(zv, *std::min_element(zv.begin(), zv.end()));
}

std::vector<Edge> StreamingConnectivity::spanning_forest() const {
  std::vector<Edge> out;
  out.reserve(forest_edges_);
  for (VertexId u = 0; u < n_; ++u) {
    for (const VertexId v : forest_adj_[u]) {
      if (u < v) out.push_back(Edge{u, v});
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool StreamingConnectivity::is_tree_edge(Edge e) const {
  return forest_adj_[e.u].count(e.v) > 0;
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
  return sketches_.allocated_words() + 2 * forest_edges_ + n_;
}

}  // namespace streammpc
