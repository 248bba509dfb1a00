#include "core/query_cache.h"

#include <algorithm>

#include "common/check.h"
#include "graph/reference.h"

namespace streammpc {

void QueryCache::build_components(QuerySnapshot& snap) {
  const VertexId n = snap.n();
  // First-appearance grouping: scanning v = 0..n-1, a vertex whose label
  // equals itself opens a new group (labels are min-vertex canonical, so
  // the minimum of every component is its own label and appears before any
  // other member).  Counting pass sizes the CSR, placement pass fills it —
  // no hash map, two linear scans.
  snap.comp_labels.clear();
  std::vector<std::uint32_t> group_of_label;  // indexed by label (a vertex id)
  group_of_label.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    if (snap.labels[v] == v) {
      group_of_label[v] = static_cast<std::uint32_t>(snap.comp_labels.size());
      snap.comp_labels.push_back(v);
    }
  }
  const std::size_t groups = snap.comp_labels.size();
  snap.comp_offsets.assign(groups + 1, 0);
  for (VertexId v = 0; v < n; ++v)
    ++snap.comp_offsets[group_of_label[snap.labels[v]] + 1];
  for (std::size_t g = 0; g < groups; ++g)
    snap.comp_offsets[g + 1] += snap.comp_offsets[g];
  snap.comp_members.resize(n);
  std::vector<std::uint32_t> cursor(snap.comp_offsets.begin(),
                                    snap.comp_offsets.end() - 1);
  for (VertexId v = 0; v < n; ++v)
    snap.comp_members[cursor[group_of_label[snap.labels[v]]]++] = v;
}

std::vector<Edge> QueryCache::merge_forest(std::span<const Edge> prev,
                                           std::vector<EdgeDelta>& delta) {
  // Net count per edge: within one query window an edge may be linked and
  // then cut, or cut and then relinked.
  std::sort(delta.begin(), delta.end(),
            [](const EdgeDelta& a, const EdgeDelta& b) { return a.e < b.e; });
  std::size_t folded = 0;
  for (const EdgeDelta& d : delta) {
    if (folded > 0 && delta[folded - 1].e == d.e) {
      delta[folded - 1].delta += d.delta;
    } else {
      delta[folded++] = d;
    }
  }
  delta.resize(folded);
  // One pass: the unchanged runs of `prev` between two delta edges are
  // block-copied, so the cost is one copy of the forest plus a binary
  // search per delta edge.
  std::vector<Edge> out;
  out.reserve(prev.size() + delta.size());
  auto it = prev.begin();
  for (const EdgeDelta& d : delta) {
    const auto next = std::lower_bound(it, prev.end(), d.e);
    out.insert(out.end(), it, next);
    it = next;
    const bool present = it != prev.end() && *it == d.e;
    const std::int64_t count = (present ? 1 : 0) + d.delta;
    SMPC_CHECK_MSG(count == 0 || count == 1,
                   "forest delta leaves an edge outside multiplicity {0,1}");
    if (present) ++it;
    if (count == 1) out.push_back(d.e);
  }
  out.insert(out.end(), it, prev.end());
  return out;
}

QueryCache::SnapshotPtr QueryCache::install(std::shared_ptr<QuerySnapshot> snap,
                                            std::uint64_t epoch) {
  build_components(*snap);
  snap->version = next_version_++;
  snap->epoch = epoch;
  built_epoch_ = epoch;
  SnapshotPtr result = snap;
  // The slot's release unlock orders every byte of the fully-built
  // snapshot before any reader's copy of the pointer.
  snapshot_.store(std::move(snap));
  return result;
}

QueryCache::SnapshotPtr QueryCache::acquire(std::uint64_t epoch) {
  if (valid(epoch)) {
    ++stats_.hits;
    return snapshot();
  }
  ++stats_.misses;
  return nullptr;
}

QueryCache::SnapshotPtr QueryCache::publish(std::uint64_t epoch,
                                            std::vector<VertexId> labels,
                                            std::vector<Edge> forest) {
  auto snap = std::make_shared<QuerySnapshot>();
  snap->labels = std::move(labels);
  snap->forest = std::move(forest);
  ++stats_.rebuilds;
  return install(std::move(snap), epoch);
}

QueryCache::SnapshotPtr QueryCache::derive(std::uint64_t epoch,
                                           const QuerySnapshot& prev,
                                           const std::vector<VertexId>& labels) {
  SMPC_CHECK(labels.size() == prev.labels.size());
  auto snap = std::make_shared<QuerySnapshot>();
  snap->labels = labels;
  snap->forest = merge_forest(prev.forest, pending_);
  ++stats_.repairs;
  return install(std::move(snap), epoch);
}

QueryCache::SnapshotPtr QueryCache::repair(std::uint64_t epoch,
                                           const QuerySnapshot& prev) {
  auto snap = std::make_shared<QuerySnapshot>();
  snap->labels = prev.labels;
  // Union over the previous snapshot's component labels: insertions only
  // merge, so uniting endpoint labels reproduces exactly the partition a
  // rebuild would find.  Dsu roots are arbitrary; the canonical (minimum)
  // label of each merged set is tracked alongside.  The edges that merge
  // two sets are compacted to the front of pending_ as the forest delta.
  const VertexId n = prev.n();
  Dsu dsu(n);
  std::vector<VertexId> min_label(n);
  for (VertexId v = 0; v < n; ++v) min_label[v] = v;
  std::size_t links = 0;
  for (const EdgeDelta& d : pending_) {
    SMPC_CHECK(d.delta == 1 && d.e.v < n);
    const VertexId lu = dsu.find(snap->labels[d.e.u]);
    const VertexId lv = dsu.find(snap->labels[d.e.v]);
    if (lu == lv) continue;  // already connected — not a tree edge
    dsu.unite(lu, lv);
    min_label[dsu.find(lu)] = std::min(min_label[lu], min_label[lv]);
    pending_[links++] = d;
  }
  pending_.resize(links);
  for (VertexId v = 0; v < n; ++v)
    snap->labels[v] = min_label[dsu.find(snap->labels[v])];
  snap->forest = merge_forest(prev.forest, pending_);
  ++stats_.repairs;
  return install(std::move(snap), epoch);
}

void QueryCache::invalidate() {
  if (built_epoch_ == kNeverBuilt) return;
  built_epoch_ = kNeverBuilt;
  ++stats_.invalidations;
}

void QueryCache::note(const Edge& e, std::int64_t delta) {
  if (!incremental_) return;
  if (pending_.size() >= pending_cap_) {
    // Building from a truncated delta would drop the overflowed changes
    // from the served snapshot: stop buffering and rebuild instead.
    incremental_ = false;
    pending_.clear();
    return;
  }
  pending_.push_back(EdgeDelta{make_edge(e.u, e.v), delta});
}

void QueryCache::note_link(const Edge& e) { note(e, +1); }

void QueryCache::note_cut(const Edge& e) { note(e, -1); }

void QueryCache::note_split() {
  incremental_ = false;
  pending_.clear();
  invalidate();
}

QueryCache::SnapshotPtr QueryCache::serve(
    std::uint64_t epoch, const std::function<Rebuilt()>& rebuild,
    const std::vector<VertexId>* labels) {
  if (auto snap = acquire(epoch)) return snap;
  SnapshotPtr snap;
  const SnapshotPtr prev = snapshot();
  if (incremental_ && prev != nullptr) {
    snap = labels != nullptr ? derive(epoch, *prev, *labels)
                             : repair(epoch, *prev);
  } else {
    Rebuilt fresh = rebuild();
    snap = publish(epoch, std::move(fresh.labels), std::move(fresh.forest));
    incremental_ = true;
  }
  pending_.clear();
  return snap;
}

}  // namespace streammpc
