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

void QueryCache::install(std::shared_ptr<QuerySnapshot> snap,
                         std::uint64_t epoch) {
  snap->version = next_version_++;
  snap->epoch = epoch;
  built_epoch_ = epoch;
  // The slot's release unlock orders every byte of the fully-built
  // snapshot before any reader's copy of the pointer.
  snapshot_.store(std::move(snap));
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
  build_components(*snap);
  ++stats_.rebuilds;
  SnapshotPtr result = snap;
  install(std::move(snap), epoch);
  return result;
}

QueryCache::SnapshotPtr QueryCache::repair(std::uint64_t epoch,
                                           std::span<const Edge> inserted) {
  const SnapshotPtr prev = snapshot();
  if (prev == nullptr) return nullptr;
  auto snap = std::make_shared<QuerySnapshot>();
  snap->labels = prev->labels;
  snap->forest = prev->forest;
  // Union over the previous snapshot's component labels: insertions only
  // merge, so uniting endpoint labels reproduces exactly the partition a
  // rebuild would find.  Dsu roots are arbitrary; the canonical (minimum)
  // label of each merged set is tracked alongside.
  const VertexId n = prev->n();
  Dsu dsu(n);
  std::vector<VertexId> min_label(n);
  for (VertexId v = 0; v < n; ++v) min_label[v] = v;
  for (const Edge& e : inserted) {
    SMPC_CHECK(e.u < n && e.v < n);
    const VertexId lu = dsu.find(snap->labels[e.u]);
    const VertexId lv = dsu.find(snap->labels[e.v]);
    if (lu == lv) continue;  // already connected — not a tree edge
    dsu.unite(lu, lv);
    const VertexId root = dsu.find(lu);
    min_label[root] = std::min(min_label[lu], min_label[lv]);
    snap->forest.push_back(make_edge(e.u, e.v));
  }
  for (VertexId v = 0; v < n; ++v)
    snap->labels[v] = min_label[dsu.find(snap->labels[v])];
  std::sort(snap->forest.begin(), snap->forest.end());
  build_components(*snap);
  ++stats_.repairs;
  SnapshotPtr result = snap;
  install(std::move(snap), epoch);
  return result;
}

void QueryCache::invalidate() {
  if (built_epoch_ == kNeverBuilt) return;
  built_epoch_ = kNeverBuilt;
  ++stats_.invalidations;
}

void QueryCache::note_link(const Edge& e) {
  if (!repairable_) return;
  if (pending_.size() >= pending_cap_) {
    // Repairing from a truncated list would drop the overflowed edges from
    // the served labels: stop buffering and rebuild instead.
    repairable_ = false;
    pending_.clear();
    return;
  }
  pending_.push_back(e);
}

void QueryCache::note_split() {
  repairable_ = false;
  pending_.clear();
  invalidate();
}

QueryCache::SnapshotPtr QueryCache::serve(
    std::uint64_t epoch, const std::function<Rebuilt()>& rebuild) {
  if (auto snap = acquire(epoch)) return snap;
  SnapshotPtr snap = repairable_ ? repair(epoch, pending_) : nullptr;
  if (snap == nullptr) {
    Rebuilt fresh = rebuild();
    snap = publish(epoch, std::move(fresh.labels), std::move(fresh.forest));
    repairable_ = true;
  }
  pending_.clear();
  return snap;
}

}  // namespace streammpc
