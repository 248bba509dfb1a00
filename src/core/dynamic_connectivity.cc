#include "core/dynamic_connectivity.h"

#include <algorithm>
#include <unordered_map>

#include "common/check.h"
#include "graph/reference.h"
#include "mpc/primitives.h"

namespace streammpc {

namespace {
// The Boruvka replacement search stops after this many consecutive levels
// in which no group recovered any edge (robustness against individual
// sampler failures; 1 would be the paper's bare loop).
constexpr unsigned kBoruvkaPatience = 2;
}  // namespace

std::pair<std::vector<Update>, std::vector<Update>> normalize_batch(
    const Batch& batch) {
  // Net effect per edge: +1 (insert), -1 (delete), or 0 (offsetting pair).
  // The stream is valid (§1.2), so the net can never leave {-1, 0, +1}.
  std::unordered_map<Edge, int, EdgeHash> net;
  std::unordered_map<Edge, Weight, EdgeHash> weight;
  for (const Update& u : batch) {
    const int delta = u.type == UpdateType::kInsert ? 1 : -1;
    const int now = (net[u.e] += delta);
    SMPC_CHECK_MSG(-1 <= now && now <= 1, "invalid update multiplicity");
    weight[u.e] = u.w;
  }
  std::vector<Update> ins;
  std::vector<Update> del;
  for (const Update& u : batch) {  // preserve batch order deterministically
    auto it = net.find(u.e);
    if (it == net.end()) continue;
    if (it->second > 0) ins.push_back(Update{UpdateType::kInsert, u.e, weight[u.e]});
    if (it->second < 0) del.push_back(Update{UpdateType::kDelete, u.e, weight[u.e]});
    net.erase(it);
  }
  return {std::move(ins), std::move(del)};
}

DynamicConnectivity::DynamicConnectivity(VertexId n,
                                         const ConnectivityConfig& config,
                                         mpc::Cluster* cluster)
    : n_(n),
      config_(config),
      sketches_(n, config.sketch),
      ingest_(n, sketches_, cluster, config.exec_mode, config.scheduler,
              config.simulator_scratch_words, config.fault_injector),
      forest_(n, cluster),
      labels_(n) {
  if (config_.async_ingest)
    ingest_.enable_async(config_.gutter, "connectivity/sketch-update");
  for (VertexId v = 0; v < n; ++v) labels_[v] = v;
  publish_usage();
}

void DynamicConnectivity::apply_batch(const Batch& batch) {
  // Reject a malformed batch (an edge whose net multiplicity leaves
  // {-1, 0, +1}) before anything is charged, counted or poisoned.
  auto [ins, del] = normalize_batch(batch);
  const QueryCache::PoisonOnThrow guard(query_cache());
  if (cluster() != nullptr) cluster()->begin_phase();
  ++stats_.batches;

  // Preprocessing: the batch arrives scattered over machines and is sorted
  // onto a dedicated machine in O(1) rounds (§1.2, [GSZ11]).
  mpc::sort(cluster(), batch.size(), "connectivity/preprocess");
  mpc::gather_to_one(cluster(), 2 * batch.size(), "connectivity/batch");

  if (!ins.empty()) apply_inserts(ins);
  if (!del.empty()) apply_deletes(del);
  publish_usage();
}

void DynamicConnectivity::apply_inserts(const std::vector<Update>& ins) {
  stats_.inserts += ins.size();

  // Sketch updates: one batched, bank-parallel ingest, routed to the
  // machines hosting the endpoint sketches (§6.1).
  ingest_.deliver(ins, "connectivity/sketch-update");

  // Auxiliary graph H over affected components (Claim 6.1): one vertex per
  // component, one edge per insert joining two distinct components; its
  // spanning forest F_H (local DSU on one machine) is the set of new tree
  // edges.
  std::unordered_map<VertexId, std::uint32_t> comp_index;
  std::vector<Edge> f_h;
  std::optional<Dsu> dsu;
  std::vector<VertexId> touched;
  touched.reserve(2 * ins.size());
  // Two passes: collect components, then run the local DSU.
  for (const Update& u : ins) {
    touched.push_back(u.e.u);
    touched.push_back(u.e.v);
  }
  std::vector<std::pair<std::uint32_t, std::uint32_t>> cand;
  for (const Update& u : ins) {
    const VertexId cu = labels_[u.e.u];
    const VertexId cv = labels_[u.e.v];
    if (cu == cv) continue;  // non-tree edge: sketches only
    const auto iu = comp_index.try_emplace(cu, comp_index.size()).first->second;
    const auto iv = comp_index.try_emplace(cv, comp_index.size()).first->second;
    cand.emplace_back(iu, iv);
    f_h.push_back(u.e);  // aligned with cand
  }
  mpc::gather_to_one(cluster(), 2 * f_h.size() + comp_index.size(),
                     "connectivity/aux-H");
  std::vector<Edge> links;
  if (!cand.empty()) {
    dsu.emplace(comp_index.size());
    for (std::size_t i = 0; i < cand.size(); ++i) {
      if (dsu->unite(static_cast<VertexId>(cand[i].first),
                     static_cast<VertexId>(cand[i].second))) {
        links.push_back(f_h[i]);
      }
    }
  }
  stats_.tree_inserts += links.size();
  forest_.batch_link(links);
  // Every forest change enters the cache's delta, so the next snapshot()
  // derives its forest instead of sorting tree_edges() again.
  for (const Edge& e : links) query_cache().note_link(e);
  relabel_trees_of(touched);
}

void DynamicConnectivity::apply_deletes(const std::vector<Update>& del) {
  stats_.deletes += del.size();
  ingest_.deliver(del, "connectivity/sketch-update");
  // Replacement-edge sampling below reads the sketches: every buffered
  // delta (earlier insert batches included) must be resident first.
  flush_ingest();

  std::vector<Edge> cuts;
  std::vector<VertexId> touched;
  touched.reserve(2 * del.size());
  for (const Update& u : del) {
    touched.push_back(u.e.u);
    touched.push_back(u.e.v);
    if (forest_.is_tree_edge(u.e)) cuts.push_back(u.e);
  }
  stats_.tree_deletes += cuts.size();
  if (cuts.empty()) {  // non-tree deletions only: nothing else to do
    relabel_trees_of(touched);
    return;
  }
  forest_.batch_cut(cuts);
  for (const Edge& e : cuts) query_cache().note_cut(e);

  // Fragments: the trees now holding the endpoints of the cut edges; every
  // fragment of an affected component contains at least one such endpoint.
  std::vector<TourId> fragments;
  {
    std::unordered_map<TourId, std::uint32_t> seen;
    for (const Edge& e : cuts) {
      for (const VertexId x : {e.u, e.v}) {
        const TourId t = forest_.tour_of(x);
        if (seen.try_emplace(t, seen.size()).second) fragments.push_back(t);
      }
    }
  }
  std::unordered_map<TourId, std::uint32_t> frag_index;
  for (std::uint32_t i = 0; i < fragments.size(); ++i)
    frag_index[fragments[i]] = i;

  // Zero-sum classes: the fragments of one pre-cut tree, rejoined through
  // its cut edges (class id = first appearance of the DSU root in fragment
  // order).  Each such tree spanned a whole component before the batch's
  // deletes (the header's INVARIANT), and deletes only split components,
  // so every class covers whole components of the sketched graph and its
  // groups' sketches sum to zero — the precondition of the class-aware
  // sample_boundaries.
  {
    Dsu trees(fragments.size());
    for (const Edge& e : cuts) {
      trees.unite(frag_index.at(forest_.tour_of(e.u)),
                  frag_index.at(forest_.tour_of(e.v)));
    }
    constexpr std::uint32_t kNone = ~0u;
    fragment_class_.assign(fragments.size(), kNone);
    std::uint32_t classes = 0;
    for (std::uint32_t i = 0; i < fragments.size(); ++i) {
      std::uint32_t& root_class = fragment_class_[trees.find(i)];
      if (root_class == kNone) root_class = classes++;
      fragment_class_[i] = root_class;
    }
  }

  // Merge per-fragment sketches (fan-in-s trees, O(1/phi) rounds) and
  // gather them all on one machine (Lemma 6.5).
  const std::uint64_t banks = sketches_.banks();
  const std::uint64_t levels_cap = banks;
  mpc::aggregate(cluster(), n_, 1, "connectivity/sketch-merge");
  mpc::gather_to_one(
      cluster(),
      fragments.size() * levels_cap *
          sketches_.params(0).nominal_words(),
      "connectivity/boruvka-gather");

  // Local AGM/Boruvka over the fragments (§6.3, "Constructing F_H").
  Dsu groups(fragments.size());
  std::vector<Edge> replacements;
  unsigned bank = 0;
  unsigned empty_streak = 0;
  while (bank < banks) {
    ++stats_.boruvka_levels;
    // Group the fragments (group id = first appearance of the DSU root in
    // fragment order — deterministic) and lay every group's vertex list
    // out as one CSR, so the whole level is answered by a single
    // level-at-a-time pass over the bank's arena.
    group_csr_.build(
        fragments.size(),
        [&](std::size_t i) {
          return groups.find(static_cast<VertexId>(i));
        },
        [&](std::size_t i) {
          const auto& members = forest_.members_of(fragments[i]);
          return std::span<const VertexId>(members.data(), members.size());
        });
    if (group_csr_.groups() <= 1) break;
    // A group never leaves its class (replacement edges stay inside the
    // pre-cut tree's component), so any member fragment names its class.
    group_class_.resize(group_csr_.groups());
    const auto item_groups = group_csr_.item_groups();
    for (std::size_t i = 0; i < fragments.size(); ++i)
      group_class_[item_groups[i]] = fragment_class_[i];
    sketches_.sample_boundaries(bank, group_csr_.members(),
                                group_csr_.offsets(), group_class_,
                                group_samples_);

    bool any_edge = false;
    bool any_union = false;
    for (const auto& edge : group_samples_) {
      if (!edge) continue;
      any_edge = true;
      // Both endpoints necessarily lie in fragments of the same original
      // component (total memory stores no inter-component edges).
      const auto ia = frag_index.find(forest_.tour_of(edge->u));
      const auto ib = frag_index.find(forest_.tour_of(edge->v));
      SMPC_CHECK_MSG(ia != frag_index.end() && ib != frag_index.end(),
                     "sampled replacement edge leaves the fragment set");
      if (groups.unite(static_cast<VertexId>(ia->second),
                       static_cast<VertexId>(ib->second))) {
        replacements.push_back(*edge);
        any_union = true;
      }
    }
    ++bank;
    if (!any_edge) {
      ++stats_.empty_levels;
      ++empty_streak;
      if (empty_streak >= kBoruvkaPatience) break;
    } else {
      empty_streak = 0;
      if (!any_union) break;  // every group sampled only intra-group? cannot
                              // happen; defensive stop
    }
  }
  stats_.max_banks_used = std::max<std::uint64_t>(stats_.max_banks_used, bank);
  stats_.replacements_found += replacements.size();

  // Re-join via the insertion machinery (§6.3's final step).
  forest_.batch_link(replacements);
  for (const Edge& e : replacements) query_cache().note_link(e);
  relabel_trees_of(touched);
}

void DynamicConnectivity::relabel_trees_of(const std::vector<VertexId>& touched) {
  // Recompute the min-vertex label of every tree containing a touched
  // vertex.  Every tree whose composition changed contains at least one
  // endpoint of the batch (replacement edges live in trees that also hold
  // cut endpoints), so this covers all label changes.  O(1) rounds: the
  // minima are tree aggregations, the labels a broadcast back.
  mpc::aggregate(cluster(), n_, 1, "connectivity/relabel");
  std::unordered_map<TourId, char> done;
  for (const VertexId x : touched) {
    const TourId t = forest_.tour_of(x);
    if (!done.try_emplace(t, 1).second) continue;
    const auto& members = forest_.tree_members(x);
    VertexId label = members.front();
    for (const VertexId v : members) label = std::min(label, v);
    for (const VertexId v : members) labels_[v] = label;
  }
}

void DynamicConnectivity::bootstrap(std::span<const Edge> edges) {
  SMPC_CHECK_MSG(stats_.batches == 0 && forest_.tree_edges().empty(),
                 "bootstrap requires a fresh structure");
  const QueryCache::PoisonOnThrow guard(query_cache());
  if (cluster() != nullptr) {
    cluster()->begin_phase();
    // Static connectivity in O(log n) rounds [AGM12, NO21]: route the m
    // edges (a sort), then O(log n) Boruvka-style contraction rounds.
    std::uint64_t lg = 1;
    while ((1ULL << lg) < n_) ++lg;
    cluster()->add_rounds(cluster()->sort_rounds(edges.size()) + lg,
                         "connectivity/bootstrap");
  }
  // Sketches absorb every edge; the spanning forest comes from one local
  // static computation, installed with a single batch join.
  Dsu dsu(n_);
  std::vector<Edge> forest_edges;
  std::vector<VertexId> touched;
  std::vector<EdgeDelta> deltas;
  deltas.reserve(edges.size());
  for (const Edge& e : edges) {
    deltas.push_back(EdgeDelta{e, +1});
    ++stats_.inserts;
    if (dsu.unite(e.u, e.v)) {
      forest_edges.push_back(e);
      touched.push_back(e.u);
    }
  }
  ingest_.deliver(deltas, "connectivity/bootstrap");
  stats_.tree_inserts += forest_edges.size();
  forest_.batch_link(forest_edges);
  for (const Edge& e : forest_edges) query_cache().note_link(e);
  relabel_trees_of(touched);
  publish_usage();
}

std::vector<bool> DynamicConnectivity::batch_query(
    std::span<const std::pair<VertexId, VertexId>> pairs) {
  if (cluster() != nullptr) {
    cluster()->begin_phase();
    mpc::sort(cluster(), pairs.size(), "connectivity/query-batch");
    cluster()->note_object(2 * pairs.size(), "connectivity/query-batch");
  }
  std::vector<bool> out;
  out.reserve(pairs.size());
  for (const auto& [u, v] : pairs) out.push_back(same_component(u, v));
  return out;
}

QueryCache::SnapshotPtr DynamicConnectivity::snapshot() {
  // The cache derives the next snapshot from the published one: a copy of
  // labels_ plus the previous forest merged with the noted links and cuts
  // — no forest walk, no sort, no sketch reads.  Only a first or poisoned
  // build sorts tree_edges().
  return ingest_.serve(
      [&] { return QueryCache::Rebuilt{labels_, spanning_forest()}; },
      &labels_);
}

std::vector<std::vector<VertexId>> DynamicConnectivity::components() {
  mpc::sort(cluster(), n_, "connectivity/report-components");
  // Materialized from the snapshot's CSR, which is built once per mutation
  // epoch in the same deterministic first-appearance order this function
  // used to recompute (hash-map regroup) on every call.
  const auto snap = snapshot();
  std::vector<std::vector<VertexId>> out(snap->components());
  for (std::size_t g = 0; g < out.size(); ++g) {
    const auto members = snap->component(g);
    out[g].assign(members.begin(), members.end());
  }
  return out;
}

std::uint64_t DynamicConnectivity::memory_words() const {
  return sketches_.allocated_words() + forest_.words() + n_;
}

void DynamicConnectivity::publish_usage() {
  if (cluster() == nullptr) return;
  cluster()->set_usage(config_.ledger_prefix + "/sketches",
                      sketches_.allocated_words());
  cluster()->set_usage(config_.ledger_prefix + "/forest", forest_.words());
  cluster()->set_usage(config_.ledger_prefix + "/labels", n_);
}

}  // namespace streammpc
