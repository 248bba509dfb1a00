#include "euler/tour_forest.h"

#include <algorithm>

#include "common/check.h"

namespace streammpc {

EulerTourForest::EulerTourForest(VertexId n, mpc::Cluster* cluster)
    : n_(n), cluster_(cluster) {
  SMPC_CHECK(n >= 1);
  tours_.resize(n);
  members_.resize(n);
  tour_of_.resize(n);
  f_.assign(n, 0);
  l_.assign(n, 0);
  stamp_.assign(n, 0);
  for (VertexId v = 0; v < n; ++v) {
    tour_of_[v] = v;
    members_[v] = {v};
  }
  live_tours_ = n;
}

void EulerTourForest::charge(std::uint64_t rounds, std::uint64_t comm_words,
                             const char* label) {
  if (cluster_ == nullptr) return;
  cluster_->add_rounds(rounds, label);
  cluster_->charge_comm(comm_words);
}

TourId EulerTourForest::alloc_tour() {
  if (!free_ids_.empty()) {
    const TourId t = free_ids_.back();
    free_ids_.pop_back();
    ++live_tours_;
    return t;
  }
  tours_.emplace_back();
  members_.emplace_back();
  ++live_tours_;
  return static_cast<TourId>(tours_.size() - 1);
}

void EulerTourForest::free_tour(TourId t) {
  tours_[t].clear();
  tours_[t].shrink_to_fit();
  members_[t].clear();
  members_[t].shrink_to_fit();
  free_ids_.push_back(t);
  --live_tours_;
}

void EulerTourForest::reindex(TourId t, VertexId singleton_member) {
  const std::vector<VertexId>& tour = tours_[t];
  members_[t].clear();
  if (tour.empty()) {
    SMPC_CHECK_MSG(singleton_member != kNoVertex,
                   "reindex of empty tour needs its singleton member");
    members_[t] = {singleton_member};
    tour_of_[singleton_member] = t;
    f_[singleton_member] = 0;
    l_[singleton_member] = 0;
    return;
  }
  ++current_stamp_;
  for (std::uint32_t i = 0; i < tour.size(); ++i) {
    const VertexId x = tour[i];
    if (stamp_[x] != current_stamp_) {
      stamp_[x] = current_stamp_;
      members_[t].push_back(x);
      tour_of_[x] = t;
      f_[x] = i;
    }
    l_[x] = i;
  }
}

void EulerTourForest::make_root(VertexId v) {
  charge(cluster_ ? cluster_->broadcast_rounds() : 0,
         cluster_ ? cluster_->machines() : 0, "euler/rooting");
  make_root_impl(v);
}

void EulerTourForest::make_root_impl(VertexId v) {
  SMPC_CHECK(v < n_);
  const TourId t = tour_of_[v];
  std::vector<VertexId>& tour = tours_[t];
  if (tour.empty()) return;         // singleton: already rooted
  if (tour.front() == v) return;    // already the root
  // Rotating the cyclic occurrence sequence to start right after the last
  // occurrence of v yields the Euler tour of the tree rooted at v — the
  // sequence form of the paper's index map i' = (i + L - l(v)) mod L + 1.
  std::rotate(tour.begin(), tour.begin() + l_[v], tour.end());
  reindex(t);
  SMPC_CHECK(tour.front() == v && tour.back() == v);
}

void EulerTourForest::link(VertexId u, VertexId v) {
  charge(cluster_ ? 3 * cluster_->broadcast_rounds() : 0,
         cluster_ ? 3 * cluster_->machines() : 0, "euler/join");
  SMPC_CHECK(u < n_ && v < n_);
  SMPC_CHECK_MSG(tour_of_[u] != tour_of_[v], "link endpoints in same tree");
  make_root_impl(u);
  make_root_impl(v);
  const TourId tu = tour_of_[u];
  const TourId tv = tour_of_[v];
  std::vector<VertexId>& a = tours_[tu];
  std::vector<VertexId>& b = tours_[tv];
  // New tour rooted at u: A ++ [u, v] ++ B ++ [v, u].
  a.reserve(a.size() + b.size() + 4);
  a.push_back(u);
  a.push_back(v);
  a.insert(a.end(), b.begin(), b.end());
  a.push_back(v);
  a.push_back(u);
  tree_edges_.insert(make_edge(u, v));
  free_tour(tv);
  reindex(tu);
}

void EulerTourForest::cut(VertexId u, VertexId v) {
  charge(cluster_ ? 2 * cluster_->broadcast_rounds() : 0,
         cluster_ ? 2 * cluster_->machines() : 0, "euler/split");
  const Edge e = make_edge(u, v);
  SMPC_CHECK_MSG(tree_edges_.count(e), "cut of a non-tree edge");
  const TourId t = tour_of_[u];
  SMPC_CHECK(t == tour_of_[v]);
  // The child endpoint (w.r.t. the current root) is the one whose
  // occurrence interval is nested inside the other's, i.e. with larger f.
  const VertexId child = f_[u] > f_[v] ? u : v;
  // Allocate the subtree's tour id *before* taking a reference into
  // tours_ — alloc_tour() may grow the vector and invalidate references.
  const TourId sub = alloc_tour();
  std::vector<VertexId>& tour = tours_[t];
  const std::uint32_t lo = f_[child];
  const std::uint32_t hi = l_[child];
  SMPC_CHECK(lo >= 1 && hi + 1 < tour.size());

  // Subtree tour = (lo, hi) exclusive of the child's boundary occurrences;
  // the parent's boundary occurrences at lo-1 and hi+1 disappear with the
  // edge (the paper's index-set deletions).
  tours_[sub].assign(tour.begin() + lo + 1, tour.begin() + hi);
  tour.erase(tour.begin() + (lo - 1), tour.begin() + hi + 2);

  tree_edges_.erase(e);
  reindex(sub, child);
  const VertexId parent_side = child == u ? v : u;
  reindex(t, parent_side);
}

std::vector<Edge> EulerTourForest::identify_path(VertexId u, VertexId v) {
  charge(cluster_ ? 2 * cluster_->broadcast_rounds() : 0,
         cluster_ ? 2 * cluster_->machines() : 0, "euler/identify-path");
  SMPC_CHECK_MSG(same_tree(u, v), "identify_path endpoints in different trees");
  return path_impl(u, v);
}

std::vector<Edge> EulerTourForest::path_impl(VertexId u, VertexId v) {
  std::vector<Edge> path;
  if (u == v) return path;
  make_root_impl(u);
  // With u as root, the first occurrence of any non-root x is the descent
  // entry of the edge (parent(x), x), so tour[f(x) - 1] == parent(x); the
  // u..v path is v's ancestor chain (the sequence form of Lemma 7.2's
  // interval conditions).
  const std::vector<VertexId>& tour = tours_[tour_of_[u]];
  VertexId x = v;
  while (x != u) {
    SMPC_CHECK(f_[x] >= 1);
    const VertexId p = tour[f_[x] - 1];
    path.push_back(make_edge(p, x));
    x = p;
  }
  return path;
}

std::vector<std::vector<Edge>> EulerTourForest::batch_identify_paths(
    std::span<const std::pair<VertexId, VertexId>> pairs) {
  // Validate every pair before the charge and the first re-rooting.
  for (const auto& [u, v] : pairs) {
    SMPC_CHECK(u < n_ && v < n_);
    SMPC_CHECK_MSG(same_tree(u, v),
                   "batch_identify_paths endpoints in different trees");
  }
  charge(cluster_ ? 2 * cluster_->broadcast_rounds() + 1 : 0,
         cluster_ ? pairs.size() * (cluster_->machines() + 1) : 0,
         "euler/batch-identify-path");
  std::vector<std::vector<Edge>> paths;
  paths.reserve(pairs.size());
  for (const auto& [u, v] : pairs) paths.push_back(path_impl(u, v));
  return paths;
}

void EulerTourForest::sequential_link(std::span<const Edge> links) {
  for (const Edge& e : links) link(e.u, e.v);
}

void EulerTourForest::sequential_cut(std::span<const Edge> cuts) {
  for (const Edge& e : cuts) cut(e.u, e.v);
}

void EulerTourForest::validate() const {
  std::vector<char> seen(n_, 0);
  std::size_t live_seen = 0;
  for (TourId t = 0; t < tours_.size(); ++t) {
    if (std::find(free_ids_.begin(), free_ids_.end(), t) != free_ids_.end())
      continue;
    ++live_seen;
    const auto& tour = tours_[t];
    const auto& mem = members_[t];
    SMPC_CHECK(!mem.empty());
    for (VertexId x : mem) {
      SMPC_CHECK(!seen[x]);
      seen[x] = 1;
      SMPC_CHECK(tour_of_[x] == t);
    }
    if (tour.empty()) {
      SMPC_CHECK_MSG(mem.size() == 1, "empty tour must be a singleton tree");
      continue;
    }
    SMPC_CHECK(tour.size() == 4 * (mem.size() - 1));
    SMPC_CHECK(tour.front() == tour.back());
    // Occurrence structure: f/l consistent, parent entries are tree edges,
    // and the parent-edge set reconstructs exactly the tree's edges.
    std::size_t tree_edge_count = 0;
    for (VertexId x : mem) {
      SMPC_CHECK(tour[f_[x]] == x && tour[l_[x]] == x);
      if (x == tour.front()) continue;
      SMPC_CHECK(f_[x] >= 1);
      const VertexId p = tour[f_[x] - 1];
      SMPC_CHECK_MSG(tree_edges_.count(make_edge(p, x)),
                     "parent entry is not a tree edge");
      // Child interval nests strictly inside the parent's interval.
      SMPC_CHECK(f_[p] < f_[x] && l_[x] < l_[p]);
      ++tree_edge_count;
    }
    SMPC_CHECK(tree_edge_count == mem.size() - 1);
    // Every adjacent pair in the tour is either a tree edge or a stutter.
    for (std::size_t i = 0; i + 1 < tour.size(); ++i) {
      const VertexId a = tour[i];
      const VertexId b = tour[i + 1];
      if (a == b) continue;
      SMPC_CHECK_MSG(tree_edges_.count(make_edge(a, b)),
                     "adjacent tour entries are not a tree edge");
    }
    // Canonical pair structure: entries (2i, 2i+1) are always an edge
    // traversal (descent or ascent), never a stutter.  Split relies on
    // this alignment.
    for (std::size_t i = 0; i + 1 < tour.size(); i += 2) {
      SMPC_CHECK_MSG(tour[i] != tour[i + 1],
                     "stutter at an even position: tour is cyclic-valid "
                     "but not canonical");
    }
  }
  SMPC_CHECK(live_seen == live_tours_);
  for (VertexId v = 0; v < n_; ++v) SMPC_CHECK(seen[v]);
  // Global edge count: trees partition the vertices.
  SMPC_CHECK(tree_edges_.size() == n_ - live_tours_);
}

std::uint64_t EulerTourForest::words() const {
  std::uint64_t total = 3 * n_;  // tour_of_, f_, l_
  for (const auto& tour : tours_) total += tour.size();
  total += 2 * tree_edges_.size();
  return total;
}

}  // namespace streammpc
