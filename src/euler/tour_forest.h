// Euler-tour forest (paper §5, §6.2).
//
// Every tree T of the maintained spanning forest is stored as its Euler
// tour: the vertex-occurrence sequence of a DFS from the root, in which
// every tree edge contributes 4 entries (parent,child on descent and
// child,parent on ascent), so the tour has length 4(|T|-1) and vertex v
// occurs exactly 2*deg_T(v) times.  f(v) / l(v) are the positions of v's
// first / last occurrence; they drive every operation:
//
//   * Rooting   — rotate the sequence at l(v)                 (Lemma 5.1)
//   * Join      — splice one rooted tour into another          (Lemma 5.1)
//   * Split     — remove the child's occurrence segment        (Lemma 5.1)
//   * Identify-Path — ancestor-interval test after re-rooting  (Lemma 7.2)
//   * BatchLink — compose the auxiliary sequence Pi (Def. 6.2) (§6.2)
//   * BatchCut  — inverse of BatchLink                         (§6.3)
//
// In the real MPC deployment the tours are distributed vertex-wise and the
// operations broadcast O(1)-word shift messages; here the sequences are
// explicit and the MPC cost of each operation is charged on the attached
// cluster (single ops cost O(1) broadcasts; batch ops cost O(1) rounds for
// the *whole batch*, the paper's key improvement — see bench_euler_ablation).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_set>
#include <vector>

#include "graph/types.h"
#include "mpc/cluster.h"

namespace streammpc {

using TourId = std::uint32_t;

class EulerTourForest {
 public:
  // Starts as n singleton trees.  `cluster` (optional) receives the MPC
  // round/communication charges.
  explicit EulerTourForest(VertexId n, mpc::Cluster* cluster = nullptr);

  VertexId n() const { return n_; }

  // --- queries ----------------------------------------------------------------
  TourId tour_of(VertexId v) const { return tour_of_[v]; }
  bool same_tree(VertexId u, VertexId v) const {
    return tour_of_[u] == tour_of_[v];
  }
  bool is_tree_edge(Edge e) const { return tree_edges_.count(e) > 0; }
  std::size_t num_trees() const { return live_tours_; }
  std::size_t tree_size(VertexId v) const { return members_[tour_of_[v]].size(); }
  const std::vector<VertexId>& tree_members(VertexId v) const {
    return members_[tour_of_[v]];
  }
  const std::vector<VertexId>& members_of(TourId t) const {
    return members_[t];
  }
  const std::vector<VertexId>& tour_sequence(VertexId v) const {
    return tours_[tour_of_[v]];
  }
  const std::unordered_set<Edge, EdgeHash>& tree_edges() const {
    return tree_edges_;
  }
  std::vector<Edge> sorted_tree_edges() const;
  // First/last occurrence positions (meaningful for non-singleton trees).
  std::uint32_t first_pos(VertexId v) const { return f_[v]; }
  std::uint32_t last_pos(VertexId v) const { return l_[v]; }

  // --- single-update operations (Lemma 5.1) ------------------------------------
  // Re-roots v's tree at v.
  void make_root(VertexId v);

  // Joins the trees of u and v with new tree edge {u, v}; they must be in
  // different trees.
  void link(VertexId u, VertexId v);

  // Removes tree edge {u, v}, splitting the tree in two.
  void cut(VertexId u, VertexId v);

  // All tree edges on the unique u..v path (Lemma 7.2).  u and v must be
  // in the same tree; empty when u == v.
  std::vector<Edge> identify_path(VertexId u, VertexId v);

  // --- batch operations (§6.2, §6.3) ---------------------------------------------
  // Adds a batch of tree edges at once.  The edges must form a forest over
  // the current trees (no two edges may close a cycle) — the connectivity
  // layer guarantees this by construction of F_H (Claim 6.1).  O(1) rounds
  // for the whole batch.  Each component of trees keeps the id of its
  // first-appearing tree and its root; the others' ids are freed in BFS
  // order.  A child tree goes right after its terminal's first occurrence,
  // or at the end when the terminal is the root; children sharing a
  // terminal go in reverse discovery order.  The partition equals
  // sequential_link's, the tours in general do not.
  void batch_link(std::span<const Edge> links);

  // Removes a batch of existing tree edges at once.  O(1) rounds.  Each
  // affected tree's tour is swept once, O(|T| + k log k) work for k cuts in
  // tree T.  The piece holding the tree's root keeps its TourId; each cut's
  // child piece gets a fresh id, allocated in input order.  The resulting
  // forest, ids included, equals sequential_cut over the same edges.
  void batch_cut(std::span<const Edge> cuts);

  // Batch of Identify-Path operations in O(1) rounds (§7.1: broadcast all
  // f/l endpoint values at once, every machine tests its local edges).
  // Each pair must share a tree.
  std::vector<std::vector<Edge>> batch_identify_paths(
      std::span<const std::pair<VertexId, VertexId>> pairs);

  // --- sequential fallbacks (ablation baseline, E9) --------------------------------
  // Same effect as the batch operations but performed one edge at a time,
  // charging rounds per edge; used to measure the value of batching.
  void sequential_link(std::span<const Edge> links);
  void sequential_cut(std::span<const Edge> cuts);

  // --- validation (tests) ------------------------------------------------------------
  // Checks every tour is a well-formed Euler tour consistent with the tree
  // edges; throws CheckError on violation.
  void validate() const;

  // Approximate memory footprint in words (for the MPC ledger): tour
  // entries + per-vertex indices.
  std::uint64_t words() const;

 private:
  // Uncharged re-rooting; each caller's own charge covers it.
  void make_root_impl(VertexId v);
  // Uncharged, unvalidated u..v path: re-roots at u and walks v's
  // ancestor chain.  identify_path and batch_identify_paths charge and
  // validate around it.
  std::vector<Edge> path_impl(VertexId u, VertexId v);

  TourId alloc_tour();
  void free_tour(TourId t);
  // Rebuilds tour_of_/f_/l_/members_ for a tour from its sequence.
  void reindex(TourId t, VertexId singleton_member = kNoVertex);

  void charge(std::uint64_t rounds, std::uint64_t comm_words,
              const char* label);

  VertexId n_;
  mpc::Cluster* cluster_;

  std::vector<std::vector<VertexId>> tours_;
  std::vector<std::vector<VertexId>> members_;
  std::vector<TourId> tour_of_;
  std::vector<std::uint32_t> f_, l_;
  std::unordered_set<Edge, EdgeHash> tree_edges_;
  std::vector<TourId> free_ids_;
  std::size_t live_tours_ = 0;

  // First-occurrence detection during reindex without an O(n) clear:
  // stamp_[v] == current_stamp_ marks v as already seen in this pass.
  std::vector<std::uint32_t> stamp_;
  std::uint32_t current_stamp_ = 0;
};

}  // namespace streammpc
