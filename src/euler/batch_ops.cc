// Batch Join / Split of Euler tours (paper §6.2–§6.3).
//
// batch_link composes, per connected component of the auxiliary graph H
// over the current trees, the auxiliary sequence S = Pi(T_0) of Def. 6.2:
// every non-root tree is rooted at its parent-facing terminal, and each
// child tour (wrapped in the descent/ascent entries of its connecting
// edge) is spliced into its parent tour right after the first occurrence
// of the parent-side terminal.  This is the sequence-level effect of the
// paper's four shift-index/update-index message cases; the whole batch
// costs O(1) MPC rounds (Lemma 6.4) versus Theta(k) for k sequential
// joins — quantified in bench_euler_ablation.
//
// batch_cut is the inverse: it splits each affected tour in one sweep,
// dropping every cut edge's descent and ascent pairs and routing the
// remaining entries to the piece of their nearest cut ancestor.
#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/check.h"
#include "euler/tour_forest.h"
#include "graph/reference.h"

namespace streammpc {

void EulerTourForest::batch_link(std::span<const Edge> links) {
  if (links.empty()) return;

  // Auxiliary graph H over tree ids; must be a forest (Claim 6.1's F_H).
  // Built and checked in full before the charge and the first mutation, so
  // a rejected batch leaves the forest and the ledger untouched.
  struct HalfEdge {
    TourId child_tree;
    VertexId parent_terminal;  // endpoint inside this tree
    VertexId child_terminal;   // endpoint inside child_tree
  };
  std::unordered_map<TourId, std::vector<HalfEdge>> h_adj;
  std::unordered_map<TourId, std::uint32_t> id_index;
  std::vector<TourId> id_list;
  auto intern = [&](TourId t) {
    auto [it, fresh] = id_index.try_emplace(t, id_list.size());
    if (fresh) {
      id_list.push_back(t);
      h_adj.try_emplace(t);
    }
    return it->second;
  };
  for (const Edge& e : links) {
    SMPC_CHECK(e.u < n_ && e.v < n_);
    const TourId tu = tour_of_[e.u];
    const TourId tv = tour_of_[e.v];
    SMPC_CHECK_MSG(tu != tv, "batch_link edge closes a cycle within a tree");
    intern(tu);
    intern(tv);
    h_adj[tu].push_back(HalfEdge{tv, e.u, e.v});
    h_adj[tv].push_back(HalfEdge{tu, e.v, e.u});
  }
  // Forest check over H.
  {
    Dsu dsu(id_list.size());
    for (const Edge& e : links) {
      const bool merged = dsu.unite(id_index[tour_of_[e.u]],
                                    id_index[tour_of_[e.v]]);
      SMPC_CHECK_MSG(merged, "batch_link edges do not form a forest over trees");
    }
  }
  charge(cluster_ ? 2 * cluster_->broadcast_rounds() + 1 : 0,
         cluster_ ? links.size() * (cluster_->machines() + 1) : 0,
         "euler/batch-join");

  std::vector<char> visited(id_list.size(), 0);
  for (TourId root_tree : id_list) {
    if (visited[id_index[root_tree]]) continue;

    // Pass 1: BFS to orient H and root every non-root tree at its
    // parent-facing terminal (the paper's t_i).  All rootings happen
    // before any composition so the f_ positions stay valid throughout.
    struct NodeInfo {
      TourId tree;
      std::vector<std::pair<VertexId, TourId>> children;  // (terminal in
                                                          // this tree, child)
      std::unordered_map<TourId, VertexId> child_terminal;
    };
    std::unordered_map<TourId, NodeInfo> nodes;
    std::vector<TourId> order;  // BFS order (parents before children)
    {
      std::vector<TourId> queue{root_tree};
      visited[id_index[root_tree]] = 1;
      nodes[root_tree].tree = root_tree;
      std::size_t head = 0;
      while (head < queue.size()) {
        const TourId a = queue[head++];
        order.push_back(a);
        for (const HalfEdge& he : h_adj[a]) {
          if (visited[id_index[he.child_tree]]) continue;
          visited[id_index[he.child_tree]] = 1;
          nodes[a].children.emplace_back(he.parent_terminal, he.child_tree);
          nodes[a].child_terminal[he.child_tree] = he.child_terminal;
          nodes[he.child_tree].tree = he.child_tree;
          make_root_impl(he.child_terminal);
          queue.push_back(he.child_tree);
        }
      }
    }

    // Pass 2: post-order composition (children before parents).
    std::unordered_map<TourId, std::vector<VertexId>> composed;
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const TourId a = *it;
      const NodeInfo& info = nodes[a];
      std::vector<VertexId> seq = tours_[a];

      // Splice children at descending positions so earlier splices do not
      // shift later ones (positions refer to the pre-splice sequence).
      struct Splice {
        std::uint32_t pos;
        TourId child;
        VertexId x, y;
      };
      std::vector<Splice> splices;
      splices.reserve(info.children.size());
      for (const auto& [x, child] : info.children) {
        const VertexId y = info.child_terminal.at(child);
        // Canonical-form invariant: a child group attached to a non-root
        // terminal x goes right after x's first occurrence (inside x's
        // visit); a group attached to the tour's root is appended at the
        // end (a new last child).  Splicing a root terminal at f(x)+1
        // would break the descent/ascent pair structure that Split relies
        // on (it is still a valid cyclic walk, but not canonical).
        std::uint32_t pos;
        if (seq.empty()) {
          pos = 0;
        } else if (seq.front() == x) {
          pos = static_cast<std::uint32_t>(seq.size());
        } else {
          pos = static_cast<std::uint32_t>(f_[x] + 1);
        }
        splices.push_back(Splice{pos, child, x, y});
      }
      std::stable_sort(splices.begin(), splices.end(),
                       [](const Splice& a1, const Splice& b1) {
                         return a1.pos > b1.pos;
                       });
      for (const Splice& sp : splices) {
        std::vector<VertexId>& child_seq = composed[sp.child];
        std::vector<VertexId> wrapped;
        wrapped.reserve(child_seq.size() + 4);
        wrapped.push_back(sp.x);
        wrapped.push_back(sp.y);
        wrapped.insert(wrapped.end(), child_seq.begin(), child_seq.end());
        wrapped.push_back(sp.y);
        wrapped.push_back(sp.x);
        seq.insert(seq.begin() + sp.pos, wrapped.begin(), wrapped.end());
        composed.erase(sp.child);
      }
      composed[a] = std::move(seq);
    }

    // Install the composed tour on the root tree id; retire the others.
    tours_[root_tree] = std::move(composed[root_tree]);
    for (TourId a : order) {
      if (a != root_tree) free_tour(a);
    }
    reindex(root_tree);
  }

  for (const Edge& e : links) tree_edges_.insert(e);
}

void EulerTourForest::batch_cut(std::span<const Edge> cuts) {
  if (cuts.empty()) return;
  // Validate the whole batch before the charge and the first cut.
  std::unordered_set<Edge, EdgeHash> seen;
  for (const Edge& e : cuts) {
    SMPC_CHECK_MSG(tree_edges_.count(e), "batch_cut of a non-tree edge");
    SMPC_CHECK_MSG(seen.insert(e).second, "batch_cut of a duplicate edge");
  }
  charge(cluster_ ? 2 * cluster_->broadcast_rounds() + 1 : 0,
         cluster_ ? cuts.size() * (cluster_->machines() + 1) : 0,
         "euler/batch-split");

  // Resolve every cut against the pre-batch tours.  The child endpoint is
  // the one with the larger f; the edge owns the descent pair at
  // [f - 1, f] and the ascent pair at [l, l + 1] of the child.
  struct Piece {
    TourId tree;
    std::uint32_t lo, hi;  // f(child), l(child)
    VertexId child;
    TourId id;
    std::uint32_t size;  // entries the piece keeps
  };
  std::vector<Piece> pieces;
  pieces.reserve(cuts.size());
  for (const Edge& e : cuts) {
    const TourId t = tour_of_[e.u];
    SMPC_CHECK(t == tour_of_[e.v]);
    const VertexId child = f_[e.u] > f_[e.v] ? e.u : e.v;
    SMPC_CHECK(f_[child] >= 1 && l_[child] + 1 < tours_[t].size());
    pieces.push_back(Piece{t, f_[child], l_[child], child, 0, 0});
  }
  // Ids in input order, as a per-edge cut loop allocates them.  All
  // allocation happens before any reference into tours_ is taken.
  for (std::size_t i = 0; i < cuts.size(); ++i) {
    pieces[i].id = alloc_tour();
    tree_edges_.erase(cuts[i]);
  }

  // The removed ranges [lo - 1, hi + 1] of one tree are laminar, so one
  // left-to-right sweep with a stack of open pieces splits the tour: the
  // edge pairs are dropped, every other entry goes to the innermost open
  // piece, or stays in the root piece (compacted in place) when none is
  // open.  Each piece is the cut child's subtree minus its nested cuts'
  // subtrees, entries in tour order, which is what cutting the edges one
  // at a time leaves behind in any order.
  std::sort(pieces.begin(), pieces.end(), [](const Piece& a, const Piece& b) {
    return a.tree != b.tree ? a.tree < b.tree : a.lo < b.lo;
  });
  std::vector<Piece*> open;
  for (auto group = pieces.begin(); group != pieces.end();) {
    const TourId t = group->tree;
    const auto end = std::find_if(group, pieces.end(),
                                  [t](const Piece& p) { return p.tree != t; });
    // Size each child tour exactly, so it is allocated once: a piece keeps
    // its range less the edge pairs and its directly nested cuts' ranges.
    for (auto p = group; p != end; ++p) {
      while (!open.empty() && open.back()->hi < p->lo) open.pop_back();
      p->size = p->hi - p->lo - 1;
      if (!open.empty()) open.back()->size -= p->hi - p->lo + 3;
      open.push_back(&*p);
    }
    open.clear();
    for (auto p = group; p != end; ++p) tours_[p->id].reserve(p->size);
    std::vector<VertexId>& tour = tours_[t];
    const VertexId root = tour.front();
    std::size_t kept = 0;
    auto next = group;
    for (std::uint32_t i = 0; i < tour.size(); ++i) {
      if (next != end && i + 1 == next->lo) {
        open.push_back(&*next++);
        ++i;
      } else if (!open.empty() && i == open.back()->hi) {
        open.pop_back();
        ++i;
      } else if (open.empty()) {
        tour[kept++] = tour[i];
      } else {
        tours_[open.back()->id].push_back(tour[i]);
      }
    }
    tour.resize(kept);
    reindex(t, root);
    for (auto p = group; p != end; ++p) reindex(p->id, p->child);
    group = end;
  }
}

}  // namespace streammpc
