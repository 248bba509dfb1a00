// Batch Join / Split of Euler tours (paper §6.2–§6.3).
//
// batch_link composes, per connected component of the auxiliary graph H
// over the current trees, the auxiliary sequence S = Pi(T_0) of Def. 6.2:
// every non-root tree is rooted at its parent-facing terminal, and each
// child tour (wrapped in the descent/ascent entries of its connecting
// edge) is spliced into its parent tour right after the first occurrence
// of the parent-side terminal (appended when that terminal is the root).
// One forward pass with a stack of open trees emits the whole composed
// tour.  This is the sequence-level effect of the paper's four
// shift-index/update-index message cases; the whole batch costs O(1) MPC
// rounds (Lemma 6.4) versus Theta(k) for k sequential joins — quantified
// in bench_euler_ablation.
//
// batch_cut is the inverse: it splits each affected tour in one sweep,
// dropping every cut edge's descent and ascent pairs and routing the
// remaining entries to the piece of their nearest cut ancestor.
#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/check.h"
#include "euler/tour_forest.h"

namespace streammpc {

void EulerTourForest::batch_link(std::span<const Edge> links) {
  if (links.empty()) return;

  // Auxiliary graph H over the touched trees (Claim 6.1's F_H): dense
  // nodes in first-appearance order, each with its half-edges in link
  // order.  Built and checked in full before the charge and the first
  // mutation, so a rejected batch leaves the forest and the ledger
  // untouched.
  struct HalfEdge {
    std::uint32_t to;
    VertexId x, y;  // endpoints in this node's tree and in `to`'s
  };
  std::unordered_map<TourId, std::uint32_t> node_of;
  std::vector<TourId> trees;
  std::vector<std::vector<HalfEdge>> adj;
  const auto intern = [&](VertexId x) {
    const auto [it, fresh] = node_of.try_emplace(tour_of_[x], trees.size());
    if (fresh) {
      trees.push_back(tour_of_[x]);
      adj.emplace_back();
    }
    return it->second;
  };
  for (const Edge& e : links) {
    SMPC_CHECK(e.u < n_ && e.v < n_);
    SMPC_CHECK_MSG(tour_of_[e.u] != tour_of_[e.v],
                   "batch_link edge closes a cycle within a tree");
    const std::uint32_t a = intern(e.u), b = intern(e.v);
    adj[a].push_back(HalfEdge{b, e.u, e.v});
    adj[b].push_back(HalfEdge{a, e.v, e.u});
  }
  const std::size_t nodes = trees.size();

  // Orient H by BFS from each component's first node.  `order` lists the
  // nodes parents first; a node's children are discovered together, so
  // they are the range order[first_child, end_child).  Child c hangs off
  // its parent through the edge {x, y}: x in the parent's tree, y (the
  // paper's t_i, c's new root) in c's.  H is a forest iff
  // links + components == nodes.
  struct Node {
    std::uint32_t first_child = 0, end_child = 0;
    VertexId x = kNoVertex, y = kNoVertex;
    std::uint32_t pos = 0;  // splice point in the parent's tour
  };
  std::vector<Node> node(nodes);
  std::vector<std::uint32_t> order;
  order.reserve(nodes);
  std::vector<char> seen(nodes, 0);
  std::size_t components = 0;
  for (std::uint32_t r = 0; r < nodes; ++r) {
    if (seen[r]) continue;
    ++components;
    seen[r] = 1;
    order.push_back(r);
    for (std::size_t head = order.size() - 1; head < order.size(); ++head) {
      const std::uint32_t a = order[head];
      node[a].first_child = static_cast<std::uint32_t>(order.size());
      for (const HalfEdge& h : adj[a]) {
        if (seen[h.to]) continue;
        seen[h.to] = 1;
        node[h.to].x = h.x;
        node[h.to].y = h.y;
        order.push_back(h.to);
      }
      node[a].end_child = static_cast<std::uint32_t>(order.size());
    }
  }
  SMPC_CHECK_MSG(links.size() + components == nodes,
                 "batch_link edges do not form a forest over trees");
  charge(cluster_ ? 2 * cluster_->broadcast_rounds() + 1 : 0,
         cluster_ ? links.size() * (cluster_->machines() + 1) : 0,
         "euler/batch-join");

  // Root every child tree at its terminal y.  Parents come first in
  // `order`, so a child's splice point is read from its parent's final
  // tour: right after the first occurrence of a non-root terminal x
  // (inside x's visit), or the end when x is the root.  Splicing a root
  // terminal at f(x) + 1 would break the descent/ascent pair alignment
  // that Split relies on.
  for (const std::uint32_t c : order) {
    Node& child = node[c];
    if (child.x == kNoVertex) continue;  // a component's root tree
    const std::vector<VertexId>& seq = tours_[tour_of_[child.x]];
    child.pos = seq.empty() || seq.front() == child.x
                    ? static_cast<std::uint32_t>(seq.size())
                    : f_[child.x] + 1;
    make_root_impl(child.y);
  }
  // Splices in ascending position; children sharing one go in reverse
  // discovery order (each new one lands in front of the earlier ones).
  std::vector<std::uint32_t> spliced = order;
  for (const std::uint32_t a : order) {
    const auto first = spliced.begin() + node[a].first_child;
    const auto last = spliced.begin() + node[a].end_child;
    std::reverse(first, last);
    std::stable_sort(first, last, [&](std::uint32_t c, std::uint32_t d) {
      return node[c].pos < node[d].pos;
    });
  }

  // Emit each component's tour Pi(T_0) in one forward pass: copy a tree's
  // entries up to its next splice point, descend into the child wrapped as
  // [x, y, ..., y, x], and resume after it.
  struct Frame {
    std::uint32_t node, next, cursor;
  };
  std::vector<Frame> stack;
  for (std::size_t begin = 0; begin < nodes;) {
    const std::uint32_t root = order[begin];
    std::size_t end = begin + 1;
    std::size_t size = tours_[trees[root]].size();
    for (; end < nodes && node[order[end]].x != kNoVertex; ++end)
      size += tours_[trees[order[end]]].size() + 4;
    std::vector<VertexId> tour;
    tour.reserve(size);
    stack.push_back(Frame{root, node[root].first_child, 0});
    while (!stack.empty()) {
      Frame& top = stack.back();
      const std::vector<VertexId>& seq = tours_[trees[top.node]];
      if (top.next < node[top.node].end_child) {
        const std::uint32_t c = spliced[top.next++];
        tour.insert(tour.end(), seq.begin() + top.cursor,
                    seq.begin() + node[c].pos);
        top.cursor = node[c].pos;
        tour.insert(tour.end(), {node[c].x, node[c].y});
        stack.push_back(Frame{c, node[c].first_child, 0});
        continue;
      }
      tour.insert(tour.end(), seq.begin() + top.cursor, seq.end());
      const Node& done = node[top.node];
      stack.pop_back();
      if (!stack.empty()) tour.insert(tour.end(), {done.y, done.x});
    }
    // Install on the root tree's id; retire the others in BFS order.
    tours_[trees[root]] = std::move(tour);
    for (std::size_t i = begin + 1; i < end; ++i) free_tour(trees[order[i]]);
    reindex(trees[root]);
    begin = end;
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
