// E9 — ablation for §6.2: the batched Euler-tour operations are the paper's
// key mechanism for O(1)-round phases.
//
// Claim: joining (or splitting) k tree edges via the auxiliary-sequence
// batch operation costs O(1) rounds total, while performing the same k
// operations one at a time costs Theta(k) rounds — the gap the paper's
// batch machinery buys over [ILMP19]'s single-update Euler tours.
#include <iostream>

#include "bench_util.h"
#include "common/check.h"
#include "euler/tour_forest.h"
#include "graph/generators.h"
#include "graph/reference.h"

namespace streammpc {
namespace {

// The same partition and tree edges; the tours may differ.
bool same_partition(const EulerTourForest& a, const EulerTourForest& b) {
  if (a.tree_edges() != b.tree_edges()) return false;
  for (VertexId v = 0; v < a.n(); ++v) {
    if (a.tree_size(v) != b.tree_size(v) ||
        !b.same_tree(v, a.tree_members(v).front())) {
      return false;
    }
  }
  return true;
}

// Returns false when a batch join leaves an invalid forest, or one whose
// partition or tree edges differ from the same joins done one at a time.
bool join_ablation() {
  bench::section("E9a: batch join vs k sequential joins (n = 2048)",
                 "batch = O(1) rounds; sequential = Theta(k) rounds");
  Table t({"k", "batch rounds", "sequential rounds", "speedup",
           "same partition"});
  bool agree = true;
  for (const std::size_t k : {4u, 16u, 64u, 256u, 1024u}) {
    Rng rng(9800 + k);
    const VertexId n = 2048;
    std::vector<Edge> links;
    {
      // A random forest of k edges.
      Dsu dsu(n);
      while (links.size() < k) {
        const VertexId u = static_cast<VertexId>(rng.below(n));
        const VertexId v = static_cast<VertexId>(rng.below(n));
        if (u == v) continue;
        if (dsu.unite(u, v)) links.push_back(make_edge(u, v));
      }
    }
    mpc::MpcConfig mc;
    mc.n = n;
    mc.phi = 0.5;

    mpc::Cluster batched_cluster(mc);
    EulerTourForest batched(n, &batched_cluster);
    batched.batch_link(links);

    mpc::Cluster seq_cluster(mc);
    EulerTourForest sequential(n, &seq_cluster);
    sequential.sequential_link(links);
    bool same = same_partition(batched, sequential);
    try {
      batched.validate();
    } catch (const CheckError&) {
      same = false;
    }
    agree = agree && same;

    t.add_row()
        .cell(static_cast<std::uint64_t>(k))
        .cell(batched_cluster.rounds())
        .cell(seq_cluster.rounds())
        .cell(static_cast<double>(seq_cluster.rounds()) /
                  static_cast<double>(std::max<std::uint64_t>(
                      1, batched_cluster.rounds())),
              1)
        .cell(same ? "yes" : "NO");
  }
  t.print(std::cout);
  return agree;
}

// The same forest state, TourIds included.
bool same_forest(const EulerTourForest& a, const EulerTourForest& b) {
  for (VertexId v = 0; v < a.n(); ++v) {
    if (a.tour_of(v) != b.tour_of(v) ||
        a.tour_sequence(v) != b.tour_sequence(v)) {
      return false;
    }
  }
  return true;
}

// Returns false when a batch split leaves a different forest than the same
// splits done one at a time.
bool split_ablation() {
  bench::section("E9b: batch split vs k sequential splits (n = 2048)",
                 "same shape for deletions");
  Table t({"k", "batch rounds", "sequential rounds", "speedup",
           "same forest"});
  bool identical = true;
  for (const std::size_t k : {4u, 16u, 64u, 256u}) {
    Rng rng(9900 + k);
    const VertexId n = 2048;
    const auto tree = gen::random_tree(n, rng);

    auto cuts = tree;
    shuffle(cuts, rng);
    cuts.resize(k);

    mpc::MpcConfig mc;
    mc.n = n;
    mc.phi = 0.5;

    mpc::Cluster batched_cluster(mc);
    EulerTourForest batched(n, &batched_cluster);
    batched.batch_link(tree);
    const auto base_b = batched_cluster.rounds();
    batched.batch_cut(cuts);

    mpc::Cluster seq_cluster(mc);
    EulerTourForest sequential(n, &seq_cluster);
    sequential.batch_link(tree);
    const auto base_s = seq_cluster.rounds();
    sequential.sequential_cut(cuts);
    const bool same = same_forest(batched, sequential);
    identical = identical && same;

    t.add_row()
        .cell(static_cast<std::uint64_t>(k))
        .cell(batched_cluster.rounds() - base_b)
        .cell(seq_cluster.rounds() - base_s)
        .cell(static_cast<double>(seq_cluster.rounds() - base_s) /
                  static_cast<double>(std::max<std::uint64_t>(
                      1, batched_cluster.rounds() - base_b)),
              1)
        .cell(same ? "yes" : "NO");
  }
  t.print(std::cout);
  return identical;
}

}  // namespace
}  // namespace streammpc

int main() {
  std::cout << "E9 — Euler-tour batch operations ablation (§6.2)\n";
  const bool joins_ok = streammpc::join_ablation();
  const bool splits_ok = streammpc::split_ablation();
  if (!joins_ok) {
    std::cerr << "E9a: batch join is invalid or its partition differs "
                 "from sequential joins\n";
  }
  if (!splits_ok) {
    std::cerr << "E9b: batch split and sequential splits disagree\n";
  }
  return joins_ok && splits_ok ? 0 : 1;
}
