// Property tests for the simulation executor: algorithm-level query
// results — connectivity components/labels/forests and the approximate MSF
// weight — unchanged under kSimulated execution, across stream shapes
// including the component-merge adversary.  (Schedule independence of
// the cell grid is covered by the ingest_threads {1, 2, 8} invariance
// suites in test_mpc_grid.cc and test_mpc_scheduler.cc.)
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.h"
#include "core/agm_static.h"
#include "core/dynamic_connectivity.h"
#include "core/streaming_connectivity.h"
#include "graph/generators.h"
#include "graph/streams.h"
#include "mpc/cluster.h"
#include "mpc/simulator.h"
#include "msf/approx_msf.h"
#include "sketch/graphsketch.h"
#include "test_support.h"

namespace streammpc {
namespace {

TEST(SimulationProperties, DynamicConnectivityQueriesUnchangedUnderSimulation) {
  // Same seed, same stream: the structure driven in kSimulated mode must
  // report exactly the components, labels, and spanning forest of the
  // unaccounted single-machine run — on a churn stream and on the
  // component-merge adversary.
  const VertexId n = 64;
  ConnectivityConfig cfg;
  cfg.sketch.banks = 10;
  cfg.sketch.seed = 61001;

  // Churn stream.
  {
    Rng rng(62);
    gen::ChurnOptions opt;
    opt.n = n;
    opt.initial_edges = 120;
    opt.num_batches = 10;
    opt.batch_size = 16;
    opt.delete_fraction = 0.45;
    const auto batches = gen::churn_stream(opt, rng);

    mpc::Cluster cluster = test::make_cluster(n, 8);
    DynamicConnectivity plain(n, cfg);
    ConnectivityConfig sim_cfg = cfg;
    sim_cfg.exec_mode = mpc::ExecMode::kSimulated;
    DynamicConnectivity simulated(n, sim_cfg, &cluster);
    ASSERT_NE(simulated.simulator(), nullptr);
    for (const Batch& b : batches) {
      plain.apply_batch(b);
      simulated.apply_batch(b);
      ASSERT_EQ(plain.num_components(), simulated.num_components());
      ASSERT_EQ(plain.spanning_forest(), simulated.spanning_forest());
      for (VertexId v = 0; v < n; ++v)
        ASSERT_EQ(plain.component_of(v), simulated.component_of(v));
    }
    EXPECT_GT(simulated.simulator()->stats().machine_steps, 0u);
    EXPECT_TRUE(cluster.ok()) << cluster.report();
  }

  // Component-merge adversary: every round halves the component count.
  {
    mpc::Cluster cluster = test::make_cluster(n, 8);
    ConnectivityConfig sim_cfg = cfg;
    sim_cfg.exec_mode = mpc::ExecMode::kSimulated;
    DynamicConnectivity plain(n, cfg);
    DynamicConnectivity simulated(n, sim_cfg, &cluster);
    std::size_t expected = n;
    for (const auto& round : test::component_merge_adversary(n)) {
      Batch batch;
      for (const EdgeDelta& d : round)
        batch.push_back(Update{UpdateType::kInsert, d.e, 1});
      plain.apply_batch(batch);
      simulated.apply_batch(batch);
      expected -= round.size();
      ASSERT_EQ(simulated.num_components(), expected);
      ASSERT_EQ(plain.spanning_forest(), simulated.spanning_forest());
    }
    EXPECT_EQ(simulated.num_components(), 1u);
  }
}

TEST(SimulationProperties, AgmAndStreamingQueriesUnchangedUnderSimulation) {
  const VertexId n = 96;

  // AGM baseline: the reconstructed spanning forest must be identical.
  {
    GraphSketchConfig cfg;
    cfg.banks = 12;
    cfg.seed = 63001;
    Rng rng(64);
    const auto edges = gen::connected_gnm(n, 300, rng);
    const auto batches = gen::into_batches(gen::insert_stream(edges, rng), 48);

    mpc::Cluster cluster = test::make_cluster(n, 8);
    AgmStaticConnectivity plain(n, cfg);
    AgmStaticConnectivity simulated(n, cfg, &cluster,
                                    mpc::ExecMode::kSimulated);
    ASSERT_NE(simulated.simulator(), nullptr);
    for (const Batch& b : batches) {
      plain.apply_batch(b);
      simulated.apply_batch(b);
    }
    const auto qp = plain.query_spanning_forest();
    const auto qs = simulated.query_spanning_forest();
    EXPECT_EQ(qp.forest, qs.forest);
    EXPECT_EQ(qp.components, qs.components);
    EXPECT_EQ(qs.components, 1u);
    EXPECT_TRUE(cluster.ok()) << cluster.report();
  }

  // §4 sequential streaming structure under apply_stream.
  {
    GraphSketchConfig cfg;
    cfg.seed = 65001;
    Rng rng(66);
    gen::ChurnOptions opt;
    opt.n = n;
    opt.initial_edges = 150;
    opt.num_batches = 8;
    opt.batch_size = 24;
    opt.delete_fraction = 0.4;
    const auto batches = gen::churn_stream(opt, rng);

    mpc::Cluster cluster = test::make_cluster(n, 8);
    StreamingConnectivity plain(n, cfg);
    StreamingConnectivity simulated(n, cfg, &cluster,
                                    mpc::ExecMode::kSimulated);
    for (const Batch& b : batches) {
      const std::span<const Update> span(b.data(), b.size());
      plain.apply_stream(span);
      simulated.apply_stream(span);
      ASSERT_EQ(plain.num_components(), simulated.num_components());
      ASSERT_EQ(plain.spanning_forest(), simulated.spanning_forest());
    }
    ASSERT_NE(simulated.simulator(), nullptr);
    EXPECT_GT(simulated.simulator()->stats().batches, 0u);
  }
}

TEST(SimulationProperties, MsfWeightUnchangedUnderSimulation) {
  // The (1+eps)-approximate MSF weight is a pure function of the
  // per-level component counts, which the simulated mode must reproduce
  // exactly.
  const VertexId n = 64;
  ApproxMsfConfig cfg;
  cfg.eps = 0.25;
  cfg.w_max = 32;
  cfg.connectivity.sketch.banks = 6;
  cfg.connectivity.sketch.seed = 67001;

  Rng rng(68);
  const auto edges = gen::connected_gnm(n, 160, rng);
  const auto weighted = gen::with_random_weights(edges, 1, 32, rng);
  const auto batches = gen::into_batches(gen::insert_stream(weighted, rng), 20);

  ApproxMsf plain(n, cfg);
  mpc::Cluster cluster = test::make_cluster(n, 8);
  ApproxMsfConfig sim_cfg = cfg;
  sim_cfg.connectivity.exec_mode = mpc::ExecMode::kSimulated;
  ApproxMsf simulated(n, sim_cfg, &cluster);
  for (const Batch& b : batches) {
    plain.apply_batch(b);
    simulated.apply_batch(b);
    ASSERT_DOUBLE_EQ(plain.weight_estimate(), simulated.weight_estimate());
  }
  EXPECT_EQ(plain.forest(), simulated.forest());
  EXPECT_DOUBLE_EQ(plain.forest_weight(), simulated.forest_weight());
  EXPECT_TRUE(cluster.ok()) << cluster.report();
}

}  // namespace
}  // namespace streammpc
