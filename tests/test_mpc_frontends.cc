// Front-end execution-mode matrix (ISSUE 4 satellite): all six front ends
// — DynamicConnectivity, AgmStaticConnectivity, StreamingConnectivity,
// DynamicBipartiteness, ApproxMsf, DynamicApproxMatching — accept
// Routed | Simulated and report query results identical to flat ingest (no
// cluster) in every mode; the simulated mode exposes simulator() stats.  The
// connectivity trio's matrix lives in test_mpc_simulation*.cc; this file
// covers the three front ends ported here (bipartiteness, approximate
// MSF, matching) plus the cross-mode equivalence loop over all of them.
#include <gtest/gtest.h>

#include <vector>

#include "bipartite/bipartiteness.h"
#include "common/random.h"
#include "graph/generators.h"
#include "graph/streams.h"
#include "matching/dynamic_matching.h"
#include "mpc/cluster.h"
#include "mpc/fault_injector.h"
#include "mpc/simulator.h"
#include "msf/approx_msf.h"
#include "test_support.h"

namespace streammpc {
namespace {

constexpr mpc::ExecMode kModes[] = {mpc::ExecMode::kRouted,
                                    mpc::ExecMode::kSimulated};

const char* mode_name(mpc::ExecMode mode) {
  switch (mode) {
    case mpc::ExecMode::kRouted: return "routed";
    case mpc::ExecMode::kSimulated: return "simulated";
  }
  return "?";
}

// A churny update stream that repeatedly makes and breaks bipartiteness:
// a path (bipartite), an odd chord (not), delete it again, plus noise.
Batch bipartite_probe_batches(VertexId n, int round) {
  Batch batch;
  if (round == 0) {
    for (VertexId v = 0; v + 1 < n; ++v)
      batch.push_back(Update{UpdateType::kInsert, make_edge(v, v + 1), 1});
  } else if (round == 1) {
    batch.push_back(Update{UpdateType::kInsert, make_edge(0, 2), 1});
  } else if (round == 2) {
    batch.push_back(Update{UpdateType::kDelete, make_edge(0, 2), 1});
    batch.push_back(
        Update{UpdateType::kInsert, make_edge(0, static_cast<VertexId>(3)), 1});
  } else {
    batch.push_back(
        Update{UpdateType::kDelete, make_edge(0, static_cast<VertexId>(3)), 1});
    batch.push_back(Update{UpdateType::kDelete, make_edge(4, 5), 1});
  }
  return batch;
}

TEST(FrontEndModes, BipartitenessIdenticalAcrossModes) {
  const VertexId n = 24;
  BipartitenessConfig cfg;
  cfg.connectivity.sketch.banks = 8;
  cfg.connectivity.sketch.seed = 91001;

  for (const mpc::ExecMode mode : {mpc::ExecMode::kRouted,
                                   mpc::ExecMode::kSimulated}) {
    SCOPED_TRACE(mode_name(mode));
    mpc::Cluster cluster = test::make_cluster(2 * n, 8);
    BipartitenessConfig mode_cfg = cfg;
    mode_cfg.connectivity.exec_mode = mode;
    DynamicBipartiteness under_test(n, mode_cfg, &cluster);
    DynamicBipartiteness reference(n, cfg);

    for (int round = 0; round < 4; ++round) {
      const Batch batch = bipartite_probe_batches(n, round);
      reference.apply_batch(batch);
      under_test.apply_batch(batch);
      ASSERT_EQ(reference.is_bipartite(), under_test.is_bipartite())
          << "round " << round;
      ASSERT_EQ(reference.num_components(), under_test.num_components());
      for (VertexId v = 0; v < n; ++v) {
        ASSERT_EQ(reference.is_component_bipartite(v),
                  under_test.is_component_bipartite(v))
            << "round " << round << " vertex " << v;
      }
    }
    if (mode == mpc::ExecMode::kSimulated) {
      ASSERT_NE(under_test.simulator(), nullptr);
      EXPECT_GT(under_test.simulator()->stats().batches, 0u);
      EXPECT_GT(under_test.simulator()->stats().cell_steps, 0u);
    } else {
      EXPECT_EQ(under_test.simulator(), nullptr);
    }
    EXPECT_GT(cluster.comm_ledger().rounds(), 0u);
  }
}

TEST(FrontEndModes, ApproxMsfIdenticalAcrossModesAndExposesSimulator) {
  const VertexId n = 48;
  ApproxMsfConfig cfg;
  cfg.eps = 0.25;
  cfg.w_max = 16;
  cfg.connectivity.sketch.banks = 6;
  cfg.connectivity.sketch.seed = 92001;

  Rng rng(93);
  const auto edges = gen::connected_gnm(n, 120, rng);
  const auto weighted = gen::with_random_weights(edges, 1, 16, rng);
  const auto batches =
      gen::into_batches(gen::insert_stream(weighted, rng), 24);

  ApproxMsf flat(n, cfg);
  for (const Batch& b : batches) flat.apply_batch(b);
  EXPECT_EQ(flat.simulator(), nullptr);

  for (const mpc::ExecMode mode : kModes) {
    SCOPED_TRACE(mode_name(mode));
    mpc::Cluster cluster = test::make_cluster(n, 8);
    ApproxMsfConfig mode_cfg = cfg;
    mode_cfg.connectivity.exec_mode = mode;
    ApproxMsf under_test(n, mode_cfg, &cluster);
    for (const Batch& b : batches) under_test.apply_batch(b);

    EXPECT_DOUBLE_EQ(flat.weight_estimate(), under_test.weight_estimate());
    EXPECT_EQ(flat.forest(), under_test.forest());
    EXPECT_EQ(flat.num_components(), under_test.num_components());
    if (mode == mpc::ExecMode::kSimulated) {
      ASSERT_NE(under_test.simulator(), nullptr);
      EXPECT_GT(under_test.simulator()->stats().machine_steps, 0u);
      EXPECT_GT(under_test.simulator()->stats().peak_resident_words, 0u);
    } else {
      EXPECT_EQ(under_test.simulator(), nullptr);
    }
  }
}

// A valid mixed stream for the matching front end: inserts with
// interleaved deletes of live edges, in batches of 20.
std::vector<Batch> matching_batches(VertexId n) {
  const auto deltas = test::random_deltas(n, 160, 95);
  std::vector<Batch> batches;
  Batch current;
  for (const EdgeDelta& d : deltas) {
    current.push_back(Update{
        d.delta > 0 ? UpdateType::kInsert : UpdateType::kDelete, d.e, 1});
    if (current.size() == 20) {
      batches.push_back(current);
      current.clear();
    }
  }
  if (!current.empty()) batches.push_back(current);
  return batches;
}

DynamicMatchingConfig matching_config() {
  DynamicMatchingConfig cfg;
  cfg.alpha = 4.0;
  cfg.seed = 94001;
  return cfg;
}

TEST(FrontEndModes, MatchingIdenticalAcrossModesAndExposesSimulator) {
  const VertexId n = 48;
  const DynamicMatchingConfig cfg = matching_config();
  const std::vector<Batch> batches = matching_batches(n);

  DynamicApproxMatching flat(n, cfg);
  for (const Batch& b : batches) flat.apply_batch(b);
  EXPECT_EQ(flat.simulator(), nullptr);

  for (const mpc::ExecMode mode : kModes) {
    SCOPED_TRACE(mode_name(mode));
    mpc::Cluster cluster = test::make_cluster(n, 8);
    DynamicMatchingConfig mode_cfg = cfg;
    mode_cfg.exec_mode = mode;
    DynamicApproxMatching under_test(n, mode_cfg, &cluster);
    for (const Batch& b : batches) under_test.apply_batch(b);

    // Samplers are linear, so every machine schedule yields the same H
    // stream and hence the same maximal matching — exactly.
    EXPECT_EQ(flat.matching_size(), under_test.matching_size());
    EXPECT_EQ(flat.matching(), under_test.matching());
    if (mode == mpc::ExecMode::kSimulated) {
      ASSERT_NE(under_test.simulator(), nullptr);
      EXPECT_GT(under_test.simulator()->stats().batches, 0u);
      EXPECT_GT(under_test.simulator()->stats().machine_steps, 0u);
      // The sampler shards' resident words are charged, not 0.
      EXPECT_GT(under_test.simulator()->stats().peak_resident_words, 0u);
      EXPECT_GT(cluster.comm_ledger().rounds(), 0u);
    } else {
      EXPECT_EQ(under_test.simulator(), nullptr);
    }
    // Routing replaced a flat broadcast: the ledger now
    // carries real per-machine delivery loads for matching batches.
    EXPECT_GT(cluster.comm_ledger().total_words(), 0u);
  }
}

TEST(FrontEndModes, MatchingLoopSplitsAndRetriesWithIdenticalMatching) {
  // The sampler shards go through the same batch loop as the sketch front
  // ends: a tight budget splits their batches and a crashed machine is
  // retried, and neither changes the matching.
  const VertexId n = 48;
  const DynamicMatchingConfig cfg = matching_config();
  const std::vector<Batch> batches = matching_batches(n);
  DynamicApproxMatching flat(n, cfg);
  for (const Batch& b : batches) flat.apply_batch(b);

  DynamicMatchingConfig sim_cfg = cfg;
  sim_cfg.exec_mode = mpc::ExecMode::kSimulated;
  // Measurement pass: the largest resident sampler shard the stream shows
  // at a batch boundary.  (Split leaves also see shards grown mid-batch,
  // so the tight run below may still deliver a chunk exhausted; its
  // non-strict cluster records that as an overrun.)
  std::uint64_t peak_resident = 0;
  {
    mpc::Cluster cluster = test::make_cluster(n, 8);
    DynamicApproxMatching measure(n, sim_cfg, &cluster);
    for (const Batch& b : batches) measure.apply_batch(b);
    peak_resident = measure.simulator()->stats().peak_resident_words;
    ASSERT_GT(peak_resident, 0u);
  }

  {
    SCOPED_TRACE("tight budget, proportional splits");
    DynamicMatchingConfig tight = sim_cfg;
    tight.scheduler.policy = mpc::SplitPolicy::kProportional;
    tight.simulator_scratch_words =
        peak_resident + mpc::RoutedBatch::kWordsPerDelta;
    mpc::Cluster cluster = test::make_cluster(n, 8);
    DynamicApproxMatching under_test(n, tight, &cluster);
    for (const Batch& b : batches) under_test.apply_batch(b);
    const mpc::Simulator::Stats& st = under_test.simulator()->stats();
    EXPECT_GT(st.scheduler_splits, 0u);
    EXPECT_GT(st.subbatches, st.submitted);
    EXPECT_EQ(flat.matching(), under_test.matching());
  }

  {
    SCOPED_TRACE("crash window on a target machine");
    mpc::FaultInjector injector;
    injector.add_machine_crash(/*machine=*/3, /*first_round=*/4,
                               /*last_round=*/40);
    DynamicMatchingConfig faulty = sim_cfg;
    faulty.fault_injector = &injector;
    mpc::Cluster cluster = test::make_cluster(n, 8);
    DynamicApproxMatching under_test(n, faulty, &cluster);
    for (const Batch& b : batches) under_test.apply_batch(b);
    const mpc::Simulator::Stats& st = under_test.simulator()->stats();
    EXPECT_GT(st.crash_faults, 0u);
    EXPECT_GT(st.retries, 0u);
    EXPECT_EQ(flat.matching(), under_test.matching());
  }
}

}  // namespace
}  // namespace streammpc
