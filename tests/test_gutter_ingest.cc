// Async ingest front door suite (ingest/gutter_ingest.h):
//   * gutter-drained ingest is equivalent to flat synchronous ingest of
//     the same delta sequence — the full observable sketch surface (every
//     bank's boundary sample over every probe set, every per-vertex
//     sampler, the allocated-words footprint) matches across every
//     capacity x gutter-count x ingest-width x delivery-mode cell, for a
//     mixed stream and a toggle-cancel stream;
//   * under kRouted mode the drains charge the CommLedger exactly what
//     direct routed ingest of the same drain batches charges;
//   * flush semantics: flush-on-query, explicit flush(), destructor
//     flush, and the empty flush delivering (and charging) nothing;
//   * under kSimulated mode drains deliver through the batch scheduler (a
//     gutter drain is one scheduled batch), so split/retry composes
//     unchanged;
//   * the three connectivity front ends produce byte-identical snapshots
//     with async_ingest on and off, across interleaved insert/delete
//     streams and ingest widths {1, 2, 8};
//   * concurrent snapshot readers run against a writer that submits,
//     flushes and delivers drains through the cell grid (the TSan gate:
//     resident mutation stays inside the writer's ingest call, the
//     AtomicSharedPtr slot stays the only publication point).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/agm_static.h"
#include "core/dynamic_connectivity.h"
#include "core/streaming_connectivity.h"
#include "graph/adjacency.h"
#include "graph/generators.h"
#include "graph/reference.h"
#include "graph/streams.h"
#include "ingest/gutter_ingest.h"
#include "mpc/batch_scheduler.h"
#include "mpc/simulator.h"
#include "sketch/graphsketch.h"
#include "test_support.h"

namespace streammpc {
namespace {

using test::expect_identical_samples;
using test::probe_sets;
using test::random_deltas;

GraphSketchConfig sketch_config(VertexId n, std::uint64_t seed,
                                unsigned banks = 0) {
  GraphSketchConfig c;
  unsigned lg = 1;
  while ((1u << lg) < n) ++lg;
  c.banks = banks != 0 ? banks : 2 * lg + 2;
  c.seed = seed;
  return c;
}

// Deep per-vertex equivalence on top of the boundary-sample surface:
// identical sampler words and level watermarks for every vertex in every
// bank, and the same total arena footprint.  Linearity makes this hold
// for ANY partition of the same delta multiset into drain batches.
void expect_identical_vertex_state(const VertexSketches& a,
                                   const VertexSketches& b,
                                   const std::string& where) {
  ASSERT_EQ(a.banks(), b.banks()) << where;
  EXPECT_EQ(a.allocated_words(), b.allocated_words()) << where;
  for (unsigned bank = 0; bank < a.banks(); ++bank) {
    for (VertexId v = 0; v < a.n(); ++v) {
      const L0Sampler sa = a.sampler(bank, v);
      const L0Sampler sb = b.sampler(bank, v);
      ASSERT_EQ(sa.allocated(), sb.allocated())
          << where << ": bank " << bank << " vertex " << v;
      ASSERT_EQ(sa.active_levels(), sb.active_levels())
          << where << ": bank " << bank << " vertex " << v;
      ASSERT_EQ(sa.words(), sb.words())
          << where << ": bank " << bank << " vertex " << v;
      EXPECT_EQ(a.decode_sample(bank, sa), b.decode_sample(bank, sb))
          << where << ": bank " << bank << " vertex " << v;
    }
  }
}

// --- gutter vs flat equivalence ----------------------------------------------

// Toggle-cancel stream: hot edges inserted and deleted back to back, so
// whole runs cancel inside one drain, interleaved with never-cancelled
// cold inserts.  Resident pages must still be allocated exactly as flat
// ingest of the raw stream allocates them (allocated_words).
std::vector<EdgeDelta> toggle_cancel_deltas() {
  const Edge hot[3] = {make_edge(3, 9), make_edge(3, 17), make_edge(40, 41)};
  std::vector<EdgeDelta> deltas;
  for (unsigned round = 0; round < 40; ++round) {
    for (const Edge& e : hot) {
      deltas.push_back(EdgeDelta{e, +1});
      deltas.push_back(EdgeDelta{e, -1});
    }
    deltas.push_back(EdgeDelta{make_edge(round % 31, 31 + round % 33), +1});
  }
  deltas.push_back(EdgeDelta{hot[0], +1});  // one hot edge stays live
  return deltas;
}

// The drain delivery modes: no cluster (flat ingest), kRouted, kSimulated.
struct Delivery {
  const char* name;
  bool cluster;
  mpc::ExecMode mode;
};
constexpr Delivery kDeliveries[] = {
    {"flat", false, mpc::ExecMode::kRouted},
    {"routed", true, mpc::ExecMode::kRouted},
    {"simulated", true, mpc::ExecMode::kSimulated}};

TEST(GutterIngest, DrainedStateMatchesFlatAcrossGeometryAndThreads) {
  const VertexId n = 96;
  const GraphSketchConfig cfg = sketch_config(n, 8301, 6);
  const auto sets = probe_sets(n, 8303);
  const std::vector<EdgeDelta> streams[] = {random_deltas(n, 600, 8302),
                                            toggle_cancel_deltas()};
  const char* const stream_names[] = {"mixed", "toggle-cancel"};

  for (int si = 0; si < 2; ++si) {
    const std::vector<EdgeDelta>& deltas = streams[si];
    VertexSketches flat(n, cfg);
    flat.update_edges(std::span<const EdgeDelta>(deltas));
    for (const std::size_t capacity : {std::size_t{1}, std::size_t{7},
                                       std::size_t{64}, std::size_t{1024}}) {
      for (const std::size_t gutters : {std::size_t{1}, std::size_t{4}}) {
        for (const unsigned threads : {1u, 2u, 8u}) {
          for (const Delivery& delivery : kDeliveries) {
            const std::string where =
                std::string(stream_names[si]) + "/" + delivery.name +
                "/capacity=" + std::to_string(capacity) +
                "/gutters=" + std::to_string(gutters) +
                "/threads=" + std::to_string(threads);
            mpc::Cluster cluster = test::make_cluster(n, 4);
            mpc::Simulator sim(cluster);
            mpc::BatchScheduler sched(cluster, sim);
            VertexSketches vs(n, test::with_threads(cfg, threads));
            GutterIngestConfig gc;
            gc.gutter_capacity = capacity;
            gc.gutters = gutters;
            GutterIngest gutter(n, vs, gc,
                                delivery.cluster ? &cluster : nullptr,
                                delivery.mode, &sched);
            EXPECT_EQ(gutter.gutters(), gutters) << where;
            gutter.submit(std::span<const EdgeDelta>(deltas));
            gutter.flush();
            EXPECT_EQ(gutter.buffered(), 0u) << where;
            const auto& st = gutter.stats();
            EXPECT_EQ(st.submitted, deltas.size()) << where;
            EXPECT_GT(st.delta_batches, 0u) << where;
            EXPECT_EQ(st.delta_batches, st.capacity_drains + st.flush_drains)
                << where;
            // One ledger round per drain on the accounted paths, and
            // every simulated drain went through the simulator.
            if (delivery.cluster) {
              EXPECT_EQ(cluster.comm_ledger().rounds(), st.delta_batches)
                  << where;
            }
            if (delivery.mode == mpc::ExecMode::kSimulated) {
              EXPECT_EQ(sim.stats().batches, st.delta_batches) << where;
            }
            expect_identical_samples(flat, vs, cfg.banks, sets);
            expect_identical_vertex_state(flat, vs, where);
          }
        }
      }
    }
  }
}

TEST(GutterIngest, SingleAndSpanSubmissionDrainAtTheSameBoundaries) {
  // submit(span) must behave exactly like element-wise submit(): drain
  // boundaries depend only on the submission sequence.
  const VertexId n = 48;
  const GraphSketchConfig cfg = sketch_config(n, 8401, 4);
  const auto deltas = random_deltas(n, 150, 8402);

  VertexSketches a(n, cfg);
  VertexSketches b(n, cfg);
  GutterIngestConfig gc;
  gc.gutter_capacity = 16;
  gc.gutters = 3;
  GutterIngest ga(n, a, gc);
  GutterIngest gb(n, b, gc);
  ga.submit(std::span<const EdgeDelta>(deltas));
  for (const EdgeDelta& d : deltas) gb.submit(d);
  EXPECT_EQ(ga.stats().capacity_drains, gb.stats().capacity_drains);
  EXPECT_EQ(ga.buffered(), gb.buffered());
  ga.flush();
  gb.flush();
  expect_identical_vertex_state(a, b, "span-vs-single");
}

TEST(GutterIngest, SubmitRejectsInvalidEdgesAtTheDoor) {
  const VertexId n = 16;
  const GraphSketchConfig cfg = sketch_config(n, 8451, 4);
  VertexSketches vs(n, cfg);
  GutterIngest gutter(n, vs, {});
  EXPECT_THROW(gutter.submit(EdgeDelta{Edge{3, 3}, +1}), CheckError);
  EXPECT_THROW(gutter.submit(EdgeDelta{Edge{5, 2}, +1}), CheckError);
  EXPECT_THROW(gutter.submit(EdgeDelta{Edge{0, n}, +1}), CheckError);
  EXPECT_EQ(gutter.buffered(), 0u);  // nothing buffered by rejected edges
  EXPECT_EQ(gutter.stats().submitted, 0u);
}

// --- ledger parity under kRouted ---------------------------------------------

TEST(GutterIngest, RoutedDrainsChargeExactlyLikeDirectIngest) {
  const VertexId n = 64;
  const std::uint64_t machines = 4;
  const GraphSketchConfig cfg = sketch_config(n, 8501, 4);
  const auto deltas = random_deltas(n, 200, 8502);
  const std::size_t capacity = 32;

  // Direct: routed ingest of each capacity-sized chunk, in order.
  mpc::Cluster direct_cluster = test::make_cluster(n, machines);
  VertexSketches direct_vs(n, cfg);
  mpc::RoutedBatch scratch;
  for (std::size_t start = 0; start < deltas.size(); start += capacity) {
    const std::size_t len = std::min(capacity, deltas.size() - start);
    routed_ingest(&direct_cluster, n,
                  std::span<const EdgeDelta>(deltas).subspan(start, len),
                  "gutter-parity", direct_vs, scratch,
                  mpc::ExecMode::kRouted);
  }

  // Gutter: one gutter of the same capacity, so the drain batches are the
  // same chunks.  Charges must match word for word, machine by machine.
  mpc::Cluster gutter_cluster = test::make_cluster(n, machines);
  VertexSketches gutter_vs(n, cfg);
  GutterIngestConfig gc;
  gc.gutter_capacity = capacity;
  gc.gutters = 1;
  gc.drain_threads = 2;
  gc.label = "gutter-parity";
  {
    GutterIngest gutter(n, gutter_vs, gc, &gutter_cluster,
                        mpc::ExecMode::kRouted);
    gutter.submit(std::span<const EdgeDelta>(deltas));
    gutter.flush();
  }
  EXPECT_EQ(gutter_cluster.comm_total(), direct_cluster.comm_total());
  EXPECT_EQ(gutter_cluster.comm_ledger().rounds(),
            direct_cluster.comm_ledger().rounds());
  EXPECT_EQ(gutter_cluster.comm_ledger().total_words(),
            direct_cluster.comm_ledger().total_words());
  EXPECT_EQ(gutter_cluster.comm_ledger().words_by_machine(),
            direct_cluster.comm_ledger().words_by_machine());
  expect_identical_vertex_state(direct_vs, gutter_vs, "routed-parity");
  EXPECT_EQ(gutter_vs.mutation_epoch(), direct_vs.mutation_epoch());
}

// --- flush semantics ---------------------------------------------------------

TEST(GutterIngest, EmptyFlushDeliversNothingAndChargesNothing) {
  const VertexId n = 32;
  mpc::Cluster cluster = test::make_cluster(n, 4);
  VertexSketches vs(n, sketch_config(n, 8601, 4));
  GutterIngest gutter(n, vs, {}, &cluster, mpc::ExecMode::kRouted);
  gutter.flush();
  gutter.flush();
  EXPECT_EQ(cluster.comm_ledger().rounds(), 0u);
  EXPECT_EQ(cluster.comm_total(), 0u);
  EXPECT_EQ(vs.mutation_epoch(), 0u);
  EXPECT_EQ(gutter.stats().flushes, 2u);
  EXPECT_EQ(gutter.stats().flush_drains, 0u);

  // A flush after everything already drained is equally free.
  gutter.submit(EdgeDelta{Edge{0, 1}, +1});
  gutter.flush();
  const std::uint64_t epoch = vs.mutation_epoch();
  const std::uint64_t rounds = cluster.comm_ledger().rounds();
  gutter.flush();
  EXPECT_EQ(vs.mutation_epoch(), epoch);
  EXPECT_EQ(cluster.comm_ledger().rounds(), rounds);
}

TEST(GutterIngest, DestructorFlushesBufferedDeltas) {
  const VertexId n = 48;
  const GraphSketchConfig cfg = sketch_config(n, 8701, 4);
  const auto deltas = random_deltas(n, 90, 8702);

  VertexSketches flat(n, cfg);
  flat.update_edges(std::span<const EdgeDelta>(deltas));

  VertexSketches vs(n, cfg);
  {
    GutterIngestConfig gc;
    gc.gutter_capacity = 1024;  // nothing drains by capacity
    GutterIngest gutter(n, vs, gc);
    gutter.submit(std::span<const EdgeDelta>(deltas));
    EXPECT_EQ(gutter.buffered(), deltas.size());
    EXPECT_EQ(vs.mutation_epoch(), 0u);  // nothing delivered yet
  }  // destructor flush
  EXPECT_GT(vs.mutation_epoch(), 0u);
  expect_identical_vertex_state(flat, vs, "destructor-flush");
}

// --- kSimulated composition: a drain is one scheduled batch ------------------

TEST(GutterIngest, SimulatedDrainsFlowThroughTheBatchScheduler) {
  const VertexId n = 64;
  const GraphSketchConfig cfg = sketch_config(n, 8801, 4);
  const auto deltas = random_deltas(n, 160, 8802);

  VertexSketches flat(n, cfg);
  flat.update_edges(std::span<const EdgeDelta>(deltas));

  // A budget tight enough to force a split of a 40-delta drain batch.
  mpc::Cluster cluster = test::make_cluster(n, 4);
  mpc::SchedulerConfig sc;
  sc.policy = mpc::SplitPolicy::kProportional;
  sc.grow = mpc::GrowPolicy::kNone;
  mpc::Simulator probe_sim(cluster, 1);
  mpc::RoutedBatch routed;
  cluster.route_batch(std::span<const EdgeDelta>(deltas).first(40), n, routed);
  VertexSketches probe_vs(n, cfg);
  const auto report = probe_sim.probe(routed, probe_vs);
  ASSERT_FALSE(report.fits);
  ASSERT_GT(report.needed_words - 1, report.min_leaf_words);

  mpc::Cluster run_cluster = test::make_cluster(n, 4);
  mpc::Simulator sim(run_cluster, report.needed_words - 1);
  mpc::BatchScheduler sched(run_cluster, sim, sc);
  VertexSketches vs(n, test::with_threads(cfg, 1));
  GutterIngestConfig gc;
  gc.gutter_capacity = 40;
  GutterIngest gutter(n, vs, gc, &run_cluster, mpc::ExecMode::kSimulated,
                      &sched);
  gutter.submit(std::span<const EdgeDelta>(deltas));
  gutter.flush();
  EXPECT_GT(gutter.stats().delta_batches, 0u);
  EXPECT_EQ(gutter.stats().delta_batches,
            gutter.stats().capacity_drains + gutter.stats().flush_drains);
  EXPECT_GT(sched.stats().splits, 0u);  // the drains really got scheduled
  expect_identical_vertex_state(flat, vs, "simulated-drain");
}

// --- front ends: async == sync, byte-identically -----------------------------

std::vector<Batch> mixed_stream(VertexId n, std::uint64_t seed) {
  Rng rng(seed);
  gen::ChurnOptions opt;
  opt.n = n;
  opt.initial_edges = 2 * static_cast<std::size_t>(n);
  opt.num_batches = 6;
  opt.batch_size = 24;
  opt.delete_fraction = 0.4;
  return gen::churn_stream(opt, rng);
}

TEST(GutterFrontEnds, DynamicConnectivityAsyncMatchesSyncByteIdentically) {
  const VertexId n = 48;
  const auto stream = mixed_stream(n, 8901);
  for (const unsigned threads : {1u, 2u, 8u}) {
    const std::string where = "dynamic/threads=" + std::to_string(threads);
    ConnectivityConfig sync_cc;
    sync_cc.sketch = sketch_config(n, 8900);
    DynamicConnectivity sync_dc(n, sync_cc);

    ConnectivityConfig async_cc = sync_cc;
    async_cc.sketch.ingest_threads = threads;
    async_cc.async_ingest = true;
    async_cc.gutter.gutter_capacity = 17;
    async_cc.gutter.gutters = 3;
    DynamicConnectivity async_dc(n, async_cc, nullptr);
    ASSERT_NE(async_dc.gutter(), nullptr);

    AdjGraph ref(n);
    for (const Batch& batch : stream) {
      sync_dc.apply_batch(batch);
      async_dc.apply_batch(batch);
      ref.apply(batch);
      const auto sync_snap = sync_dc.snapshot();
      const auto async_snap = async_dc.snapshot();
      EXPECT_EQ(async_snap->labels, sync_snap->labels) << where;
      EXPECT_EQ(async_snap->forest, sync_snap->forest) << where;
      test::expect_matches_reference(async_dc, ref, where.c_str());
    }
    // Everything the stream submitted has reached the resident shard.
    EXPECT_EQ(async_dc.gutter()->buffered(), 0u) << where;
    expect_identical_vertex_state(sync_dc.sketches(), async_dc.sketches(),
                                  where);
  }
}

TEST(GutterFrontEnds, StreamingConnectivityAsyncMatchesSyncByteIdentically) {
  const VertexId n = 48;
  const auto stream = mixed_stream(n, 9001);
  for (const unsigned threads : {1u, 2u, 8u}) {
    const std::string where = "streaming/threads=" + std::to_string(threads);
    StreamingConnectivity sync_sc(n, sketch_config(n, 9000));
    StreamingConnectivity async_sc(
        n, test::with_threads(sketch_config(n, 9000), threads));
    GutterIngestConfig gc;
    gc.gutter_capacity = 13;
    gc.gutters = 2;
    async_sc.enable_async_ingest(gc);
    ASSERT_NE(async_sc.gutter(), nullptr);

    for (const Batch& batch : stream) {
      // Mix the two update interfaces to interleave buffering shapes.
      sync_sc.apply_stream(batch);
      for (const Update& u : batch) async_sc.apply(u);
      EXPECT_EQ(async_sc.labels(), sync_sc.labels()) << where;
      EXPECT_EQ(async_sc.spanning_forest(), sync_sc.spanning_forest())
          << where;
      const auto sync_snap = sync_sc.snapshot();
      const auto async_snap = async_sc.snapshot();
      EXPECT_EQ(async_snap->labels, sync_snap->labels) << where;
      EXPECT_EQ(async_snap->forest, sync_snap->forest) << where;
    }
    async_sc.flush_ingest();
    expect_identical_vertex_state(sync_sc.sketches(), async_sc.sketches(),
                                  where);
  }
}

TEST(GutterFrontEnds, AgmAsyncMatchesSyncAndFlushesOnQuery) {
  const VertexId n = 48;
  const auto stream = mixed_stream(n, 9101);
  for (const unsigned threads : {1u, 2u, 8u}) {
    const std::string where = "agm/threads=" + std::to_string(threads);
    AgmStaticConnectivity sync_agm(n, sketch_config(n, 9100));
    AgmStaticConnectivity async_agm(
        n, test::with_threads(sketch_config(n, 9100), threads));
    GutterIngestConfig gc;
    gc.gutter_capacity = 29;
    async_agm.enable_async_ingest(gc);

    AdjGraph ref(n);
    for (const Batch& batch : stream) {
      sync_agm.apply_batch(batch);
      async_agm.apply_batch(batch);
      ref.apply(batch);
    }
    // Flush-on-query: the spanning-forest query drains the gutter itself.
    EXPECT_GT(async_agm.gutter()->buffered() +
                  async_agm.gutter()->stats().capacity_drains,
              0u)
        << where;
    const auto sync_q = sync_agm.query_spanning_forest();
    const auto async_q = async_agm.query_spanning_forest();
    EXPECT_EQ(async_agm.gutter()->buffered(), 0u) << where;
    EXPECT_EQ(async_q.forest, sync_q.forest) << where;
    EXPECT_EQ(async_q.components, sync_q.components) << where;
    EXPECT_EQ(async_q.components, num_components(ref)) << where;
    const auto sync_snap = sync_agm.snapshot();
    const auto async_snap = async_agm.snapshot();
    EXPECT_EQ(async_snap->labels, sync_snap->labels) << where;
    EXPECT_EQ(async_snap->forest, sync_snap->forest) << where;
    expect_identical_vertex_state(sync_agm.sketches(), async_agm.sketches(),
                                  where);
  }
}

// --- concurrent readers vs the submitting writer (the TSan gate) -------------

TEST(GutterConcurrency, SnapshotReadersRunCleanAgainstADrainingWriter) {
  // Reader threads hammer the query cache's lock-free snapshot slot while
  // the writer submits through the gutter, flushes, and republishes.  All
  // resident-sketch mutation happens inside the writer's drain deliveries
  // (cells fanned across the shared ingest pool and joined before the
  // call returns), so under TSan this pins the AtomicSharedPtr slot as
  // the only writer/reader publication point.
  const VertexId n = 129;
  constexpr std::uint64_t kBatches = 16;
  constexpr VertexId kEdgesPerBatch = 8;
  ConnectivityConfig cc;
  cc.sketch = sketch_config(n, 9201);
  cc.async_ingest = true;
  cc.sketch.ingest_threads = 4;
  cc.gutter.gutter_capacity = 5;
  cc.gutter.gutters = 2;
  DynamicConnectivity dc(n, cc);
  dc.snapshot();  // publish the all-singletons snapshot

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> failures{0};
  const QueryCache& cache = dc.query_cache();
  const auto reader = [&] {
    std::uint64_t last_version = 0;
    while (!done.load(std::memory_order_acquire)) {
      const auto snap = cache.snapshot();
      if (snap == nullptr) continue;
      reads.fetch_add(1, std::memory_order_relaxed);
      if (snap->version < last_version)
        failures.fetch_add(1, std::memory_order_relaxed);
      last_version = snap->version;
      // The growing path keeps labels downward-closed toward 0.
      VertexId len = 0;
      while (len + 1 < n && snap->connected(0, len + 1)) ++len;
      if (len % kEdgesPerBatch != 0)
        failures.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) readers.emplace_back(reader);

  for (std::uint64_t b = 0; b < kBatches; ++b) {
    Batch batch;
    for (VertexId i = 0; i < kEdgesPerBatch; ++i) {
      const VertexId v = static_cast<VertexId>(b * kEdgesPerBatch + i);
      batch.push_back(insert_of(v, v + 1));
    }
    dc.apply_batch(batch);
    if (b % 3 == 2) dc.flush_ingest();  // interleave explicit flushes
    dc.snapshot();
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  const auto final_snap = dc.snapshot();
  EXPECT_TRUE(final_snap->connected(0, kBatches * kEdgesPerBatch));
}

}  // namespace
}  // namespace streammpc
