// Concurrent-reader stress suite for the query cache (core/query_cache.h,
// ISSUE 7) — designed to run clean under ThreadSanitizer:
//   * N reader threads hammer QueryCache::snapshot() + connected() while
//     one writer applies insert batches and republishes; every reader
//     answer must be consistent with SOME prefix of the applied batches
//     (the path-growth test makes "which prefix" exactly measurable), and
//     the snapshot versions each reader observes are monotone;
//   * a mixed insert/delete phase checks internal consistency of every
//     observed snapshot (idempotent labels, symmetric connected(), CSR
//     partition, a sorted spanning forest within the labels) while the
//     writer derives each snapshot from the one readers still hold;
//   * the ApproxMsf snapshot_view() reader path gets the same hammering.
//
// GTest assertions are not thread-safe everywhere, so reader threads
// record failures in atomic counters checked on the main thread.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "core/dynamic_connectivity.h"
#include "core/query_cache.h"
#include "graph/streams.h"
#include "graph/types.h"
#include "msf/approx_msf.h"
#include "test_support.h"

namespace streammpc {
namespace {

GraphSketchConfig sketch_config(VertexId n, std::uint64_t seed) {
  GraphSketchConfig c;
  unsigned lg = 1;
  while ((1u << lg) < n) ++lg;
  c.banks = 2 * lg + 2;
  c.seed = seed;
  return c;
}

TEST(QueryConcurrency, ReadersSeeMonotonePrefixesOfAGrowingPath) {
  // Writer grows the path 0-1-2-...-256 in 32 batches of 8 edges and
  // publishes a snapshot after each.  The connected-to-0 prefix of any
  // published snapshot is exactly 8k vertices for the number k of batches
  // it reflects, so a reader can measure which prefix it got and bound it
  // by the writer's progress counter read before and after the load.
  const VertexId n = 257;
  constexpr std::uint64_t kBatches = 32;
  constexpr VertexId kEdgesPerBatch = 8;
  ConnectivityConfig cc;
  cc.sketch = sketch_config(n, 9001);
  DynamicConnectivity dc(n, cc);
  dc.snapshot();  // publish the all-singletons epoch-0 snapshot

  std::atomic<std::uint64_t> applied{0};
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> torn_prefixes{0};
  std::atomic<std::uint64_t> bound_violations{0};
  std::atomic<std::uint64_t> version_regressions{0};
  std::atomic<std::uint64_t> reads{0};

  const QueryCache& cache = dc.query_cache();
  const auto reader = [&] {
    std::uint64_t last_version = 0;
    while (!done.load(std::memory_order_acquire)) {
      const std::uint64_t lo = applied.load(std::memory_order_acquire);
      const auto snap = cache.snapshot();
      const std::uint64_t hi = applied.load(std::memory_order_acquire);
      if (snap == nullptr) continue;
      reads.fetch_add(1, std::memory_order_relaxed);
      if (snap->version < last_version)
        version_regressions.fetch_add(1, std::memory_order_relaxed);
      last_version = snap->version;
      // Measure the connected prefix and check it is downward closed.
      VertexId len = 0;
      while (len + 1 < n && snap->connected(0, len + 1)) ++len;
      bool torn = len % kEdgesPerBatch != 0;
      for (VertexId v = 1; v <= len && !torn; ++v)
        torn = !snap->connected(0, v) || snap->labels[v] != 0;
      for (VertexId v = len + 1; v < n && !torn; ++v)
        torn = snap->connected(0, v);
      if (torn) torn_prefixes.fetch_add(1, std::memory_order_relaxed);
      // The snapshot reflects k = len/8 batches.  The writer publishes the
      // k-batch snapshot before storing `applied = k`, so k >= lo; and a
      // published k-batch snapshot means `applied` was at least k - 1 when
      // it was built, so k <= hi + 1.
      const std::uint64_t k = len / kEdgesPerBatch;
      if (k < lo || k > hi + 1)
        bound_violations.fetch_add(1, std::memory_order_relaxed);
    }
  };

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) readers.emplace_back(reader);

  for (std::uint64_t k = 0; k < kBatches; ++k) {
    Batch batch;
    for (VertexId i = 0; i < kEdgesPerBatch; ++i) {
      const VertexId u = static_cast<VertexId>(k * kEdgesPerBatch + i);
      batch.push_back(insert_of(u, u + 1));
    }
    dc.apply_batch(batch);
    dc.snapshot();  // repair + publish (insert-only)
    applied.store(k + 1, std::memory_order_release);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(torn_prefixes.load(), 0u);
  EXPECT_EQ(bound_violations.load(), 0u);
  EXPECT_EQ(version_regressions.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  // The insert-only writer repaired, never rebuilt past the bootstrap.
  EXPECT_EQ(cache.stats().rebuilds, 1u);
  EXPECT_EQ(cache.stats().repairs, kBatches);
  const auto final_snap = cache.snapshot();
  EXPECT_TRUE(final_snap->connected(0, n - 1));
  EXPECT_EQ(final_snap->components(), 1u);
}

TEST(QueryConcurrency, MixedPhaseSnapshotsStayInternallyConsistent) {
  // Writer replays a churn stream (inserts AND deletes, each snapshot
  // derived from the previous one while readers hold it); readers verify
  // every observed snapshot is a self-consistent partition and forest.
  const VertexId n = 64;
  ConnectivityConfig cc;
  cc.sketch = sketch_config(n, 9101);
  DynamicConnectivity dc(n, cc);
  dc.snapshot();

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> inconsistencies{0};
  std::atomic<std::uint64_t> reads{0};

  const QueryCache& cache = dc.query_cache();
  const auto reader = [&] {
    while (!done.load(std::memory_order_acquire)) {
      const auto snap = cache.snapshot();
      if (snap == nullptr) continue;
      reads.fetch_add(1, std::memory_order_relaxed);
      bool bad = snap->n() != n;
      // Labels are idempotent component minima; connected() is symmetric.
      for (VertexId v = 0; v < n && !bad; ++v) {
        const VertexId l = snap->labels[v];
        bad = l > v || snap->labels[l] != l || !snap->connected(v, l) ||
              snap->connected(v, l) != snap->connected(l, v);
      }
      // The CSR is a partition of [n] into components() groups.
      std::size_t members = 0;
      for (std::size_t g = 0; g < snap->components() && !bad; ++g) {
        members += snap->component(g).size();
        bad = snap->component(g).empty();
      }
      if (!bad) bad = members != n;
      // The forest — merged by the writer from the previous snapshot's
      // forest while readers may hold that one — is strictly sorted, spans
      // every component, and joins only same-label vertices.
      if (!bad) bad = snap->forest.size() != n - snap->components();
      for (std::size_t i = 0; i < snap->forest.size() && !bad; ++i) {
        const Edge& e = snap->forest[i];
        bad = !(e.u < e.v && e.v < n) || snap->labels[e.u] != snap->labels[e.v] ||
              (i > 0 && !(snap->forest[i - 1] < e));
      }
      if (bad) inconsistencies.fetch_add(1, std::memory_order_relaxed);
    }
  };

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) readers.emplace_back(reader);

  Rng rng(9102);
  gen::ChurnOptions opt;
  opt.n = n;
  opt.initial_edges = 128;
  opt.num_batches = 24;
  opt.batch_size = 16;
  opt.delete_fraction = 0.4;
  for (const Batch& batch : gen::churn_stream(opt, rng)) {
    dc.apply_batch(batch);
    dc.snapshot();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(inconsistencies.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  // Every snapshot after the first was derived, deletes included.
  EXPECT_GT(cache.stats().repairs, 0u);
  EXPECT_EQ(cache.stats().rebuilds, 1u);
  EXPECT_GT(dc.stats().tree_deletes, 0u);
}

TEST(QueryConcurrency, MsfSnapshotViewIsSafeUnderRepublication) {
  const VertexId n = 48;
  ApproxMsfConfig mc;
  mc.w_max = 8;
  mc.connectivity.sketch = sketch_config(n, 9201);
  ApproxMsf msf(n, mc);
  msf.snapshot();

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> inconsistencies{0};
  std::atomic<std::uint64_t> reads{0};
  const auto reader = [&] {
    while (!done.load(std::memory_order_acquire)) {
      const auto snap = msf.snapshot_view();
      if (snap == nullptr) continue;
      reads.fetch_add(1, std::memory_order_relaxed);
      // The published weights were computed from the published forest.
      double total = 0.0;
      for (const auto& [e, w] : snap->forest) total += w;
      if (total != snap->forest_weight)
        inconsistencies.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) readers.emplace_back(reader);

  Rng rng(9202);
  std::set<Edge> used;  // keep the stream valid: never re-insert a live edge
  for (int round = 0; round < 12; ++round) {
    Batch batch;
    for (int i = 0; i < 12; ++i) {
      const VertexId u = static_cast<VertexId>(rng.below(n));
      VertexId v = static_cast<VertexId>(rng.below(n - 1));
      if (v >= u) ++v;
      if (!used.insert(make_edge(u, v)).second) continue;
      batch.push_back(insert_of(u, v, 1 + static_cast<Weight>(i % 8)));
    }
    if (batch.empty()) continue;
    msf.apply_batch(batch);
    msf.snapshot();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(inconsistencies.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
}

}  // namespace
}  // namespace streammpc
