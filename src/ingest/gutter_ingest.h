// Async ingest front door: guttering.
//
// The paper's MPC streaming model assumes updates arrive as large batches
// per round, but clients send millions of tiny updates — applying each one
// synchronously means millions of tiny cell-grid runs.
// GutterIngest buffers them into batches and does nothing else:
//
//   * submit() appends each EdgeDelta to the gutter of the vertex block
//     holding its lower endpoint (per-machine gutters under a cluster's
//     contiguous-block partitioner; the block formula is the same with or
//     without a cluster).  Each delta is stored ONCE;
//   * a full gutter drains: the writer hands its contents to routed_ingest
//     as one batch, in the gutter's mode — flat ingest without a cluster,
//     route + charge + cell grid under kRouted, the simulator's
//     probe/split/retry/grow loop (and its fault injector) under
//     kSimulated.  A drain is therefore exactly one synchronous
//     front-end batch: the CommLedger charges, the mutation epoch and the
//     resident arenas come out identical to direct ingest of the same
//     drain batches, and the cell grid applies it in parallel on the
//     shared pool of the sketches' ingest width.
//
// No delta sketches: gutters split by machine block, not by vertex, so a
// drain holds about one delta per vertex, and folding a per-drain scratch
// sketch page by page (16 cells per page) costs far more than applying
// each delta directly (2 cell writes).  See DESIGN.md "Async ingest &
// guttering".
//
// Flush semantics: flush() drains every gutter; the destructor flushes
// (swallowing errors — call flush() explicitly to observe them); front
// ends flush before ANY sketch read (flush-on-query).  Queries between
// submit() and flush() see the resident state as of the last drain.
//
// Thread contract: every member function is writer-side (one thread — the
// same thread that owns the sketches).  GutterIngest starts no thread of
// its own; the resident arenas, the ledger and the epoch are mutated only
// inside routed_ingest on the writer thread, which is what keeps the query
// cache's AtomicSharedPtr slot the only writer/reader publication point.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/types.h"
#include "mpc/comm_ledger.h"
#include "mpc/config.h"

namespace streammpc {

class VertexSketches;

namespace mpc {
class Cluster;
class Simulator;
}  // namespace mpc

struct GutterIngestConfig {
  // Deltas buffered per gutter before it drains as one batch.
  std::size_t gutter_capacity = 1024;
  // Gutter count; 0 = one per cluster machine (1 without a cluster).
  // Gutters partition vertices into contiguous blocks by lower endpoint.
  std::size_t gutters = 0;
  // Ignored: drains apply on the writer through the cell grid, whose width
  // is GraphSketchConfig::ingest_threads.  Kept so existing callers still
  // compile.
  unsigned drain_threads = 0;
  // CommLedger label for drain deliveries.
  std::string label = "ingest/gutter-flush";
};

class GutterIngest {
 public:
  // `sketches` (and the optional cluster/simulator, both unowned) must
  // outlive this object.  Drains deliver through routed_ingest with these
  // arguments: a null cluster = flat ingest (whatever the mode); kRouted =
  // route + charge per machine; kSimulated = delivery through `simulator`
  // (which must be non-null then).
  GutterIngest(VertexId universe, VertexSketches& sketches,
               const GutterIngestConfig& config = {},
               mpc::Cluster* cluster = nullptr,
               mpc::ExecMode mode = mpc::ExecMode::kRouted,
               mpc::Simulator* simulator = nullptr);
  ~GutterIngest();

  GutterIngest(const GutterIngest&) = delete;
  GutterIngest& operator=(const GutterIngest&) = delete;

  // Buffers one delta (validated immediately: normalized edge, v <
  // universe), draining its gutter when full.  Deterministic: drain
  // boundaries depend only on the submission sequence.
  void submit(const EdgeDelta& delta);
  void submit(std::span<const EdgeDelta> deltas);

  // Drains every non-empty gutter (ascending gutter index).  Rethrows the
  // first delivery error (validation, strict budget rejection, an
  // exhausted retry); the front ends treat a throwing flush as poisoning
  // their repair state.  Idempotent; an empty flush delivers nothing and
  // charges nothing.
  void flush();

  // Deltas currently buffered across gutters.
  std::size_t buffered() const { return buffered_; }
  std::size_t gutters() const { return gutters_.size(); }

  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t capacity_drains = 0;  // gutter filled during submit()
    std::uint64_t flush_drains = 0;     // partial gutters drained by flush()
    std::uint64_t flushes = 0;
    // Drains delivered through routed_ingest (capacity_drains +
    // flush_drains, less any that threw).
    std::uint64_t delta_batches = 0;
    std::uint64_t peak_buffered = 0;  // max buffered() ever observed
  };
  const Stats& stats() const { return stats_; }

 private:
  std::size_t gutter_of(Edge e) const {
    return static_cast<std::size_t>(
        static_cast<std::uint64_t>(e.u) * gutters_.size() / universe_);
  }
  // Delivers gutter g as one batch and empties it, whether or not the
  // delivery throws.
  void drain(std::size_t g);

  VertexId universe_;
  VertexSketches& sketches_;
  mpc::Cluster* cluster_;
  mpc::Simulator* simulator_;  // null unless kSimulated
  std::string label_;
  std::size_t capacity_;

  std::vector<std::vector<EdgeDelta>> gutters_;
  std::size_t buffered_ = 0;
  mpc::RoutedBatch routed_scratch_;
  Stats stats_;
};

}  // namespace streammpc
