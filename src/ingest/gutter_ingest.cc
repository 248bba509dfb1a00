#include "ingest/gutter_ingest.h"

#include <algorithm>
#include <cstdio>
#include <exception>

#include "common/check.h"
#include "mpc/cluster.h"
#include "sketch/graphsketch.h"

namespace streammpc {

GutterIngest::GutterIngest(VertexId universe, VertexSketches& sketches,
                           const GutterIngestConfig& config,
                           mpc::Cluster* cluster, mpc::ExecMode mode,
                           mpc::Simulator* simulator)
    : universe_(universe),
      sketches_(sketches),
      cluster_(cluster),
      simulator_(mode == mpc::ExecMode::kSimulated ? simulator : nullptr),
      label_(config.label),
      capacity_(std::max<std::size_t>(config.gutter_capacity, 1)) {
  SMPC_CHECK(universe >= 1);
  SMPC_CHECK_MSG(cluster_ == nullptr || mode != mpc::ExecMode::kSimulated ||
                     simulator_ != nullptr,
                 "simulated gutter drains require a Simulator");
  std::size_t gutters = config.gutters;
  if (gutters == 0)
    gutters = cluster_ != nullptr
                  ? static_cast<std::size_t>(cluster_->machines())
                  : 1;
  gutters_.resize(std::max<std::size_t>(gutters, 1));
}

GutterIngest::~GutterIngest() {
  // Destructor flush: buffered deltas must reach the resident shard, but a
  // destructor cannot rethrow — callers who need to observe delivery
  // errors call flush() explicitly first (the front ends flush on every
  // query, so this is a backstop, not the primary path).
  try {
    flush();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "streammpc: gutter destructor flush failed: %s\n",
                 e.what());
  } catch (...) {
    std::fprintf(stderr, "streammpc: gutter destructor flush failed\n");
  }
}

void GutterIngest::submit(const EdgeDelta& delta) {
  // Validate at the door, like update_edges — a bad edge must throw at
  // submit() with nothing buffered, not surface from a later flush.
  SMPC_CHECK(delta.e.u < delta.e.v && delta.e.v < universe_);
  const std::size_t g = gutter_of(delta.e);
  gutters_[g].push_back(delta);
  ++stats_.submitted;
  ++buffered_;
  stats_.peak_buffered = std::max<std::uint64_t>(stats_.peak_buffered,
                                                 buffered_);
  if (gutters_[g].size() >= capacity_) {
    ++stats_.capacity_drains;
    drain(g);
  }
}

void GutterIngest::submit(std::span<const EdgeDelta> deltas) {
  // Element-wise so drain boundaries are identical to single-delta
  // submission of the same sequence.
  for (const EdgeDelta& d : deltas) submit(d);
}

void GutterIngest::drain(std::size_t g) {
  std::vector<EdgeDelta>& gutter = gutters_[g];
  if (gutter.empty()) return;
  buffered_ -= gutter.size();
  // A drain is ONE front-end batch: routing, ledger charges, the
  // simulator's probe/split/retry/grow loop and the fault injector see
  // exactly what a synchronous front end would have delivered.  A failed
  // delivery is dropped: the gutter is emptied either way.
  try {
    routed_ingest(cluster_, universe_, gutter, label_, sketches_,
                  routed_scratch_, simulator_);
  } catch (...) {
    gutter.clear();
    throw;
  }
  ++stats_.delta_batches;
  gutter.clear();
}

void GutterIngest::flush() {
  ++stats_.flushes;
  for (std::size_t g = 0; g < gutters_.size(); ++g) {
    if (gutters_[g].empty()) continue;
    ++stats_.flush_drains;
    drain(g);
  }
}

}  // namespace streammpc
