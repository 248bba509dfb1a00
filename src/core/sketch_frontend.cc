#include "core/sketch_frontend.h"

#include "common/check.h"

namespace streammpc {

SketchFrontend::SketchFrontend(VertexId universe, VertexSketches& sketches,
                               mpc::Cluster* cluster, mpc::ExecMode mode,
                               const mpc::SchedulerConfig& scheduler,
                               std::uint64_t scratch_words,
                               mpc::FaultInjector* fault_injector)
    : universe_(universe),
      sketches_(sketches),
      cluster_(cluster),
      cache_(universe) {
  if (cluster_ != nullptr && mode == mpc::ExecMode::kSimulated) {
    simulator_ =
        std::make_unique<mpc::Simulator>(*cluster_, scratch_words, scheduler);
    simulator_->attach_fault_injector(fault_injector);
  }
}

void SketchFrontend::deliver(std::span<const EdgeDelta> deltas,
                             const std::string& label) {
  if (gutter_ != nullptr) {
    // Async front door: the gutter's drains deliver the same bytes through
    // the same routed_ingest, under the label fixed at
    // enable_async() (delivery may charge under a later phase than
    // submission — flush() bounds that).
    gutter_->submit(deltas);
    return;
  }
  // Route the batch to the machines hosting the affected endpoint sketches
  // and charge the actual per-machine loads on the CommLedger; under
  // kSimulated each machine's resident shard + delivered sub-batch is
  // budgeted against s by the simulator, which splits, retries or grows
  // as configured.
  routed_ingest(cluster_, universe_, deltas, label, sketches_,
                routed_scratch_, simulator_.get());
}

void SketchFrontend::deliver(std::span<const Update> updates,
                             const std::string& label) {
  delta_scratch_.clear();
  for (const Update& u : updates)
    delta_scratch_.push_back(
        EdgeDelta{u.e, u.type == UpdateType::kInsert ? +1 : -1});
  deliver(std::span<const EdgeDelta>(delta_scratch_), label);
}

void SketchFrontend::enable_async(const GutterIngestConfig& config,
                                  const std::string& default_label) {
  SMPC_CHECK_MSG(gutter_ == nullptr, "async ingest already enabled");
  GutterIngestConfig gcfg = config;
  if (gcfg.label == GutterIngestConfig{}.label)
    gcfg.label = default_label;  // ledger parity with sync ingest
  gutter_ = std::make_unique<GutterIngest>(
      universe_, sketches_, gcfg, cluster_,
      simulator_ ? mpc::ExecMode::kSimulated : mpc::ExecMode::kRouted,
      simulator_.get());
}

void SketchFrontend::flush() {
  if (gutter_ == nullptr) return;
  // A failed delivery can leave the resident sketches partially updated
  // (a strict-mode throw mid-flush): nothing derived from the previous
  // sketch state is trustworthy for an incremental snapshot.
  const QueryCache::PoisonOnThrow guard(cache_);
  gutter_->flush();
}

QueryCache::SnapshotPtr SketchFrontend::serve(
    const std::function<QueryCache::Rebuilt()>& rebuild,
    const std::vector<VertexId>* labels) {
  // Flush-on-query: pending drains bump the mutation epoch as they apply,
  // so the epoch must be settled before acquire/derive/publish read it.
  flush();
  return cache_.serve(sketches_.mutation_epoch(), rebuild, labels);
}

}  // namespace streammpc
