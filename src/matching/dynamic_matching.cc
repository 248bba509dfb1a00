#include "matching/dynamic_matching.h"

#include "common/check.h"
#include "common/random.h"
#include "mpc/primitives.h"

namespace streammpc {

DynamicApproxMatching::DynamicApproxMatching(
    VertexId n, const DynamicMatchingConfig& config, mpc::Cluster* cluster)
    : n_(n),
      config_(config),
      cluster_(cluster) {
  SMPC_CHECK(n >= 2);
  if (cluster != nullptr && config.exec_mode == mpc::ExecMode::kSimulated) {
    simulator_ = std::make_unique<mpc::Simulator>(
        *cluster, config.simulator_scratch_words, config.scheduler);
    simulator_->attach_fault_injector(config.fault_injector);
  }
  SplitMix64 sm(config.seed);
  for (std::uint64_t guess = n; guess >= 1; guess /= 2) {
    Instance inst;
    inst.opt_guess = guess;
    AklyConfig ac;
    ac.alpha = config.alpha;
    ac.opt_guess = guess;
    ac.shape = config.shape;
    ac.seed = sm.next();
    inst.sparsifier = std::make_unique<AklySparsifier>(n, ac);
    // The Theta(log n) guesses run in parallel on the MPC: a phase costs
    // the max of the instances' round bills, so only the largest guess
    // (the first, with the dominating sparsifier) carries the cluster.
    inst.maximal = std::make_unique<BatchMaximalMatching>(
        config.kappa, guesses_.empty() ? cluster : nullptr);
    guesses_.push_back(std::move(inst));
    if (guess == 1) break;
  }
}

void DynamicApproxMatching::apply_batch(const Batch& batch) {
  if (cluster_ != nullptr) cluster_->begin_phase();
  mpc::sort(cluster_, batch.size(), "matching/preprocess");
  if (cluster_ == nullptr || batch.empty()) {
    // Flat baseline: one in-process pass per guess, no routing accounting.
    for (auto& inst : guesses_) {
      auto delta = inst.sparsifier->apply_batch(batch);
      inst.maximal->apply(delta.remove, delta.add);
    }
  } else {
    // Route the batch to the machines hosting the endpoint state — the
    // actual per-machine delta loads, not a flat broadcast.  The Theta(log
    // n) guesses run in parallel on the MPC (each machine hosts a shard of
    // every guess), so one delivery serves them all.
    delta_scratch_.clear();
    delta_scratch_.reserve(batch.size());
    for (const Update& u : batch) {
      delta_scratch_.push_back(
          EdgeDelta{u.e, u.type == UpdateType::kInsert ? 1 : -1});
    }
    for (auto& inst : guesses_) inst.sparsifier->begin_batch(batch);
    // An update is applied by the machine owning the edge's min endpoint
    // (the kEndpointU copy appears exactly once per delta), so every delta
    // lands once; samplers are linear, so the machine schedule is
    // irrelevant to the resulting state.
    const auto apply_owned =
        [&](std::uint64_t, std::span<const mpc::RoutedBatch::Item> items) {
          for (const mpc::RoutedBatch::Item& item : items) {
            if (!(item.endpoints & mpc::RoutedBatch::kEndpointU)) continue;
            for (auto& inst : guesses_) {
              inst.sparsifier->apply_delta(item.delta.e, item.delta.delta);
            }
          }
        };
    if (simulator_ != nullptr) {
      // The sampler shards report their per-machine resident words, so
      // every batch is probed, split, retried or grown by the same loop as
      // the vertex-sketch front ends.  Routing happens inside the
      // simulator, per chunk.
      simulator_->execute(
          delta_scratch_, n_, "matching/sketch-update",
          [&](std::span<std::uint64_t> out) {
            for (auto& inst : guesses_)
              inst.sparsifier->add_resident_words(out);
          },
          apply_owned);
    } else {
      cluster_->route_batch(delta_scratch_, n_, routed_scratch_);
      cluster_->charge_routed(routed_scratch_, "matching/sketch-update");
      for (std::uint64_t m = 0; m < routed_scratch_.machines(); ++m) {
        apply_owned(m, routed_scratch_.machine_items(m));
      }
    }
    for (auto& inst : guesses_) {
      auto delta = inst.sparsifier->finish_batch();
      inst.maximal->apply(delta.remove, delta.add);
    }
  }
  if (cluster_ != nullptr)
    cluster_->set_usage("matching/dynamic", memory_words());
}

std::vector<Edge> DynamicApproxMatching::matching() const {
  const Instance* best = nullptr;
  for (const auto& inst : guesses_) {
    if (best == nullptr || inst.maximal->size() > best->maximal->size())
      best = &inst;
  }
  return best == nullptr ? std::vector<Edge>{} : best->maximal->matching();
}

std::size_t DynamicApproxMatching::matching_size() const {
  std::size_t best = 0;
  for (const auto& inst : guesses_)
    best = std::max(best, inst.maximal->size());
  return best;
}

std::uint64_t DynamicApproxMatching::memory_words() const {
  std::uint64_t total = 0;
  for (const auto& inst : guesses_) {
    total += inst.sparsifier->memory_words() + inst.maximal->memory_words();
  }
  return total;
}

}  // namespace streammpc
