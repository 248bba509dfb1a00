// Configuration of the simulated MPC deployment (paper §1.2).
//
// The model: machines with local memory s = O(n^phi) words, strongly
// sublinear in the number of vertices n; total memory = machines * s, which
// the paper's algorithms keep at ~O(n) (n * polylog(n) words).  The
// simulator derives s and the machine count from (n, phi) unless they are
// pinned explicitly.
#pragma once

#include <cstddef>
#include <cstdint>

namespace streammpc::mpc {

// How a front-end structure with an attached cluster ingests one update
// batch (see simulator.h).  Without a cluster, ingest is one in-process
// pass over the flat delta span, with no routing and no per-machine
// accounting (the single-machine baseline), whatever the mode.
//   kRouted    — split per machine (Cluster::route_batch), charge the
//                per-machine loads on the CommLedger, then ingest the
//                routed sub-batches in one in-process pass (accounting
//                only; the PR-2 behavior).
//   kSimulated — hand the batch to mpc::Simulator: each simulated
//                machine's resident shard plus delivered sub-batch is
//                budgeted against s, and an over-budget delivery is split,
//                grown, or trips MemoryBudgetExceeded instead of silently
//                spilling (true simulation).
// Both modes produce sketch state byte-identical to flat ingest (cells are
// linear and commutative); they differ only in accounting and enforcement.
enum class ExecMode : std::uint8_t { kRouted, kSimulated };

// How the simulator's batch loop (mpc::Simulator) reacts when a
// simulated machine's claim on local memory s — resident sketch shard plus
// delivered sub-batch — would exceed its budget:
//   kNone         — never split; over-budget batches throw (strict
//                   clusters) or record overruns (non-strict).
//   kProportional — cut where the offending machine's prefix load crosses
//                   its remaining budget, so the left chunk fits that
//                   machine in one delivery, and walk the remainder the same
//                   way, charging every extra delivery and control round
//                   (the batch-dynamic MPC discipline of Nowicki–Onak,
//                   arXiv:2002.07800: batches are sized so that resident +
//                   delivered stays under s).  Final bytes are identical to
//                   one delivery (linearity).
enum class SplitPolicy : std::uint8_t { kNone, kProportional };

// How the batch loop reacts when splitting cannot help — the offending
// machine's *resident shard* alone exceeds the budget, so only
// re-partitioning can:
//   kNone   — never grow; the chunk executes exhausted (strict throws,
//             non-strict records).
//   kDouble — request a cluster of 2x machines (Cluster::grow()),
//             re-partition the resident shards via a charged shuffle round
//             under "<label>/grow-shuffle", re-route, and resume (at most
//             4 times per simulator).  Growing mutates the cluster
//             geometry, so it is opt-in.  It works under either split
//             policy: with SplitPolicy::kNone an unfixable overflow grows
//             and a fixable one executes exhausted.
enum class GrowPolicy : std::uint8_t { kNone, kDouble };

// Per-front-end knobs for the simulator's batch loop.  Embedded in the
// front ends' config structs (e.g. ConnectivityConfig::scheduler); ignored
// unless the structure executes in ExecMode::kSimulated.
struct SchedulerConfig {
  SplitPolicy policy = SplitPolicy::kNone;
  // Recovery policy for transient faults (mpc::FaultInjector): how many
  // times one leaf delivery is retried — with deterministic
  // backoff-in-rounds charged under "<label>/retry" — before the
  // TransientFault propagates.  0 disables retry.
  unsigned max_retries = 3;
  GrowPolicy grow = GrowPolicy::kNone;
};

struct MpcConfig {
  // Number of vertices of the maintained graph; drives s = ceil(n^phi).
  std::uint64_t n = 1024;

  // Local-memory exponent (paper's phi, an arbitrary constant in (0,1)).
  double phi = 0.5;

  // Words of local memory per machine; 0 = derive
  // 48 * ceil(n^phi) * ceil(log2 n)^3, minimum 16.  The log^3 factor
  // mirrors the paper's accounting: batches are limited to
  // O(n^phi / log^3 n) updates exactly so that the O(log^3 n)-bit sketches
  // of one batch fit on one machine (Theorem 6.7), i.e. machines hold
  // n^phi "polylog-sized" records.  The constant 48 (kLocalSlack in
  // cluster.cc) absorbs the difference between the paper's bit-level
  // accounting and our concrete struct sizes (see there).
  std::uint64_t local_memory_words = 0;

  // Number of machines; 0 = derive ceil(48 * n * ceil(log2 n)^3 / s): the
  // paper's ~O(n) = O(n log^3 n) total memory (Theorem 6.7), with the
  // same constant slack, split into machines of local memory s.
  std::uint64_t machines = 0;

  // If true, capacity violations throw CheckError immediately; otherwise
  // they are recorded and reported (benches use the latter to *measure*
  // head-room, tests use the former).
  bool strict = false;
};

}  // namespace streammpc::mpc
