#include "mpc/cluster.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.h"

namespace streammpc::mpc {

namespace {

std::uint64_t ceil_log_base(std::uint64_t x, std::uint64_t base) {
  if (x <= 1) return 0;
  SMPC_CHECK(base >= 2);
  std::uint64_t r = 0;
  // Iterative to avoid floating-point edge cases.
  __uint128_t acc = 1;
  while (acc < x) {
    acc *= base;
    ++r;
  }
  return r;
}

// Constant word-size slack for derived local and total memory.  It absorbs
// the difference between the paper's bit-level accounting and our concrete
// struct sizes: 4 words per 1-sparse cell (exact 128-bit index sums) times
// the default 2x8 grids and t = 12 banks works out to ~1536 log2(n) words
// per vertex against a log^3 n budget, so 48 covers every n >= 64 at the
// default geometry.
constexpr std::uint64_t kLocalSlack = 48;

std::uint64_t cube_log2(std::uint64_t n) {
  std::uint64_t lg = 1;
  while ((1ULL << lg) < n) ++lg;
  return lg * lg * lg;
}

}  // namespace

Cluster::Cluster(const MpcConfig& config) : config_(config) {
  SMPC_CHECK(config.n >= 2);
  SMPC_CHECK(config.phi > 0.0 && config.phi < 1.0);

  if (config.local_memory_words != 0) {
    local_capacity_ = config.local_memory_words;
  } else {
    const double s = std::pow(static_cast<double>(config.n), config.phi);
    local_capacity_ = static_cast<std::uint64_t>(std::ceil(s)) *
                      cube_log2(config.n) * kLocalSlack;
  }
  if (local_capacity_ < 16) local_capacity_ = 16;

  const double sr = std::pow(static_cast<double>(config.n), config.phi);
  record_capacity_ =
      std::max<std::uint64_t>(2, static_cast<std::uint64_t>(std::ceil(sr)));

  if (config.machines != 0) {
    machines_ = config.machines;
  } else {
    // Total memory ~O(n): n * log^3 n words (with the same constant
    // slack), the regime of Theorems 1.1-1.2 / 6.7.  The derived machine
    // count is then ~n^{1-phi}, matching §1.2.
    const std::uint64_t budget = config.n * cube_log2(config.n) * kLocalSlack;
    machines_ = (budget + local_capacity_ - 1) / local_capacity_;
  }
  if (machines_ < 1) machines_ = 1;
  ledger_.reset(machines_);
}

std::uint64_t Cluster::grow() {
  machines_ *= 2;
  config_.machines = machines_;
  ledger_.grow(machines_);
  return machines_;
}

std::uint64_t Cluster::machine_of(std::uint64_t v, std::uint64_t universe) const {
  SMPC_CHECK(universe >= 1 && v < universe);
  // floor(v * P / universe): contiguous blocks, balanced to within one
  // vertex; 128-bit intermediate so v * P never overflows.
  return static_cast<std::uint64_t>(
      static_cast<__uint128_t>(v) * machines_ / universe);
}

std::pair<std::uint64_t, std::uint64_t> Cluster::vertex_block(
    std::uint64_t machine, std::uint64_t universe) const {
  SMPC_CHECK(machine < machines_ && universe >= 1);
  // machine_of(v) = floor(v * P / universe) >= m  <=>  v >= ceil(m * U / P),
  // so block m is [ceil(m * U / P), ceil((m + 1) * U / P)); 128-bit
  // intermediates match machine_of's overflow guard.
  const auto block_start = [&](std::uint64_t m) {
    return static_cast<std::uint64_t>(
        (static_cast<__uint128_t>(m) * universe + machines_ - 1) / machines_);
  };
  const std::uint64_t first = std::min(block_start(machine), universe);
  const std::uint64_t last = std::min(block_start(machine + 1), universe);
  return {first, last};
}

void Cluster::route_batch(std::span<const EdgeDelta> batch,
                          std::uint64_t universe, RoutedBatch& out) const {
  // A delta is delivered at most twice, so this bounds every CSR offset
  // (checked up front — the offsets are 32-bit and must never wrap).
  SMPC_CHECK_MSG(batch.size() <= UINT32_MAX / 2,
                 "routed batch too large for 32-bit CSR offsets");
  out.offsets.assign(machines_ + 1, 0);
  out.load_words.assign(machines_, 0);
  out.items.clear();
  out.machine_scratch.resize(2 * batch.size());
  // Counting pass: each delta lands on its endpoints' machine(s); the
  // machine pairs are cached so the filling pass skips the divides.  It
  // also rejects malformed edges (u >= v here, v >= universe in
  // machine_of) before any caller has charged a round for the batch.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    SMPC_CHECK_MSG(batch[i].e.u < batch[i].e.v,
                   "routed edges must be normalized (u < v)");
    const std::uint64_t mu = machine_of(batch[i].e.u, universe);
    const std::uint64_t mv = machine_of(batch[i].e.v, universe);
    out.machine_scratch[2 * i] = mu;
    out.machine_scratch[2 * i + 1] = mv;
    ++out.offsets[mu + 1];
    if (mv != mu) ++out.offsets[mv + 1];
  }
  for (std::uint64_t m = 0; m < machines_; ++m)
    out.offsets[m + 1] += out.offsets[m];
  out.items.resize(out.offsets[machines_]);
  // Filling pass via a moving cursor per machine.
  out.cursor_scratch.assign(out.offsets.begin(), out.offsets.end() - 1);
  std::uint32_t* cursor = out.cursor_scratch.data();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const EdgeDelta& d = batch[i];
    const std::uint64_t mu = out.machine_scratch[2 * i];
    const std::uint64_t mv = out.machine_scratch[2 * i + 1];
    if (mu == mv) {
      out.items[cursor[mu]++] =
          RoutedBatch::Item{d, RoutedBatch::kEndpointU | RoutedBatch::kEndpointV};
    } else {
      out.items[cursor[mu]++] = RoutedBatch::Item{d, RoutedBatch::kEndpointU};
      out.items[cursor[mv]++] = RoutedBatch::Item{d, RoutedBatch::kEndpointV};
    }
  }
  for (std::uint64_t m = 0; m < machines_; ++m) {
    out.load_words[m] = RoutedBatch::kWordsPerDelta *
                        (out.offsets[m + 1] - out.offsets[m]);
  }
}

void Cluster::charge_routed(const RoutedBatch& routed,
                            const std::string& label) {
  SMPC_CHECK_MSG(routed.machines() == machines_,
                 "routed batch was built for a different machine count");
  // Delivery is one point-to-point scatter round; every machine already
  // knows its sub-batch boundaries from the (charged) preprocessing sort.
  add_rounds(1, label);
  charge_comm(routed.total_words());
  ledger_.record_round(routed.load_words);
  const std::uint64_t max_load = routed.max_load_words();
  if (max_load > local_capacity_) {
    std::ostringstream os;
    os << "routed batch '" << label << "' delivers " << max_load
       << " words to one machine, exceeding local memory s="
       << local_capacity_;
    violate(os.str());
  }
}

void Cluster::add_rounds(std::uint64_t r, const std::string& label) {
  rounds_ += r;
  rounds_by_label_[label] += r;
}

std::uint64_t Cluster::broadcast_rounds() const {
  // Fan-out-s broadcast tree over all machines; >= 1 round always.
  return std::max<std::uint64_t>(
      1, ceil_log_base(machines_, record_capacity_));
}

std::uint64_t Cluster::aggregate_rounds(std::uint64_t items) const {
  return std::max<std::uint64_t>(
      1, ceil_log_base(std::max<std::uint64_t>(items, 1), record_capacity_));
}

std::uint64_t Cluster::sort_rounds(std::uint64_t items) const {
  // [GSZ11]: sorting N items on an MPC with local memory s takes
  // O(log_s N) rounds; the constant is small, we charge exactly the tree
  // height plus one shuffle round.
  return 1 + aggregate_rounds(items);
}

void Cluster::begin_phase() {
  ++phases_;
  phase_start_rounds_ = rounds_;
  phase_start_comm_ = comm_total_;
}

void Cluster::set_usage(const std::string& label, std::uint64_t words) {
  usage_[label] = words;
  const std::uint64_t total = usage_total();
  if (total > peak_usage_) peak_usage_ = total;
  if (total > total_capacity_words()) {
    std::ostringstream os;
    os << "total memory " << total << " words exceeds capacity "
       << total_capacity_words() << " (machines=" << machines_
       << ", s=" << local_capacity_ << ") after updating '" << label << "'";
    violate(os.str());
  }
}

void Cluster::note_object(std::uint64_t words, const std::string& label) {
  if (words > peak_object_) peak_object_ = words;
  if (words > local_capacity_) {
    std::ostringstream os;
    os << "indivisible object '" << label << "' of " << words
       << " words exceeds local memory s=" << local_capacity_;
    violate(os.str());
  }
}

std::uint64_t Cluster::usage_total() const {
  std::uint64_t total = 0;
  for (const auto& [label, words] : usage_) total += words;
  return total;
}

void Cluster::charge_comm(std::uint64_t words) {
  comm_total_ += words;
  if (phase_comm() > peak_phase_comm_) peak_phase_comm_ = phase_comm();
}

void Cluster::violate(const std::string& what) {
  violations_.push_back(what);
  if (config_.strict) throw CheckError("MPC capacity violation: " + what);
}

std::string Cluster::report() const {
  std::ostringstream os;
  os << "MPC cluster: machines=" << machines_ << " s=" << local_capacity_
     << " words, total capacity=" << total_capacity_words() << " words\n";
  os << "rounds=" << rounds_ << " over " << phases_ << " phases\n";
  for (const auto& [label, r] : rounds_by_label_)
    os << "  rounds[" << label << "] = " << r << "\n";
  os << "memory: current=" << usage_total() << " peak=" << peak_usage_
     << " peak object=" << peak_object_ << " words\n";
  for (const auto& [label, w] : usage_)
    os << "  usage[" << label << "] = " << w << "\n";
  os << "communication: total=" << comm_total_
     << " peak/phase=" << peak_phase_comm_ << " words\n";
  if (ledger_.rounds() > 0) os << ledger_.report();
  if (!violations_.empty()) {
    os << "VIOLATIONS (" << violations_.size() << "):\n";
    for (const auto& v : violations_) os << "  " << v << "\n";
  }
  return os.str();
}

}  // namespace streammpc::mpc
