#include "sketch/ssparse.h"

#include <algorithm>

#include "common/check.h"
#include "common/field.h"

namespace streammpc {

SSparseParams::SSparseParams(SSparseShape shape, std::uint64_t dimension,
                             std::uint64_t seed)
    : shape_(shape), dimension_(dimension) {
  SMPC_CHECK(shape.rows >= 1 && shape.buckets >= 1);
  SMPC_CHECK(dimension >= 1);
  SplitMix64 sm(seed);
  z_ = Mersenne61::reduce(sm.next());
  if (z_ < 2) z_ += 2;  // avoid degenerate fingerprint bases 0/1
  z_squares_[0] = Mersenne61::reduce(z_);
  for (unsigned i = 1; i < 64; ++i)
    z_squares_[i] = Mersenne61::mul(z_squares_[i - 1], z_squares_[i - 1]);
  row_hashes_.reserve(shape.rows);
  for (unsigned r = 0; r < shape.rows; ++r)
    row_hashes_.emplace_back(sm.next());
}

void SSparseRecovery::ensure(const SSparseParams& params) {
  if (cells_.empty()) {
    cells_.resize(static_cast<std::size_t>(params.shape().rows) *
                  params.shape().buckets);
  }
}

void SSparseRecovery::update(const SSparseParams& params, Coord c,
                             std::int64_t delta) {
  SMPC_CHECK(c < params.dimension());
  if (delta == 0) return;
  ensure(params);
  const unsigned buckets = params.shape().buckets;
  // One fingerprint term per update, shared across rows (every row's cell
  // receives the same delta * z^c increment).
  const std::uint64_t term =
      Mersenne61::mul(field_encode_delta(delta), params.pow_z(c));
  for (unsigned r = 0; r < params.shape().rows; ++r) {
    const std::uint64_t b = params.row_bucket(r, c);
    cells_[static_cast<std::size_t>(r) * buckets + b].apply_term(c, delta,
                                                                 term);
  }
}

void SSparseRecovery::merge(const SSparseParams& params,
                            const SSparseRecovery& other) {
  if (!other.allocated()) return;
  ensure(params);
  SMPC_CHECK(cells_.size() == other.cells_.size());
  for (std::size_t i = 0; i < cells_.size(); ++i)
    cells_[i].merge(other.cells_[i]);
}

std::vector<OneSparseResult> recover_cells(
    const SSparseParams& params, std::span<const OneSparseCell> cells) {
  std::vector<OneSparseResult> out;
  for (const OneSparseCell& cell : cells) {
    if (auto r = cell.decode(params)) {
      out.push_back(*r);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const OneSparseResult& a, const OneSparseResult& b) {
              return a.coord < b.coord;
            });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const OneSparseResult& a, const OneSparseResult& b) {
                          return a.coord == b.coord;
                        }),
            out.end());
  return out;
}

std::vector<OneSparseResult> SSparseRecovery::recover(
    const SSparseParams& params) const {
  if (!allocated()) return {};
  return recover_cells(
      params, std::span<const OneSparseCell>(cells_.data(), cells_.size()));
}

bool SSparseRecovery::is_zero() const {
  for (const OneSparseCell& cell : cells_)
    if (!cell.is_zero()) return false;
  return true;
}

std::uint64_t SSparseRecovery::words() const {
  // OneSparseCell = w (1 word) + s (2 words) + fp (1 word).
  return cells_.size() * 4;
}

}  // namespace streammpc
