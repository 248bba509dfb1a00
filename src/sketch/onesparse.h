// 1-sparse recovery cell: the atomic building block of the s-sparse
// recovery structure and hence of the L0-sampler (Lemma 3.1).
//
// Maintains, for a signed integer vector X updated coordinate-wise:
//   w  = sum_i X_i                       (total weight)
//   s  = sum_i i * X_i                   (index-weighted sum, exact)
//   fp = sum_i X_i * z^i  mod p          (polynomial fingerprint, p = 2^61-1)
// If X is exactly 1-sparse with X_c = w, then s = c*w and fp = w * z^c; the
// fingerprint makes the converse hold except with probability <= N/p.
//
// The cell is *linear*: merging two cells is component-wise addition, so
// sketches of vertex sets add up (Remark 3.2).
#pragma once

#include <cstdint>
#include <optional>

#include "common/field.h"
#include "sketch/coord.h"

namespace streammpc {

struct OneSparseResult {
  Coord coord = 0;
  std::int64_t weight = 0;
};

class SSparseParams;

// Maps a signed delta into GF(p = 2^61 - 1).  Defined for every int64_t,
// INT64_MIN included (the magnitude is taken in unsigned arithmetic).
std::uint64_t field_encode_delta(std::int64_t delta);

class OneSparseCell {
 public:
  // `z` is the shared fingerprint base (same across all cells that may be
  // merged together); `dimension` bounds valid coordinates.
  void update(Coord c, std::int64_t delta, std::uint64_t z);

  // Hot-path variant: `term` is the precomputed fingerprint increment
  // field_encode_delta(delta) * z^c, shared by every cell the coordinate
  // touches in one level (and, negated, by the opposite endpoint).
  void apply_term(Coord c, std::int64_t delta, std::uint64_t term) {
    w_ += delta;
    s_ += static_cast<__int128>(c) * delta;
    fp_ = Mersenne61::add(fp_, term);
  }

  // Component-wise accumulation from raw cell state (the arena's SoA
  // arrays); equivalent to merge() of a cell holding exactly (w, s, fp).
  void add_raw(std::int64_t w, __int128 s, std::uint64_t fp) {
    w_ += w;
    s_ += s;
    fp_ = Mersenne61::add(fp_, fp);
  }

  void merge(const OneSparseCell& other);
  // Inverse of merge(): w and s subtract as integers, fp through
  // Mersenne61::sub, so x.merge(y) followed by x.subtract(y) restores x
  // exactly and x - x is the canonical zero cell.
  void subtract(const OneSparseCell& other) {
    w_ -= other.w_;
    s_ -= other.s_;
    fp_ = Mersenne61::sub(fp_, other.fp_);
  }

  bool is_zero() const { return w_ == 0 && s_ == 0 && fp_ == 0; }
  bool operator==(const OneSparseCell&) const = default;

  // Decodes if the cell state is consistent with an exactly-1-sparse
  // vector; returns nullopt for zero or multi-element states.
  std::optional<OneSparseResult> decode(std::uint64_t z,
                                        std::uint64_t dimension) const;
  // The same decode with z^c read from `params`' power table
  // (SSparseParams::pow_z) — the sampling paths' form.
  std::optional<OneSparseResult> decode(const SSparseParams& params) const;

  std::int64_t weight_sum() const { return w_; }

 private:
  // The coordinate an exactly-1-sparse state would hold (w and s checks
  // only; the caller verifies the fingerprint).
  std::optional<Coord> candidate(std::uint64_t dimension) const;

  std::int64_t w_ = 0;
  __int128 s_ = 0;
  std::uint64_t fp_ = 0;
};

}  // namespace streammpc
