// s-sparse recovery: a rows x buckets grid of 1-sparse cells with a
// pairwise-independent hash per row.  If the underlying vector has at most
// ~buckets/2 nonzero coordinates, every coordinate lands alone in some cell
// of some row with constant probability per row, so recovery succeeds with
// probability 1 - 2^{-Omega(rows)}.
//
// Hash/fingerprint parameters live in a shared, immutable `SSparseParams`
// object: every cell grid that may ever be merged (e.g. the per-vertex
// sketches of one bank/level) must reference the same params, which is what
// makes the structure linear across vertices.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/hashing.h"
#include "sketch/onesparse.h"

namespace streammpc {

struct SSparseShape {
  unsigned rows = 2;
  unsigned buckets = 8;
};

class SSparseParams {
 public:
  SSparseParams(SSparseShape shape, std::uint64_t dimension,
                std::uint64_t seed);

  const SSparseShape& shape() const { return shape_; }
  std::uint64_t dimension() const { return dimension_; }
  std::uint64_t z() const { return z_; }
  std::uint64_t row_bucket(unsigned row, Coord c) const {
    return row_hashes_[row].bucket(c, shape_.buckets);
  }

  // z^c via a precomputed table of repeated squares — the same product, in
  // the same multiplication order, as Mersenne61::pow(z, c), but without
  // recomputing the squares on every call.  This is the dominant cost of a
  // cell update, so the ingest path computes it once per (bank, level) and
  // reuses it across rows and both edge endpoints.
  std::uint64_t pow_z(Coord c) const {
    std::uint64_t acc = 1;
    for (unsigned i = 0; c != 0; ++i, c >>= 1) {
      if (c & 1) acc = Mersenne61::mul(acc, z_squares_[i]);
    }
    return acc;
  }

 private:
  SSparseShape shape_;
  std::uint64_t dimension_;
  std::uint64_t z_;  // fingerprint base
  std::uint64_t z_squares_[64];  // z^(2^i)
  std::vector<PairwiseHash> row_hashes_;
};

// Decodes every 1-sparse cell of a grid slice and returns the recovered
// coordinates sorted and deduplicated (SSparseRecovery::recover).  The
// L0 samplers need only the min-rank coordinate of a level and take it
// without allocating through L0Params::sample_level.
std::vector<OneSparseResult> recover_cells(const SSparseParams& params,
                                           std::span<const OneSparseCell> cells);

class SSparseRecovery {
 public:
  // A default-constructed instance is the zero vector and owns no cells;
  // cells are allocated on first update (sparse graphs stay cheap).
  SSparseRecovery() = default;

  void update(const SSparseParams& params, Coord c, std::int64_t delta);
  void merge(const SSparseParams& params, const SSparseRecovery& other);

  // Returns the decodable coordinates (deduplicated, unordered).  Exact
  // support recovery w.h.p. when the vector is <= ~buckets/2 sparse;
  // always a subset-of-support up to the negligible fingerprint-collision
  // probability.
  std::vector<OneSparseResult> recover(const SSparseParams& params) const;

  bool allocated() const { return !cells_.empty(); }
  bool is_zero() const;

  // Memory words (8-byte units) currently held.
  std::uint64_t words() const;

 private:
  void ensure(const SSparseParams& params);

  std::vector<OneSparseCell> cells_;  // rows * buckets, row-major
};

}  // namespace streammpc
