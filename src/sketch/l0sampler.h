// L0-sampler over a signed vector X in {-poly .. +poly}^N (Lemma 3.1,
// [CJ19]-style construction):
//
//  * levels j = 0 .. L-1, L = ceil(log2 N) + 1; a shared pairwise hash
//    assigns every coordinate a geometric level cutoff, so level j contains
//    each coordinate with probability 2^{-j} (level 0 = everything);
//  * each level keeps an s-sparse recovery grid;
//  * a query scans from the sparsest level down, recovers the surviving
//    support, and returns the element minimizing a shared rank hash (a
//    min-wise selection, making the choice near-uniform over the support);
//  * the sketch is linear: merge() adds grids cell-wise, so the sampler of
//    a vertex set is the sum of the vertices' samplers (Remark 3.2).
//
// Shared randomness lives in L0Params; all samplers that may ever be merged
// must be built against the same L0Params instance.
//
// Storage is one flat row-major cell array [level][row][bucket] — the same
// layout the per-bank arenas (sketch/arena.h) use per vertex page, so a
// merged sampler is a straight element-wise sum over contiguous pages.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/hashing.h"
#include "sketch/ssparse.h"

namespace streammpc {

struct L0Shape {
  unsigned rows = 2;     // s-sparse rows per level
  unsigned buckets = 8;  // s-sparse buckets per row
};

// Precomputed per-(bank, coordinate) update plan: the coordinate's level
// depth, the per-level fingerprint terms for +delta and -delta, and the
// in-page cell offsets.  Computed once by L0Params::plan_coord and applied
// to both edge endpoints — the seed implementation recomputed the same
// hashes and fingerprint powers 2 * rows times per (edge, bank, level).
struct CoordPlan {
  unsigned depth = 0;
  std::vector<std::uint64_t> term_pos;  // [level] fingerprint delta, +delta
  std::vector<std::uint64_t> term_neg;  // [level] fingerprint delta, -delta
  std::vector<std::uint32_t> offsets;   // [level * rows + row] in-page index
};

class L0Params {
 public:
  L0Params(std::uint64_t dimension, L0Shape shape, std::uint64_t seed);

  std::uint64_t dimension() const { return dimension_; }
  unsigned levels() const { return levels_; }
  const L0Shape& shape() const { return shape_; }
  const SSparseParams& level_params(unsigned level) const {
    return level_params_[level];
  }

  // Cells per level (rows * buckets) and per full sampler page.
  std::size_t cells_per_level() const {
    return static_cast<std::size_t>(shape_.rows) * shape_.buckets;
  }
  std::size_t cells_per_page() const { return cells_per_level() * levels_; }

  // Deepest level containing coordinate c (c belongs to levels 0..depth).
  unsigned depth_of(Coord c) const;

  // Fills `plan` with everything the ingest path needs to apply coordinate
  // c with +-delta to any sampler page: depth, per-level fingerprint terms,
  // per-(level, row) cell offsets.  `plan`'s buffers are reused across
  // calls — no allocation after the first edge of a batch.
  void plan_coord(Coord c, std::int64_t delta, CoordPlan& plan) const;

  // Rank used for min-wise uniform selection among recovered coordinates.
  std::uint64_t rank_of(Coord c) const { return rank_hash_(c); }

  // One level of a sample: decodes every cell of `cells` (that level's
  // cells_per_level() cells) and returns the recovered coordinate of
  // minimum rank, ties to the lower coordinate, or nullopt when no cell
  // decodes.  Allocates nothing.  L0Sampler::sample and the fused group
  // kernel (VertexSketches::sample_boundaries) both call it, from the
  // sparsest level down.
  std::optional<OneSparseResult> sample_level(
      unsigned level, std::span<const OneSparseCell> cells) const;

  // Nominal sketch size in words (for MPC memory accounting): matches the
  // O(log^2 N) bound of Lemma 3.1 for the configured shape.
  std::uint64_t nominal_words() const;

 private:
  std::uint64_t dimension_;
  unsigned levels_;
  L0Shape shape_;
  PairwiseHash level_hash_;
  KWiseHash rank_hash_;
  std::vector<SSparseParams> level_params_;
};

class L0Sampler {
 public:
  // Default-constructed sampler is the zero vector (no storage).
  L0Sampler() = default;

  void update(const L0Params& params, Coord c, std::int64_t delta);
  void merge(const L0Params& params, const L0Sampler& other);

  // Zeroes the sampler while keeping (and, on first use, allocating) its
  // cell buffer — the scratch-reuse hook for repeated merged() queries.
  void reset(const L0Params& params);

  // Returns a (near-uniform) random support element with its weight, or
  // nullopt if the vector is (w.h.p.) zero or recovery failed at every
  // level.  Failure on a nonzero vector happens with constant probability
  // per sampler; callers keep O(log n) independent banks (§6.3).
  std::optional<OneSparseResult> sample(const L0Params& params) const;

  bool allocated() const { return !cells_.empty(); }

  // Levels 0..active_levels()-1 may hold nonzero cells; everything above
  // is guaranteed zero, so merge and sample skip it (the flat-layout
  // equivalent of the seed's lazy per-level allocation).
  unsigned active_levels() const { return active_levels_; }

  // Whole-page cell access (row-major [level][row][bucket]); `mutable_cells`
  // allocates on demand.  A caller writing cells directly (the arena merge
  // path) must raise the watermark via set_active_levels.
  std::span<const OneSparseCell> cells() const {
    return {cells_.data(), cells_.size()};
  }
  std::span<OneSparseCell> mutable_cells(const L0Params& params) {
    ensure_levels(params, params.levels());
    return {cells_.data(), cells_.size()};
  }
  void set_active_levels(unsigned levels) { active_levels_ = levels; }

  // Words currently allocated (0 for the zero vector).
  std::uint64_t words() const;

 private:
  // Grows the cell buffer to cover at least `levels` levels (zero-filled).
  void ensure_levels(const L0Params& params, unsigned levels);

  std::size_t cells_per_level_ = 0;
  unsigned active_levels_ = 0;
  std::vector<OneSparseCell> cells_;  // flat [level][row][bucket]
};

}  // namespace streammpc
