#include "sketch/onesparse.h"

#include "common/check.h"
#include "common/field.h"
#include "sketch/ssparse.h"

namespace streammpc {

std::uint64_t field_encode_delta(std::int64_t delta) {
  if (delta >= 0) return Mersenne61::reduce(static_cast<std::uint64_t>(delta));
  // |delta| modulo 2^64: negating the signed value overflows at INT64_MIN.
  const std::uint64_t mag =
      Mersenne61::reduce(0 - static_cast<std::uint64_t>(delta));
  return Mersenne61::sub(0, mag);
}

void OneSparseCell::update(Coord c, std::int64_t delta, std::uint64_t z) {
  if (delta == 0) return;
  w_ += delta;
  s_ += static_cast<__int128>(c) * delta;
  fp_ = Mersenne61::add(fp_,
                        Mersenne61::mul(field_encode_delta(delta), Mersenne61::pow(z, c)));
}

void OneSparseCell::merge(const OneSparseCell& other) {
  w_ += other.w_;
  s_ += other.s_;
  fp_ = Mersenne61::add(fp_, other.fp_);
}

std::optional<Coord> OneSparseCell::candidate(std::uint64_t dimension) const {
  if (w_ == 0) return std::nullopt;  // zero or cancelling multi-element state
  if (s_ % w_ != 0) return std::nullopt;
  const __int128 cand = s_ / w_;
  if (cand < 0 || cand >= static_cast<__int128>(dimension)) return std::nullopt;
  return static_cast<Coord>(cand);
}

std::optional<OneSparseResult> OneSparseCell::decode(
    std::uint64_t z, std::uint64_t dimension) const {
  const auto c = candidate(dimension);
  if (!c) return std::nullopt;
  const std::uint64_t expected =
      Mersenne61::mul(field_encode_delta(w_), Mersenne61::pow(z, *c));
  if (expected != fp_) return std::nullopt;
  return OneSparseResult{*c, w_};
}

std::optional<OneSparseResult> OneSparseCell::decode(
    const SSparseParams& params) const {
  const auto c = candidate(params.dimension());
  if (!c) return std::nullopt;
  const std::uint64_t expected =
      Mersenne61::mul(field_encode_delta(w_), params.pow_z(*c));
  if (expected != fp_) return std::nullopt;
  return OneSparseResult{*c, w_};
}

}  // namespace streammpc
