#include "obs/content_hash.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace litmus::obs {
namespace {

constexpr std::uint64_t kMul = 0x9e3779b185ebca87ull;  // odd
constexpr int kRot = 31;
constexpr std::size_t kStripe = 32;
/// Distinct lane seeds, so equal words in different lanes diverge.
constexpr std::uint64_t kSeed[4] = {
    0x243f6a8885a308d3ull, 0x13198a2e03707344ull, 0xa4093822299f31d0ull,
    0x082efa98ec4e6c89ull};

inline std::uint64_t load_le64(const unsigned char* p) noexcept {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof w);
  if constexpr (std::endian::native == std::endian::big)
    w = __builtin_bswap64(w);
  return w;
}

inline std::uint64_t step(std::uint64_t h, std::uint64_t w) noexcept {
  return std::rotl(h ^ w, kRot) * kMul;
}

/// MurmurHash3's 64-bit finalizer; a bijection.
inline std::uint64_t fmix64(std::uint64_t k) noexcept {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdull;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ull;
  k ^= k >> 33;
  return k;
}

/// Feeds every whole stripe of p[0, len) to the lanes; returns the bytes
/// consumed. The lanes live in locals so the four chains stay in
/// registers.
std::size_t consume_stripes(std::uint64_t (&lane)[4], const unsigned char* p,
                            std::size_t len) noexcept {
  std::uint64_t a = lane[0], b = lane[1], c = lane[2], d = lane[3];
  const std::size_t whole = len - len % kStripe;
  for (std::size_t i = 0; i < whole; i += kStripe) {
    a = step(a, load_le64(p + i));
    b = step(b, load_le64(p + i + 8));
    c = step(c, load_le64(p + i + 16));
    d = step(d, load_le64(p + i + 24));
  }
  lane[0] = a;
  lane[1] = b;
  lane[2] = c;
  lane[3] = d;
  return whole;
}

}  // namespace

ContentHasher::ContentHasher() noexcept
    : lane_{kSeed[0], kSeed[1], kSeed[2], kSeed[3]} {}

void ContentHasher::update(const void* data, std::size_t len) noexcept {
  if (len == 0) return;
  const auto* p = static_cast<const unsigned char*>(data);
  total_ += len;
  if (n_pending_ > 0) {
    const std::size_t take = std::min(len, kStripe - n_pending_);
    std::memcpy(pending_ + n_pending_, p, take);
    n_pending_ += take;
    p += take;
    len -= take;
    if (n_pending_ < kStripe) return;
    consume_stripes(lane_, pending_, kStripe);
    n_pending_ = 0;
  }
  const std::size_t used = consume_stripes(lane_, p, len);
  n_pending_ = len - used;
  if (n_pending_ > 0) std::memcpy(pending_, p + used, n_pending_);
}

std::uint64_t ContentHasher::digest() const noexcept {
  std::uint64_t lane[4] = {lane_[0], lane_[1], lane_[2], lane_[3]};
  std::size_t i = 0;
  for (; i + 8 <= n_pending_; i += 8)
    lane[i / 8] = step(lane[i / 8], load_le64(pending_ + i));
  if (i < n_pending_) {
    unsigned char last[8] = {};
    std::memcpy(last, pending_ + i, n_pending_ - i);
    lane[i / 8] = step(lane[i / 8], load_le64(last));
  }
  std::uint64_t h = fmix64(total_ * kMul);
  for (const std::uint64_t l : lane) h = fmix64(h ^ l);
  return h;
}

std::uint64_t content_hash64(const void* data, std::size_t len) noexcept {
  ContentHasher h;
  h.update(data, len);
  return h.digest();
}

}  // namespace litmus::obs
