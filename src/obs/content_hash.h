// The one 64-bit content hash of the tree: run-manifest input
// fingerprints, the snapshot source fingerprint and payload checksum
// (io/snapshot.h), and snapshot cache-file keys all use it.
//
// Design. Four independent lanes walk the input as 32-byte stripes of
// little-endian 64-bit words; lane i takes word i of every stripe and
// steps h = rotl(h ^ w, 31) * K with an odd K. The tail (< 32 bytes) goes
// into the lanes word by word, its last partial word zero-padded; the
// total length and the four lanes are then folded through the fmix64
// finalizer. The four dependency chains run side by side, so the hash
// moves at memory speed where a byte-serial multiply chain does not.
//
// Guarantee. Every step is a bijection of the lane for a fixed word and of
// the word for a fixed lane, and each fold is a bijection of the lane it
// takes in. Two inputs of the same length that differ only inside one
// 8-byte word — in particular by any single bit flip — therefore always
// get different digests. Beyond that it is a checksum, not a
// cryptographic hash.
//
// Streaming. ContentHasher::update() may be called with any split of the
// input; digest() is the same as content_hash64() over the concatenation.
#pragma once

#include <cstddef>
#include <cstdint>

namespace litmus::obs {

class ContentHasher {
 public:
  ContentHasher() noexcept;

  void update(const void* data, std::size_t len) noexcept;

  /// Digest of everything passed to update() so far; the hasher stays
  /// usable, so further update() calls continue the same input.
  std::uint64_t digest() const noexcept;

  /// Total bytes passed to update().
  std::uint64_t bytes() const noexcept { return total_; }

 private:
  std::uint64_t lane_[4];
  std::uint64_t total_ = 0;
  unsigned char pending_[32];  ///< partial stripe awaiting more input
  std::size_t n_pending_ = 0;
};

/// One-shot ContentHasher digest of a buffer.
std::uint64_t content_hash64(const void* data, std::size_t len) noexcept;

}  // namespace litmus::obs
