// Versioned binary columnar snapshot of a SeriesStore (".litmus-snap").
//
// Purpose: repeated runs over an unchanged telemetry export should not pay
// for CSV parsing at all. The snapshot stores each series as its raw
// double column (bit patterns preserved, NaN missing values included), so
// loading is a validate + memcpy pass that reproduces the parsed
// SeriesStore bit-identically.
//
// Format (all fixed-width little-endian fields, no struct padding):
//
//   header  (56 bytes)
//     magic            8 bytes  "LITSNAP1"
//     version          u32      kSnapshotVersion
//     endian_tag       u32      0x01020304 as written by the producer
//     fingerprint      u64      content_hash64 of the *source CSV* bytes
//     source_bytes     u64      size of the source CSV
//     source_mtime_ns  u64      source mtime (ns since epoch; 0 = unknown)
//     n_series         u64
//     payload_bytes    u64      total size of the records that follow
//   payload: n_series records, each
//     element          u32
//     kpi              u32      kpi::KpiId numeric value
//     start_bin        i64
//     bin_minutes      i32
//     reserved         u32      0
//     n_values         u64
//     values           n_values * f64 (raw bit patterns)
//   trailer
//     payload_hash     u64      content_hash64 of the payload bytes
//
// Invalidation rules: a snapshot loads only when magic, version, endian
// tag, source fingerprint, source byte count, payload size, and payload
// checksum all match; any mismatch (source edited, codec bumped, foreign
// endianness, truncation, corruption) reports "stale" and the caller
// falls back to parsing the CSV. Writes go through obs::open_output_file,
// so an existing snapshot rotates to ".old" instead of being clobbered
// mid-read by a concurrent consumer.
//
// The recorded (source_bytes, source_mtime_ns) pair lets a warm probe
// skip re-hashing an unchanged multi-GiB source: when the source's stat
// still matches, the recorded fingerprint is trusted (the same freshness
// rule `make` uses); when it doesn't — or LITMUS_SNAPSHOT_VERIFY=1 asks
// for belt and braces — the caller re-hashes the source and the
// fingerprint comparison above decides. The payload checksum is verified
// on every load regardless.
// Alignment guarantee (relied on by io/mapped_store.h): the header is 56
// bytes and every record header is 32 bytes followed by n*8 value bytes,
// so each record's value column starts 8-byte aligned in the file. A
// mapped reader can expose the columns as const double* views directly
// over the pages.
#pragma once

#include <cstdint>
#include <fstream>
#include <optional>
#include <span>
#include <string>

#include "io/store.h"
#include "obs/content_hash.h"

namespace litmus::io {

inline constexpr std::uint32_t kSnapshotVersion = 3;
inline constexpr std::string_view kSnapshotMagic = "LITSNAP1";
inline constexpr std::string_view kSnapshotSuffix = ".litmus-snap";

/// Writes the whole store as a snapshot keyed to the given source CSV
/// identity. `source_mtime_ns` may be 0 when the mtime is unknown — the
/// snapshot then never qualifies for the stat-trust shortcut and every
/// probe re-hashes the source. Throws std::runtime_error on I/O failure.
void save_series_snapshot(const std::string& path, const SeriesStore& store,
                          std::uint64_t source_fingerprint,
                          std::uint64_t source_bytes,
                          std::uint64_t source_mtime_ns);

/// Streaming snapshot producer: writes records one series at a time with
/// bounded memory, so a million-series corpus never has to exist as a heap
/// SeriesStore first. The header is written up front with placeholder
/// counts and patched in finish(); the payload checksum is accumulated
/// incrementally, so the resulting file is byte-identical to what
/// save_series_snapshot would produce from an equivalent store.
///
/// Records must be appended in ascending (element, kpi) key order — the
/// mapped reader (io/mapped_store.h) binary-searches the record index and
/// save_series_snapshot's std::map iteration provides the same order.
class SnapshotWriter {
 public:
  /// Opens `path` via obs::open_output_file (mkdir-p + rotation). Throws
  /// when unwritable.
  SnapshotWriter(const std::string& path, std::uint64_t source_fingerprint,
                 std::uint64_t source_bytes, std::uint64_t source_mtime_ns);
  ~SnapshotWriter();  ///< finishes the file if finish() was not called

  SnapshotWriter(const SnapshotWriter&) = delete;
  SnapshotWriter& operator=(const SnapshotWriter&) = delete;

  void append(net::ElementId element, kpi::KpiId kpi,
              const ts::TimeSeries& series);
  void append(std::uint32_t element, kpi::KpiId kpi, std::int64_t start_bin,
              std::int32_t bin_minutes, std::span<const double> values);

  /// Writes the trailer checksum and patches the header counts; flushes.
  /// Throws std::runtime_error on I/O failure. Idempotent.
  void finish();

  std::uint64_t series_written() const noexcept { return n_series_; }
  std::uint64_t payload_bytes() const noexcept { return payload_bytes_; }

 private:
  std::string path_;
  std::ofstream out_;
  std::uint64_t n_series_ = 0;
  std::uint64_t payload_bytes_ = 0;
  obs::ContentHasher payload_hash_;  ///< over the payload bytes so far
  bool finished_ = false;
};

/// Source identity recorded in a snapshot header.
struct SnapshotMeta {
  std::uint64_t fingerprint = 0;      ///< content_hash64 of the source bytes
  std::uint64_t source_bytes = 0;
  std::uint64_t source_mtime_ns = 0;  ///< 0 = unknown at write time
};

/// Reads just the header of a snapshot. Returns nullopt when the file is
/// missing, unreadable, or not a snapshot for this byte order (callers
/// then treat it as absent). A header of another codec version still
/// yields its meta: the full validation (load_series_snapshot,
/// MappedStore::open) rejects it as "version mismatch", so the caller
/// reports the stale snapshot and rebuilds it instead of silently
/// skipping it.
std::optional<SnapshotMeta> read_snapshot_meta(const std::string& path);

/// Best-effort in-place update of the recorded source mtime. Called after
/// a snapshot hit that had to fall back to the full content check because
/// the source was touched without changing: refreshing the header lets
/// the next probe take the stat-trust shortcut again. The header is not
/// covered by the payload checksum, so the patch is safe in place.
void refresh_snapshot_mtime(const std::string& path,
                            std::uint64_t source_mtime_ns) noexcept;

enum class SnapshotLoad {
  kLoaded,   ///< store now holds the snapshot's series
  kMissing,  ///< no snapshot file at `path`
  kStale,    ///< exists but fails validation; caller should re-parse
};

/// Validates and loads a snapshot into `store`. On kStale/kMissing the
/// store is left untouched; `why`, when non-null, receives a one-line
/// reason for a stale result.
SnapshotLoad load_series_snapshot(const std::string& path, SeriesStore& store,
                                  std::uint64_t expected_fingerprint,
                                  std::uint64_t expected_bytes,
                                  std::string* why = nullptr);

/// Cache-file path for a source with this key:
/// "<dir>/<16-hex-digits>.litmus-snap". ingest_series_file keys by the
/// content_hash64 of the source *path*, so each source owns one stable cache
/// file (probed without touching the source bytes, rewritten in place —
/// with rotation — when the source changes).
std::string snapshot_cache_path(const std::string& dir, std::uint64_t key);

}  // namespace litmus::io
