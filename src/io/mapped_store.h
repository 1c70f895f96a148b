// Mmap-served read-only columnar series store (DESIGN.md §15).
//
// A MappedStore opens a `.litmus-snap` snapshot (io/snapshot.h) with
// mmap(PROT_READ, MAP_SHARED) and serves every series as a zero-copy view
// straight over the mapped pages — no per-process heap materialisation of
// the columns at all. N workers (or N processes) assessing the same corpus
// share one set of physical pages; the kernel pages columns in on demand
// and evicts them under pressure, so the resident cost is what the run
// actually touches, not the corpus size.
//
// Safety and validation. open() validates the full format before exposing
// anything: magic, codec version, endian tag, header/payload sizes, and
// the trailing payload checksum (obs/content_hash.h) over every payload
// byte. A snapshot that fails any check yields nullptr plus a one-line
// reason — never a half-populated store — and the ingest layer falls back
// to the CSV parse with a warning event. The record index is built in the
// same validation pass, so a truncated record table is caught before first
// use.
//
// Read-only contract. The mapping is PROT_READ: the store never writes a
// byte, the kernel shares the pages MAP_SHARED across every consumer, and
// any concurrent writer that truncates the file out from under a reader is
// a caller contract violation (snapshot writes go through rotation, never
// in-place truncation). All accessors are const and thread-safe without
// locks; N threads may fetch windows concurrently (the TSan-covered
// concurrent-reader tests in tests/io/mapped_store_test.cpp pin this).
//
// Window semantics are bit-identical to SeriesStore::provider(): a window
// starts all-kMissing, the overlap with the stored column is one memcpy of
// the stored bit patterns (NaN missing values included), and bins outside
// the column stay kMissing. Everything downstream — copy_range_into, the
// SIMD kernels, the Gram panels — runs unchanged.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "io/ingest.h"
#include "io/snapshot.h"
#include "io/store.h"

namespace litmus::io {

class MappedStore {
 public:
  /// Zero-copy view of one stored series: `values` points into the mapped
  /// pages (8-byte aligned by the snapshot format).
  struct SeriesView {
    std::int64_t start_bin = 0;
    std::int32_t bin_minutes = 60;
    std::span<const double> values;

    std::int64_t end_bin() const noexcept {
      return start_bin + static_cast<std::int64_t>(values.size());
    }
    /// TimeSeries::copy_range_into over the mapped column: one memcpy for
    /// the overlap, kMissing for bins outside the column.
    void copy_range_into(std::int64_t from_bin,
                         std::span<double> out) const noexcept;
  };

  /// How an open() performed, for the store.* metrics.
  struct OpenStats {
    double seconds = 0.0;          ///< open + validate + index wall time
    std::uint64_t bytes_mapped = 0;
    std::uint64_t series = 0;
    /// Major page faults the open incurred (/proc/self/stat delta; 0 where
    /// unsupported). Cold opens fault the whole payload in for the
    /// checksum pass; warm opens should show ~none.
    std::uint64_t major_faults = 0;
  };

  /// Opens and fully validates a snapshot. Returns nullptr with a one-line
  /// reason in `why` on any validation failure (missing file, bad magic,
  /// version/endian mismatch, truncation, checksum mismatch, malformed
  /// record table). Records the store.* metrics when obs is enabled.
  static std::unique_ptr<MappedStore> open(const std::string& path,
                                           std::string* why = nullptr);

  /// As open(), additionally requiring the snapshot's recorded source
  /// identity to match (the ingest cache-probe contract).
  static std::unique_ptr<MappedStore> open_for_source(
      const std::string& path, std::uint64_t expected_fingerprint,
      std::uint64_t expected_bytes, std::string* why = nullptr);

  std::size_t size() const noexcept { return index_.size(); }
  std::uint64_t bytes_mapped() const noexcept { return buf_.size(); }
  const std::string& path() const noexcept { return path_; }
  const SnapshotMeta& meta() const noexcept { return meta_; }
  const OpenStats& open_stats() const noexcept { return open_stats_; }

  bool contains(net::ElementId element, kpi::KpiId kpi) const noexcept;
  /// The view for (element, kpi), or nullptr when absent. O(log n).
  const SeriesView* find(net::ElementId element, kpi::KpiId kpi) const
      noexcept;

  /// Key-sorted read access to every view (store-equality tests, tools).
  struct Entry {
    SeriesStore::Key key;
    SeriesView view;
  };
  const std::vector<Entry>& entries() const noexcept { return index_; }

  /// Provider over the mapped pages, bit-identical to the heap
  /// SeriesStore::provider() for an equivalent store. The returned
  /// closure borrows `this`; the store must outlive it.
  core::SeriesProvider provider() const;

 private:
  MappedStore() = default;

  std::string path_;
  InputBuffer buf_;  ///< MAP_SHARED PROT_READ mapping of the snapshot
  SnapshotMeta meta_;
  OpenStats open_stats_;
  std::vector<Entry> index_;  ///< ascending by key
};

/// Result of a mapped ingest: the store serving the series plus the same
/// provenance report ingest_series_file produces.
struct MappedIngest {
  std::shared_ptr<MappedStore> store;  ///< never null on return
  IngestReport report;
};

/// Ingest a series CSV through the mapped columnar store: probe the
/// snapshot cache and mmap a valid snapshot directly (no heap store); on a
/// miss parse the CSV, write the snapshot, and map that. A stale or
/// corrupt snapshot falls back to the CSV parse with a `warning` event
/// (obs/events.h) — never a half-populated store. Requires
/// opts.snapshot_dir to be set (the snapshot is the store); throws
/// std::runtime_error otherwise, and on unreadable input or parse errors
/// exactly as ingest_series_file would.
MappedIngest ingest_series_file_mapped(const std::string& path,
                                       const IngestOptions& opts);

}  // namespace litmus::io
