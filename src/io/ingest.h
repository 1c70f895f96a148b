// High-throughput ingest for production-scale series exports.
//
// Two layers (DESIGN.md §11):
//
//  1. Fast parse — the file is memory-mapped (read into a heap buffer when
//     mmap is unavailable), split into newline-aligned chunks, and each
//     chunk is parsed on the parallel::Pool with zero-copy
//     std::string_view field splitting and std::from_chars numeric
//     conversion: no per-row or per-field allocations. Per-chunk partial
//     accumulators merge in chunk order, so the resulting SeriesStore is
//     bit-identical to serial parsing at any thread count and any chunk
//     split (the same determinism contract as DESIGN.md §8). Each chunk
//     also counts its physical lines; prefix sums turn a chunk-local parse
//     failure into the same line-accurate CsvError the serial reader
//     throws, with 64-bit line numbers for multi-GiB exports.
//
//  2. Snapshot cache — a versioned binary columnar snapshot
//     (".litmus-snap", io/snapshot.h) keyed by the content hash
//     (obs/content_hash.h) of the source *path*, recording the content
//     hash of the source *bytes* plus the source's (size, mtime).
//     ingest_series_file() consults the cache directory first: while the
//     source's stat matches what the snapshot recorded, the recorded
//     content fingerprint is trusted (make-style freshness) and a warm hit
//     costs one stat plus a checksummed snapshot read — no pass over the
//     source at all. On a stat mismatch, or with LITMUS_SNAPSHOT_VERIFY=1,
//     the source is re-hashed and compared against the recorded
//     fingerprint. Stale snapshots (source changed, codec version bumped,
//     corrupt file) are reported with a kWarning "stale_snapshot" event
//     and rewritten after the parse; a snapshot of an older format (v2 and
//     earlier used a different payload checksum) is never served.
//
// Observability: ingest.rows / ingest.bytes counters,
// ingest.snapshot_hits / ingest.snapshot_misses, and ingest.rows_per_s /
// ingest.bytes_per_s gauges land in --metrics-json. They describe how the
// data arrived, never what was computed, so diff-runs ignores them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "io/store.h"

namespace litmus::io {

/// Read-only view of an input file: mmap'd when the platform supports it,
/// otherwise read whole into an owned buffer. Move-only RAII.
class InputBuffer {
 public:
  InputBuffer() = default;
  InputBuffer(InputBuffer&& other) noexcept;
  InputBuffer& operator=(InputBuffer&& other) noexcept;
  InputBuffer(const InputBuffer&) = delete;
  InputBuffer& operator=(const InputBuffer&) = delete;
  ~InputBuffer();

  /// Maps (or reads) `path`; throws std::runtime_error when unreadable.
  static InputBuffer map_file(const std::string& path);

  /// As map_file, but with MAP_SHARED so every process mapping the same
  /// file shares physical pages (the mapped columnar store's mode; for a
  /// PROT_READ mapping the semantics are otherwise identical). Falls back
  /// to a heap read where mmap is unavailable.
  static InputBuffer map_file_shared(const std::string& path);

  /// Wraps in-memory data (tests, synthetic corpora).
  static InputBuffer from_string(std::string data);

  std::string_view view() const noexcept { return view_; }
  std::size_t size() const noexcept { return view_.size(); }
  bool mapped() const noexcept { return map_ != nullptr; }

 private:
  static InputBuffer map_impl(const std::string& path, bool shared);

  void* map_ = nullptr;       // non-null iff mmap'd
  std::size_t map_len_ = 0;
  std::string owned_;         // fallback / from_string storage
  std::string_view view_;
};

struct IngestOptions {
  /// 0 = auto: min(parallel worker count, size / min_chunk_bytes). Tests
  /// force a chunk count to exercise merging on small inputs.
  std::size_t force_chunks = 0;
  std::size_t min_chunk_bytes = 256 * 1024;
  /// Snapshot cache directory; empty disables the cache.
  std::string snapshot_dir;
  /// Input name used in CsvError messages.
  std::string source_name = "series csv";
};

struct IngestReport {
  std::uint64_t rows = 0;        ///< CSV data rows parsed (0 on snapshot hit)
  std::uint64_t bytes = 0;       ///< source CSV size in bytes
  std::uint64_t series = 0;      ///< series the ingest produced
  std::uint64_t fingerprint = 0; ///< content_hash64 of the source CSV bytes
  std::size_t chunks = 1;        ///< parallel chunks the parse used
  bool from_snapshot = false;
  std::string snapshot_path;     ///< resolved cache file ("" when disabled)
  double seconds = 0.0;
};

/// Chunk-parallel parse of an in-memory series CSV into `store`. Returns
/// the data-row count; throws CsvError exactly as the serial loader would.
/// `chunks_used`, when non-null, receives the actual chunk count.
std::size_t load_series_csv_fast(std::string_view data, SeriesStore& store,
                                 const IngestOptions& opts = {},
                                 std::size_t* chunks_used = nullptr);

/// Full ingest of a series CSV file: fingerprint, snapshot-cache probe,
/// fast parse + snapshot write on miss. Records the ingest metrics. The
/// snapshot is only written when `store` was empty on entry (a snapshot
/// must capture exactly this file's contents, nothing else).
IngestReport ingest_series_file(const std::string& path, SeriesStore& store,
                                const IngestOptions& opts = {});

namespace detail {

/// `n_chunks + 1` ascending offsets into `data`; every interior boundary
/// sits immediately after a '\n', so each chunk is a whole number of
/// physical lines. Depends only on (data, n_chunks) — never on scheduling.
std::vector<std::size_t> chunk_boundaries(std::string_view data,
                                          std::size_t n_chunks);

/// Physical line count of `data`: '\n' count plus a trailing unterminated
/// line, matching what std::getline would yield.
std::uint64_t count_lines(std::string_view data) noexcept;

/// Source mtime in nanoseconds since the epoch, 0 when unavailable. Only a
/// freshness shortcut — 0 simply forces the full re-hash.
std::uint64_t file_mtime_ns(const std::string& path) noexcept;

/// Records the ingest.* counters and gauges for a completed ingest.
void record_ingest_metrics(const IngestReport& rep);

/// Reports a cached snapshot that failed validation and is about to be
/// rebuilt from the source: a note on stderr plus a kWarning
/// "stale_snapshot" event carrying the reason.
void warn_stale_snapshot(const std::string& path, const std::string& why);

}  // namespace detail

}  // namespace litmus::io
