// Run provenance: a RunManifest captures everything needed to answer
// "what exactly produced this output?" — binary version and build flags,
// the resolved execution environment (thread count, RNG seed and substream
// scheme), the fully resolved configuration, and a streaming 64-bit
// content fingerprint of every input file. Entry points build one at
// startup, write it as run_manifest.json next to the event stream, and
// embed it in every JSON artifact (metrics, trace, bench output) so an
// artifact is auditable on its own.
//
// diff-runs (obs/rundiff.h) compares two manifests field by field; the
// wall-clock timestamp and thread count are recorded but treated as
// informational there (results are bit-identical at any thread count).
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace litmus::obs {

class JsonWriter;

/// Library semantic version, single-sourced for the CLI and the benches.
inline constexpr const char* kLitmusVersion = "0.10.0";

/// Identifier of the RNG substream scheme (DESIGN.md §8): per-iteration
/// counter-based forks, Rng(seed).fork(iteration). Recorded so a future
/// scheme change is visible as provenance drift, not silent bias.
inline constexpr const char* kRngScheme = "counter-fork-v1";

struct InputFingerprint {
  std::string path;
  std::uint64_t bytes = 0;
  std::uint64_t hash = 0;  ///< content_hash64 (obs/content_hash.h) of the bytes
  bool ok = false;         ///< false unless the file was read to its end
};

struct RunManifest {
  int schema = 1;
  std::string tool;     ///< e.g. "litmus_cli assess", "bench_perf"
  std::string version = kLitmusVersion;
  std::string build_flags;  ///< build_flags_string() unless overridden
  std::size_t threads = 0;  ///< resolved worker count
  std::uint64_t seed = 0;   ///< sampling seed of the run
  std::string rng_scheme = kRngScheme;
  std::string started_at_utc;  ///< informational; ignored by diff-runs
  /// SIMD dispatch provenance (tsmath/simd/dispatch.h), set by entry
  /// points — obs cannot depend on tsmath. `simd_detected` is the best
  /// tier the host supports, `simd_dispatch` the tier actually run
  /// (after LITMUS_SIMD / --simd overrides). Both are informational to
  /// diff-runs: the default kernels are bit-identical across tiers.
  /// `fast_math` is GATING: reassociated kernels may change results.
  std::string simd_detected;
  std::string simd_dispatch;
  bool fast_math = false;
  /// Fully resolved configuration as key/value pairs, in insertion order
  /// (flags as given plus defaults the run actually used).
  std::vector<std::pair<std::string, std::string>> config;
  std::vector<InputFingerprint> inputs;

  void add_config(std::string key, std::string value);
  /// Fingerprints the file now (streaming; never loads it whole). A
  /// missing/unreadable file records ok = false rather than throwing, so
  /// the manifest always reflects what the run attempted to read.
  void add_input(const std::string& path);
  /// Records an already-computed fingerprint (e.g. from the ingest layer,
  /// which hashes the mapped file anyway) instead of re-reading the file.
  void add_input(std::string path, std::uint64_t bytes, std::uint64_t hash);

  /// Emits the manifest as one JSON object (caller owns the surrounding
  /// document position — used both standalone and embedded).
  void write(JsonWriter& w) const;
  std::string to_json() const;

  /// Writes "<to_json()>\n" via open_output_file (mkdir + rotate).
  void write_file(const std::string& path) const;
};

/// Streams the file through a fixed buffer into a ContentHasher. `ok` is
/// set only when the read reached the end of the file without an I/O
/// error, so a directory or a failing device is never recorded as a
/// readable empty input.
InputFingerprint fingerprint_file(const std::string& path);

/// Compile-time switches that can change results or overhead, e.g.
/// "obs=on,assert=off". Kept short and stable so manifests diff cleanly.
std::string build_flags_string();

/// "YYYY-MM-DDTHH:MM:SSZ" for the current wall-clock time.
std::string utc_timestamp_now();

/// Opens `path` for writing. Creates missing parent directories, and when
/// the file already exists rotates it aside with a warning on stderr
/// instead of silently overwriting: to "<path>.old" first, then
/// "<path>.old.1", "<path>.old.2", ... so repeated rotations never clobber
/// an earlier rotation. Throws std::runtime_error when the path stays
/// unwritable.
std::ofstream open_output_file(const std::string& path);

}  // namespace litmus::obs
