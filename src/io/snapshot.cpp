#include "io/snapshot.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "io/ingest.h"
#include "obs/manifest.h"
#include "obs/trace.h"

namespace litmus::io {
namespace {

constexpr std::uint32_t kEndianTag = 0x01020304;
constexpr std::size_t kHeaderBytes = 8 + 4 + 4 + 8 + 8 + 8 + 8 + 8;
constexpr std::size_t kRecordHeaderBytes = 4 + 4 + 8 + 4 + 4 + 8;

/// Append-only little serializer: fixed-width fields memcpy'd into a
/// byte buffer (no struct padding, no endian surprises on LE hosts; a
/// foreign-endian reader is rejected by the endian tag).
struct ByteSink {
  std::string bytes;

  void raw(const void* p, std::size_t n) {
    bytes.append(static_cast<const char*>(p), n);
  }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i32(std::int32_t v) { raw(&v, sizeof v); }
  void i64(std::int64_t v) { raw(&v, sizeof v); }
};

/// Bounds-checked reader over the mapped snapshot.
struct ByteSource {
  const char* p;
  const char* end;

  bool raw(void* out, std::size_t n) {
    if (static_cast<std::size_t>(end - p) < n) return false;
    std::memcpy(out, p, n);
    p += n;
    return true;
  }
  template <typename T>
  bool get(T& out) {
    return raw(&out, sizeof out);
  }
  std::size_t remaining() const {
    return static_cast<std::size_t>(end - p);
  }
};

}  // namespace

std::string snapshot_cache_path(const std::string& dir, std::uint64_t key) {
  char hex[20];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(key));
  return dir + "/" + hex + std::string(kSnapshotSuffix);
}

std::optional<SnapshotMeta> read_snapshot_meta(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return std::nullopt;
  char header[kHeaderBytes];
  if (!f.read(header, kHeaderBytes)) return std::nullopt;

  ByteSource in{header, header + kHeaderBytes};
  char magic[8];
  std::uint32_t endian = 0;
  SnapshotMeta meta;
  in.raw(magic, sizeof magic);
  in.p += sizeof(std::uint32_t);  // version: the full validation checks it
  in.get(endian);
  in.get(meta.fingerprint);
  in.get(meta.source_bytes);
  in.get(meta.source_mtime_ns);

  if (std::memcmp(magic, kSnapshotMagic.data(), kSnapshotMagic.size()) != 0)
    return std::nullopt;
  if (endian != kEndianTag) return std::nullopt;
  return meta;
}

void refresh_snapshot_mtime(const std::string& path,
                            std::uint64_t source_mtime_ns) noexcept {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  if (!f) return;
  // magic(8) + version(4) + endian(4) + fingerprint(8) + source_bytes(8)
  f.seekp(32);
  f.write(reinterpret_cast<const char*>(&source_mtime_ns),
          sizeof source_mtime_ns);
}

SnapshotWriter::SnapshotWriter(const std::string& path,
                               std::uint64_t source_fingerprint,
                               std::uint64_t source_bytes,
                               std::uint64_t source_mtime_ns)
    : path_(path),
      out_(obs::open_output_file(path)) {
  ByteSink header;
  header.raw(kSnapshotMagic.data(), kSnapshotMagic.size());
  header.u32(kSnapshotVersion);
  header.u32(kEndianTag);
  header.u64(source_fingerprint);
  header.u64(source_bytes);
  header.u64(source_mtime_ns);
  header.u64(0);  // n_series, patched in finish()
  header.u64(0);  // payload_bytes, patched in finish()
  out_.write(header.bytes.data(),
             static_cast<std::streamsize>(header.bytes.size()));
}

SnapshotWriter::~SnapshotWriter() {
  try {
    finish();
  } catch (...) {
    // A destructor cannot report I/O failure; callers that care call
    // finish() explicitly and see the throw.
  }
}

void SnapshotWriter::append(net::ElementId element, kpi::KpiId kpi,
                            const ts::TimeSeries& series) {
  append(element.value, kpi, series.start_bin(), series.bin_minutes(),
         series.values());
}

void SnapshotWriter::append(std::uint32_t element, kpi::KpiId kpi,
                            std::int64_t start_bin, std::int32_t bin_minutes,
                            std::span<const double> values) {
  ByteSink rec;
  rec.u32(element);
  rec.u32(static_cast<std::uint32_t>(kpi));
  rec.i64(start_bin);
  rec.i32(bin_minutes);
  rec.u32(0);  // reserved
  rec.u64(values.size());
  rec.raw(values.data(), values.size() * sizeof(double));
  out_.write(rec.bytes.data(),
             static_cast<std::streamsize>(rec.bytes.size()));
  payload_hash_.update(rec.bytes.data(), rec.bytes.size());
  payload_bytes_ += rec.bytes.size();
  ++n_series_;
}

void SnapshotWriter::finish() {
  if (finished_) return;
  finished_ = true;
  const std::uint64_t payload_hash = payload_hash_.digest();
  out_.write(reinterpret_cast<const char*>(&payload_hash),
             sizeof payload_hash);
  // magic(8) + version(4) + endian(4) + fingerprint(8) + source_bytes(8)
  // + source_mtime_ns(8) = 40: the n_series / payload_bytes slots.
  out_.seekp(40);
  out_.write(reinterpret_cast<const char*>(&n_series_), sizeof n_series_);
  out_.write(reinterpret_cast<const char*>(&payload_bytes_),
             sizeof payload_bytes_);
  out_.flush();
  if (!out_) throw std::runtime_error("cannot write snapshot: " + path_);
}

void save_series_snapshot(const std::string& path, const SeriesStore& store,
                          std::uint64_t source_fingerprint,
                          std::uint64_t source_bytes,
                          std::uint64_t source_mtime_ns) {
  obs::ScopedSpan span("snapshot.save");
  SnapshotWriter writer(path, source_fingerprint, source_bytes,
                        source_mtime_ns);
  for (const auto& [key, series] : store.entries())
    writer.append(key.first, key.second, series.start_bin(),
                  series.bin_minutes(), series.values());
  writer.finish();
}

SnapshotLoad load_series_snapshot(const std::string& path, SeriesStore& store,
                                  std::uint64_t expected_fingerprint,
                                  std::uint64_t expected_bytes,
                                  std::string* why) {
  obs::ScopedSpan span("snapshot.load");
  const auto stale = [&](const char* reason) {
    if (why) *why = reason;
    return SnapshotLoad::kStale;
  };

  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return SnapshotLoad::kMissing;

  InputBuffer buf;
  try {
    buf = InputBuffer::map_file(path);
  } catch (const std::runtime_error&) {
    return stale("unreadable");
  }
  if (buf.size() < kHeaderBytes + sizeof(std::uint64_t))
    return stale("truncated header");

  ByteSource in{buf.view().data(), buf.view().data() + buf.size()};
  char magic[8];
  std::uint32_t version = 0, endian = 0;
  std::uint64_t fingerprint = 0, source_bytes = 0, source_mtime_ns = 0,
                n_series = 0, payload_bytes = 0;
  in.raw(magic, sizeof magic);
  in.get(version);
  in.get(endian);
  in.get(fingerprint);
  in.get(source_bytes);
  in.get(source_mtime_ns);
  in.get(n_series);
  in.get(payload_bytes);

  if (std::memcmp(magic, kSnapshotMagic.data(), kSnapshotMagic.size()) != 0)
    return stale("bad magic");
  if (version != kSnapshotVersion) return stale("version mismatch");
  if (endian != kEndianTag) return stale("foreign endianness");
  if (fingerprint != expected_fingerprint)
    return stale("source fingerprint changed");
  if (source_bytes != expected_bytes) return stale("source size changed");
  if (in.remaining() != payload_bytes + sizeof(std::uint64_t))
    return stale("payload size mismatch");

  const char* const payload = in.p;
  std::uint64_t recorded_hash = 0;
  std::memcpy(&recorded_hash, payload + payload_bytes, sizeof recorded_hash);
  if (obs::content_hash64(payload, payload_bytes) != recorded_hash)
    return stale("payload checksum mismatch");

  // Decode into a scratch store first so a malformed payload (despite the
  // checksum, e.g. a truncated record count) never half-updates `store`.
  ByteSource rec{payload, payload + payload_bytes};
  SeriesStore scratch;
  for (std::uint64_t s = 0; s < n_series; ++s) {
    std::uint32_t element = 0, kpi_raw = 0, reserved = 0;
    std::int64_t start_bin = 0;
    std::int32_t bin_minutes = 0;
    std::uint64_t n_values = 0;
    if (rec.remaining() < kRecordHeaderBytes)
      return stale("truncated record header");
    rec.get(element);
    rec.get(kpi_raw);
    rec.get(start_bin);
    rec.get(bin_minutes);
    rec.get(reserved);
    rec.get(n_values);
    if (kpi_raw >
        static_cast<std::uint32_t>(kpi::KpiId::kDroppedVoiceCallRatio))
      return stale("unknown KPI id");
    if (n_values > rec.remaining() / sizeof(double))
      return stale("truncated values");
    std::vector<double> values(static_cast<std::size_t>(n_values));
    rec.raw(values.data(), values.size() * sizeof(double));
    scratch.put(net::ElementId{element}, static_cast<kpi::KpiId>(kpi_raw),
                ts::TimeSeries(start_bin, std::move(values), bin_minutes));
  }
  if (rec.remaining() != 0) return stale("trailing bytes after records");

  store.absorb(std::move(scratch));
  return SnapshotLoad::kLoaded;
}

}  // namespace litmus::io
