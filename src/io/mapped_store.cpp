#include "io/mapped_store.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "obs/content_hash.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace litmus::io {
namespace {

// Snapshot layout constants, mirroring io/snapshot.cpp (the format doc in
// io/snapshot.h is the single source of truth for both).
constexpr std::uint32_t kEndianTag = 0x01020304;
constexpr std::size_t kHeaderBytes = 8 + 4 + 4 + 8 + 8 + 8 + 8 + 8;
constexpr std::size_t kRecordHeaderBytes = 4 + 4 + 8 + 4 + 4 + 8;

/// Major page-fault count of this process (/proc/self/stat field 12);
/// 0 where unsupported. The comm field may contain spaces or ')', so the
/// numeric fields are parsed from after the *last* ')'.
std::uint64_t proc_major_faults() noexcept {
  std::FILE* f = std::fopen("/proc/self/stat", "r");
  if (!f) return 0;
  char buf[1024];
  const std::size_t n = std::fread(buf, 1, sizeof buf - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  const char* p = std::strrchr(buf, ')');
  if (!p) return 0;
  ++p;
  // Fields after comm: state ppid pgrp session tty_nr tpgid flags minflt
  // cminflt majflt ... — majflt is the 10th token after ')'.
  unsigned long long majflt = 0;
  if (std::sscanf(p, " %*c %*d %*d %*d %*d %*d %*u %*u %*u %llu",
                  &majflt) != 1)
    return 0;
  return majflt;
}

void record_store_metrics(const MappedStore::OpenStats& st) {
  if (!obs::enabled()) return;
  // How the series were served, not what they hold: a mapped snapshot
  // is bit-identical to the parsed store (DESIGN.md §15).
  constexpr auto kMeasured = obs::MetricClass::kMeasured;
  auto& reg = obs::Registry::global();
  reg.counter("store.opens", kMeasured).add();
  reg.gauge("store.open_seconds", kMeasured).set(st.seconds);
  reg.gauge("store.bytes_mapped", kMeasured)
      .set(static_cast<double>(st.bytes_mapped));
  reg.gauge("store.series", kMeasured).set(static_cast<double>(st.series));
  reg.gauge("store.majflt_delta", kMeasured)
      .set(static_cast<double>(st.major_faults));
}

bool entry_key_less(const MappedStore::Entry& a,
                    const MappedStore::Entry& b) noexcept {
  return a.key < b.key;
}

}  // namespace

void MappedStore::SeriesView::copy_range_into(
    std::int64_t from_bin, std::span<double> out) const noexcept {
  std::fill(out.begin(), out.end(), ts::kMissing);
  const std::int64_t to_bin =
      from_bin + static_cast<std::int64_t>(out.size());
  const std::int64_t lo = std::max(from_bin, start_bin);
  const std::int64_t hi = std::min(to_bin, end_bin());
  if (lo >= hi) return;
  std::memcpy(out.data() + (lo - from_bin),
              values.data() + (lo - start_bin),
              static_cast<std::size_t>(hi - lo) * sizeof(double));
}

std::unique_ptr<MappedStore> MappedStore::open(const std::string& path,
                                               std::string* why) {
  obs::ScopedSpan span("store.open");
  const std::uint64_t t0 = obs::now_ns();
  const std::uint64_t majflt0 = proc_major_faults();
  const auto fail = [&](const char* reason) {
    if (why) *why = reason;
    return std::unique_ptr<MappedStore>{};
  };

  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return fail("missing");

  std::unique_ptr<MappedStore> store(new MappedStore());
  store->path_ = path;
  try {
    store->buf_ = InputBuffer::map_file_shared(path);
  } catch (const std::runtime_error&) {
    return fail("unreadable");
  }
  const std::string_view data = store->buf_.view();
  if (data.size() < kHeaderBytes + sizeof(std::uint64_t))
    return fail("truncated header");

  const char* p = data.data();
  char magic[8];
  std::uint32_t version = 0, endian = 0;
  std::uint64_t n_series = 0, payload_bytes = 0;
  std::memcpy(magic, p, 8);
  std::memcpy(&version, p + 8, 4);
  std::memcpy(&endian, p + 12, 4);
  std::memcpy(&store->meta_.fingerprint, p + 16, 8);
  std::memcpy(&store->meta_.source_bytes, p + 24, 8);
  std::memcpy(&store->meta_.source_mtime_ns, p + 32, 8);
  std::memcpy(&n_series, p + 40, 8);
  std::memcpy(&payload_bytes, p + 48, 8);

  if (std::memcmp(magic, kSnapshotMagic.data(), kSnapshotMagic.size()) != 0)
    return fail("bad magic");
  if (version != kSnapshotVersion) return fail("version mismatch");
  if (endian != kEndianTag) return fail("foreign endianness");
  if (data.size() - kHeaderBytes != payload_bytes + sizeof(std::uint64_t))
    return fail("payload size mismatch");

  // One pass over the payload: walk the record table, building the
  // key-sorted index of zero-copy views, and feed each record to the
  // checksum right after its header is read, while its lines are hot.
  // Record-level structure (counts, KPI ids) is validated too, so a
  // snapshot written by a buggy producer is rejected rather than served.
  // A structural failure still hashes the rest, so a corrupt payload
  // reports the checksum first, exactly as a checksum-then-walk would.
  const char* const payload = p + kHeaderBytes;
  const char* const rend = payload + payload_bytes;
  obs::ContentHasher hasher;
  const char* structure_error = nullptr;
  store->index_.reserve(static_cast<std::size_t>(n_series));
  const char* rp = payload;
  for (std::uint64_t s = 0; s < n_series; ++s) {
    if (static_cast<std::size_t>(rend - rp) < kRecordHeaderBytes) {
      structure_error = "truncated record header";
      break;
    }
    std::uint32_t element = 0, kpi_raw = 0;
    std::int64_t start_bin = 0;
    std::int32_t bin_minutes = 0;
    std::uint64_t n_values = 0;
    std::memcpy(&element, rp, 4);
    std::memcpy(&kpi_raw, rp + 4, 4);
    std::memcpy(&start_bin, rp + 8, 8);
    std::memcpy(&bin_minutes, rp + 16, 4);
    std::memcpy(&n_values, rp + 24, 8);
    const char* const values = rp + kRecordHeaderBytes;
    if (kpi_raw >
        static_cast<std::uint32_t>(kpi::KpiId::kDroppedVoiceCallRatio)) {
      structure_error = "unknown KPI id";
      break;
    }
    if (n_values > static_cast<std::size_t>(rend - values) / sizeof(double)) {
      structure_error = "truncated values";
      break;
    }
    Entry e;
    e.key = {element, static_cast<kpi::KpiId>(kpi_raw)};
    e.view.start_bin = start_bin;
    e.view.bin_minutes = bin_minutes;
    // 8-byte alignment is a format guarantee (io/snapshot.h): header 56B,
    // record headers 32B, value columns n*8B.
    e.view.values = std::span<const double>(
        reinterpret_cast<const double*>(values),
        static_cast<std::size_t>(n_values));
    store->index_.push_back(e);
    const char* const next = values + n_values * sizeof(double);
    hasher.update(rp, static_cast<std::size_t>(next - rp));
    rp = next;
  }
  if (!structure_error && rp != rend)
    structure_error = "trailing bytes after records";
  hasher.update(rp, static_cast<std::size_t>(rend - rp));

  std::uint64_t recorded_hash = 0;
  std::memcpy(&recorded_hash, rend, sizeof recorded_hash);
  if (hasher.digest() != recorded_hash)
    return fail("payload checksum mismatch");
  if (structure_error) return fail(structure_error);

  // Both writers emit records ascending by key (SnapshotWriter contract,
  // std::map iteration); keep the O(n) verify with a sort fallback so a
  // foreign-but-valid snapshot still serves, with last-wins duplicate
  // semantics matching SeriesStore::put.
  if (!std::is_sorted(store->index_.begin(), store->index_.end(),
                      entry_key_less)) {
    std::stable_sort(store->index_.begin(), store->index_.end(),
                     entry_key_less);
    std::vector<Entry> dedup;
    dedup.reserve(store->index_.size());
    for (std::size_t i = 0; i < store->index_.size(); ++i)
      if (i + 1 == store->index_.size() ||
          store->index_[i + 1].key != store->index_[i].key)
        dedup.push_back(store->index_[i]);
    store->index_ = std::move(dedup);
  }

  store->open_stats_.seconds =
      static_cast<double>(obs::now_ns() - t0) / 1e9;
  store->open_stats_.bytes_mapped = store->buf_.size();
  store->open_stats_.series = store->index_.size();
  const std::uint64_t majflt1 = proc_major_faults();
  store->open_stats_.major_faults =
      majflt1 >= majflt0 ? majflt1 - majflt0 : 0;
  record_store_metrics(store->open_stats_);
  return store;
}

std::unique_ptr<MappedStore> MappedStore::open_for_source(
    const std::string& path, std::uint64_t expected_fingerprint,
    std::uint64_t expected_bytes, std::string* why) {
  auto store = open(path, why);
  if (!store) return nullptr;
  if (store->meta_.fingerprint != expected_fingerprint) {
    if (why) *why = "source fingerprint changed";
    return nullptr;
  }
  if (store->meta_.source_bytes != expected_bytes) {
    if (why) *why = "source size changed";
    return nullptr;
  }
  return store;
}

bool MappedStore::contains(net::ElementId element, kpi::KpiId kpi) const
    noexcept {
  return find(element, kpi) != nullptr;
}

const MappedStore::SeriesView* MappedStore::find(net::ElementId element,
                                                 kpi::KpiId kpi) const
    noexcept {
  const SeriesStore::Key key{element.value, kpi};
  const auto it = std::lower_bound(
      index_.begin(), index_.end(), key,
      [](const Entry& e, const SeriesStore::Key& k) { return e.key < k; });
  if (it == index_.end() || it->key != key) return nullptr;
  return &it->view;
}

core::SeriesProvider MappedStore::provider() const {
  return [this](net::ElementId element, kpi::KpiId kpi, std::int64_t start,
                std::size_t n) {
    // Identical window semantics to SeriesStore::provider(): an hourly
    // window of n all-missing bins, overwritten by the stored bit
    // patterns where the stored column overlaps.
    ts::TimeSeries window(start, n, 60);
    const SeriesView* v = find(element, kpi);
    if (!v) return window;
    v->copy_range_into(start, window.mutable_values());
    return window;
  };
}

MappedIngest ingest_series_file_mapped(const std::string& path,
                                       const IngestOptions& opts) {
  if (opts.snapshot_dir.empty())
    throw std::runtime_error(
        "mapped ingest requires a snapshot cache directory");

  MappedIngest out;
  IngestReport& rep = out.report;
  const std::uint64_t t0 = obs::now_ns();

  // Map the source lazily: the trusted-hit path below never reads the
  // source pages at all (the probe is one stat + the snapshot open).
  const InputBuffer src = InputBuffer::map_file(path);
  rep.bytes = src.size();
  const std::uint64_t mtime_ns = detail::file_mtime_ns(path);
  bool have_fingerprint = false;

  rep.snapshot_path = snapshot_cache_path(
      opts.snapshot_dir, obs::content_hash64(path.data(), path.size()));
  const auto meta = read_snapshot_meta(rep.snapshot_path);
  if (meta) {
    // Same stat-trust probe as ingest_series_file (see io/ingest.h §2).
    const char* verify_env = std::getenv("LITMUS_SNAPSHOT_VERIFY");
    const bool trusted = (!verify_env || !*verify_env ||
                          std::string_view(verify_env) == "0") &&
                         mtime_ns != 0 && meta->source_mtime_ns != 0 &&
                         meta->source_bytes == rep.bytes &&
                         meta->source_mtime_ns == mtime_ns;
    rep.fingerprint =
        trusted ? meta->fingerprint
                : obs::content_hash64(src.view().data(), src.size());
    have_fingerprint = !trusted;
    std::string why;
    out.store = MappedStore::open_for_source(rep.snapshot_path,
                                             rep.fingerprint, rep.bytes,
                                             &why);
    if (out.store) {
      if (!trusted && mtime_ns != 0 && meta->source_mtime_ns != mtime_ns)
        refresh_snapshot_mtime(rep.snapshot_path, mtime_ns);
      rep.from_snapshot = true;
      rep.series = out.store->size();
      rep.seconds = static_cast<double>(obs::now_ns() - t0) / 1e9;
      if (obs::enabled())
        obs::Registry::global()
            .counter("ingest.snapshot_hits", obs::MetricClass::kMeasured)
            .add();
      detail::record_ingest_metrics(rep);
      return out;
    }
    detail::warn_stale_snapshot(rep.snapshot_path, why);
  }

  // Miss or stale: parse the CSV, write a fresh snapshot, map that. The
  // scratch heap store exists only for the duration of the rewrite.
  if (!have_fingerprint)
    rep.fingerprint = obs::content_hash64(src.view().data(), src.size());
  SeriesStore scratch;
  rep.rows = load_series_csv_fast(src.view(), scratch, opts, &rep.chunks);
  rep.series = scratch.size();
  if (obs::enabled())
    obs::Registry::global()
        .counter("ingest.snapshot_misses", obs::MetricClass::kMeasured)
        .add();
  save_series_snapshot(rep.snapshot_path, scratch, rep.fingerprint,
                       rep.bytes, mtime_ns);

  std::string why;
  out.store = MappedStore::open_for_source(rep.snapshot_path,
                                           rep.fingerprint, rep.bytes, &why);
  if (!out.store)
    throw std::runtime_error("cannot map fresh snapshot " +
                             rep.snapshot_path + ": " + why);
  rep.seconds = static_cast<double>(obs::now_ns() - t0) / 1e9;
  detail::record_ingest_metrics(rep);
  return out;
}

}  // namespace litmus::io
