// Mapped columnar store tests: bit-identity of the zero-copy provider
// against the heap SeriesStore path, rejection of every corruption class
// (bad magic, truncation, checksum flip, older format version) with the
// CSV fallback emitting a warning event instead of half-populating or
// serving the rejected file, and lock-free concurrent
// readers (this binary runs under TSan in CI).
#include "io/mapped_store.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "io/ingest.h"
#include "io/snapshot.h"
#include "io/store.h"
#include "obs/events.h"
#include "simkit/scale.h"

namespace litmus::io {
namespace {

namespace fs = std::filesystem;

class MappedStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("litmus_mapped_store_test_" + std::to_string(::getpid()));
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  /// A small scale corpus (two KPIs, a few clusters) whose snapshot the
  /// tests map. Generated once per test into the temp root.
  std::string make_snapshot() {
    sim::ScaleCorpusConfig cfg;
    cfg.elements = 120;
    cfg.cluster_size = 40;
    sim::write_scale_corpus((root_ / "corpus").string(), cfg);
    return (root_ / "corpus" / "series.litmus-snap").string();
  }

  /// Copies the snapshot and applies `mutate` to the copy's bytes.
  std::string corrupt_copy(const std::string& snap, const std::string& name,
                           void (*mutate)(std::string&)) {
    std::ifstream in(snap, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    std::string bytes = buf.str();
    mutate(bytes);
    const fs::path out = root_ / name;
    std::ofstream(out, std::ios::binary) << bytes;
    return out.string();
  }

  fs::path root_;
};

TEST_F(MappedStoreTest, ProviderBitIdenticalToHeapStore) {
  const std::string snap = make_snapshot();
  std::string why;
  const auto mapped = MappedStore::open(snap, &why);
  ASSERT_NE(mapped, nullptr) << why;

  SeriesStore heap;
  ASSERT_EQ(load_series_snapshot(snap, heap, 0, 0, &why),
            SnapshotLoad::kLoaded)
      << why;
  ASSERT_EQ(mapped->size(), heap.size());

  const core::SeriesProvider pm = mapped->provider();
  const core::SeriesProvider ph = heap.provider();
  // Window shapes: fully inside the column, straddling its start, its
  // end, and fully outside — the kMissing-padding paths must agree too.
  struct Window {
    std::int64_t start;
    std::size_t n;
  };
  const Window windows[] = {{-48, 24}, {-60, 24}, {10, 40}, {100, 8},
                            {-200, 8}, {-48, 72}};
  for (const auto& entry : mapped->entries()) {
    for (const auto& w : windows) {
      const ts::TimeSeries a =
          pm(net::ElementId{entry.key.first}, entry.key.second, w.start, w.n);
      const ts::TimeSeries b =
          ph(net::ElementId{entry.key.first}, entry.key.second, w.start, w.n);
      ASSERT_EQ(a.start_bin(), b.start_bin());
      ASSERT_EQ(a.values().size(), b.values().size());
      // memcmp, not ==: NaN missing bins must match bit for bit.
      ASSERT_EQ(std::memcmp(a.values().data(), b.values().data(),
                            a.values().size() * sizeof(double)),
                0)
          << "element " << entry.key.first << " window "
          << w.start << "+" << w.n;
    }
  }
}

TEST_F(MappedStoreTest, UnknownSeriesIsAllMissingLikeHeap) {
  const std::string snap = make_snapshot();
  const auto mapped = MappedStore::open(snap);
  ASSERT_NE(mapped, nullptr);
  EXPECT_EQ(mapped->find(net::ElementId{999999},
                         kpi::KpiId::kVoiceRetainability),
            nullptr);
  const ts::TimeSeries t = mapped->provider()(
      net::ElementId{999999}, kpi::KpiId::kVoiceRetainability, -48, 24);
  ASSERT_EQ(t.values().size(), 24u);
  for (const double v : t.values()) EXPECT_TRUE(std::isnan(v));
}

TEST_F(MappedStoreTest, RejectsBadMagic) {
  const std::string snap = make_snapshot();
  const std::string bad = corrupt_copy(
      snap, "bad_magic.litmus-snap", [](std::string& b) { b[0] ^= 0xFF; });
  std::string why;
  EXPECT_EQ(MappedStore::open(bad, &why), nullptr);
  EXPECT_FALSE(why.empty());
}

TEST_F(MappedStoreTest, RejectsTruncation) {
  const std::string snap = make_snapshot();
  // Header-level truncation and payload-level truncation both reject.
  const std::string short_header = corrupt_copy(
      snap, "short_header.litmus-snap",
      [](std::string& b) { b.resize(20); });
  const std::string short_body = corrupt_copy(
      snap, "short_body.litmus-snap",
      [](std::string& b) { b.resize(b.size() - 64); });
  std::string why;
  EXPECT_EQ(MappedStore::open(short_header, &why), nullptr);
  EXPECT_FALSE(why.empty());
  EXPECT_EQ(MappedStore::open(short_body, &why), nullptr);
  EXPECT_FALSE(why.empty());
}

TEST_F(MappedStoreTest, RejectsChecksumFlip) {
  const std::string snap = make_snapshot();
  // One bit in the middle of the payload: headers still parse, the
  // payload checksum trailer does not match.
  const std::string bad = corrupt_copy(
      snap, "bitflip.litmus-snap",
      [](std::string& b) { b[b.size() / 2] ^= 0x01; });
  std::string why;
  EXPECT_EQ(MappedStore::open(bad, &why), nullptr);
  EXPECT_NE(why.find("checksum"), std::string::npos) << why;
}

TEST_F(MappedStoreTest, RejectsBadRecordUnderAValidChecksum) {
  // A buggy producer checksums what it wrote, so the checksum passes and
  // the record-table walk has to catch the unknown KPI id.
  const std::string path = (root_ / "bad_kpi.litmus-snap").string();
  {
    SnapshotWriter writer(path, 1, 1, 0);
    const std::vector<double> values = {0.5, 0.25};
    writer.append(1, kpi::KpiId::kVoiceRetainability, 0, 60, values);
    writer.append(2, static_cast<kpi::KpiId>(250), 0, 60, values);
    writer.finish();
  }
  std::string why;
  EXPECT_EQ(MappedStore::open(path, &why), nullptr);
  EXPECT_EQ(why, "unknown KPI id");
}

TEST_F(MappedStoreTest, CorruptSnapshotFallsBackToCsvWithWarning) {
  // A tiny series CSV, ingested through the mapped path twice: the first
  // call parses and writes the snapshot cache, then we corrupt the cache
  // and ingest again — the corrupt snapshot must be rejected, the CSV
  // reparsed, and a warning event emitted. Never a half-populated store.
  const fs::path csv = root_ / "series.csv";
  {
    std::ofstream out(csv);
    out << "# element_id, kpi_name, bin, value\n";
    for (int e = 1; e <= 3; ++e)
      for (int b = -4; b < 4; ++b)
        out << e << ", voice_retainability, " << b << ", 0.9" << e << "\n";
  }
  IngestOptions opts;
  opts.snapshot_dir = (root_ / "snapcache").string();

  const MappedIngest first = ingest_series_file_mapped(csv.string(), opts);
  ASSERT_NE(first.store, nullptr);
  EXPECT_FALSE(first.report.from_snapshot);
  ASSERT_FALSE(first.report.snapshot_path.empty());

  const MappedIngest warm = ingest_series_file_mapped(csv.string(), opts);
  EXPECT_TRUE(warm.report.from_snapshot);

  // Flip one payload byte in the cached snapshot.
  {
    std::fstream f(first.report.snapshot_path,
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    const std::streamoff size = f.tellg();
    f.seekp(size / 2);
    char c;
    f.seekg(size / 2);
    f.get(c);
    f.seekp(size / 2);
    f.put(static_cast<char>(c ^ 0x01));
  }

  std::ostringstream event_bytes;
  MappedIngest fallback;
  {
    obs::EventLog log(event_bytes);  // flushes its buffer on destruction
    obs::set_events(&log);
    fallback = ingest_series_file_mapped(csv.string(), opts);
    obs::set_events(nullptr);
  }

  ASSERT_NE(fallback.store, nullptr);
  EXPECT_FALSE(fallback.report.from_snapshot);
  EXPECT_EQ(fallback.store->size(), first.store->size());
  EXPECT_NE(event_bytes.str().find("\"type\":\"warning\""),
            std::string::npos)
      << event_bytes.str();

  // The reparsed store serves the same bits as the first parse.
  const core::SeriesProvider pa = first.store->provider();
  const core::SeriesProvider pb = fallback.store->provider();
  for (int e = 1; e <= 3; ++e) {
    const ts::TimeSeries a = pa(net::ElementId{static_cast<std::uint32_t>(e)},
                                kpi::KpiId::kVoiceRetainability, -4, 8);
    const ts::TimeSeries b = pb(net::ElementId{static_cast<std::uint32_t>(e)},
                                kpi::KpiId::kVoiceRetainability, -4, 8);
    ASSERT_EQ(std::memcmp(a.values().data(), b.values().data(),
                          a.values().size() * sizeof(double)),
              0);
  }
}

/// Rewrites the u32 version field that follows the 8-byte magic.
void set_snapshot_version(const std::string& path, std::uint32_t version) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(8);
  f.write(reinterpret_cast<const char*>(&version), sizeof version);
}

std::uint32_t snapshot_version(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  f.seekg(8);
  std::uint32_t version = 0;
  f.read(reinterpret_cast<char*>(&version), sizeof version);
  return version;
}

TEST_F(MappedStoreTest, OlderFormatVersionIsRejected) {
  // Version 2 is the format before the content-hash payload checksum: its
  // trailer means something else, so both readers must refuse it.
  const std::string snap = make_snapshot();
  const std::string v2 = (root_ / "v2.litmus-snap").string();
  fs::copy_file(snap, v2);
  set_snapshot_version(v2, 2);
  std::string why;
  EXPECT_EQ(MappedStore::open(v2, &why), nullptr);
  EXPECT_EQ(why, "version mismatch");
  SeriesStore heap;
  EXPECT_EQ(load_series_snapshot(v2, heap, 0, 0, &why), SnapshotLoad::kStale);
  EXPECT_EQ(why, "version mismatch");
  EXPECT_EQ(heap.size(), 0u);
}

TEST_F(MappedStoreTest, OlderFormatVersionIsRebuiltFromCsvWithWarning) {
  const fs::path csv = root_ / "series.csv";
  {
    std::ofstream out(csv);
    out << "# element_id, kpi_name, bin, value\n";
    for (int e = 1; e <= 3; ++e)
      for (int b = -4; b < 4; ++b)
        out << e << ", voice_retainability, " << b << ", 0.8" << e << "\n";
  }
  SeriesStore parsed;
  {
    std::ifstream in(csv);
    load_series_csv(in, parsed);
  }

  // Runs one ingest with an event log attached; returns the log's bytes.
  const auto with_events = [](const auto& ingest) {
    std::ostringstream bytes;
    {
      obs::EventLog log(bytes);
      obs::set_events(&log);
      ingest();
      obs::set_events(nullptr);
    }
    return bytes.str();
  };
  const auto expect_rebuilt = [&](const std::string& events,
                                  const std::string& snapshot_path) {
    EXPECT_NE(events.find("\"type\":\"warning\""), std::string::npos)
        << events;
    EXPECT_NE(events.find("version mismatch"), std::string::npos) << events;
    EXPECT_EQ(snapshot_version(snapshot_path), kSnapshotVersion);
  };

  IngestOptions mapped_opts;
  mapped_opts.snapshot_dir = (root_ / "mapped_cache").string();
  const std::string mapped_snap =
      ingest_series_file_mapped(csv.string(), mapped_opts)
          .report.snapshot_path;
  set_snapshot_version(mapped_snap, 2);
  MappedIngest mapped;
  const std::string mapped_events = with_events(
      [&] { mapped = ingest_series_file_mapped(csv.string(), mapped_opts); });
  ASSERT_NE(mapped.store, nullptr);
  EXPECT_FALSE(mapped.report.from_snapshot);
  expect_rebuilt(mapped_events, mapped_snap);

  IngestOptions heap_opts;
  heap_opts.snapshot_dir = (root_ / "heap_cache").string();
  SeriesStore first;
  const std::string heap_snap =
      ingest_series_file(csv.string(), first, heap_opts).snapshot_path;
  set_snapshot_version(heap_snap, 2);
  SeriesStore heap;
  IngestReport heap_rep;
  const std::string heap_events = with_events(
      [&] { heap_rep = ingest_series_file(csv.string(), heap, heap_opts); });
  EXPECT_FALSE(heap_rep.from_snapshot);
  EXPECT_EQ(heap_rep.rows, 24u);
  expect_rebuilt(heap_events, heap_snap);

  // Both serve the CSV's bits, and the rebuilt snapshots hit next time.
  const core::SeriesProvider want = parsed.provider();
  for (const core::SeriesProvider& got :
       {mapped.store->provider(), heap.provider()})
    for (std::uint32_t e = 1; e <= 3; ++e) {
      const ts::TimeSeries a =
          want(net::ElementId{e}, kpi::KpiId::kVoiceRetainability, -4, 8);
      const ts::TimeSeries b =
          got(net::ElementId{e}, kpi::KpiId::kVoiceRetainability, -4, 8);
      ASSERT_EQ(std::memcmp(a.values().data(), b.values().data(),
                            a.values().size() * sizeof(double)),
                0);
    }
  EXPECT_TRUE(
      ingest_series_file_mapped(csv.string(), mapped_opts).report
          .from_snapshot);
  SeriesStore warm;
  EXPECT_TRUE(ingest_series_file(csv.string(), warm, heap_opts).from_snapshot);
}

TEST_F(MappedStoreTest, ConcurrentReadersAreBitIdentical) {
  // N threads fetch windows from one shared store — disjoint element
  // ranges first, then all threads over the same elements — and FNV-hash
  // the bytes they see. Every thread must observe exactly the bits a
  // serial reference pass observes. TSan (CI leg) checks the data-race
  // freedom claim; this test checks the values.
  const std::string snap = make_snapshot();
  const auto mapped = MappedStore::open(snap);
  ASSERT_NE(mapped, nullptr);
  const auto& entries = mapped->entries();
  ASSERT_FALSE(entries.empty());

  const auto hash_range = [&](std::size_t lo, std::size_t hi) {
    const core::SeriesProvider p = mapped->provider();
    std::uint64_t h = 14695981039346656037ull;
    for (std::size_t i = lo; i < hi; ++i) {
      const ts::TimeSeries t =
          p(net::ElementId{entries[i].key.first}, entries[i].key.second, -48, 72);
      for (const double v : t.values()) {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        h = (h ^ bits) * 1099511628211ull;
      }
    }
    return h;
  };

  constexpr std::size_t kThreads = 8;
  const std::size_t per = entries.size() / kThreads;

  // Disjoint ranges.
  std::vector<std::uint64_t> serial(kThreads), threaded(kThreads);
  for (std::size_t i = 0; i < kThreads; ++i)
    serial[i] = hash_range(i * per, (i + 1) * per);
  {
    std::vector<std::thread> workers;
    for (std::size_t i = 0; i < kThreads; ++i)
      workers.emplace_back(
          [&, i] { threaded[i] = hash_range(i * per, (i + 1) * per); });
    for (auto& w : workers) w.join();
  }
  EXPECT_EQ(threaded, serial);

  // Overlapping: every thread reads the full store.
  const std::uint64_t all = hash_range(0, entries.size());
  std::vector<std::uint64_t> overlap(kThreads);
  {
    std::vector<std::thread> workers;
    for (std::size_t i = 0; i < kThreads; ++i)
      workers.emplace_back(
          [&, i] { overlap[i] = hash_range(0, entries.size()); });
    for (auto& w : workers) w.join();
  }
  for (const std::uint64_t h : overlap) EXPECT_EQ(h, all);
}

}  // namespace
}  // namespace litmus::io
