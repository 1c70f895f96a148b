// Tests for run provenance: the content hash behind every fingerprint,
// streaming file fingerprints, manifest JSON round-trip through the
// parser, and the non-clobbering output opener.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/content_hash.h"
#include "obs/json.h"
#include "obs/manifest.h"

namespace litmus::obs {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    path_ = fs::temp_directory_path() /
            ("litmus_manifest_test_" + std::to_string(::getpid()));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  fs::path path_;
};

void write_text(const std::string& path, const std::string& text) {
  std::ofstream(path, std::ios::binary) << text;
}

TEST(ManifestTest, FingerprintIsStableAndSensitiveToContent) {
  TempDir dir;
  write_text(dir.file("a.csv"), "element,kpi,value\n1,2,3\n");
  const InputFingerprint first = fingerprint_file(dir.file("a.csv"));
  const InputFingerprint again = fingerprint_file(dir.file("a.csv"));
  EXPECT_TRUE(first.ok);
  EXPECT_EQ(first.bytes, 24u);
  EXPECT_EQ(first.hash, again.hash);

  write_text(dir.file("a.csv"), "element,kpi,value\n1,2,4\n");
  const InputFingerprint changed = fingerprint_file(dir.file("a.csv"));
  EXPECT_NE(first.hash, changed.hash);  // one byte flips the fingerprint

  const InputFingerprint missing = fingerprint_file(dir.file("nope.csv"));
  EXPECT_FALSE(missing.ok);
}

TEST(ManifestTest, FingerprintStreamsTheWholeFile) {
  // Larger than the 64 KiB read buffer and not a multiple of it: the
  // streamed digest must equal the one-shot digest of the same bytes.
  TempDir dir;
  std::string text;
  for (int i = 0; text.size() < 200'003; ++i)
    text += std::to_string(i * 7919) + ",";
  text.resize(200'003);
  write_text(dir.file("big.csv"), text);
  const InputFingerprint fp = fingerprint_file(dir.file("big.csv"));
  EXPECT_TRUE(fp.ok);
  EXPECT_EQ(fp.bytes, text.size());
  EXPECT_EQ(fp.hash, content_hash64(text.data(), text.size()));
}

TEST(ManifestTest, FingerprintOfADirectoryIsNotOk) {
  // A directory opens as a stream but its first read fails; that must not
  // be recorded as a readable, empty input.
  TempDir dir;
  fs::create_directories(dir.file("subdir"));
  const InputFingerprint fp = fingerprint_file(dir.file("subdir"));
  EXPECT_FALSE(fp.ok);
}

/// 0, 1, 2, ... as bytes: a buffer whose every word differs.
std::vector<unsigned char> ramp(std::size_t n) {
  std::vector<unsigned char> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<unsigned char>(i * 31 + 7);
  return v;
}

TEST(ContentHashTest, MatchesKnownAnswers) {
  // Pinned digests: a change here changes every snapshot checksum and
  // cache key, so it must come with a kSnapshotVersion bump.
  EXPECT_EQ(content_hash64("", 0), 0xaa80f7466ca3941fULL);
  EXPECT_EQ(content_hash64("a", 1), 0x8353b57856d80453ULL);
  EXPECT_EQ(content_hash64("foobar", 6), 0xb67559ac5422639bULL);
  const std::vector<unsigned char> r = ramp(100);
  EXPECT_EQ(content_hash64(r.data(), r.size()), 0xaef210568232babaULL);
}

TEST(ContentHashTest, StreamingEqualsOneShotAtEverySplit) {
  const std::vector<unsigned char> buf = ramp(1024 + 8);
  for (const std::size_t start : {0u, 1u, 3u, 7u}) {
    const unsigned char* p = buf.data() + start;
    for (std::size_t len = 0; len <= 1024; ++len) {
      const std::uint64_t whole = content_hash64(p, len);
      // Two pieces, split at every point.
      for (std::size_t cut = 0; cut <= len; ++cut) {
        ContentHasher h;
        h.update(p, cut);
        h.update(p + cut, len - cut);
        ASSERT_EQ(h.digest(), whole)
            << "start " << start << " len " << len << " cut " << cut;
        ASSERT_EQ(h.bytes(), len);
      }
    }
    // One byte at a time; digest() mid-stream leaves the hasher usable.
    ContentHasher h;
    for (std::size_t i = 0; i < 1024; ++i) {
      h.update(p + i, 1);
      ASSERT_EQ(h.digest(), content_hash64(p, i + 1)) << "start " << start;
    }
  }
}

TEST(ContentHashTest, EverySingleBitFlipChangesTheDigest) {
  std::vector<unsigned char> buf = ramp(257);
  const std::uint64_t base = content_hash64(buf.data(), buf.size());
  for (std::size_t byte = 0; byte < buf.size(); ++byte)
    for (int bit = 0; bit < 8; ++bit) {
      buf[byte] ^= static_cast<unsigned char>(1u << bit);
      ASSERT_NE(content_hash64(buf.data(), buf.size()), base)
          << "byte " << byte << " bit " << bit;
      buf[byte] ^= static_cast<unsigned char>(1u << bit);
    }
}

TEST(ContentHashTest, AppendingAZeroByteChangesTheDigest) {
  // The tail word is zero-padded, so only the folded length tells these
  // apart; all-zero inputs are the hardest case.
  for (const bool zeros : {false, true}) {
    std::vector<unsigned char> buf =
        zeros ? std::vector<unsigned char>(300, 0) : ramp(300);
    for (std::size_t len = 0; len < 299; ++len) {
      buf[len] = 0;
      ASSERT_NE(content_hash64(buf.data(), len),
                content_hash64(buf.data(), len + 1))
          << "len " << len << (zeros ? " (zeros)" : "");
    }
  }
}

TEST(ManifestTest, JsonRoundTripsThroughTheParser) {
  TempDir dir;
  write_text(dir.file("in.csv"), "x\n");
  RunManifest m;
  m.tool = "unit_test";
  m.threads = 4;
  m.seed = 20130209;
  m.started_at_utc = "2026-08-06T00:00:00Z";
  m.add_config("--kpi", "voice_retainability");
  m.add_config("--seed", "20130209");
  m.add_input(dir.file("in.csv"));

  std::string error;
  const auto v = parse_json(m.to_json(), &error);
  ASSERT_TRUE(v.has_value()) << error;
  EXPECT_EQ(v->member_number("schema", -1), 1.0);
  EXPECT_EQ(v->member_string("tool", ""), "unit_test");
  EXPECT_EQ(v->member_string("version", ""), kLitmusVersion);
  EXPECT_EQ(v->member_string("rng_scheme", ""), kRngScheme);
  EXPECT_EQ(v->member_number("threads", -1), 4.0);
  // Seed must survive as an exact integer, not a double-rounded one.
  EXPECT_EQ(v->member_number("seed", -1), 20130209.0);
  const JsonValue* config = v->find("config");
  ASSERT_NE(config, nullptr);
  EXPECT_EQ(config->member_string("--kpi", ""), "voice_retainability");
  const JsonValue* inputs = v->find("inputs");
  ASSERT_NE(inputs, nullptr);
  ASSERT_TRUE(inputs->is_array());
  ASSERT_EQ(inputs->array.size(), 1u);
  const JsonValue& fp = inputs->array[0];
  EXPECT_EQ(fp.member_number("bytes", -1), 2.0);
  EXPECT_EQ(fp.member_string("hash64", "").size(), 16u);
  const JsonValue* ok = fp.find("ok");
  ASSERT_NE(ok, nullptr);
  EXPECT_TRUE(ok->boolean);
}

TEST(ManifestTest, OpenOutputFileCreatesParentsAndRotates) {
  TempDir dir;
  const std::string path = dir.file("deep/nested/out.json");
  {
    std::ofstream out = open_output_file(path);  // parents do not exist yet
    out << "first";
  }
  EXPECT_TRUE(fs::exists(path));
  {
    std::ofstream out = open_output_file(path);  // must rotate, not clobber
    out << "second";
  }
  std::ifstream rotated(path + ".old");
  std::string content;
  rotated >> content;
  EXPECT_EQ(content, "first");
  std::ifstream current(path);
  current >> content;
  EXPECT_EQ(content, "second");
}

TEST(ManifestTest, RepeatedRotationNeverClobbersEarlierRotations) {
  // Regression: the second rotation used to overwrite <path>.old, losing
  // the first run's output. Now each rotation picks the first free
  // .old / .old.N slot.
  TempDir dir;
  const std::string path = dir.file("out.json");
  const char* generations[] = {"first", "second", "third", "fourth"};
  for (const char* text : generations) {
    std::ofstream out = open_output_file(path);
    out << text;
  }
  auto read = [](const std::string& p) {
    std::ifstream in(p);
    std::string s;
    in >> s;
    return s;
  };
  // Every generation survives, each in its own slot, oldest in .old.
  EXPECT_EQ(read(path + ".old"), "first");
  EXPECT_EQ(read(path + ".old.1"), "second");
  EXPECT_EQ(read(path + ".old.2"), "third");
  EXPECT_EQ(read(path), "fourth");
  EXPECT_FALSE(fs::exists(path + ".old.3"));
}

TEST(ManifestTest, WriteFileProducesParsableStandaloneManifest) {
  TempDir dir;
  RunManifest m;
  m.tool = "unit_test";
  m.write_file(dir.file("run_manifest.json"));
  std::ifstream in(dir.file("run_manifest.json"));
  std::ostringstream os;
  os << in.rdbuf();
  std::string error;
  const auto v = parse_json(os.str(), &error);
  ASSERT_TRUE(v.has_value()) << error;
  EXPECT_EQ(v->member_string("tool", ""), "unit_test");
}

TEST(ManifestTest, BuildFlagsStringIsShortAndStable) {
  const std::string flags = build_flags_string();
  EXPECT_NE(flags.find("obs="), std::string::npos);
  EXPECT_EQ(flags, build_flags_string());
}

}  // namespace
}  // namespace litmus::obs
