/// The content-addressed result cache: key derivation sensitivity,
/// segment render/parse round trips, cross-process persistence via the
/// on-disk store, verified-then-dropped corruption handling (a bad
/// directory at open, any other damage on the first hit), what open
/// reads, the lifetime of returned rows, LRU eviction under a byte
/// budget, and the offline scan/gc helpers.
#include "cache/result_cache.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "corridor/sweep.hpp"
#include "obs/metrics.hpp"
#include "util/durable_io.hpp"

namespace railcorr::cache {
namespace {

namespace fs = std::filesystem;

/// A fresh empty directory per test, removed on destruction.
class TempDir {
 public:
  explicit TempDir(const char* tag) {
    path_ = fs::temp_directory_path() /
            (std::string("railcorr_cache_test_") + tag + "_" +
             std::to_string(::getpid()));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  [[nodiscard]] std::string str() const { return path_.string(); }
  [[nodiscard]] const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

std::size_t segment_count(const fs::path& dir) {
  std::size_t count = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".seg") ++count;
  }
  return count;
}

/// The one segment in `dir`.
fs::path only_segment(const fs::path& dir) {
  fs::path segment;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".seg") segment = entry.path();
  }
  return segment;
}

/// Publish `entries` as one segment of `dir` through a cache view.
void publish(const TempDir& dir, const std::vector<SegmentEntry>& entries) {
  ResultCache cache;
  ASSERT_TRUE(cache.open({dir.str(), 0}));
  for (const auto& entry : entries) cache.insert(entry.key, entry.row);
  ASSERT_TRUE(cache.flush());
}

/// Overwrite `path` with `bytes`.
void write_bytes(const fs::path& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/// The bytes of a segment's magic line and key directory.
std::size_t head_bytes(const std::string& document) {
  const std::size_t magic = document.find('\n') + 1;
  const std::size_t entries = std::stoul(
      document.substr(document.find("entries=") + 8, magic));
  return magic + entries * 26;
}

TEST(CellKey, EveryTupleComponentChangesTheKey) {
  const std::string banner =
      "# railcorr-sweep-v1 fingerprint=0123456789abcdef grid=64";
  const std::string header = "index,radio.lp_eirp_dbm,max_n";
  const std::uint64_t base = cell_key(banner, 7, header);
  EXPECT_EQ(base, cell_key(banner, 7, header));
  EXPECT_NE(base, cell_key(banner + "0", 7, header));
  EXPECT_NE(base, cell_key(banner, 8, header));
  EXPECT_NE(base, cell_key(banner, 7, header + ",sized_pv_wp_total"));
  EXPECT_NE(base, cell_key(banner, 7, header, kResultSchemaVersion + 1));
}

TEST(CellKey, APlanPrefixContinuedByTheIndexIsTheKey) {
  const std::string banner =
      "# railcorr-sweep-v1 fingerprint=0123456789abcdef grid=64";
  const std::string header = "index,radio.lp_eirp_dbm,max_n";
  const std::uint64_t prefix = cell_key_prefix(banner, header);
  EXPECT_EQ(prefix, util::fnv1a64(banner + "\n" + header + "\n1\n"));
  for (const std::size_t index : {0UL, 7UL, 4095UL, 18446744073709551615UL}) {
    EXPECT_EQ(cell_key(prefix, index), cell_key(banner, index, header));
    EXPECT_EQ(cell_key(prefix, index),
              util::fnv1a64(std::to_string(index), prefix));
  }
}

TEST(CellKey, FieldFramingIsUnambiguous) {
  // "banner" + index 12 must not collide with "banner1" + index 2:
  // the components are newline-framed inside the hash input.
  EXPECT_NE(cell_key("banner", 12, "h"), cell_key("banner1", 2, "h"));
  EXPECT_NE(cell_key("b", 1, "23,h"), cell_key("b", 12, "3,h"));
}

TEST(CacheFormat, KeysNamesAndTrailersAreStableAcrossVersions) {
  // A store or run directory written by an older binary stays readable
  // only while these pinned values hold.
  EXPECT_EQ(cell_key("# railcorr-sweep-v1 fingerprint=0123456789abcdef "
                     "grid=64",
                     7, "index,radio.lp_eirp_dbm,max_n"),
            0x98a856aa2316b178ULL);
  EXPECT_EQ(corridor::shard_banner(
                corridor::SweepPlan::from_spec("axis k = 1, 2, 3\n")),
            "# railcorr-sweep-v1 fingerprint=89dec1b113f2a2d8 grid=3");
  EXPECT_EQ(util::integrity_trailer_line("abc\n"),
            "@railcorr-crc fc17b183ee074373");

  TempDir dir("pinned");
  ResultCache cache;
  ASSERT_TRUE(cache.open({dir.str(), 0}));
  cache.insert(0x98a856aa2316b178ULL, "7,37,8");
  ASSERT_TRUE(cache.flush());
  EXPECT_EQ(segment_count(dir.path()), 1u);
  EXPECT_TRUE(fs::exists(dir.path() / "seg_ae772bc719b2717a.seg"));
}

TEST(Segment, RenderParseRoundTripsArbitraryRowBytes) {
  std::vector<SegmentEntry> entries = {
      {0x0123456789abcdefULL, "0,37,6,2,1200.5"},
      {0xfedcba9876543210ULL, ""},
      // Rows are length-prefixed, so bytes that look like segment
      // structure must survive verbatim.
      {42, "entry ffff 3\n@railcorr-crc 00"},
  };
  const std::string document = render_segment(entries);
  const auto parse = parse_segment(document);
  ASSERT_TRUE(parse.ok) << parse.error;
  ASSERT_EQ(parse.entries.size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(parse.entries[i].key, entries[i].key);
    EXPECT_EQ(parse.entries[i].row, entries[i].row);
  }
}

TEST(Segment, EmptySegmentRoundTrips) {
  const auto parse = parse_segment(render_segment({}));
  EXPECT_TRUE(parse.ok) << parse.error;
  EXPECT_TRUE(parse.entries.empty());
}

TEST(Segment, MissingTrailerIsAParseFailure) {
  // Unlike legacy shard documents, a cache segment without a trailer
  // can only be a truncated publish — never trusted.
  std::string document = render_segment({{1, "row"}});
  const std::size_t trailer_at = document.rfind("@railcorr-crc");
  const auto parse = parse_segment(document.substr(0, trailer_at));
  EXPECT_FALSE(parse.ok);
}

TEST(Segment, DuplicateKeysParseInWriterOrder) {
  const std::string document =
      render_segment({{7, "first"}, {7, "second"}});
  const auto parse = parse_segment(document);
  ASSERT_TRUE(parse.ok) << parse.error;
  ASSERT_EQ(parse.entries.size(), 2u);
  EXPECT_EQ(parse.entries[0].row, "first");
  EXPECT_EQ(parse.entries[1].row, "second");
}

TEST(ResultCache, InsertFlushThenReopenServesTheRow) {
  TempDir dir("roundtrip");
  const std::uint64_t key = cell_key("banner", 3, "header");

  ResultCache writer;
  ASSERT_TRUE(writer.open({dir.str(), 0}));
  EXPECT_FALSE(writer.lookup(key).has_value());
  writer.insert(key, "3,37,8,2,1200.5");
  // Staged rows are visible to the inserting process immediately.
  ASSERT_TRUE(writer.lookup(key).has_value());
  ASSERT_TRUE(writer.flush());
  EXPECT_EQ(segment_count(dir.path()), 1u);
  // The flush names the segment it published; one with nothing staged
  // publishes none.
  EXPECT_EQ(fs::path(writer.last_published()), only_segment(dir.path()));
  ASSERT_TRUE(writer.flush());
  EXPECT_EQ(writer.last_published(), "");

  // A second process (fresh instance) sees the published segment.
  ResultCache reader;
  ASSERT_TRUE(reader.open({dir.str(), 0}));
  const auto hit = reader.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "3,37,8,2,1200.5");
  EXPECT_EQ(reader.stats().hits, 1u);
  EXPECT_EQ(reader.stats().misses, 0u);
}

TEST(ResultCache, AKeyListedTwiceServesItsLaterEntry) {
  // Writer order holds in the store as in parse_segment: the entry with
  // the larger ordinal wins, wherever the directory sorts it.
  TempDir dir("duplicates");
  std::ofstream(dir.path() / "seg_0.seg", std::ios::binary)
      << render_segment({{7, "first"}, {3, "other"}, {7, "second"}});
  ResultCache cache;
  ASSERT_TRUE(cache.open({dir.str(), 0}));
  EXPECT_EQ(cache.lookup(7), std::optional<std::string_view>("second"));
  EXPECT_EQ(cache.lookup(3), std::optional<std::string_view>("other"));
}

TEST(ResultCache, ASecondWriterOfTheSameRowsPublishesNothingNew) {
  TempDir dir("contentaddr");
  for (int round = 0; round < 2; ++round) {
    ResultCache cache;
    ASSERT_TRUE(cache.open({dir.str(), 0}));
    cache.insert(1, "row-a");
    cache.insert(2, "row-b");
    // insert() searches no directory (its caller inserts only keys
    // whose lookup missed), so round 1 stages both rows again.
    EXPECT_EQ(cache.stats().inserted, 2u);
    ASSERT_TRUE(cache.flush());
  }
  // Round 1 rendered the same bytes, and content-addressed naming
  // lands them on round 0's file: nothing new is published.
  EXPECT_EQ(segment_count(dir.path()), 1u);
}

TEST(ResultCache, RacingWritersOfIdenticalBatchesCollideOnOneName) {
  // Two processes that never saw each other's publish stage identical
  // entries: content-addressed naming makes their renames land on the
  // same (byte-identical) file instead of accumulating duplicates.
  TempDir dir("race");
  ResultCache a;
  ResultCache b;
  ASSERT_TRUE(a.open({dir.str(), 0}));
  ASSERT_TRUE(b.open({dir.str(), 0}));  // Opens before a publishes.
  a.insert(1, "row-a");
  b.insert(1, "row-a");
  ASSERT_TRUE(a.flush());
  ASSERT_TRUE(b.flush());
  EXPECT_EQ(segment_count(dir.path()), 1u);
}

TEST(ResultCache, CorruptDirectoryIsDroppedAtOpen) {
  TempDir dir("corrupt_dir");
  publish(dir, {{9, "poisoned-row"}});
  const fs::path segment = only_segment(dir.path());
  ASSERT_FALSE(segment.empty());
  // Flip one byte inside the key directory.
  auto bytes = util::read_file_fully(segment.string());
  ASSERT_TRUE(bytes.has_value());
  (*bytes)[head_bytes(*bytes) - 10] ^= 0x20;
  write_bytes(segment, *bytes);

  ResultCache cache;
  ASSERT_TRUE(cache.open({dir.str(), 0}));
  EXPECT_EQ(cache.stats().dropped_segments, 1u);
  EXPECT_EQ(cache.stats().segments, 0u);
  EXPECT_EQ(cache.stats().entries, 0u);
  // Verified-then-dropped: the damaged file is gone from disk.
  EXPECT_EQ(segment_count(dir.path()), 0u);
  EXPECT_FALSE(cache.lookup(9).has_value());
}

TEST(ResultCache, CorruptBodyOpensButIsDroppedOnTheFirstLookup) {
  TempDir dir("corrupt_body");
  publish(dir, {{9, "poisoned-row"}});
  const fs::path segment = only_segment(dir.path());
  ASSERT_FALSE(segment.empty());
  // Flip one byte past the directory: in the entry line, so the file's
  // length and trailer line stay as they were.
  auto bytes = util::read_file_fully(segment.string());
  ASSERT_TRUE(bytes.has_value());
  const std::size_t at = head_bytes(*bytes) + 2;
  ASSERT_EQ(bytes->compare(at - 2, 6, "entry "), 0);
  (*bytes)[at] ^= 0x20;
  write_bytes(segment, *bytes);

  ResultCache cache;
  ASSERT_TRUE(cache.open({dir.str(), 0}));
  EXPECT_EQ(cache.stats().segments, 1u);
  EXPECT_EQ(cache.stats().dropped_segments, 0u);
  EXPECT_EQ(segment_count(dir.path()), 1u);
  EXPECT_FALSE(cache.lookup(9).has_value());
  EXPECT_EQ(cache.stats().dropped_segments, 1u);
  EXPECT_EQ(segment_count(dir.path()), 0u);
}

TEST(ResultCache, BadDirectoriesAreDroppedAtOpen) {
  // Trailers that verify over directories that do not: open checks the
  // directory itself, since it reads no trailer.
  const std::string entries = "entry 1\na\nentry 1\nb\n";
  const std::vector<std::string> bodies = {
      // Unsorted keys.
      "# railcorr-cache-v2 schema=1 entries=2\n"
      "00000000000000b0 00000001\n00000000000000a0 00000000\n" + entries,
      // Equal keys with their ordinals unsorted.
      "# railcorr-cache-v2 schema=1 entries=2\n"
      "00000000000000a0 00000001\n00000000000000a0 00000000\n" + entries,
      // A short line.
      "# railcorr-cache-v2 schema=1 entries=2\n"
      "00000000000000a0 0000000\n00000000000000b0 00000001\n" + entries,
      // An ordinal out of range.
      "# railcorr-cache-v2 schema=1 entries=2\n"
      "00000000000000a0 00000000\n00000000000000b0 00000002\n" + entries,
      // An ordinal listed twice.
      "# railcorr-cache-v2 schema=1 entries=2\n"
      "00000000000000a0 00000000\n00000000000000b0 00000000\n" + entries,
      // Upper-case hex.
      "# railcorr-cache-v2 schema=1 entries=2\n"
      "00000000000000A0 00000000\n00000000000000b0 00000001\n" + entries,
      // A count the file cannot hold.
      "# railcorr-cache-v2 schema=1 entries=99\n"
      "00000000000000a0 00000000\n00000000000000b0 00000001\n" + entries,
      // A foreign schema.
      "# railcorr-cache-v2 schema=2 entries=2\n"
      "00000000000000a0 00000000\n00000000000000b0 00000001\n" + entries,
  };
  TempDir dir("bad_dirs");
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    const std::string document = util::with_integrity_trailer(bodies[i]);
    EXPECT_FALSE(parse_segment(document).ok) << bodies[i];
    write_bytes(dir.path() / ("seg_" + std::to_string(i) + ".seg"), document);
  }
  ResultCache cache;
  ASSERT_TRUE(cache.open({dir.str(), 0}));
  EXPECT_EQ(cache.stats().dropped_segments, bodies.size());
  EXPECT_EQ(cache.stats().segments, 0u);
  EXPECT_EQ(segment_count(dir.path()), 0u);
  EXPECT_FALSE(cache.lookup(0xa0).has_value());
  EXPECT_FALSE(cache.lookup(0xb0).has_value());

  // The same directory in order opens and serves.
  const std::string good = util::with_integrity_trailer(
      "# railcorr-cache-v2 schema=1 entries=2\n"
      "00000000000000a0 00000000\n00000000000000b0 00000001\n" + entries);
  ASSERT_TRUE(parse_segment(good).ok);
  write_bytes(dir.path() / "seg_good.seg", good);
  ResultCache reader;
  ASSERT_TRUE(reader.open({dir.str(), 0}));
  EXPECT_EQ(reader.stats().segments, 1u);
  EXPECT_EQ(reader.lookup(0xa0), std::optional<std::string_view>("a"));
  EXPECT_EQ(reader.lookup(0xb0), std::optional<std::string_view>("b"));
}

TEST(ResultCache, DirectoryAndEntriesThatDisagreeAreNeverServed) {
  // Good directories and good trailers over entries that do not match
  // them one for one: open accepts each, the first hit drops it.
  const std::string directory =
      "# railcorr-cache-v2 schema=1 entries=2\n"
      "00000000000000a0 00000000\n00000000000000b0 00000001\n";
  const std::vector<std::string> bodies = {
      directory + "entry 1\na\n",
      directory + "entry 1\na\nentry 1\nb\nentry 1\nc\n",
      directory + "entry 1\na\nentry 1\nb\ntrailing",
  };
  for (const auto& body : bodies) {
    TempDir dir("disagree");
    const std::string document = util::with_integrity_trailer(body);
    EXPECT_FALSE(parse_segment(document).ok) << body;
    write_bytes(dir.path() / "seg_0.seg", document);
    ResultCache cache;
    ASSERT_TRUE(cache.open({dir.str(), 0}));
    EXPECT_EQ(cache.stats().segments, 1u);
    EXPECT_FALSE(cache.lookup(0xa0).has_value()) << body;
    EXPECT_FALSE(cache.lookup(0xb0).has_value()) << body;
    EXPECT_EQ(cache.stats().dropped_segments, 1u);
    EXPECT_EQ(segment_count(dir.path()), 0u);
  }
}

TEST(ResultCache, SegmentRemovedBeforeItsFirstHitMissesAndIsStagedAgain) {
  TempDir dir("vanished");
  publish(dir, {{9, "row-9"}});
  ResultCache cache;
  ASSERT_TRUE(cache.open({dir.str(), 0}));
  ASSERT_EQ(cache.stats().segments, 1u);
  // A concurrent evictor unlinks the segment between open and its hit.
  fs::remove(only_segment(dir.path()));
  EXPECT_FALSE(cache.lookup(9).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
  // Gone is not damage.
  EXPECT_EQ(cache.stats().dropped_segments, 0u);
  cache.insert(9, "row-9");
  EXPECT_EQ(cache.stats().inserted, 1u);
  ASSERT_TRUE(cache.flush());

  ResultCache reader;
  ASSERT_TRUE(reader.open({dir.str(), 0}));
  EXPECT_EQ(reader.lookup(9), std::optional<std::string_view>("row-9"));
}

TEST(ResultCache, ASegmentReplacedAfterOpenIsNotReadWithItsOldDirectory) {
  // The same keys in the other writer order: a valid segment, but its
  // ordinals are not the ones the directory open read lists.
  TempDir dir("replaced");
  const fs::path segment = dir.path() / "seg_0.seg";
  write_bytes(segment, render_segment({{1, "a"}, {2, "b"}}));
  ResultCache cache;
  ASSERT_TRUE(cache.open({dir.str(), 0}));
  write_bytes(segment, render_segment({{2, "b"}, {1, "a"}}));
  for (const std::uint64_t key : {1, 2}) {
    const auto hit = cache.lookup(key);
    EXPECT_TRUE(!hit.has_value() || *hit == (key == 1 ? "a" : "b")) << key;
  }
}

TEST(ResultCache, AKeyInAGoodAndADamagedSegmentIsServedFromTheGoodOne) {
  TempDir dir("two_copies");
  write_bytes(dir.path() / "seg_2_good.seg",
              render_segment({{9, "row-9"}, {10, "row-10"}}));
  // The damaged copy sorts first, so the search reaches it first.
  const fs::path damaged = dir.path() / "seg_1_damaged.seg";
  std::string bytes = render_segment({{8, "row-8"}, {9, "row-9"}});
  bytes[bytes.find("row-9")] = 'R';
  write_bytes(damaged, bytes);

  ResultCache cache;
  ASSERT_TRUE(cache.open({dir.str(), 0}));
  EXPECT_EQ(cache.stats().segments, 2u);
  EXPECT_EQ(cache.lookup(9), std::optional<std::string_view>("row-9"));
  EXPECT_EQ(cache.stats().dropped_segments, 1u);
  EXPECT_FALSE(fs::exists(damaged));
  EXPECT_EQ(cache.lookup(10), std::optional<std::string_view>("row-10"));
  // Key 8 was only in the damaged copy.
  EXPECT_FALSE(cache.lookup(8).has_value());
  EXPECT_EQ(cache.stats().hits, 2u);
}

TEST(ResultCache, OpenReadsDirectoriesAndNoPayloadByte) {
  // Directories of 300 lines outgrow open's first read, which then
  // reads exactly the rest of the directory. Rows are ~200 bytes, as a
  // sweep's are.
  TempDir dir("bytes_read");
  for (std::uint64_t s = 0; s < 3; ++s) {
    std::vector<SegmentEntry> entries;
    for (std::uint64_t k = 0; k < 300; ++k) {
      entries.push_back({s * 1000 + k, "row-" + std::to_string(s * 1000 + k) +
                                           std::string(200, ',')});
    }
    publish(dir, entries);
  }
  std::size_t heads = 0;
  std::size_t store = 0;
  std::map<std::uint64_t, std::size_t> segment_bytes;
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    const auto bytes = util::read_file_fully(entry.path().string());
    ASSERT_TRUE(bytes.has_value());
    heads += head_bytes(*bytes);
    store += bytes->size();
    const auto parse = parse_segment(*bytes);
    ASSERT_TRUE(parse.ok);
    segment_bytes[parse.entries.front().key / 1000] = bytes->size();
  }

  obs::Counter& counter =
      obs::MetricsRegistry::instance().counter("cache.bytes_read");
  const std::uint64_t before = counter.value();
  ResultCache cache;
  ASSERT_TRUE(cache.open({dir.str(), 0}));
  EXPECT_EQ(cache.stats().bytes_read, heads);
  EXPECT_LT(cache.stats().bytes_read, store / 5);
  EXPECT_EQ(counter.value() - before, heads);

  // The first hit reads its segment whole, and only its segment.
  EXPECT_EQ(cache.lookup(1007), "row-1007" + std::string(200, ','));
  EXPECT_EQ(cache.lookup(1299), "row-1299" + std::string(200, ','));
  EXPECT_EQ(cache.stats().bytes_read, heads + segment_bytes.at(1));
  EXPECT_EQ(counter.value() - before, heads + segment_bytes.at(1));
}

TEST(ResultCache, PayloadRotIsCaughtOnTheFirstHitAndRepublished) {
  TempDir dir("payloadrot");
  {
    ResultCache cache;
    ASSERT_TRUE(cache.open({dir.str(), 0}));
    cache.insert(9, "good-row");
    ASSERT_TRUE(cache.flush());
  }
  fs::path segment;
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    if (entry.path().extension() == ".seg") segment = entry.path();
  }
  ASSERT_FALSE(segment.empty());
  // Rot one payload byte: the framing stays valid, only the trailer
  // hash can tell.
  auto bytes = util::read_file_fully(segment.string());
  ASSERT_TRUE(bytes.has_value());
  const std::size_t at = bytes->find("good-row");
  ASSERT_NE(at, std::string::npos);
  (*bytes)[at] = 'G';
  std::ofstream(segment, std::ios::binary) << *bytes;

  ResultCache cache;
  ASSERT_TRUE(cache.open({dir.str(), 0}));
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().dropped_segments, 0u);
  EXPECT_FALSE(cache.lookup(9).has_value());
  EXPECT_EQ(cache.stats().dropped_segments, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(segment_count(dir.path()), 0u);

  // The recomputed row is no longer indexed, so it is published again.
  cache.insert(9, "good-row");
  EXPECT_EQ(cache.stats().inserted, 1u);
  ASSERT_TRUE(cache.flush());
  ResultCache reader;
  ASSERT_TRUE(reader.open({dir.str(), 0}));
  const auto hit = reader.lookup(9);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "good-row");
}

TEST(ResultCache, LookupViewsOutliveLaterInsertsLookupsAndFlushes) {
  TempDir dir("views");
  {
    ResultCache cache;
    ASSERT_TRUE(cache.open({dir.str(), 0}));
    for (std::uint64_t k = 0; k < 8; ++k) {
      cache.insert(k, "stored-" + std::to_string(k));
    }
    ASSERT_TRUE(cache.flush());
  }
  ResultCache cache;
  ASSERT_TRUE(cache.open({dir.str(), 0}));
  // Short rows fit a string's inline buffer, so they would move with
  // any container element that moved.
  cache.insert(100, "s");
  std::vector<std::pair<std::string_view, std::string>> seen;
  for (std::uint64_t k = 0; k < 8; ++k) {
    const auto hit = cache.lookup(k);
    ASSERT_TRUE(hit.has_value());
    seen.emplace_back(*hit, "stored-" + std::to_string(k));
  }
  const auto staged = cache.lookup(100);
  ASSERT_TRUE(staged.has_value());
  seen.emplace_back(*staged, "s");

  for (std::uint64_t k = 0; k < 1000; ++k) {
    cache.insert(1000 + k, std::to_string(k));
    ASSERT_TRUE(cache.lookup(1000 + k / 2).has_value());
    if (k % 250 == 0) {
      ASSERT_TRUE(cache.flush());
    }
  }
  for (const auto& [view, expected] : seen) EXPECT_EQ(view, expected);
}

TEST(ResultCache, BudgetEvictsOldSegmentsButNotTheJustPublishedOne) {
  TempDir dir("evict");
  // Publish several distinct segments with fat rows.
  const std::string fat(512, 'x');
  for (std::uint64_t k = 0; k < 4; ++k) {
    ResultCache cache;
    ASSERT_TRUE(cache.open({dir.str(), 0}));
    cache.insert(1000 + k, fat + std::to_string(k));
    ASSERT_TRUE(cache.flush());
  }
  EXPECT_EQ(segment_count(dir.path()), 4u);

  // A tight budget evicts down to roughly one segment — and the
  // publishing flush never evicts its own fresh segment.
  ResultCache cache;
  ASSERT_TRUE(cache.open({dir.str(), /*max_bytes=*/600}));
  cache.insert(2000, fat + "new");
  ASSERT_TRUE(cache.flush());
  EXPECT_GT(cache.stats().evicted_segments, 0u);
  ASSERT_GE(segment_count(dir.path()), 1u);

  ResultCache reader;
  ASSERT_TRUE(reader.open({dir.str(), 0}));
  const auto hit = reader.lookup(2000);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, fat + "new");
}

TEST(ResultCache, LockFileShieldsASegmentFromEviction) {
  TempDir dir("lock");
  {
    ResultCache cache;
    ASSERT_TRUE(cache.open({dir.str(), 0}));
    cache.insert(5, "keep-me");
    ASSERT_TRUE(cache.flush());
  }
  fs::path segment;
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    if (entry.path().extension() == ".seg") segment = entry.path();
  }
  ASSERT_FALSE(segment.empty());
  // A concurrent evictor "holds" the lock: gc must skip the segment.
  std::ofstream(segment.string() + ".lock").put('\n');
  EXPECT_EQ(gc_dir(dir.str(), 0), 0u);
  EXPECT_TRUE(fs::exists(segment));
  fs::remove(segment.string() + ".lock");
  EXPECT_EQ(gc_dir(dir.str(), 0), 1u);
  EXPECT_FALSE(fs::exists(segment));
}

TEST(DirHelpers, ScanReportsAndOptionallyDropsCorruption) {
  TempDir dir("scan");
  {
    ResultCache cache;
    ASSERT_TRUE(cache.open({dir.str(), 0}));
    cache.insert(1, "alpha");
    cache.insert(2, "beta");
    ASSERT_TRUE(cache.flush());
  }
  // Plant one garbage segment alongside the intact one.
  std::ofstream(dir.path() / "seg_0000000000000000.seg") << "garbage\n";

  const auto report = scan_dir(dir.str(), /*drop_corrupt=*/false);
  EXPECT_EQ(report.segments, 1u);
  EXPECT_EQ(report.entries, 2u);
  ASSERT_EQ(report.corrupt_files.size(), 1u);
  // Non-dropping scan left it in place.
  EXPECT_TRUE(fs::exists(report.corrupt_files[0]));

  const auto repair = scan_dir(dir.str(), /*drop_corrupt=*/true);
  EXPECT_EQ(repair.corrupt_files.size(), 1u);
  EXPECT_FALSE(fs::exists(repair.corrupt_files[0]));
  EXPECT_TRUE(scan_dir(dir.str(), false).corrupt_files.empty());
}

TEST(DirHelpers, ScanOfAMissingDirectoryIsEmptyNotFatal) {
  const auto report =
      scan_dir("/nonexistent/railcorr/cache/dir", /*drop_corrupt=*/false);
  EXPECT_EQ(report.segments, 0u);
  EXPECT_TRUE(report.corrupt_files.empty());
}

TEST(DirHelpers, OrphanedLockFilesAreSweptByGc) {
  TempDir dir("orphan");
  std::ofstream(dir.path() / "seg_deadbeefdeadbeef.seg.lock").put('\n');
  (void)gc_dir(dir.str(), 1 << 20);
  EXPECT_FALSE(fs::exists(dir.path() / "seg_deadbeefdeadbeef.seg.lock"));
}

}  // namespace
}  // namespace railcorr::cache
