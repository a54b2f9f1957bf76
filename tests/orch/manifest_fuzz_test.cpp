/// Seeded fuzz for the run manifest, mirroring the cache segment fuzz
/// style: `--resume` parses `orchestrate.manifest` as a crashed, torn or
/// hand-edited run left it, so RunManifest::parse must survive
/// truncations, byte flips and random lines — never crashing, failing
/// only with util::ConfigError, and never accepting a header that does
/// not round-trip through header_text().
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "orch/manifest.hpp"
#include "orch/orchestrator.hpp"
#include "util/config.hpp"
#include "util/rng.hpp"

namespace railcorr::orch {
namespace {

/// A manifest as orchestrate writes it: the planned header, then the
/// `fail`, `host`, `done` and `info` lines a run with one retry, one
/// quarantine and one resume appends.
std::string corpus_manifest() {
  const auto plan = corridor::SweepPlan::from_spec(
      "base = paper\n"
      "axis radio.lp_eirp_dbm = 37, 40\n"
      "axis timetable.trains_per_hour = 8, 12, 16\n");
  std::string text = RunManifest::plan_run(plan, 4, true).header_text();
  for (const std::string& line : {
           RunManifest::fail_line(1, 0, "signal-9"),
           RunManifest::host_line("node-a", "quarantine"),
           RunManifest::done_line(0, shard_file_name(0)),
           RunManifest::fail_line(2, 0, "corrupt-transfer"),
           RunManifest::done_line(1, shard_file_name(1)),
           RunManifest::host_line("node-a", "probe"),
           RunManifest::host_line("node-a", "recover"),
           RunManifest::done_line(3, shard_file_name(3)),
           RunManifest::info_line(
               "run summary: wall=0.5s attempts=6 retried=2 "
               "[corrupt-transfer=1 signal-9=1] speculative=0 resumed=0"),
           RunManifest::done_line(2, shard_file_name(2)),
       }) {
    text += line + "\n";
  }
  return text;
}

/// Parse `text` as a resume would. std::nullopt when parse refused it
/// with util::ConfigError, its one failure mode; any other exception
/// fails the test. An accepted document's header must re-parse from
/// header_text() to the same fields.
std::optional<RunManifest> parse_checked(const std::string& text) {
  RunManifest parsed;
  try {
    parsed = RunManifest::parse(text);
  } catch (const util::ConfigError&) {
    return std::nullopt;
  } catch (const std::exception& error) {
    ADD_FAILURE() << "parse threw a non-ConfigError: " << error.what();
    return std::nullopt;
  }
  RunManifest again;
  try {
    again = RunManifest::parse(parsed.header_text());
  } catch (const std::exception& error) {
    ADD_FAILURE() << "header_text() does not re-parse: " << error.what()
                  << "\n" << parsed.header_text();
    return parsed;
  }
  EXPECT_EQ(again.fingerprint, parsed.fingerprint);
  EXPECT_EQ(again.grid, parsed.grid);
  EXPECT_EQ(again.shards, parsed.shards);
  EXPECT_EQ(again.include_sizing, parsed.include_sizing);
  EXPECT_EQ(again.banner, parsed.banner);
  return parsed;
}

TEST(ManifestFuzz, TheCorpusParsesWhole) {
  const auto manifest = parse_checked(corpus_manifest());
  ASSERT_TRUE(manifest.has_value());
  EXPECT_EQ(manifest->shards, 4u);
  EXPECT_EQ(manifest->done.size(), 4u);
  EXPECT_EQ(manifest->failures.size(), 2u);
  EXPECT_EQ(manifest->host_events.size(), 3u);
  EXPECT_EQ(manifest->infos.size(), 1u);
}

TEST(ManifestFuzz, HeaderValuesEndingInCarriageReturnsRoundTrip) {
  // parse drops a CRLF file's '\r'; a value ending in more than one must
  // not keep the rest, or header_text() would re-parse to another banner.
  std::string text = corpus_manifest();
  const std::size_t banner_end = text.find('\n', text.find("banner = "));
  text.insert(banner_end, "\r\r");
  const auto manifest = parse_checked(text);
  ASSERT_TRUE(manifest.has_value());
  EXPECT_EQ(manifest->header_text(),
            parse_checked(corpus_manifest())->header_text());
}

TEST(ManifestFuzz, EveryTruncationPastTheHeaderParsesToAPrefixOfTheRun) {
  // A crash during a synced append leaves a prefix of the manifest. Past
  // the header, every prefix must parse — a torn final line is dropped
  // or kept, never diagnosed — with the whole header and only shards
  // the whole manifest records as done.
  const std::string text = corpus_manifest();
  const auto whole = parse_checked(text);
  ASSERT_TRUE(whole.has_value());
  const std::size_t header = whole->header_text().size();
  for (std::size_t len = 0; len <= text.size(); ++len) {
    const auto prefix = parse_checked(text.substr(0, len));
    if (len < header) continue;  // A torn header may parse or refuse.
    ASSERT_TRUE(prefix.has_value()) << "len " << len;
    EXPECT_EQ(prefix->header_text(), whole->header_text()) << "len " << len;
    for (const auto& [shard, file] : prefix->done) {
      EXPECT_TRUE(whole->is_done(shard)) << "len " << len << ": " << file;
    }
  }
}

TEST(ManifestFuzz, ByteFlipsParseOrRefuseCleanly) {
  SplitMix64 rng(0x5eed3a21f0001ULL);
  const std::string text = corpus_manifest();
  for (int round = 0; round < 3000; ++round) {
    std::string mutated = text;
    const std::size_t flips = 1 + rng.next() % 3;
    for (std::size_t k = 0; k < flips; ++k) {
      mutated[rng.next() % mutated.size()] =
          static_cast<char>(rng.next() % 256);
    }
    // A third of the rounds also tear the end off.
    if (rng.next() % 3 == 0) mutated.resize(rng.next() % mutated.size());
    (void)parse_checked(mutated);
  }
}

TEST(ManifestFuzz, RandomLinesParseOrRefuseCleanly) {
  // Lines spliced in at line boundaries: pure garbage, and garbage
  // behind each entry's keyword, so every branch of the line parser
  // sees hostile fields (huge numbers, missing spaces, NULs, '\r').
  static const std::vector<std::string> kLeads = {
      "",       "done ",         "fail ",       "host ",
      "info ",  "fingerprint = ", "grid = ",    "shards = ",
      "sizing = ", "banner = ",  "done 1 ",     "fail 1 ",
      "# railcorr-orchestrate-v1"};
  static constexpr char kAlphabet[] = "0123456789 abcdef=-\r\t\n#\0x";
  SplitMix64 rng(0x5eed3a21f0002ULL);
  const std::string text = corpus_manifest();
  std::vector<std::size_t> boundaries = {0};
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') boundaries.push_back(i + 1);
  }
  for (int round = 0; round < 3000; ++round) {
    std::string mutated = text;
    const std::size_t lines = 1 + rng.next() % 3;
    for (std::size_t k = 0; k < lines; ++k) {
      std::string line = kLeads[rng.next() % kLeads.size()];
      const std::size_t len = rng.next() % 24;
      for (std::size_t i = 0; i < len; ++i) {
        line += rng.next() % 2 == 0
                    ? kAlphabet[rng.next() % (sizeof(kAlphabet) - 1)]
                    : static_cast<char>(rng.next() % 256);
      }
      if (rng.next() % 4 != 0) line += '\n';
      // After the first splice an original boundary may fall inside
      // a line: fuzz as well.
      const std::size_t at = boundaries[rng.next() % boundaries.size()];
      mutated.insert(std::min(at, mutated.size()), line);
    }
    (void)parse_checked(mutated);
  }
}

}  // namespace
}  // namespace railcorr::orch
