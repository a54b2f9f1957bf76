/// Seeded fuzz for the one shard reader (corridor::read_shard) and the
/// merge on top of it, in the style of the cache segment fuzz: shard
/// files are bytes another (possibly crashed) process wrote, so no
/// prefix or byte flip of a trailered or a trailer-less shard may crash
/// the reader or the merge, a trailered shard must accept no mutation
/// of its body, and every document the reader accepts must merge, on
/// its own, to exactly its rows.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "corridor/sweep.hpp"
#include "util/durable_io.hpp"
#include "util/rng.hpp"

namespace railcorr::corridor {
namespace {

/// A well-formed whole-grid shard (a `0/1` run): banner, header and one
/// row per cell, with row bytes that look like the real ones — decimal
/// metrics, an empty field, a quote-free token — and CRLF line ends
/// now and then.
std::string corpus_shard(SplitMix64& rng) {
  const std::size_t grid = 1 + rng.next() % 6;
  const std::string eol = rng.next() % 4 == 0 ? "\r\n" : "\n";
  std::string doc = "# railcorr-sweep-v1 fingerprint=" +
                    util::hex16(rng.next()) +
                    " grid=" + std::to_string(grid) + eol +
                    "index,radio.lp_eirp_dbm,max_isd_m,saving" + eol;
  for (std::size_t i = 0; i < grid; ++i) {
    doc += std::to_string(i) + "," + std::to_string(37 + rng.next() % 8) +
           "," + std::to_string(1000 + rng.next() % 2000) + "," +
           (rng.next() % 3 == 0 ? "" : "0." + std::to_string(rng.next() % 100)) +
           eol;
  }
  return doc;
}

/// The document merge_shards must produce from `shard` alone, or
/// std::nullopt when it must refuse it: every grid cell exactly once
/// (byte-identical duplicates allowed), nothing outside the grid.
std::optional<std::string> merged_alone(const ShardRows& shard) {
  const auto grid = banner_grid(shard.banner);
  if (!grid.has_value()) return std::nullopt;
  std::map<std::size_t, std::string_view> cells;
  for (const auto& [index, row] : shard.rows) {
    if (index >= *grid) return std::nullopt;
    const auto [it, fresh] = cells.emplace(index, row);
    if (!fresh && it->second != row) return std::nullopt;
  }
  if (cells.size() != *grid) return std::nullopt;
  std::string out = std::string(shard.banner) + "\n" +
                    std::string(shard.header) + "\n";
  for (const auto& [index, row] : cells) out += std::string(row) + "\n";
  return out;
}

/// Read `document`; when the reader accepts it, merge it alone and hold
/// the merge to merged_alone(). Returns whether the reader accepted it.
bool read_and_merge(const std::string& document, const std::string& what) {
  std::string error;
  const auto shard = read_shard(document, error);
  const auto merged = merge_shards({document});
  if (!shard.has_value()) {
    EXPECT_FALSE(error.empty()) << what;
    EXPECT_FALSE(merged.ok) << what;
    return false;
  }
  const auto expected = merged_alone(*shard);
  EXPECT_EQ(merged.ok, expected.has_value()) << what;
  if (merged.ok && expected.has_value()) {
    EXPECT_EQ(merged.merged, *expected) << what;
  }
  return true;
}

TEST(ShardFuzz, EveryPrefixIsRefusedOrMergesToExactlyItsRows) {
  SplitMix64 rng(0x5eed5a4d0001ULL);
  for (int round = 0; round < 40; ++round) {
    const std::string body = corpus_shard(rng);
    for (const std::string& document :
         {body, util::with_integrity_trailer(body)}) {
      ASSERT_TRUE(read_and_merge(document, "whole document"));
      // A torn write: any prefix may be accepted only as a trailer-less
      // shard holding the rows it still has, which the merge then
      // refuses for its coverage gap unless every cell survived.
      for (std::size_t len = 0; len < document.size(); ++len) {
        read_and_merge(document.substr(0, len),
                       "round " + std::to_string(round) + " len " +
                           std::to_string(len));
      }
    }
  }
}

TEST(ShardFuzz, ByteFlipsNeverCrashAndNeverPassATrailer) {
  SplitMix64 rng(0x5eed5a4d0002ULL);
  for (int round = 0; round < 40; ++round) {
    const std::string body = corpus_shard(rng);
    const std::string trailered = util::with_integrity_trailer(body);
    for (int mutation = 0; mutation < 200; ++mutation) {
      const bool with_trailer = mutation % 2 == 0;
      std::string mutated = with_trailer ? trailered : body;
      const std::size_t pos = rng.next() % mutated.size();
      const char original = mutated[pos];
      mutated[pos] = static_cast<char>(rng.next() % 256);
      if (mutated[pos] == original) continue;
      const std::string what = "round " + std::to_string(round) + " pos " +
                               std::to_string(pos) +
                               (with_trailer ? " trailered" : " bare");
      const bool accepted = read_and_merge(mutated, what);
      // Any real byte change of a trailered shard breaks its FNV-1a
      // trailer, or the trailer line itself.
      if (with_trailer) {
        EXPECT_FALSE(accepted) << what;
      }
    }
  }
}

TEST(ShardFuzz, EveryFlipOfTheLineBreaksAroundATrailerIsRefused) {
  // The bytes a seeded flip rarely hits but a torn or rotted file can
  // hold: each '\n' of a trailered shard, the one that ends the body
  // included — lost, it would join the trailer onto the last row.
  SplitMix64 rng(0x5eed5a4d0003ULL);
  for (int round = 0; round < 20; ++round) {
    const std::string trailered =
        util::with_integrity_trailer(corpus_shard(rng));
    for (std::size_t pos = 0; pos < trailered.size(); ++pos) {
      if (trailered[pos] != '\n') continue;
      for (const char flip : {'x', ',', '\r', '0', ' '}) {
        std::string mutated = trailered;
        mutated[pos] = flip;
        EXPECT_FALSE(read_and_merge(mutated, "round " + std::to_string(round) +
                                                 " pos " + std::to_string(pos)))
            << "round " << round << " pos " << pos << " flip '" << flip
            << "'";
      }
    }
  }
}

TEST(ShardFuzz, GarbageNeverCrashes) {
  SplitMix64 rng(0x5eed5a4d0004ULL);
  for (int round = 0; round < 500; ++round) {
    std::string garbage;
    // Half the rounds start from a real banner, so the row and merge
    // paths see garbage too, not just the banner check.
    if (round % 2 == 0) garbage = "# railcorr-sweep-v1 grid=3\nindex,a\n";
    const std::size_t len = rng.next() % 256;
    for (std::size_t i = 0; i < len; ++i) {
      garbage += static_cast<char>(rng.next() % 256);
    }
    read_and_merge(garbage, "round " + std::to_string(round));
  }
}

}  // namespace
}  // namespace railcorr::corridor
