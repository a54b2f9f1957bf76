/// Seeded fuzz for the cache segment parser and the store that reads
/// segments in two steps, mirroring the progress-protocol fuzz style:
/// both sit directly on bytes another (possibly crashed, possibly
/// hostile) process published, so they must survive truncated files,
/// mutated bytes, duplicate keys, and pure garbage — never crashing,
/// never accepting a document whose trailer does not verify, and never
/// serving a row that was not inserted.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "cache/result_cache.hpp"
#include "util/durable_io.hpp"
#include "util/rng.hpp"

namespace railcorr::cache {
namespace {

/// A representative well-formed segment: empty rows, CSV rows, rows
/// that impersonate segment structure, duplicate keys.
std::string corpus_segment(SplitMix64& rng) {
  std::vector<SegmentEntry> entries;
  const std::size_t count = rng.next() % 6;
  for (std::size_t i = 0; i < count; ++i) {
    SegmentEntry entry;
    entry.key = rng.next();
    switch (rng.next() % 4) {
      case 0:
        entry.row = "";
        break;
      case 1:
        entry.row = "0,37,6,2,1200.5,0.82";
        break;
      case 2:
        entry.row = "entry 0123456789abcdef 4\njunk";
        break;
      default:
        entry.row = "@railcorr-crc 0000000000000000";
        break;
    }
    entries.push_back(entry);
  }
  // Duplicate the first key under different bytes half the time.
  if (!entries.empty() && rng.next() % 2 == 0) {
    entries.push_back(SegmentEntry{entries.front().key, "duplicate"});
  }
  return render_segment(entries);
}

TEST(SegmentFuzz, TruncatedDocumentsNeverYieldWrongEntries) {
  SplitMix64 rng(0x5eedcac4e0001ULL);
  for (int round = 0; round < 50; ++round) {
    const std::string document = corpus_segment(rng);
    const auto full = parse_segment(document);
    ASSERT_TRUE(full.ok);
    // Every strict prefix is a torn publish. Any byte of real content
    // missing breaks the trailer, so the prefix must fail — except the
    // final-newline-only truncation, whose body is fully intact and
    // trailer-verified; accepting it is correct, but only with entries
    // identical to the whole document's.
    for (std::size_t len = 0; len < document.size(); ++len) {
      const auto parse = parse_segment(document.substr(0, len));
      if (len + 1 < document.size()) {
        EXPECT_FALSE(parse.ok) << "round " << round << " len " << len;
        continue;
      }
      if (!parse.ok) continue;
      ASSERT_EQ(parse.entries.size(), full.entries.size());
      for (std::size_t i = 0; i < full.entries.size(); ++i) {
        EXPECT_EQ(parse.entries[i].key, full.entries[i].key);
        EXPECT_EQ(parse.entries[i].row, full.entries[i].row);
      }
    }
  }
}

TEST(SegmentFuzz, SingleByteMutationsNeverParseAndNeverCrash) {
  SplitMix64 rng(0x5eedcac4e0002ULL);
  for (int round = 0; round < 40; ++round) {
    const std::string document = corpus_segment(rng);
    for (int mutation = 0; mutation < 200; ++mutation) {
      std::string mutated = document;
      const std::size_t pos = rng.next() % mutated.size();
      const char original = mutated[pos];
      mutated[pos] = static_cast<char>(rng.next() % 256);
      if (mutated[pos] == original) continue;
      // Any real byte change breaks the FNV-1a trailer; a parse that
      // succeeded would mean serving corrupt rows as cache hits.
      EXPECT_FALSE(parse_segment(mutated).ok)
          << "round " << round << " pos " << pos;
    }
  }
}

TEST(SegmentFuzz, GarbageDocumentsNeverParse) {
  SplitMix64 rng(0x5eedcac4e0003ULL);
  for (int round = 0; round < 500; ++round) {
    std::string garbage;
    const std::size_t len = rng.next() % 256;
    for (std::size_t i = 0; i < len; ++i) {
      garbage += static_cast<char>(rng.next() % 256);
    }
    EXPECT_FALSE(parse_segment(garbage).ok) << "round " << round;
  }
}

TEST(SegmentFuzz, TrailerValidStructuralDamageIsStillRejected) {
  // An attacker (or cosmic ray with a grudge) who re-computes the
  // trailer over damaged structure: the trailer verifies, so the
  // entry-level validation must reject it on its own.
  SplitMix64 rng(0x5eedcac4e0004ULL);
  const std::string document = corpus_segment(rng);
  const auto check = util::check_integrity_trailer(document);
  ASSERT_EQ(check.status, util::TrailerStatus::kVerified);
  std::string body(check.body);

  const std::string dir1 = "# railcorr-cache-v2 schema=1 entries=1\n"
                           "0123456789abcdef 00000000\n";
  const std::vector<std::string> damaged_bodies = {
      // Wrong magic / schema / count.
      "# railcorr-cache-v1 schema=1\n",
      "# railcorr-cache-v2 schema=1\n",
      "# railcorr-cache-v2 schema=999 entries=0\n",
      "# railcorr-cache-v2 schema=1 entries=x\n",
      "# railcorr-cache-v2 schema=1 entries=18446744073709551615\n",
      "not a magic line\n",
      // A directory that is short, malformed, unsorted, or lists an
      // ordinal out of range or twice.
      "# railcorr-cache-v2 schema=1 entries=2\n0123456789abcdef 00000000\n",
      "# railcorr-cache-v2 schema=1 entries=1\n0123456789abcdeg 00000000\n"
      "entry 1\na\n",
      "# railcorr-cache-v2 schema=1 entries=1\n0123456789abcdef 0000000x\n"
      "entry 1\na\n",
      "# railcorr-cache-v2 schema=1 entries=2\n0123456789abcdef 00000000\n"
      "0000000000000000 00000001\nentry 1\na\nentry 1\nb\n",
      "# railcorr-cache-v2 schema=1 entries=1\n0123456789abcdef 00000001\n"
      "entry 1\na\n",
      "# railcorr-cache-v2 schema=1 entries=2\n0123456789abcdef 00000000\n"
      "0123456789abcdff 00000000\nentry 1\na\nentry 1\nb\n",
      // Entry header lies about the payload length, or states one
      // that would wrap the bounds check or overflow the parser.
      dir1 + "entry 10\nab\n",
      dir1 + "entry 18446744073709551615\nab\n",
      dir1 + "entry 100000000000000000002\nab\n",
      // Malformed entry lines.
      dir1 + "entry x\nabc\n",
      dir1 + "entry 0123456789abcdef 3\nabc\n",
      // Truncated mid-payload (no separator newline).
      dir1 + "entry 3\nab",
      // Fewer or more entries than the directory lists.
      dir1,
      dir1 + "entry 1\na\nentry 1\nb\n",
  };
  for (const auto& damaged : damaged_bodies) {
    const auto parse = parse_segment(util::with_integrity_trailer(damaged));
    EXPECT_FALSE(parse.ok) << damaged;
  }
  // Sanity: the same helper accepts the genuine body.
  EXPECT_TRUE(parse_segment(util::with_integrity_trailer(body)).ok);
  EXPECT_TRUE(
      parse_segment(util::with_integrity_trailer(dir1 + "entry 1\na\n")).ok);
}

TEST(SegmentFuzz, RandomEntryBytesAlwaysRoundTrip) {
  // Property: render ∘ parse is the identity on arbitrary row bytes —
  // newlines, NULs, trailer-impersonating bytes included.
  SplitMix64 rng(0x5eedcac4e0005ULL);
  for (int round = 0; round < 100; ++round) {
    std::vector<SegmentEntry> entries;
    const std::size_t count = rng.next() % 8;
    for (std::size_t i = 0; i < count; ++i) {
      SegmentEntry entry;
      entry.key = rng.next();
      const std::size_t len = rng.next() % 64;
      for (std::size_t b = 0; b < len; ++b) {
        entry.row += static_cast<char>(rng.next() % 256);
      }
      entries.push_back(entry);
    }
    const auto parse = parse_segment(render_segment(entries));
    ASSERT_TRUE(parse.ok) << "round " << round << ": " << parse.error;
    ASSERT_EQ(parse.entries.size(), entries.size()) << "round " << round;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      EXPECT_EQ(parse.entries[i].key, entries[i].key);
      EXPECT_EQ(parse.entries[i].row, entries[i].row);
    }
  }
}

TEST(SegmentFuzz, AStoreOfMutatedSegmentsServesOnlyInsertedRows) {
  // Each round writes one intact segment and one mutated copy of
  // another into a fresh store; some keys sit in both. Every key of the
  // intact segment must be served, whatever the mutated one holds, and
  // any row returned must be the one inserted under its key. (A mutated
  // copy may still serve: a prefix that loses only the final newline
  // verifies, and an overwrite may write the byte that was there.)
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("railcorr_segment_fuzz_" + std::to_string(::getpid()));
  SplitMix64 rng(0x5eedcac4e0006ULL);
  for (int round = 0; round < 300; ++round) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    std::map<std::uint64_t, std::string> rows;
    std::vector<SegmentEntry> intact;
    std::vector<SegmentEntry> mutated;
    const std::size_t count = 1 + rng.next() % 12;
    for (std::size_t i = 0; i < count; ++i) {
      // Few distinct keys, so directories hold runs of equal keys.
      const std::uint64_t key = rng.next() % 16;
      std::string& row = rows[key];
      if (row.empty()) row = "row-" + std::to_string(rng.next() % 1000);
      const std::uint64_t where = rng.next() % 3;
      if (where != 1) intact.push_back({key, row});
      if (where != 0) mutated.push_back({key, row});
    }
    std::string bytes = render_segment(mutated);
    switch (rng.next() % 3) {
      case 0:  // Torn: a strict prefix.
        bytes.resize(rng.next() % bytes.size());
        break;
      case 1:  // One byte changed.
        bytes[rng.next() % bytes.size()] ^=
            static_cast<char>(1 + rng.next() % 255);
        break;
      default:  // A few bytes overwritten.
        for (int k = 0; k < 4; ++k) {
          bytes[rng.next() % bytes.size()] =
              static_cast<char>(rng.next() % 256);
        }
        break;
    }
    // Either name may sort first.
    const bool mutated_first = rng.next() % 2 == 0;
    std::ofstream(dir / (mutated_first ? "seg_a.seg" : "seg_c.seg"),
                  std::ios::binary)
        << bytes;
    if (!intact.empty()) {
      std::ofstream(dir / "seg_b.seg", std::ios::binary)
          << render_segment(intact);
    }

    ResultCache cache;
    ASSERT_TRUE(cache.open({dir.string(), 0}));
    for (const auto& [key, row] : rows) {
      const auto hit = cache.lookup(key);
      bool in_intact = false;
      for (const auto& entry : intact) in_intact |= entry.key == key;
      if (in_intact) {
        ASSERT_TRUE(hit.has_value()) << "round " << round << " key " << key;
      }
      if (!hit.has_value()) continue;
      EXPECT_EQ(*hit, row) << "round " << round << " key " << key;
    }
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace railcorr::cache
