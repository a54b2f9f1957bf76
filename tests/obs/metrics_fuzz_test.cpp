/// Seeded fuzz for the metrics document parser, in the style of the
/// cache segment fuzz: a remote worker's `.metrics.json` reaches the
/// orchestrator through an unverified copy, and write_telemetry parses
/// it with parse_metrics_json. So no truncation, byte flip or spliced
/// line of a rendered snapshot, with or without its integrity trailer,
/// may crash the parser or trip a sanitizer; a rejection is `ok ==
/// false` with an error; and every accepted document must re-render
/// through render_metrics_json to one that parses to the same snapshot.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "obs/metrics.hpp"
#include "util/durable_io.hpp"
#include "util/rng.hpp"

namespace railcorr::obs {
namespace {

/// A snapshot shaped like a worker's: several counters (one at the top
/// of its range), a negative gauge, and histograms with sparse buckets
/// up to the last one. Sizes vary with the seed.
MetricsSnapshot corpus_snapshot(SplitMix64& rng) {
  MetricsSnapshot snap;
  snap.ok = true;
  snap.sources = 1 + rng.next() % 3;
  const char* const counters[] = {"cache.hits", "cache.misses",
                                  "sweep.cells", "sweep.isd_searches"};
  for (const char* name : counters) {
    if (rng.next() % 4 != 0) snap.counters.emplace_back(name, rng.next() >> 40);
  }
  if (rng.next() % 2 == 0) {
    snap.counters.emplace_back("sweep.z_total", UINT64_MAX);
  }
  snap.gauges.emplace_back("pool.queue_depth",
                           -static_cast<std::int64_t>(rng.next() % 100));
  const char* const histograms[] = {"cache.lookup_usec", "pool.task_usec"};
  for (const char* name : histograms) {
    if (rng.next() % 4 == 0) continue;
    MetricsSnapshot::Hist hist;
    for (std::uint32_t bucket = 0; bucket < Histogram::kBuckets;
         bucket += 1 + static_cast<std::uint32_t>(rng.next() % 24)) {
      const std::uint64_t count = 1 + rng.next() % 9;
      hist.buckets.emplace_back(bucket, count);
      hist.count += count;
    }
    hist.sum = rng.next() >> 20;
    hist.min = rng.next() % 4;
    hist.max = rng.next() >> 30;
    snap.histograms.emplace_back(name, hist);
  }
  return snap;
}

bool same_snapshot(const MetricsSnapshot& a, const MetricsSnapshot& b) {
  if (a.sources != b.sources || a.counters != b.counters ||
      a.gauges != b.gauges || a.histograms.size() != b.histograms.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.histograms.size(); ++i) {
    const auto& [name_a, ha] = a.histograms[i];
    const auto& [name_b, hb] = b.histograms[i];
    if (std::tie(name_a, ha.count, ha.sum, ha.min, ha.max, ha.buckets) !=
        std::tie(name_b, hb.count, hb.sum, hb.min, hb.max, hb.buckets)) {
      return false;
    }
  }
  return true;
}

/// Hold one input to the contract. Returns whether it was accepted.
bool check_document(const std::string& document, const std::string& what) {
  const auto parsed = parse_metrics_json(document);
  if (!parsed.ok) {
    EXPECT_FALSE(parsed.error.empty()) << what;
    return false;
  }
  EXPECT_TRUE(parsed.error.empty()) << what;
  const auto again = parse_metrics_json(render_metrics_json(parsed));
  EXPECT_TRUE(again.ok) << what << ": " << again.error;
  EXPECT_TRUE(same_snapshot(parsed, again)) << what;
  return true;
}

/// The two documents of a snapshot: as rendered, and as a worker writes
/// it, with its integrity trailer.
std::vector<std::string> corpus_documents(SplitMix64& rng) {
  const std::string rendered = render_metrics_json(corpus_snapshot(rng));
  return {rendered, util::with_integrity_trailer(rendered)};
}

std::vector<std::string> lines_of(const std::string& document) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < document.size()) {
    const std::size_t eol = document.find('\n', start);
    const std::size_t end = eol == std::string::npos ? document.size() : eol + 1;
    lines.push_back(document.substr(start, end - start));
    start = end;
  }
  return lines;
}

TEST(MetricsDocumentFuzz, CorpusDocumentsRoundTrip) {
  SplitMix64 rng(0x5eed3e7c0001ULL);
  for (int round = 0; round < 50; ++round) {
    for (const std::string& document : corpus_documents(rng)) {
      EXPECT_TRUE(check_document(document, "round " + std::to_string(round)));
    }
  }
}

TEST(MetricsDocumentFuzz, EveryPrefixIsRefusedOrRoundTrips) {
  SplitMix64 rng(0x5eed3e7c0002ULL);
  for (int round = 0; round < 20; ++round) {
    const auto documents = corpus_documents(rng);
    for (std::size_t d = 0; d < documents.size(); ++d) {
      const std::string& document = documents[d];
      for (std::size_t len = 0; len < document.size(); ++len) {
        const bool accepted = check_document(
            document.substr(0, len), "round " + std::to_string(round) +
                                         " doc " + std::to_string(d) +
                                         " len " + std::to_string(len));
        // A rendered body cut anywhere before its final newline cannot
        // close its sections.
        if (len + 1 < documents[0].size()) {
          EXPECT_FALSE(accepted) << "round " << round << " len " << len;
        }
      }
    }
  }
}

TEST(MetricsDocumentFuzz, ByteFlipsAreRefusedOrRoundTrip) {
  SplitMix64 rng(0x5eed3e7c0003ULL);
  std::size_t accepted = 0;
  std::size_t trailered_accepted = 0;
  for (int round = 0; round < 40; ++round) {
    const auto documents = corpus_documents(rng);
    for (std::size_t d = 0; d < documents.size(); ++d) {
      for (int mutation = 0; mutation < 100; ++mutation) {
        std::string mutated = documents[d];
        const std::size_t flips = 1 + rng.next() % 3;
        for (std::size_t f = 0; f < flips; ++f) {
          mutated[rng.next() % mutated.size()] =
              static_cast<char>(rng.next() % 256);
        }
        if (!check_document(mutated, "round " + std::to_string(round) +
                                         " doc " + std::to_string(d) +
                                         " mutation " +
                                         std::to_string(mutation))) {
          continue;
        }
        ++accepted;
        if (d == 1 && mutated != documents[d]) ++trailered_accepted;
      }
    }
  }
  // Flipped digits keep an untrailered document valid now and then;
  // a trailered one accepts only a flip its trailer still verifies —
  // in practice none.
  EXPECT_GT(accepted, 0u);
  EXPECT_EQ(trailered_accepted, 0u);
}

TEST(MetricsDocumentFuzz, SplicedLinesAreRefusedOrRoundTrip) {
  SplitMix64 rng(0x5eed3e7c0004ULL);
  std::size_t accepted = 0;
  for (int round = 0; round < 200; ++round) {
    // Lines of two different snapshots, trailer lines included.
    const auto a = corpus_documents(rng);
    const auto b = corpus_documents(rng);
    const auto base = lines_of(a[rng.next() % 2]);
    const auto donor = lines_of(b[rng.next() % 2]);
    for (int mutation = 0; mutation < 20; ++mutation) {
      auto lines = base;
      const std::size_t edits = 1 + rng.next() % 3;
      for (std::size_t e = 0; e < edits; ++e) {
        const std::string& line = donor[rng.next() % donor.size()];
        const std::size_t at = rng.next() % (lines.size() + 1);
        switch (rng.next() % 4) {
          case 0:  // insert a donor line
            lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                         line);
            break;
          case 1:  // replace a line with a donor line
            if (at < lines.size()) lines[at] = line;
            break;
          case 2:  // drop a line
            if (at < lines.size()) {
              lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(at));
            }
            break;
          default:  // repeat a line of the document itself
            if (at < lines.size()) {
              lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                           lines[at]);
            }
            break;
        }
      }
      std::string spliced;
      for (const auto& line : lines) spliced += line;
      if (check_document(spliced, "round " + std::to_string(round) +
                                      " mutation " +
                                      std::to_string(mutation))) {
        ++accepted;
      }
    }
  }
  // Swapping whole sections between snapshots yields valid documents.
  EXPECT_GT(accepted, 0u);
}

}  // namespace
}  // namespace railcorr::obs
