/// Seeded fuzz for the ScenarioSpec reader, core::scenario_from_spec
/// (`--spec FILE` goes through the same apply_spec), in the style of
/// the cache segment fuzz. The corpus is every registry variant's full
/// to_spec text. No prefix, byte flip, spliced line or garbage document
/// may crash the reader or trip a sanitizer: it may fail only with
/// util::ConfigError. An accepted document must round-trip: the
/// to_spec of its scenario re-parses to the same text.
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "core/scenario_registry.hpp"
#include "core/scenario_spec.hpp"
#include "util/config.hpp"
#include "util/rng.hpp"

namespace railcorr::core {
namespace {

/// The full to_spec text of every registry variant.
std::vector<std::string> corpus() {
  std::vector<std::string> specs;
  for (const auto& variant : scenario_registry()) {
    specs.push_back(to_spec(make_scenario(variant.name)));
  }
  return specs;
}

struct Tally {
  std::size_t accepted = 0;
  std::size_t refused = 0;
};

/// Hold one document to the contract.
void check_spec(const std::string& text, const std::string& what,
                Tally& tally) {
  std::string canonical;
  try {
    canonical = to_spec(scenario_from_spec(text));
  } catch (const util::ConfigError&) {
    ++tally.refused;
    return;
  } catch (const std::exception& error) {
    ADD_FAILURE() << what << ": not a ConfigError: " << error.what();
    return;
  }
  ++tally.accepted;
  try {
    EXPECT_EQ(to_spec(scenario_from_spec(canonical)), canonical) << what;
  } catch (const std::exception& error) {
    ADD_FAILURE() << what << ": canonical text refused: " << error.what();
  }
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t eol = text.find('\n', start);
    const std::size_t end = eol == std::string::npos ? text.size() : eol + 1;
    lines.push_back(text.substr(start, end - start));
    start = end;
  }
  return lines;
}

TEST(ScenarioSpecFuzz, EveryVariantRoundTrips) {
  Tally tally;
  const auto specs = corpus();
  for (std::size_t v = 0; v < specs.size(); ++v) {
    check_spec(specs[v], "variant " + std::to_string(v), tally);
  }
  EXPECT_EQ(tally.accepted, specs.size());
}

TEST(ScenarioSpecFuzz, EveryPrefixIsRefusedOrRoundTrips) {
  Tally tally;
  const auto specs = corpus();
  for (std::size_t v = 0; v < specs.size(); ++v) {
    for (std::size_t len = 0; len < specs[v].size(); ++len) {
      check_spec(specs[v].substr(0, len),
                 "variant " + std::to_string(v) + " len " +
                     std::to_string(len),
                 tally);
    }
  }
  // A cut inside a key or before a value is refused; one at a line
  // end is a shorter, valid document.
  EXPECT_GT(tally.accepted, 0u);
  EXPECT_GT(tally.refused, 0u);
}

TEST(ScenarioSpecFuzz, ByteFlipsAreRefusedOrRoundTrip) {
  SplitMix64 rng(0x5eed5bec0001ULL);
  Tally tally;
  const auto specs = corpus();
  // Bytes the grammar or the number formats give meaning to.
  const std::string special = "=.,;:-+e#\n\t\r";
  for (int round = 0; round < 20000; ++round) {
    std::string mutated = specs[rng.next() % specs.size()];
    const std::size_t flips = 1 + rng.next() % 3;
    for (std::size_t f = 0; f < flips; ++f) {
      char& byte = mutated[rng.next() % mutated.size()];
      switch (rng.next() % 4) {
        case 0:
          byte = special[rng.next() % special.size()];
          break;
        case 1:
          byte = '\0';
          break;
        case 2:
          byte = static_cast<char>('0' + rng.next() % 10);
          break;
        default:
          byte = static_cast<char>(rng.next() % 256);
          break;
      }
    }
    check_spec(mutated, "round " + std::to_string(round), tally);
  }
  EXPECT_GT(tally.accepted, 0u);
  EXPECT_GT(tally.refused, 0u);
}

TEST(ScenarioSpecFuzz, SplicedLinesAreRefusedOrRoundTrip) {
  SplitMix64 rng(0x5eed5bec0002ULL);
  Tally tally;
  const auto specs = corpus();
  for (int round = 0; round < 4000; ++round) {
    auto lines = lines_of(specs[rng.next() % specs.size()]);
    const auto donor = lines_of(specs[rng.next() % specs.size()]);
    const std::size_t edits = 1 + rng.next() % 4;
    for (std::size_t e = 0; e < edits; ++e) {
      const std::string& line = donor[rng.next() % donor.size()];
      const std::size_t at = rng.next() % (lines.size() + 1);
      switch (rng.next() % 4) {
        case 0:  // insert a donor line
          lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at), line);
          break;
        case 1:  // replace a line with a donor line
          if (at < lines.size()) lines[at] = line;
          break;
        case 2:  // drop a line
          if (at < lines.size()) {
            lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(at));
          }
          break;
        default:  // join a line to the next one's tail
          if (at + 1 < lines.size()) {
            lines[at].pop_back();
            lines[at] += lines[at + 1].substr(lines[at + 1].size() / 2);
          }
          break;
      }
    }
    std::string spliced;
    for (const auto& line : lines) spliced += line;
    check_spec(spliced, "round " + std::to_string(round), tally);
  }
  // Whole lines of other variants are valid overrides; joined halves
  // mostly are not.
  EXPECT_GT(tally.accepted, 0u);
  EXPECT_GT(tally.refused, 0u);
}

TEST(ScenarioSpecFuzz, GarbageIsRefusedOrRoundTrips) {
  SplitMix64 rng(0x5eed5bec0003ULL);
  Tally tally;
  for (int round = 0; round < 5000; ++round) {
    std::string garbage;
    const std::size_t len = rng.next() % 128;
    for (std::size_t i = 0; i < len; ++i) {
      garbage += static_cast<char>(rng.next() % 256);
    }
    check_spec(garbage, "round " + std::to_string(round), tally);
  }
  // Only documents with no override line (empty, blank, comments) are
  // accepted.
  EXPECT_GT(tally.refused, 0u);
}

}  // namespace
}  // namespace railcorr::core
