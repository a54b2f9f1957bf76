/// Seeded fuzz for the sweep plan reader, SweepPlan::from_spec, in the
/// style of the cache segment fuzz: a plan is read from the user and,
/// on `orchestrate --resume`, from the run directory, so no truncation,
/// byte flip or spliced line of a plan with `base`, `set` and `axis`
/// lines may crash it or trip a sanitizer. It may fail only with
/// util::ConfigError. An accepted plan must re-parse from its
/// canonical_spec() to the same canonical text and fingerprint, and its
/// size() must equal the product of its axis lengths, with no wrap.
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "corridor/sweep.hpp"
#include "util/config.hpp"
#include "util/rng.hpp"

namespace railcorr::corridor {
namespace {

/// `count` comma-separated values, spaced or not.
std::string value_list(SplitMix64& rng, std::size_t count) {
  const char* const sep = rng.next() % 2 == 0 ? ", " : ",";
  std::string values;
  for (std::size_t v = 0; v < count; ++v) {
    if (v > 0) values += sep;
    values += std::to_string(37 + v);
  }
  return values;
}

/// A plan with an optional base, a few `set` lines, comments and axes
/// whose lengths reach 256 now and then, so that about nine such axes
/// take a grid past 2^64 - 1 cells. `cells` is the grid's true size.
std::string corpus_plan(SplitMix64& rng, unsigned __int128& cells) {
  const char* const keys[] = {"radio.lp_eirp_dbm", "radio.hp_eirp_dbm",
                              "timetable.trains_per_hour",
                              "timetable.night_hours", "max_repeaters",
                              "isd_search.isd_step_m"};
  std::string plan;
  if (rng.next() % 2 == 0) plan += "base = paper\n";
  if (rng.next() % 3 == 0) plan += "# a comment line\n";
  const std::size_t sets = rng.next() % 3;
  for (std::size_t s = 0; s < sets; ++s) {
    plan += "set " + std::string(keys[rng.next() % 6]) + " = " +
            std::to_string(rng.next() % 100) + "\n";
  }
  cells = 1;
  const std::size_t axes = 1 + rng.next() % 12;
  for (std::size_t a = 0; a < axes; ++a) {
    const std::size_t lengths[] = {1, 2, 3, 7, 255, 256};
    const std::size_t length = lengths[rng.next() % 6];
    cells *= length;
    std::string key = keys[a % 6];
    if (a >= 6) key += std::to_string(a);
    plan += "axis " + key + " = " + value_list(rng, length) + "\n";
  }
  return plan;
}

std::string corpus_plan(SplitMix64& rng) {
  unsigned __int128 cells = 0;
  return corpus_plan(rng, cells);
}

struct Tally {
  std::size_t accepted = 0;
  std::size_t refused = 0;
};

/// Hold one input to the contract.
void check_plan(const std::string& text, const std::string& what,
                Tally& tally) {
  SweepPlan plan;
  try {
    plan = SweepPlan::from_spec(text);
  } catch (const util::ConfigError&) {
    ++tally.refused;
    return;
  } catch (const std::exception& error) {
    ADD_FAILURE() << what << ": not a ConfigError: " << error.what();
    return;
  }
  ++tally.accepted;
  unsigned __int128 cells = 1;
  for (const auto& axis : plan.axes) {
    EXPECT_FALSE(axis.values.empty()) << what;
    cells *= axis.values.size();
    ASSERT_LE(cells, static_cast<unsigned __int128>(SIZE_MAX)) << what;
  }
  EXPECT_EQ(static_cast<unsigned __int128>(plan.size()), cells) << what;
  const std::string canonical = plan.canonical_spec();
  try {
    const SweepPlan again = SweepPlan::from_spec(canonical);
    EXPECT_EQ(again.canonical_spec(), canonical) << what;
    EXPECT_EQ(again.fingerprint(), plan.fingerprint()) << what;
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

TEST(PlanFuzz, CorpusPlansAreAcceptedExactlyWhenTheirGridFits) {
  SplitMix64 rng(0x5eed91a40001ULL);
  Tally tally;
  for (int round = 0; round < 300; ++round) {
    unsigned __int128 cells = 0;
    const std::string plan = corpus_plan(rng, cells);
    const std::size_t accepted = tally.accepted;
    check_plan(plan, "round " + std::to_string(round), tally);
    EXPECT_EQ(tally.accepted > accepted,
              cells <= static_cast<unsigned __int128>(SIZE_MAX))
        << "round " << round;
  }
  // Both outcomes occur: most grids fit, and the long ones overflow.
  EXPECT_GT(tally.accepted, 0u);
  EXPECT_GT(tally.refused, 0u);
}

TEST(PlanFuzz, EveryPrefixIsRefusedOrRoundTrips) {
  SplitMix64 rng(0x5eed91a40002ULL);
  Tally tally;
  for (int round = 0; round < 10; ++round) {
    const std::string plan = corpus_plan(rng);
    // Every prefix of a short plan; of a long one, a sample.
    const std::size_t step = 1 + plan.size() / 400;
    for (std::size_t len = 0; len < plan.size(); len += step) {
      check_plan(plan.substr(0, len),
                 "round " + std::to_string(round) + " len " +
                     std::to_string(len),
                 tally);
    }
  }
  EXPECT_GT(tally.accepted, 0u);
  EXPECT_GT(tally.refused, 0u);
}

TEST(PlanFuzz, ByteFlipsAreRefusedOrRoundTrip) {
  SplitMix64 rng(0x5eed91a40003ULL);
  Tally tally;
  for (int round = 0; round < 40; ++round) {
    const std::string plan = corpus_plan(rng);
    for (int mutation = 0; mutation < 50; ++mutation) {
      std::string mutated = plan;
      const std::size_t flips = 1 + rng.next() % 3;
      for (std::size_t f = 0; f < flips; ++f) {
        // Bytes the grammar gives meaning to, and any byte at all.
        const char special[] = {'=', ',', '#', '\n', ' ', '\t', '\r', '\0'};
        mutated[rng.next() % mutated.size()] =
            rng.next() % 2 == 0 ? special[rng.next() % 8]
                                : static_cast<char>(rng.next() % 256);
      }
      check_plan(mutated,
                 "round " + std::to_string(round) + " mutation " +
                     std::to_string(mutation),
                 tally);
    }
  }
  EXPECT_GT(tally.accepted, 0u);
  EXPECT_GT(tally.refused, 0u);
}

TEST(PlanFuzz, SplicedLinesAreRefusedOrRoundTrip) {
  SplitMix64 rng(0x5eed91a40004ULL);
  Tally tally;
  for (int round = 0; round < 100; ++round) {
    const auto base = lines_of(corpus_plan(rng));
    const auto donor = lines_of(corpus_plan(rng));
    for (int mutation = 0; mutation < 20; ++mutation) {
      auto lines = base;
      const std::size_t edits = 1 + rng.next() % 4;
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
          default:  // repeat a line of the plan itself
            if (at < lines.size()) {
              lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                           lines[at]);
            }
            break;
        }
      }
      std::string spliced;
      for (const auto& line : lines) spliced += line;
      check_plan(spliced,
                 "round " + std::to_string(round) + " mutation " +
                     std::to_string(mutation),
                 tally);
    }
  }
  // Duplicate axes and bases are refused; other splices parse.
  EXPECT_GT(tally.accepted, 0u);
  EXPECT_GT(tally.refused, 0u);
}

}  // namespace
}  // namespace railcorr::corridor
