/// The worker progress protocol: emit/parse round trips, rejection of
/// non-protocol lines, the aggregator's dedup + banner-consistency
/// guarantees, and a seeded fuzz pass feeding the parser truncated,
/// mutated, and garbage lines — it must never crash, never mis-parse,
/// and never let a damaged line corrupt the aggregator's dedup.
#include "orch/progress.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "util/rng.hpp"

namespace railcorr::orch {
namespace {

TEST(ProgressProtocol, BannerRoundTrips) {
  const std::string banner =
      "# railcorr-sweep-v1 fingerprint=0123456789abcdef grid=64";
  const auto event = parse_progress_line(banner_line(banner));
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->kind, ProgressEvent::Kind::kBanner);
  EXPECT_EQ(event->banner, banner);
}

TEST(ProgressProtocol, StartRoundTrips) {
  const auto event = parse_progress_line(start_line(3, 8, 9));
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->kind, ProgressEvent::Kind::kStart);
  EXPECT_EQ(event->shard, 3u);
  EXPECT_EQ(event->shard_count, 8u);
  EXPECT_EQ(event->cells, 9u);
}

TEST(ProgressProtocol, CellRoundTrips) {
  const auto event = parse_progress_line(cell_line(42, 5, 9));
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->kind, ProgressEvent::Kind::kCell);
  EXPECT_EQ(event->index, 42u);
  EXPECT_EQ(event->done, 5u);
  EXPECT_EQ(event->total, 9u);
}

TEST(ProgressProtocol, CacheRoundTrips) {
  const auto event = parse_progress_line(cache_line(57, 7));
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->kind, ProgressEvent::Kind::kCache);
  EXPECT_EQ(event->hits, 57u);
  EXPECT_EQ(event->misses, 7u);
}

TEST(ProgressProtocol, MalformedCacheLinesAreRejected) {
  EXPECT_FALSE(parse_progress_line("@railcorr 1 cache hits=1").has_value());
  EXPECT_FALSE(
      parse_progress_line("@railcorr 1 cache hits=x misses=1").has_value());
  EXPECT_FALSE(
      parse_progress_line("@railcorr 1 cache hits=1 misses=2 junk")
          .has_value());
  // 2^64 + 1 does not fit: refused, not wrapped to 1.
  EXPECT_FALSE(parse_progress_line(
                   "@railcorr 1 cache hits=18446744073709551617 misses=1")
                   .has_value());
}

TEST(ProgressProtocol, HeartbeatRoundTrips) {
  const auto event = parse_progress_line(heartbeat_line());
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->kind, ProgressEvent::Kind::kHeartbeat);
  // Heartbeats carry no fields; trailing junk is not a heartbeat.
  EXPECT_FALSE(parse_progress_line("@railcorr 1 heartbeat x=1").has_value());
}

TEST(ProgressProtocol, DoneRoundTrips) {
  const auto event = parse_progress_line(done_line(64));
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->kind, ProgressEvent::Kind::kDone);
  EXPECT_EQ(event->rows, 64u);
}

TEST(ProgressProtocol, NonProtocolLinesAreIgnored) {
  EXPECT_FALSE(parse_progress_line("").has_value());
  EXPECT_FALSE(parse_progress_line("0,37,8,2,1200").has_value());
  EXPECT_FALSE(parse_progress_line("@railcorr 2 cell index=0 done=1 total=1")
                   .has_value());
  EXPECT_FALSE(parse_progress_line("@railcorr 1 unknown x=1").has_value());
  EXPECT_FALSE(parse_progress_line("@railcorr 1 cell index=x done=1 total=1")
                   .has_value());
  EXPECT_FALSE(
      parse_progress_line("@railcorr 1 cell index=0 done=1 total=1 junk")
          .has_value());
  // The retired metrics snapshot event.
  EXPECT_FALSE(
      parse_progress_line("@railcorr 1 metrics sweep.cells=8").has_value());
}

TEST(ProgressAggregator, CountsEachGridCellOnce) {
  ProgressAggregator aggregator(/*grid_cells=*/8, /*shard_count=*/2);
  aggregator.on_event(0, *parse_progress_line(cell_line(0, 1, 4)));
  aggregator.on_event(0, *parse_progress_line(cell_line(2, 2, 4)));
  // A retried attempt re-reports cell 2: no double count.
  aggregator.on_event(0, *parse_progress_line(cell_line(2, 1, 4)));
  EXPECT_EQ(aggregator.cells_done(), 2u);
  aggregator.on_shard_complete(0);
  aggregator.on_shard_complete(0);
  EXPECT_EQ(aggregator.shards_done(), 1u);
  EXPECT_EQ(aggregator.summary(), "cells 2/8, shards 1/2");
}

TEST(ProgressAggregator, FlagsDivergentWorkerBanners) {
  ProgressAggregator aggregator(4, 2);
  aggregator.on_event(0, *parse_progress_line(banner_line("# banner A")));
  aggregator.on_event(1, *parse_progress_line(banner_line("# banner A")));
  EXPECT_TRUE(aggregator.banner_errors().empty());
  // Worker 1 restarts on a different plan: caught live.
  aggregator.on_event(1, *parse_progress_line(banner_line("# banner B")));
  ASSERT_EQ(aggregator.banner_errors().size(), 1u);
  EXPECT_NE(aggregator.banner_errors()[0].find("# banner B"),
            std::string::npos);
  EXPECT_EQ(aggregator.banner(), "# banner A");
}

TEST(ProgressAggregator, IgnoresOutOfGridCellIndices) {
  ProgressAggregator aggregator(4, 1);
  aggregator.on_event(0, *parse_progress_line(cell_line(99, 1, 4)));
  EXPECT_EQ(aggregator.cells_done(), 0u);
}

TEST(ProgressAggregator, HeartbeatsAreLivenessOnlyAndNeverChangeTallies) {
  ProgressAggregator aggregator(/*grid_cells=*/8, /*shard_count=*/2);
  aggregator.on_event(0, *parse_progress_line(cell_line(0, 1, 4)));
  const auto heartbeat = parse_progress_line(heartbeat_line());
  ASSERT_TRUE(heartbeat.has_value());
  for (int i = 0; i < 5; ++i) aggregator.on_event(0, *heartbeat);
  EXPECT_EQ(aggregator.cells_done(), 1u);
  EXPECT_EQ(aggregator.shards_done(), 0u);
  EXPECT_EQ(aggregator.cache_hits(), 0u);
  EXPECT_TRUE(aggregator.banner_errors().empty());
}

TEST(HeartbeatThreadTest, EmitsPeriodicallyAndStopIsIdempotent) {
  std::vector<std::string> lines;
  std::mutex lines_mutex;
  {
    HeartbeatThread heartbeat(0.01, [&](const std::string& line) {
      const std::lock_guard<std::mutex> lock(lines_mutex);
      lines.push_back(line);
    });
    // Wait for at least two beats (bounded, not timing-exact).
    for (int spin = 0; spin < 500; ++spin) {
      {
        const std::lock_guard<std::mutex> lock(lines_mutex);
        if (lines.size() >= 2) break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    heartbeat.stop();
    heartbeat.stop();  // Idempotent.
  }  // Destructor after stop() must also be safe.
  ASSERT_GE(lines.size(), 2u);
  for (const auto& line : lines) {
    const auto event = parse_progress_line(line);
    ASSERT_TRUE(event.has_value());
    EXPECT_EQ(event->kind, ProgressEvent::Kind::kHeartbeat);
  }
}

TEST(HeartbeatThreadTest, StopBeforeFirstBeatEmitsNothing) {
  std::vector<std::string> lines;
  {
    HeartbeatThread heartbeat(60.0, [&](const std::string& line) {
      lines.push_back(line);
    });
    heartbeat.stop();
  }
  EXPECT_TRUE(lines.empty());
}

TEST(HeartbeatThreadTest, HugePeriodNeverSpins) {
  // A period whose duration cast would overflow must wait, not fire at
  // once: an orchestrator derives worker periods from --stall-timeout.
  std::atomic<int> beats{0};
  {
    HeartbeatThread heartbeat(1e12, [&](const std::string&) { ++beats; });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_EQ(beats.load(), 0);
}

TEST(ProgressAggregator, CacheTalliesSumLatestReportPerShard) {
  ProgressAggregator aggregator(/*grid_cells=*/16, /*shard_count=*/2);
  EXPECT_EQ(aggregator.cache_hits(), 0u);
  EXPECT_EQ(aggregator.cache_misses(), 0u);
  aggregator.on_event(0, *parse_progress_line(cache_line(3, 5)));
  aggregator.on_event(1, *parse_progress_line(cache_line(8, 0)));
  EXPECT_EQ(aggregator.cache_hits(), 11u);
  EXPECT_EQ(aggregator.cache_misses(), 5u);
  // Shard 0 retried: its new report replaces (not adds to) the dead
  // attempt's, and an out-of-range shard id is ignored.
  aggregator.on_event(0, *parse_progress_line(cache_line(8, 0)));
  aggregator.on_event(9, *parse_progress_line(cache_line(100, 100)));
  EXPECT_EQ(aggregator.cache_hits(), 16u);
  EXPECT_EQ(aggregator.cache_misses(), 0u);
}

TEST(ProgressProtocol, CellLinesCarryExactlyIndexDoneTotal) {
  EXPECT_EQ(cell_line(42, 5, 9), "@railcorr 1 cell index=42 done=5 total=9");
  // A cell line with any further field is not a cell event: the `usec=`
  // field older workers appended now parses to nothing.
  EXPECT_FALSE(
      parse_progress_line("@railcorr 1 cell index=42 done=5 total=9 usec=7")
          .has_value());
  EXPECT_FALSE(parse_progress_line("@railcorr 1 cell index=42 done=5")
                   .has_value());
}

// ---------------------------------------------------------------------
// Seeded fuzz: the parser sits directly on bytes from worker pipes, so
// a crashed or malicious worker can hand it any prefix, mutation, or
// garbage. The invariants: parse_progress_line never crashes, a
// mutated line either fails to parse or parses to *some* well-formed
// event, and the aggregator's cell tally exactly equals the set of
// distinct valid in-grid cell indices it accepted — damaged lines can
// drop events (their write never completed) but never invent or
// double-count cells.

TEST(ProgressFuzz, TruncatedProtocolLinesNeverCrashTheParser) {
  SplitMix64 rng(0x5eed0001);
  const std::vector<std::string> wellformed = {
      banner_line("# railcorr-sweep-v1 fingerprint=0123456789abcdef grid=64"),
      start_line(3, 8, 9),
      cell_line(42, 5, 9),
      cache_line(57, 7),
      done_line(64),
  };
  for (const auto& line : wellformed) {
    // Every strict prefix is a torn pipe read: must parse to nothing
    // or to a well-formed event, never crash.
    for (std::size_t len = 0; len < line.size(); ++len) {
      (void)parse_progress_line(std::string_view(line).substr(0, len));
    }
    // Random single-byte mutations.
    for (int round = 0; round < 200; ++round) {
      std::string mutated = line;
      const std::size_t pos = rng.next() % mutated.size();
      mutated[pos] = static_cast<char>(rng.next() % 256);
      (void)parse_progress_line(mutated);
    }
  }
}

TEST(ProgressFuzz, GarbageLinesNeverParse) {
  // Every numeric field refuses 2^64 + 1 instead of wrapping it to 1.
  for (const char* line :
       {"@railcorr 1 cell index=18446744073709551617 done=1 total=1",
        "@railcorr 1 start shard=18446744073709551617/2 cells=1",
        "@railcorr 1 start shard=0/18446744073709551617 cells=1",
        "@railcorr 1 done rows=18446744073709551617"}) {
    EXPECT_FALSE(parse_progress_line(line).has_value()) << line;
  }
  SplitMix64 rng(0x5eed0002);
  for (int round = 0; round < 500; ++round) {
    std::string garbage;
    const std::size_t len = rng.next() % 64;
    for (std::size_t i = 0; i < len; ++i) {
      garbage += static_cast<char>(rng.next() % 256);
    }
    // Random bytes essentially never start with the protocol magic;
    // skip the astronomically unlikely collision instead of asserting
    // on it.
    if (garbage.starts_with("@railcorr 1 ")) continue;
    EXPECT_FALSE(parse_progress_line(garbage).has_value())
        << "round " << round;
  }
}

TEST(ProgressFuzz, AggregatorTallyMatchesTheDistinctValidCellsItSaw) {
  SplitMix64 rng(0x5eed0003);
  const std::size_t grid = 32;
  ProgressAggregator aggregator(grid, 4);
  std::set<std::size_t> reference;
  for (int round = 0; round < 2000; ++round) {
    const std::size_t index = rng.next() % (grid + 8);  // Some out-of-grid.
    std::string line = cell_line(index, 1, 8);
    const bool damage = rng.next() % 4 == 0;
    if (damage) {
      const std::size_t pos = rng.next() % line.size();
      line[pos] = static_cast<char>(rng.next() % 256);
    }
    const auto event = parse_progress_line(line);
    if (!event.has_value()) continue;
    // Whatever survived mutation is what the aggregator actually saw;
    // mirror exactly its accepted, in-grid cell events.
    if (event->kind == ProgressEvent::Kind::kCell && event->index < grid) {
      reference.insert(event->index);
    }
    aggregator.on_event(rng.next() % 4, *event);
  }
  EXPECT_EQ(aggregator.cells_done(), reference.size());
  EXPECT_GE(reference.size(), 1u);
}

}  // namespace
}  // namespace railcorr::orch
