/// The worker progress protocol: emit/parse round trips, rejection of
/// non-protocol lines (an older worker's `banner` and `cell` lines
/// among them), the heartbeat timer, and a seeded fuzz pass feeding
/// the parser truncated, mutated, and garbage lines — it must never
/// crash and never mis-parse.
#include "orch/progress.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/rng.hpp"

namespace railcorr::orch {
namespace {

TEST(ProgressProtocol, StartRoundTrips) {
  const auto event = parse_progress_line(start_line(3, 8, 9));
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->kind, ProgressEvent::Kind::kStart);
  EXPECT_EQ(event->shard, 3u);
  EXPECT_EQ(event->shard_count, 8u);
  EXPECT_EQ(event->cells, 9u);
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
  EXPECT_FALSE(parse_progress_line("@railcorr 2 done rows=1").has_value());
  EXPECT_FALSE(parse_progress_line("@railcorr 1 unknown x=1").has_value());
  EXPECT_FALSE(parse_progress_line("@railcorr 1 done rows=x").has_value());
  EXPECT_FALSE(parse_progress_line("@railcorr 1 done rows=1 junk")
                   .has_value());
  // The retired metrics snapshot event.
  EXPECT_FALSE(
      parse_progress_line("@railcorr 1 metrics sweep.cells=8").has_value());
}

TEST(ProgressProtocol, AnOlderWorkersBannerAndCellLinesAreIgnored) {
  // Workers before the protocol dropped them printed a banner line
  // before `start` and one cell line per rendered row; a fleet mixing
  // binaries must read them as unknown lines, not as events.
  for (const char* line :
       {"@railcorr 1 banner # railcorr-sweep-v1 fingerprint=0123456789abcdef"
        " grid=64",
        "@railcorr 1 cell index=42 done=5 total=9",
        "@railcorr 1 cell index=42 done=5 total=9 usec=7"}) {
    EXPECT_FALSE(parse_progress_line(line).has_value()) << line;
  }
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

TEST(ProgressProtocol, LinesCarryExactlyTheirFields) {
  EXPECT_EQ(start_line(3, 8, 9), "@railcorr 1 start shard=3/8 cells=9");
  EXPECT_EQ(cache_line(57, 7), "@railcorr 1 cache hits=57 misses=7");
  EXPECT_EQ(heartbeat_line(), "@railcorr 1 heartbeat");
  EXPECT_EQ(done_line(64), "@railcorr 1 done rows=64");
}

// ---------------------------------------------------------------------
// Seeded fuzz: the parser sits directly on bytes from worker pipes, so
// a crashed or malicious worker can hand it any prefix, mutation, or
// garbage. The invariants: parse_progress_line never crashes, and a
// mutated line either fails to parse or parses to *some* well-formed
// event.

TEST(ProgressFuzz, TruncatedProtocolLinesNeverCrashTheParser) {
  SplitMix64 rng(0x5eed0001);
  const std::vector<std::string> wellformed = {
      start_line(3, 8, 9),
      cache_line(57, 7),
      heartbeat_line(),
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
       {"@railcorr 1 start shard=18446744073709551617/2 cells=1",
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

}  // namespace
}  // namespace railcorr::orch
