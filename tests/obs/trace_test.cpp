/// The span recorder and trace grammar: golden-pinned serialization
/// under an injected clock, round-trip through the strict parser, ring
/// wrap-around semantics, concurrent writers, merge lane/timestamp
/// alignment, and the disabled-recorder no-op contract.
#include "obs/trace.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "util/durable_io.hpp"

namespace railcorr::obs {
namespace {

/// Enable the singleton recorder with a deterministic clock: each read
/// advances by `step` usec. The counter is atomic because concurrent
/// writers read the clock from many threads. Tests share the
/// process-wide recorder, so every test starts by re-pinning it.
void pin_recorder(std::atomic<std::uint64_t>* t, std::uint64_t step,
                  std::uint64_t epoch = 1000,
                  std::size_t capacity = TraceRecorder::kDefaultCapacity) {
  auto& rec = TraceRecorder::instance();
  rec.enable(capacity);
  rec.set_clock([t, step] { return t->fetch_add(step) + step; });
  rec.set_epoch_usec(epoch);
}

TEST(TraceRecorder, GoldenSerialization) {
  std::atomic<std::uint64_t> t{0};
  pin_recorder(&t, 5);
  auto& rec = TraceRecorder::instance();
  {
    const ObsSpan span("cell", "sweep", "index", 3);
  }
  rec.instant("retry", "orch", "shard", 2);
  const std::string expected =
      "{\"railcorrTrace\":1,\"epochUsec\":1000,"
      "\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      "{\"name\":\"cell\",\"cat\":\"sweep\",\"ph\":\"X\",\"ts\":5,\"dur\":5,"
      "\"pid\":1,\"tid\":1,\"args\":{\"index\":3}},\n"
      "{\"name\":\"retry\",\"cat\":\"orch\",\"ph\":\"i\",\"s\":\"t\","
      "\"ts\":15,\"pid\":1,\"tid\":1,\"args\":{\"shard\":2}}\n"
      "]}\n";
  EXPECT_EQ(rec.serialize(), expected);
  rec.disable();
}

TEST(TraceRecorder, SerializedDocumentRoundTrips) {
  std::atomic<std::uint64_t> t{0};
  pin_recorder(&t, 7, 42);
  auto& rec = TraceRecorder::instance();
  { const ObsSpan span("shard", "sweep", "cells", 16); }
  rec.instant("launch", "orch");
  { const ObsSpan span("flush", "cache"); }

  const auto parsed = parse_trace(rec.serialize());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.epoch_usec, 42u);
  ASSERT_EQ(parsed.events.size(), 3u);
  EXPECT_EQ(parsed.events[0].name, "shard");
  EXPECT_EQ(parsed.events[0].phase, 'X');
  EXPECT_TRUE(parsed.events[0].has_arg);
  EXPECT_EQ(parsed.events[0].arg_u64, 16u);
  EXPECT_EQ(parsed.events[1].name, "launch");
  EXPECT_EQ(parsed.events[1].phase, 'i');
  EXPECT_FALSE(parsed.events[1].has_arg);
  EXPECT_EQ(parsed.events[2].cat, "cache");
  rec.disable();
}

TEST(TraceRecorder, TrailedDocumentParsesAndCorruptTrailerFails) {
  std::atomic<std::uint64_t> t{0};
  pin_recorder(&t, 5);
  auto& rec = TraceRecorder::instance();
  rec.instant("launch", "orch");
  std::string trailered = util::with_integrity_trailer(rec.serialize());
  EXPECT_TRUE(parse_trace(trailered).ok);
  // Flip one trailer hex digit: same body, lying checksum.
  trailered[trailered.size() - 2] =
      trailered[trailered.size() - 2] == '0' ? '1' : '0';
  const auto corrupt = parse_trace(trailered);
  EXPECT_FALSE(corrupt.ok);
  EXPECT_FALSE(corrupt.error.empty());
  rec.disable();
}

TEST(TraceRecorder, RingWrapKeepsNewestAndCountsDropped) {
  std::atomic<std::uint64_t> t{0};
  pin_recorder(&t, 1, 1000, /*capacity=*/4);
  auto& rec = TraceRecorder::instance();
  for (std::uint64_t i = 0; i < 7; ++i) {
    rec.instant("tick", "test", "i", i);
  }
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first within the ring: events 3,4,5,6 survive.
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(events[k].arg, k + 3);
  }
  EXPECT_EQ(rec.dropped(), 3u);
  rec.disable();
}

TEST(TraceRecorder, ConcurrentWritersAllLand) {
  std::atomic<std::uint64_t> t{0};
  pin_recorder(&t, 0);  // Zero-step clock: every event at ts 0.
  auto& rec = TraceRecorder::instance();
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 100;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t w = 0; w < kThreads; ++w) {
    threads.emplace_back([w] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const ObsSpan span("work", "test", "worker", w);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(rec.snapshot().size(), kThreads * kPerThread);
  EXPECT_EQ(rec.dropped(), 0u);
  // The serialized document stays parseable with many tids.
  EXPECT_TRUE(parse_trace(rec.serialize()).ok);
  rec.disable();
}

TEST(TraceRecorder, ARegisteredThreadTouchesOnlyThePagesItsEventsFill) {
  // Registering four threads with one span each must not fault their
  // rings in, only a ring page each. The faults are counted against
  // four threads that record nothing, so thread start-up (and any
  // sanitizer's own per-thread memory) cancels out. The rings here are
  // 4 MiB (64 Ki events): larger than any block the earlier tests
  // freed, so the allocator maps fresh pages rather than reusing ones
  // already touched, and a ring that was written whole would cost
  // ~4,096 more minor faults.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "a sanitizer's allocator writes shadow memory for every "
                  "block it hands out, so faults no longer count the "
                  "ring's own pages";
#endif
  std::atomic<std::uint64_t> t{0};
  pin_recorder(&t, 1, 1000, /*capacity=*/1 << 16);
  auto& rec = TraceRecorder::instance();
  const auto faults_of_four_threads = [](bool traced) {
    rusage before{};
    ::getrusage(RUSAGE_SELF, &before);
    std::vector<std::thread> threads;
    for (std::uint64_t w = 0; w < 4; ++w) {
      threads.emplace_back([w, traced] {
        if (traced) const ObsSpan span("first", "test", "w", w);
      });
    }
    for (auto& thread : threads) thread.join();
    rusage after{};
    ::getrusage(RUSAGE_SELF, &after);
    return after.ru_minflt - before.ru_minflt;
  };
  const long untraced = faults_of_four_threads(false);
  const long traced = faults_of_four_threads(true);
  EXPECT_LT(traced - untraced, 64)
      << traced << " minor faults traced, " << untraced << " untraced";
  EXPECT_EQ(rec.snapshot().size(), 4u);
  EXPECT_EQ(rec.dropped(), 0u);
  rec.disable();
}

TEST(TraceRecorder, DisabledRecorderIsANoOp) {
  auto& rec = TraceRecorder::instance();
  rec.disable();
  rec.reset();
  { const ObsSpan span("cell", "sweep"); }
  rec.instant("launch", "orch");
  rec.complete("x", "y", 0);
  EXPECT_TRUE(rec.snapshot().empty());
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(TraceMerge, AlignsEpochsAndAssignsLanes) {
  std::atomic<std::uint64_t> t{0};
  pin_recorder(&t, 5, 1000);
  auto& rec = TraceRecorder::instance();
  { const ObsSpan span("cell", "sweep", "index", 3); }
  const auto w0 = parse_trace(rec.serialize());
  ASSERT_TRUE(w0.ok);

  rec.reset();
  rec.set_epoch_usec(1500);
  t = 0;
  rec.instant("retry", "orch", "shard", 2);
  const auto w1 = parse_trace(rec.serialize());
  ASSERT_TRUE(w1.ok);
  rec.disable();

  const std::string merged =
      merge_traces({TraceInput{"w0", w0}, TraceInput{"w1 (h1)", w1}});
  const auto parsed = parse_trace(merged);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  // Earliest input's epoch anchors the merged timeline.
  EXPECT_EQ(parsed.epoch_usec, 1000u);
  // Two metadata lane rows + one event per input.
  ASSERT_EQ(parsed.events.size(), 4u);
  EXPECT_EQ(parsed.events[0].name, "process_name");
  EXPECT_EQ(parsed.events[0].pid, 1u);
  EXPECT_TRUE(parsed.events[0].arg_is_string);
  EXPECT_EQ(parsed.events[0].arg_str, "w0");
  EXPECT_EQ(parsed.events[1].name, "cell");
  EXPECT_EQ(parsed.events[1].pid, 1u);
  EXPECT_EQ(parsed.events[1].ts_usec, 5u);
  EXPECT_EQ(parsed.events[2].name, "process_name");
  EXPECT_EQ(parsed.events[2].arg_str, "w1 (h1)");
  EXPECT_EQ(parsed.events[3].name, "retry");
  EXPECT_EQ(parsed.events[3].pid, 2u);
  // w1's epoch is 500 usec later: its ts shifts by +500.
  EXPECT_EQ(parsed.events[3].ts_usec, 505u);

  // Re-merging a merged document drops the old lane rows (they would
  // otherwise multiply) and re-parses cleanly.
  const std::string remerged = merge_traces({TraceInput{"fleet", parsed}});
  const auto reparsed = parse_trace(remerged);
  ASSERT_TRUE(reparsed.ok) << reparsed.error;
  std::size_t lanes = 0;
  for (const auto& event : reparsed.events) {
    if (event.phase == 'M') ++lanes;
  }
  EXPECT_EQ(lanes, 1u);
}

TEST(TraceStats, SpanTotalsRollUpByNameLargestFirst) {
  ParsedTrace trace;
  trace.ok = true;
  const auto span = [](const char* name, std::uint64_t dur) {
    ParsedTraceEvent ev;
    ev.name = name;
    ev.phase = 'X';
    ev.dur_usec = dur;
    return ev;
  };
  ParsedTraceEvent instant;
  instant.name = "retry";
  instant.phase = 'i';
  trace.events = {span("weather_group", 30), span("sizing_batch", 70),
                  span("weather_group", 40), instant,
                  span("cell", 5),           span("b_tie", 5)};
  const auto totals = span_totals(trace);
  ASSERT_EQ(totals.size(), 4u);  // instants are not spans
  EXPECT_EQ(totals[0].name, "sizing_batch");
  EXPECT_EQ(totals[0].count, 1u);
  EXPECT_EQ(totals[0].total_usec, 70u);
  EXPECT_EQ(totals[1].name, "weather_group");
  EXPECT_EQ(totals[1].count, 2u);
  EXPECT_EQ(totals[1].total_usec, 70u);  // tie: name order
  EXPECT_EQ(totals[2].name, "b_tie");
  EXPECT_EQ(totals[3].name, "cell");
}

TEST(TraceStats, SelfTimeSubtractsDirectChildrenOnTheSameLane) {
  ParsedTrace trace;
  trace.ok = true;
  const auto span = [](const char* name, std::uint64_t ts, std::uint64_t dur,
                       std::uint64_t tid) {
    ParsedTraceEvent ev;
    ev.name = name;
    ev.phase = 'X';
    ev.ts_usec = ts;
    ev.dur_usec = dur;
    ev.pid = 1;
    ev.tid = tid;
    return ev;
  };
  // Lane 1, in record order (a span is recorded when it closes):
  //   shard [0, 100)
  //     isd_search [10, 50)
  //       corridor_check [20, 30), corridor_check [35, 45)
  //     isd_search [50, 90)            (starts where its sibling ends)
  //       corridor_check [50, 90)      (equal bounds: recorded first)
  // Lane 2 overlaps lane 1 in time but is nobody's child:
  //   isd_search [0, 40)
  //     corridor_check [5, 15)
  ParsedTraceEvent instant;
  instant.name = "retry";
  instant.phase = 'i';
  instant.ts_usec = 25;
  instant.pid = 1;
  instant.tid = 1;
  trace.events = {span("corridor_check", 20, 10, 1),
                  span("corridor_check", 35, 10, 1),
                  span("isd_search", 10, 40, 1),
                  instant,
                  span("corridor_check", 5, 10, 2),
                  span("corridor_check", 50, 40, 1),
                  span("isd_search", 50, 40, 1),
                  span("isd_search", 0, 40, 2),
                  span("shard", 0, 100, 1)};
  const auto totals = span_totals(trace);
  ASSERT_EQ(totals.size(), 3u);
  EXPECT_EQ(totals[0].name, "isd_search");
  EXPECT_EQ(totals[0].total_usec, 120u);
  // Lane 1: 40 - 20 and 40 - 40; lane 2: 40 - 10.
  EXPECT_EQ(totals[0].self_usec, 50u);
  EXPECT_EQ(totals[1].name, "shard");
  EXPECT_EQ(totals[1].total_usec, 100u);
  // Only the two isd_search spans are direct children; the lane-2
  // spans are not.
  EXPECT_EQ(totals[1].self_usec, 20u);
  EXPECT_EQ(totals[2].name, "corridor_check");
  EXPECT_EQ(totals[2].count, 4u);
  EXPECT_EQ(totals[2].total_usec, 70u);
  EXPECT_EQ(totals[2].self_usec, 70u);
}

TEST(TraceStats, SelfTimeCountsOverlappingChildrenOnce) {
  // Children on one lane never overlap when recorded by ObsSpan, but a
  // hand-merged or clock-stepped document may hold such; the parent's
  // self time subtracts the time they cover, not their summed lengths.
  ParsedTrace trace;
  trace.ok = true;
  const auto span = [](const char* name, std::uint64_t ts,
                       std::uint64_t dur) {
    ParsedTraceEvent ev;
    ev.name = name;
    ev.phase = 'X';
    ev.ts_usec = ts;
    ev.dur_usec = dur;
    ev.pid = 1;
    ev.tid = 7;
    return ev;
  };
  trace.events = {span("outer", 0, 50), span("a", 10, 20), span("b", 20, 20)};
  const auto totals = span_totals(trace);
  ASSERT_EQ(totals.size(), 3u);
  EXPECT_EQ(totals[0].name, "outer");
  EXPECT_EQ(totals[0].self_usec, 20u);  // [10, 40) is covered

  // A parsed document may end spans past 2^64 µs; their ends saturate
  // instead of wrapping, so self time never exceeds the duration.
  trace.events = {span("outer", UINT64_MAX - 5, 100),
                  span("inner", UINT64_MAX - 3, 50)};
  const auto huge = span_totals(trace);
  ASSERT_EQ(huge.size(), 2u);
  EXPECT_EQ(huge[0].name, "outer");
  EXPECT_EQ(huge[0].self_usec, 97u);
  EXPECT_EQ(huge[1].self_usec, 50u);
}

TEST(TraceParse, RejectsMalformedDocuments) {
  EXPECT_FALSE(parse_trace("").ok);
  EXPECT_FALSE(parse_trace("{}").ok);
  EXPECT_FALSE(parse_trace("not json at all\n").ok);
  // Missing closing line.
  EXPECT_FALSE(
      parse_trace("{\"railcorrTrace\":1,\"epochUsec\":0,"
                  "\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
          .ok);
  // An 'X' span missing its dur.
  EXPECT_FALSE(
      parse_trace("{\"railcorrTrace\":1,\"epochUsec\":0,"
                  "\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
                  "{\"name\":\"a\",\"cat\":\"b\",\"ph\":\"X\",\"ts\":1,"
                  "\"pid\":1,\"tid\":1}\n"
                  "]}\n")
          .ok);
  // Trailing comma on the last event line.
  EXPECT_FALSE(
      parse_trace("{\"railcorrTrace\":1,\"epochUsec\":0,"
                  "\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
                  "{\"name\":\"a\",\"cat\":\"b\",\"ph\":\"i\",\"s\":\"t\","
                  "\"ts\":1,\"pid\":1,\"tid\":1},\n"
                  "]}\n")
          .ok);
}

}  // namespace
}  // namespace railcorr::obs
