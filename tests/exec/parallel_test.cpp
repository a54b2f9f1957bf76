#include "exec/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/thread_pool.hpp"

namespace railcorr::exec {
namespace {

/// Restores automatic thread-count resolution after each test.
class ParallelTest : public ::testing::Test {
 protected:
  void TearDown() override { set_default_thread_count(0); }
};

TEST_F(ParallelTest, ThreadCountResolution) {
  EXPECT_GE(hardware_thread_count(), 1u);
  set_default_thread_count(3);
  EXPECT_EQ(default_thread_count(), 3u);
  set_default_thread_count(0);
  EXPECT_GE(default_thread_count(), 1u);
}

TEST(ThreadCountParse, WholeDecimalsUpToTheCeiling) {
  // Parse only: no count here is ever handed to a pool.
  EXPECT_EQ(parse_thread_count("8"), std::optional<std::size_t>(8));
  EXPECT_EQ(parse_thread_count("0"), std::optional<std::size_t>(0));
  EXPECT_EQ(parse_thread_count("1024"),
            std::optional<std::size_t>(kMaxThreadCount));
  for (const char* bad :
       {"4x", "-3", "1025", "18446744073709551617", "", " 8", "+8"}) {
    EXPECT_EQ(parse_thread_count(bad), std::nullopt) << bad;
  }
}

TEST_F(ParallelTest, EveryIndexRunsExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 5u, 8u}) {
    const std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    set_default_thread_count(threads);
    parallel_for(n, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " at " << threads
                                   << " threads";
    }
  }
}

TEST_F(ParallelTest, EmptyRangeIsANoop) {
  bool ran = false;
  parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST_F(ParallelTest, ParallelMapReturnsIndexedResults) {
  for (const std::size_t threads : {1u, 4u}) {
    set_default_thread_count(threads);
    const auto squares = parallel_map(257, [](std::size_t i) { return i * i; });
    ASSERT_EQ(squares.size(), 257u);
    for (std::size_t i = 0; i < squares.size(); ++i) {
      EXPECT_EQ(squares[i], i * i);
    }
  }
}

TEST_F(ParallelTest, ExceptionsPropagateToCaller) {
  set_default_thread_count(4);
  EXPECT_THROW(parallel_for(100,
                            [](std::size_t i) {
                              if (i == 57) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
  // The engine must remain usable after a failed batch.
  std::atomic<int> count{0};
  parallel_for(100, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 100);
}

TEST_F(ParallelTest, NestedRegionsCompleteWithoutDeadlock) {
  set_default_thread_count(4);
  std::vector<std::atomic<int>> hits(64);
  for (auto& h : hits) h.store(0);
  parallel_for(8, [&](std::size_t outer) {
    parallel_for(8, [&](std::size_t inner) { ++hits[outer * 8 + inner]; });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_F(ParallelTest, RegionNestedInCallersChunkRunsOnTheCaller) {
  // The calling thread is a participant while it runs chunk 0 of a
  // multi-chunk region, so a region nested there runs every index
  // inline instead of handing work to workers busy with their chunks.
  set_default_thread_count(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> inner(16);
  bool caller_in_region = false;
  EXPECT_FALSE(in_parallel_region());
  parallel_for(4, [&](std::size_t outer) {
    if (outer != 0) return;
    caller_in_region = in_parallel_region();
    parallel_for(inner.size(), [&](std::size_t i) {
      inner[i] = std::this_thread::get_id();
    });
  });
  EXPECT_TRUE(caller_in_region);
  EXPECT_FALSE(in_parallel_region());
  for (const auto& id : inner) EXPECT_EQ(id, caller);

  // A one-chunk region does not enclose: its nested region still fans
  // out to the pool.
  std::vector<std::atomic<int>> on_worker(4);
  for (auto& w : on_worker) w.store(0);
  parallel_for(1, [&](std::size_t) {
    EXPECT_FALSE(in_parallel_region());
    parallel_for(4, [&](std::size_t i) {
      on_worker[i] = ThreadPool::on_worker_thread() ? 1 : 0;
    });
  });
  EXPECT_EQ(on_worker[0].load(), 0);
  EXPECT_EQ(on_worker[3].load(), 1);
}

TEST_F(ParallelTest, WorkerThreadsAreMarked) {
  EXPECT_FALSE(ThreadPool::on_worker_thread());
  std::atomic<int> on_worker{0};
  set_default_thread_count(4);
  parallel_for(4, [&](std::size_t i) {
    // Chunk 0 runs on the caller; the rest on pool workers.
    if (i > 0 && ThreadPool::on_worker_thread()) ++on_worker;
  });
  EXPECT_GE(on_worker.load(), 1);
}

TEST_F(ParallelTest, DeterministicReductionAcrossThreadCounts) {
  // The canonical usage pattern: indexed slots + index-ordered reduce
  // must give bit-identical sums at any thread count.
  auto weighted_sum = [](std::size_t threads) {
    set_default_thread_count(threads);
    const auto values = parallel_map(10000, [](std::size_t i) {
      return 1.0 / (1.0 + static_cast<double>(i) * 0.001);
    });
    double sum = 0.0;
    for (const double v : values) sum += v;
    return sum;
  };
  const double base = weighted_sum(1);
  EXPECT_EQ(base, weighted_sum(2));
  EXPECT_EQ(base, weighted_sum(8));
}

}  // namespace
}  // namespace railcorr::exec
