/// The fault-injection vocabulary: spec parsing round trips, a worker's
/// local injector (arming, queries, the death-fault rule, refused fetch
/// faults), env-var arming (RAILCORR_FAULT), and the seeded chaos
/// schedule.
#include "orch/faultpoint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "util/config.hpp"

namespace railcorr::orch {
namespace {

/// Clears RAILCORR_FAULT around each test. Each test builds its own
/// injector: there is no process-wide fault state.
class FaultpointTest : public ::testing::Test {
 protected:
  void SetUp() override { ::unsetenv("RAILCORR_FAULT"); }
  void TearDown() override { ::unsetenv("RAILCORR_FAULT"); }
};

/// Specs whose value is 2^64 + 1, which a wrapping parser reads as 1.
constexpr const char* kWrappingSpecs[] = {"kill=18446744073709551617",
                                          "stall=18446744073709551617",
                                          "torn-write=18446744073709551617"};

TEST_F(FaultpointTest, SpecsParseAndRoundTripTheirCanonicalSpelling) {
  const auto torn = parse_fault_spec("torn-write=64");
  EXPECT_EQ(torn.kind, FaultKind::kTornWrite);
  EXPECT_EQ(torn.param, 64u);
  EXPECT_EQ(fault_spec_string(torn), "torn-write=64");

  const auto trailer = parse_fault_spec("corrupt-trailer");
  EXPECT_EQ(trailer.kind, FaultKind::kCorruptTrailer);
  EXPECT_EQ(fault_spec_string(trailer), "corrupt-trailer");

  EXPECT_EQ(parse_fault_spec("stall=2").kind, FaultKind::kStall);
  EXPECT_EQ(parse_fault_spec("kill=1").kind, FaultKind::kKillAfterCells);
  EXPECT_EQ(fault_spec_string(parse_fault_spec("kill=3")), "kill=3");

  const auto cache_torn = parse_fault_spec("cache-torn-write=16");
  EXPECT_EQ(cache_torn.kind, FaultKind::kCacheTornWrite);
  EXPECT_EQ(cache_torn.param, 16u);
  EXPECT_EQ(fault_spec_string(cache_torn), "cache-torn-write=16");
  EXPECT_EQ(parse_fault_spec("cache-corrupt-segment").kind,
            FaultKind::kCacheCorruptSegment);
  EXPECT_EQ(parse_fault_spec("cache-evict").kind, FaultKind::kCacheEvict);

  // The network fault vocabulary (distributed chaos).
  EXPECT_EQ(parse_fault_spec("launch-refused").kind,
            FaultKind::kLaunchRefused);
  EXPECT_EQ(fault_spec_string(parse_fault_spec("launch-refused")),
            "launch-refused");
  const auto flap = parse_fault_spec("host-flap=2");
  EXPECT_EQ(flap.kind, FaultKind::kHostFlap);
  EXPECT_EQ(flap.param, 2u);
  EXPECT_EQ(fault_spec_string(flap), "host-flap=2");
  const auto torn_transfer = parse_fault_spec("transfer-torn=48");
  EXPECT_EQ(torn_transfer.kind, FaultKind::kTransferTorn);
  EXPECT_EQ(torn_transfer.param, 48u);
  EXPECT_EQ(fault_spec_string(torn_transfer), "transfer-torn=48");
  EXPECT_EQ(parse_fault_spec("transfer-stalled").kind,
            FaultKind::kTransferStalled);
}

TEST_F(FaultpointTest, MalformedSpecsAreRejected) {
  EXPECT_THROW(parse_fault_spec("unknown-fault"), util::ConfigError);
  EXPECT_THROW(parse_fault_spec(""), util::ConfigError);
  // Parameter required but missing.
  EXPECT_THROW(parse_fault_spec("torn-write"), util::ConfigError);
  EXPECT_THROW(parse_fault_spec("kill"), util::ConfigError);
  EXPECT_THROW(parse_fault_spec("cache-torn-write"), util::ConfigError);
  EXPECT_THROW(parse_fault_spec("host-flap"), util::ConfigError);
  EXPECT_THROW(parse_fault_spec("transfer-torn"), util::ConfigError);
  // Parameter supplied where none is taken.
  EXPECT_THROW(parse_fault_spec("corrupt-trailer=1"), util::ConfigError);
  EXPECT_THROW(parse_fault_spec("cache-evict=1"), util::ConfigError);
  EXPECT_THROW(parse_fault_spec("launch-refused=1"), util::ConfigError);
  EXPECT_THROW(parse_fault_spec("transfer-stalled=1"), util::ConfigError);
  // Malformed digits.
  EXPECT_THROW(parse_fault_spec("stall=abc"), util::ConfigError);
  EXPECT_THROW(parse_fault_spec("stall="), util::ConfigError);
  // 2^64 + 1 does not fit: refused, not wrapped to 1.
  for (const char* spec : kWrappingSpecs) {
    EXPECT_THROW(parse_fault_spec(spec), util::ConfigError) << spec;
  }
}

TEST_F(FaultpointTest, InjectorArmsAndQueries) {
  FaultInjector injector;
  EXPECT_FALSE(injector.armed(FaultKind::kTornWrite).has_value());

  injector.arm({FaultKind::kTornWrite, 32});
  injector.arm({FaultKind::kStall, 2});
  injector.arm({FaultKind::kStall, 7});
  ASSERT_TRUE(injector.armed(FaultKind::kTornWrite).has_value());
  EXPECT_EQ(*injector.armed(FaultKind::kTornWrite), 32u);
  EXPECT_EQ(*injector.armed(FaultKind::kStall), 2u);  // The first armed.
  EXPECT_FALSE(injector.armed(FaultKind::kCorruptTrailer).has_value());
  EXPECT_FALSE(injector.armed(FaultKind::kKillAfterCells).has_value());
  EXPECT_FALSE(FaultInjector().armed(FaultKind::kStall).has_value());
}

TEST_F(FaultpointTest, AWorkerRefusesTheFetchFaults) {
  for (const char* spec : {"transfer-torn=5", "transfer-stalled"}) {
    EXPECT_TRUE(is_transfer_fault(parse_fault_spec(spec).kind)) << spec;
    FaultInjector injector;
    EXPECT_THROW(injector.arm(parse_fault_spec(spec)), util::ConfigError)
        << spec;
    ::setenv("RAILCORR_FAULT", spec, 1);
    EXPECT_THROW(injector.arm_from_env(), util::ConfigError) << spec;
  }
  for (const char* spec : {"torn-write=1", "corrupt-trailer", "stall=1",
                           "kill=1", "cache-torn-write=1",
                           "cache-corrupt-segment", "cache-evict",
                           "launch-refused", "host-flap=1"}) {
    EXPECT_FALSE(is_transfer_fault(parse_fault_spec(spec).kind)) << spec;
    FaultInjector injector;
    EXPECT_NO_THROW(injector.arm(parse_fault_spec(spec))) << spec;
  }
}

TEST_F(FaultpointTest, TheSmallestReachedDeathThresholdFires) {
  const auto death = [](std::vector<FaultSpec> specs, std::size_t owned) {
    FaultInjector injector;
    for (const auto& spec : specs) injector.arm(spec);
    return injector.death_fault(owned);
  };
  const FaultSpec kill3{FaultKind::kKillAfterCells, 3};
  const FaultSpec flap2{FaultKind::kHostFlap, 2};
  const FaultSpec stall2{FaultKind::kStall, 2};
  // A threshold past the shard's cells never fires; N = 0 counts as 1,
  // so an empty shard fires nothing.
  EXPECT_EQ(death({kill3}, 2), std::nullopt);
  EXPECT_EQ(death({kill3}, 3), FaultKind::kKillAfterCells);
  EXPECT_EQ(death({{FaultKind::kStall, 0}}, 1), FaultKind::kStall);
  EXPECT_EQ(death({{FaultKind::kStall, 0}}, 0), std::nullopt);
  EXPECT_EQ(death({{FaultKind::kTornWrite, 1}}, 4), std::nullopt);
  // The smallest threshold wins, whatever the arming order.
  EXPECT_EQ(death({kill3, stall2}, 4), FaultKind::kStall);
  EXPECT_EQ(death({stall2, kill3}, 2), FaultKind::kStall);
  // Ties go kill, host-flap, stall.
  EXPECT_EQ(death({stall2, flap2}, 4), FaultKind::kHostFlap);
  EXPECT_EQ(death({stall2, flap2, {FaultKind::kKillAfterCells, 1}}, 4),
            FaultKind::kKillAfterCells);
  EXPECT_EQ(death({{FaultKind::kStall, 1}, {FaultKind::kKillAfterCells, 0}},
                  4),
            FaultKind::kKillAfterCells);
}

TEST_F(FaultpointTest, EnvArmingParsesCommaSeparatedSpecs) {
  FaultInjector injector;
  ::setenv("RAILCORR_FAULT", "torn-write=10, corrupt-trailer", 1);
  injector.arm_from_env();
  ASSERT_TRUE(injector.armed(FaultKind::kTornWrite).has_value());
  EXPECT_EQ(*injector.armed(FaultKind::kTornWrite), 10u);
  EXPECT_TRUE(injector.armed(FaultKind::kCorruptTrailer).has_value());
  EXPECT_FALSE(injector.armed(FaultKind::kStall).has_value());
}

TEST(ChaosSchedule, SeedSevenWithoutHostsOrCacheIsPinned) {
  // The fault storm the chaos smokes replay: seed 7, no hosts, no cache.
  struct Draw {
    std::size_t shard;
    std::size_t attempt;
    const char* fault;
  };
  const Draw pinned[] = {
      {0, 0, "corrupt-trailer"}, {1, 0, "kill=1"},
      {2, 0, "torn-write=67"},   {6, 0, "stall=1"},
      {0, 1, "torn-write=45"},   {1, 1, "launch-refused"},
      {2, 1, "stall=1"},
  };
  for (const auto& draw : pinned) {
    const auto fault = chaos_fault_for(7, draw.shard, draw.attempt,
                                       /*retries=*/3, /*with_hosts=*/false,
                                       /*with_cache=*/false);
    ASSERT_TRUE(fault.has_value()) << draw.shard << "/" << draw.attempt;
    EXPECT_EQ(fault_spec_string(*fault), draw.fault)
        << draw.shard << "/" << draw.attempt;
    // At the retry budget the same draw runs clean: the attempt a shard
    // falls back on when every earlier one failed is never faulted.
    EXPECT_FALSE(chaos_fault_for(7, draw.shard, draw.attempt,
                                 /*retries=*/draw.attempt,
                                 /*with_hosts=*/false, /*with_cache=*/false)
                     .has_value())
        << draw.shard << "/" << draw.attempt;
  }
}

TEST(ChaosSchedule, CacheAndNetworkFaultsNeedTheirSubsystem) {
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    for (std::size_t shard = 0; shard < 16; ++shard) {
      for (std::size_t attempt = 0; attempt < 4; ++attempt) {
        for (const bool hosts : {false, true}) {
          const auto fault = chaos_fault_for(seed, shard, attempt,
                                             /*retries=*/4, hosts,
                                             /*with_cache=*/false);
          if (!fault.has_value()) continue;
          EXPECT_NE(fault->kind, FaultKind::kCacheTornWrite);
          EXPECT_NE(fault->kind, FaultKind::kCacheCorruptSegment);
          EXPECT_NE(fault->kind, FaultKind::kCacheEvict);
        }
        for (const bool cache : {false, true}) {
          const auto fault = chaos_fault_for(seed, shard, attempt,
                                             /*retries=*/4,
                                             /*with_hosts=*/false, cache);
          if (!fault.has_value()) continue;
          EXPECT_NE(fault->kind, FaultKind::kTransferStalled);
          EXPECT_NE(fault->kind, FaultKind::kHostFlap);
        }
      }
    }
  }
}

TEST_F(FaultpointTest, EnvArmingIsANoOpWhenUnsetAndThrowsOnGarbage) {
  FaultInjector injector;
  injector.arm_from_env();  // Unset: nothing armed.
  EXPECT_FALSE(injector.armed(FaultKind::kTornWrite).has_value());

  ::setenv("RAILCORR_FAULT", "bogus-fault", 1);
  EXPECT_THROW(injector.arm_from_env(), util::ConfigError);
  for (const char* spec : kWrappingSpecs) {
    ::setenv("RAILCORR_FAULT", spec, 1);
    EXPECT_THROW(injector.arm_from_env(), util::ConfigError) << spec;
  }
}

}  // namespace
}  // namespace railcorr::orch
