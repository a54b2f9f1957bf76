#include "corridor/sweep.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <set>

#include "util/durable_io.hpp"

namespace railcorr::corridor {
namespace {

SweepPlan two_axis_plan() {
  return SweepPlan::from_spec(
      "base = paper\n"
      "set isd_search.sample_step_m = 50\n"
      "axis radio.lp_eirp_dbm = 37, 40, 43\n"
      "axis timetable.trains_per_hour = 8, 16\n");
}

TEST(SweepPlan, ParseAndGridShape) {
  const auto plan = two_axis_plan();
  EXPECT_EQ(plan.base, "paper");
  ASSERT_EQ(plan.fixed.size(), 1u);
  EXPECT_EQ(plan.fixed[0].key, "isd_search.sample_step_m");
  ASSERT_EQ(plan.axes.size(), 2u);
  EXPECT_EQ(plan.axes[0].values.size(), 3u);
  EXPECT_EQ(plan.axes[1].values.size(), 2u);
  EXPECT_EQ(plan.size(), 6u);
}

TEST(SweepPlan, RowMajorDecomposition) {
  const auto plan = two_axis_plan();
  // Last axis fastest: index 0 -> (37, 8), 1 -> (37, 16), 2 -> (40, 8).
  const auto cell0 = plan.overrides_at(0);
  ASSERT_EQ(cell0.size(), 3u);  // fixed + two axes
  EXPECT_EQ(cell0[1].value, "37");
  EXPECT_EQ(cell0[2].value, "8");
  const auto cell1 = plan.overrides_at(1);
  EXPECT_EQ(cell1[1].value, "37");
  EXPECT_EQ(cell1[2].value, "16");
  const auto cell2 = plan.overrides_at(2);
  EXPECT_EQ(cell2[1].value, "40");
  EXPECT_EQ(cell2[2].value, "8");
  const auto cell5 = plan.overrides_at(5);
  EXPECT_EQ(cell5[1].value, "43");
  EXPECT_EQ(cell5[2].value, "16");
}

TEST(SweepPlan, CanonicalSpecRoundTripsAndFingerprints) {
  const auto plan = two_axis_plan();
  const auto reparsed = SweepPlan::from_spec(plan.canonical_spec());
  EXPECT_EQ(reparsed.canonical_spec(), plan.canonical_spec());
  EXPECT_EQ(reparsed.fingerprint(), plan.fingerprint());

  auto different = plan;
  different.axes[0].values.push_back("46");
  EXPECT_NE(different.fingerprint(), plan.fingerprint());
}

TEST(SweepPlan, ParseErrors) {
  EXPECT_THROW(SweepPlan::from_spec("base = a\nbase = b\n"),
               util::ConfigError);
  EXPECT_THROW(SweepPlan::from_spec("axis = 1, 2\n"), util::ConfigError);
  EXPECT_THROW(SweepPlan::from_spec("axis k = 1,,2\n"), util::ConfigError);
  EXPECT_THROW(SweepPlan::from_spec("axis k = 1\naxis k = 2\n"),
               util::ConfigError);
  EXPECT_THROW(SweepPlan::from_spec("frobnicate k = 1\n"),
               util::ConfigError);
}

/// The message of the util::ConfigError from_spec throws, or "".
std::string plan_error(const std::string& text) {
  try {
    SweepPlan::from_spec(text);
  } catch (const util::ConfigError& error) {
    return error.what();
  }
  return "";
}

TEST(SweepPlan, AGridPast64BitsIsRefusedAtTheAxisThatOverflows) {
  // 63 two-valued axes make 2^63 cells; a 64th would make 2^64, which
  // size() would wrap to 0.
  std::string text;
  for (int a = 0; a < 63; ++a) {
    text += "axis k" + std::to_string(a) + " = 0, 1\n";
  }
  EXPECT_EQ(SweepPlan::from_spec(text).size(), std::size_t{1} << 63);
  const std::string error = plan_error(text + "axis k63 = 0, 1\n");
  EXPECT_NE(error.find("line 64"), std::string::npos) << error;
  EXPECT_NE(error.find("'k63'"), std::string::npos) << error;
  EXPECT_NE(error.find("2^64 - 1"), std::string::npos) << error;

  // Four axes of 65,536 values (2^64 cells) fail at the fourth, and a
  // fifth axis after them is never reached.
  std::string values;
  for (int v = 0; v < 65536; ++v) {
    values += (v == 0 ? "" : ", ") + std::to_string(v);
  }
  std::string big;
  for (const char* key : {"a", "b", "c", "d", "e"}) {
    big += "axis " + std::string(key) + " = " + values + "\n";
  }
  EXPECT_NE(plan_error(big).find("axis 'd'"), std::string::npos);
}

TEST(ShardSpec, ParseAndPartition) {
  const auto shard = ShardSpec::parse("1/3");
  EXPECT_EQ(shard.index, 1u);
  EXPECT_EQ(shard.count, 3u);
  EXPECT_THROW(ShardSpec::parse("3/3"), util::ConfigError);
  EXPECT_THROW(ShardSpec::parse("0/0"), util::ConfigError);
  EXPECT_THROW(ShardSpec::parse("1-3"), util::ConfigError);
  EXPECT_THROW(ShardSpec::parse("a/3"), util::ConfigError);
  // 20-digit decimals that do not fit are refused, not wrapped (2^64 + 2
  // would otherwise read as 2, and 2^64 + 1 as 1).
  EXPECT_THROW(ShardSpec::parse("1/18446744073709551618"), util::ConfigError);
  EXPECT_THROW(ShardSpec::parse("18446744073709551617/2"), util::ConfigError);

  // Shards partition the grid: disjoint and covering.
  std::set<std::size_t> seen;
  for (std::size_t k = 0; k < 3; ++k) {
    for (const std::size_t i : ShardSpec{k, 3}.indices(10)) {
      EXPECT_TRUE(seen.insert(i).second) << "duplicate index " << i;
    }
  }
  EXPECT_EQ(seen.size(), 10u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 9u);
}

// ---- merge -------------------------------------------------------------

std::string tiny_banner() {
  SweepPlan plan;
  plan.axes.push_back(SweepAxis{"k", {"1", "2", "3", "4"}});
  return shard_banner(plan);
}

std::string make_shard(const std::vector<std::pair<int, std::string>>& rows) {
  std::string doc = tiny_banner() + "\nindex,k,metric\n";
  for (const auto& [index, payload] : rows) {
    doc += std::to_string(index) + "," + payload + "\n";
  }
  return doc;
}

TEST(MergeShards, InterleavedShardsMergeToCanonicalOrder) {
  const auto merged = merge_shards({
      make_shard({{0, "1,10"}, {2, "3,30"}}),
      make_shard({{1, "2,20"}, {3, "4,40"}}),
  });
  ASSERT_TRUE(merged.ok) << (merged.errors.empty() ? "" : merged.errors[0]);
  const auto single = merge_shards({
      make_shard({{0, "1,10"}, {1, "2,20"}, {2, "3,30"}, {3, "4,40"}}),
  });
  ASSERT_TRUE(single.ok);
  EXPECT_EQ(merged.merged, single.merged);
}

TEST(MergeShards, ByteIdenticalOverlapIsAllowed) {
  const auto merged = merge_shards({
      make_shard({{0, "1,10"}, {1, "2,20"}}),
      make_shard({{1, "2,20"}, {2, "3,30"}, {3, "4,40"}}),
  });
  EXPECT_TRUE(merged.ok);
}

TEST(MergeShards, DivergentOverlapViolatesContract) {
  const auto merged = merge_shards({
      make_shard({{0, "1,10"}, {1, "2,20"}, {2, "3,30"}, {3, "4,40"}}),
      make_shard({{1, "2,DIFFERENT"}}),
  });
  EXPECT_FALSE(merged.ok);
  ASSERT_FALSE(merged.errors.empty());
  EXPECT_NE(merged.errors[0].find("determinism violation"),
            std::string::npos);
}

TEST(MergeShards, MissingCellsAreReported) {
  const auto merged = merge_shards({make_shard({{0, "1,10"}, {3, "4,40"}})});
  EXPECT_FALSE(merged.ok);
  // Cells 1 and 2, plus the coverage-gap summary naming the searched
  // shard set.
  ASSERT_EQ(merged.errors.size(), 3u);
  EXPECT_NE(merged.errors[0].find("grid cell 1"), std::string::npos);
  EXPECT_NE(merged.errors[1].find("grid cell 2"), std::string::npos);
  EXPECT_NE(merged.errors[2].find("coverage gap: 2 cell(s)"),
            std::string::npos);
}

TEST(MergeShards, AnInflatedGridClaimCostsOnlyTheRowsGiven) {
  // A legacy (trailer-less) shard is outside input: its banner may claim
  // any grid. Merge must stay proportional to the two rows it was given.
  const std::string doc =
      "# railcorr-sweep-v1 fingerprint=0123456789abcdef grid=4000000000\n"
      "index,k,metric\n0,1,10\n1,2,20\n";
  const auto start = std::chrono::steady_clock::now();
  const auto merged = merge_shards({doc});
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_FALSE(merged.ok);
  EXPECT_TRUE(merged.contract_violation);
  // The first 16 gaps, then the summary with the full count.
  ASSERT_LE(merged.errors.size(), 18u);
  EXPECT_NE(merged.errors.front().find("grid cell 2 "), std::string::npos);
  EXPECT_NE(merged.errors.back().find("coverage gap: 3999999998 cell(s)"),
            std::string::npos);
  EXPECT_LT(seconds, 0.25);
}

TEST(MergeShards, DiagnosticsNameBothShardFilesOnDivergence) {
  const auto merged = merge_shards(
      {
          make_shard({{0, "1,10"}, {1, "2,20"}, {2, "3,30"}, {3, "4,40"}}),
          make_shard({{1, "2,DIFFERENT"}}),
      },
      {"runs/shard_a.csv", "runs/shard_b.csv"});
  EXPECT_FALSE(merged.ok);
  EXPECT_TRUE(merged.contract_violation);
  ASSERT_FALSE(merged.errors.empty());
  // The violation must localize the failure: the offending cell index
  // and the paths of BOTH disagreeing shard files.
  EXPECT_NE(merged.errors[0].find("grid cell 1"), std::string::npos);
  EXPECT_NE(merged.errors[0].find("runs/shard_a.csv"), std::string::npos);
  EXPECT_NE(merged.errors[0].find("runs/shard_b.csv"), std::string::npos);
}

TEST(MergeShards, DiagnosticsNameSearchedFilesOnCoverageGap) {
  const auto merged = merge_shards({make_shard({{0, "1,10"}, {3, "4,40"}})},
                                   {"out/shard_0.csv"});
  EXPECT_FALSE(merged.ok);
  ASSERT_EQ(merged.errors.size(), 3u);
  EXPECT_NE(merged.errors[2].find("out/shard_0.csv"), std::string::npos);
}

TEST(BannerHelpers, RoundTripFingerprintAndGrid) {
  const auto plan = SweepPlan::from_spec("axis k = 1, 2, 3\n");
  const std::string banner = shard_banner(plan);
  ASSERT_TRUE(banner_grid(banner).has_value());
  EXPECT_EQ(*banner_grid(banner), 3u);
  EXPECT_EQ(banner, "# railcorr-sweep-v1 fingerprint=" +
                        util::hex16(plan.fingerprint()) + " grid=3");
  EXPECT_FALSE(banner_grid("# no tokens here").has_value());
  // A grid that does not fit is refused, not wrapped.
  EXPECT_FALSE(banner_grid("# x grid=18446744073709551616").has_value());
  EXPECT_FALSE(banner_grid("# x grid=100000000000000000000000").has_value());
}

TEST(MergeShards, FingerprintMismatchIsRejected) {
  SweepPlan other;
  other.axes.push_back(SweepAxis{"k", {"9", "8", "7", "6"}});
  std::string foreign = shard_banner(other) + "\nindex,k,metric\n2,3,30\n";
  const auto merged = merge_shards({
      make_shard({{0, "1,10"}, {1, "2,20"}, {3, "4,40"}}),
      foreign,
  });
  EXPECT_FALSE(merged.ok);
}

TEST(MergeShards, MalformedDocumentsAreRejected) {
  EXPECT_FALSE(merge_shards({}).ok);
  EXPECT_FALSE(merge_shards({"not a shard at all\n"}).ok);
  EXPECT_FALSE(merge_shards({tiny_banner() + "\nheader\nnot-a-row\n"}).ok);
  // A row index that does not fit is malformed input, not cell 1
  // (2^64 + 1 wrapped), and not a contract violation.
  const auto overflow = merge_shards({make_shard({{0, "1,10"}}) +
                                      "18446744073709551617,2,20\n" +
                                      "2,3,30\n3,4,40\n"});
  EXPECT_FALSE(overflow.ok);
  EXPECT_FALSE(overflow.contract_violation);
}

}  // namespace
}  // namespace railcorr::corridor
