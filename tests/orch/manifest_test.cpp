/// The resumable-run manifest: header round trips, done-line append
/// semantics, and the resume-safety checks (fingerprint, banner, shard
/// count, sizing flag).
#include "orch/manifest.hpp"

#include <gtest/gtest.h>

#include "util/config.hpp"

namespace railcorr::orch {
namespace {

corridor::SweepPlan tiny_plan() {
  return corridor::SweepPlan::from_spec("axis k = 1, 2, 3, 4\n");
}

TEST(RunManifest, PlanRunCapturesPlanAndBanner) {
  const auto plan = tiny_plan();
  const auto manifest = RunManifest::plan_run(plan, 2, false);
  EXPECT_EQ(manifest.fingerprint, plan.fingerprint());
  EXPECT_EQ(manifest.grid, 4u);
  EXPECT_EQ(manifest.shards, 2u);
  EXPECT_EQ(manifest.banner, corridor::shard_banner(plan));
  EXPECT_FALSE(manifest.include_sizing);
}

TEST(RunManifest, HeaderAndDoneLinesRoundTrip) {
  const auto manifest = RunManifest::plan_run(tiny_plan(), 3, true);
  std::string text = manifest.header_text();
  text += RunManifest::done_line(1, "shard_1.csv") + "\n";
  text += RunManifest::done_line(0, "shard_0.csv") + "\n";

  const auto parsed = RunManifest::parse(text);
  EXPECT_EQ(parsed.fingerprint, manifest.fingerprint);
  EXPECT_EQ(parsed.grid, manifest.grid);
  EXPECT_EQ(parsed.shards, manifest.shards);
  EXPECT_EQ(parsed.include_sizing, manifest.include_sizing);
  EXPECT_EQ(parsed.banner, manifest.banner);
  ASSERT_EQ(parsed.done.size(), 2u);
  EXPECT_TRUE(parsed.is_done(0));
  EXPECT_TRUE(parsed.is_done(1));
  EXPECT_FALSE(parsed.is_done(2));
}

TEST(RunManifest, ParseRejectsMalformedDocuments) {
  EXPECT_THROW(RunManifest::parse(""), util::ConfigError);
  EXPECT_THROW(RunManifest::parse("not a manifest\n"), util::ConfigError);
  // Incomplete header.
  EXPECT_THROW(
      RunManifest::parse("# railcorr-orchestrate-v1\nfingerprint = "
                         "0123456789abcdef\n"),
      util::ConfigError);
  // Done entry outside the shard count.
  const auto manifest = RunManifest::plan_run(tiny_plan(), 2, false);
  EXPECT_THROW(RunManifest::parse(manifest.header_text() +
                                  RunManifest::done_line(7, "x.csv") + "\n"),
               util::ConfigError);
  // Malformed fingerprint.
  EXPECT_THROW(
      RunManifest::parse("# railcorr-orchestrate-v1\nfingerprint = zzz\n"),
      util::ConfigError);
  // 2^64 + 1 does not fit: refused, not wrapped to 1. The done line is
  // followed by another, so it is not the torn final line.
  const std::string header = manifest.header_text();
  const auto with_line = [&](const std::string& key, const std::string& to) {
    const std::size_t at = header.find(key + " = ");
    const std::size_t eol = header.find('\n', at);
    return header.substr(0, at) + key + " = " + to + header.substr(eol);
  };
  const std::string huge = "18446744073709551617";
  EXPECT_THROW(RunManifest::parse(with_line("grid", huge)), util::ConfigError);
  EXPECT_THROW(RunManifest::parse(with_line("shards", huge)),
               util::ConfigError);
  EXPECT_THROW(RunManifest::parse(header + "done " + huge + " shard_1.csv\n" +
                                  RunManifest::done_line(0, "shard_0.csv") +
                                  "\n"),
               util::ConfigError);
}

TEST(RunManifest, FailLinesRoundTripWithClassifiedCauses) {
  const auto manifest = RunManifest::plan_run(tiny_plan(), 3, false);
  std::string text = manifest.header_text();
  text += RunManifest::fail_line(2, 0, "signal-9") + "\n";
  text += RunManifest::fail_line(2, 1, "timeout") + "\n";
  text += RunManifest::done_line(2, "shard_2.csv") + "\n";
  text += RunManifest::fail_line(0, 0, "corrupt-output") + "\n";

  const auto parsed = RunManifest::parse(text);
  ASSERT_EQ(parsed.failures.size(), 3u);
  EXPECT_EQ(parsed.failures[0].shard, 2u);
  EXPECT_EQ(parsed.failures[0].attempt, 0u);
  EXPECT_EQ(parsed.failures[0].cause, "signal-9");
  EXPECT_EQ(parsed.failures[1].cause, "timeout");
  EXPECT_EQ(parsed.failures[2].shard, 0u);
  EXPECT_EQ(parsed.failures[2].cause, "corrupt-output");
  // Fail lines carry no resume semantics.
  EXPECT_TRUE(parsed.is_done(2));
  EXPECT_FALSE(parsed.is_done(0));
}

TEST(RunManifest, ParseRejectsMalformedFailLines) {
  const auto manifest = RunManifest::plan_run(tiny_plan(), 2, false);
  EXPECT_THROW(RunManifest::parse(manifest.header_text() + "fail 1\n"),
               util::ConfigError);
  EXPECT_THROW(RunManifest::parse(manifest.header_text() + "fail 1 0\n"),
               util::ConfigError);
  EXPECT_THROW(RunManifest::parse(manifest.header_text() + "fail x 0 tmo\n"),
               util::ConfigError);
  // Fail entry outside the shard count.
  EXPECT_THROW(RunManifest::parse(manifest.header_text() +
                                  RunManifest::fail_line(7, 0, "timeout") +
                                  "\n"),
               util::ConfigError);
}

TEST(RunManifest, HostLinesRoundTripAsAuditHistory) {
  const auto manifest = RunManifest::plan_run(tiny_plan(), 2, false);
  std::string text = manifest.header_text();
  text += RunManifest::fail_line(0, 0, "launch-refused") + "\n";
  text += RunManifest::host_line("h1", "quarantine") + "\n";
  text += RunManifest::host_line("h1", "probe") + "\n";
  text += RunManifest::host_line("h1", "recover") + "\n";
  text += RunManifest::host_line("h2", "dead") + "\n";
  text += RunManifest::done_line(0, "shard_0.csv") + "\n";

  const auto parsed = RunManifest::parse(text);
  ASSERT_EQ(parsed.host_events.size(), 4u);
  EXPECT_EQ(parsed.host_events[0].host, "h1");
  EXPECT_EQ(parsed.host_events[0].event, "quarantine");
  EXPECT_EQ(parsed.host_events[1].event, "probe");
  EXPECT_EQ(parsed.host_events[2].event, "recover");
  EXPECT_EQ(parsed.host_events[3].host, "h2");
  EXPECT_EQ(parsed.host_events[3].event, "dead");
  // Host lines are history, not resume state: done/fail unaffected.
  EXPECT_TRUE(parsed.is_done(0));
  ASSERT_EQ(parsed.failures.size(), 1u);
  EXPECT_EQ(parsed.failures[0].cause, "launch-refused");
}

TEST(RunManifest, ParseRejectsMalformedHostLines) {
  const auto manifest = RunManifest::plan_run(tiny_plan(), 2, false);
  EXPECT_THROW(RunManifest::parse(manifest.header_text() + "host h1\n"),
               util::ConfigError);
  EXPECT_THROW(RunManifest::parse(manifest.header_text() + "host  x\n"),
               util::ConfigError);
  EXPECT_THROW(RunManifest::parse(manifest.header_text() + "host h1 \n"),
               util::ConfigError);
}

TEST(RunManifest, TornFinalLineIsDroppedNotFatal) {
  const auto manifest = RunManifest::plan_run(tiny_plan(), 2, false);
  std::string text = manifest.header_text();
  text += RunManifest::done_line(0, "shard_0.csv") + "\n";

  // A crash mid-append leaves a prefix of the next line with no
  // trailing newline; resume must keep everything durable before it.
  const auto torn = RunManifest::parse(text + "don");
  EXPECT_TRUE(torn.is_done(0));
  EXPECT_FALSE(torn.is_done(1));

  const auto torn_fail = RunManifest::parse(text + "fail 1");
  EXPECT_TRUE(torn_fail.is_done(0));
  EXPECT_TRUE(torn_fail.failures.empty());

  // A final line that is complete except for its newline is kept.
  const auto kept =
      RunManifest::parse(text + RunManifest::done_line(1, "shard_1.csv"));
  EXPECT_TRUE(kept.is_done(1));

  // Mid-document damage is still fatal.
  EXPECT_THROW(RunManifest::parse(manifest.header_text() + "don\n" +
                                  RunManifest::done_line(0, "x.csv") + "\n"),
               util::ConfigError);
}

TEST(RunManifest, InfoLinesRoundTripAsFreeTextHistory) {
  const auto manifest = RunManifest::plan_run(tiny_plan(), 2, false);
  EXPECT_EQ(RunManifest::info_line("run summary: wall=1.00s attempts=2"),
            "info run summary: wall=1.00s attempts=2");

  std::string text = manifest.header_text();
  text += RunManifest::info_line("run summary: wall=0.50s attempts=2 "
                                 "retried=0 speculative=0 resumed=0") +
          "\n";
  text += RunManifest::done_line(0, "shard_0.csv") + "\n";
  text += RunManifest::info_line("second note") + "\n";

  const auto parsed = RunManifest::parse(text);
  ASSERT_EQ(parsed.infos.size(), 2u);
  EXPECT_EQ(parsed.infos[0],
            "run summary: wall=0.50s attempts=2 retried=0 speculative=0 "
            "resumed=0");
  EXPECT_EQ(parsed.infos[1], "second note");
  // Info lines are history, not resume state.
  EXPECT_TRUE(parsed.is_done(0));
  EXPECT_FALSE(parsed.is_done(1));

  // A crash mid-append tears the final info line: dropped, not fatal,
  // like every other trailing torn line.
  const auto torn = RunManifest::parse(text + "inf");
  ASSERT_EQ(torn.infos.size(), 2u);
  EXPECT_TRUE(torn.is_done(0));
  // Complete-but-for-the-newline is kept.
  const auto kept = RunManifest::parse(text + RunManifest::info_line("tail"));
  ASSERT_EQ(kept.infos.size(), 3u);
  EXPECT_EQ(kept.infos[2], "tail");
}

TEST(RunManifest, MismatchChecksCoverFingerprintShardsAndSizing) {
  const auto plan = tiny_plan();
  const auto recorded = RunManifest::plan_run(plan, 2, false);

  EXPECT_TRUE(
      recorded.mismatches_against(RunManifest::plan_run(plan, 2, false))
          .empty());

  const auto other_plan =
      corridor::SweepPlan::from_spec("axis k = 9, 8, 7, 6\n");
  const auto fingerprint_diff =
      recorded.mismatches_against(RunManifest::plan_run(other_plan, 2, false));
  ASSERT_FALSE(fingerprint_diff.empty());
  EXPECT_NE(fingerprint_diff[0].find("fingerprint mismatch"),
            std::string::npos);

  EXPECT_FALSE(
      recorded.mismatches_against(RunManifest::plan_run(plan, 4, false))
          .empty());
  EXPECT_FALSE(
      recorded.mismatches_against(RunManifest::plan_run(plan, 2, true))
          .empty());
}

TEST(RunManifest, AnEditedBannerIsRefused) {
  // A run directory whose recorded banner differs from the one this
  // build writes (for instance one tagged ` accuracy=fast-ulp` by an
  // older build) must not be resumed, although the plan is the same.
  const auto wanted = RunManifest::plan_run(tiny_plan(), 2, false);
  std::string text = wanted.header_text();
  ASSERT_TRUE(text.ends_with("\nbanner = " + wanted.banner + "\n"));
  text.insert(text.size() - 1, " accuracy=fast-ulp");
  const auto recorded = RunManifest::parse(text);
  EXPECT_EQ(recorded.banner, wanted.banner + " accuracy=fast-ulp");

  const auto mismatches = recorded.mismatches_against(wanted);
  ASSERT_EQ(mismatches.size(), 1u);
  EXPECT_NE(mismatches[0].find("banner mismatch"), std::string::npos);
  EXPECT_NE(mismatches[0].find(recorded.banner), std::string::npos);
  EXPECT_EQ(recorded.fingerprint, wanted.fingerprint);
}

}  // namespace
}  // namespace railcorr::orch
