/// The remote-transport layer's contract: command templates (launcher
/// and fetch uses) are validated at parse time and substitute
/// placeholders into argv in one pass (never through a shell except the
/// single shell-quoted {cmd} word),
/// and the FleetHealth state machine quarantines, re-probes, recovers,
/// and kills hosts deterministically under injected time.
#include "orch/remote.hpp"

#include <gtest/gtest.h>

#include "util/config.hpp"

namespace railcorr::orch {
namespace {

using util::ConfigError;

// ---------------------------------------------------------------------
// Host lists

TEST(ParseHostList, SplitsTrimsAndPreservesOrder) {
  const auto hosts = parse_host_list("h1, h2 ,\th3,local");
  ASSERT_EQ(hosts.size(), 4u);
  EXPECT_EQ(hosts[0], "h1");
  EXPECT_EQ(hosts[1], "h2");
  EXPECT_EQ(hosts[2], "h3");
  EXPECT_EQ(hosts[3], "local");
}

TEST(ParseHostList, RejectsEmptyNames) {
  EXPECT_THROW(parse_host_list(""), ConfigError);
  EXPECT_THROW(parse_host_list("h1,,h2"), ConfigError);
  EXPECT_THROW(parse_host_list("h1,"), ConfigError);
}

TEST(ParseHostList, RejectsWhitespaceInsideNames) {
  // Host names land in space-delimited manifest audit lines; interior
  // whitespace would corrupt that grammar.
  EXPECT_THROW(parse_host_list("h 1"), ConfigError);
}

TEST(ParseHostList, RejectsDuplicates) {
  EXPECT_THROW(parse_host_list("h1,h2,h1"), ConfigError);
}

// ---------------------------------------------------------------------
// Shell quoting

TEST(ShellQuote, QuotesPlainAndHostileWords) {
  EXPECT_EQ(shell_quote("abc"), "'abc'");
  EXPECT_EQ(shell_quote("a b"), "'a b'");
  // An embedded single quote closes, escapes, reopens.
  EXPECT_EQ(shell_quote("a'b"), "'a'\\''b'");
}

TEST(ShellJoin, JoinsEachElementQuoted) {
  EXPECT_EQ(shell_join({"echo", "two words"}), "'echo' 'two words'");
}

// ---------------------------------------------------------------------
// Command templates: the launcher use

TEST(CommandTemplate, LauncherBuildsSshStyleArgv) {
  const auto tmpl = CommandTemplate::launcher("ssh {host} {cmd}");
  const auto argv =
      tmpl.build({"h1", shell_join({"railcorr", "sweep", "--out", "a b"})});
  ASSERT_EQ(argv.size(), 3u);
  EXPECT_EQ(argv[0], "ssh");
  EXPECT_EQ(argv[1], "h1");
  // {cmd} is ONE argv element holding the shell-quoted worker command —
  // the form `ssh host 'cmd...'` expects.
  EXPECT_EQ(argv[2], "'railcorr' 'sweep' '--out' 'a b'");
}

TEST(CommandTemplate, LauncherSubstitutesHostInsideLargerTokens) {
  const auto tmpl = CommandTemplate::launcher("ssh user@{host} {cmd}");
  const auto argv = tmpl.build({"h2", shell_join({"true"})});
  ASSERT_EQ(argv.size(), 3u);
  EXPECT_EQ(argv[1], "user@h2");
}

TEST(CommandTemplate, LauncherRejectsUnknownPlaceholder) {
  try {
    CommandTemplate::launcher("ssh {hots} {cmd}");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& error) {
    EXPECT_STREQ(error.what(),
                 "--launcher template: unknown placeholder '{hots}' (valid: "
                 "{host}, {cmd})");
  }
}

TEST(CommandTemplate, LauncherRejectsMissingCmdAndUnbalancedBraces) {
  EXPECT_THROW(CommandTemplate::launcher("ssh {host}"), ConfigError);
  EXPECT_THROW(CommandTemplate::launcher("ssh {host {cmd}"), ConfigError);
  EXPECT_THROW(CommandTemplate::launcher("ssh host} {cmd}"), ConfigError);
  EXPECT_THROW(CommandTemplate::launcher(""), ConfigError);
  EXPECT_THROW(CommandTemplate::launcher("   "), ConfigError);
}

// ---------------------------------------------------------------------
// Command templates: the fetch use

TEST(CommandTemplate, FetchBuildsScpStyleArgv) {
  const auto tmpl = CommandTemplate::fetch("scp {host}:{remote} {local}");
  const auto argv = tmpl.build({"h3", "/r/shard.tmp", "/l/shard.tmp"});
  ASSERT_EQ(argv.size(), 3u);
  EXPECT_EQ(argv[0], "scp");
  EXPECT_EQ(argv[1], "h3:/r/shard.tmp");
  EXPECT_EQ(argv[2], "/l/shard.tmp");
}

TEST(CommandTemplate, FetchRequiresRemoteAndLocal) {
  EXPECT_THROW(CommandTemplate::fetch("scp {host}:{remote}"), ConfigError);
  EXPECT_THROW(CommandTemplate::fetch("cp {local}"), ConfigError);
  EXPECT_THROW(CommandTemplate::fetch("scp {cmd} {local}"), ConfigError);
}

TEST(CommandTemplate, ParseErrorsNameTheirFlag) {
  const auto message = [](auto&& parse) {
    try {
      parse();
    } catch (const ConfigError& error) {
      return std::string(error.what());
    }
    return std::string("no error");
  };
  EXPECT_EQ(message([] { CommandTemplate::fetch(" "); }),
            "--fetch template is empty");
  EXPECT_EQ(message([] { CommandTemplate::fetch("cp {remote"); }),
            "--fetch template token '{remote': unbalanced '{'");
  EXPECT_EQ(message([] { CommandTemplate::fetch("cp remote} {local}"); }),
            "--fetch template token 'remote}': unbalanced '}'");
  EXPECT_EQ(message([] { CommandTemplate::fetch("cp {remote} {lcl}"); }),
            "--fetch template: unknown placeholder '{lcl}' (valid: {host}, "
            "{remote}, {local})");
  EXPECT_EQ(message([] { CommandTemplate::fetch("cp {remote} x"); }),
            "--fetch template must contain '{local}'");
  EXPECT_EQ(message([] { CommandTemplate::launcher("ssh {host}"); }),
            "--launcher template must contain '{cmd}'");
}

TEST(CommandTemplate, SubstitutedValuesAreNeverScannedAgain) {
  // One left-to-right pass over the template's own text: a run
  // directory whose path holds `{local}`, or a host named `{remote}` or
  // `{cmd}`, reaches the argv verbatim instead of being substituted a
  // second time.
  const auto fetch = CommandTemplate::fetch("scp {host}:{remote} {local}");
  const auto copy =
      fetch.build({"h{remote}", "runs/x{local}y/s.tmp.remote",
                   "runs/x{local}y/s.tmp"});
  ASSERT_EQ(copy.size(), 3u);
  EXPECT_EQ(copy[1], "h{remote}:runs/x{local}y/s.tmp.remote");
  EXPECT_EQ(copy[2], "runs/x{local}y/s.tmp");

  const auto launcher = CommandTemplate::launcher("ssh {host} {cmd}");
  const auto launch = launcher.build({"{cmd}", shell_join({"true"})});
  ASSERT_EQ(launch.size(), 3u);
  EXPECT_EQ(launch[1], "{cmd}");
  EXPECT_EQ(launch[2], "'true'");
}

// ---------------------------------------------------------------------
// FleetHealth

FleetHealthOptions fast_health() {
  FleetHealthOptions options;
  options.quarantine_after = 2;
  options.probe_base_s = 1.0;
  options.probe_cap_s = 8.0;
  options.dead_after = 3;
  return options;
}

TEST(FleetHealth, PlacesLeastLoadedFirstWithListOrderTies) {
  FleetHealth fleet({"a", "b"}, fast_health());
  // Ties break by list order: a, then b, then a again (both at 1).
  EXPECT_EQ(fleet.acquire(0.0), std::optional<std::size_t>(0));
  EXPECT_EQ(fleet.acquire(0.0), std::optional<std::size_t>(1));
  EXPECT_EQ(fleet.acquire(0.0), std::optional<std::size_t>(0));
  // Releasing b's attempt makes b the least loaded.
  fleet.release(1, /*transport_failure=*/false, 0.0);
  EXPECT_EQ(fleet.acquire(0.0), std::optional<std::size_t>(1));
}

TEST(FleetHealth, QuarantinesAfterConsecutiveTransportFailures) {
  FleetHealth fleet({"a", "b"}, fast_health());
  for (int i = 0; i < 2; ++i) {
    const auto host = fleet.acquire(0.0);
    ASSERT_TRUE(host.has_value());
    fleet.release(*host, /*transport_failure=*/true, 0.0);
  }
  // Both failures landed on "a" (least-loaded ties by order after each
  // release); the second consecutive one quarantines it.
  const auto events = fleet.drain_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].host, "a");
  EXPECT_EQ(events[0].event, "quarantine");
  EXPECT_EQ(fleet.healthy(), 1u);
  // New work goes to the survivor only.
  EXPECT_EQ(fleet.acquire(0.0), std::optional<std::size_t>(1));
}

TEST(FleetHealth, SuccessResetsTheConsecutiveCounter) {
  FleetHealth fleet({"a"}, fast_health());
  fleet.release(*fleet.acquire(0.0), /*transport_failure=*/true, 0.0);
  fleet.release(*fleet.acquire(0.0), /*transport_failure=*/false, 0.0);
  fleet.release(*fleet.acquire(0.0), /*transport_failure=*/true, 0.0);
  // Never two consecutive failures: still healthy, no events.
  EXPECT_TRUE(fleet.drain_events().empty());
  EXPECT_EQ(fleet.healthy(), 1u);
}

TEST(FleetHealth, ProbeBacksOffExponentiallyAndTakesPriority) {
  FleetHealth fleet({"a", "b"}, fast_health());
  // Quarantine "a" at t=0 (two consecutive transport failures).
  fleet.release(*fleet.acquire(0.0), true, 0.0);
  fleet.release(*fleet.acquire(0.0), true, 0.0);
  (void)fleet.drain_events();
  // First probe is due at probe_base_s * 2^0 = 1.0.
  ASSERT_TRUE(fleet.next_probe_s().has_value());
  EXPECT_DOUBLE_EQ(*fleet.next_probe_s(), 1.0);
  // Before it is due, only "b" accepts work.
  EXPECT_EQ(fleet.acquire(0.5), std::optional<std::size_t>(1));
  // At t=1.0 the probe takes priority over the idle healthy host.
  const auto probe = fleet.acquire(1.0);
  ASSERT_EQ(probe, std::optional<std::size_t>(0));
  {
    const auto events = fleet.drain_events();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].event, "probe");
  }
  // The probe fails: immediate re-quarantine with doubled backoff
  // (second quarantine -> base * 2^1 = 2.0 from now).
  fleet.release(*probe, /*transport_failure=*/true, 1.0);
  {
    const auto events = fleet.drain_events();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].event, "quarantine");
  }
  EXPECT_DOUBLE_EQ(*fleet.next_probe_s(), 3.0);
}

TEST(FleetHealth, SuccessfulProbeRecoversTheHost) {
  FleetHealth fleet({"a", "b"}, fast_health());
  fleet.release(*fleet.acquire(0.0), true, 0.0);
  fleet.release(*fleet.acquire(0.0), true, 0.0);
  (void)fleet.drain_events();
  const auto probe = fleet.acquire(1.0);
  ASSERT_EQ(probe, std::optional<std::size_t>(0));
  fleet.release(*probe, /*transport_failure=*/false, 1.0);
  const auto events = fleet.drain_events();
  ASSERT_EQ(events.size(), 2u);  // probe + recover
  EXPECT_EQ(events[1].host, "a");
  EXPECT_EQ(events[1].event, "recover");
  EXPECT_EQ(fleet.healthy(), 2u);
  EXPECT_FALSE(fleet.next_probe_s().has_value());
}

TEST(FleetHealth, PersistentFlapperDiesAfterDeadAfterQuarantines) {
  FleetHealth fleet({"a"}, fast_health());
  double now = 0.0;
  // Quarantine 1: two consecutive transport failures.
  fleet.release(*fleet.acquire(now), true, now);
  fleet.release(*fleet.acquire(now), true, now);
  // Quarantines 2 and 3: failed probes (each one re-quarantines).
  for (int k = 0; k < 2; ++k) {
    ASSERT_TRUE(fleet.next_probe_s().has_value());
    now = *fleet.next_probe_s();
    const auto probe = fleet.acquire(now);
    ASSERT_TRUE(probe.has_value());
    fleet.release(*probe, true, now);
  }
  EXPECT_TRUE(fleet.all_dead());
  EXPECT_FALSE(fleet.acquire(now + 1000.0).has_value());
  EXPECT_FALSE(fleet.next_probe_s().has_value());
  const auto events = fleet.drain_events();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().event, "dead");
}

TEST(FleetHealth, ProbeBackoffIsCappedAtProbeCap) {
  auto options = fast_health();
  options.dead_after = 100;  // keep quarantining, never die
  FleetHealth fleet({"a"}, options);
  double now = 0.0;
  fleet.release(*fleet.acquire(now), true, now);
  fleet.release(*fleet.acquire(now), true, now);
  // Fail probes until the backoff saturates at probe_cap_s = 8.
  for (int k = 0; k < 6; ++k) {
    now = *fleet.next_probe_s();
    fleet.release(*fleet.acquire(now), true, now);
  }
  EXPECT_DOUBLE_EQ(*fleet.next_probe_s() - now, 8.0);
}

TEST(FleetHealth, AllDeadIsFalseWhileAnyHostSurvives) {
  FleetHealth fleet({"a", "b"}, fast_health());
  EXPECT_FALSE(fleet.all_dead());
  EXPECT_EQ(fleet.size(), 2u);
  EXPECT_EQ(fleet.name(0), "a");
  EXPECT_EQ(fleet.name(1), "b");
}

}  // namespace
}  // namespace railcorr::orch
