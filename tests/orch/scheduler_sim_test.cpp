/// Deterministic simulation of the orchestrator's scheduling decisions.
///
/// The Scheduler (orch/scheduler.hpp) reads no clock and makes no
/// syscalls, so this test drives the very class orchestrate() uses
/// through thousands of seeded failure schedules in-process, after
/// FoundationDB's deterministic simulation testing
/// (https://apple.github.io/foundationdb/testing.html). A simulated
/// fleet stands in for the POSIX driver: every launched attempt gets a
/// scripted process — its exit code and time, its heartbeats, a hang,
/// output that does or does not verify — and a fake clock advances by
/// the driver's own wake rule. After every scheduler call the test
/// checks the scheduling invariants against an independent model of
/// each shard.
///
/// Two kinds of script run here: random schedules (local and remote
/// hosts, with and without a fetch step, every failure class, pre-merge
/// rot), and the `--chaos-seed` schedule mapped onto the failures real
/// workers show, which must reproduce the tallies the chaos and
/// distributed smokes pin.
#include "orch/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "orch/faultpoint.hpp"
#include "util/rng.hpp"

namespace railcorr::orch {
namespace {

using Kind = Scheduler::Verdict::Kind;

constexpr double kNever = std::numeric_limits<double>::infinity();
constexpr std::size_t kStepBound = 10000;

/// One simulated process: a worker, or the fetch that follows it.
struct Proc {
  std::size_t shard = 0;
  /// Natural exit time, status, and whether its output verifies: a
  /// worker's is read after exit 0, a fetch's copy after any exit.
  double exit_s = kNever;
  int code = 0;
  bool signaled = false;
  bool verified = true;
  /// Next protocol event, the event period, and the time events stop
  /// (a hang goes silent). A fetch prints no events.
  double next_event_s = kNever;
  double period_s = kNever;
  double silent_s = kNever;
};

/// A worker that prints events from its launch until `silent_s`.
Proc worker(const Scheduler::Attempt& attempt, double now, double period) {
  Proc proc;
  proc.shard = attempt.shard;
  proc.next_event_s = now;
  proc.period_s = period;
  return proc;
}

Proc exits(Proc proc, double at, int code, bool signaled = false) {
  proc.exit_s = at;
  proc.code = code;
  proc.signaled = signaled;
  proc.silent_s = std::min(proc.silent_s, at);
  return proc;
}

Proc hangs(Proc proc, double at) {
  proc.silent_s = at;
  return proc;
}

/// The process leaves no output that verifies: a torn copy, or none.
Proc unverified(Proc proc) {
  proc.verified = false;
  return proc;
}

/// How each launched process behaves.
struct Script {
  std::function<Proc(const Scheduler::Attempt&, double now)> worker;
  std::function<Proc(const Scheduler::Attempt&, double now)> fetch;
};

struct Setup {
  OrchestrateOptions options;
  std::size_t shards = 1;
  /// Completion rounds at which one random finished shard rots.
  std::size_t rot_rounds = 0;
  std::uint64_t rot_seed = 0;
};

enum class End { kMerged, kAborted, kFleetDead, kStepBound };

struct Outcome {
  End end = End::kStepBound;
  std::string trace;
  std::string tally;
  OrchestrateStats stats;
  std::set<std::string> causes;
  std::size_t rots = 0;
  /// Fetches that exited nonzero or were killed, yet published.
  std::size_t failed_fetch_publishes = 0;
};

bool transport_cause(const std::string& cause) {
  return cause == "launch-refused" || cause == "connection-lost" ||
         cause == "corrupt-transfer" || cause == "transfer-stalled";
}

/// Drive one schedule to its end, asserting the invariants throughout.
Outcome simulate(const Setup& setup, const Script& script) {
  const OrchestrateOptions& options = setup.options;
  const std::size_t shards = setup.shards;
  Scheduler scheduler(options, std::vector<bool>(shards, false));

  // The independent model the scheduler's verdicts are checked against.
  enum class State { kPending, kLive, kDone, kAborted };
  std::vector<State> state(shards, State::kPending);
  std::vector<std::size_t> failures(shards, 0);
  std::vector<std::size_t> next_attempt(shards, 0);
  std::vector<double> ready(shards, 0.0);
  std::size_t launches = 0;
  std::size_t retries = 0;

  Outcome run;
  std::vector<Proc> procs;  // live processes, in launch order
  double now = 0.0;
  SplitMix64 rot(setup.rot_seed);
  std::size_t rot_rounds = setup.rot_rounds;

  const auto check = [&] {
    const auto& live = scheduler.live();
    ASSERT_LE(live.size(), options.workers);
    ASSERT_EQ(live.size(), procs.size());
    std::set<std::size_t> shards_live;
    std::set<std::size_t> slots;
    for (const auto& attempt : live) {
      ASSERT_TRUE(shards_live.insert(attempt.shard).second)
          << "two live attempts of shard " << attempt.shard;
      ASSERT_TRUE(slots.insert(attempt.slot).second)
          << "slot " << attempt.slot << " double-booked";
      ASSERT_LT(attempt.slot, options.workers);
      ASSERT_EQ(state[attempt.shard], State::kLive);
    }
    ASSERT_EQ(static_cast<std::size_t>(
                  std::count(state.begin(), state.end(), State::kLive)),
              live.size());
    ASSERT_EQ(scheduler.incomplete(),
              shards - static_cast<std::size_t>(std::count(
                           state.begin(), state.end(), State::kDone)));
  };

  // Check one verdict against the model and fold it in; false once the
  // run aborted.
  const auto settle = [&](const Scheduler::Verdict& verdict) {
    const std::size_t shard = verdict.shard;
    run.trace += " v" + std::to_string(static_cast<int>(verdict.kind)) +
                 "." + std::to_string(shard) + verdict.cause;
    if (verdict.kind == Kind::kDone) {
      EXPECT_EQ(state[shard], State::kLive);
      state[shard] = State::kDone;
      return true;
    }
    EXPECT_TRUE(verdict.kind == Kind::kRetry || verdict.kind == Kind::kAbort);
    run.causes.insert(verdict.cause);
    // Transport classes never change a shard's budget.
    EXPECT_EQ(verdict.transport, transport_cause(verdict.cause))
        << verdict.cause;
    if (!verdict.transport) ++failures[shard];
    EXPECT_EQ(verdict.failures, failures[shard]);
    // The run aborts exactly when compute failures exceed the budget.
    if (failures[shard] > options.retries) {
      EXPECT_EQ(verdict.kind, Kind::kAbort);
      state[shard] = State::kAborted;
      return false;
    }
    EXPECT_EQ(verdict.kind, Kind::kRetry);
    // The k-th compute failure backs off base * 2^(k-1), capped; a
    // transport failure re-queues at once.
    double backoff = 0.0;
    if (!verdict.transport && options.backoff_base_s > 0.0) {
      backoff = std::min(options.backoff_cap_s,
                         options.backoff_base_s *
                             static_cast<double>(1ULL << (failures[shard] - 1)));
    }
    EXPECT_EQ(verdict.backoff_s, backoff) << verdict.cause;
    ready[shard] = now + backoff;
    state[shard] = State::kPending;
    ++retries;
    return true;
  };

  const auto finish = [&](End end) {
    run.end = end;
    run.stats = scheduler.stats();
    run.tally = scheduler.tally();
    EXPECT_EQ(run.stats.attempts, launches);
    EXPECT_EQ(run.stats.retried, retries);
    return run;
  };

  for (std::size_t step = 0; step < kStepBound; ++step) {
    // The first violation ends the schedule; it would only cascade.
    if (::testing::Test::HasFailure()) break;
    while (const auto placed = scheduler.launch(now)) {
      const std::size_t shard = placed->shard;
      EXPECT_EQ(state[shard], State::kPending) << "shard " << shard;
      EXPECT_GE(now, ready[shard]) << "shard " << shard << " launched early";
      EXPECT_EQ(placed->attempt, next_attempt[shard]++);
      state[shard] = State::kLive;
      ++launches;
      procs.push_back(script.worker(*placed, now));
      run.trace += " L" + std::to_string(shard) + "." +
                   std::to_string(placed->slot) + "h" +
                   std::to_string(placed->host);
      check();
    }
    for (const auto& event : scheduler.drain_host_events()) {
      run.trace += " H" + event.host + event.event;
    }
    // A free slot and a ready shard mean no host can take work now.
    if (scheduler.live().size() < options.workers) {
      for (std::size_t shard = 0; shard < shards; ++shard) {
        if (state[shard] != State::kPending || ready[shard] > now) continue;
        const auto probe = scheduler.fleet().next_probe_s();
        EXPECT_EQ(scheduler.fleet().healthy(), 0u) << "shard " << shard;
        EXPECT_FALSE(probe.has_value() && *probe <= now) << "shard " << shard;
      }
    }

    if (scheduler.incomplete() == 0) {
      // Every shard landed; the pre-merge check may find one rotted.
      if (rot_rounds == 0 || rot.next() % 2 == 0) return finish(End::kMerged);
      --rot_rounds;
      ++run.rots;
      const std::size_t shard = rot.next() % shards;
      const auto verdict = scheduler.on_rot(shard, now);
      EXPECT_EQ(verdict.cause, "corrupt-output");
      if (!settle(verdict)) return finish(End::kAborted);
      check();
      continue;
    }
    if (procs.empty()) {
      if (scheduler.fleet_dead()) return finish(End::kFleetDead);
      now += scheduler.next_wake_ms(now) / 1000.0;
      continue;
    }

    // Sleep until the driver's next wake or the next process event.
    double next = now + scheduler.next_wake_ms(now) / 1000.0;
    for (const Proc& proc : procs) {
      next = std::min({next, proc.exit_s, proc.next_event_s});
    }
    now = std::max(now, next);

    for (Proc& proc : procs) {
      if (proc.next_event_s > now) continue;
      scheduler.on_event(proc.shard, now);
      while (proc.next_event_s <= now) proc.next_event_s += proc.period_s;
      if (proc.next_event_s >= proc.silent_s) proc.next_event_s = kNever;
    }
    check();

    for (const auto& expired : scheduler.expire(now)) {
      const auto proc = std::find_if(
          procs.begin(), procs.end(),
          [&](const Proc& p) { return p.shard == expired.shard; });
      EXPECT_NE(proc, procs.end());
      if (proc == procs.end()) return finish(End::kStepBound);
      run.trace += " K" + std::to_string(expired.shard);
      // A process that already exited keeps its own status.
      if (proc->exit_s > now) *proc = exits(*proc, now, 137, true);
    }
    check();

    // Reap in reverse launch order, as the driver does.
    for (std::size_t i = procs.size(); i-- > 0;) {
      if (procs[i].exit_s > now) continue;
      const Proc proc = procs[i];
      const auto attempt = std::find_if(
          scheduler.live().begin(), scheduler.live().end(),
          [&](const auto& a) { return a.shard == proc.shard; });
      const bool fetch = attempt->fetching;
      auto verdict =
          scheduler.on_exit(proc.shard, proc.code, proc.signaled, now);
      if (verdict.kind == Kind::kFetch) {
        EXPECT_EQ(proc.code, 0);
        procs[i] = script.fetch(*attempt, now);
        run.trace += " F" + std::to_string(proc.shard);
        check();
        continue;
      }
      // A fetch's status is no verdict: its copy is judged by its bytes.
      if (fetch) {
        EXPECT_EQ(verdict.kind, Kind::kPublish);
      }
      if (verdict.kind == Kind::kPublish) {
        verdict = scheduler.on_output(proc.shard, proc.verified, now);
        // Output becomes the shard file exactly when it verifies.
        EXPECT_EQ(verdict.kind == Kind::kDone, proc.verified);
        if (fetch && proc.verified && proc.code != 0) {
          ++run.failed_fetch_publishes;
        }
      }
      procs.erase(procs.begin() + static_cast<std::ptrdiff_t>(i));
      if (!settle(verdict)) return finish(End::kAborted);
      check();
    }
  }
  return finish(End::kStepBound);
}

// ---------------------------------------------------------------------
// Random schedules.

/// A seeded fleet configuration and failure mix.
struct RandomWorld {
  explicit RandomWorld(std::uint64_t seed) : rng(seed) {
    OrchestrateOptions& o = setup.options;
    setup.shards = 1 + draw(8);
    o.workers = 1 + draw(4);
    o.retries = draw(4);
    switch (draw(4)) {
      case 0: break;  // no host list: one `local` host
      case 1: o.hosts = {"local"}; break;
      case 2: o.hosts = {"h0", "h1", "h2"}; o.hosts.resize(1 + draw(3)); break;
      default: o.hosts = {"local", "h0"}; break;
    }
    const bool remote = !o.hosts.empty() && o.hosts.back() != "local";
    if (remote && draw(2) == 0) {
      o.fetch = [](const WorkerAttempt&) { return std::vector<std::string>{}; };
    }
    o.timeout_s = draw(3) == 0 ? 0.0 : 0.3 + 0.1 * draw(8);
    o.stall_timeout_s = draw(3) == 0 ? 0.0 : 0.1 + 0.1 * draw(4);
    o.fetch_timeout_s = draw(2) == 0 ? 0.0 : 0.1 + 0.1 * draw(3);
    o.backoff_base_s = draw(4) == 0 ? 0.0 : 0.01 * (1 + draw(10));
    o.backoff_cap_s = 0.05 + 0.1 * draw(5);
    o.health.quarantine_after = 1 + draw(3);
    o.health.dead_after = 1 + draw(3);
    o.health.probe_base_s = 0.05 * (1 + draw(4));
    o.health.probe_cap_s = 0.5;
    setup.rot_rounds = draw(3);
    setup.rot_seed = rng.next();
    fail_per_8 = draw(7);
    fetch_fail_per_8 = draw(5);
  }

  std::size_t draw(std::size_t n) {
    return static_cast<std::size_t>(rng.next() % n);
  }
  double duration() { return 0.005 + 0.001 * static_cast<double>(draw(200)); }

  Proc next_worker(const Scheduler::Attempt& attempt, double now) {
    const OrchestrateOptions& o = setup.options;
    const double period =
        o.stall_timeout_s > 0.0 ? o.stall_timeout_s / 4.0 : 0.1;
    const Proc proc = worker(attempt, now, period);
    const double end = now + duration();
    if (draw(8) >= fail_per_8) return exits(proc, end, 0);
    const bool deadline = o.timeout_s > 0.0 || o.stall_timeout_s > 0.0;
    switch (draw(7)) {
      case 0: return exits(proc, end, 1 + static_cast<int>(draw(3)));
      case 1: return exits(proc, end, 137, /*signaled=*/true);
      case 2: return deadline ? hangs(proc, end) : exits(proc, end, 4);
      case 3: return unverified(exits(proc, end, 0));
      case 4: {  // refused launch: exit 255 before any event
        Proc refused = exits(proc, now, 255);
        refused.next_event_s = kNever;
        return refused;
      }
      case 5: return exits(proc, end, 255);  // connection lost mid-shard
      default:  // a healthy straggler past the wall-clock timeout
        return o.timeout_s > 0.0 ? exits(proc, now + 1.5 * o.timeout_s, 0)
                                 : exits(proc, end, 2);
    }
  }

  Proc next_fetch(const Scheduler::Attempt& attempt, double now) {
    const OrchestrateOptions& o = setup.options;
    Proc proc;
    proc.shard = attempt.shard;
    const double end = now + duration();
    if (draw(8) >= fetch_fail_per_8) return exits(proc, end, 0);
    const bool budget = o.fetch_timeout_s > 0.0 || o.timeout_s > 0.0;
    switch (draw(5)) {
      case 0: return unverified(exits(proc, end, 0));  // a torn transfer
      case 1: return unverified(exits(proc, end, 1));
      case 2:
        return unverified(budget ? hangs(proc, end) : exits(proc, end, 1));
      case 3:  // the copy landed whole, then the tool hung or failed
        return budget && draw(2) == 0 ? hangs(proc, end) : exits(proc, end, 3);
      default:  // the fetch did not spawn
        return unverified(exits(proc, now, 127));
    }
  }

  Script script() {
    return {[this](const auto& a, double now) { return next_worker(a, now); },
            [this](const auto& a, double now) { return next_fetch(a, now); }};
  }

  SplitMix64 rng;
  Setup setup;
  std::size_t fail_per_8 = 0;
  std::size_t fetch_fail_per_8 = 0;
};

TEST(SchedulerSim, ThousandSeededSchedulesHoldEveryInvariant) {
  std::map<End, std::size_t> ends;
  std::set<std::string> causes;
  std::size_t rots = 0;
  std::size_t remote = 0;
  std::size_t fetched = 0;
  std::size_t failed_fetch_publishes = 0;
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RandomWorld world(seed);
    const Outcome run = simulate(world.setup, world.script());
    ASSERT_NE(run.end, End::kStepBound) << "no end within the step bound";
    // The same seed gives the same decision trace.
    RandomWorld again(seed);
    EXPECT_EQ(simulate(again.setup, again.script()).trace, run.trace);
    if (::testing::Test::HasFailure()) break;
    ++ends[run.end];
    causes.insert(run.causes.begin(), run.causes.end());
    rots += run.rots;
    failed_fetch_publishes += run.failed_fetch_publishes;
    const auto& hosts = world.setup.options.hosts;
    if (!hosts.empty() && hosts.back() != "local") ++remote;
    if (world.setup.options.fetch) ++fetched;
  }
  // The schedules cover every ending and every failure class.
  EXPECT_GT(ends[End::kMerged], 0u);
  EXPECT_GT(ends[End::kAborted], 0u);
  EXPECT_GT(ends[End::kFleetDead], 0u);
  for (const char* cause :
       {"exit-1", "exit-255", "signal-9", "timeout", "stalled",
        "corrupt-output", "launch-refused", "connection-lost",
        "corrupt-transfer", "transfer-stalled"}) {
    EXPECT_TRUE(causes.count(cause)) << cause;
  }
  EXPECT_GT(rots, 0u);
  EXPECT_GT(remote, 0u);
  EXPECT_GT(fetched, 0u);
  EXPECT_GT(failed_fetch_publishes, 0u);
}

// ---------------------------------------------------------------------
// The `--chaos-seed` schedule, mapped onto how real workers fail.

/// The CLI's chaos fleet: faults from chaos_fault_for under the budget
/// rule, each turned into the process behaviour the real fault point
/// produces. With a fetch step the worker builder drops transfer
/// faults and the fetch builder applies only those; a worker whose
/// output is damaged still exits 0, and its fetched copy fails to
/// verify. Behind a launcher, a killed worker's shell exits 137.
Script chaos_script(std::uint64_t seed, std::size_t retries, bool hosts) {
  const auto fault_of = [=](const Scheduler::Attempt& attempt) {
    const auto fault = chaos_fault_for(seed, attempt.shard, attempt.attempt,
                                       retries, hosts, /*with_cache=*/false);
    return fault.has_value() ? std::optional<FaultKind>(fault->kind)
                             : std::nullopt;
  };
  Script script;
  script.worker = [=](const Scheduler::Attempt& attempt, double now) {
    // Heartbeats at a quarter of the 2 s stall budget; a 50 ms shard.
    const Proc proc = worker(attempt, now, 0.5);
    const double end = now + 0.05;
    const auto fault = fault_of(attempt);
    if (!fault.has_value()) return exits(proc, end, 0);
    switch (*fault) {
      case FaultKind::kTornWrite:
      case FaultKind::kCorruptTrailer: return unverified(exits(proc, end, 0));
      case FaultKind::kStall: return hangs(proc, end);
      case FaultKind::kKillAfterCells:
        return exits(proc, end, 137, /*signaled=*/!hosts);
      case FaultKind::kLaunchRefused: {
        Proc refused = exits(proc, now, 255);
        refused.next_event_s = kNever;
        return refused;
      }
      case FaultKind::kHostFlap: return exits(proc, end, 255);
      default: return exits(proc, end, 0);
    }
  };
  script.fetch = [=](const Scheduler::Attempt& attempt, double now) {
    Proc proc;
    proc.shard = attempt.shard;
    const auto fault = fault_of(attempt);
    // A stalled transfer copies nothing before the deadline kills it.
    proc = fault == FaultKind::kTransferStalled ? hangs(proc, now)
                                                : exits(proc, now + 0.01, 0);
    proc.verified = fault != FaultKind::kTornWrite &&
                    fault != FaultKind::kCorruptTrailer &&
                    fault != FaultKind::kTransferTorn &&
                    fault != FaultKind::kTransferStalled;
    return proc;
  };
  return script;
}

/// `orchestrate --workers 4 --retries 3 --timeout 120 --stall-timeout 2`
/// over chaos_smoke.sh's 8 shards.
Setup chaos_local(std::size_t retries) {
  Setup setup;
  setup.shards = 8;
  setup.options.workers = 4;
  setup.options.retries = retries;
  setup.options.timeout_s = 120.0;
  setup.options.stall_timeout_s = 2.0;
  return setup;
}

/// distributed_smoke.sh's chaos fleet: 6 shards on 3 remote hosts with
/// a fetch step, `--fetch-timeout 2 --workers 3`.
Setup chaos_fleet(std::size_t retries) {
  Setup setup = chaos_local(retries);
  setup.shards = 6;
  setup.options.workers = 3;
  setup.options.hosts = {"h1", "h2", "h3"};
  setup.options.fetch = [](const WorkerAttempt&) {
    return std::vector<std::string>{};
  };
  setup.options.fetch_timeout_s = 2.0;
  return setup;
}

TEST(SchedulerSim, ChaosSmokeTallyFollowsFromTheScheduleAlone) {
  const Outcome run = simulate(chaos_local(3), chaos_script(7, 3, false));
  ASSERT_EQ(run.end, End::kMerged);
  EXPECT_EQ(run.tally,
            "attempts=21 retried=13 [corrupt-output=5 exit-255=2 signal-9=3 "
            "stalled=3]");
}

TEST(SchedulerSim, DistributedSmokeTallyFollowsFromTheScheduleAlone) {
  const Outcome run = simulate(chaos_fleet(3), chaos_script(7, 3, true));
  ASSERT_EQ(run.end, End::kMerged);
  EXPECT_EQ(run.tally,
            "attempts=17 retried=11 [connection-lost=3 corrupt-transfer=3 "
            "exit-137=1 launch-refused=1 stalled=3]");
}

TEST(SchedulerSim, EveryChaosRunConvergesUnderTheBudgetRule) {
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    for (std::size_t retries = 0; retries <= 3; ++retries) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " retries " +
                   std::to_string(retries));
      EXPECT_EQ(simulate(chaos_local(retries), chaos_script(seed, retries, false))
                    .end,
                End::kMerged);
      EXPECT_EQ(simulate(chaos_fleet(retries), chaos_script(seed, retries, true))
                    .end,
                End::kMerged);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace railcorr::orch
