/// \file scheduler.hpp
/// \brief Every scheduling decision of the orchestrator, as a pure
///        state machine fed by time-stamped events.
///
/// orchestrate() (orch/orchestrator.cpp) is the POSIX driver: it
/// spawns, polls, kills, verifies and renames, and writes the manifest
/// and the logs. At every turn it asks the Scheduler what to do. The
/// Scheduler owns the pending queue, lowest-free-slot assignment and
/// attempt ordinals, the retry budget and its deterministic backoff,
/// FleetHealth placement, the timeout / stall / fetch deadlines,
/// failure classification, and the fetch / publish / done / re-queue /
/// abort / fleet-dead verdicts.
///
/// It makes no syscalls and reads no clock: time arrives as `now_s`
/// arguments, seconds on any monotonic scale (the driver passes
/// run-relative seconds). tests/orch/scheduler_sim_test.cpp therefore
/// drives this same class through thousands of seeded failure
/// schedules under a fake clock.
///
/// Events of one attempt, in order: launch() places it; on_event()
/// reports each batch of protocol lines its worker printed; expire()
/// names it once a deadline passed and the driver must kill it;
/// on_exit() reports how its process ended — the worker's, then, after
/// a kFetch verdict, the fetch child's, whose exit, by itself or killed
/// at the fetch deadline, is always kPublish; after a kPublish verdict
/// on_output() reports whether the output verified and was renamed
/// into place, which alone decides a fetched shard. on_rot() reports a
/// finished shard whose file failed the pre-merge check.
#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "orch/orchestrator.hpp"
#include "orch/remote.hpp"

namespace railcorr::orch {

class Scheduler {
 public:
  /// The deadline that expired on an attempt; the driver kills it.
  enum class Deadline { kNone, kTimeout, kStall, kFetch };

  /// One live attempt.
  struct Attempt {
    std::size_t shard = 0;
    /// Per-shard ordinal: 0 for the first launch, +1 per relaunch.
    std::size_t attempt = 0;
    /// Worker slot 0..workers-1: the lowest one free at launch.
    std::size_t slot = 0;
    /// FleetHealth index of the host it occupies.
    std::size_t host = 0;
    /// A fetch step follows a clean worker exit (a remote host under a
    /// fetch builder).
    bool fetch_step = false;
    /// Phase two: the fetch subprocess is live.
    bool fetching = false;
    /// Any protocol event was seen. Tells a refused launch (exit 255,
    /// silent) from a connection lost mid-shard (exit 255 after
    /// events).
    bool saw_event = false;
    /// Set by expire(); the phase's failure is then classified by it.
    Deadline expired = Deadline::kNone;
    /// Start of the current phase: the launch, then the fetch.
    double started_s = 0.0;
    /// The stall clock: the last protocol event, or the launch.
    double last_event_s = 0.0;
  };

  /// What the driver must do next with an attempt or shard.
  struct Verdict {
    enum class Kind {
      kFetch,    ///< worker exited 0 on a fetch host: spawn the fetch
      kPublish,  ///< output claimed: verify it, rename it, on_output()
      kDone,     ///< the shard file is final: record it done
      kRetry,    ///< failed and re-queued
      kAbort,    ///< failed past the retry budget: stop the run
    };
    Kind kind = Kind::kDone;
    std::size_t shard = 0;
    std::size_t attempt = 0;
    /// Failure class label (`exit-3`, `signal-9`, `stalled`,
    /// `corrupt-transfer`, ...); empty unless kRetry or kAbort.
    std::string cause;
    /// A transport class: charged to the host, not the shard's budget.
    bool transport = false;
    /// The shard's compute failures so far.
    std::size_t failures = 0;
    /// Delay before the shard may launch again (kRetry).
    double backoff_s = 0.0;
  };

  /// `resumed[i]` marks shard i done before the run starts (an intact
  /// shard file of a resumed run); the others queue in index order.
  Scheduler(OrchestrateOptions options, const std::vector<bool>& resumed);

  /// Place the next launchable shard: the first pending one past its
  /// backoff, on the host FleetHealth picks, in the lowest free slot.
  /// std::nullopt when every slot is busy, no pending shard is ready,
  /// or no host can take work now. Call until it returns std::nullopt.
  std::optional<Attempt> launch(double now_s);

  /// The attempt of `shard` printed at least one protocol event.
  void on_event(std::size_t shard, double now_s);

  /// Mark and return the live attempts whose deadline passed: the
  /// wall-clock timeout, the progress-silence stall budget, or — in
  /// the fetch phase — the fetch budget. Each is returned once.
  std::vector<Attempt> expire(double now_s);

  /// The current process of `shard`'s attempt ended with `code` (128 +
  /// signal number when `signaled`). A worker's exit 0 returns kFetch
  /// under a fetch step, else kPublish; its other exits kRetry or
  /// kAbort. Every fetch exit returns kPublish: the transfer tool's
  /// status is no verdict, and on_output() judges the copy.
  Verdict on_exit(std::size_t shard, int code, bool signaled,
                  double now_s);

  /// After kPublish: whether the output verified and is now the
  /// durable shard file. Returns kDone, kRetry or kAbort.
  Verdict on_output(std::size_t shard, bool published, double now_s);

  /// A done shard's file failed the pre-merge check: a
  /// `corrupt-output` failure that re-queues it. Returns kRetry or
  /// kAbort.
  Verdict on_rot(std::size_t shard, double now_s);

  /// Poll timeout in ms until the next scheduled wake — the earliest
  /// backoff expiry of a pending shard or due host re-probe — clamped
  /// to [1, 50]. A shard waiting out its backoff never delays other
  /// ready shards, and an expired backoff never waits a full tick.
  [[nodiscard]] int next_wake_ms(double now_s) const;

  /// Shards not yet done (pending, live, or lost to an abort).
  [[nodiscard]] std::size_t incomplete() const { return shards_ - done_; }
  /// No attempt is live, shards remain, and every host is dead: the
  /// run must stop with a resumable manifest.
  [[nodiscard]] bool fleet_dead() const;

  /// Host-health transitions since the last drain, in order; the
  /// quarantine / recover / dead counts in stats() grow as they drain.
  std::vector<HostEvent> drain_host_events();

  [[nodiscard]] const FleetHealth& fleet() const { return fleet_; }
  [[nodiscard]] const std::vector<Attempt>& live() const { return live_; }
  /// Every counter of OrchestrateStats except the cache tallies.
  [[nodiscard]] const OrchestrateStats& stats() const { return stats_; }
  /// "attempts=<n> retried=<n>" plus " [<class>=<n> ...]" when any
  /// attempt failed: the run summary's core.
  [[nodiscard]] std::string tally() const;

 private:
  enum class FailureClass;

  std::vector<Attempt>::iterator find_live(std::size_t shard);
  FailureClass classify(const Attempt& attempt, int code,
                        bool signaled) const;
  /// End a live attempt: free its slot and host, then settle the shard.
  Verdict end_attempt(std::vector<Attempt>::iterator live, bool published,
                      int code, bool signaled, double now_s);
  Verdict fail(std::size_t shard, std::size_t attempt, FailureClass cls,
               int code, double now_s);

  OrchestrateOptions options_;
  std::size_t shards_;
  std::size_t done_;
  FleetHealth fleet_;
  std::deque<std::size_t> pending_;
  /// Next attempt ordinal, compute failures and earliest relaunch time,
  /// per shard.
  std::vector<std::size_t> attempts_;
  std::vector<std::size_t> failures_;
  std::vector<double> ready_s_;
  std::vector<bool> slot_used_;
  std::vector<Attempt> live_;
  OrchestrateStats stats_;
};

}  // namespace railcorr::orch
