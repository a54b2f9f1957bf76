/// \file manifest.hpp
/// \brief The resumable-run manifest: which plan an orchestrated sweep
///        is evaluating, how the grid is sharded, and which shard
///        files are already durable.
///
/// An orchestrated run directory contains:
///
///     plan.sweep             canonical plan spec (written once)
///     orchestrate.manifest   this manifest
///     shard_<i>.csv          finalized shard documents
///     merged.csv             the merged grid (written on success)
///
/// The manifest is line-oriented and append-only past its header:
///
///     # railcorr-orchestrate-v1
///     fingerprint = <hex16>
///     grid = <N>
///     shards = <S>
///     sizing = 0|1
///     banner = # railcorr-sweep-v1 fingerprint=<hex16> grid=<N> [...]
///     done <shard index> <file name>
///     fail <shard index> <attempt> <class>
///     host <name> <event>
///     info <free text>
///
/// `done` lines are appended (and synced) as workers finish, so a
/// crashed or interrupted orchestrator leaves behind exactly the set
/// of shards whose files are complete. `fail` lines record every
/// failed worker attempt with its classified cause (`exit-<code>`,
/// `signal-<n>`, `timeout`, `stalled`, `corrupt-output`, and the
/// transport classes `launch-refused`, `connection-lost`,
/// `corrupt-transfer`, `transfer-stalled`) — a post-mortem audit trail
/// of what the fleet survived; they carry no resume semantics. `host`
/// lines audit the host-health state machine of a distributed run
/// (`quarantine`, `probe`, `recover`, `dead`; see orch/remote.hpp) —
/// like `fail` lines they are history, not resume state: a resumed run
/// starts with a fresh fleet and re-discovers host health itself.
/// `info` lines carry free-form human-readable annotations (the
/// orchestrator appends its one-line run summary as one); they too are
/// history only and never influence a resume.
/// `railcorr orchestrate --resume <dir>` replays the
/// manifest: finished shards are skipped, and a manifest whose
/// fingerprint, banner, shard count, or sizing flag disagrees with the
/// resumed invocation is refused — mixing plans or banners across a
/// resume would poison the merge.
///
/// The banner is stored verbatim (not re-derived) because it is the
/// exact string every shard file and worker must reproduce; comparing
/// it byte-for-byte is the same check `merge_shards` applies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "corridor/sweep.hpp"
#include "orch/remote.hpp"

namespace railcorr::orch {

/// Parsed (or freshly planned) state of one orchestrated run.
struct RunManifest {
  std::uint64_t fingerprint = 0;
  /// Grid cells in the plan.
  std::size_t grid = 0;
  /// Shards the grid is partitioned into.
  std::size_t shards = 0;
  /// Whether the run evaluates the off-grid sizing columns.
  bool include_sizing = false;
  /// The run's shard banner, verbatim (fingerprint, grid).
  std::string banner;
  /// Finalized shards: (shard index, file name relative to the run
  /// directory), in completion order. May contain repeats when a run
  /// was resumed; consumers treat it as a set.
  std::vector<std::pair<std::size_t, std::string>> done;

  /// One recorded failed worker attempt (post-mortem only).
  struct Failure {
    std::size_t shard = 0;
    std::size_t attempt = 0;
    /// Classified cause: exit-<code>, signal-<n>, timeout, stalled,
    /// or corrupt-output.
    std::string cause;
  };
  /// Every `fail` line, in append order (possibly across resumes).
  std::vector<Failure> failures;

  /// Every `host` line, in append order (possibly across resumes);
  /// events other than FleetHealth's four are kept as written.
  std::vector<HostEvent> host_events;

  /// Every `info` line's free text, in append order. Pure audit trail
  /// (run summaries and the like); never consulted on resume.
  std::vector<std::string> infos;

  /// The manifest a fresh orchestration of `plan` starts from; the
  /// banner is corridor::shard_banner's.
  static RunManifest plan_run(const corridor::SweepPlan& plan,
                              std::size_t shards, bool include_sizing);

  /// Parse a manifest document. Throws util::ConfigError on a missing
  /// magic line, malformed fields, or missing header keys. A malformed
  /// *final* line lacking its trailing newline is silently dropped —
  /// the torn state a crash during a synced append leaves behind; the
  /// half-written entry never became durable, so resume proceeds
  /// without it.
  static RunManifest parse(std::string_view text);

  /// Header block (magic through banner, trailing newline); `done`
  /// lines are appended after this.
  [[nodiscard]] std::string header_text() const;

  /// One `done <shard> <file>` line (no trailing newline).
  static std::string done_line(std::size_t shard, const std::string& file);

  /// One `fail <shard> <attempt> <class>` line (no trailing newline).
  static std::string fail_line(std::size_t shard, std::size_t attempt,
                               const std::string& cause);

  /// One `host <name> <event>` line (no trailing newline).
  static std::string host_line(const std::string& host,
                               const std::string& event);

  /// One `info <free text>` line (no trailing newline).
  static std::string info_line(const std::string& text);

  /// True when `shard` has a done entry.
  [[nodiscard]] bool is_done(std::size_t shard) const;

  /// Human-readable mismatches between this (parsed) manifest and the
  /// run another invocation is about to perform — empty means the
  /// resume is safe. Checks fingerprint, banner, shard count, and the
  /// sizing flag.
  [[nodiscard]] std::vector<std::string> mismatches_against(
      const RunManifest& wanted) const;
};

}  // namespace railcorr::orch
