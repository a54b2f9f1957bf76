/// \file progress.hpp
/// \brief The line-delimited worker progress protocol and its
///        orchestrator-side aggregator.
///
/// A sweep worker running with `--progress` writes its shard CSV to
/// `--out` and speaks this protocol on stdout, one event per line,
/// so the orchestrator streams it live through the worker's pipe. Each
/// line is flushed as written, except the `cell` lines: they arrive in
/// one burst after the shard's stages, and one flush follows the last
/// (a kill, stall or flap fault flushes before it fires):
///
///     @railcorr 1 banner # railcorr-sweep-v1 fingerprint=<hex16> grid=<N>
///     @railcorr 1 start shard=<i>/<N> cells=<n>
///     @railcorr 1 cell index=<grid index> done=<k> total=<n>
///     @railcorr 1 cache hits=<h> misses=<m>
///     @railcorr 1 heartbeat
///     @railcorr 1 done rows=<n>
///
/// The cache event reports the worker's result-cache tallies (emitted
/// just before `done`, only when a `--cache-dir` store is attached);
/// per shard the aggregator keeps the latest report, so a retried
/// attempt replaces — never double-counts — its predecessor's.
///
/// The protocol carries progress and liveness, not timing: a worker's
/// per-cell and per-stage times go to its own `--trace` spans and
/// `--metrics` counters, which the orchestrator merges after the run.
///
/// The heartbeat event carries no payload and is ignored by the
/// aggregator's tallies; its only job is liveness. A worker emits its
/// `cell` lines in a burst after the shard's stages have run, so it is
/// silent while it computes, and without heartbeats the orchestrator's
/// `--stall-timeout` cannot tell "slow shard" from "dead transport" (a
/// remote pipe buffering a vanished host's silence looks identical).
/// Workers emit it from a timer thread (HeartbeatThread).
///
/// `@railcorr 1` is the protocol magic + version; unknown lines (a
/// worker's stray print, a future protocol extension) parse to
/// std::nullopt and are ignored by the aggregator, so the protocol is
/// forward-compatible by construction. Fields are exact: an event with
/// a missing, malformed or extra field parses to std::nullopt too.
///
/// The banner event carries the worker's shard banner *verbatim* —
/// plan fingerprint and grid size. The aggregator compares every
/// worker's banner against the first one seen and flags divergence
/// immediately, so a mis-configured worker (wrong plan file) is
/// caught while it runs instead of at merge time.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace railcorr::orch {

/// One parsed protocol event.
struct ProgressEvent {
  enum class Kind {
    kBanner,
    kStart,
    kCell,
    kCache,
    kHeartbeat,
    kDone
  };
  Kind kind = Kind::kBanner;
  /// kBanner: the shard banner, verbatim.
  std::string banner;
  /// kStart: which shard of how many, and how many cells it owns.
  std::size_t shard = 0;
  std::size_t shard_count = 0;
  std::size_t cells = 0;
  /// kCell: the grid cell just finished and the shard-local tally.
  std::size_t index = 0;
  std::size_t done = 0;
  std::size_t total = 0;
  /// kCache: the worker's result-cache lookup tallies.
  std::size_t hits = 0;
  std::size_t misses = 0;
  /// kDone: CSV rows written (excluding banner + header).
  std::size_t rows = 0;
};

/// \name Emitters — each returns one protocol line (no trailing '\n').
///@{
std::string banner_line(std::string_view banner);
std::string start_line(std::size_t shard, std::size_t shard_count,
                       std::size_t cells);
std::string cell_line(std::size_t index, std::size_t done, std::size_t total);
std::string cache_line(std::size_t hits, std::size_t misses);
std::string heartbeat_line();
std::string done_line(std::size_t rows);
///@}

/// Parse one line; std::nullopt for anything that is not a well-formed
/// protocol event (non-protocol output, wrong version, bad fields).
std::optional<ProgressEvent> parse_progress_line(std::string_view line);

/// Orchestrator-side roll-up of the per-worker event streams into one
/// live picture of the run: grid cells finished, shards finished, and
/// banner consistency across the fleet.
class ProgressAggregator {
 public:
  /// \param grid_cells   total cells of the plan's grid
  /// \param shard_count  shards the grid is partitioned into
  ProgressAggregator(std::size_t grid_cells, std::size_t shard_count);

  /// Fold one event from `shard`'s worker into the tally. Duplicate
  /// cell events (a retried attempt re-evaluating cells its failed
  /// predecessor already reported) do not double-count: a grid cell is
  /// counted once, ever.
  void on_event(std::size_t shard, const ProgressEvent& event);

  /// Mark a shard's output as finalized (its file is durable).
  void on_shard_complete(std::size_t shard);

  [[nodiscard]] std::size_t cells_done() const { return cells_done_; }
  [[nodiscard]] std::size_t shards_done() const { return shards_done_; }

  /// Fleet-wide result-cache tallies: the sum over shards of each
  /// shard's latest cache report. Zero when no worker reported one
  /// (no --cache-dir).
  [[nodiscard]] std::size_t cache_hits() const;
  [[nodiscard]] std::size_t cache_misses() const;

  /// The first banner any worker reported (empty until then).
  [[nodiscard]] const std::string& banner() const { return banner_; }

  /// Banners that differed from the first one, as human-readable
  /// errors ("shard 3: banner ... differs from ..."). Non-empty means
  /// the fleet is evaluating inconsistent plans and the merge is
  /// guaranteed to fail.
  [[nodiscard]] const std::vector<std::string>& banner_errors() const {
    return banner_errors_;
  }

  /// One-line status, e.g. "cells 37/64, shards 3/8". The orchestrator
  /// streams this after every event batch.
  [[nodiscard]] std::string summary() const;

 private:
  std::size_t grid_cells_;
  std::size_t shard_count_;
  std::size_t cells_done_ = 0;
  std::size_t shards_done_ = 0;
  std::vector<bool> cell_seen_;
  std::vector<bool> shard_done_;
  /// Latest cache report per shard (a retried attempt overwrites).
  std::vector<std::size_t> shard_cache_hits_;
  std::vector<std::size_t> shard_cache_misses_;
  std::string banner_;
  std::vector<std::string> banner_errors_;
};

/// A worker-side heartbeat timer: calls `emit` with heartbeat_line()
/// every `period_s` seconds, at most an hour apart, until stopped (or
/// destroyed). `emit` runs on the timer thread, so it must be
/// synchronized with the worker's other protocol writes — in practice
/// both go through one mutex-guarded "write a line to stdout and
/// flush" lambda.
///
/// stop() is idempotent and joins the thread; a worker that is about
/// to simulate a hang (the `stall` fault point) must stop its
/// heartbeat first, or the liveness signal it keeps emitting would
/// defeat the very --stall-timeout the fault exists to exercise.
class HeartbeatThread {
 public:
  HeartbeatThread(double period_s,
                  std::function<void(const std::string&)> emit);
  ~HeartbeatThread();
  HeartbeatThread(const HeartbeatThread&) = delete;
  HeartbeatThread& operator=(const HeartbeatThread&) = delete;

  void stop();

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopped_ = false;
  std::thread thread_;
};

}  // namespace railcorr::orch
