/// \file progress.hpp
/// \brief The line-delimited worker progress protocol.
///
/// A sweep worker running with `--progress` writes its shard CSV to
/// `--out` and speaks this protocol on stdout, one event per line,
/// each flushed as written, so the orchestrator streams it live
/// through the worker's pipe:
///
///     @railcorr 1 start shard=<i>/<N> cells=<n>
///     @railcorr 1 heartbeat
///     @railcorr 1 cache hits=<h> misses=<m>
///     @railcorr 1 done rows=<n>
///
/// `start` is the one event printed before compute: a worker that
/// dies having printed nothing was refused its launch, one that dies
/// after it lost its connection mid-shard. `cache` reports the
/// worker's result-cache tallies (only when a `--cache-dir` store is
/// attached); `done` closes the stream once the shard file is written.
/// Per shard the orchestrator keeps the latest cache report, so a
/// retried attempt replaces — never double-counts — its predecessor's.
///
/// The protocol carries liveness and the cache tally, not progress
/// counts or timing: shards done are the orchestrator's own record,
/// and a worker's per-cell and per-stage times go to its `--trace`
/// spans and `--metrics` counters, which the orchestrator merges after
/// the run.
///
/// The heartbeat event carries no payload; its only job is liveness.
/// A worker is silent while its shard computes, and without heartbeats
/// the orchestrator's `--stall-timeout` cannot tell "slow shard" from
/// "dead transport" (a remote pipe buffering a vanished host's silence
/// looks identical). Workers emit it from a timer thread
/// (HeartbeatThread) until just before their `cache`/`done` lines.
///
/// `@railcorr 1` is the protocol magic + version; unknown lines (a
/// worker's stray print, an older worker's `banner` and `cell` lines,
/// a future protocol extension) parse to std::nullopt and are ignored,
/// so the protocol is forward-compatible by construction. Fields are
/// exact: an event with a missing, malformed or extra field parses to
/// std::nullopt too.
///
/// The protocol carries no banner: which plan a worker evaluated is
/// checked once, on the bytes that matter — the orchestrator refuses a
/// shard file whose banner is not the planned one at publish, resume
/// and pre-merge, so such a shard never reaches the merge.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>

namespace railcorr::orch {

/// One parsed protocol event.
struct ProgressEvent {
  enum class Kind { kStart, kCache, kHeartbeat, kDone };
  Kind kind = Kind::kStart;
  /// kStart: which shard of how many, and how many cells it owns.
  std::size_t shard = 0;
  std::size_t shard_count = 0;
  std::size_t cells = 0;
  /// kCache: the worker's result-cache lookup tallies.
  std::size_t hits = 0;
  std::size_t misses = 0;
  /// kDone: CSV rows written (excluding banner + header).
  std::size_t rows = 0;
};

/// \name Emitters — each returns one protocol line (no trailing '\n').
///@{
std::string start_line(std::size_t shard, std::size_t shard_count,
                       std::size_t cells);
std::string cache_line(std::size_t hits, std::size_t misses);
std::string heartbeat_line();
std::string done_line(std::size_t rows);
///@}

/// Parse one line; std::nullopt for anything that is not a well-formed
/// protocol event (non-protocol output, wrong version, bad fields).
std::optional<ProgressEvent> parse_progress_line(std::string_view line);

/// A worker-side heartbeat timer: calls `emit` with heartbeat_line()
/// every `period_s` seconds, at most an hour apart, until stopped (or
/// destroyed). `emit` runs on the timer thread; a worker prints its
/// other protocol lines only before starting the timer and after
/// stopping it, so the two never write at once.
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
