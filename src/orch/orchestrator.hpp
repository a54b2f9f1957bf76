/// \file orchestrator.hpp
/// \brief The multi-process sweep orchestrator: a worker fleet over the
///        shard work queue, failure/straggler retry, streaming
///        progress, and resumable runs.
///
/// The orchestrator turns one SweepPlan into a fleet of `railcorr
/// sweep --shard i/S` worker processes (orch/process.hpp), feeds them
/// from a queue of shard specs, follows their progress through the
/// line protocol (orch/progress.hpp), records durable shards in the
/// run manifest (orch/manifest.hpp), and finally merges the rows it
/// read from the shard files with corridor::merge_rows. Every shard
/// file goes through the one shard reader, corridor::read_shard. At
/// most one attempt per shard is live at any time: a shard is either
/// pending or in flight.
///
/// Why retry is safe: a grid cell's row is a pure function of (plan,
/// index), so a worker killed mid-shard costs nothing but time — the
/// re-queued attempt reproduces the same bytes. A hung worker is
/// cleared by the progress-silence check (`stall_timeout_s`) or the
/// wall-clock budget (`timeout_s`) and retried like any other failure.
/// A worker that evaluated another plan is caught on its output: the
/// shard check at publish, resume and pre-merge refuses a file whose
/// banner is not the planned one, and the merge's byte-identity check
/// backs every row.
///
/// Every scheduling decision — queue, slots, retry budget and backoff,
/// placement, deadlines, failure classes, verdicts — is made by the
/// pure, clock-free Scheduler (orch/scheduler.hpp); orchestrate() is
/// the POSIX driver that carries them out. It launches whatever argv
/// the `command` callback builds for an attempt, so tests drive it with
/// toy shell workers and the CLI drives it with the real binary.
///
/// Placement is one code path (orch/remote.hpp): every attempt is
/// placed on a host chosen by the FleetHealth state machine, and a
/// single-machine run is simply a fleet of one `local` host. For a
/// remote host the `command` callback wraps the worker argv in the
/// launcher template, and — when a `fetch` builder is configured — a
/// finished remote worker's files are pulled back by one fetch child,
/// and its shard file is verified (trailer + banner + row count) before
/// it is finalized. The shard is judged by those bytes alone, never by
/// the transfer tool's exit status: a fetched-but-corrupt or missing
/// file is classified `corrupt-transfer` (`transfer-stalled` once the
/// fetch deadline killed the child) and the shard recomputed, never
/// trusted.
/// Transport failures (launch refused, connection lost, corrupt or
/// stalled transfer) charge the *host's* health, not the shard's retry
/// budget: the shard migrates to the surviving fleet, and only when
/// every host is dead does the run hard-stop with a resumable
/// manifest.
///
/// Failure model (see docs/ARCHITECTURE.md "Failure model"): every
/// durable artifact is written through util/durable_io (atomic rename
/// + fsync discipline, synced manifest appends), worker output is
/// verified (integrity trailer when present, banner, row count) before
/// it is renamed into place, failed attempts are classified
/// (exit/signal/timeout/stalled/corrupt-output) and recorded as
/// manifest `fail` lines, retries back off exponentially and
/// deterministically, and a corrupt or truncated shard discovered at
/// resume or merge time is recomputed rather than treated as a fatal
/// contract violation — corruption is an I/O failure; only
/// byte-differing *valid* duplicate rows indicate broken determinism.
#pragma once

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "corridor/sweep.hpp"
#include "orch/remote.hpp"

namespace railcorr::orch {

/// One scheduled execution of one shard.
struct WorkerAttempt {
  /// Shard index in 0..shard_count-1.
  std::size_t shard = 0;
  std::size_t shard_count = 1;
  /// Per-shard attempt ordinal (0 = first launch; each retry
  /// increments it).
  std::size_t attempt = 0;
  /// Worker slot (0..workers-1) this attempt occupies: the lowest slot
  /// free at launch time. Command builders can key per-slot resources
  /// (e.g. heterogeneous `--threads` splits) on it — a slot never holds
  /// two live attempts at once.
  std::size_t slot = 0;
  /// Where the finished shard document must land *locally*; the
  /// orchestrator renames it to the durable `shard_<i>.csv` on success.
  std::string out_path;
  /// Host this attempt is placed on: a `--hosts` name, or
  /// orch::kLocalHost — always so when `OrchestrateOptions::hosts` is
  /// empty, which means one `local` host.
  std::string host;
  /// A remote attempt under a `fetch` builder: its worker writes every
  /// file to worker_path(), and the fetch phase pulls each back.
  bool fetch_step = false;
  /// Where the attempt's telemetry must land locally; empty unless the
  /// run sets `trace_dir`. Command builders pass worker_path() of each
  /// as the `--trace`/`--metrics` flags. Telemetry files are
  /// best-effort: they are never verified the way shard files are, and
  /// a missing or torn one costs a trace lane, never a recompute.
  std::string trace_path;
  std::string metrics_path;

  /// Where the worker itself writes the file that must land at `local`
  /// (`out_path`, `trace_path` or `metrics_path`): `local` itself, or
  /// `<local>.remote` under a fetch step ({remote} in the fetch
  /// template). On a real fleet that path lives on the remote machine;
  /// on the localhost fleets tests use, it keeps a pull from copying a
  /// file onto itself.
  [[nodiscard]] std::string worker_path(const std::string& local) const {
    return fetch_step ? local + ".remote" : local;
  }
};

/// Knobs of one orchestrated run.
struct OrchestrateOptions {
  /// Concurrent worker processes.
  std::size_t workers = 4;
  /// Shards to split the grid into; 0 picks 2x workers (clamped to the
  /// grid size) so the queue stays deep enough to absorb stragglers.
  std::size_t shards = 0;
  /// Failed (nonzero-exit, killed, or timed-out) attempts tolerated
  /// per shard beyond the first launch.
  std::size_t retries = 2;
  /// Per-attempt wall-clock budget in seconds; expired attempts are
  /// killed and count as failures. 0 = unlimited.
  double timeout_s = 0.0;
  /// Progress-silence liveness budget in seconds: an attempt that has
  /// emitted no parsable protocol event for this long is presumed hung
  /// (deadlock, unkillable I/O wait, fault-injected stall) and killed,
  /// independently of the wall-clock timeout — a healthy worker on a
  /// big shard keeps printing heartbeats (the CLI passes `--heartbeat`),
  /// so silence, not total runtime, is the hang signal. 0 = disabled.
  double stall_timeout_s = 0.0;
  /// Deterministic exponential retry backoff: a shard's k-th failure
  /// delays its relaunch by backoff_base_s * 2^(k-1), capped at
  /// backoff_cap_s. No jitter — reproducibility beats thundering-herd
  /// avoidance at this fleet size. backoff_base_s = 0 disables it.
  double backoff_base_s = 0.05;
  double backoff_cap_s = 2.0;
  /// The run evaluates the off-grid sizing columns (recorded in the
  /// manifest; a resume with the opposite setting is refused).
  bool include_sizing = false;
  /// Resume `out_dir`: skip shards whose manifest `done` entries have
  /// intact files; refuse a manifest that mismatches this invocation.
  bool resume = false;
  /// Builds the argv of one worker attempt (required). The CLI builds
  /// `<self> sweep --plan ... --shard i/S --out <out_path> --progress`
  /// (wrapped in the launcher template for remote hosts); tests
  /// substitute toy commands.
  std::function<std::vector<std::string>(const WorkerAttempt&)> command;
  /// Streaming progress sink (one line per update); nullptr = silent.
  std::ostream* log = nullptr;
  /// Host names attempts are placed on (see orch/remote.hpp; the
  /// reserved name `local` runs plain fork/exec). Empty means one
  /// `local` host — the single-machine run, where no fetch applies.
  std::vector<std::string> hosts;
  /// Builds the argv that copies `worker_path(out_path)` on `host` to
  /// the local `out_path`. The fetch phase, which follows a remote
  /// worker's exit 0, calls it once per file the worker wrote: the
  /// shard, then, on a traced run, the metrics and the trace file, with
  /// `out_path` naming that file. It runs as one child: a lone shard
  /// pull as its own argv, a traced one as a `/bin/sh -c` script of
  /// each pull's shell_join()ed argv, a line each, shard first. When
  /// the child ends, its status is ignored: the shard is published if
  /// and only if the copied file verifies. Unset = workers write
  /// locally (shared filesystem, or the localhost fleets tests use).
  std::function<std::vector<std::string>(const WorkerAttempt&)> fetch;
  /// Wall-clock budget for an attempt's fetch child, telemetry pulls
  /// included. A child running past it is killed, and its shard is then
  /// judged like any other: published when its copy arrived intact,
  /// else classified `transfer-stalled`. A telemetry file the kill cut
  /// off costs only its trace lane. 0 falls back to `timeout_s`; both
  /// 0 = unbounded.
  double fetch_timeout_s = 0.0;
  /// Host-health knobs (quarantine threshold, re-probe backoff, dead
  /// threshold).
  FleetHealthOptions health;
  /// Run-telemetry directory. Empty = telemetry off (the default; the
  /// run pays nothing but one relaxed load per instrumented site).
  /// Non-empty: the orchestrator enables its own span recorder and
  /// metrics registry, gives every attempt per-attempt
  /// `shard_<i>.attempt<a>.trace` / `.metrics.json` paths under this
  /// directory (a remote attempt's are pulled back by its one fetch
  /// child, after its shard, best-effort; any attempt, rejected or not,
  /// keeps whatever arrived intact, and an ended attempt leaves no
  /// worker-side copy), and on success merges every intact `.trace`
  /// lane into `<trace_dir>/trace.json` plus a `run_metrics.json`
  /// rollup.
  /// Telemetry is provably inert: every result artifact (shards,
  /// manifest modulo the `info` summary line, merged.csv) is
  /// byte-identical with or without it.
  std::string trace_dir;
};

/// Fleet statistics of a finished (or failed) orchestration.
struct OrchestrateStats {
  /// Worker processes launched, including retries.
  std::size_t attempts = 0;
  /// Failed attempts that were re-queued.
  std::size_t retried = 0;
  /// Shards skipped because a resumed manifest had them done.
  std::size_t resumed = 0;
  /// Fleet-wide result-cache tallies, summed from each shard's latest
  /// cache progress report. Zero when workers ran without --cache-dir.
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  /// Host-health transitions (each also audited as a manifest `host`
  /// line).
  std::size_t host_quarantines = 0;
  std::size_t host_recoveries = 0;
  std::size_t hosts_dead = 0;
  /// Failed attempts by classified cause label: `exit-<code>`,
  /// `signal-<n>`, `timeout`, `stalled`, `corrupt-output` (a torn
  /// write, corrupt trailer, wrong banner or row count), and the
  /// transport classes charged to host health, not the shard's retry
  /// budget — `launch-refused`, `connection-lost`, `corrupt-transfer`,
  /// `transfer-stalled`. A class no attempt failed with has no entry.
  /// Feeds the run summary's retries-by-class breakdown.
  std::map<std::string, std::size_t> failures_by_class;
};

/// Outcome of an orchestrated run.
struct OrchestrateResult {
  /// True when every shard completed and the merge satisfied the
  /// determinism contract.
  bool ok = false;
  /// Merge-level determinism-contract violation (CLI exit 2).
  bool contract_violation = false;
  /// Resume refused: the run directory's manifest disagrees with this
  /// invocation's plan fingerprint, banner, shard count, or
  /// sizing flag (CLI exit 2).
  bool manifest_mismatch = false;
  /// Every host of a distributed fleet died before the grid finished;
  /// the manifest is resumable once the fleet recovers (CLI exit 1 —
  /// an environment failure, not a contract violation).
  bool fleet_dead = false;
  std::vector<std::string> errors;
  /// Path of the merged grid (`<out_dir>/merged.csv`); empty unless ok.
  std::string merged_path;
  /// The merged document itself; empty unless ok.
  std::string merged;
  /// The one-line run summary (wall time, attempts, retries by class,
  /// cache tally); also appended to the manifest as an `info` line.
  /// Empty only when the run failed before the manifest existed.
  std::string summary;
  OrchestrateStats stats;
};

/// Durable shard file name within the run directory.
std::string shard_file_name(std::size_t shard);

/// Per-attempt telemetry file names within the trace directory.
std::string trace_file_name(std::size_t shard, std::size_t attempt);
std::string metrics_file_name(std::size_t shard, std::size_t attempt);

/// Run the whole orchestration: plan -> worker fleet -> durable shard
/// files + manifest in `out_dir` -> merged grid. Creates `out_dir` if
/// needed; refuses a non-resume run into a directory that already has
/// a manifest (a half-finished run must be resumed or removed
/// explicitly). Writes the canonical plan to `<out_dir>/plan.sweep`.
OrchestrateResult orchestrate(const corridor::SweepPlan& plan,
                              const std::string& out_dir,
                              const OrchestrateOptions& options);

}  // namespace railcorr::orch
