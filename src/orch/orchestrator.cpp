#include "orch/orchestrator.hpp"

#include <poll.h>
#include <signal.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <filesystem>
#include <ostream>
#include <sstream>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "orch/manifest.hpp"
#include "orch/process.hpp"
#include "orch/progress.hpp"
#include "util/config.hpp"
#include "util/contracts.hpp"
#include "util/durable_io.hpp"

namespace railcorr::orch {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/// True when `document` holds an intact shard payload for `shard`: a
/// verified (or absent) integrity trailer, the expected banner, and one
/// data row per owned cell. A banner-only check would let a file
/// truncated after its first line pass validation and wedge every
/// subsequent --resume in the same merge failure; the trailer catches
/// bit corruption the row count cannot, and the row count catches a
/// cleanly-truncated legacy file with no trailer. `why` (never null)
/// names the defect.
bool shard_document_intact(std::string_view document, std::string_view banner,
                           corridor::ShardSpec shard, std::size_t grid,
                           std::string* why) {
  const auto trailer = util::check_integrity_trailer(document);
  if (trailer.status == util::TrailerStatus::kCorrupt) {
    *why = "integrity trailer mismatch (truncated or corrupted)";
    return false;
  }
  std::string_view rest = trailer.body;
  std::size_t lines = 0;
  std::string_view first;
  while (!rest.empty()) {
    const std::size_t eol = rest.find('\n');
    std::string_view line =
        eol == std::string_view::npos ? rest : rest.substr(0, eol);
    rest.remove_prefix(eol == std::string_view::npos ? rest.size() : eol + 1);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    if (lines == 0) first = line;
    ++lines;
  }
  if (lines < 2 || first != banner) {
    *why = "missing or wrong banner/header";
    return false;
  }
  // Banner + header + one row per owned cell.
  if (lines - 2 != shard.indices(grid).size()) {
    *why = "row count " + std::to_string(lines - 2) + " != owned cells " +
           std::to_string(shard.indices(grid).size());
    return false;
  }
  return true;
}

bool shard_file_intact(const fs::path& path, std::string_view banner,
                       corridor::ShardSpec shard, std::size_t grid,
                       std::string* why) {
  const auto document = util::read_file_fully(path.string());
  if (!document.has_value()) {
    *why = "file missing or unreadable";
    return false;
  }
  return shard_document_intact(*document, banner, shard, grid, why);
}

/// Why a worker attempt failed — drives the retry log, the manifest's
/// `fail` audit lines, and the per-class stats. The last four are
/// *transport* classes: they charge the host's health (orch/remote.hpp)
/// instead of the shard's retry budget, because the shard never got a
/// fair chance to compute — it migrates to the surviving fleet.
enum class FailureClass {
  kExit,
  kSignal,
  kTimeout,
  kStalled,
  kCorruptOutput,
  kLaunchRefused,
  kConnectionLost,
  kCorruptTransfer,
  kTransferStalled,
};

bool is_transport_class(FailureClass cls) {
  return cls == FailureClass::kLaunchRefused ||
         cls == FailureClass::kConnectionLost ||
         cls == FailureClass::kCorruptTransfer ||
         cls == FailureClass::kTransferStalled;
}

/// One live worker attempt tracked by the scheduler. A remote attempt
/// with a fetch step has two phases: the worker process, then — after
/// it exits 0 — the fetch subprocess pulling the shard file back; the
/// attempt keeps its slot and host for both.
struct ActiveAttempt {
  ActiveAttempt(WorkerAttempt info_, ChildProcess proc_, Clock::time_point now)
      : info(std::move(info_)),
        proc(std::move(proc_)),
        started(now),
        last_progress(now) {}

  WorkerAttempt info;
  ChildProcess proc;
  Clock::time_point started;
  /// Last parsed protocol event (== started until the first one): the
  /// liveness signal the stall timeout watches.
  Clock::time_point last_progress;
  bool timed_out = false;
  bool stalled = false;
  /// Any protocol event was parsed from this worker — distinguishes a
  /// launch the transport refused outright (exit 255, silent) from a
  /// connection lost mid-shard (exit 255 after events).
  bool saw_event = false;
  /// FleetHealth index of the host the attempt occupies.
  std::size_t host = 0;
  /// The in-flight fetch subprocess (phase two); engaged only for
  /// remote attempts whose worker exited 0 under a fetch builder.
  std::optional<ChildProcess> fetch;
  Clock::time_point fetch_started{};
  /// The fetch exceeded its wall-clock budget and was killed.
  bool fetch_timed_out = false;
  /// Recorder-timeline launch/fetch-start stamps backing the
  /// orchestrator's "attempt" and "fetch" spans (0 when telemetry off).
  std::uint64_t launch_usec = 0;
  std::uint64_t fetch_usec = 0;
};

double elapsed_s(Clock::time_point since, Clock::time_point now) {
  return std::chrono::duration<double>(now - since).count();
}

}  // namespace

std::string shard_file_name(std::size_t shard) {
  return "shard_" + std::to_string(shard) + ".csv";
}

std::string trace_file_name(std::size_t shard, std::size_t attempt) {
  return "shard_" + std::to_string(shard) + ".attempt" +
         std::to_string(attempt) + ".trace";
}

std::string metrics_file_name(std::size_t shard, std::size_t attempt) {
  return "shard_" + std::to_string(shard) + ".attempt" +
         std::to_string(attempt) + ".metrics.json";
}

OrchestrateResult orchestrate(const corridor::SweepPlan& plan,
                              const std::string& out_dir,
                              const OrchestrateOptions& options) {
  OrchestrateResult result;
  const auto wall_start = Clock::now();
  const auto fail = [&result](std::string message) -> OrchestrateResult& {
    result.errors.push_back(std::move(message));
    return result;
  };
  const auto log = [&options](const std::string& line) {
    if (options.log != nullptr) *options.log << "[orchestrate] " << line
                                            << std::endl;
  };

  if (options.workers == 0) return fail("need at least one worker");
  if (!options.command) return fail("no worker command builder configured");

  // A worker dying with its pipe mid-write must never take the
  // supervisor down with SIGPIPE; write failures surface as error
  // returns instead.
  ::signal(SIGPIPE, SIG_IGN);

  const std::size_t grid = plan.size();

  // --- run directory + manifest -------------------------------------
  const fs::path dir(out_dir);
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return fail("cannot create out dir '" + out_dir + "': " +
                      ec.message());
  const fs::path manifest_path = dir / "orchestrate.manifest";

  // --- run telemetry ------------------------------------------------
  // Enabling the recorder/registry only changes what the orchestrator
  // *observes*: every scheduling decision, chaos fault, and result byte
  // is identical with telemetry on or off (the inertness contract
  // scripts/obs_smoke.sh byte-compares).
  const bool telemetry = !options.trace_dir.empty();
  const fs::path trace_dir(options.trace_dir);
  auto& recorder = obs::TraceRecorder::instance();
  if (telemetry) {
    fs::create_directories(trace_dir, ec);
    if (ec) {
      return fail("cannot create trace dir '" + options.trace_dir + "': " +
                  ec.message());
    }
    if (!recorder.enabled()) recorder.enable();
    obs::MetricsRegistry::instance().enable();
  }

  std::optional<RunManifest> previous;
  if (options.resume) {
    const auto text = util::read_file_fully(manifest_path.string());
    if (!text.has_value()) {
      return fail("--resume: cannot read '" + manifest_path.string() +
                  "' (was this directory produced by orchestrate?)");
    }
    try {
      previous = RunManifest::parse(*text);
    } catch (const util::ConfigError& error) {
      return fail("--resume: " + std::string(error.what()));
    }
  } else if (fs::exists(manifest_path)) {
    return fail("out dir '" + out_dir +
                "' already holds an orchestrate.manifest; pass --resume to "
                "continue it or choose a fresh directory");
  }

  // Shard count: explicit > resumed manifest > 2x workers. The 2x
  // default keeps the queue deep enough that a straggling shard does
  // not serialize the tail.
  std::size_t shards = options.shards;
  if (shards == 0) {
    shards = previous.has_value() ? previous->shards : options.workers * 2;
  }
  if (shards > grid) shards = grid;
  if (shards == 0) shards = 1;

  const RunManifest wanted =
      RunManifest::plan_run(plan, shards, options.include_sizing);

  // Shards still to run; a resume leaves out the intact finished ones.
  std::deque<std::size_t> pending;
  std::size_t completed_count = 0;
  ProgressAggregator aggregator(grid, shards);

  if (previous.has_value()) {
    const auto mismatches = previous->mismatches_against(wanted);
    if (!mismatches.empty()) {
      result.manifest_mismatch = true;
      for (const auto& mismatch : mismatches) {
        result.errors.push_back("--resume refused: " + mismatch);
      }
      return result;
    }
    for (std::size_t shard = 0; shard < shards; ++shard) {
      // A done entry only counts when its file is still intact (the
      // recorded banner, a verified or absent integrity trailer, and
      // every owned row); a truncated or corrupted shard is
      // reclassified as *not done* and recomputed — resume is
      // self-healing, not a fatal contract check.
      std::string why;
      if (!previous->is_done(shard)) {
        pending.push_back(shard);
      } else if (shard_file_intact(dir / shard_file_name(shard),
                                   wanted.banner,
                                   corridor::ShardSpec{shard, shards}, grid,
                                   &why)) {
        ++completed_count;
        ++result.stats.resumed;
        for (const std::size_t index :
             corridor::ShardSpec{shard, shards}.indices(grid)) {
          ProgressEvent event;
          event.kind = ProgressEvent::Kind::kCell;
          event.index = index;
          aggregator.on_event(shard, event);
        }
        aggregator.on_shard_complete(shard);
      } else {
        log("resume: shard " + std::to_string(shard) +
            " marked done but its file is stale (" + why + "); re-running");
        pending.push_back(shard);
      }
    }
    log("resume: skipping " + std::to_string(result.stats.resumed) +
        " finished shard(s) of " + std::to_string(shards));
  } else {
    std::string error;
    if (!util::atomic_write_file(manifest_path.string(), wanted.header_text(),
                                 &error)) {
      return fail("cannot write manifest: " + error);
    }
    for (std::size_t shard = 0; shard < shards; ++shard) {
      pending.push_back(shard);
    }
  }

  // Fresh runs (re)write the canonical plan unconditionally: a stale
  // plan.sweep left in a reused directory must never feed the workers
  // a different grid than the manifest records. Resumes keep the
  // existing copy (its fingerprint was just validated).
  const fs::path plan_path = dir / "plan.sweep";
  if (!options.resume || !fs::exists(plan_path)) {
    std::string error;
    if (!util::atomic_write_file(plan_path.string(), plan.canonical_spec(),
                                 &error)) {
      return fail("cannot write plan: " + error);
    }
  }

  util::AppendLog manifest_log;
  {
    std::string error;
    if (!manifest_log.open(manifest_path.string(), &error)) {
      return fail("cannot append to manifest: " + error);
    }
  }

  // --- fleet ----------------------------------------------------------
  // Every attempt is placed through FleetHealth; a run without hosts is
  // a fleet of one `local` host, which no transport failure can charge
  // (the local path has no launcher and no fetch), so it never leaves
  // the healthy state. Host health runs on run-relative seconds so
  // FleetHealth stays a pure, time-injected state machine
  // (unit-testable without sleeping).
  FleetHealth fleet(options.hosts.empty()
                        ? std::vector<std::string>{std::string(kLocalHost)}
                        : options.hosts,
                    options.health);
  const auto run_epoch = Clock::now();
  const auto now_s = [&run_epoch] {
    return elapsed_s(run_epoch, Clock::now());
  };
  /// Turn pending FleetHealth transitions into manifest `host` audit
  /// lines, log lines, and stats; called after every acquire/release.
  const auto audit_fleet = [&] {
    for (const auto& event : fleet.drain_events()) {
      manifest_log.append_line(RunManifest::host_line(event.host,
                                                      event.event));
      if (telemetry) {
        // Static-name mapping: the recorder's hot path stores const
        // char* without copying, so event labels must be literals.
        const char* name = event.event == "quarantine" ? "quarantine"
                           : event.event == "probe"    ? "probe"
                           : event.event == "recover"  ? "recover"
                           : event.event == "dead"     ? "dead"
                                                       : "host-event";
        recorder.instant(name, "fleet");
      }
      if (event.event == "quarantine") {
        ++result.stats.host_quarantines;
        log("host " + event.host + " quarantined; degrading onto " +
            std::to_string(fleet.healthy()) + " healthy host(s)");
      } else if (event.event == "recover") {
        ++result.stats.host_recoveries;
        log("host " + event.host + " recovered (re-probe succeeded)");
      } else if (event.event == "dead") {
        ++result.stats.hosts_dead;
        log("host " + event.host + " declared dead for this run (" +
            std::to_string(options.health.dead_after) + " quarantines)");
      } else {
        log("host " + event.host + " " + event.event);
      }
    }
  };

  // --- scheduler ----------------------------------------------------
  std::vector<std::size_t> fail_count(shards, 0);
  std::vector<std::size_t> attempt_no(shards, 0);
  // Earliest relaunch time per shard (exponential backoff); the epoch
  // default means "ready now".
  std::vector<Clock::time_point> not_before(shards, Clock::time_point{});
  std::vector<bool> slot_used(options.workers, false);
  std::vector<ActiveAttempt> active;
  std::size_t attempt_serial = 0;
  std::string last_summary;
  // Trace-lane host annotations, keyed by the attempt's trace-file stem
  // ("shard_<i>.attempt<a>"); filled at launch, consumed at merge.
  std::map<std::string, std::string> attempt_hosts;

  const auto launch = [&](std::size_t shard, std::size_t host) {
    // A shard is pending or in flight, never both: no attempt of it may
    // still be live when it is launched.
    RAILCORR_EXPECTS(std::none_of(active.begin(), active.end(),
                                  [shard](const ActiveAttempt& live) {
                                    return live.info.shard == shard;
                                  }));
    WorkerAttempt info;
    info.shard = shard;
    info.shard_count = shards;
    info.attempt = attempt_no[shard]++;
    info.host = fleet.name(host);
    // Lowest free worker slot; launch is only called when
    // active.size() < workers, so one must be free.
    std::size_t slot = 0;
    while (slot + 1 < slot_used.size() && slot_used[slot]) ++slot;
    slot_used[slot] = true;
    info.slot = slot;
    info.out_path =
        (dir / ("shard_" + std::to_string(shard) + ".attempt" +
                std::to_string(attempt_serial++) + ".tmp"))
            .string();
    // Remote workers under a fetch step write to a distinct remote-side
    // name: on a real fleet that path lives on the remote machine, and
    // on the localhost fleets tests use it keeps the fetch from
    // degenerating into copying a file onto itself.
    const bool fetched = options.fetch && info.host != kLocalHost;
    info.worker_out_path = fetched ? info.out_path + ".remote"
                                   : info.out_path;
    if (telemetry) {
      info.trace_path =
          (trace_dir / trace_file_name(shard, info.attempt)).string();
      info.metrics_path =
          (trace_dir / metrics_file_name(shard, info.attempt)).string();
      info.worker_trace_path =
          fetched ? info.trace_path + ".remote" : info.trace_path;
      info.worker_metrics_path =
          fetched ? info.metrics_path + ".remote" : info.metrics_path;
      attempt_hosts[fs::path(info.trace_path).stem().string()] = info.host;
    }
    const auto now = Clock::now();
    ActiveAttempt attempt(info, ChildProcess::spawn(options.command(info)),
                          now);
    attempt.host = host;
    if (telemetry) {
      attempt.launch_usec = recorder.now_usec();
      recorder.instant("launch", "orch", "shard", shard);
    }
    ++result.stats.attempts;
    log("launch shard " + std::to_string(shard) + "/" +
        std::to_string(shards) + " attempt " + std::to_string(info.attempt) +
        " slot " + std::to_string(slot) + " host " + info.host + " pid " +
        std::to_string(attempt.proc.pid()));
    active.push_back(std::move(attempt));
  };

  const auto drain_into_aggregator = [&](ActiveAttempt& attempt) {
    if (attempt.fetch.has_value()) {
      // Fetch tools speak no protocol; drain (and discard) their
      // output so a chatty transfer command cannot fill the pipe and
      // block itself.
      std::vector<std::string> lines;
      attempt.fetch->drain(lines);
      return;
    }
    std::vector<std::string> lines;
    attempt.proc.drain(lines);
    bool any_event = false;
    for (const auto& line : lines) {
      const auto event = parse_progress_line(line);
      if (event.has_value()) {
        aggregator.on_event(attempt.info.shard, *event);
        any_event = true;
      }
    }
    if (any_event) {
      attempt.last_progress = Clock::now();
      attempt.saw_event = true;
    }
  };

  /// Classify one failed attempt, bump its stats bucket, append the
  /// manifest `fail` line, and return the classified cause label for
  /// the retry log.
  const auto record_failure = [&](const ActiveAttempt& attempt,
                                  FailureClass cls, const ExitStatus& status) {
    std::string cause;
    switch (cls) {
      case FailureClass::kTimeout:
        cause = "timeout";
        ++result.stats.timed_out;
        break;
      case FailureClass::kStalled:
        cause = "stalled";
        ++result.stats.stalled;
        break;
      case FailureClass::kCorruptOutput:
        cause = "corrupt-output";
        ++result.stats.corrupt;
        break;
      case FailureClass::kSignal:
        cause = "signal-" + std::to_string(status.code - 128);
        break;
      case FailureClass::kExit:
        cause = "exit-" + std::to_string(status.code);
        break;
      case FailureClass::kLaunchRefused:
        cause = "launch-refused";
        ++result.stats.launch_refused;
        break;
      case FailureClass::kConnectionLost:
        cause = "connection-lost";
        ++result.stats.connection_lost;
        break;
      case FailureClass::kCorruptTransfer:
        cause = "corrupt-transfer";
        ++result.stats.transfer_corrupt;
        break;
      case FailureClass::kTransferStalled:
        cause = "transfer-stalled";
        ++result.stats.transfer_stalled;
        break;
    }
    ++result.stats.failures_by_class[cause];
    // Every failed attempt lands in the manifest for post-mortem;
    // transport failures charge the host instead of the retry budget
    // (see settle_failure).
    manifest_log.append_line(
        RunManifest::fail_line(attempt.info.shard, attempt.info.attempt,
                               cause));
    return cause;
  };

  /// Exponential, deterministic backoff before the shard's relaunch.
  const auto apply_backoff = [&](std::size_t shard) {
    if (options.backoff_base_s <= 0.0) return 0.0;
    const std::size_t failures = std::max<std::size_t>(1, fail_count[shard]);
    const double factor =
        static_cast<double>(1ULL << std::min<std::size_t>(failures - 1, 16));
    const double backoff =
        std::min(options.backoff_cap_s, options.backoff_base_s * factor);
    not_before[shard] =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(backoff));
    return backoff;
  };

  /// Poll timeout until the next scheduled wake: the earliest pending
  /// shard's backoff expiry and the fleet's earliest due re-probe,
  /// clamped to [1, 50] ms. Next-wake bookkeeping instead of a
  /// blocking backoff sleep — a shard waiting out its backoff must
  /// never delay launching other ready shards, and an expired backoff
  /// or due probe must not wait out a full fixed tick either.
  const auto next_wake_ms = [&]() -> int {
    double wake = 0.050;
    const auto now = Clock::now();
    for (const std::size_t shard : pending) {
      if (not_before[shard] <= now) continue;
      wake = std::min(wake, elapsed_s(now, not_before[shard]));
    }
    const auto probe = fleet.next_probe_s();
    if (probe.has_value()) {
      wake = std::min(wake, std::max(0.0, *probe - now_s()));
    }
    return std::max(1, static_cast<int>(wake * 1000.0 + 0.999));
  };

  /// Release the attempt's host back to the fleet and audit any health
  /// transitions.
  const auto release_host = [&](const ActiveAttempt& attempt,
                                bool transport_failure) {
    fleet.release(attempt.host, transport_failure, now_s());
    audit_fleet();
  };

  /// The attempt's verified output at `out_path` becomes the durable
  /// shard file: rename and record the done line. False when the
  /// rename itself failed (counts as a failure).
  const auto finalize_shard = [&](const ActiveAttempt& attempt) -> bool {
    const std::size_t shard = attempt.info.shard;
    const fs::path durable = dir / shard_file_name(shard);
    std::string error;
    if (!util::rename_durable(attempt.info.out_path, durable.string(),
                              &error)) {
      log("shard " + std::to_string(shard) +
          ": cannot finalize shard file: " + error);
      return false;
    }
    ++completed_count;
    manifest_log.append_line(
        RunManifest::done_line(shard, shard_file_name(shard)));
    aggregator.on_shard_complete(shard);
    log("shard " + std::to_string(shard) + " done (attempt " +
        std::to_string(attempt.info.attempt) + "; " + aggregator.summary() +
        ")");
    return true;
  };

  /// Shared post-mortem of one failed attempt: record the classified
  /// manifest `fail` line, then charge either the host (transport
  /// classes — the shard never got a fair chance to compute) or the
  /// shard's retry budget (compute classes), and re-queue the shard. A
  /// transport-failed shard re-queues with no backoff: it migrates to
  /// the surviving fleet immediately. Returns false when the retry
  /// budget is exhausted and the run must abort.
  const auto settle_failure = [&](const ActiveAttempt& attempt,
                                  FailureClass cls,
                                  const ExitStatus& status) -> bool {
    const std::size_t shard = attempt.info.shard;
    const std::string cause = record_failure(attempt, cls, status);
    const bool transport = is_transport_class(cls);
    release_host(attempt, transport);
    if (transport) {
      log("shard " + std::to_string(shard) + " attempt " +
          std::to_string(attempt.info.attempt) + " " + cause + " on host " +
          attempt.info.host +
          "; charged to the host, not the shard's retry budget");
    } else {
      ++fail_count[shard];
      log("shard " + std::to_string(shard) + " attempt " +
          std::to_string(attempt.info.attempt) + " " + cause + " (failure " +
          std::to_string(fail_count[shard]) + "/" +
          std::to_string(options.retries + 1) + ")");
    }
    if (fail_count[shard] > options.retries) {
      fail("shard " + std::to_string(shard) + " failed " +
           std::to_string(fail_count[shard]) +
           " time(s); retry budget exhausted");
      return false;  // ActiveAttempt destructors kill the fleet.
    }
    const double backoff = transport ? 0.0 : apply_backoff(shard);
    pending.push_back(shard);
    ++result.stats.retried;
    if (telemetry) recorder.instant("retry", "orch", "shard", shard);
    log("shard " + std::to_string(shard) + " re-queued" +
        (backoff > 0.0
             ? " (backoff " + util::format_double(backoff) + "s)"
             : ""));
    return true;
  };

  /// Build the one-line run summary, log it, append it to the manifest
  /// as an `info` audit line, and store it in the result. Called once
  /// on every exit path that got as far as an open manifest.
  const auto emit_summary = [&] {
    result.stats.cache_hits = aggregator.cache_hits();
    result.stats.cache_misses = aggregator.cache_misses();
    std::string s =
        "run summary: wall=" +
        util::format_double(elapsed_s(wall_start, Clock::now())) +
        "s attempts=" + std::to_string(result.stats.attempts) +
        " retried=" + std::to_string(result.stats.retried);
    if (!result.stats.failures_by_class.empty()) {
      s += " [";
      bool first = true;
      for (const auto& [cls, n] : result.stats.failures_by_class) {
        if (!first) s += " ";
        first = false;
        s += cls + "=" + std::to_string(n);
      }
      s += "]";
    }
    // The third counter is retired and always 0; it stays so the
    // summary keeps the key set existing parsers read.
    s += " speculative=0 resumed=" + std::to_string(result.stats.resumed);
    const std::size_t cache_total =
        result.stats.cache_hits + result.stats.cache_misses;
    if (cache_total > 0) {
      s += " cache=" + std::to_string(result.stats.cache_hits) + "/" +
           std::to_string(cache_total);
    }
    result.summary = s;
    manifest_log.append_line(RunManifest::info_line(s));
    log(s);
  };

  /// Pull a finished remote attempt's telemetry files back over the
  /// same transport that fetched its shard file. Strictly best-effort
  /// and synchronous with a bounded wait: a failed or slow telemetry
  /// fetch costs one trace lane, never a retry, never the run.
  const auto fetch_telemetry = [&](const WorkerAttempt& worker) {
    if (!telemetry || !options.fetch) return;
    if (worker.trace_path.empty() ||
        worker.worker_trace_path == worker.trace_path) {
      return;  // The worker wrote its telemetry locally already.
    }
    const double budget = options.fetch_timeout_s > 0.0
                              ? options.fetch_timeout_s
                          : options.timeout_s > 0.0 ? options.timeout_s
                                                    : 10.0;
    const std::pair<const std::string*, const std::string*> files[] = {
        {&worker.worker_trace_path, &worker.trace_path},
        {&worker.worker_metrics_path, &worker.metrics_path}};
    for (const auto& [remote, local] : files) {
      WorkerAttempt synthetic = worker;
      synthetic.worker_out_path = *remote;
      synthetic.out_path = *local;
      try {
        ChildProcess proc = ChildProcess::spawn(options.fetch(synthetic));
        const auto started = Clock::now();
        std::optional<ExitStatus> status;
        while (!(status = proc.try_reap()).has_value()) {
          std::vector<std::string> lines;
          proc.drain(lines);
          if (elapsed_s(started, Clock::now()) > budget) {
            proc.kill();
            proc.wait();
            break;
          }
          ::poll(nullptr, 0, 5);
        }
        if (!status.has_value() || status->code != 0) {
          log("telemetry fetch of '" + *local + "' from host " + worker.host +
              " failed (best-effort; that trace lane will be missing)");
          fs::remove(*local, ec);
        }
      } catch (const std::exception& error) {
        log("telemetry fetch: cannot spawn: " + std::string(error.what()));
      }
      fs::remove(*remote, ec);
    }
  };

  /// On success: dump the orchestrator's own trace, merge every intact
  /// `.trace` lane in the trace dir into the plain-JSON `trace.json`
  /// fleet timeline, and roll every worker `.metrics.json` plus the
  /// orchestrator's own registry into `run_metrics.json`. Best-effort
  /// throughout: a missing or torn lane is logged and skipped, never
  /// fatal — a killed worker leaves no telemetry behind, and that must
  /// not fail the run that killed it.
  const auto write_telemetry = [&] {
    if (!telemetry) return;
    auto& metrics = obs::MetricsRegistry::instance();
    {
      // Fleet-level rollups mirrored into the orchestrator's registry
      // under their own namespaces (the workers' own sweep.*/cache.*
      // counters arrive via their metrics files and must not be
      // double-counted here).
      std::size_t cells = 0;
      std::uint64_t cell_usec = 0;
      for (const auto& timing : aggregator.shard_timings()) {
        cells += timing.cells;
        cell_usec += timing.usec_total;
      }
      metrics.counter("fleet.cells").add(cells);
      metrics.counter("fleet.cell_usec").add(cell_usec);
      metrics.counter("orch.attempts").add(result.stats.attempts);
      metrics.counter("orch.retried").add(result.stats.retried);
      metrics.counter("orch.resumed").add(result.stats.resumed);
      metrics.counter("orch.cache_hits").add(aggregator.cache_hits());
      metrics.counter("orch.cache_misses").add(aggregator.cache_misses());
    }
    std::string error;
    if (!util::atomic_write_file(
            (trace_dir / "orchestrator.trace").string(),
            util::with_integrity_trailer(recorder.serialize()), &error)) {
      log("trace: cannot write orchestrator.trace: " + error);
    }
    std::vector<fs::path> trace_files;
    std::vector<fs::path> metrics_files;
    for (const auto& entry : fs::directory_iterator(trace_dir, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.ends_with(".trace")) trace_files.push_back(entry.path());
      if (name.ends_with(".metrics.json")) {
        metrics_files.push_back(entry.path());
      }
    }
    std::sort(trace_files.begin(), trace_files.end());
    std::sort(metrics_files.begin(), metrics_files.end());
    std::vector<obs::TraceInput> lanes;
    for (const auto& path : trace_files) {
      const auto text = util::read_file_fully(path.string());
      if (!text.has_value()) {
        log("trace: skipping unreadable '" + path.string() + "'");
        continue;
      }
      auto parsed = obs::parse_trace(*text);
      if (!parsed.ok) {
        // A torn trace costs its lane, never the run — and never a
        // recompute: telemetry files sit outside shard verification.
        log("trace: skipping corrupt '" + path.string() + "': " +
            parsed.error);
        continue;
      }
      std::string label = path.stem().string();
      const auto host = attempt_hosts.find(label);
      if (host != attempt_hosts.end()) label += " (" + host->second + ")";
      lanes.push_back(obs::TraceInput{std::move(label), std::move(parsed)});
    }
    if (!lanes.empty()) {
      if (!util::atomic_write_file((trace_dir / "trace.json").string(),
                                   obs::merge_traces(lanes), &error)) {
        log("trace: cannot write trace.json: " + error);
      } else {
        log("trace: merged " + std::to_string(lanes.size()) +
            " lane(s) into " + (trace_dir / "trace.json").string());
      }
    }
    std::vector<obs::MetricsSnapshot> snaps;
    for (const auto& path : metrics_files) {
      const auto text = util::read_file_fully(path.string());
      if (!text.has_value()) continue;
      auto snap = obs::parse_metrics_json(*text);
      if (!snap.ok) {
        log("metrics: skipping corrupt '" + path.string() + "': " +
            snap.error);
        continue;
      }
      snaps.push_back(std::move(snap));
    }
    snaps.push_back(metrics.snapshot());
    if (!util::atomic_write_file(
            (trace_dir / "run_metrics.json").string(),
            obs::render_metrics_json(obs::merge_metrics(snaps)), &error)) {
      log("metrics: cannot write run_metrics.json: " + error);
    }
  };

  while (true) {
    while (completed_count < shards) {
      {
        const auto now = Clock::now();
        for (std::size_t scan = pending.size();
             scan > 0 && active.size() < options.workers; --scan) {
          const std::size_t shard = pending.front();
          pending.pop_front();
          if (not_before[shard] > now) {
            pending.push_back(shard);  // Still backing off.
            continue;
          }
          const auto host = fleet.acquire(now_s());
          audit_fleet();
          if (!host.has_value()) {
            // No host can take work right now (all quarantined or dead,
            // probes not yet due); no other pending shard would fare
            // better this pass.
            pending.push_back(shard);
            break;
          }
          launch(shard, *host);
        }
      }

      if (active.empty()) {
        if (!pending.empty()) {
          if (fleet.all_dead()) {
            // The hard stop: every host dead, shards incomplete, no
            // attempt in flight. The manifest already audits every
            // quarantine and `host <name> dead` transition, and its
            // `done` lines make the run resumable once the fleet
            // recovers.
            result.fleet_dead = true;
            log("fleet exhausted: all " + std::to_string(fleet.size()) +
                " host(s) dead, " +
                std::to_string(shards - completed_count) +
                " shard(s) incomplete; stopping (resume with --resume "
                "once hosts recover)");
            fail("all " + std::to_string(fleet.size()) +
                 " host(s) are dead with " +
                 std::to_string(shards - completed_count) +
                 " shard(s) incomplete; the manifest is resumable — "
                 "re-run with --resume once the fleet recovers");
            emit_summary();
            return result;
          }
          // Every incomplete shard is backing off (or waiting on a
          // host re-probe); sleep exactly until the earliest wake.
          ::poll(nullptr, 0, next_wake_ms());
          continue;
        }
        // Unreachable by construction (incomplete shards are pending or
        // in flight); bail rather than spin if the invariant breaks.
        fail("internal: no workers in flight with " +
             std::to_string(shards - completed_count) +
             " shard(s) incomplete");
        emit_summary();
        return result;
      }

      std::vector<pollfd> fds;
      fds.reserve(active.size());
      for (const auto& attempt : active) {
        const int fd = attempt.fetch.has_value()
                           ? attempt.fetch->stdout_fd()
                           : attempt.proc.stdout_fd();
        if (fd >= 0) fds.push_back(pollfd{fd, POLLIN, 0});
      }
      if (!fds.empty()) {
        ::poll(fds.data(), static_cast<nfds_t>(fds.size()), next_wake_ms());
      } else {
        // Every live worker's pipe already hit EOF (e.g. a worker closed
        // its stdout but keeps running): sleep the tick instead of
        // busy-spinning on try_reap.
        ::poll(nullptr, 0, next_wake_ms());
      }

      for (auto& attempt : active) drain_into_aggregator(attempt);

      if (options.log != nullptr) {
        std::string summary = aggregator.summary();
        if (summary != last_summary) {
          log(summary);
          last_summary = std::move(summary);
        }
      }

      const auto now = Clock::now();
      if (options.timeout_s > 0.0) {
        for (auto& attempt : active) {
          if (!attempt.fetch.has_value() && !attempt.timed_out &&
              !attempt.stalled &&
              elapsed_s(attempt.started, now) > options.timeout_s) {
            attempt.timed_out = true;
            log("shard " + std::to_string(attempt.info.shard) + " attempt " +
                std::to_string(attempt.info.attempt) + " exceeded " +
                util::format_double(options.timeout_s) + "s, killing");
            attempt.proc.kill();
          }
        }
      }
      if (options.stall_timeout_s > 0.0) {
        for (auto& attempt : active) {
          if (!attempt.fetch.has_value() && !attempt.timed_out &&
              !attempt.stalled &&
              elapsed_s(attempt.last_progress, now) >
                  options.stall_timeout_s) {
            attempt.stalled = true;
            log("shard " + std::to_string(attempt.info.shard) + " attempt " +
                std::to_string(attempt.info.attempt) + " silent for " +
                util::format_double(options.stall_timeout_s) +
                "s, killing (stalled)");
            attempt.proc.kill();
          }
        }
      }
      // A fetch has its own wall-clock budget (a stuck transfer must
      // not consume the worker timeout of the *next* attempt).
      {
        const double fetch_budget = options.fetch_timeout_s > 0.0
                                        ? options.fetch_timeout_s
                                        : options.timeout_s;
        if (fetch_budget > 0.0) {
          for (auto& attempt : active) {
            if (attempt.fetch.has_value() && !attempt.fetch_timed_out &&
                elapsed_s(attempt.fetch_started, now) > fetch_budget) {
              attempt.fetch_timed_out = true;
              log("shard " + std::to_string(attempt.info.shard) +
                  " attempt " + std::to_string(attempt.info.attempt) +
                  " fetch exceeded " + util::format_double(fetch_budget) +
                  "s, killing (transfer-stalled)");
              attempt.fetch->kill();
            }
          }
        }
      }

      for (std::size_t i = active.size(); i-- > 0;) {
        // --- phase two: an in-flight fetch subprocess ---------------
        if (active[i].fetch.has_value()) {
          const auto status = active[i].fetch->try_reap();
          if (!status.has_value()) continue;
          drain_into_aggregator(active[i]);
          if (telemetry) {
            const std::uint64_t now_u = recorder.now_usec();
            recorder.complete_at("fetch", "orch", active[i].fetch_usec,
                                 now_u - active[i].fetch_usec, "shard",
                                 active[i].info.shard);
          }
          ActiveAttempt attempt = std::move(active[i]);
          active.erase(
              active.begin() +
              static_cast<std::vector<ActiveAttempt>::difference_type>(i));
          slot_used[attempt.info.slot] = false;

          const std::size_t shard = attempt.info.shard;
          // A fetched file is accepted only after the same integrity
          // checks a local worker's output must pass (trailer, banner,
          // row count): fetched-but-corrupt is `corrupt-transfer` and
          // the shard is recomputed, never trusted.
          std::string why;
          bool finalized = false;
          if (status->code != 0) {
            why = attempt.fetch_timed_out
                      ? "fetch killed after exceeding its transfer timeout"
                      : "fetch exited " + std::to_string(status->code);
          } else if (shard_file_intact(attempt.info.out_path, wanted.banner,
                                       corridor::ShardSpec{shard, shards},
                                       grid, &why)) {
            finalized = finalize_shard(attempt);
            if (!finalized) why = "cannot finalize the fetched file";
          }
          if (finalized) {
            fetch_telemetry(attempt.info);
            fs::remove(attempt.info.worker_out_path, ec);
            release_host(attempt, /*transport_failure=*/false);
            continue;
          }
          log("shard " + std::to_string(shard) + " attempt " +
              std::to_string(attempt.info.attempt) + " fetch from host " +
              attempt.info.host + " rejected: " + why);
          fs::remove(attempt.info.out_path, ec);
          fs::remove(attempt.info.worker_out_path, ec);
          if (!settle_failure(attempt,
                              attempt.fetch_timed_out
                                  ? FailureClass::kTransferStalled
                                  : FailureClass::kCorruptTransfer,
                              *status)) {
            emit_summary();
            return result;
          }
          continue;
        }

        // --- phase one: the worker process --------------------------
        const auto status = active[i].proc.try_reap();
        if (!status.has_value()) continue;
        drain_into_aggregator(active[i]);
        if (telemetry) {
          const std::uint64_t now_u = recorder.now_usec();
          recorder.complete_at("attempt", "orch", active[i].launch_usec,
                               now_u - active[i].launch_usec, "shard",
                               active[i].info.shard);
        }

        // A remote worker that exited 0 under a fetch builder enters
        // phase two: the attempt keeps its slot and host while the
        // fetch subprocess pulls the shard file back.
        const bool wants_fetch =
            options.fetch != nullptr && active[i].info.host != kLocalHost;
        bool fetch_spawn_failed = false;
        if (status->code == 0 && wants_fetch) {
          try {
            active[i].fetch.emplace(
                ChildProcess::spawn(options.fetch(active[i].info)));
            active[i].fetch_started = Clock::now();
            if (telemetry) active[i].fetch_usec = recorder.now_usec();
            log("shard " + std::to_string(active[i].info.shard) +
                " attempt " + std::to_string(active[i].info.attempt) +
                " worker done; fetching from host " + active[i].info.host);
            continue;
          } catch (const std::exception& error) {
            fetch_spawn_failed = true;
            log("shard " + std::to_string(active[i].info.shard) +
                " attempt " + std::to_string(active[i].info.attempt) +
                ": cannot spawn fetch: " + std::string(error.what()));
          }
        }

        ActiveAttempt attempt = std::move(active[i]);
        active.erase(
            active.begin() +
            static_cast<std::vector<ActiveAttempt>::difference_type>(i));
        slot_used[attempt.info.slot] = false;

        const std::size_t shard = attempt.info.shard;
        bool finalized = false;
        bool corrupt_output = false;
        if (status->code == 0 && !wants_fetch) {
          // Exit 0 is a claim, not proof: verify the document (trailer,
          // banner, row count) before renaming it into the durable
          // name. A torn write or silent corruption becomes a
          // classified, retryable failure here instead of poisoning
          // the merge or a later resume.
          std::string why;
          if (!shard_file_intact(attempt.info.out_path, wanted.banner,
                                 corridor::ShardSpec{shard, shards}, grid,
                                 &why)) {
            corrupt_output = true;
            log("shard " + std::to_string(shard) + " attempt " +
                std::to_string(attempt.info.attempt) +
                " exited 0 but its output is invalid: " + why);
          } else {
            finalized = finalize_shard(attempt);
          }
        }
        if (finalized) {
          release_host(attempt, /*transport_failure=*/false);
          continue;
        }

        fs::remove(attempt.info.out_path, ec);
        fs::remove(attempt.info.worker_out_path, ec);

        FailureClass cls =
            attempt.timed_out  ? FailureClass::kTimeout
            : attempt.stalled  ? FailureClass::kStalled
            : corrupt_output   ? FailureClass::kCorruptOutput
            : status->signaled ? FailureClass::kSignal
                               : FailureClass::kExit;
        if (fetch_spawn_failed) {
          cls = FailureClass::kCorruptTransfer;
        } else if (cls == FailureClass::kExit && status->code == 255 &&
                   attempt.info.host != kLocalHost) {
          // Exit 255 is the transport's own signature (ssh reserves it
          // for connection failures; the worker binary never uses it):
          // before any protocol event it is a refused launch, after
          // events it is a connection dropped mid-shard.
          cls = attempt.saw_event ? FailureClass::kConnectionLost
                                  : FailureClass::kLaunchRefused;
        }
        if (!settle_failure(attempt, cls, *status)) {
          emit_summary();
          return result;
        }
      }
    }

    // --- pre-merge verification -------------------------------------
    // Every shard file was verified at finalize time, but a resume may
    // race external tampering and a finalized file can rot between
    // fsync and merge; re-verify and reclassify any bad shard as not
    // done — recompute, don't abort — before trusting its bytes.
    std::vector<std::size_t> bad;
    for (std::size_t shard = 0; shard < shards; ++shard) {
      std::string why;
      if (!shard_file_intact(dir / shard_file_name(shard), wanted.banner,
                             corridor::ShardSpec{shard, shards}, grid,
                             &why)) {
        log("pre-merge: shard " + std::to_string(shard) + " is invalid (" +
            why + "); recomputing");
        bad.push_back(shard);
      }
    }
    if (bad.empty()) break;
    for (const std::size_t shard : bad) {
      ++fail_count[shard];
      ++result.stats.corrupt;
      manifest_log.append_line(RunManifest::fail_line(
          shard, attempt_no[shard], "corrupt-output"));
      if (fail_count[shard] > options.retries) {
        fail("shard " + std::to_string(shard) +
             " repeatedly corrupt; retry budget exhausted");
        emit_summary();
        return result;
      }
      fs::remove(dir / shard_file_name(shard), ec);
      --completed_count;
      apply_backoff(shard);
      pending.push_back(shard);
      ++result.stats.retried;
    }
  }

  // --- merge --------------------------------------------------------
  result.stats.cache_hits = aggregator.cache_hits();
  result.stats.cache_misses = aggregator.cache_misses();
  for (const auto& error : aggregator.banner_errors()) {
    result.errors.push_back(error);
  }
  // The fleet's banner must be the one this invocation planned — a
  // divergence means the workers evaluated a different plan than the
  // manifest records (e.g. a tampered plan.sweep), and the merged
  // output would be mislabeled.
  if (!aggregator.banner().empty() && aggregator.banner() != wanted.banner) {
    result.errors.push_back("worker fleet produced banner '" +
                            aggregator.banner() +
                            "' but this run planned '" + wanted.banner + "'");
  }

  std::vector<std::string> documents;
  std::vector<std::string> names;
  documents.reserve(shards);
  names.reserve(shards);
  for (std::size_t shard = 0; shard < shards; ++shard) {
    const fs::path path = dir / shard_file_name(shard);
    auto document = util::read_file_fully(path.string());
    if (!document.has_value()) {
      fail("finalized shard file vanished: '" + path.string() + "'");
      return result;
    }
    documents.push_back(std::move(*document));
    names.push_back(path.string());
  }
  auto merge = corridor::merge_shards(documents, names);
  if (!merge.ok) {
    result.contract_violation = merge.contract_violation;
    for (auto& error : merge.errors) result.errors.push_back(std::move(error));
    emit_summary();
    return result;
  }
  if (!result.errors.empty()) {
    emit_summary();
    return result;
  }

  const fs::path merged_path = dir / "merged.csv";
  {
    std::string error;
    if (!util::atomic_write_file(merged_path.string(),
                                 util::with_integrity_trailer(merge.merged),
                                 &error)) {
      return fail("cannot write merged output: " + error);
    }
  }
  result.ok = true;
  result.merged_path = merged_path.string();
  result.merged = std::move(merge.merged);
  write_telemetry();
  log("merged " + std::to_string(grid) + " cells from " +
      std::to_string(shards) + " shard(s) into " + result.merged_path + " (" +
      std::to_string(result.stats.attempts) + " attempt(s), " +
      std::to_string(result.stats.retried) + " retried, " +
      std::to_string(result.stats.resumed) + " resumed, " +
      std::to_string(result.stats.timed_out) + " timed out, " +
      std::to_string(result.stats.stalled) + " stalled, " +
      std::to_string(result.stats.corrupt) + " corrupt" +
      (result.stats.cache_hits + result.stats.cache_misses > 0
           ? ", cache " + std::to_string(result.stats.cache_hits) +
                 " hit(s) / " + std::to_string(result.stats.cache_misses) +
                 " miss(es)"
           : "") +
      ")");
  emit_summary();
  return result;
}

}  // namespace railcorr::orch
