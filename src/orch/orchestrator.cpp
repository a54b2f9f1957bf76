#include "orch/orchestrator.hpp"

#include <poll.h>
#include <signal.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <ostream>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "orch/manifest.hpp"
#include "orch/process.hpp"
#include "orch/progress.hpp"
#include "orch/scheduler.hpp"
#include "util/config.hpp"
#include "util/durable_io.hpp"

namespace railcorr::orch {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/// Read the shard file at `path` into `document`, and its rows into
/// `rows`, when corridor::read_shard accepts it under this run's rule:
/// a verified integrity trailer, the planned banner and one row per
/// owned cell. A banner-only check would let a file truncated after its
/// first line pass and wedge every later --resume in the same merge
/// failure. Every worker ends its shard with a trailer, so a file
/// without one was torn before its end, even when each row left still
/// has its index: a row cut short would otherwise merge. The trailer
/// also catches bit corruption the row count cannot. Bytes equal to
/// `document`, which this run already accepted, keep their rows
/// without a second read. Otherwise both are cleared and `why` names
/// the defect.
bool read_intact_shard(const fs::path& path, std::string_view banner,
                       std::size_t owned, std::string& document,
                       corridor::ShardRows& rows, std::string& why) {
  auto bytes = util::read_file_fully(path.string());
  if (bytes.has_value() && !document.empty() && *bytes == document) {
    return true;
  }
  rows = {};
  if (!bytes.has_value()) {
    document.clear();
    why = "file missing or unreadable";
    return false;
  }
  // The rows view `document`, so the bytes move into place first.
  document = std::move(*bytes);
  std::optional<corridor::ShardRows> read;
  if (!util::split_integrity_trailer(document).present) {
    why = "missing integrity trailer (torn write)";
  } else {
    read = corridor::read_shard(document, why);
  }
  if (read.has_value() && read->banner != banner) {
    why = "missing or wrong banner/header";
  } else if (read.has_value() && read->rows.size() != owned) {
    why = "row count " + std::to_string(read->rows.size()) +
          " != owned cells " + std::to_string(owned);
  } else if (read.has_value()) {
    rows = std::move(*read);
    return true;
  }
  document.clear();
  return false;
}

/// The driver's half of one live attempt: its paths and processes. A
/// remote attempt with a fetch step runs the worker, then — after it
/// exits 0 — its fetch phase: one child that pulls back every file the
/// worker wrote.
struct LiveAttempt {
  WorkerAttempt info;
  ChildProcess proc;
  /// Engaged in the fetch phase: its one child.
  std::optional<ChildProcess> fetch;
  /// Recorder-timeline stamps backing the "attempt" and "fetch" spans
  /// (0 when telemetry is off).
  std::uint64_t launch_usec = 0;
  std::uint64_t fetch_usec = 0;

  ChildProcess& process() { return fetch.has_value() ? *fetch : proc; }
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
  // Run-relative seconds: the only clock the Scheduler sees.
  const auto now_s = [wall_start] {
    return elapsed_s(wall_start, Clock::now());
  };
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

  // Shards a resume finds intact, which this run skips.
  std::vector<bool> resumed(shards, false);
  /// Each shard's bytes as this run last accepted them, empty until
  /// then, and their rows as corridor::read_shard gave them: resume and
  /// publish keep what they read, and the pre-merge check passes a file
  /// still equal to them without reading it again. The rows are
  /// merge()'s input.
  std::vector<std::string> documents(shards);
  std::vector<corridor::ShardRows> shard_rows(shards);
  const auto owned_cells = [&](std::size_t shard) {
    return corridor::ShardSpec{shard, shards}.indices(grid).size();
  };
  /// Each shard's latest worker cache report (hits, misses): a retried
  /// attempt's report replaces its predecessor's.
  std::vector<std::pair<std::size_t, std::size_t>> cache_reports(shards);

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
      // A done entry only counts when its file is still intact (a
      // verified integrity trailer, the recorded banner, and every
      // owned row); a truncated or corrupted shard is
      // reclassified as *not done* and recomputed — resume is
      // self-healing, not a fatal contract check.
      std::string why;
      if (!previous->is_done(shard)) continue;
      if (read_intact_shard(dir / shard_file_name(shard), wanted.banner,
                            owned_cells(shard), documents[shard],
                            shard_rows[shard], why)) {
        resumed[shard] = true;
      } else {
        log("resume: shard " + std::to_string(shard) +
            " marked done but its file is stale (" + why + "); re-running");
      }
    }
    log("resume: skipping " +
        std::to_string(std::count(resumed.begin(), resumed.end(), true)) +
        " finished shard(s) of " + std::to_string(shards));
  } else {
    std::string error;
    if (!util::atomic_write_file(manifest_path.string(), wanted.header_text(),
                                 &error)) {
      return fail("cannot write manifest: " + error);
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

  // --- the driver ---------------------------------------------------
  // Every scheduling decision is the Scheduler's; from here on this
  // function only spawns, polls, kills, verifies and records.
  Scheduler scheduler(options, resumed);
  std::vector<LiveAttempt> live;
  // Trace-lane host annotations, keyed by the attempt's trace-file stem
  // ("shard_<i>.attempt<a>"); filled at launch, consumed at merge.
  std::map<std::string, std::string> attempt_hosts;

  /// Turn pending host-health transitions into manifest `host` audit
  /// lines and log lines; called after every launch pass and exit.
  const auto audit_fleet = [&] {
    for (const auto& event : scheduler.drain_host_events()) {
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
        log("host " + event.host + " quarantined; degrading onto " +
            std::to_string(scheduler.fleet().healthy()) +
            " healthy host(s)");
      } else if (event.event == "recover") {
        log("host " + event.host + " recovered (re-probe succeeded)");
      } else if (event.event == "dead") {
        log("host " + event.host + " declared dead for this run (" +
            std::to_string(options.health.dead_after) + " quarantines)");
      } else {
        log("host " + event.host + " " + event.event);
      }
    }
  };

  const auto launch = [&](const Scheduler::Attempt& placed) {
    const std::size_t shard = placed.shard;
    WorkerAttempt info;
    info.shard = shard;
    info.shard_count = shards;
    info.attempt = placed.attempt;
    info.slot = placed.slot;
    info.host = scheduler.fleet().name(placed.host);
    info.out_path = (dir / ("shard_" + std::to_string(shard) + ".attempt" +
                            std::to_string(placed.attempt) + ".tmp"))
                        .string();
    info.fetch_step = placed.fetch_step;
    if (telemetry) {
      info.trace_path =
          (trace_dir / trace_file_name(shard, placed.attempt)).string();
      info.metrics_path =
          (trace_dir / metrics_file_name(shard, placed.attempt)).string();
      attempt_hosts[fs::path(info.trace_path).stem().string()] = info.host;
    }
    LiveAttempt attempt{info, ChildProcess::spawn(options.command(info)),
                        std::nullopt, 0, 0};
    if (telemetry) {
      attempt.launch_usec = recorder.now_usec();
      recorder.instant("launch", "orch", "shard", shard);
    }
    log("launch shard " + std::to_string(shard) + "/" +
        std::to_string(shards) + " attempt " + std::to_string(info.attempt) +
        " slot " + std::to_string(info.slot) + " host " + info.host + " pid " +
        std::to_string(attempt.proc.pid()));
    live.push_back(std::move(attempt));
  };

  /// Read an attempt's pipe. A worker's protocol events feed the
  /// scheduler's stall clock, and its cache report the cache tally; a
  /// fetch tool speaks no protocol, and its output is drained only so a
  /// chatty transfer cannot fill the pipe and block itself.
  const auto drain = [&](LiveAttempt& attempt) {
    std::vector<std::string> lines;
    attempt.process().drain(lines);
    if (attempt.fetch.has_value()) return;
    bool any_event = false;
    for (const auto& line : lines) {
      const auto event = parse_progress_line(line);
      if (!event.has_value()) continue;
      any_event = true;
      if (event->kind == ProgressEvent::Kind::kCache) {
        cache_reports[attempt.info.shard] = {event->hits, event->misses};
      }
    }
    if (any_event) scheduler.on_event(attempt.info.shard, now_s());
  };

  /// Exit 0 is a claim, not proof: an attempt's local output — written
  /// by the worker or fetched from its host — becomes the durable shard
  /// file only once it passes the integrity checks (trailer, banner,
  /// row count) and is renamed into place. A torn write or a corrupt
  /// transfer becomes a classified, retryable failure here instead of
  /// poisoning the merge or a later resume.
  const auto publish = [&](const WorkerAttempt& info) {
    const obs::ObsSpan span("publish", "orch", "shard", info.shard);
    std::string why;
    if (read_intact_shard(info.out_path, wanted.banner,
                          owned_cells(info.shard), documents[info.shard],
                          shard_rows[info.shard], why) &&
        util::rename_durable(info.out_path,
                             (dir / shard_file_name(info.shard)).string(),
                             &why)) {
      return true;
    }
    documents[info.shard].clear();
    shard_rows[info.shard] = {};
    log("shard " + std::to_string(info.shard) + " attempt " +
        std::to_string(info.attempt) + " output from host " + info.host +
        " rejected: " + why);
    return false;
  };

  /// Record a verdict that ended an attempt (or, for pre-merge rot, a
  /// finished shard) in the manifest and the log. False when the run
  /// must stop.
  const auto settle = [&](const Scheduler::Verdict& verdict,
                          const std::string& host) {
    const std::string shard = std::to_string(verdict.shard);
    const std::string attempt = std::to_string(verdict.attempt);
    if (verdict.kind == Scheduler::Verdict::Kind::kDone) {
      manifest_log.append_line(
          RunManifest::done_line(verdict.shard, shard_file_name(verdict.shard)));
      log("shard " + shard + " done (attempt " + attempt + "; shards " +
          std::to_string(shards - scheduler.incomplete()) + "/" +
          std::to_string(shards) + ")");
      return true;
    }
    // Every failed attempt lands in the manifest for post-mortem.
    manifest_log.append_line(
        RunManifest::fail_line(verdict.shard, verdict.attempt, verdict.cause));
    if (verdict.transport) {
      log("shard " + shard + " attempt " + attempt + " " + verdict.cause +
          " on host " + host +
          "; charged to the host, not the shard's retry budget");
    } else {
      log("shard " + shard + " attempt " + attempt + " " + verdict.cause +
          " (failure " + std::to_string(verdict.failures) + "/" +
          std::to_string(options.retries + 1) + ")");
    }
    if (verdict.kind == Scheduler::Verdict::Kind::kAbort) {
      fail("shard " + shard + " failed " + std::to_string(verdict.failures) +
           " time(s); retry budget exhausted");
      return false;  // LiveAttempt destructors kill the fleet.
    }
    if (telemetry) recorder.instant("retry", "orch", "shard", verdict.shard);
    log("shard " + shard + " re-queued" +
        (verdict.backoff_s > 0.0
             ? " (backoff " + util::format_double(verdict.backoff_s) + "s)"
             : ""));
    return true;
  };

  /// The scheduler's counters plus the fleet's cache tally: the sum of
  /// each shard's latest report.
  const auto run_stats = [&] {
    OrchestrateStats stats = scheduler.stats();
    for (const auto& [hits, misses] : cache_reports) {
      stats.cache_hits += hits;
      stats.cache_misses += misses;
    }
    return stats;
  };

  /// Build the one-line run summary, log it, append it to the manifest
  /// as an `info` audit line, and store it and the stats in the result.
  /// Called once, on every exit path past the manifest's opening.
  const auto emit_summary = [&] {
    result.stats = run_stats();
    // The third counter is retired and always 0; it stays so the
    // summary keeps the key set existing parsers read.
    std::string s =
        "run summary: wall=" +
        util::format_double(elapsed_s(wall_start, Clock::now())) + "s " +
        scheduler.tally() +
        " speculative=0 resumed=" + std::to_string(result.stats.resumed);
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

  /// The argv of an attempt's one fetch child: options.fetch's pull of
  /// the shard file or, on a traced run, one /bin/sh script of the
  /// shard, metrics and trace pulls, a line each, in that order. Its
  /// exit status decides nothing: publish judges the shard by the bytes
  /// that arrived, and write_telemetry each telemetry file.
  const auto fetch_command = [&](const WorkerAttempt& info) {
    auto argv = options.fetch(info);
    if (!telemetry) return argv;
    std::string script = shell_join(argv);
    WorkerAttempt file = info;
    for (const std::string& local : {info.metrics_path, info.trace_path}) {
      file.out_path = local;
      script += "\n" + shell_join(options.fetch(file));
    }
    return std::vector<std::string>{"/bin/sh", "-c", script};
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
      // Fleet-level rollups under the orchestrator's own namespace (the
      // workers' sweep.*/cache.* counters arrive via their metrics files
      // and must not be double-counted here).
      const auto stats = run_stats();
      metrics.counter("orch.attempts").add(stats.attempts);
      metrics.counter("orch.retried").add(stats.retried);
      metrics.counter("orch.resumed").add(stats.resumed);
      metrics.counter("orch.cache_hits").add(stats.cache_hits);
      metrics.counter("orch.cache_misses").add(stats.cache_misses);
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

  /// One reaped process of a live attempt: fold its last output, close
  /// its span, and act on the scheduler's verdict — start the fetch
  /// child, publish the output, finalize or fail. False when the run
  /// must stop.
  const auto reap = [&](std::size_t i, const ExitStatus& status) {
    LiveAttempt& attempt = live[i];
    const std::size_t shard = attempt.info.shard;
    drain(attempt);
    if (telemetry) {
      const bool fetched = attempt.fetch.has_value();
      const std::uint64_t start =
          fetched ? attempt.fetch_usec : attempt.launch_usec;
      recorder.complete_at(fetched ? "fetch" : "attempt", "orch", start,
                           recorder.now_usec() - start, "shard", shard);
    }
    auto verdict =
        scheduler.on_exit(shard, status.code, status.signaled, now_s());
    if (verdict.kind == Scheduler::Verdict::Kind::kFetch) {
      try {
        attempt.fetch.emplace(ChildProcess::spawn(fetch_command(attempt.info)));
        if (telemetry) attempt.fetch_usec = recorder.now_usec();
        log("shard " + std::to_string(shard) + " attempt " +
            std::to_string(attempt.info.attempt) +
            " worker done; fetching from host " + attempt.info.host);
        return true;
      } catch (const std::exception& error) {
        log("shard " + std::to_string(shard) + " attempt " +
            std::to_string(attempt.info.attempt) +
            ": cannot spawn fetch: " + std::string(error.what()));
        verdict = scheduler.on_exit(shard, 127, false, now_s());
      }
    }
    if (verdict.kind == Scheduler::Verdict::Kind::kPublish) {
      verdict = scheduler.on_output(shard, publish(attempt.info), now_s());
    }
    const LiveAttempt ended = std::move(attempt);
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    // Whatever was not published is garbage now, and so is every
    // worker-side copy, whatever the verdict.
    fs::remove(ended.info.out_path, ec);
    for (const std::string& local : {ended.info.out_path, ended.info.trace_path,
                                     ended.info.metrics_path}) {
      if (ended.info.fetch_step && !local.empty()) {
        fs::remove(ended.info.worker_path(local), ec);
      }
    }
    const bool go_on = settle(verdict, ended.info.host);
    audit_fleet();
    return go_on;
  };

  /// The scheduling loop. True once every shard is done and passed the
  /// pre-merge check, with `shard_rows` filled; false when the run must
  /// stop.
  const auto schedule = [&] {
    while (true) {
      while (scheduler.incomplete() > 0) {
        // Refill every free slot before the next poll.
        while (const auto placed = scheduler.launch(now_s())) {
          launch(*placed);
        }
        audit_fleet();
        if (live.empty()) {
          if (scheduler.fleet_dead()) {
            // The hard stop: every host dead, shards incomplete, no
            // attempt in flight. The manifest already audits every
            // quarantine and `host <name> dead` transition, and its
            // `done` lines make the run resumable once the fleet
            // recovers.
            const std::string hosts = std::to_string(scheduler.fleet().size());
            const std::string left = std::to_string(scheduler.incomplete());
            result.fleet_dead = true;
            log("fleet exhausted: all " + hosts + " host(s) dead, " + left +
                " shard(s) incomplete; stopping (resume with --resume "
                "once hosts recover)");
            fail("all " + hosts + " host(s) are dead with " + left +
                 " shard(s) incomplete; the manifest is resumable — "
                 "re-run with --resume once the fleet recovers");
            return false;
          }
          // Every incomplete shard is backing off (or waiting on a
          // host re-probe); sleep exactly until the earliest wake.
          ::poll(nullptr, 0, scheduler.next_wake_ms(now_s()));
          continue;
        }

        // A child's pipe can reach EOF (and close) before waitpid can
        // reap it, leaving nothing of it to poll: while any live child
        // has no open pipe, recheck after 1 ms rather than sleep the
        // tick. A worker that closed stdout but runs on costs one
        // wake-up per millisecond until it exits or a deadline kills it.
        std::vector<pollfd> fds;
        fds.reserve(live.size());
        for (auto& attempt : live) {
          const int fd = attempt.process().stdout_fd();
          if (fd >= 0) fds.push_back(pollfd{fd, POLLIN, 0});
        }
        ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
               fds.size() < live.size() ? 1
                                        : scheduler.next_wake_ms(now_s()));

        for (auto& attempt : live) drain(attempt);

        for (const auto& expired : scheduler.expire(now_s())) {
          const std::string what =
              expired.expired == Scheduler::Deadline::kTimeout
                  ? "exceeded " + util::format_double(options.timeout_s) +
                        "s, killing"
              : expired.expired == Scheduler::Deadline::kStall
                  ? "silent for " +
                        util::format_double(options.stall_timeout_s) +
                        "s, killing (stalled)"
                  : "fetch exceeded its budget, killing";
          log("shard " + std::to_string(expired.shard) + " attempt " +
              std::to_string(expired.attempt) + " " + what);
          std::find_if(live.begin(), live.end(), [&](const LiveAttempt& a) {
            return a.info.shard == expired.shard;
          })->process().kill();
        }

        for (std::size_t i = live.size(); i-- > 0;) {
          const auto status = live[i].process().try_reap();
          if (status.has_value() && !reap(i, *status)) return false;
        }
      }

      // --- pre-merge verification -----------------------------------
      // Every shard file was verified when it landed, but a resume may
      // race external tampering and a finalized file can rot between
      // fsync and merge; re-verify, and recompute — don't abort — any
      // bad shard before trusting its bytes. A file still equal to the
      // bytes resume or publish accepted is not read again; a changed
      // one takes the full check.
      std::vector<std::size_t> bad;
      {
        const obs::ObsSpan span("verify", "orch", "shards", shards);
        for (std::size_t shard = 0; shard < shards; ++shard) {
          std::string why;
          if (read_intact_shard(dir / shard_file_name(shard), wanted.banner,
                                owned_cells(shard), documents[shard],
                                shard_rows[shard], why)) {
            continue;
          }
          log("pre-merge: shard " + std::to_string(shard) + " is invalid (" +
              why + "); recomputing");
          bad.push_back(shard);
        }
      }
      if (bad.empty()) return true;
      for (const std::size_t shard : bad) {
        fs::remove(dir / shard_file_name(shard), ec);
        if (!settle(scheduler.on_rot(shard, now_s()), "")) return false;
      }
    }
  };

  /// Merge the accepted shard rows into merged.csv. True when it was
  /// written.
  const auto merge = [&] {
    const obs::ObsSpan span("merge", "orch", "cells", grid);
    std::vector<std::string> names;
    names.reserve(shards);
    for (std::size_t shard = 0; shard < shards; ++shard) {
      names.push_back((dir / shard_file_name(shard)).string());
    }
    auto merged = corridor::merge_rows(shard_rows, names);
    if (!merged.ok) {
      result.contract_violation = merged.contract_violation;
      for (auto& error : merged.errors) {
        result.errors.push_back(std::move(error));
      }
      return false;
    }

    const fs::path merged_path = dir / "merged.csv";
    std::string error;
    const std::size_t body = merged.merged.size();
    util::append_integrity_trailer(merged.merged);
    const bool written =
        util::atomic_write_file(merged_path.string(), merged.merged, &error);
    merged.merged.resize(body);
    if (!written) {
      fail("cannot write merged output: " + error);
      return false;
    }
    result.ok = true;
    result.merged_path = merged_path.string();
    result.merged = std::move(merged.merged);
    return true;
  };

  // The merge span closes before write_telemetry serializes this
  // process's own trace.
  if (schedule() && merge()) {
    write_telemetry();
    log("merged " + std::to_string(grid) + " cells from " +
        std::to_string(shards) + " shard(s) into " + result.merged_path);
  }
  emit_summary();
  return result;
}

}  // namespace railcorr::orch
