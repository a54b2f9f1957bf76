/// \file railcorr_cli.cpp
/// \brief The `railcorr` command-line tool: declarative scenario runs,
///        sharded corridor sweeps, and the multi-process orchestrator.
///
/// Subcommands:
///   list                           registry catalog
///   show   [scenario selection]    resolved ScenarioSpec of a scenario
///   run    [scenario selection]    full paper evaluation of a scenario
///   sweep  --plan FILE [--shard i/N] [--out FILE]
///                                  evaluate (a shard of) a sweep grid
///   merge  [--out FILE] SHARD...   merge shard files, enforcing the
///                                  cross-shard determinism contract
///   orchestrate --plan FILE --out-dir DIR | --resume DIR
///                                  shard a grid across a local worker
///                                  fleet with retry + resume
///   cache  stats|verify|gc --dir DIR
///                                  inspect / repair / bound the
///                                  content-addressed result cache
///   trace  merge|stats FILE...     merge per-worker .trace files into
///                                  one Perfetto timeline / summarize
///                                  them
///
/// `--trace FILE` / `--metrics FILE` (sweep) and `--trace-dir DIR`
/// (orchestrate) turn on run telemetry (src/obs): span traces in
/// Chrome trace-event JSON and a counters/histograms rollup. Telemetry
/// is inert by contract — every result artifact is byte-identical with
/// or without it.
///
/// `--cache-dir DIR` (sweep / orchestrate) attaches a content-addressed
/// result store (src/cache): cells whose rows are already cached skip
/// evaluation, evaluated cells are published for the next run, and the
/// output stays byte-identical either way.
///
/// Scenario selection (show / run): `--scenario NAME` picks a registry
/// entry (default: paper), `--spec FILE` loads a ScenarioSpec document
/// on top, and repeated `--set key=value` apply final overrides.
///
/// `--accuracy bitexact` (run / sweep / orchestrate) names the one
/// numeric contract every result is computed in; it is accepted so
/// existing command lines keep working, and any other value is an
/// error.
///
/// Exit codes: 0 success; 1 usage/configuration error; 2 determinism
/// contract violation reported by merge or orchestrate, or a refused
/// `orchestrate --resume` (plan-fingerprint / banner mismatch).
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/result_cache.hpp"
#include "core/evaluator.hpp"
#include "core/report.hpp"
#include "core/scenario_registry.hpp"
#include "core/scenario_spec.hpp"
#include "core/sweep_runner.hpp"
#include "corridor/multi_segment.hpp"
#include "corridor/planner.hpp"
#include "corridor/sweep.hpp"
#include "exec/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "orch/faultpoint.hpp"
#include "orch/orchestrator.hpp"
#include "orch/process.hpp"
#include "orch/progress.hpp"
#include "orch/remote.hpp"
#include "util/config.hpp"
#include "util/contracts.hpp"
#include "util/durable_io.hpp"
#include "util/table.hpp"

namespace {

using railcorr::util::ConfigError;

int usage(std::ostream& os) {
  os << "usage: railcorr <command> [options]\n"
        "\n"
        "commands:\n"
        "  list                      scenario registry catalog\n"
        "  show [selection]          print the resolved ScenarioSpec\n"
        "  run  [selection] [--isd-source model|paper] [--accuracy MODE]\n"
        "                            run the full paper evaluation\n"
        "  sweep --plan FILE [--shard i/N] [--out FILE]\n"
        "        [--include-sizing] [--threads N] [--accuracy MODE]\n"
        "        [--progress] [--heartbeat SECONDS] [--fault SPEC]\n"
        "        [--cache-dir DIR] [--cache-max-mb N]\n"
        "        [--trace FILE] [--metrics FILE]\n"
        "                            evaluate (a shard of) a sweep grid;\n"
        "                            --progress streams the worker line\n"
        "                            protocol on stdout (requires --out);\n"
        "                            --heartbeat emits a liveness line\n"
        "                            this often while the shard computes;\n"
        "                            --out files carry a crash-safe\n"
        "                            @railcorr-crc integrity trailer;\n"
        "                            --cache-dir serves already-computed\n"
        "                            cells from a content-addressed store\n"
        "                            (byte-identical by contract);\n"
        "                            --fault arms a named fault point\n"
        "                            (torn-write=N, corrupt-trailer,\n"
        "                            stall=N, kill=N, cache-torn-write=N,\n"
        "                            cache-corrupt-segment, cache-evict,\n"
        "                            launch-refused, host-flap=N,\n"
        "                            transfer-torn=N, transfer-stalled;\n"
        "                            also RAILCORR_FAULT)\n"
        "  merge [--out FILE] SHARD_FILE...\n"
        "                            merge shards (integrity trailers\n"
        "                            verified+stripped); exit 2 on\n"
        "                            determinism contract violations\n"
        "  orchestrate --plan FILE --out-dir DIR [--workers N] [--shards N]\n"
        "              [--retries N] [--timeout SECONDS]\n"
        "              [--stall-timeout SECONDS] [--backoff SECONDS]\n"
        "              [--include-sizing]\n"
        "              [--threads N[,N...]] [--accuracy MODE]\n"
        "              [--chaos-seed N] [--out FILE]\n"
        "              [--cache-dir DIR] [--cache-max-mb N]\n"
        "              [--hosts H1,H2,...] [--launcher TEMPLATE]\n"
        "              [--fetch TEMPLATE] [--fetch-timeout SECONDS]\n"
        "              [--trace-dir DIR]\n"
        "  orchestrate --resume DIR [same options]\n"
        "                            evaluate a grid with a worker fleet:\n"
        "                            shard queue, failure retry, live\n"
        "                            progress, resumable manifest;\n"
        "                            --threads N,N,... assigns per-slot\n"
        "                            (per-host with --hosts) thread\n"
        "                            counts; --stall-timeout kills\n"
        "                            progress-silent workers; --chaos-seed\n"
        "                            runs a deterministic fault storm;\n"
        "                            --cache-dir shares one result store\n"
        "                            across the fleet (hit/miss tallies\n"
        "                            in the summary);\n"
        "                            --hosts places attempts on a fleet\n"
        "                            (the name 'local' means plain\n"
        "                            fork/exec), --launcher wraps worker\n"
        "                            command lines (placeholders {host}\n"
        "                            {cmd}, e.g. 'ssh {host} {cmd}'),\n"
        "                            --fetch pulls each remote shard back\n"
        "                            ({host} {remote} {local}, e.g.\n"
        "                            'scp {host}:{remote} {local}') and\n"
        "                            verifies it before acceptance\n"
        "  cache stats  --dir DIR    segment/entry/byte counts + corrupt\n"
        "  cache verify --dir DIR [--strict]\n"
        "                            verify every segment, dropping any\n"
        "                            corrupt one; --strict exits 1 if a\n"
        "                            corrupt segment was found\n"
        "  cache gc     --dir DIR --max-mb N\n"
        "                            evict least-recently-used segments\n"
        "                            until the store fits N MiB\n"
        "  trace merge [--out FILE] TRACE_FILE...\n"
        "                            merge worker .trace files into one\n"
        "                            Perfetto-loadable timeline (every\n"
        "                            input parsed up front; any malformed\n"
        "                            file exits 1 with no output written)\n"
        "  trace stats TRACE_FILE... per-file event/span/instant counts,\n"
        "                            then each span name's count and\n"
        "                            total usec, largest total first\n"
        "\n"
        "run telemetry: `sweep --trace FILE --metrics FILE` records span\n"
        "traces + metrics for one worker; `orchestrate --trace-dir DIR`\n"
        "collects per-attempt telemetry for the whole fleet and merges\n"
        "it into DIR/trace.json + DIR/run_metrics.json on success.\n"
        "Telemetry never changes result bytes.\n"
        "\n"
        "scenario selection (show/run):\n"
        "  --scenario NAME           registry entry (default: paper)\n"
        "  --spec FILE               apply a ScenarioSpec document\n"
        "  --set KEY=VALUE           apply one override (repeatable)\n"
        "\n"
        "--accuracy MODE accepts only 'bitexact', the one numeric\n"
        "contract (byte-stable everywhere).\n";
  return 1;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ConfigError("cannot read '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_output(const std::optional<std::string>& path,
                  const std::string& content) {
  if (!path.has_value()) {
    std::cout << content;
    return;
  }
  std::ofstream out(*path, std::ios::binary);
  if (!out) throw ConfigError("cannot write '" + *path + "'");
  out << content;
}

/// Write a grid document (shard or merged CSV) durably: crash-safe
/// atomic rename plus the `@railcorr-crc` integrity trailer, so a torn
/// write or later bit rot is detected instead of merged. Stdout stays
/// trailer-free — trailers are a property of files at rest, and piped
/// consumers should not need to strip them.
void write_grid_output(const std::optional<std::string>& path,
                       const std::string& content) {
  if (!path.has_value()) {
    std::cout << content;
    return;
  }
  std::string error;
  if (!railcorr::util::atomic_write_file(
          *path, railcorr::util::with_integrity_trailer(content), &error)) {
    throw ConfigError("cannot write '" + *path + "': " + error);
  }
}

/// Strip `--accuracy bitexact` from `args`. Shared by run / sweep /
/// orchestrate; 'bitexact' is the only numeric contract, so any other
/// value is rejected.
void apply_accuracy_option(std::vector<std::string>& args) {
  std::vector<std::string> rest;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] != "--accuracy") {
      rest.push_back(args[i]);
      continue;
    }
    const std::string value = i + 1 < args.size() ? args[++i] : "";
    if (value != "bitexact") {
      throw ConfigError("--accuracy accepts only 'bitexact', got '" + value +
                        "'");
    }
  }
  args = std::move(rest);
}

railcorr::util::SpecEntry parse_set_option(const std::string& text) {
  const std::size_t eq = text.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= text.size()) {
    throw ConfigError("--set expects KEY=VALUE, got '" + text + "'");
  }
  railcorr::util::SpecEntry entry;
  entry.key = text.substr(0, eq);
  entry.value = text.substr(eq + 1);
  return entry;
}

/// Common `--scenario / --spec / --set` handling; consumed args are
/// removed from `args`.
railcorr::core::Scenario select_scenario(std::vector<std::string>& args) {
  std::string name = "paper";
  std::optional<std::string> spec_path;
  std::vector<railcorr::util::SpecEntry> overrides;
  std::vector<std::string> rest;
  for (std::size_t i = 0; i < args.size(); ++i) {
    auto value_of = [&](const char* option) {
      if (i + 1 >= args.size()) {
        throw ConfigError(std::string(option) + " expects an argument");
      }
      return args[++i];
    };
    if (args[i] == "--scenario") {
      name = value_of("--scenario");
    } else if (args[i] == "--spec") {
      spec_path = value_of("--spec");
    } else if (args[i] == "--set") {
      overrides.push_back(parse_set_option(value_of("--set")));
    } else {
      rest.push_back(args[i]);
    }
  }
  args = std::move(rest);

  railcorr::core::Scenario scenario = railcorr::core::make_scenario(name);
  if (spec_path.has_value()) {
    railcorr::core::apply_spec(scenario, read_file(*spec_path));
  }
  for (const auto& entry : overrides) {
    railcorr::core::apply_override(scenario, entry);
  }
  return scenario;
}

int cmd_list() {
  railcorr::TextTable table("Scenario registry");
  table.set_header({"name", "summary"});
  for (const auto& variant : railcorr::core::scenario_registry()) {
    table.add_row({variant.name, variant.summary});
  }
  std::cout << table << "\nFields: railcorr show --scenario <name>\n";
  return 0;
}

int cmd_show(std::vector<std::string> args) {
  const auto scenario = select_scenario(args);
  if (!args.empty()) throw ConfigError("show: unknown option '" + args[0] + "'");
  std::cout << railcorr::core::to_spec(scenario);
  return 0;
}

int cmd_run(std::vector<std::string> args) {
  apply_accuracy_option(args);
  auto scenario = select_scenario(args);
  auto source = railcorr::corridor::IsdSource::kModelSearch;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--isd-source") {
      if (i + 1 >= args.size()) {
        throw ConfigError("--isd-source expects 'model' or 'paper'");
      }
      const std::string& value = args[++i];
      if (value == "model") {
        source = railcorr::corridor::IsdSource::kModelSearch;
      } else if (value == "paper") {
        source = railcorr::corridor::IsdSource::kPaperPublished;
      } else {
        throw ConfigError("--isd-source expects 'model' or 'paper'");
      }
    } else {
      throw ConfigError("run: unknown option '" + args[i] + "'");
    }
  }

  const railcorr::core::PaperEvaluator evaluator(scenario);
  const auto results = evaluator.run_all(source, /*include_fig3=*/false);
  std::cout << railcorr::core::max_isd_table(results.max_isd) << "\n"
            << railcorr::core::fig4_table(results.fig4) << "\n"
            << railcorr::core::table3_traffic(results.traffic) << "\n"
            << railcorr::core::table4_solar(results.table4) << "\n";

  if (scenario.corridor_segments > 1 && !results.max_isd.empty() &&
      results.max_isd.back().max_isd_m.has_value()) {
    railcorr::corridor::SegmentDeployment segment;
    segment.geometry.isd_m = *results.max_isd.back().max_isd_m;
    segment.geometry.repeater_count = results.max_isd.back().repeater_count;
    segment.geometry.repeater_spacing_m = scenario.repeater_spacing_m;
    segment.radio = scenario.radio;
    const railcorr::corridor::MultiSegmentAnalyzer analyzer(
        scenario.link, scenario.isd_search.sample_step_m);
    const auto per_segment = analyzer.per_segment(
        railcorr::corridor::CorridorDeployment::repeat(
            segment, scenario.corridor_segments));
    railcorr::TextTable table("Multi-segment corridor (" +
                              std::to_string(scenario.corridor_segments) +
                              " segments at the deepest layout)");
    table.set_header({"segment", "min SNR [dB]", "mean SNR [dB]"});
    for (const auto& seg : per_segment) {
      table.add_row({std::to_string(seg.segment_index),
                     railcorr::TextTable::num(seg.min_snr.value()),
                     railcorr::TextTable::num(seg.mean_snr_db.value())});
    }
    std::cout << table << "\n";
  }
  return 0;
}

/// Parse a decimal size_t CLI value via the spec machinery (uniform
/// error messages).
std::size_t parse_u64_option(const char* option, const std::string& value) {
  railcorr::util::SpecEntry entry;
  entry.key = option;
  entry.value = value;
  return static_cast<std::size_t>(railcorr::util::parse_u64(entry));
}

/// Write one sweep shard document to `out_path`, honoring any armed
/// write-side fault points. The faults simulate exactly the failure the
/// durability layer must survive: a torn write leaves a prefix of the
/// document claiming success (exit 0), a corrupted trailer leaves a
/// full-length file whose checksum lies. Both bypass atomic_write_file
/// on purpose — a fault-free write must be atomic, a faulty one must be
/// visible to the orchestrator's verification, not hidden by rename.
void write_shard_output(const std::string& out_path,
                        const std::string& document) {
  auto& faults = railcorr::orch::FaultInjector::instance();
  std::string trailered = railcorr::util::with_integrity_trailer(document);
  if (const auto torn = faults.armed(railcorr::orch::FaultKind::kTornWrite)) {
    trailered.resize(std::min(trailered.size(), std::max<std::size_t>(1,
                                                                      *torn)));
    write_output(out_path, trailered);
    return;
  }
  if (faults.armed(railcorr::orch::FaultKind::kCorruptTrailer).has_value()) {
    // Flip one hex digit of the trailer: the document body stays
    // structurally perfect (banner, rows, row count all check out), so
    // only the checksum verification can catch it.
    const std::size_t digit = trailered.size() - 2;  // last digit, pre-'\n'
    trailered[digit] = trailered[digit] == '0' ? '1' : '0';
    write_output(out_path, trailered);
    return;
  }
  std::string error;
  if (!railcorr::util::atomic_write_file(out_path, trailered, &error)) {
    throw ConfigError("cannot write '" + out_path + "': " + error);
  }
}

int cmd_sweep(std::vector<std::string> args) {
  apply_accuracy_option(args);
  std::optional<std::string> plan_path;
  std::optional<std::string> out_path;
  std::optional<std::string> cache_dir;
  std::optional<std::string> trace_path;
  std::optional<std::string> metrics_path;
  std::size_t cache_max_mb = 0;
  railcorr::corridor::ShardSpec shard;
  railcorr::core::SweepRunOptions options;
  bool progress = false;
  double heartbeat_s = 0.0;
  auto& faults = railcorr::orch::FaultInjector::instance();
  faults.arm_from_env();
  for (std::size_t i = 0; i < args.size(); ++i) {
    auto value_of = [&](const char* option) {
      if (i + 1 >= args.size()) {
        throw ConfigError(std::string(option) + " expects an argument");
      }
      return args[++i];
    };
    if (args[i] == "--plan") {
      plan_path = value_of("--plan");
    } else if (args[i] == "--shard") {
      shard = railcorr::corridor::ShardSpec::parse(value_of("--shard"));
    } else if (args[i] == "--out") {
      out_path = value_of("--out");
    } else if (args[i] == "--include-sizing") {
      options.include_sizing = true;
    } else if (args[i] == "--progress") {
      progress = true;
    } else if (args[i] == "--heartbeat") {
      // Periodic liveness lines on the progress stream: a supervisor's
      // --stall-timeout can then tell a slow shard (heartbeats keep
      // flowing while its cell lines wait for the stages) from a dead
      // transport (silence).
      railcorr::util::SpecEntry entry;
      entry.key = "--heartbeat";
      entry.value = value_of("--heartbeat");
      heartbeat_s = railcorr::util::parse_double(entry);
      if (heartbeat_s <= 0) {
        throw ConfigError("--heartbeat must be > 0 seconds");
      }
    } else if (args[i] == "--fault") {
      // Seeded fault injection (chaos testing): arm a named failure —
      // torn-write=N, corrupt-trailer, stall=N, kill=N. Also armable
      // via RAILCORR_FAULT for workers the orchestrator launches.
      faults.arm(railcorr::orch::parse_fault_spec(value_of("--fault")));
    } else if (args[i] == "--threads") {
      railcorr::exec::set_default_thread_count(
          parse_u64_option("--threads", value_of("--threads")));
    } else if (args[i] == "--cache-dir") {
      cache_dir = value_of("--cache-dir");
    } else if (args[i] == "--cache-max-mb") {
      cache_max_mb =
          parse_u64_option("--cache-max-mb", value_of("--cache-max-mb"));
    } else if (args[i] == "--trace") {
      trace_path = value_of("--trace");
    } else if (args[i] == "--metrics") {
      metrics_path = value_of("--metrics");
    } else {
      throw ConfigError("sweep: unknown option '" + args[i] + "'");
    }
  }
  // Telemetry turns on before any instrumented work (cache open, cell
  // evaluation). It is inert by contract: the recorder/registry write
  // only to their own files, after the shard document is out.
  if (trace_path.has_value()) railcorr::obs::TraceRecorder::instance().enable();
  if (metrics_path.has_value()) {
    railcorr::obs::MetricsRegistry::instance().enable();
  }
  if (!plan_path.has_value()) throw ConfigError("sweep: --plan FILE required");
  if (progress && !out_path.has_value()) {
    throw ConfigError(
        "sweep: --progress requires --out (stdout carries the protocol)");
  }
  if (heartbeat_s > 0 && !progress) {
    throw ConfigError(
        "sweep: --heartbeat requires --progress (heartbeats ride the "
        "protocol stream)");
  }
  if (cache_max_mb != 0 && !cache_dir.has_value()) {
    throw ConfigError("sweep: --cache-max-mb requires --cache-dir");
  }

  if (faults.armed(railcorr::orch::FaultKind::kLaunchRefused).has_value()) {
    // ssh's connect-refused signature: exit 255 before any protocol
    // event, before touching the plan — the supervisor must charge
    // this to the host's health, not the shard's retry budget.
    return 255;
  }

  const auto plan =
      railcorr::corridor::SweepPlan::from_spec(read_file(*plan_path));

  railcorr::cache::ResultCache cache;
  if (cache_dir.has_value()) {
    railcorr::cache::ResultCache::Options cache_options;
    cache_options.dir = *cache_dir;
    cache_options.max_bytes = cache_max_mb * std::size_t{1024} * 1024;
    std::string error;
    if (!cache.open(cache_options, &error)) {
      throw ConfigError("sweep: " + error);
    }
    options.cache = &cache;
  }

  const std::size_t owned = shard.indices(plan.size()).size();
  if (progress) {
    std::cout << railcorr::orch::banner_line(
                     railcorr::corridor::shard_banner(plan))
              << std::endl;
    std::cout << railcorr::orch::start_line(shard.index, shard.count, owned)
              << std::endl;
  }
  // The heartbeat timer thread and the evaluator's progress callback
  // both write protocol lines to stdout; one mutex keeps every line
  // whole. The thread starts after the banner/start lines and stops
  // before the cache/done lines, so only cell lines need the lock.
  auto protocol_mutex = std::make_shared<std::mutex>();
  std::optional<railcorr::orch::HeartbeatThread> heartbeat;
  if (heartbeat_s > 0) {
    heartbeat.emplace(heartbeat_s, [protocol_mutex](const std::string& line) {
      std::lock_guard<std::mutex> lock(*protocol_mutex);
      std::cout << line << std::endl;
    });
  }
  auto* heartbeat_ptr = heartbeat.has_value() ? &*heartbeat : nullptr;
  const auto kill_after = faults.armed(railcorr::orch::FaultKind::kKillAfterCells);
  const auto stall_after = faults.armed(railcorr::orch::FaultKind::kStall);
  const auto flap_after = faults.armed(railcorr::orch::FaultKind::kHostFlap);
  if (progress || kill_after.has_value() || stall_after.has_value() ||
      flap_after.has_value()) {
    options.progress = [progress, kill_after, stall_after, flap_after,
                        protocol_mutex, heartbeat_ptr](
                           std::size_t index, std::size_t done,
                           std::size_t total) {
      if (progress) {
        std::lock_guard<std::mutex> lock(*protocol_mutex);
        std::cout << railcorr::orch::cell_line(index, done, total)
                  << std::endl;
      }
      if (kill_after.has_value() &&
          done >= std::max<std::size_t>(1, *kill_after)) {
        std::cout.flush();
        ::raise(SIGKILL);
      }
      if (flap_after.has_value() &&
          done >= std::max<std::size_t>(1, *flap_after)) {
        // A flapping host: normal progress so far, then the connection
        // drops — exit 255 mid-shard, no output file, no goodbye. The
        // lock keeps a concurrent heartbeat from being torn mid-line.
        std::lock_guard<std::mutex> lock(*protocol_mutex);
        std::cout.flush();
        ::_exit(255);
      }
      if (stall_after.has_value() &&
          done >= std::max<std::size_t>(1, *stall_after)) {
        // Hang silently, forever: the process stays alive but emits no
        // further protocol events — the shape of a deadlocked worker.
        // The heartbeat must die first (a hung worker that kept
        // heartbeating would defeat the very liveness check this fault
        // exists to exercise); only --stall-timeout can clear us.
        if (heartbeat_ptr != nullptr) heartbeat_ptr->stop();
        std::cout.flush();
        while (true) ::pause();
      }
    };
  }
  const std::string document =
      railcorr::core::run_sweep_shard(plan, shard, options);
  if (heartbeat.has_value()) heartbeat->stop();
  if (out_path.has_value()) {
    write_shard_output(*out_path, document);
  } else {
    std::cout << document;
  }
  // Telemetry files land strictly after the shard document: a crash
  // while writing them can tear a trace, never a result, and the
  // orchestrator treats a torn trace as a lost lane, not a retry.
  if (trace_path.has_value()) {
    std::string error;
    if (!railcorr::util::atomic_write_file(
            *trace_path,
            railcorr::util::with_integrity_trailer(
                railcorr::obs::TraceRecorder::instance().serialize()),
            &error)) {
      std::cerr << "sweep: cannot write trace '" << *trace_path
                << "': " << error << "\n";
    }
  }
  if (metrics_path.has_value()) {
    std::string error;
    if (!railcorr::util::atomic_write_file(
            *metrics_path,
            railcorr::util::with_integrity_trailer(
                railcorr::obs::MetricsRegistry::instance().snapshot_json()),
            &error)) {
      std::cerr << "sweep: cannot write metrics '" << *metrics_path
                << "': " << error << "\n";
    }
  }
  if (progress) {
    if (cache.is_open()) {
      std::cout << railcorr::orch::cache_line(cache.stats().hits,
                                              cache.stats().misses)
                << std::endl;
    }
    std::cout << railcorr::orch::done_line(owned) << std::endl;
  } else if (cache.is_open() && out_path.has_value()) {
    // Human-facing runs report the tallies on stderr, leaving stdout's
    // document byte-identical to a cache-less run.
    std::cerr << "sweep: cache " << cache.stats().hits << " hit(s) / "
              << cache.stats().misses << " miss(es)\n";
  }
  return 0;
}

int cmd_merge(std::vector<std::string> args) {
  std::optional<std::string> out_path;
  std::vector<std::string> shard_paths;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--out") {
      if (i + 1 >= args.size()) throw ConfigError("--out expects an argument");
      out_path = args[++i];
    } else {
      shard_paths.push_back(args[i]);
    }
  }
  if (shard_paths.empty()) {
    throw ConfigError("merge: at least one shard file required");
  }

  std::vector<std::string> documents;
  documents.reserve(shard_paths.size());
  for (const auto& path : shard_paths) documents.push_back(read_file(path));

  const auto result = railcorr::corridor::merge_shards(documents, shard_paths);
  if (!result.ok) {
    for (const auto& error : result.errors) {
      std::cerr << "merge: " << error << "\n";
    }
    // Exit 2 is reserved for genuine determinism-contract violations;
    // unreadable/mismatched inputs are usage errors (exit 1), so
    // orchestrators retrying on 2 never mistake a bad download for a
    // nondeterministic shard.
    if (result.contract_violation) {
      std::cerr << "merge: determinism contract violated ("
                << result.errors.size() << " error(s))\n";
      return 2;
    }
    std::cerr << "merge: malformed or mismatched shard input\n";
    return 1;
  }
  write_grid_output(out_path, result.merged);
  return 0;
}

int cmd_orchestrate(std::vector<std::string> args, const char* argv0) {
  apply_accuracy_option(args);
  std::optional<std::string> plan_path;
  std::optional<std::string> out_dir;
  std::optional<std::string> resume_dir;
  std::optional<std::string> out_path;
  std::optional<std::string> cache_dir;
  std::size_t cache_max_mb = 0;
  std::vector<std::size_t> worker_threads;
  std::optional<std::uint64_t> chaos_seed;
  std::optional<std::string> launcher_text;
  std::optional<std::string> fetch_text;
  bool fetch_timeout_given = false;
  railcorr::orch::OrchestrateOptions options;
  for (std::size_t i = 0; i < args.size(); ++i) {
    auto value_of = [&](const char* option) {
      if (i + 1 >= args.size()) {
        throw ConfigError(std::string(option) + " expects an argument");
      }
      return args[++i];
    };
    if (args[i] == "--plan") {
      plan_path = value_of("--plan");
    } else if (args[i] == "--out-dir") {
      out_dir = value_of("--out-dir");
    } else if (args[i] == "--resume") {
      resume_dir = value_of("--resume");
    } else if (args[i] == "--out") {
      out_path = value_of("--out");
    } else if (args[i] == "--workers") {
      options.workers = parse_u64_option("--workers", value_of("--workers"));
      if (options.workers == 0) {
        throw ConfigError("--workers must be at least 1");
      }
    } else if (args[i] == "--shards") {
      options.shards = parse_u64_option("--shards", value_of("--shards"));
    } else if (args[i] == "--retries") {
      options.retries = parse_u64_option("--retries", value_of("--retries"));
    } else if (args[i] == "--timeout") {
      railcorr::util::SpecEntry entry;
      entry.key = "--timeout";
      entry.value = value_of("--timeout");
      options.timeout_s = railcorr::util::parse_double(entry);
      if (options.timeout_s < 0) {
        throw ConfigError("--timeout must be >= 0 seconds");
      }
    } else if (args[i] == "--stall-timeout") {
      // Liveness, not wall-clock: kill a worker whose progress stream
      // has been silent this long (deadlock, fault-injected stall),
      // independently of --timeout.
      railcorr::util::SpecEntry entry;
      entry.key = "--stall-timeout";
      entry.value = value_of("--stall-timeout");
      options.stall_timeout_s = railcorr::util::parse_double(entry);
      if (options.stall_timeout_s < 0) {
        throw ConfigError("--stall-timeout must be >= 0 seconds");
      }
    } else if (args[i] == "--backoff") {
      // Base of the deterministic exponential backoff between a
      // shard's attempts (base * 2^(fails-1), capped); 0 disables.
      railcorr::util::SpecEntry entry;
      entry.key = "--backoff";
      entry.value = value_of("--backoff");
      options.backoff_base_s = railcorr::util::parse_double(entry);
      if (options.backoff_base_s < 0) {
        throw ConfigError("--backoff must be >= 0 seconds");
      }
    } else if (args[i] == "--include-sizing") {
      options.include_sizing = true;
    } else if (args[i] == "--threads") {
      // One value for a homogeneous fleet, or a comma-separated list
      // assigning worker slot k the k-th entry (the last entry repeats
      // for higher slots) — heterogeneous machines give their big
      // cores more threads than their little ones.
      const std::string list = value_of("--threads");
      std::string_view rest = list;
      worker_threads.clear();
      while (!rest.empty()) {
        const std::size_t comma = rest.find(',');
        const std::string token(
            comma == std::string_view::npos ? rest : rest.substr(0, comma));
        rest.remove_prefix(comma == std::string_view::npos ? rest.size()
                                                           : comma + 1);
        worker_threads.push_back(parse_u64_option("--threads", token));
      }
      if (worker_threads.empty()) {
        throw ConfigError("--threads expects N or N,N,...");
      }
    } else if (args[i] == "--chaos-seed") {
      // Seeded chaos mode: derive a deterministic fault schedule over
      // (shard, attempt) and arm each worker accordingly — torn
      // writes, corrupted trailers, stalls, kills. Attempts at or past
      // the retry budget stay clean, so a chaos run always converges,
      // and the merged grid must still be byte-identical to a clean
      // single-process sweep.
      chaos_seed = railcorr::util::parse_u64(railcorr::util::SpecEntry{
          "--chaos-seed", value_of("--chaos-seed"), 0});
    } else if (args[i] == "--cache-dir") {
      cache_dir = value_of("--cache-dir");
    } else if (args[i] == "--cache-max-mb") {
      cache_max_mb =
          parse_u64_option("--cache-max-mb", value_of("--cache-max-mb"));
    } else if (args[i] == "--hosts") {
      options.hosts = railcorr::orch::parse_host_list(value_of("--hosts"));
    } else if (args[i] == "--launcher") {
      launcher_text = value_of("--launcher");
    } else if (args[i] == "--fetch") {
      fetch_text = value_of("--fetch");
    } else if (args[i] == "--fetch-timeout") {
      railcorr::util::SpecEntry entry;
      entry.key = "--fetch-timeout";
      entry.value = value_of("--fetch-timeout");
      options.fetch_timeout_s = railcorr::util::parse_double(entry);
      if (options.fetch_timeout_s < 0) {
        throw ConfigError("--fetch-timeout must be >= 0 seconds");
      }
      fetch_timeout_given = true;
    } else if (args[i] == "--trace-dir") {
      options.trace_dir = value_of("--trace-dir");
    } else {
      throw ConfigError("orchestrate: unknown option '" + args[i] + "'");
    }
  }
  if (cache_max_mb != 0 && !cache_dir.has_value()) {
    throw ConfigError("orchestrate: --cache-max-mb requires --cache-dir");
  }

  // The distributed-flag matrix is validated before any filesystem
  // work, so a misconfigured fleet fails fast with a usage error, not
  // halfway into a run directory.
  if (launcher_text.has_value() && options.hosts.empty()) {
    throw ConfigError(
        "orchestrate: --launcher requires --hosts (a launcher template "
        "without a fleet has nothing to launch onto)");
  }
  if (fetch_text.has_value() && options.hosts.empty()) {
    throw ConfigError(
        "orchestrate: --fetch requires --hosts (fetching only applies to "
        "remote workers)");
  }
  if (fetch_timeout_given && !fetch_text.has_value()) {
    throw ConfigError("orchestrate: --fetch-timeout requires --fetch");
  }
  std::optional<railcorr::orch::LaunchTemplate> launcher;
  if (launcher_text.has_value()) {
    launcher = railcorr::orch::LaunchTemplate::parse(*launcher_text);
  }
  std::optional<railcorr::orch::FetchTemplate> fetch_template;
  if (fetch_text.has_value()) {
    fetch_template = railcorr::orch::FetchTemplate::parse(*fetch_text);
  }
  for (const auto& host : options.hosts) {
    if (host != railcorr::orch::kLocalHost && !launcher.has_value()) {
      throw ConfigError("orchestrate: --hosts lists remote host '" + host +
                        "' but no --launcher template is configured (only "
                        "the reserved name 'local' runs without one)");
    }
  }
  if (!options.hosts.empty() && worker_threads.size() > 1 &&
      worker_threads.size() != options.hosts.size()) {
    throw ConfigError(
        "orchestrate: --threads list (" +
        std::to_string(worker_threads.size()) +
        " entries) must match --hosts (" +
        std::to_string(options.hosts.size()) +
        " host(s)) — with a fleet, thread counts are per host, not per "
        "slot");
  }

  std::string dir;
  std::string plan_file;
  if (resume_dir.has_value()) {
    if (out_dir.has_value()) {
      throw ConfigError("orchestrate: --resume DIR already names the run "
                        "directory; drop --out-dir");
    }
    dir = *resume_dir;
    options.resume = true;
    // The resumed plan is the run directory's canonical copy unless
    // the caller insists on a file (whose fingerprint the manifest
    // check then validates).
    plan_file = plan_path.has_value() ? *plan_path : dir + "/plan.sweep";
  } else {
    if (!plan_path.has_value() || !out_dir.has_value()) {
      throw ConfigError(
          "orchestrate: --plan FILE and --out-dir DIR required (or --resume "
          "DIR)");
    }
    dir = *out_dir;
    plan_file = *plan_path;
  }

  const auto plan =
      railcorr::corridor::SweepPlan::from_spec(read_file(plan_file));

  // Worker command line: re-exec this binary's sweep verb against the
  // run directory's canonical plan. Threads are split across workers so
  // the fleet does not oversubscribe the machine (each worker's
  // evaluator is itself parallel, and its rows are thread-count
  // invariant).
  const std::string self = railcorr::orch::self_executable_path(argv0);
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  // Split cores by the fleet's real width: no more workers can run
  // concurrently than there are shards (small grids and explicit
  // --shards clamp it), so dividing by the raw worker count would idle
  // cores whenever the grid is narrower than the fleet.
  const std::size_t grid = plan.size();
  std::size_t fleet_width = options.workers;
  if (options.shards != 0) fleet_width = std::min(fleet_width, options.shards);
  fleet_width = std::max<std::size_t>(1, std::min(fleet_width, grid));
  if (worker_threads.empty()) {
    worker_threads.push_back(std::max<std::size_t>(1, hw / fleet_width));
  }
  const std::string worker_plan = dir + "/plan.sweep";
  const bool sizing = options.include_sizing;
  const std::size_t retries = options.retries;
  const std::vector<std::string> fleet_hosts = options.hosts;
  // Workers heartbeat at a quarter of the stall budget: a slow shard
  // keeps the liveness stream alive, so --stall-timeout only fires on
  // genuinely dead workers (hung evaluators, dropped transports).
  const double heartbeat_s =
      options.stall_timeout_s > 0
          ? std::max(0.05, options.stall_timeout_s / 4.0)
          : 0.0;
  options.command =
      [self, worker_plan, worker_threads, sizing, chaos_seed, retries,
       cache_dir, cache_max_mb, fleet_hosts, launcher, heartbeat_s](const railcorr::orch::WorkerAttempt& attempt) {
        // Slot k gets the k-th --threads entry — or, when --hosts was
        // given, host k, where thread counts describe machines, not
        // slots; the last entry covers every higher index, so a single
        // value stays homogeneous.
        std::size_t thread_index = attempt.slot;
        for (std::size_t h = 0; h < fleet_hosts.size(); ++h) {
          if (fleet_hosts[h] == attempt.host) {
            thread_index = h;
            break;
          }
        }
        const std::size_t threads = worker_threads[std::min(
            thread_index, worker_threads.size() - 1)];
        // The worker writes to worker_out_path (== out_path except for
        // remote attempts under a fetch step, whose file the fetch
        // command pulls back to out_path afterwards).
        std::vector<std::string> argv = {
            self,
            "sweep",
            "--plan",
            worker_plan,
            "--shard",
            std::to_string(attempt.shard) + "/" +
                std::to_string(attempt.shard_count),
            "--out",
            attempt.worker_out_path,
            "--progress",
            "--threads",
            std::to_string(threads),
        };
        if (sizing) argv.push_back("--include-sizing");
        if (heartbeat_s > 0) {
          argv.push_back("--heartbeat");
          argv.push_back(std::to_string(heartbeat_s));
        }
        // Per-attempt telemetry files (the orchestrator assigned the
        // paths when --trace-dir is set). Extra worker flags cannot
        // perturb the chaos schedule: chaos_fault_for keys on (seed,
        // shard, attempt), never on the argv.
        if (!attempt.worker_trace_path.empty()) {
          argv.push_back("--trace");
          argv.push_back(attempt.worker_trace_path);
          argv.push_back("--metrics");
          argv.push_back(attempt.worker_metrics_path);
        }
        if (cache_dir.has_value()) {
          // The whole fleet shares one store: the segment publish /
          // lock protocol makes concurrent workers safe, and the
          // byte-identity contract makes their hits indistinguishable
          // from recomputes.
          argv.push_back("--cache-dir");
          argv.push_back(*cache_dir);
          if (cache_max_mb != 0) {
            argv.push_back("--cache-max-mb");
            argv.push_back(std::to_string(cache_max_mb));
          }
        }
        // Chaos schedule (see chaos_fault_for, which leaves attempts at
        // or past the retry budget clean). Transfer faults belong to the
        // fetch builder, not the worker.
        if (chaos_seed.has_value()) {
          const auto fault = railcorr::orch::chaos_fault_for(
              *chaos_seed, attempt.shard, attempt.attempt, retries,
              !fleet_hosts.empty(), cache_dir.has_value());
          if (fault.has_value() &&
              fault->kind != railcorr::orch::FaultKind::kTransferTorn &&
              fault->kind != railcorr::orch::FaultKind::kTransferStalled) {
            const std::string spec =
                railcorr::orch::fault_spec_string(*fault);
            std::cerr << "[orchestrate] chaos: shard " << attempt.shard
                      << " attempt " << attempt.attempt << " fault " << spec
                      << "\n";
            argv.push_back("--fault");
            argv.push_back(spec);
          }
        }
        // A remote attempt's command line is wrapped in the launcher
        // template ({cmd} becomes one shell-quoted word); the reserved
        // host 'local' (every attempt of a run without --hosts)
        // fork/execs the argv directly.
        if (launcher.has_value() &&
            attempt.host != railcorr::orch::kLocalHost) {
          return launcher->build(attempt.host, argv);
        }
        return argv;
      };
  if (fetch_template.has_value()) {
    options.fetch = [fetch = *fetch_template, chaos_seed, retries,
                     has_cache = cache_dir.has_value()](
                        const railcorr::orch::WorkerAttempt& attempt)
        -> std::vector<std::string> {
      // The chaos schedule sabotages selected transfers instead of the
      // worker: a torn transfer delivers a prefix of the shard file
      // (the verify-after-fetch step must catch it), a stalled one
      // hangs until the fetch timeout kills it.
      if (chaos_seed.has_value()) {
        const auto fault = railcorr::orch::chaos_fault_for(
            *chaos_seed, attempt.shard, attempt.attempt, retries,
            /*with_hosts=*/true, has_cache);
        if (fault.has_value() &&
            fault->kind == railcorr::orch::FaultKind::kTransferTorn) {
          std::cerr << "[orchestrate] chaos: shard " << attempt.shard
                    << " attempt " << attempt.attempt << " fetch fault "
                    << railcorr::orch::fault_spec_string(*fault) << "\n";
          return {"/bin/sh", "-c",
                  "head -c " + std::to_string(fault->param) + " " +
                      railcorr::orch::shell_quote(attempt.worker_out_path) +
                      " > " +
                      railcorr::orch::shell_quote(attempt.out_path)};
        }
        if (fault.has_value() &&
            fault->kind == railcorr::orch::FaultKind::kTransferStalled) {
          std::cerr << "[orchestrate] chaos: shard " << attempt.shard
                    << " attempt " << attempt.attempt << " fetch fault "
                    << railcorr::orch::fault_spec_string(*fault) << "\n";
          return {"/bin/sh", "-c", "sleep 3600"};
        }
      }
      return fetch.build(attempt.host, attempt.worker_out_path,
                         attempt.out_path);
    };
  }
  options.log = &std::cerr;

  const auto result = railcorr::orch::orchestrate(plan, dir, options);
  if (!result.ok) {
    for (const auto& error : result.errors) {
      std::cerr << "orchestrate: " << error << "\n";
    }
    if (!result.summary.empty()) {
      std::cerr << "orchestrate: " << result.summary << "\n";
    }
    // Exit 2 mirrors merge: determinism-contract violations AND
    // refused resumes (fingerprint / banner mismatch) are
    // "the grid you asked for is not the grid on disk" conditions.
    return (result.contract_violation || result.manifest_mismatch) ? 2 : 1;
  }
  if (out_path.has_value()) write_grid_output(out_path, result.merged);
  // The retired third counter stays, always 0, for parsers of this line.
  std::cout << "orchestrate: merged " << result.merged_path << " ("
            << result.stats.attempts << " attempt(s), "
            << result.stats.retried << " retried, 0 speculative, "
            << result.stats.resumed << " resumed, "
            << result.stats.timed_out << " timed out, "
            << result.stats.stalled << " stalled, "
            << result.stats.corrupt << " corrupt)\n";
  if (!result.summary.empty()) {
    std::cout << "orchestrate: " << result.summary << "\n";
  }
  if (result.stats.cache_hits + result.stats.cache_misses > 0) {
    std::cout << "orchestrate: cache " << result.stats.cache_hits
              << " hit(s) / " << result.stats.cache_misses << " miss(es)\n";
  }
  if (!options.hosts.empty()) {
    std::cout << "orchestrate: transport " << result.stats.launch_refused
              << " refused / " << result.stats.connection_lost << " lost / "
              << result.stats.transfer_corrupt << " corrupt / "
              << result.stats.transfer_stalled << " stalled; hosts "
              << result.stats.host_quarantines << " quarantine(s) / "
              << result.stats.host_recoveries << " recover(ies) / "
              << result.stats.hosts_dead << " dead\n";
  }
  return 0;
}

/// `railcorr cache stats|verify|gc`: offline inspection and maintenance
/// of a content-addressed result store. Exit 0 on success, 1 on usage
/// errors and on `verify --strict` finding corruption.
int cmd_cache(std::vector<std::string> args) {
  if (args.empty()) {
    throw ConfigError("cache: expected a verb (stats, verify, or gc)");
  }
  const std::string verb = args.front();
  args.erase(args.begin());
  if (verb != "stats" && verb != "verify" && verb != "gc") {
    throw ConfigError("cache: unknown verb '" + verb +
                      "' (expected stats, verify, or gc)");
  }

  std::optional<std::string> dir;
  std::optional<std::size_t> max_mb;
  bool strict = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    auto value_of = [&](const char* option) {
      if (i + 1 >= args.size()) {
        throw ConfigError(std::string(option) + " expects an argument");
      }
      return args[++i];
    };
    if (args[i] == "--dir") {
      dir = value_of("--dir");
    } else if (args[i] == "--max-mb" && verb == "gc") {
      max_mb = parse_u64_option("--max-mb", value_of("--max-mb"));
    } else if (args[i] == "--strict" && verb == "verify") {
      strict = true;
    } else {
      throw ConfigError("cache " + verb + ": unknown option '" + args[i] +
                        "'");
    }
  }
  if (!dir.has_value()) {
    throw ConfigError("cache " + verb + ": --dir DIR required");
  }

  if (verb == "gc") {
    if (!max_mb.has_value()) {
      throw ConfigError("cache gc: --max-mb N required");
    }
    const std::size_t evicted =
        railcorr::cache::gc_dir(*dir, *max_mb * std::size_t{1024} * 1024);
    const auto after = railcorr::cache::scan_dir(*dir, /*drop_corrupt=*/false);
    std::cout << "cache gc: evicted " << evicted << " segment(s); "
              << after.segments << " segment(s), " << after.bytes
              << " byte(s) remain\n";
    return 0;
  }

  // stats reports corruption without touching it; verify repairs by
  // dropping every corrupt segment (they are recomputable by
  // definition) and --strict turns their existence into a failure.
  const auto report =
      railcorr::cache::scan_dir(*dir, /*drop_corrupt=*/verb == "verify");
  std::cout << "cache " << verb << ": " << report.segments << " segment(s), "
            << report.entries << " entrie(s), " << report.bytes
            << " byte(s), " << report.corrupt_files.size() << " corrupt"
            << (verb == "verify" && !report.corrupt_files.empty()
                    ? " (dropped)"
                    : "")
            << "\n";
  for (const auto& path : report.corrupt_files) {
    std::cerr << "cache " << verb << ": corrupt segment " << path << "\n";
  }
  if (strict && !report.corrupt_files.empty()) return 1;
  return 0;
}

/// `railcorr trace merge|stats`: offline tooling over the strict trace
/// grammar (src/obs/trace.hpp). `merge` is all-or-nothing: every input
/// is parsed before a single byte is written, and any malformed file
/// exits 1 with no output produced — a half-merged timeline is worse
/// than none. `stats` summarizes each input without writing anything:
/// a per-file line, then one indented line per span name.
int cmd_trace(std::vector<std::string> args) {
  if (args.empty()) {
    throw ConfigError("trace: expected a verb (merge or stats)");
  }
  const std::string verb = args.front();
  args.erase(args.begin());
  if (verb != "merge" && verb != "stats") {
    throw ConfigError("trace: unknown verb '" + verb +
                      "' (expected merge or stats)");
  }

  std::optional<std::string> out_path;
  std::vector<std::string> inputs;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--out" && verb == "merge") {
      if (i + 1 >= args.size()) throw ConfigError("--out expects an argument");
      out_path = args[++i];
    } else if (args[i].starts_with("--")) {
      throw ConfigError("trace " + verb + ": unknown option '" + args[i] +
                        "'");
    } else {
      inputs.push_back(args[i]);
    }
  }
  if (inputs.empty()) {
    throw ConfigError("trace " + verb + ": at least one trace file required");
  }

  std::vector<railcorr::obs::TraceInput> parsed;
  parsed.reserve(inputs.size());
  bool bad = false;
  for (const auto& path : inputs) {
    std::string text;
    try {
      text = read_file(path);
    } catch (const ConfigError& error) {
      std::cerr << "trace " << verb << ": " << error.what() << "\n";
      bad = true;
      continue;
    }
    auto trace = railcorr::obs::parse_trace(text);
    if (!trace.ok) {
      std::cerr << "trace " << verb << ": " << path << ": " << trace.error
                << "\n";
      bad = true;
      continue;
    }
    parsed.push_back(railcorr::obs::TraceInput{
        std::filesystem::path(path).stem().string(), std::move(trace)});
  }
  if (bad) return 1;

  if (verb == "merge") {
    const std::string merged = railcorr::obs::merge_traces(parsed);
    if (out_path.has_value()) {
      // Plain JSON on purpose — Perfetto and `python3 -m json.tool`
      // must load it directly, so no integrity trailer.
      std::string error;
      if (!railcorr::util::atomic_write_file(*out_path, merged, &error)) {
        throw ConfigError("cannot write '" + *out_path + "': " + error);
      }
    } else {
      std::cout << merged;
    }
    return 0;
  }

  for (const auto& input : parsed) {
    std::size_t spans = 0, instants = 0, metadata = 0;
    std::uint64_t span_usec = 0;
    for (const auto& event : input.trace.events) {
      if (event.phase == 'X') {
        ++spans;
        span_usec += event.dur_usec;
      } else if (event.phase == 'i') {
        ++instants;
      } else {
        ++metadata;
      }
    }
    std::cout << "trace stats: " << input.label << " events="
              << input.trace.events.size() << " spans=" << spans
              << " instants=" << instants << " lanes=" << metadata
              << " span_usec=" << span_usec
              << " epoch_usec=" << input.trace.epoch_usec << "\n";
    for (const auto& total : railcorr::obs::span_totals(input.trace)) {
      std::cout << "  span name=" << total.name << " count=" << total.count
                << " total_usec=" << total.total_usec << "\n";
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(std::cerr);
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (command == "list") return cmd_list();
    if (command == "show") return cmd_show(std::move(args));
    if (command == "run") return cmd_run(std::move(args));
    if (command == "sweep") return cmd_sweep(std::move(args));
    if (command == "merge") return cmd_merge(std::move(args));
    if (command == "orchestrate") {
      return cmd_orchestrate(std::move(args), argv[0]);
    }
    if (command == "cache") return cmd_cache(std::move(args));
    if (command == "trace") return cmd_trace(std::move(args));
    if (command == "--help" || command == "-h" || command == "help") {
      return usage(std::cout) * 0;
    }
    std::cerr << "railcorr: unknown command '" << command << "'\n";
    return usage(std::cerr);
  } catch (const ConfigError& error) {
    std::cerr << "railcorr " << command << ": " << error.what() << "\n";
    return 1;
  } catch (const railcorr::ContractViolation& violation) {
    std::cerr << "railcorr " << command << ": " << violation.what() << "\n";
    return 1;
  } catch (const std::exception& error) {
    // Orchestrator plumbing (pipe/fork/filesystem) reports through
    // std::runtime_error; treat it as an environment error, not a
    // determinism violation.
    std::cerr << "railcorr " << command << ": " << error.what() << "\n";
    return 1;
  }
}
