/// \file railcorr_cli.cpp
/// \brief The `railcorr` command-line tool: declarative scenario runs,
///        sharded corridor sweeps, the multi-process orchestrator, and
///        offline result-store and trace tooling.
///
/// The table `kVerbs` (after the handlers) is the one place where verbs
/// and flags are declared. A verb is one row: its name, its operands,
/// one help line, its handler and its flags. A flag is one row: its
/// spelling, a metavariable (none for a switch) and one help line.
/// `Args` reads every command line against that table, and `railcorr
/// help` prints it, so the usage text cannot drift from the parser.
///
/// `--trace FILE` / `--metrics FILE` (sweep) and `--trace-dir DIR`
/// (orchestrate) turn on run telemetry (src/obs), and `--cache-dir DIR`
/// (sweep / orchestrate) attaches a content-addressed result store
/// (src/cache). Both are inert by contract: every result artifact is
/// byte-identical with or without them.
///
/// Exit codes: 0 success; 1 usage/configuration error; 2 determinism
/// contract violation reported by merge or orchestrate, or a refused
/// `orchestrate --resume` (plan-fingerprint / banner mismatch).
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
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

class Args;

/// One flag of a verb.
struct Flag {
  const char* name;
  /// The value's metavariable; nullptr for a switch, which takes none.
  const char* meta;
  const char* help;
};

/// One verb. `name` is what follows `railcorr`: two words for the
/// `cache` and `trace` groups.
struct Verb {
  const char* name;
  /// The positional operands; nullptr when the verb takes none.
  const char* operands;
  const char* help;
  int (*run)(const Args&);
  std::vector<Flag> flags;
};

std::uint64_t parse_count(std::string_view flag, std::string_view value) {
  return railcorr::util::parse_u64(
      railcorr::util::SpecEntry{std::string(flag), std::string(value), 0});
}

/// A `--threads` value (one entry of a list for `orchestrate`).
std::size_t parse_threads(std::string_view value) {
  const auto threads = railcorr::exec::parse_thread_count(value);
  if (!threads) {
    throw ConfigError("--threads expects a thread count in [0, " +
                      std::to_string(railcorr::exec::kMaxThreadCount) +
                      "], got '" + std::string(value) + "'");
  }
  return *threads;
}

/// A verb's command line, read against its table row. A flag takes the
/// next word as its value unless it is a switch. A word that no flag
/// spells is an operand if the verb takes operands and the word does
/// not start with "--"; otherwise it is an unknown option. The getters
/// return the last value given, and `count` and `seconds` check every
/// value given.
class Args {
 public:
  Args(const Verb& verb, const char* program,
       const std::vector<std::string>& words)
      : verb_(verb), program_(program) {
    for (std::size_t i = 0; i < words.size(); ++i) {
      const std::string& word = words[i];
      const auto flag =
          std::find_if(verb.flags.begin(), verb.flags.end(),
                       [&](const Flag& row) { return word == row.name; });
      if (flag != verb.flags.end()) {
        if (flag->meta != nullptr && i + 1 >= words.size()) {
          throw ConfigError(word + " expects an argument");
        }
        given_.emplace_back(flag->name,
                            flag->meta != nullptr ? words[++i] : "");
      } else if (verb.operands != nullptr && !word.starts_with("--")) {
        operands_.push_back(word);
      } else {
        throw ConfigError(std::string(verb.name) + ": unknown option '" +
                          word + "'");
      }
    }
  }

  const Verb& verb() const { return verb_; }
  const char* program() const { return program_; }
  const std::vector<std::string>& operands() const { return operands_; }

  /// Every value given for `flag`, in command-line order.
  std::vector<std::string> all(std::string_view flag) const {
    declared(flag);
    std::vector<std::string> values;
    for (const auto& [name, value] : given_) {
      if (name == flag) values.push_back(value);
    }
    return values;
  }

  /// Whether `flag` was given; this reads a switch.
  bool has(std::string_view flag) const { return !all(flag).empty(); }

  std::optional<std::string> text(std::string_view flag) const {
    auto values = all(flag);
    if (values.empty()) return std::nullopt;
    return std::move(values.back());
  }

  /// The value of a required flag, or "<verb>: <flag> <META> required".
  std::string need(std::string_view flag) const {
    if (auto value = text(flag)) return std::move(*value);
    const Flag& row = declared(flag);
    RAILCORR_EXPECTS(row.meta != nullptr);
    throw ConfigError(std::string(verb_.name) + ": " + row.name + " " +
                      row.meta + " required");
  }

  /// An unsigned decimal.
  std::optional<std::uint64_t> count(std::string_view flag) const {
    std::optional<std::uint64_t> last;
    for (const auto& value : all(flag)) last = parse_count(flag, value);
    return last;
  }

  /// A store bound given in MiB (`--cache-max-mb`, `--max-mb`), in
  /// bytes; 0 when absent. A count whose bytes overflow std::size_t
  /// would wrap to a small bound, or to none.
  std::size_t mib_bytes(std::string_view flag) const {
    const std::uint64_t n = count(flag).value_or(0);
    if (n > std::numeric_limits<std::size_t>::max() >> 20) {
      throw ConfigError(std::string(flag) + " " + std::to_string(n) +
                        " MiB does not fit in a byte count");
    }
    return static_cast<std::size_t>(n) << 20;
  }

  /// A finite number of seconds >= 0. NaN would slip past every range
  /// check, and a value that overflows a timer's duration cast makes
  /// the timer fire at once.
  std::optional<double> seconds(std::string_view flag) const {
    std::optional<double> last;
    for (const auto& value : all(flag)) {
      last = railcorr::util::parse_double(
          railcorr::util::SpecEntry{std::string(flag), value, 0});
      if (!std::isfinite(*last) || *last < 0) {
        throw ConfigError(std::string(flag) +
                          " must be >= 0 seconds and finite");
      }
    }
    return last;
  }

  /// The cross-flag rule "`flag` requires `needed`"; `why` is the
  /// reason the error gives.
  void require(std::string_view flag, std::string_view needed,
               std::string_view why = {}) const {
    if (!has(flag) || has(needed)) return;
    std::string message = std::string(verb_.name) + ": " + std::string(flag) +
                          " requires " + std::string(needed);
    if (!why.empty()) message += " (" + std::string(why) + ")";
    throw ConfigError(message);
  }

 private:
  /// The row of `flag`: a handler reads only the flags its verb
  /// declares.
  const Flag& declared(std::string_view flag) const {
    const auto row =
        std::find_if(verb_.flags.begin(), verb_.flags.end(),
                     [&](const Flag& entry) { return flag == entry.name; });
    RAILCORR_EXPECTS(row != verb_.flags.end());
    return *row;
  }

  const Verb& verb_;
  const char* program_;
  /// (flag, value) in command-line order; a switch's value is empty.
  std::vector<std::pair<std::string_view, std::string>> given_;
  std::vector<std::string> operands_;
};

/// The whole file at `path`, or a ConfigError naming it.
std::string read_input(const std::string& path) {
  auto content = railcorr::util::read_file_fully(path);
  if (!content.has_value()) throw ConfigError("cannot read '" + path + "'");
  return std::move(*content);
}

/// Durably replace `path` with `content` and its `@railcorr-crc`
/// integrity trailer: a crash-safe atomic rename, so a torn write or
/// later bit rot is detected instead of merged. Returns the error, if
/// any.
std::optional<std::string> write_trailered(const std::string& path,
                                           const std::string& content) {
  std::string error;
  if (railcorr::util::atomic_write_file(
          path, railcorr::util::with_integrity_trailer(content), &error)) {
    return std::nullopt;
  }
  return error;
}

/// Write a grid document (shard or merged CSV) through write_trailered.
/// Stdout stays trailer-free: trailers are a property of files at
/// rest, and piped consumers should not need to strip them.
void write_grid_output(const std::optional<std::string>& path,
                       const std::string& content) {
  if (!path.has_value()) {
    std::cout << content;
    return;
  }
  if (const auto error = write_trailered(*path, content)) {
    throw ConfigError("cannot write '" + *path + "': " + *error);
  }
}

/// Damage a trailered document as an armed torn or corrupt fault says:
/// with `torn`, keep its first max(1, N) bytes; else flip its trailer's
/// last hex digit (the byte before the final newline), so the body
/// stays structurally perfect and only the checksum can catch it.
void damage(std::string& document, std::optional<std::size_t> torn) {
  if (torn.has_value()) {
    document.resize(std::min(document.size(), std::max<std::size_t>(1, *torn)));
  } else if (document.size() >= 2) {
    char& digit = document[document.size() - 2];
    digit = digit == '0' ? '1' : '0';
  }
}

/// Write one sweep shard document, honoring any armed write-side fault
/// points. The faults simulate exactly the failure the durability layer
/// must survive: a torn write leaves a prefix of the document claiming
/// success (exit 0), a corrupted trailer leaves a full-length file whose
/// checksum lies. Both bypass atomic_write_file on purpose — a
/// fault-free write must be atomic, a faulty one must be visible to the
/// orchestrator's verification, not hidden by rename. Only a faulty
/// write builds its own trailered bytes, so every shard is hashed once.
void write_shard_output(const std::optional<std::string>& out_path,
                        const std::string& document,
                        const railcorr::orch::FaultInjector& faults) {
  const auto torn = faults.armed(railcorr::orch::FaultKind::kTornWrite);
  const bool corrupt =
      faults.armed(railcorr::orch::FaultKind::kCorruptTrailer).has_value();
  if (!out_path.has_value() || (!torn.has_value() && !corrupt)) {
    write_grid_output(out_path, document);
    return;
  }
  std::string trailered = railcorr::util::with_integrity_trailer(document);
  damage(trailered, torn);
  std::ofstream out(*out_path, std::ios::binary);
  if (!out) throw ConfigError("cannot write '" + *out_path + "'");
  out << trailered;
}

/// The cache fault points, fired on the store at `dir` after the shard's
/// one flush, which published `published` (empty: no segment). The
/// evictor unlinks every other segment; a torn or corrupt fault damages
/// the published one, which readers must verify and drop.
void damage_cache(const std::string& dir, const std::string& published,
                  const railcorr::orch::FaultInjector& faults) {
  using railcorr::orch::FaultKind;
  if (faults.armed(FaultKind::kCacheEvict).has_value()) {
    railcorr::cache::gc_dir(dir, 0, published);
  }
  const auto torn = faults.armed(FaultKind::kCacheTornWrite);
  if (published.empty() || (!torn.has_value() &&
                            !faults.armed(FaultKind::kCacheCorruptSegment))) {
    return;
  }
  if (auto segment = railcorr::util::read_file_fully(published)) {
    damage(*segment, torn);
    railcorr::util::atomic_write_file(published, *segment);
  }
}

/// `--accuracy` names the one numeric contract, 'bitexact'; it is
/// accepted so existing command lines keep working.
void check_accuracy(const Args& args) {
  for (const auto& value : args.all("--accuracy")) {
    if (value != "bitexact") {
      throw ConfigError("--accuracy accepts only 'bitexact', got '" + value +
                        "'");
    }
  }
}

/// Scenario selection (show / run): the `--scenario` registry entry,
/// then the `--spec` document, then each `--set` override.
railcorr::core::Scenario select_scenario(const Args& args) {
  railcorr::core::Scenario scenario =
      railcorr::core::make_scenario(args.text("--scenario").value_or("paper"));
  if (const auto spec_path = args.text("--spec")) {
    railcorr::core::apply_spec(scenario, read_input(*spec_path));
  }
  for (const auto& text : args.all("--set")) {
    const std::size_t eq = text.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= text.size()) {
      throw ConfigError("--set expects KEY=VALUE, got '" + text + "'");
    }
    railcorr::core::apply_override(
        scenario, {text.substr(0, eq), text.substr(eq + 1), 0});
  }
  return scenario;
}

int cmd_list(const Args&) {
  railcorr::TextTable table("Scenario registry");
  table.set_header({"name", "summary"});
  for (const auto& variant : railcorr::core::scenario_registry()) {
    table.add_row({variant.name, variant.summary});
  }
  std::cout << table << "\nFields: railcorr show --scenario <name>\n";
  return 0;
}

int cmd_show(const Args& args) {
  std::cout << railcorr::core::to_spec(select_scenario(args));
  return 0;
}

int cmd_run(const Args& args) {
  check_accuracy(args);
  const auto scenario = select_scenario(args);
  auto source = railcorr::corridor::IsdSource::kModelSearch;
  for (const auto& value : args.all("--isd-source")) {
    if (value != "model" && value != "paper") {
      throw ConfigError("--isd-source expects 'model' or 'paper'");
    }
    source = value == "paper" ? railcorr::corridor::IsdSource::kPaperPublished
                              : railcorr::corridor::IsdSource::kModelSearch;
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

int cmd_sweep(const Args& args) {
  check_accuracy(args);
  // Seeded fault injection (chaos testing): RAILCORR_FAULT arms the
  // workers the orchestrator launches, `--fault` arms by hand. Every
  // site below reads this one local injector.
  railcorr::orch::FaultInjector faults;
  faults.arm_from_env();
  for (const auto& spec : args.all("--fault")) {
    faults.arm(railcorr::orch::parse_fault_spec(spec));
  }
  railcorr::corridor::ShardSpec shard;
  for (const auto& text : args.all("--shard")) {
    shard = railcorr::corridor::ShardSpec::parse(text);
  }
  for (const auto& threads : args.all("--threads")) {
    railcorr::exec::set_default_thread_count(parse_threads(threads));
  }
  // Periodic liveness lines on the progress stream: a supervisor's
  // --stall-timeout can then tell a slow shard (heartbeats keep
  // flowing while its stages run) from a dead transport (silence).
  const double heartbeat_s = args.seconds("--heartbeat").value_or(0.0);
  if (args.has("--heartbeat") && heartbeat_s == 0.0) {
    throw ConfigError("--heartbeat must be > 0 seconds");
  }
  const std::size_t cache_max_bytes = args.mib_bytes("--cache-max-mb");
  const auto out_path = args.text("--out");
  const auto cache_dir = args.text("--cache-dir");
  const auto trace_path = args.text("--trace");
  const auto metrics_path = args.text("--metrics");
  const bool progress = args.has("--progress");
  railcorr::core::SweepRunOptions options;
  options.include_sizing = args.has("--include-sizing");
  // Telemetry turns on before any instrumented work (cache open, cell
  // evaluation). It is inert by contract: the recorder/registry write
  // only to their own files, after the shard document is out.
  if (trace_path.has_value()) railcorr::obs::TraceRecorder::instance().enable();
  if (metrics_path.has_value()) {
    railcorr::obs::MetricsRegistry::instance().enable();
  }
  const std::string plan_path = args.need("--plan");
  args.require("--progress", "--out", "stdout carries the protocol");
  args.require("--heartbeat", "--progress",
               "heartbeats ride the protocol stream");
  if (cache_max_bytes != 0) args.require("--cache-max-mb", "--cache-dir");

  if (faults.armed(railcorr::orch::FaultKind::kLaunchRefused).has_value()) {
    // ssh's connect-refused signature: exit 255 before any protocol
    // event, before touching the plan — the supervisor must charge
    // this to the host's health, not the shard's retry budget.
    return 255;
  }

  const auto plan =
      railcorr::corridor::SweepPlan::from_spec(read_input(plan_path));

  railcorr::cache::ResultCache cache;
  if (cache_dir.has_value()) {
    railcorr::cache::ResultCache::Options cache_options;
    cache_options.dir = *cache_dir;
    cache_options.max_bytes = cache_max_bytes;
    std::string error;
    if (!cache.open(cache_options, &error)) {
      throw ConfigError("sweep: " + error);
    }
    options.cache = &cache;
  }

  const std::size_t owned = shard.indices(plan.size()).size();
  if (progress) {
    std::cout << railcorr::orch::start_line(shard.index, shard.count, owned)
              << std::endl;
  }
  // The death faults fire here: after the start line, before the
  // heartbeat starts and before any cell computes, on a shard owning at
  // least their threshold's cells.
  if (const auto death = faults.death_fault(owned)) {
    using railcorr::orch::FaultKind;
    // kill: a crashed worker.
    if (*death == FaultKind::kKillAfterCells) ::raise(SIGKILL);
    // host-flap: the connection drops; no output file, no goodbye.
    if (*death == FaultKind::kHostFlap) ::_exit(255);
    // stall: hang silently, forever, with no heartbeat running; only
    // the supervisor's --stall-timeout can clear it.
    while (true) ::pause();
  }
  // The heartbeat timer is stdout's only writer while it runs: it
  // starts after the start line and stops before the cache/done lines.
  // Each line goes out in one write, so a process that ends mid-beat
  // loses that beat whole, never half a line.
  std::optional<railcorr::orch::HeartbeatThread> heartbeat;
  if (heartbeat_s > 0) {
    heartbeat.emplace(heartbeat_s, [](const std::string& line) {
      std::cout << line << std::endl;
    });
  }
  const std::string document =
      railcorr::core::run_sweep_shard(plan, shard, options);
  if (cache.is_open()) damage_cache(*cache_dir, cache.last_published(), faults);
  write_shard_output(out_path, document, faults);
  // Telemetry files land strictly after the shard document: a crash
  // while writing them can tear a trace, never a result, and the
  // orchestrator treats a torn trace as a lost lane, not a retry.
  if (trace_path.has_value()) {
    if (const auto error = write_trailered(
            *trace_path,
            railcorr::obs::TraceRecorder::instance().serialize())) {
      std::cerr << "sweep: cannot write trace '" << *trace_path
                << "': " << *error << "\n";
    }
  }
  if (metrics_path.has_value()) {
    if (const auto error = write_trailered(
            *metrics_path,
            railcorr::obs::MetricsRegistry::instance().snapshot_json())) {
      std::cerr << "sweep: cannot write metrics '" << *metrics_path
                << "': " << *error << "\n";
    }
  }
  if (progress) {
    if (heartbeat.has_value()) heartbeat->stop();
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

int cmd_merge(const Args& args) {
  const auto& shard_paths = args.operands();
  if (shard_paths.empty()) {
    throw ConfigError("merge: at least one shard file required");
  }

  std::vector<std::string> documents;
  documents.reserve(shard_paths.size());
  for (const auto& path : shard_paths) documents.push_back(read_input(path));

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
  write_grid_output(args.text("--out"), result.merged);
  return 0;
}

int cmd_orchestrate(const Args& args) {
  check_accuracy(args);
  railcorr::orch::OrchestrateOptions options;
  options.workers = args.count("--workers").value_or(options.workers);
  if (options.workers == 0) {
    throw ConfigError("--workers must be at least 1");
  }
  options.shards = args.count("--shards").value_or(options.shards);
  options.retries = args.count("--retries").value_or(options.retries);
  options.timeout_s = args.seconds("--timeout").value_or(options.timeout_s);
  // Liveness, not wall-clock: kill a worker whose progress stream has
  // been silent this long (deadlock, fault-injected stall),
  // independently of --timeout.
  options.stall_timeout_s =
      args.seconds("--stall-timeout").value_or(options.stall_timeout_s);
  // Base of the deterministic exponential backoff between a shard's
  // attempts (base * 2^(fails-1), capped); 0 disables.
  options.backoff_base_s =
      args.seconds("--backoff").value_or(options.backoff_base_s);
  options.fetch_timeout_s =
      args.seconds("--fetch-timeout").value_or(options.fetch_timeout_s);
  options.include_sizing = args.has("--include-sizing");
  options.trace_dir = args.text("--trace-dir").value_or(options.trace_dir);
  for (const auto& list : args.all("--hosts")) {
    options.hosts = railcorr::orch::parse_host_list(list);
  }
  // One thread count for a homogeneous fleet, or a list assigning
  // worker slot k the k-th entry (the last entry repeats for higher
  // slots) — heterogeneous machines give their big cores more threads
  // than their little ones. Entries may repeat: equal machines get
  // equal counts.
  std::vector<std::size_t> worker_threads;
  for (const auto& list : args.all("--threads")) {
    std::istringstream in(list);
    worker_threads.clear();
    for (std::string token; std::getline(in, token, ',');) {
      worker_threads.push_back(parse_threads(token));
    }
    if (worker_threads.empty()) {
      throw ConfigError("--threads expects N or N,N,...");
    }
  }
  // Seeded chaos mode: derive a deterministic fault schedule over
  // (shard, attempt) and arm each worker accordingly — torn writes,
  // corrupted trailers, stalls, kills. Attempts at or past the retry
  // budget stay clean, so a chaos run always converges, and the merged
  // grid must still be byte-identical to a clean single-process sweep.
  const std::optional<std::uint64_t> chaos_seed = args.count("--chaos-seed");
  const auto cache_dir = args.text("--cache-dir");
  const std::size_t cache_max_bytes = args.mib_bytes("--cache-max-mb");
  const auto out_path = args.text("--out");
  if (cache_max_bytes != 0) args.require("--cache-max-mb", "--cache-dir");

  // The distributed-flag matrix is validated before any filesystem
  // work, so a misconfigured fleet fails fast with a usage error, not
  // halfway into a run directory.
  args.require("--launcher", "--hosts",
               "a launcher template without a fleet has nothing to launch "
               "onto");
  args.require("--fetch", "--hosts",
               "fetching only applies to remote workers");
  args.require("--fetch-timeout", "--fetch");
  std::optional<railcorr::orch::CommandTemplate> launcher;
  if (const auto text = args.text("--launcher")) {
    launcher = railcorr::orch::CommandTemplate::launcher(*text);
  }
  std::optional<railcorr::orch::CommandTemplate> fetch_template;
  if (const auto text = args.text("--fetch")) {
    fetch_template = railcorr::orch::CommandTemplate::fetch(*text);
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

  const auto plan_path = args.text("--plan");
  const auto out_dir = args.text("--out-dir");
  std::string dir;
  std::string plan_file;
  if (const auto resume_dir = args.text("--resume")) {
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
      railcorr::corridor::SweepPlan::from_spec(read_input(plan_file));

  // Worker command line: re-exec this binary's sweep verb against the
  // run directory's canonical plan. Threads are split across workers so
  // the fleet does not oversubscribe the machine (each worker's
  // evaluator is itself parallel, and its rows are thread-count
  // invariant).
  const std::string self = railcorr::orch::self_executable_path(args.program());
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  const std::string worker_plan = dir + "/plan.sweep";
  const bool sizing = options.include_sizing;
  const std::size_t retries = options.retries;
  const std::size_t workers = options.workers;
  const std::vector<std::string> fleet_hosts = options.hosts;
  // Workers heartbeat at a quarter of the stall budget: a slow shard
  // keeps the liveness stream alive, so --stall-timeout only fires on
  // genuinely dead workers (hung evaluators, dropped transports).
  const double heartbeat_s =
      options.stall_timeout_s > 0
          ? std::max(0.05, options.stall_timeout_s / 4.0)
          : 0.0;
  // The attempt's chaos fault (see chaos_fault_for, which leaves
  // attempts at or past the retry budget clean) when it belongs to the
  // calling builder: a transfer fault to the fetch builder, any other
  // to the worker builder. The one that takes it logs it.
  const auto chaos_fault =
      [chaos_seed, retries, with_hosts = !fleet_hosts.empty(),
       with_cache = cache_dir.has_value()](
          const railcorr::orch::WorkerAttempt& attempt,
          bool transfer) -> std::optional<railcorr::orch::FaultSpec> {
    if (!chaos_seed.has_value()) return std::nullopt;
    const auto fault = railcorr::orch::chaos_fault_for(
        *chaos_seed, attempt.shard, attempt.attempt, retries, with_hosts,
        with_cache);
    if (!fault.has_value() ||
        transfer != railcorr::orch::is_transfer_fault(fault->kind)) {
      return std::nullopt;
    }
    std::cerr << "[orchestrate] chaos: shard " << attempt.shard << " attempt "
              << attempt.attempt << (transfer ? " fetch fault " : " fault ")
              << railcorr::orch::fault_spec_string(*fault) << "\n";
    return fault;
  };
  options.command =
      [self, worker_plan, worker_threads, hw, workers, sizing, chaos_fault,
       cache_dir, cache_max_bytes, fleet_hosts, launcher,
       heartbeat_s](const railcorr::orch::WorkerAttempt& attempt) {
        // Without --threads, cores are split by the fleet's real width:
        // no more workers run at once than the run has shards (a small
        // grid, --shards or a resumed manifest sets that count), so
        // dividing by the raw worker count would idle cores. With it,
        // slot k gets the k-th entry — or, when --hosts was given, host
        // k, where thread counts describe machines, not slots; the last
        // entry covers every higher index, so a single value stays
        // homogeneous.
        std::size_t threads = std::clamp<std::size_t>(
            hw / std::min(workers, attempt.shard_count), 1,
            railcorr::exec::kMaxThreadCount);
        if (!worker_threads.empty()) {
          std::size_t thread_index = attempt.slot;
          for (std::size_t h = 0; h < fleet_hosts.size(); ++h) {
            if (fleet_hosts[h] == attempt.host) {
              thread_index = h;
              break;
            }
          }
          threads = worker_threads[std::min(thread_index,
                                            worker_threads.size() - 1)];
        }
        // The worker writes every file to its worker-side path, from
        // where a fetch step pulls it back.
        std::vector<std::string> argv = {
            self,
            "sweep",
            "--plan",
            worker_plan,
            "--shard",
            std::to_string(attempt.shard) + "/" +
                std::to_string(attempt.shard_count),
            "--out",
            attempt.worker_path(attempt.out_path),
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
        if (!attempt.trace_path.empty()) {
          argv.push_back("--trace");
          argv.push_back(attempt.worker_path(attempt.trace_path));
          argv.push_back("--metrics");
          argv.push_back(attempt.worker_path(attempt.metrics_path));
        }
        if (cache_dir.has_value()) {
          // The whole fleet shares one store: the segment publish /
          // lock protocol makes concurrent workers safe, and the
          // byte-identity contract makes their hits indistinguishable
          // from recomputes.
          argv.push_back("--cache-dir");
          argv.push_back(*cache_dir);
          if (cache_max_bytes != 0) {
            argv.push_back("--cache-max-mb");
            argv.push_back(std::to_string(cache_max_bytes >> 20));
          }
        }
        if (const auto fault = chaos_fault(attempt, /*transfer=*/false)) {
          argv.push_back("--fault");
          argv.push_back(railcorr::orch::fault_spec_string(*fault));
        }
        // A remote attempt's command line is wrapped in the launcher
        // template ({cmd} becomes one shell-quoted word); the reserved
        // host 'local' (every attempt of a run without --hosts)
        // fork/execs the argv directly.
        if (launcher.has_value() &&
            attempt.host != railcorr::orch::kLocalHost) {
          return launcher->build(
              {attempt.host, railcorr::orch::shell_join(argv)});
        }
        return argv;
      };
  if (fetch_template.has_value()) {
    options.fetch = [fetch = *fetch_template, chaos_fault](
                        const railcorr::orch::WorkerAttempt& attempt)
        -> std::vector<std::string> {
      const std::string remote = attempt.worker_path(attempt.out_path);
      // The chaos schedule sabotages selected shard transfers instead of
      // the worker: a torn transfer delivers a prefix of the file (the
      // verify-after-fetch step must catch it), a stalled one hangs
      // until the fetch timeout kills it. A telemetry file's pull runs
      // clean, so each fault is named once.
      const bool shard_file = attempt.out_path != attempt.trace_path &&
                              attempt.out_path != attempt.metrics_path;
      if (const auto fault =
              shard_file ? chaos_fault(attempt, /*transfer=*/true)
                         : std::nullopt) {
        if (fault->kind == railcorr::orch::FaultKind::kTransferStalled) {
          return {"/bin/sh", "-c", "sleep 3600"};
        }
        return {"/bin/sh", "-c",
                "head -c " + std::to_string(fault->param) + " " +
                    railcorr::orch::shell_quote(remote) + " > " +
                    railcorr::orch::shell_quote(attempt.out_path)};
      }
      return fetch.build({attempt.host, remote, attempt.out_path});
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
  const auto failed = [&result](const char* cls) {
    const auto it = result.stats.failures_by_class.find(cls);
    return it == result.stats.failures_by_class.end() ? 0 : it->second;
  };
  // The retired third counter stays, always 0, for parsers of this line.
  std::cout << "orchestrate: merged " << result.merged_path << " ("
            << result.stats.attempts << " attempt(s), "
            << result.stats.retried << " retried, 0 speculative, "
            << result.stats.resumed << " resumed, " << failed("timeout")
            << " timed out, " << failed("stalled") << " stalled, "
            << failed("corrupt-output") << " corrupt)\n";
  if (!result.summary.empty()) {
    std::cout << "orchestrate: " << result.summary << "\n";
  }
  if (result.stats.cache_hits + result.stats.cache_misses > 0) {
    std::cout << "orchestrate: cache " << result.stats.cache_hits
              << " hit(s) / " << result.stats.cache_misses << " miss(es)\n";
  }
  if (!options.hosts.empty()) {
    std::cout << "orchestrate: transport " << failed("launch-refused")
              << " refused / " << failed("connection-lost") << " lost / "
              << failed("corrupt-transfer") << " corrupt / "
              << failed("transfer-stalled") << " stalled; hosts "
              << result.stats.host_quarantines << " quarantine(s) / "
              << result.stats.host_recoveries << " recover(ies) / "
              << result.stats.hosts_dead << " dead\n";
  }
  return 0;
}

/// `railcorr cache stats|verify|gc`: offline inspection and maintenance
/// of a content-addressed result store. Exit 0 on success, 1 on usage
/// errors and on `verify --strict` finding corruption.
int cmd_cache(const Args& args) {
  const std::string verb = args.verb().name;
  const std::string dir = args.need("--dir");
  if (verb == "cache gc") {
    args.need("--max-mb");
    const std::size_t evicted =
        railcorr::cache::gc_dir(dir, args.mib_bytes("--max-mb"));
    const auto after = railcorr::cache::scan_dir(dir, /*drop_corrupt=*/false);
    std::cout << "cache gc: evicted " << evicted << " segment(s); "
              << after.segments << " segment(s), " << after.bytes
              << " byte(s) remain\n";
    return 0;
  }

  // stats reports corruption without touching it; verify repairs by
  // dropping every corrupt segment (they are recomputable by
  // definition) and --strict turns their existence into a failure.
  const bool verify = verb == "cache verify";
  const auto report = railcorr::cache::scan_dir(dir, /*drop_corrupt=*/verify);
  std::cout << verb << ": " << report.segments << " segment(s), "
            << report.entries << " entrie(s), " << report.bytes
            << " byte(s), " << report.corrupt_files.size() << " corrupt"
            << (verify && !report.corrupt_files.empty() ? " (dropped)" : "")
            << "\n";
  for (const auto& path : report.corrupt_files) {
    std::cerr << verb << ": corrupt segment " << path << "\n";
  }
  if (verify && args.has("--strict") && !report.corrupt_files.empty()) {
    return 1;
  }
  return 0;
}

/// `railcorr trace merge|stats`: offline tooling over the strict trace
/// grammar (src/obs/trace.hpp). `merge` is all-or-nothing: every input
/// is parsed before a single byte is written, and any malformed file
/// exits 1 with no output produced — a half-merged timeline is worse
/// than none. `stats` summarizes each input without writing anything:
/// a per-file line, then one indented line per span name.
int cmd_trace(const Args& args) {
  const std::string verb = args.verb().name;
  const auto& inputs = args.operands();
  if (inputs.empty()) {
    throw ConfigError(verb + ": at least one trace file required");
  }

  std::vector<railcorr::obs::TraceInput> parsed;
  parsed.reserve(inputs.size());
  bool bad = false;
  for (const auto& path : inputs) {
    const auto text = railcorr::util::read_file_fully(path);
    if (!text.has_value()) {
      std::cerr << verb << ": cannot read '" << path << "'\n";
      bad = true;
      continue;
    }
    auto trace = railcorr::obs::parse_trace(*text);
    if (!trace.ok) {
      std::cerr << verb << ": " << path << ": " << trace.error << "\n";
      bad = true;
      continue;
    }
    parsed.push_back(railcorr::obs::TraceInput{
        std::filesystem::path(path).stem().string(), std::move(trace)});
  }
  if (bad) return 1;

  if (verb == "trace merge") {
    const std::string merged = railcorr::obs::merge_traces(parsed);
    if (const auto out_path = args.text("--out")) {
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
                << " total_usec=" << total.total_usec
                << " self_usec=" << total.self_usec << "\n";
    }
  }
  return 0;
}

// Flags that several verbs share.
const Flag kScenario{"--scenario", "NAME", "registry entry (default: paper)"};
const Flag kSpec{"--spec", "FILE", "apply a ScenarioSpec document"};
const Flag kSet{"--set", "KEY=VALUE", "apply one override (repeatable)"};
const Flag kAccuracy{"--accuracy", "MODE",
                     "only 'bitexact', the one numeric contract"};
const Flag kIncludeSizing{"--include-sizing", nullptr,
                          "add the off-grid PV sizing columns"};
const Flag kCacheDir{"--cache-dir", "DIR",
                     "reuse and store rows in a result store"};
const Flag kCacheMaxMb{"--cache-max-mb", "N",
                       "bound the store to N MiB (LRU eviction)"};
const Flag kDir{"--dir", "DIR", "the result store (required)"};

const std::vector<Verb> kVerbs = {
    {"list", nullptr, "scenario registry catalog", cmd_list, {}},
    {"show", nullptr, "print the resolved ScenarioSpec", cmd_show,
     {kScenario, kSpec, kSet}},
    {"run", nullptr, "run the full paper evaluation", cmd_run,
     {kScenario, kSpec, kSet,
      {"--isd-source", "model|paper",
       "max ISD from the model search (default) or paper"},
      kAccuracy}},
    {"sweep", nullptr, "evaluate (a shard of) a sweep grid", cmd_sweep,
     {{"--plan", "FILE", "the sweep plan (required)"},
      {"--shard", "i/N", "only the cells whose index % N == i"},
      {"--out", "FILE", "write the shard with an integrity trailer"},
      kIncludeSizing,
      {"--threads", "N", "evaluation threads"},
      kAccuracy,
      {"--progress", nullptr, "stream the worker protocol on stdout"},
      {"--heartbeat", "SECONDS", "emit a liveness line this often"},
      {"--fault", "SPEC", "arm a fault, e.g. kill=3 (also RAILCORR_FAULT)"},
      kCacheDir,
      kCacheMaxMb,
      {"--trace", "FILE", "write this run's span trace"},
      {"--metrics", "FILE", "write this run's counters and histograms"}}},
    {"merge", "SHARD_FILE...", "merge shards; exit 2 on a contract violation",
     cmd_merge,
     {{"--out", "FILE", "write the grid with an integrity trailer"}}},
    {"orchestrate", nullptr, "run a grid on a worker fleet", cmd_orchestrate,
     {{"--plan", "FILE", "the sweep plan (required unless --resume)"},
      {"--out-dir", "DIR", "new run directory (required unless --resume)"},
      {"--resume", "DIR", "finish the run in DIR"},
      {"--out", "FILE", "also write the merged grid here"},
      {"--workers", "N", "concurrent workers (default: 4)"},
      {"--shards", "N", "shards (default: 2 x workers, at most the grid)"},
      {"--retries", "N", "retries per shard (default: 2)"},
      {"--timeout", "SECONDS", "kill an attempt after this long (0: off)"},
      {"--stall-timeout", "SECONDS", "kill a worker silent this long (0: off)"},
      {"--backoff", "SECONDS", "retry backoff base (default: 0.05; 0: none)"},
      kIncludeSizing,
      {"--threads", "N[,N...]", "threads per slot (per host with --hosts)"},
      kAccuracy,
      {"--chaos-seed", "N", "run a deterministic fault storm"},
      kCacheDir,
      kCacheMaxMb,
      {"--hosts", "H1,H2,...", "attempt hosts ('local': fork/exec)"},
      {"--launcher", "TEMPLATE", "wrap remote workers: 'ssh {host} {cmd}'"},
      {"--fetch", "TEMPLATE", "copy shards back ({host} {remote} {local})"},
      {"--fetch-timeout", "SECONDS", "kill a fetch after this (0: --timeout)"},
      {"--trace-dir", "DIR", "collect the fleet's telemetry into DIR"}}},
    {"cache stats", nullptr, "segment, entry, byte and corrupt counts",
     cmd_cache, {kDir}},
    {"cache verify", nullptr, "verify every segment, dropping corrupt ones",
     cmd_cache,
     {kDir, {"--strict", nullptr, "exit 1 if a segment was corrupt"}}},
    {"cache gc", nullptr, "evict least-recently-used segments", cmd_cache,
     {kDir, {"--max-mb", "N", "until the store fits N MiB (required)"}}},
    {"trace merge", "TRACE_FILE...", "merge worker traces into one timeline",
     cmd_trace,
     {{"--out", "FILE", "write the timeline here (default: stdout)"}}},
    {"trace stats", "TRACE_FILE...", "event counts, then each span's total",
     cmd_trace, {}},
};

/// Print the usage text, every row of the table; returns the exit code
/// of a usage error.
int usage(std::ostream& os) {
  os << "usage: railcorr <command> [options]\n\ncommands:\n";
  const auto line = [&os](std::string left, const char* meta,
                          const char* help) {
    if (meta != nullptr) left += std::string(" ") + meta;
    left.resize(std::max<std::size_t>(left.size() + 2, 32), ' ');
    os << left << help << "\n";
  };
  for (const Verb& verb : kVerbs) {
    line("  " + std::string(verb.name), verb.operands, verb.help);
    for (const Flag& flag : verb.flags) {
      line("      " + std::string(flag.name), flag.meta, flag.help);
    }
  }
  os << "\nexit codes: 0 success; 1 usage or configuration error; 2 a\n"
        "determinism contract violation (merge, orchestrate) or a refused\n"
        "orchestrate --resume\n";
  return 1;
}

/// The row that `command` names, or nullptr. The `cache` and `trace`
/// groups take their sub-verb from the front of `words`.
const Verb* find_verb(const std::string& command,
                      std::vector<std::string>& words) {
  // A two-word row is spelled as two words, never as one.
  if (command.find(' ') != std::string::npos) return nullptr;
  std::vector<std::string_view> subverbs;
  for (const Verb& verb : kVerbs) {
    const std::string_view name = verb.name;
    if (name == command) return &verb;
    if (name.starts_with(command + " ")) {
      subverbs.push_back(name.substr(command.size() + 1));
    }
  }
  if (subverbs.empty()) return nullptr;
  std::string expected;  // "stats, verify, or gc" / "merge or stats"
  for (std::size_t i = 0; i < subverbs.size(); ++i) {
    if (i > 0) expected += subverbs.size() > 2 ? ", " : " ";
    if (i > 0 && i + 1 == subverbs.size()) expected += "or ";
    expected += subverbs[i];
  }
  if (words.empty()) {
    throw ConfigError(command + ": expected a verb (" + expected + ")");
  }
  const std::string subverb = words.front();
  words.erase(words.begin());
  for (const Verb& verb : kVerbs) {
    if (command + " " + subverb == verb.name) return &verb;
  }
  throw ConfigError(command + ": unknown verb '" + subverb + "' (expected " +
                    expected + ")");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(std::cerr);
  const std::string command = argv[1];
  if (command == "--help" || command == "-h" || command == "help") {
    usage(std::cout);
    return 0;
  }
  std::vector<std::string> words(argv + 2, argv + argc);
  try {
    const Verb* verb = find_verb(command, words);
    if (verb == nullptr) {
      std::cerr << "railcorr: unknown command '" << command << "'\n";
      return usage(std::cerr);
    }
    return verb->run(Args(*verb, argv[0], words));
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
