/// perfbench_replay: the in-process half of the end-to-end sweep benchmark.
///
///   perfbench_replay context
///       One JSON line: build SIMD level and accuracy mode as the library
///       resolves them, and the hardware thread count.
///   perfbench_replay calibrate --threads N
///       One JSON line: per-thread CPU time of a fixed compute kernel and
///       of a fixed memory walk (machine speed, see run.py).
///   perfbench_replay counts --plan FILE [--include-sizing]
///       One JSON line of the plan's exact work counts (cells, distinct
///       ISD-search inputs, link models, weather tuples).
///   perfbench_replay reference --plan FILE [--include-sizing] --out FILE
///       The naive differential oracle: every cell through
///       core::evaluate_sweep_cell, rendered as an untrailered sweep
///       document (banner, header, rows).
///   perfbench_replay replay --plan FILE [--include-sizing] --rows FILE
///                           --threads N --shards S --work DIR
///       Replays what run_sweep_shard does for the plan, calling each
///       layer's public functions under spans recorded here, checks every
///       replayed row against the real merged output in --rows, replays
///       the cache write/read path, the durable writes and the merge of
///       an S-shard run, and prints one JSON object of per-layer metrics.
///
/// Spans live in memory and are reduced when the replay ends; nothing
/// inside the library is instrumented for this.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/result_cache.hpp"
#include "core/evaluator.hpp"
#include "core/scenario_spec.hpp"
#include "core/sweep_runner.hpp"
#include "corridor/multi_segment.hpp"
#include "corridor/sweep.hpp"
#include "exec/parallel.hpp"
#include "solar/sizing.hpp"
#include "traffic/duty.hpp"
#include "util/config.hpp"
#include "util/durable_io.hpp"
#include "util/vmath.hpp"

namespace {

using namespace railcorr;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Busy time and per-call durations of one layer boundary.
struct Stage {
  double busy_s = 0.0;
  std::vector<double> calls_s;
};

/// The replay's span store: one Stage per span name.
class Spans {
 public:
  /// RAII span around one call into a layer.
  class Scope {
   public:
    Scope(Spans& spans, const char* name)
        : stage_(spans.stages_[name]), start_(Clock::now()) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      const double s = seconds_since(start_);
      stage_.busy_s += s;
      stage_.calls_s.push_back(s);
    }

   private:
    Stage& stage_;
    Clock::time_point start_;
  };

  [[nodiscard]] const Stage& at(const std::string& name) const {
    static const Stage kEmpty;
    const auto it = stages_.find(name);
    return it == stages_.end() ? kEmpty : it->second;
  }
  [[nodiscard]] double total_busy_s() const {
    double total = 0.0;
    for (const auto& [name, stage] : stages_) total += stage.busy_s;
    return total;
  }

 private:
  std::map<std::string, Stage> stages_;
};

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

std::string read_text(const std::string& path) {
  auto text = util::read_file_fully(path);
  if (!text.has_value()) throw std::runtime_error("cannot read " + path);
  return *text;
}

/// Lines of `spec` (to_spec output) whose key satisfies `keep`, joined:
/// the canonical sub-spec one stage reads.
template <typename Keep>
std::string sub_spec(const std::string& spec, Keep keep) {
  std::istringstream in(spec);
  std::string line;
  std::string out;
  while (std::getline(in, line)) {
    const std::string key = line.substr(0, line.find(' '));
    if (keep(key)) out += line + "\n";
  }
  return out;
}

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// Everything corridor::IsdSearch::sweep reads (see
/// PaperEvaluator::max_isd_sweep): link, radio, search grid, spacing and
/// the repeater range.
std::string isd_search_input(const core::Scenario& scenario) {
  return sub_spec(core::to_spec(scenario), [](const std::string& key) {
    return starts_with(key, "link.") || starts_with(key, "radio.") ||
           starts_with(key, "isd_search.") ||
           key == "corridor.repeater_spacing_m" || key == "max_repeaters";
  });
}

/// The (plane, weather, seed, years) part of a weather tuple.
std::string weather_input(const core::Scenario& scenario) {
  return sub_spec(core::to_spec(scenario), [](const std::string& key) {
    return starts_with(key, "sizing.") && key != "sizing.locations" &&
           key != "sizing.ladder";
  });
}

/// Link models IsdSearch::sweep(1, max_repeaters) builds: one per valid
/// (N, ISD) grid point, enumerated exactly as the search does.
std::size_t link_models_of(const core::Scenario& scenario) {
  const auto& config = scenario.isd_search;
  std::size_t models = 0;
  for (int n = 1; n <= scenario.max_repeaters; ++n) {
    const double span = scenario.repeater_spacing_m * static_cast<double>(n - 1);
    const double min_isd =
        std::max(config.isd_step_m,
                 std::ceil((span + 1.0) / config.isd_step_m) * config.isd_step_m);
    for (double isd = min_isd; isd <= config.max_isd_m + 1e-9;
         isd += config.isd_step_m) {
      corridor::SegmentGeometry geometry;
      geometry.isd_m = isd;
      geometry.repeater_count = n;
      geometry.repeater_spacing_m = scenario.repeater_spacing_m;
      if (geometry.valid()) ++models;
    }
  }
  return models;
}

/// Exact work counts of a plan, derived from its cells' scenarios.
struct WorkCounts {
  std::size_t cells = 0;
  /// Distinct ISD-search inputs across the cells.
  std::size_t isd_inputs = 0;
  /// Link models the cells' ISD searches build in total.
  std::size_t link_models = 0;
  /// Distinct (location, plane, weather, seed, years) tuples: the weather
  /// sequences one size_jobs batch over every cell synthesizes.
  std::size_t weather_tuples = 0;
};

WorkCounts work_counts(const corridor::SweepPlan& plan, bool include_sizing) {
  std::set<std::string> isd_inputs;
  std::set<std::string> weather_tuples;
  WorkCounts counts;
  counts.cells = plan.size();
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const core::Scenario scenario = core::scenario_at(plan, i);
    isd_inputs.insert(isd_search_input(scenario));
    counts.link_models += link_models_of(scenario);
    if (include_sizing) {
      const std::string weather = weather_input(scenario);
      for (const auto& location : scenario.sizing_locations) {
        weather_tuples.insert(location.name + "\n" + weather);
      }
    }
  }
  counts.isd_inputs = isd_inputs.size();
  counts.weather_tuples = weather_tuples.size();
  return counts;
}

/// One replayed shard pass at a fixed thread count.
struct Pass {
  Spans spans;
  double wall_s = 0.0;
  std::vector<double> cell_s;
  std::vector<std::string> rows;
  std::vector<std::vector<solar::SizingResult>> sized;
};

/// Mirror of run_sweep_shard + evaluate_metrics + render_row for a
/// cache-less single shard covering the whole plan.
Pass replay_pass(const corridor::SweepPlan& plan, bool include_sizing,
                 std::size_t threads) {
  exec::set_default_thread_count(threads);
  Pass pass;
  const std::size_t cells = plan.size();
  pass.rows.resize(cells);
  pass.cell_s.assign(cells, 0.0);
  const auto begin = Clock::now();

  std::vector<core::Scenario> scenarios;
  scenarios.reserve(cells);
  const auto build = [&](std::size_t index) {
    const Spans::Scope span(pass.spans, "core.scenario_build");
    return core::scenario_at(plan, index);
  };
  if (include_sizing) {
    // The sizing path builds every scenario first, then runs ONE
    // size_jobs batch for the shard, then renders the cells.
    std::vector<solar::SizingJob> jobs;
    jobs.reserve(cells);
    for (std::size_t i = 0; i < cells; ++i) {
      const auto start = Clock::now();
      scenarios.push_back(build(i));
      const core::Scenario& s = scenarios.back();
      jobs.push_back(solar::SizingJob{s.sizing_locations,
                                      s.repeater_consumption_profile(),
                                      s.sizing, s.sizing_ladder});
      pass.cell_s[i] += seconds_since(start);
    }
    const Spans::Scope span(pass.spans, "solar.size_jobs");
    pass.sized = solar::size_jobs(jobs);
  } else {
    // Plans without sizing pass through an empty sizing stage.
    const Spans::Scope span(pass.spans, "solar.size_jobs");
  }

  for (std::size_t i = 0; i < cells; ++i) {
    const auto start = Clock::now();
    if (!include_sizing) scenarios.push_back(build(i));
    const core::Scenario& scenario = scenarios[i];

    int max_n = 0;
    double max_isd_m = 0.0;
    double min_snr_at_max_db = 0.0;
    {
      const Spans::Scope span(pass.spans, "corridor.isd_search");
      corridor::IsdSearchConfig config = scenario.isd_search;
      config.repeater_spacing_m = scenario.repeater_spacing_m;
      const corridor::IsdSearch search(scenario.make_analyzer(), config,
                                       scenario.radio);
      const auto sweep = search.sweep(1, scenario.max_repeaters);
      for (auto it = sweep.rbegin(); it != sweep.rend(); ++it) {
        if (it->max_isd_m.has_value()) {
          max_n = it->repeater_count;
          max_isd_m = *it->max_isd_m;
          min_snr_at_max_db = it->min_snr_at_max.value();
          break;
        }
      }
    }

    double baseline_wh = 0.0, continuous_wh = 0.0, sleep_wh = 0.0,
           solar_wh = 0.0, sleep_savings = 0.0, solar_savings = 0.0;
    corridor::SegmentGeometry geometry;
    geometry.isd_m = max_isd_m;
    geometry.repeater_count = max_n;
    geometry.repeater_spacing_m = scenario.repeater_spacing_m;
    {
      const Spans::Scope span(pass.spans, "corridor.energy");
      const auto energy_model = scenario.make_energy_model();
      const auto baseline = energy_model.conventional_baseline();
      baseline_wh = baseline.mains_wh_per_km_hour().value();
      if (max_n > 0) {
        const auto continuous = energy_model.evaluate(
            geometry, corridor::RepeaterOperationMode::kContinuous);
        const auto sleep = energy_model.evaluate(
            geometry, corridor::RepeaterOperationMode::kSleepMode);
        const auto solar = energy_model.evaluate(
            geometry, corridor::RepeaterOperationMode::kSolarPowered);
        continuous_wh = continuous.mains_wh_per_km_hour().value();
        sleep_wh = sleep.mains_wh_per_km_hour().value();
        solar_wh = solar.mains_wh_per_km_hour().value();
        sleep_savings = sleep.savings_vs(baseline);
        solar_savings = solar.savings_vs(baseline);
      }
    }

    double duty = 0.0;
    double lp_sleep_avg_w = 0.0;
    {
      const Spans::Scope span(pass.spans, "traffic.duty");
      if (max_n > 0) duty = traffic::full_load_fraction(scenario.timetable, max_isd_m);
      lp_sleep_avg_w =
          traffic::average_unit_power(scenario.energy.lp_node,
                                      scenario.timetable,
                                      scenario.repeater_spacing_m,
                                      /*sleep_when_idle=*/true)
              .value();
    }

    double corridor_min_snr_db = 0.0;
    {
      const Spans::Scope span(pass.spans, "corridor.multi_segment");
      if (max_n > 0 && scenario.corridor_segments > 1) {
        corridor::SegmentDeployment segment;
        segment.geometry = geometry;
        segment.radio = scenario.radio;
        const corridor::MultiSegmentAnalyzer analyzer(
            scenario.link, scenario.isd_search.sample_step_m);
        const auto per_segment = analyzer.per_segment(
            corridor::CorridorDeployment::repeat(segment,
                                                 scenario.corridor_segments));
        double worst = per_segment.front().min_snr.value();
        for (const auto& seg : per_segment) {
          worst = std::min(worst, seg.min_snr.value());
        }
        corridor_min_snr_db = worst;
      } else if (max_n > 0) {
        corridor_min_snr_db = min_snr_at_max_db;
      }
    }

    {
      const Spans::Scope span(pass.spans, "core.render");
      std::string row = util::format_u64(i);
      const auto field = [&row](const std::string& value) {
        row += ',';
        row += value;
      };
      for (const auto& value : plan.axis_values_at(i)) field(value);
      field(util::format_int(max_n));
      field(util::format_double(max_isd_m));
      field(util::format_double(min_snr_at_max_db));
      field(util::format_double(corridor_min_snr_db));
      field(util::format_double(baseline_wh));
      field(util::format_double(continuous_wh));
      field(util::format_double(sleep_wh));
      field(util::format_double(solar_wh));
      field(util::format_double(sleep_savings));
      field(util::format_double(solar_savings));
      field(util::format_double(duty));
      field(util::format_double(lp_sleep_avg_w));
      if (include_sizing) {
        double pv_wp = 0.0;
        int exhausted = 0;
        for (const auto& result : pass.sized[i]) {
          pv_wp += result.chosen.pv_wp;
          if (result.ladder_exhausted) ++exhausted;
        }
        field(util::format_double(pv_wp));
        field(util::format_int(exhausted));
      }
      pass.rows[i] = std::move(row);
    }
    pass.cell_s[i] += seconds_since(start);
  }
  pass.wall_s = seconds_since(begin);
  exec::set_default_thread_count(0);
  return pass;
}

/// The body of a trailered document on disk; throws when damaged.
std::string verified_body(const std::string& path) {
  const std::string document = read_text(path);
  const auto check = util::check_integrity_trailer(document);
  if (check.status != util::TrailerStatus::kVerified) {
    throw std::runtime_error(path + ": integrity trailer missing or corrupt");
  }
  return std::string(check.body);
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

struct Args {
  std::string command;
  std::string plan_path;
  std::string rows_path;
  std::string out_path;
  std::string work_dir;
  bool include_sizing = false;
  std::size_t threads = 1;
  std::size_t shards = 1;
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::runtime_error("usage: perfbench_replay context|calibrate|counts|reference|replay ...");
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error(flag + " expects a value");
      return argv[++i];
    };
    if (flag == "--plan") {
      args.plan_path = value();
    } else if (flag == "--rows") {
      args.rows_path = value();
    } else if (flag == "--out") {
      args.out_path = value();
    } else if (flag == "--work") {
      args.work_dir = value();
    } else if (flag == "--include-sizing") {
      args.include_sizing = true;
    } else if (flag == "--threads") {
      args.threads = std::stoul(value());
    } else if (flag == "--shards") {
      args.shards = std::stoul(value());
    } else {
      throw std::runtime_error("unknown option " + flag);
    }
  }
  if (args.threads == 0 || args.shards == 0) {
    throw std::runtime_error("--threads and --shards must be >= 1");
  }
  return args;
}

int cmd_context() {
  std::cout << "{\"simd\": \""
            << vmath::simd_level_name(vmath::active_simd_level())
            << "\", \"accuracy\": \""
            << vmath::accuracy_mode_name(vmath::active_accuracy_mode())
            << "\", \"hardware_threads\": " << exec::hardware_thread_count()
            << "}\n";
  return 0;
}

int cmd_reference(const Args& args) {
  const auto plan = corridor::SweepPlan::from_spec(read_text(args.plan_path));
  core::SweepRunOptions options;
  options.include_sizing = args.include_sizing;
  exec::set_default_thread_count(args.threads);
  std::string document = corridor::shard_banner(plan) + "\n" +
                         corridor::shard_header(plan, core::sweep_metric_columns(options)) +
                         "\n";
  for (std::size_t i = 0; i < plan.size(); ++i) {
    document += core::evaluate_sweep_cell(plan, i, options) + "\n";
  }
  std::string error;
  if (!util::atomic_write_file(args.out_path, document, &error)) {
    throw std::runtime_error(error);
  }
  return 0;
}

/// JSON object writer for flat name -> number metrics.
class JsonOut {
 public:
  void add(const std::string& name, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", value);
    body_ += (body_.empty() ? "" : ", ") + ("\"" + name + "\": ") + buf;
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

double thread_cpu_s() {
  timespec now{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + static_cast<double>(now.tv_nsec) * 1e-9;
}

/// Fixed, program-independent work on `threads` threads: libm-heavy
/// double loops (like the link-budget kernels) and a dependent walk over
/// a table twice the size of a core's L2 cache. Their per-thread CPU times
/// track how fast this machine's cores and memory run right now; time the
/// host steals from the VM is not CPU time, so it does not count.
int cmd_calibrate(const Args& args) {
  constexpr std::size_t kLanes = 2048;
  constexpr int kRounds = 160;
  constexpr std::size_t kTableSlots = std::size_t{1} << 20;  // 4 MiB per thread
  constexpr std::size_t kHops = std::size_t{1} << 18;
  std::vector<double> sums(args.threads, 0.0);
  std::vector<double> fp_s(args.threads, 0.0);
  std::vector<double> mem_s(args.threads, 0.0);
  {
    std::vector<std::jthread> workers;
    for (std::size_t t = 0; t < args.threads; ++t) {
      workers.emplace_back([&, t] {
        // A single-cycle permutation (Sattolo) so every hop misses.
        std::vector<std::uint32_t> next(kTableSlots);
        for (std::size_t i = 0; i < kTableSlots; ++i) next[i] = static_cast<std::uint32_t>(i);
        std::uint64_t state = 0x9E3779B97F4A7C15ULL + t;
        for (std::size_t i = kTableSlots - 1; i > 0; --i) {
          state = state * 6364136223846793005ULL + 1442695040888963407ULL;
          std::swap(next[i], next[(state >> 33) % i]);
        }
        double start = thread_cpu_s();
        std::vector<double> v(kLanes);
        for (std::size_t i = 0; i < kLanes; ++i) v[i] = 1.0 + static_cast<double>(i) * 1e-3;
        double sum = 0.0;
        for (int r = 0; r < kRounds; ++r) {
          for (double& x : v) {
            x = std::log10(x * 1.0001 + 1.5) + std::exp(-x * 1e-3) + std::pow(x, 0.75);
            sum += x;
          }
        }
        fp_s[t] = thread_cpu_s() - start;
        start = thread_cpu_s();
        std::uint32_t at = 0;
        for (std::size_t h = 0; h < kHops; ++h) at = next[at];
        mem_s[t] = thread_cpu_s() - start;
        sums[t] = sum + static_cast<double>(at);
      });
    }
  }
  double checksum = 0.0;
  for (const double s : sums) checksum += s;
  JsonOut out;
  out.add("fp_s", median(fp_s));
  out.add("mem_s", median(mem_s));
  out.add("checksum", checksum);
  std::cout << out.str() << "\n";
  return 0;
}

int cmd_counts(const Args& args) {
  const auto plan = corridor::SweepPlan::from_spec(read_text(args.plan_path));
  const WorkCounts counts = work_counts(plan, args.include_sizing);
  JsonOut out;
  out.add("cells", static_cast<double>(counts.cells));
  out.add("corridor.isd_search.distinct", static_cast<double>(counts.isd_inputs));
  out.add("rf.link_models", static_cast<double>(counts.link_models));
  out.add("solar.weather_tuples", static_cast<double>(counts.weather_tuples));
  std::cout << out.str() << "\n";
  return 0;
}

int cmd_replay(const Args& args) {
  namespace fs = std::filesystem;
  const auto plan = corridor::SweepPlan::from_spec(read_text(args.plan_path));
  core::SweepRunOptions options;
  options.include_sizing = args.include_sizing;
  const std::string banner = corridor::shard_banner(plan);
  const std::string header =
      corridor::shard_header(plan, core::sweep_metric_columns(options));
  const std::string real_body = verified_body(args.rows_path);
  const auto real_lines = split_lines(real_body);
  JsonOut out;

  // ---- Replay passes: the op's own thread count, plus 1 and 4 threads
  // for the exec layer's ISD-stage scaling.
  std::map<std::size_t, Pass> passes;
  for (const std::size_t t : std::set<std::size_t>{1, 4, args.threads}) {
    passes.emplace(t, replay_pass(plan, args.include_sizing, t));
  }
  const Pass& main = passes.at(args.threads);

  std::size_t mismatched = 0;
  if (real_lines.size() != plan.size() + 2 || real_lines[0] != banner ||
      real_lines[1] != header) {
    mismatched = plan.size();
  } else {
    for (const auto& [threads, pass] : passes) {
      for (std::size_t i = 0; i < plan.size(); ++i) {
        if (pass.rows[i] != real_lines[i + 2]) ++mismatched;
      }
    }
  }
  out.add("replay.mismatched_rows", static_cast<double>(mismatched));

  // ---- Exact work counts.
  const WorkCounts counts = work_counts(plan, args.include_sizing);
  std::size_t sizing_cases = 0;
  for (std::size_t i = 0; i < main.sized.size(); ++i) {
    const core::Scenario scenario = core::scenario_at(plan, i);
    for (const auto& result : main.sized[i]) {
      // The ladder walk simulates every rung up to the chosen one.
      std::size_t rung = 0;
      while (rung + 1 < scenario.sizing_ladder.size() &&
             (scenario.sizing_ladder[rung].pv_wp != result.chosen.pv_wp ||
              scenario.sizing_ladder[rung].battery_wh != result.chosen.battery_wh)) {
        ++rung;
      }
      sizing_cases += rung + 1;
    }
  }

  const Stage& isd = main.spans.at("corridor.isd_search");
  out.add("corridor.isd_search.busy_s", isd.busy_s);
  out.add("corridor.isd_search.us_p50", median(isd.calls_s) * 1e6);
  out.add("corridor.isd_search.calls", static_cast<double>(isd.calls_s.size()));
  out.add("corridor.isd_search.distinct", static_cast<double>(counts.isd_inputs));
  out.add("corridor.isd_search.useful_ratio",
          isd.calls_s.empty() ? 0.0
                              : static_cast<double>(counts.isd_inputs) /
                                    static_cast<double>(isd.calls_s.size()));
  out.add("rf.link_models", static_cast<double>(counts.link_models));
  const double isd1 = passes.at(1).spans.at("corridor.isd_search").busy_s;
  const double isd4 = passes.at(4).spans.at("corridor.isd_search").busy_s;
  out.add("exec.speedup_4t", isd4 > 0 ? isd1 / isd4 : 0.0);
  out.add("exec.efficiency_4t", isd4 > 0 ? isd1 / isd4 / 4.0 : 0.0);
  out.add("corridor.multi_segment.busy_s",
          main.spans.at("corridor.multi_segment").busy_s);
  out.add("corridor.energy.busy_s", main.spans.at("corridor.energy").busy_s);
  out.add("traffic.duty.busy_s", main.spans.at("traffic.duty").busy_s);
  out.add("solar.size_jobs.busy_s", main.spans.at("solar.size_jobs").busy_s);
  out.add("solar.jobs", static_cast<double>(main.sized.size()));
  out.add("solar.weather_tuples", static_cast<double>(counts.weather_tuples));
  out.add("solar.cases", static_cast<double>(sizing_cases));
  out.add("core.scenario_build_us_p50",
          median(main.spans.at("core.scenario_build").calls_s) * 1e6);
  out.add("core.cell_us_p50", quantile(main.cell_s, 0.5) * 1e6);
  out.add("core.cell_us_p99", quantile(main.cell_s, 0.99) * 1e6);
  out.add("core.stage_coverage",
          main.wall_s > 0 ? main.spans.total_busy_s() / main.wall_s : 0.0);
  out.add("core.shard_s", main.wall_s);

  // ---- Shard documents of an S-shard run (index-interleaved, trailered).
  std::vector<std::string> shard_docs(args.shards, banner + "\n" + header + "\n");
  for (std::size_t i = 0; i < plan.size(); ++i) {
    shard_docs[i % args.shards] += main.rows[i] + "\n";
  }
  for (auto& doc : shard_docs) doc = util::with_integrity_trailer(doc);
  std::vector<std::string> shard_names;
  for (std::size_t s = 0; s < args.shards; ++s) {
    shard_names.push_back("shard_" + std::to_string(s) + ".csv");
  }
  constexpr int kRepeats = 5;

  // ---- Cache: one process per shard fills a fresh store (insert, then
  // flush), then warm views open it and look every cell up.
  const fs::path store = fs::path(args.work_dir) / "cache";
  std::vector<double> flush_ms;
  std::size_t inserts = 0;
  for (int r = 0; r < kRepeats; ++r) {
    fs::remove_all(store);
    double flush_s = 0.0;
    for (std::size_t s = 0; s < args.shards; ++s) {
      cache::ResultCache cache;
      std::string error;
      if (!cache.open({store.string(), 0}, &error)) throw std::runtime_error(error);
      for (std::size_t i = s; i < plan.size(); i += args.shards) {
        cache.insert(cache::cell_key(banner, i, header), main.rows[i]);
      }
      const auto start = Clock::now();
      if (!cache.flush(&error)) throw std::runtime_error(error);
      flush_s += seconds_since(start);
      if (r == 0) inserts += cache.stats().inserted;
    }
    flush_ms.push_back(flush_s * 1e3);
  }
  const auto report = cache::scan_dir(store.string(), false);
  std::vector<double> open_ms;
  std::vector<double> lookup_s;
  std::size_t segments = 0;
  std::size_t replay_hits = 0;
  for (int r = 0; r < kRepeats; ++r) {
    cache::ResultCache cache;
    std::string error;
    const auto start = Clock::now();
    if (!cache.open({store.string(), 0}, &error)) throw std::runtime_error(error);
    open_ms.push_back(seconds_since(start) * 1e3);
    segments = cache.stats().segments;
    for (std::size_t i = 0; i < plan.size(); ++i) {
      const std::uint64_t key = cache::cell_key(banner, i, header);
      const auto t0 = Clock::now();
      const auto hit = cache.lookup(key);
      lookup_s.push_back(seconds_since(t0));
      if (hit.has_value() && *hit == main.rows[i]) ++replay_hits;
    }
  }
  out.add("cache.open_ms", median(open_ms));
  out.add("cache.segments", static_cast<double>(segments));
  out.add("cache.lookup_us_p50", quantile(lookup_s, 0.5) * 1e6);
  out.add("cache.lookup_us_p99", quantile(lookup_s, 0.99) * 1e6);
  out.add("cache.inserts", static_cast<double>(inserts));
  out.add("cache.flush_ms", median(flush_ms));
  out.add("cache.store_bytes", static_cast<double>(report.bytes));
  out.add("replay.cache_hits_ok",
          replay_hits == plan.size() * kRepeats ? 1.0 : 0.0);

  // ---- Durable writes of the shard files and the merged document, and
  // the merge itself.
  const fs::path io_dir = fs::path(args.work_dir) / "io";
  fs::create_directories(io_dir);
  std::vector<double> write_ms;
  std::size_t bytes_written = 0;
  std::vector<double> merge_ms;
  bool merge_ok = true;
  for (int r = 0; r < kRepeats; ++r) {
    const auto merge_start = Clock::now();
    const auto merged = corridor::merge_shards(shard_docs, shard_names);
    merge_ms.push_back(seconds_since(merge_start) * 1e3);
    merge_ok = merge_ok && merged.ok && merged.merged == real_body;

    std::size_t bytes = 0;
    const auto start = Clock::now();
    std::string error;
    for (std::size_t s = 0; s < args.shards; ++s) {
      if (!util::atomic_write_file((io_dir / shard_names[s]).string(),
                                   shard_docs[s], &error)) {
        throw std::runtime_error(error);
      }
      bytes += shard_docs[s].size();
    }
    const std::string merged_doc = util::with_integrity_trailer(merged.merged);
    if (!util::atomic_write_file((io_dir / "merged.csv").string(), merged_doc,
                                 &error)) {
      throw std::runtime_error(error);
    }
    bytes += merged_doc.size();
    write_ms.push_back(seconds_since(start) * 1e3);
    bytes_written = bytes;
  }
  out.add("corridor.merge.ms", median(merge_ms));
  out.add("io.durable_write_ms", median(write_ms));
  out.add("io.bytes_written", static_cast<double>(bytes_written));
  out.add("replay.merge_ok", merge_ok ? 1.0 : 0.0);

  std::cout << out.str() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    // Outputs are compared byte for byte against the CLI's bit-exact
    // default; pin it so an inherited environment cannot diverge.
    vmath::force_accuracy_mode(vmath::AccuracyMode::kBitExact);
    if (args.command == "context") return cmd_context();
    if (args.command == "calibrate") return cmd_calibrate(args);
    if (args.command == "counts") return cmd_counts(args);
    if (args.command == "reference") return cmd_reference(args);
    if (args.command == "replay") return cmd_replay(args);
    throw std::runtime_error("unknown command " + args.command);
  } catch (const std::exception& error) {
    std::cerr << "perfbench_replay: " << error.what() << "\n";
    return 1;
  }
}
