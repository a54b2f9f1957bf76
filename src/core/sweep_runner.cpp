#include "core/sweep_runner.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "core/evaluator.hpp"
#include "core/scenario_registry.hpp"
#include "core/scenario_spec.hpp"
#include "corridor/multi_segment.hpp"
#include "exec/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "traffic/duty.hpp"
#include "util/config.hpp"

namespace railcorr::core {

namespace {

/// The registry keys the radio stage reads (key prefixes): everything
/// PaperEvaluator::deepest_feasible and the multi-segment check consume.
/// Cells whose sub-specs over these keys are equal share one radio run.
constexpr std::array<std::string_view, 5> kRadioStageKeys = {
    "link.", "radio.", "isd_search.", "corridor.", "max_repeaters"};

/// The radio columns of a row.
struct RadioColumns {
  int max_n = 0;
  double max_isd_m = 0.0;
  double min_snr_at_max_db = 0.0;
  double corridor_min_snr_db = 0.0;
};

/// The radio columns of `deepest`, the deepest deployment the
/// scenario's criterion still supports (none: all zero), with the
/// whole-corridor worst case at that deployment.
RadioColumns radio_columns(
    const Scenario& scenario,
    const std::optional<corridor::MaxIsdResult>& deepest) {
  RadioColumns r;
  if (!deepest) return r;
  r.max_n = deepest->repeater_count;
  r.max_isd_m = *deepest->max_isd_m;
  r.min_snr_at_max_db = deepest->min_snr_at_max.value();

  // Every neighbour contributing; equals the single-segment minimum
  // when corridor.segments == 1.
  r.corridor_min_snr_db = r.min_snr_at_max_db;
  if (scenario.corridor_segments > 1) {
    const obs::ObsSpan span("corridor_check", "sweep", "segments",
                            static_cast<std::uint64_t>(
                                scenario.corridor_segments));
    corridor::SegmentDeployment segment;
    segment.geometry.isd_m = r.max_isd_m;
    segment.geometry.repeater_count = r.max_n;
    segment.geometry.repeater_spacing_m = scenario.repeater_spacing_m;
    segment.radio = scenario.radio;
    const corridor::MultiSegmentAnalyzer analyzer(
        scenario.link, scenario.isd_search.sample_step_m);
    r.corridor_min_snr_db =
        analyzer
            .min_snr(corridor::CorridorDeployment::repeat(
                segment, scenario.corridor_segments))
            .value();
  }
  return r;
}

/// Radio stage: a pure function of the kRadioStageKeys fields.
RadioColumns radio_stage(const Scenario& scenario) {
  return radio_columns(scenario, PaperEvaluator(scenario).deepest_feasible());
}

/// The naive reference of radio_stage: the full max-ISD sweep, scanned
/// from the deepest N for the first one that has a max ISD.
RadioColumns naive_radio_stage(const Scenario& scenario) {
  const auto sweep = PaperEvaluator(scenario).max_isd_sweep();
  for (auto it = sweep.rbegin(); it != sweep.rend(); ++it) {
    if (it->max_isd_m.has_value()) return radio_columns(scenario, *it);
  }
  return radio_columns(scenario, std::nullopt);
}

/// Per-cell stage: energy, duty and LP sleep power on top of the radio
/// columns, plus the sizing columns when `sized` is given, rendered as
/// the cell's CSV row (no trailing newline).
std::string render_row(const corridor::SweepPlan& plan, std::size_t index,
                       const Scenario& scenario, const RadioColumns& radio,
                       const std::vector<solar::SizingResult>* sized) {
  const auto energy_model = scenario.make_energy_model();
  const auto baseline = energy_model.conventional_baseline();
  double continuous_wh_km_h = 0.0;
  double sleep_wh_km_h = 0.0;
  double solar_wh_km_h = 0.0;
  double sleep_savings = 0.0;
  double solar_savings = 0.0;
  double duty_at_max_isd = 0.0;
  if (radio.max_n > 0) {
    corridor::SegmentGeometry geometry;
    geometry.isd_m = radio.max_isd_m;
    geometry.repeater_count = radio.max_n;
    geometry.repeater_spacing_m = scenario.repeater_spacing_m;
    const auto continuous = energy_model.evaluate(
        geometry, corridor::RepeaterOperationMode::kContinuous);
    const auto sleep = energy_model.evaluate(
        geometry, corridor::RepeaterOperationMode::kSleepMode);
    const auto solar = energy_model.evaluate(
        geometry, corridor::RepeaterOperationMode::kSolarPowered);
    continuous_wh_km_h = continuous.mains_wh_per_km_hour().value();
    sleep_wh_km_h = sleep.mains_wh_per_km_hour().value();
    solar_wh_km_h = solar.mains_wh_per_km_hour().value();
    sleep_savings = sleep.savings_vs(baseline);
    solar_savings = solar.savings_vs(baseline);
    duty_at_max_isd =
        traffic::full_load_fraction(scenario.timetable, radio.max_isd_m);
  }
  const double lp_sleep_avg_w =
      traffic::average_unit_power(scenario.energy.lp_node, scenario.timetable,
                                  scenario.repeater_spacing_m,
                                  /*sleep_when_idle=*/true)
          .value();

  std::string row = util::format_u64(index);
  const auto field = [&row](const std::string& value) {
    row += ',';
    row += value;
  };
  // Axis values verbatim from the plan: the row echoes the cell's
  // coordinates exactly as declared, independent of field formatting.
  for (const auto& value : plan.axis_values_at(index)) field(value);

  field(util::format_int(radio.max_n));
  field(util::format_double(radio.max_isd_m));
  field(util::format_double(radio.min_snr_at_max_db));
  field(util::format_double(radio.corridor_min_snr_db));
  field(util::format_double(baseline.mains_wh_per_km_hour().value()));
  field(util::format_double(continuous_wh_km_h));
  field(util::format_double(sleep_wh_km_h));
  field(util::format_double(solar_wh_km_h));
  field(util::format_double(sleep_savings));
  field(util::format_double(solar_savings));
  field(util::format_double(duty_at_max_isd));
  field(util::format_double(lp_sleep_avg_w));
  if (sized != nullptr) {
    double sized_pv_wp_total = 0.0;
    int ladder_exhausted = 0;
    for (const auto& result : *sized) {
      sized_pv_wp_total += result.chosen.pv_wp;
      if (result.ladder_exhausted) ++ladder_exhausted;
    }
    field(util::format_double(sized_pv_wp_total));
    field(util::format_int(ladder_exhausted));
  }
  return row;
}

}  // namespace

std::vector<std::string> sweep_metric_columns(const SweepRunOptions& options) {
  std::vector<std::string> columns = {
      "max_n",           "max_isd_m",         "min_snr_at_max_db",
      "corridor_min_snr_db", "baseline_wh_km_h", "continuous_wh_km_h",
      "sleep_wh_km_h",   "solar_wh_km_h",     "sleep_savings",
      "solar_savings",   "duty_at_max_isd",   "lp_sleep_avg_w",
  };
  if (options.include_sizing) {
    columns.emplace_back("sized_pv_wp_total");
    columns.emplace_back("ladder_exhausted");
  }
  return columns;
}

Scenario scenario_at(const corridor::SweepPlan& plan, std::size_t index) {
  Scenario scenario = make_scenario(plan.base);
  for (const auto& entry : plan.overrides_at(index)) {
    apply_override(scenario, entry);
  }
  return scenario;
}

std::string evaluate_sweep_cell(const corridor::SweepPlan& plan,
                                std::size_t index,
                                const SweepRunOptions& options) {
  const Scenario scenario = scenario_at(plan, index);
  std::vector<solar::SizingResult> sized;
  if (options.include_sizing) sized = PaperEvaluator(scenario).table4_sizing();
  return render_row(plan, index, scenario, naive_radio_stage(scenario),
                    options.include_sizing ? &sized : nullptr);
}

std::string run_sweep_shard(const corridor::SweepPlan& plan,
                            corridor::ShardSpec shard,
                            const SweepRunOptions& options) {
  const std::string banner = corridor::shard_banner(plan);
  const std::string header =
      corridor::shard_header(plan, sweep_metric_columns(options));
  const auto indices = shard.indices(plan.size());

  // Telemetry is observation only: spans and clocks wrap stages whose
  // outputs land in per-cell slots, so traced and untraced runs emit
  // byte-identical documents. Per-cell clocks are read only when an
  // enabled metrics registry consumes them.
  auto& metrics = obs::MetricsRegistry::instance();
  static obs::Counter& cells_counter = metrics.counter("sweep.cells");
  static obs::Counter& cached_counter = metrics.counter("sweep.cells_cached");
  static obs::Counter& searches_counter =
      metrics.counter("sweep.isd_searches");
  static obs::Counter& memo_hits_counter =
      metrics.counter("sweep.isd_memo_hits");
  static obs::Histogram& cell_hist = metrics.histogram("sweep.cell_usec");
  const bool timed = metrics.enabled();
  const auto cell_usec = [timed](std::uint64_t start) -> std::uint64_t {
    if (!timed) return 0;
    const std::uint64_t now = obs::usec_now();
    return now >= start ? now - start : 0;
  };
  const obs::ObsSpan shard_span("shard", "sweep", "cells", indices.size());

  // The cache key covers everything a row's bytes depend on: the
  // banner (plan fingerprint + grid), the header (column set), hashed
  // once here, and the cell index. A hit therefore IS the row a cold
  // evaluation would render, byte for byte.
  cache::ResultCache* cache =
      options.cache != nullptr && options.cache->is_open() ? options.cache
                                                           : nullptr;
  const std::uint64_t key_prefix = cache::cell_key_prefix(banner, header);
  const auto key_of = [key_prefix](std::size_t index) {
    return cache::cell_key(key_prefix, index);
  };

  // Stage 1: cache hits keep their stored rows; only missed cells
  // (positions into `indices`) go through the stages below, and build
  // their scenarios here.
  std::vector<std::string> rows(indices.size());
  std::vector<std::uint64_t> usecs(indices.size(), 0);
  std::vector<std::size_t> missed;
  std::vector<Scenario> scenarios;
  std::vector<std::string> radio_inputs;
  {
    const obs::ObsSpan span("scenarios", "sweep", "cells", indices.size());
    missed.reserve(indices.size());
    for (std::size_t i = 0; i < indices.size(); ++i) {
      if (cache != nullptr) {
        const std::uint64_t start = timed ? obs::usec_now() : 0;
        if (const auto hit = cache->lookup(key_of(indices[i]))) {
          rows[i] = std::string(*hit);
          usecs[i] = cell_usec(start);
          continue;
        }
      }
      missed.push_back(i);
    }
    cached_counter.add(indices.size() - missed.size());

    scenarios.resize(missed.size());
    radio_inputs.resize(missed.size());
    try {
      exec::parallel_for(missed.size(), [&](std::size_t j) {
        scenarios[j] = scenario_at(plan, indices[missed[j]]);
        radio_inputs[j] = to_spec(scenarios[j], kRadioStageKeys);
      });
    } catch (const util::ConfigError&) {
      // Report the lowest-index bad cell at any thread count.
      for (const std::size_t i : missed) scenario_at(plan, indices[i]);
      throw;
    }
  }

  // Stage 2: each distinct radio input runs its sequential top-down
  // search once, as the outer parallel loop. group_of[j] is the radio
  // run of missed cell j; groups number in first-seen order.
  std::vector<std::size_t> group_of(missed.size());
  std::vector<std::size_t> group_first;
  std::vector<std::size_t> group_cells;
  {
    std::unordered_map<std::string_view, std::size_t> group_by_input;
    for (std::size_t j = 0; j < missed.size(); ++j) {
      const auto [it, fresh] =
          group_by_input.emplace(radio_inputs[j], group_first.size());
      if (fresh) {
        group_first.push_back(j);
        group_cells.push_back(0);
      }
      group_of[j] = it->second;
      ++group_cells[it->second];
    }
  }
  const auto radio =
      exec::parallel_map(group_first.size(), [&](std::size_t g) {
        const obs::ObsSpan span("isd_search", "sweep", "cells",
                                group_cells[g]);
        return radio_stage(scenarios[group_first[g]]);
      });
  searches_counter.add(group_first.size());
  memo_hits_counter.add(missed.size() - group_first.size());

  // Stage 3: the off-grid simulations of all missed cells as ONE
  // size_jobs batch, each distinct weather tuple synthesized once for
  // the shard. size_jobs is bit-identical to the per-cell evaluator
  // path, so the rows cannot depend on the batching.
  std::vector<std::vector<solar::SizingResult>> sized;
  if (options.include_sizing) {
    std::vector<solar::SizingJob> jobs;
    jobs.reserve(missed.size());
    for (const Scenario& scenario : scenarios) {
      jobs.push_back(solar::SizingJob{scenario.sizing_locations,
                                      scenario.repeater_consumption_profile(),
                                      scenario.sizing,
                                      scenario.sizing_ladder});
    }
    // The batch is shared across cells, so it gets its own span rather
    // than being smeared into per-cell figures.
    const obs::ObsSpan batch_span("sizing_batch", "sweep", "cells",
                                  missed.size());
    sized = solar::size_jobs(jobs);
  }

  // Stage 4: the per-cell rest, parallel over cells, each into its own
  // slot. A cell's usec is this stage's time alone: the shared radio
  // runs and sizing batch are not attributed to individual cells.
  exec::parallel_for(missed.size(), [&](std::size_t j) {
    const std::size_t i = missed[j];
    const std::uint64_t start = timed ? obs::usec_now() : 0;
    {
      const obs::ObsSpan span("cell", "sweep", "index", indices[i]);
      rows[i] = render_row(plan, indices[i], scenarios[j], radio[group_of[j]],
                           options.include_sizing ? &sized[j] : nullptr);
    }
    usecs[i] = cell_usec(start);
  });

  // Stage 5: emission on the calling thread in ascending index order.
  const obs::ObsSpan emit_span("emit", "sweep", "cells", indices.size());
  if (cache != nullptr) {
    for (const std::size_t i : missed) {
      cache->insert(key_of(indices[i]), rows[i]);
    }
  }
  std::string document = banner + "\n" + header + "\n";
  for (std::size_t i = 0; i < indices.size(); ++i) {
    document += rows[i];
    document += '\n';
    cells_counter.add();
    if (metrics.enabled()) cell_hist.record(usecs[i]);
  }
  if (cache != nullptr) cache->flush();
  return document;
}

}  // namespace railcorr::core
