/// A2 — Ablation: energy savings vs traffic density, train parameters and
/// night-pause length. The paper evaluates one service pattern
/// (8 trains/h, 19 h); this sweep shows how the 50-79 % savings band
/// moves with the workload.
#include <benchmark/benchmark.h>

#include <iostream>

#include "corridor/energy.hpp"
#include "corridor/isd_search.hpp"
#include "traffic/timetable.hpp"
#include "util/table.hpp"

namespace {

using namespace railcorr;
using corridor::CorridorEnergyModel;
using corridor::EnergyConfig;
using corridor::RepeaterOperationMode;
using corridor::SegmentGeometry;
using railcorr::TextTable;
using traffic::TimetableConfig;

SegmentGeometry n10_geometry() {
  SegmentGeometry g;
  g.isd_m = 2650.0;
  g.repeater_count = 10;
  return g;
}

void print_traffic_sweep() {
  TextTable t("Sleep/solar savings (N = 10, ISD 2650 m) vs trains per hour");
  t.set_header({"trains/h", "baseline [W/km]", "sleep sav", "solar sav"});
  for (const double tph : {2.0, 4.0, 8.0, 12.0, 16.0, 24.0}) {
    TimetableConfig timetable = TimetableConfig::paper_timetable();
    timetable.trains_per_hour = tph;
    const CorridorEnergyModel model(EnergyConfig::paper_config(), timetable);
    const auto baseline = model.conventional_baseline();
    const auto sleep =
        model.evaluate(n10_geometry(), RepeaterOperationMode::kSleepMode);
    const auto solar =
        model.evaluate(n10_geometry(), RepeaterOperationMode::kSolarPowered);
    t.add_row({TextTable::num(tph, 0),
               TextTable::num(baseline.total_mains_per_km().value(), 1),
               TextTable::num(100.0 * sleep.savings_vs(baseline), 1) + " %",
               TextTable::num(100.0 * solar.savings_vs(baseline), 1) + " %"});
  }
  std::cout << t << '\n';

  TextTable v("Savings vs train speed (N = 10, sleep mode)");
  v.set_header({"speed [km/h]", "HP duty [%]", "sleep sav"});
  for (const double kmh : {80.0, 120.0, 160.0, 200.0, 250.0, 300.0}) {
    TimetableConfig timetable = TimetableConfig::paper_timetable();
    timetable.train.speed_mps = kmh / 3.6;
    const CorridorEnergyModel model(EnergyConfig::paper_config(), timetable);
    const auto baseline = model.conventional_baseline();
    const auto sleep =
        model.evaluate(n10_geometry(), RepeaterOperationMode::kSleepMode);
    v.add_row({TextTable::num(kmh, 0),
               TextTable::num(100.0 * sleep.hp_full_load_fraction, 2),
               TextTable::num(100.0 * sleep.savings_vs(baseline), 1) + " %"});
  }
  std::cout << v << '\n';

  TextTable n("Savings vs night-pause length (N = 10, sleep mode)");
  n.set_header({"night [h]", "trains/day", "sleep sav"});
  for (const double night : {0.0, 3.0, 5.0, 8.0}) {
    TimetableConfig timetable = TimetableConfig::paper_timetable();
    timetable.night_hours = night;
    const CorridorEnergyModel model(EnergyConfig::paper_config(), timetable);
    const auto baseline = model.conventional_baseline();
    const auto sleep =
        model.evaluate(n10_geometry(), RepeaterOperationMode::kSleepMode);
    n.add_row({TextTable::num(night, 0),
               TextTable::num(timetable.trains_per_day(), 0),
               TextTable::num(100.0 * sleep.savings_vs(baseline), 1) + " %"});
  }
  std::cout << n << '\n';
}

void BM_EnergySweep(benchmark::State& state) {
  const CorridorEnergyModel model(EnergyConfig::paper_config(),
                                  TimetableConfig::paper_timetable());
  const auto g = n10_geometry();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.evaluate(g, RepeaterOperationMode::kSleepMode));
  }
}
BENCHMARK(BM_EnergySweep);

}  // namespace

int main(int argc, char** argv) {
  print_traffic_sweep();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
