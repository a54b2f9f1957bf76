#include "solar/offgrid.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "solar/sizing.hpp"
#include "util/contracts.hpp"

namespace railcorr::solar {
namespace {

ConsumptionProfile paper_load() {
  return repeater_consumption(
      power::EarthPowerModel::paper_low_power_repeater(),
      traffic::TimetableConfig::paper_timetable(), 200.0);
}

TEST(OffGrid, MadridStandardSystemRunsContinuously) {
  OffGridSystem system;  // 540 Wp / 720 Wh, vertical south
  const OffGridSimulator sim(madrid(), system, paper_load());
  // The reference weather seed used by the Table IV sizing runs.
  const auto report =
      sim.simulate(SizingOptions{}.seed, /*years=*/3);
  EXPECT_TRUE(report.continuous_operation());
  EXPECT_GT(report.days_with_full_battery_pct, 90.0);
  EXPECT_EQ(report.downtime_days, 0);
}

TEST(OffGrid, MeanYearIsEasierThanStochastic) {
  OffGridSystem system;
  const OffGridSimulator sim(vienna(), system, paper_load());
  const auto mean = sim.simulate_mean_year();
  EXPECT_TRUE(mean.continuous_operation());
}

TEST(OffGrid, TinyBatteryFailsInWinter) {
  OffGridSystem system;
  system.battery_capacity_wh = 60.0;  // < one night of sleep-mode load
  const OffGridSimulator sim(berlin(), system, paper_load());
  const auto report = sim.simulate(1, 1);
  EXPECT_FALSE(report.continuous_operation());
  EXPECT_GT(report.downtime_days, 0);
}

TEST(OffGrid, TinyPanelFails) {
  OffGridSystem system;
  system.array = PvArray(5.0);  // 5 Wp cannot sustain ~122 Wh/day
  const OffGridSimulator sim(madrid(), system, paper_load());
  const auto report = sim.simulate(1, 1);
  EXPECT_FALSE(report.continuous_operation());
  EXPECT_GT(report.unserved_energy.value(), 0.0);
}

TEST(OffGrid, EnergyAccountingConsistent) {
  OffGridSystem system;
  const OffGridSimulator sim(lyon(), system, paper_load());
  const auto report = sim.simulate(3, 1);
  // Load over a 365-day year at ~122 Wh/day.
  EXPECT_NEAR(report.annual_load.value(), 365.0 * paper_load().daily_energy().value(),
              1.0);
  // PV production exceeds the load by a wide margin (540 Wp vs ~5 W load).
  EXPECT_GT(report.annual_pv_energy.value(), 5.0 * report.annual_load.value());
  // Most surplus is curtailed once the battery is full.
  EXPECT_GT(report.curtailed_energy.value(), 0.0);
  EXPECT_LT(report.curtailed_energy.value(), report.annual_pv_energy.value());
  EXPECT_GE(report.min_soc_fraction, 0.4 - 1e-9);
}

TEST(OffGrid, LargerBatteryNeverWorse) {
  ConsumptionProfile load = paper_load();
  OffGridSystem small;
  small.battery_capacity_wh = 240.0;
  OffGridSystem large;
  large.battery_capacity_wh = 1440.0;
  const auto r_small =
      OffGridSimulator(berlin(), small, load).simulate(11, 2);
  const auto r_large =
      OffGridSimulator(berlin(), large, load).simulate(11, 2);
  EXPECT_LE(r_large.downtime_hours, r_small.downtime_hours);
}

TEST(OffGrid, DeterministicForSameSeed) {
  OffGridSystem system;
  const OffGridSimulator sim(vienna(), system, paper_load());
  const auto a = sim.simulate(99, 1);
  const auto b = sim.simulate(99, 1);
  EXPECT_DOUBLE_EQ(a.days_with_full_battery_pct, b.days_with_full_battery_pct);
  EXPECT_EQ(a.downtime_hours, b.downtime_hours);
  EXPECT_DOUBLE_EQ(a.annual_pv_energy.value(), b.annual_pv_energy.value());
}

TEST(OffGrid, Contracts) {
  OffGridSystem bad;
  bad.battery_capacity_wh = 0.0;
  EXPECT_THROW(OffGridSimulator(madrid(), bad, paper_load()),
               ContractViolation);
  OffGridSystem system;
  const OffGridSimulator sim(madrid(), system, paper_load());
  EXPECT_THROW(sim.simulate(1, 0), ContractViolation);
}

TEST(OffGrid, SharedDaysReproduceSimulateBitwise) {
  // simulate() is defined as simulate_days over synthesize_days: the
  // decomposition must be observable (shared weather is the batched
  // sizing engine's foundation).
  OffGridSystem system;
  const OffGridSimulator sim(vienna(), system, paper_load());
  const auto days = synthesize_days(vienna(), system.plane, WeatherModel{},
                                    77, 2);
  const auto direct = sim.simulate(77, 2);
  const auto shared = sim.simulate_days(days);
  EXPECT_EQ(direct.downtime_hours, shared.downtime_hours);
  EXPECT_EQ(direct.unserved_energy.value(), shared.unserved_energy.value());
  EXPECT_EQ(direct.annual_pv_energy.value(),
            shared.annual_pv_energy.value());
  EXPECT_EQ(direct.min_soc_fraction, shared.min_soc_fraction);
  EXPECT_EQ(direct.days_with_full_battery_pct,
            shared.days_with_full_battery_pct);
}

TEST(OffGrid, BatchedCasesBitIdenticalToIndependentRuns) {
  // The SoA engine must match one-system runs slot for slot, across
  // heterogeneous arrays, batteries, and consumption profiles.
  const auto days = synthesize_days(berlin(), PlaneOfArray{},
                                    WeatherModel{}, 1234, 1);
  std::vector<OffGridCase> cases;
  for (int i = 0; i < 5; ++i) {
    OffGridCase cell;
    cell.system.array = PvArray(360.0 + 90.0 * i);
    cell.system.battery_capacity_wh = 720.0 + 360.0 * i;
    cell.consumption = paper_load();
    for (auto& w : cell.consumption.hourly_watts) w *= 1.0 + 0.1 * i;
    cases.push_back(cell);
  }
  const auto batched = simulate_cases(days, cases);
  ASSERT_EQ(batched.size(), cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const OffGridSimulator single(berlin(), cases[i].system,
                                  cases[i].consumption);
    const auto reference = single.simulate_days(days);
    EXPECT_EQ(batched[i].downtime_hours, reference.downtime_hours);
    EXPECT_EQ(batched[i].downtime_days, reference.downtime_days);
    EXPECT_EQ(batched[i].unserved_energy.value(),
              reference.unserved_energy.value());
    EXPECT_EQ(batched[i].curtailed_energy.value(),
              reference.curtailed_energy.value());
    EXPECT_EQ(batched[i].annual_pv_energy.value(),
              reference.annual_pv_energy.value());
    EXPECT_EQ(batched[i].annual_load.value(), reference.annual_load.value());
    EXPECT_EQ(batched[i].min_soc_fraction, reference.min_soc_fraction);
    EXPECT_EQ(batched[i].days_with_full_battery_pct,
              reference.days_with_full_battery_pct);
  }
}

// --- simulate_cases against an independent loop --------------------------

/// The off-grid day loop written with the component models themselves
/// (PvArray::hourly_energy, Battery::charge / Battery::discharge), none
/// of simulate_cases' code: the oracle the kernel must reproduce field
/// for field, including the first-outage stop.
OffGridReport component_run(const std::vector<DailyIrradiance>& days,
                            const OffGridCase& cell) {
  Battery battery(cell.system.battery_capacity_wh, cell.system.battery_cutoff);
  OffGridReport report;
  int full_days = 0;
  int simulated = 0;
  for (const auto& day : days) {
    bool full = false;
    bool unmet = false;
    for (std::size_t h = 0; h < 24; ++h) {
      const WattHours pv = cell.system.array.hourly_energy(day.poa_wh_m2[h]);
      const WattHours load(cell.consumption.hourly_watts[h]);
      report.annual_pv_energy += pv;
      report.annual_load += load;
      if (pv >= load) {
        report.curtailed_energy += battery.charge(pv - load);
      } else {
        const WattHours deficit = load - pv;
        const WattHours delivered = battery.discharge(deficit);
        if (delivered.value() < deficit.value() - 1e-9) {
          unmet = true;
          ++report.downtime_hours;
          report.unserved_energy += deficit - delivered;
        }
      }
      if (battery.is_full()) full = true;
      report.min_soc_fraction =
          std::min(report.min_soc_fraction, battery.soc_fraction());
    }
    ++simulated;
    if (full) ++full_days;
    if (unmet) {
      ++report.downtime_days;
      if (cell.stop_at_first_outage) break;
    }
  }
  report.days_with_full_battery_pct =
      100.0 * full_days / static_cast<double>(simulated);
  return report;
}

void expect_reports_identical(const OffGridReport& a, const OffGridReport& b) {
  EXPECT_EQ(a.days_with_full_battery_pct, b.days_with_full_battery_pct);
  EXPECT_EQ(a.downtime_days, b.downtime_days);
  EXPECT_EQ(a.downtime_hours, b.downtime_hours);
  EXPECT_EQ(a.unserved_energy.value(), b.unserved_energy.value());
  EXPECT_EQ(a.annual_pv_energy.value(), b.annual_pv_energy.value());
  EXPECT_EQ(a.annual_load.value(), b.annual_load.value());
  EXPECT_EQ(a.curtailed_energy.value(), b.curtailed_energy.value());
  EXPECT_EQ(a.min_soc_fraction, b.min_soc_fraction);
}

TEST(OffGrid, KernelMatchesComponentModelLoop) {
  // Heterogeneous arrays (sizes and losses), batteries (capacities and
  // cutoffs), loads and stop flags, over two years of Oslo weather:
  // some cases run clean, some fail in winter.
  const auto days =
      synthesize_days(oslo(), PlaneOfArray{}, WeatherModel{}, 4242, 2);
  std::vector<OffGridCase> cases;
  for (int i = 0; i < 12; ++i) {
    OffGridCase cell;
    cell.system.array = PvArray(300.0 + 110.0 * i, 0.08 + 0.01 * (i % 5));
    cell.system.battery_capacity_wh = 600.0 + 250.0 * (i % 7);
    cell.system.battery_cutoff = 0.2 + 0.05 * (i % 4);
    cell.consumption = paper_load();
    for (auto& w : cell.consumption.hourly_watts) w *= 0.6 + 0.15 * (i % 6);
    cell.stop_at_first_outage = i % 2 == 1;
    cases.push_back(cell);
  }
  const auto reports = simulate_cases(days, cases);
  ASSERT_EQ(reports.size(), cases.size());
  int failing = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    expect_reports_identical(reports[i], component_run(days, cases[i]));
    if (!reports[i].continuous_operation()) ++failing;
  }
  // Both outcomes occur, so both stop-flag branches are exercised.
  EXPECT_GT(failing, 0);
  EXPECT_LT(failing, static_cast<int>(cases.size()));
}

TEST(OffGrid, FirstOutageStop) {
  const auto days =
      synthesize_days(berlin(), PlaneOfArray{}, WeatherModel{}, 99, 2);
  OffGridCase passing;
  passing.system.array = PvArray(2000.0);
  passing.system.battery_capacity_wh = 5000.0;
  passing.consumption = paper_load();
  OffGridCase failing = passing;
  failing.system.array = PvArray(200.0);
  failing.system.battery_capacity_wh = 300.0;

  // A flagged case that never fails runs every day: the unflagged report.
  OffGridCase passing_flagged = passing;
  passing_flagged.stop_at_first_outage = true;
  const auto clean =
      simulate_cases(days, std::vector{passing, passing_flagged});
  ASSERT_TRUE(clean[0].continuous_operation());
  expect_reports_identical(clean[1], clean[0]);

  // A flagged failing case stops at the end of its first outage day.
  OffGridCase failing_flagged = failing;
  failing_flagged.stop_at_first_outage = true;
  const auto outage =
      simulate_cases(days, std::vector{failing, failing_flagged});
  EXPECT_GT(outage[0].downtime_days, 1);
  EXPECT_EQ(outage[1].downtime_days, 1);
  EXPECT_FALSE(outage[1].continuous_operation());
  EXPECT_LT(outage[1].annual_load.value(), outage[0].annual_load.value());
}

}  // namespace
}  // namespace railcorr::solar
