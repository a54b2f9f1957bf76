/// AVX2 lane of the sizing ladder walks: four off-grid cases per
/// register, each lane on its own day of the weather group's shared
/// days, all lanes stepping the hours in lockstep.
///
/// Bit-identity with simulate_cases (solar/offgrid.cpp) is
/// load-bearing: size_jobs must return the same rows at every SIMD
/// level. Each lane therefore repeats simulate_case's per-hour
/// operations in the same order, using only IEEE-exact instructions
/// (vaddpd, vsubpd, vmulpd, vdivpd, vminpd, vmaxpd, vcmppd, vblendvpd).
/// No FMA and no multiplication by a reciprocal; the library builds
/// with -ffp-contract=off. `std::min(a, b)` is `(b < a) ? b : a`, which
/// is vminpd with the operands swapped, `_mm256_min_pd(b, a)`;
/// `std::max(0.0, x)` is `_mm256_max_pd(x, 0)`. Both sides of
/// `pv >= load` are computed and blended, so a lane's untaken side
/// never reaches its state; a side that no live lane takes is skipped.
///
/// All-dark hours take a shortcut. When every live lane sees a zero
/// plane-of-array irradiation and a positive load, pv is ±0 (size_jobs
/// requires finite sizes), so every lane discharges and its deficit
/// equals its load exactly. The hour then skips the PV and charge
/// arithmetic and divides nothing: it uses each lane's precomputed
/// `load[h] / kDischargeEff`. Adding pv to the PV total is skipped too.
/// That is exact: the total starts at +0, so it is never -0, and
/// adding ±0 leaves it unchanged.
///
/// This file is compiled with -mavx2 only when CMake detects an x86-64
/// target (RAILCORR_ENABLE_AVX2); size_jobs reaches it only when the
/// active SIMD level is AVX2.
#include "solar/sizing_lanes.hpp"

#if defined(RAILCORR_HAVE_AVX2) && defined(__AVX2__)

#include <immintrin.h>

#include <array>
#include <cstdint>

#include "obs/metrics.hpp"
#include "solar/battery.hpp"
#include "solar/pv.hpp"
#include "util/contracts.hpp"

namespace railcorr::solar::detail {

namespace {

constexpr std::size_t kLanes = 4;
constexpr unsigned kAllLanes = 0xF;
constexpr std::uint32_t kAllHours = 0xFFFFFF;
constexpr double kChargeEff = Battery::kDefaultChargeEfficiency;
constexpr double kDischargeEff = Battery::kDefaultDischargeEfficiency;

/// The state of four off-grid cases, one per lane, as simulate_case
/// keeps it in locals. Every row is one register.
struct alignas(32) Lanes {
  // Constants of each lane's case (its rung).
  double pv_wp[kLanes];
  double one_minus_loss[kLanes];
  double capacity[kLanes];
  double cutoff_wh[kLanes];
  double full_level[kLanes];
  // Tables of each lane's walk (its consumption), hour-major.
  double load[24][kLanes];
  double dark_wanted[24][kLanes];  ///< load[h] / kDischargeEff
  // Running state of each lane's case.
  double soc[kLanes];
  double annual_pv[kLanes];
  double annual_load[kLanes];
  double curtailed[kLanes];
  double unserved[kLanes];
  double min_soc[kLanes];
  std::int64_t downtime_hours[kLanes];
};

/// Lane bits of one stepped day: bit l set when lane l reached full
/// charge, or had unmet load, during the day.
struct DayBits {
  unsigned full = 0;
  unsigned unmet = 0;
};

/// Step every lane through one day: `poa[l]` is the plane-of-array
/// irradiation of lane l's day. Lanes not in `live` compute values
/// nobody reads. Bit h of `dark_hours` is set when every live lane's
/// load at hour h is positive.
DayBits step_day(Lanes& s, const std::array<const double*, kLanes>& poa,
                 unsigned live, std::uint32_t dark_hours) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d k1000 = _mm256_set1_pd(1000.0);
  const __m256d charge_eff = _mm256_set1_pd(kChargeEff);
  const __m256d discharge_eff = _mm256_set1_pd(kDischargeEff);
  const __m256d unmet_slack = _mm256_set1_pd(1e-9);
  const __m256d pv_wp = _mm256_load_pd(s.pv_wp);
  const __m256d one_minus_loss = _mm256_load_pd(s.one_minus_loss);
  const __m256d capacity = _mm256_load_pd(s.capacity);
  const __m256d cutoff_wh = _mm256_load_pd(s.cutoff_wh);
  const __m256d full_level = _mm256_load_pd(s.full_level);
  const unsigned idle = ~live & kAllLanes;

  __m256d soc = _mm256_load_pd(s.soc);
  __m256d annual_pv = _mm256_load_pd(s.annual_pv);
  __m256d annual_load = _mm256_load_pd(s.annual_load);
  __m256d curtailed = _mm256_load_pd(s.curtailed);
  __m256d unserved = _mm256_load_pd(s.unserved);
  __m256d min_soc = _mm256_load_pd(s.min_soc);
  __m256i downtime_hours =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(s.downtime_hours));
  __m256d reached_full = zero;
  __m256d any_unmet = zero;

  for (std::size_t h = 0; h < 24; ++h) {
    const __m256d poa_h =
        _mm256_set_pd(poa[3][h], poa[2][h], poa[1][h], poa[0][h]);
    const __m256d load = _mm256_load_pd(s.load[h]);
    annual_load = _mm256_add_pd(annual_load, load);
    const unsigned dark_lanes = static_cast<unsigned>(_mm256_movemask_pd(
                                    _mm256_cmp_pd(poa_h, zero, _CMP_EQ_OQ))) |
                                idle;
    __m256d unmet = zero;
    if (((dark_hours >> h) & 1U) != 0 && dark_lanes == kAllLanes) {
      // Battery::discharge toward a deficit equal to the load.
      const __m256d available =
          _mm256_max_pd(_mm256_sub_pd(soc, cutoff_wh), zero);
      const __m256d drawn =
          _mm256_min_pd(available, _mm256_load_pd(s.dark_wanted[h]));
      soc = _mm256_sub_pd(soc, drawn);
      const __m256d delivered = _mm256_mul_pd(drawn, discharge_eff);
      unmet = _mm256_cmp_pd(delivered, _mm256_sub_pd(load, unmet_slack),
                            _CMP_LT_OQ);
      unserved = _mm256_blendv_pd(
          unserved, _mm256_add_pd(unserved, _mm256_sub_pd(load, delivered)),
          unmet);
    } else {
      // PvArray::hourly_energy with (1 - loss) hoisted.
      const __m256d pv = _mm256_mul_pd(
          _mm256_div_pd(_mm256_mul_pd(pv_wp, poa_h), k1000), one_minus_loss);
      annual_pv = _mm256_add_pd(annual_pv, pv);
      const __m256d charging = _mm256_cmp_pd(pv, load, _CMP_GE_OQ);
      const unsigned charging_lanes =
          static_cast<unsigned>(_mm256_movemask_pd(charging)) & live;
      // The blends below would discard all of a side no live lane takes.
      __m256d charged_soc = soc;
      if (charging_lanes != 0) {
        // Battery::charge on the surplus.
        const __m256d stored_if_all =
            _mm256_mul_pd(_mm256_sub_pd(pv, load), charge_eff);
        const __m256d stored =
            _mm256_min_pd(_mm256_sub_pd(capacity, soc), stored_if_all);
        charged_soc = _mm256_add_pd(soc, stored);
        curtailed = _mm256_blendv_pd(
            curtailed,
            _mm256_add_pd(curtailed,
                          _mm256_div_pd(_mm256_sub_pd(stored_if_all, stored),
                                        charge_eff)),
            charging);
      }
      __m256d discharged_soc = soc;
      if (charging_lanes != live) {
        // Battery::discharge toward the deficit.
        const __m256d deficit = _mm256_sub_pd(load, pv);
        const __m256d wanted = _mm256_div_pd(deficit, discharge_eff);
        const __m256d available =
            _mm256_max_pd(_mm256_sub_pd(soc, cutoff_wh), zero);
        const __m256d drawn = _mm256_min_pd(available, wanted);
        discharged_soc = _mm256_sub_pd(soc, drawn);
        const __m256d delivered = _mm256_mul_pd(drawn, discharge_eff);
        unmet = _mm256_andnot_pd(
            charging,
            _mm256_cmp_pd(delivered, _mm256_sub_pd(deficit, unmet_slack),
                          _CMP_LT_OQ));
        unserved = _mm256_blendv_pd(
            unserved,
            _mm256_add_pd(unserved, _mm256_sub_pd(deficit, delivered)),
            unmet);
      }
      soc = _mm256_blendv_pd(discharged_soc, charged_soc, charging);
    }
    // An all-ones mask lane is -1: subtracting it counts the hour.
    downtime_hours =
        _mm256_sub_epi64(downtime_hours, _mm256_castpd_si256(unmet));
    any_unmet = _mm256_or_pd(any_unmet, unmet);
    reached_full = _mm256_or_pd(reached_full,
                                _mm256_cmp_pd(soc, full_level, _CMP_GE_OQ));
    min_soc = _mm256_min_pd(soc, min_soc);
  }

  _mm256_store_pd(s.soc, soc);
  _mm256_store_pd(s.annual_pv, annual_pv);
  _mm256_store_pd(s.annual_load, annual_load);
  _mm256_store_pd(s.curtailed, curtailed);
  _mm256_store_pd(s.unserved, unserved);
  _mm256_store_pd(s.min_soc, min_soc);
  _mm256_store_si256(reinterpret_cast<__m256i*>(s.downtime_hours),
                     downtime_hours);
  return {static_cast<unsigned>(_mm256_movemask_pd(reached_full)),
          static_cast<unsigned>(_mm256_movemask_pd(any_unmet))};
}

/// Bookkeeping of the case a lane holds.
struct Slot {
  std::size_t walk = 0;
  std::size_t rung = 0;
  std::size_t day = 0;  ///< days simulated so far
  int full_days = 0;
  int downtime_days = 0;
  bool stop_at_first_outage = false;
  std::uint32_t positive_load_hours = 0;  ///< bit h: load[h] > 0
};

}  // namespace

std::vector<SizingResult> walk_ladders_avx2(
    std::span<const DailyIrradiance> days, std::span<const SizingJob> jobs,
    std::span<const std::pair<std::size_t, std::size_t>> walks) {
  RAILCORR_EXPECTS(!days.empty());
  static obs::Counter& case_days_counter =
      obs::MetricsRegistry::instance().counter("solar.case_days");
  static obs::Counter& lane_days_counter =
      obs::MetricsRegistry::instance().counter("solar.lane_days");

  std::vector<SizingResult> results(walks.size());
  // Zeroed, so a lane that never starts steps zeros, not indeterminate
  // values that could be subnormal and slow every lane down.
  Lanes lanes{};
  std::array<Slot, kLanes> slots;
  unsigned live = 0;
  std::size_t next_walk = 0;
  std::uint64_t case_days = 0;
  std::uint64_t lane_days = 0;

  // The discharge cutoff of every rung's battery: sizing's system_of
  // leaves it at the OffGridSystem default.
  const double cutoff = OffGridSystem{}.battery_cutoff;

  const auto job_of = [&](const Slot& slot) -> const SizingJob& {
    return jobs[walks[slot.walk].first];
  };
  // simulate_case's set-up for the slot's walk at `rung`.
  const auto start_case = [&](std::size_t l, std::size_t rung) {
    Slot& slot = slots[l];
    const SizingJob& job = job_of(slot);
    const SizingCandidate& candidate = job.ladder[rung];
    const PvArray array(candidate.pv_wp);
    const double capacity = candidate.battery_wh;
    RAILCORR_EXPECTS(capacity > 0.0);
    lanes.pv_wp[l] = array.peak_power_wp();
    lanes.one_minus_loss[l] = 1.0 - array.system_loss();
    lanes.capacity[l] = capacity;
    lanes.cutoff_wh[l] = cutoff * capacity;
    lanes.full_level[l] = capacity * (1.0 - 1e-9);
    lanes.soc[l] = capacity;
    lanes.annual_pv[l] = 0.0;
    lanes.annual_load[l] = 0.0;
    lanes.curtailed[l] = 0.0;
    lanes.unserved[l] = 0.0;
    lanes.min_soc[l] = capacity;
    lanes.downtime_hours[l] = 0;
    slot.rung = rung;
    slot.day = 0;
    slot.full_days = 0;
    slot.downtime_days = 0;
    slot.stop_at_first_outage = rung + 1 < job.ladder.size();
  };
  // Give lane l the group's next unstarted walk, or idle it.
  const auto start_walk = [&](std::size_t l) {
    if (next_walk == walks.size()) {
      live &= ~(1U << l);
      return;
    }
    Slot& slot = slots[l];
    slot.walk = next_walk++;
    const SizingJob& job = job_of(slot);
    results[slot.walk].location = job.locations[walks[slot.walk].second];
    const auto& hourly_load = job.consumption.hourly_watts;
    slot.positive_load_hours = 0;
    for (std::size_t h = 0; h < 24; ++h) {
      lanes.load[h][l] = hourly_load[h];
      lanes.dark_wanted[h][l] = hourly_load[h] / kDischargeEff;
      if (hourly_load[h] > 0.0) slot.positive_load_hours |= 1U << h;
    }
    live |= 1U << l;
    start_case(l, 0);
  };
  // simulate_case's report, then walk_ladder's step to the next rung.
  const auto finish_case = [&](std::size_t l) {
    const Slot& slot = slots[l];
    OffGridReport report;
    report.days_with_full_battery_pct =
        100.0 * static_cast<double>(slot.full_days) /
        static_cast<double>(slot.day);
    report.downtime_days = slot.downtime_days;
    report.downtime_hours = static_cast<int>(lanes.downtime_hours[l]);
    report.unserved_energy = WattHours(lanes.unserved[l]);
    report.annual_pv_energy = WattHours(lanes.annual_pv[l]);
    report.annual_load = WattHours(lanes.annual_load[l]);
    report.curtailed_energy = WattHours(lanes.curtailed[l]);
    report.min_soc_fraction = lanes.min_soc[l] / lanes.capacity[l];
    case_days += slot.day;

    const auto& ladder = job_of(slot).ladder;
    SizingResult& result = results[slot.walk];
    result.chosen = ladder[slot.rung];
    result.report = report;
    result.ladder_exhausted = !report.continuous_operation();
    if (result.ladder_exhausted && slot.rung + 1 < ladder.size()) {
      start_case(l, slot.rung + 1);
    } else {
      start_walk(l);
    }
  };

  for (std::size_t l = 0; l < kLanes; ++l) start_walk(l);
  while (live != 0) {
    std::array<const double*, kLanes> poa{};
    std::uint32_t dark_hours = kAllHours;
    for (std::size_t l = 0; l < kLanes; ++l) {
      const bool is_live = ((live >> l) & 1U) != 0;
      poa[l] = days[is_live ? slots[l].day : 0].poa_wh_m2.data();
      if (is_live) dark_hours &= slots[l].positive_load_hours;
    }
    const DayBits bits = step_day(lanes, poa, live, dark_hours);
    lane_days += kLanes;
    const unsigned stepped = live;
    for (std::size_t l = 0; l < kLanes; ++l) {
      if (((stepped >> l) & 1U) == 0) continue;
      Slot& slot = slots[l];
      ++slot.day;
      if (((bits.full >> l) & 1U) != 0) ++slot.full_days;
      bool done = slot.day == days.size();
      if (((bits.unmet >> l) & 1U) != 0) {
        ++slot.downtime_days;
        done = done || slot.stop_at_first_outage;
      }
      if (done) finish_case(l);
    }
  }
  case_days_counter.add(case_days);
  lane_days_counter.add(lane_days);
  return results;
}

}  // namespace railcorr::solar::detail

#endif  // RAILCORR_HAVE_AVX2 && __AVX2__
