#include "corridor/deployment.hpp"

#include <bit>

#include "util/contracts.hpp"

namespace railcorr::corridor {

namespace {

/// The memo's empty slot: the bits of a NaN, which no donor distance
/// place_tx accepts can have.
constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

/// Home slot of `key`: Fibonacci hashing, whose top product bits depend
/// on every key bit, while a round distance's low mantissa bits are all
/// zero.
std::size_t memo_slot(std::uint64_t key) {
  static_assert(TxTable::kMemoSlots == 256);
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> 56);
}

rf::TxKernel gains_of(const rf::LinkModelConfig& link, rf::NodeKind kind,
                      Dbm eirp, Db calibration) {
  rf::TrackTransmitter tx;
  tx.kind = kind;
  tx.rstp = link.carrier.rstp_from_eirp(eirp);
  tx.calibration = calibration;
  return rf::tx_gains(link, tx);
}

}  // namespace

SegmentDeployment SegmentDeployment::conventional_baseline() {
  SegmentDeployment d;
  d.geometry.isd_m = 500.0;
  d.geometry.repeater_count = 0;
  return d;
}

SegmentDeployment SegmentDeployment::with_repeaters(double isd_m,
                                                    int repeater_count) {
  SegmentDeployment d;
  d.geometry.isd_m = isd_m;
  d.geometry.repeater_count = repeater_count;
  RAILCORR_EXPECTS(d.geometry.valid());
  return d;
}

std::vector<rf::TrackTransmitter> SegmentDeployment::transmitters(
    const rf::NrCarrier& carrier) const {
  RAILCORR_EXPECTS(geometry.valid());
  std::vector<rf::TrackTransmitter> txs;
  txs.reserve(static_cast<std::size_t>(geometry.repeater_count) + 2);

  const Dbm hp_rstp = carrier.rstp_from_eirp(radio.hp_eirp);
  const Dbm lp_rstp = carrier.rstp_from_eirp(radio.lp_eirp);

  for (const double mast : {0.0, geometry.isd_m}) {
    rf::TrackTransmitter tx;
    tx.kind = rf::NodeKind::kHighPowerRrh;
    tx.position_m = mast;
    tx.rstp = hp_rstp;
    tx.calibration = radio.hp_calibration;
    txs.push_back(tx);
  }
  for (const double p : geometry.repeater_positions()) {
    rf::TrackTransmitter tx;
    tx.kind = rf::NodeKind::kLowPowerRepeater;
    tx.position_m = p;
    tx.rstp = lp_rstp;
    tx.calibration = radio.lp_calibration;
    tx.donor_distance_m = geometry.donor_distance_m(p);
    txs.push_back(tx);
  }
  return txs;
}

TxTable::TxTable(const rf::LinkModelConfig& link, const RadioParameters& radio)
    : link_(link),
      mast_(gains_of(link, rf::NodeKind::kHighPowerRrh, radio.hp_eirp,
                     radio.hp_calibration)),
      repeater_(gains_of(link, rf::NodeKind::kLowPowerRepeater, radio.lp_eirp,
                         radio.lp_calibration)),
      mast_noise_gain_(rf::soa_noise_gain(link, mast_)) {
  memo_keys_.fill(kEmptyKey);
  soa_.terminal_noise_mw = link.noise.terminal_noise().to_milliwatts().value();
  soa_.min_distance_m = link.min_distance_m;
}

void TxTable::clear() {
  soa_.position_m.clear();
  soa_.signal_gain_lin.clear();
  soa_.noise_gain_lin.clear();
}

void TxTable::add_mast(double position_m) {
  add(position_m, mast_.signal_gain_lin, mast_noise_gain_);
}

void TxTable::add_repeater(double position_m, double donor_distance_m) {
  add(position_m, repeater_.signal_gain_lin,
      repeater_noise_gain(donor_distance_m));
}

void TxTable::add(double position_m, double signal_gain_lin,
                  double noise_gain_lin) {
  soa_.position_m.push_back(position_m);
  soa_.signal_gain_lin.push_back(signal_gain_lin);
  soa_.noise_gain_lin.push_back(noise_gain_lin);
}

double TxTable::repeater_noise_gain(double donor_distance_m) {
  const std::uint64_t key = std::bit_cast<std::uint64_t>(donor_distance_m);
  std::size_t slot = memo_slot(key);
  for (; memo_keys_[slot] != kEmptyKey; slot = (slot + 1) % kMemoSlots) {
    if (memo_keys_[slot] == key) return memo_gains_[slot];
  }
  // The position does not enter the noise gain.
  const double gain = rf::soa_noise_gain(
      link_, rf::place_tx(link_, repeater_, 0.0, donor_distance_m));
  if (memo_size_ < kMemoSlots / 2) {
    memo_keys_[slot] = key;
    memo_gains_[slot] = gain;
    ++memo_size_;
  }
  return gain;
}

}  // namespace railcorr::corridor
