/// \file faultpoint.hpp
/// \brief Named, flag/env-armed fault-injection points for adversarial
///        testing of the orchestrator's failure model.
///
/// A fault point is a *named site* where a specific failure can be
/// provoked on demand — a small vocabulary covering every failure class
/// the orchestrator claims to survive. Every worker site sits in
/// `railcorr sweep` (the CLI's `cmd_sweep`); the library keeps no fault
/// hook of its own. In the order a worker reaches them:
///
///   launch-refused         exit 255 before reading the plan or
///                          emitting any protocol event — ssh's
///                          connect-refused signature, which the
///                          orchestrator must charge to the host, not
///                          the shard.
///
/// The death faults fire after the start event, before the heartbeat
/// thread starts and before any cell computes, when the shard owns at
/// least max(1, N) cells: N is a threshold on the shard's size, not a
/// position in it. With several armed, the smallest threshold fires,
/// ties in this order (`FaultInjector::death_fault`):
///
///   kill=N             raise SIGKILL — a crashed worker, mid-shard.
///   host-flap=N        exit 255 without writing output — a connection
///                      dropped by a flapping host after the start
///                      event.
///   stall=N            sleep forever, silent — a hung worker only the
///                      supervisor's --stall-timeout liveness check can
///                      clear.
///
/// The cache faults (with --cache-dir) model an adversarial shared
/// result store. They damage the segment that the shard's one
/// cache::ResultCache::flush published, after the sweep returns (none
/// fires inside the flush, and none fires when it published nothing,
/// except cache-evict); a poisoned store must never change output
/// bytes, only cost recomputes:
///
///   cache-torn-write=N     truncate that segment to its first
///                          max(1, N) bytes — a torn publish readers
///                          must verify-and-drop.
///   cache-corrupt-segment  flip its trailer's last hex digit — silent
///                          corruption, caught only by trailer
///                          verification.
///   cache-evict            run a hostile evictor over the store,
///                          unlinking every other segment — readers
///                          and writers must tolerate segments
///                          vanishing at any time.
///
/// The write faults fire at the shard write:
///
///   torn-write=N       write only the first N bytes of the output
///                      file (no fsync, no atomic rename), then report
///                      success — a torn write the supervisor must
///                      catch as corrupt output, not trust.
///   corrupt-trailer    write the full document but flip one hex digit
///                      of its integrity trailer — silent on-disk
///                      corruption, caught only by trailer
///                      verification.
///
/// The transfer faults are fetch faults (`is_transfer_fault`): only
/// `orchestrate --chaos-seed`'s fetch builder injects them, by
/// substituting a sabotaged transfer command, and a worker refuses to
/// arm them:
///
///   transfer-torn=N        the fetch delivers only the first N bytes
///                          of the shard file — a torn transfer the
///                          verify-after-fetch step must classify as
///                          corrupt-transfer, never trust.
///   transfer-stalled       the fetch hangs forever — cleared only by
///                          the orchestrator's fetch timeout.
///
/// Faults are armed per process through the `railcorr sweep --fault
/// SPEC` flag (the orchestrator's chaos mode appends it to selected
/// worker attempts) or the `RAILCORR_FAULT` environment variable
/// (comma-separated specs). The worker holds what it armed in a local
/// `FaultInjector`; there is no process-wide fault state. An unarmed
/// injector answers every query with "no fault", so a fault-free run
/// is untouched.
///
/// The seeded chaos harness (`scripts/chaos_smoke.sh`, ctest
/// `cli/chaos_smoke`) drives a whole grid through a deterministic
/// random schedule of these faults (`chaos_fault_for`) and asserts the
/// merged output is byte-identical to a clean single-process sweep.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace railcorr::orch {

enum class FaultKind {
  kTornWrite,
  kCorruptTrailer,
  kStall,
  kKillAfterCells,
  kCacheTornWrite,
  kCacheCorruptSegment,
  kCacheEvict,
  kLaunchRefused,
  kHostFlap,
  kTransferTorn,
  kTransferStalled,
};

/// One armed fault: the kind plus its parameter (bytes for the torn
/// kinds, a cell threshold for kill/host-flap/stall; unused for the
/// kinds that take no value).
struct FaultSpec {
  FaultKind kind = FaultKind::kKillAfterCells;
  std::size_t param = 0;
};

/// The spec's canonical flag spelling ("torn-write=64", "stall=2", ...).
std::string fault_spec_string(const FaultSpec& spec);

/// Parse a spec in its flag spelling ("torn-write=N", "corrupt-trailer",
/// "stall=N", ... for every kind above). Throws util::ConfigError on an
/// unknown kind, a missing required parameter, or malformed digits.
FaultSpec parse_fault_spec(std::string_view text);

/// True for the fetch faults, transfer-torn and transfer-stalled: no
/// worker site reads them, and the chaos schedule routes them to the
/// fetch builder.
inline bool is_transfer_fault(FaultKind kind) {
  return kind == FaultKind::kTransferTorn ||
         kind == FaultKind::kTransferStalled;
}

/// The seeded chaos schedule of `orchestrate --chaos-seed`: which fault
/// (if any) attempt `attempt` of shard `shard` suffers. A pure function
/// of its arguments, so the worker-command and fetch-command builders
/// replay the same storm. The draw is `u % 8` without hosts, `u % 12`
/// with them: slots 0-3 are worker faults, 4-5 cache faults (clean
/// without a cache), 6 launch-refused (on a local worker a plain
/// exit-255 failure, charged to the shard), 7 transfer-torn (dropped by
/// the worker builder, so clean without a fetch step), and only with
/// hosts 8-9 transfer-stalled and host-flap.
///
/// Attempts at or past the retry budget (`attempt >= retries`) are
/// never faulted, so every chaos run converges: a shard's compute
/// failures can reach the budget only through faulted attempts, and
/// attempt ordinals grow at least as fast as failures, so the last
/// allowed attempt of every shard runs clean.
std::optional<FaultSpec> chaos_fault_for(std::uint64_t seed,
                                         std::size_t shard,
                                         std::size_t attempt,
                                         std::size_t retries,
                                         bool with_hosts, bool with_cache);

/// The faults one worker armed, held by the worker as a local value.
/// The CLI arms it from --fault flags and the RAILCORR_FAULT
/// environment variable before any worker thread exists.
class FaultInjector {
 public:
  /// Throws util::ConfigError on a fetch fault (is_transfer_fault): no
  /// worker site would fire it.
  void arm(const FaultSpec& spec);

  /// Arm every comma-separated spec in RAILCORR_FAULT (no-op when the
  /// variable is unset or empty). Throws util::ConfigError on a
  /// malformed spec or a fetch fault.
  void arm_from_env();

  /// The parameter of the first armed fault of `kind`; std::nullopt
  /// when that kind is not armed.
  [[nodiscard]] std::optional<std::size_t> armed(FaultKind kind) const;

  /// The death fault (kill, host-flap or stall) that fires on a shard
  /// owning `owned` cells: of those armed with max(1, N) <= owned, the
  /// one with the smallest threshold, ties in kill, host-flap, stall
  /// order. std::nullopt when none reaches.
  [[nodiscard]] std::optional<FaultKind> death_fault(std::size_t owned) const;

 private:
  std::vector<FaultSpec> armed_;
};

}  // namespace railcorr::orch
