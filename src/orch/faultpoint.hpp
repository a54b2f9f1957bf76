/// \file faultpoint.hpp
/// \brief Named, env/flag-armed fault-injection points for adversarial
///        testing of the orchestrator's failure model.
///
/// A fault point is a *named site* in the worker where a specific
/// failure can be provoked on demand — a small vocabulary covering
/// every failure class the orchestrator claims to survive:
///
///   torn-write=N       write only the first N bytes of the output
///                      file (no fsync, no atomic rename), then report
///                      success — a torn write the supervisor must
///                      catch as corrupt output, not trust.
///   corrupt-trailer    write the full document but flip one hex digit
///                      of its integrity trailer — silent on-disk
///                      corruption, caught only by trailer
///                      verification.
///   stall=N            after N cells, stop emitting progress and
///                      sleep forever — a hung worker only the
///                      supervisor's --stall-timeout liveness check
///                      can clear.
///   kill=N             raise SIGKILL after N cells — a crashed
///                      worker, mid-shard.
///
/// Cache fault points (sites in cache::ResultCache::flush) model an
/// adversarial shared result store; a poisoned cache must never change
/// output bytes, only cost recomputes:
///
///   cache-torn-write=N     publish only the first N bytes of the next
///                          cache segment — a torn publish readers
///                          must verify-and-drop.
///   cache-corrupt-segment  flip one trailer hex digit of the next
///                          published segment — silent corruption,
///                          caught only by trailer verification.
///   cache-evict            run a hostile evictor at every flush,
///                          unlinking every other segment — readers
///                          and writers must tolerate segments
///                          vanishing at any time.
///
/// Network fault points model a flaky distributed fleet (see
/// orch/remote.hpp); the first two fire in the worker, the transfer
/// pair is consumed by the CLI's chaos-mode fetch builder, which
/// substitutes a sabotaged transfer command:
///
///   launch-refused         exit 255 before emitting any protocol
///                          event — ssh's connect-refused signature,
///                          which the orchestrator must charge to the
///                          host, not the shard.
///   host-flap=N            run normally, past the start event, for N
///                          cells, then exit 255 mid-shard without
///                          writing output — a connection dropped by a
///                          flapping host.
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
/// (comma-separated specs), and queried at the injection sites via the
/// process-wide `FaultInjector`. The sites are compiled in
/// unconditionally — they are a handful of branch checks on a cold
/// path, and an unarmed injector answers every query with "no fault",
/// so production behavior is untouched.
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

/// One armed fault: the kind plus its parameter (bytes for torn-write,
/// cells for stall/kill; unused for corrupt-trailer).
struct FaultSpec {
  FaultKind kind = FaultKind::kKillAfterCells;
  std::size_t param = 0;
};

/// The spec's canonical flag spelling ("torn-write=64", "stall=2", ...).
std::string fault_spec_string(const FaultSpec& spec);

/// Parse "torn-write=N" / "corrupt-trailer" / "stall=N" / "kill=N".
/// Throws util::ConfigError on an unknown kind, a missing required
/// parameter, or malformed digits.
FaultSpec parse_fault_spec(std::string_view text);

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

/// Process-wide fault registry. Worker code queries it at each
/// injection site; the CLI arms it from --fault flags and the
/// RAILCORR_FAULT environment variable. Not thread-safe by design:
/// arming happens during argument parsing, before any worker threads
/// exist.
class FaultInjector {
 public:
  static FaultInjector& instance();

  void arm(const FaultSpec& spec);

  /// Arm every comma-separated spec in RAILCORR_FAULT (no-op when the
  /// variable is unset or empty). Throws util::ConfigError on a
  /// malformed spec.
  void arm_from_env();

  /// Disarm everything (tests).
  void clear();

  /// The parameter of the first armed fault of `kind`; std::nullopt
  /// when that kind is not armed.
  [[nodiscard]] std::optional<std::size_t> armed(FaultKind kind) const;

 private:
  std::vector<FaultSpec> armed_;
};

}  // namespace railcorr::orch
