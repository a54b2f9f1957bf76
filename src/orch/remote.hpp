/// \file remote.hpp
/// \brief The pluggable remote-transport layer of the orchestrator:
///        launcher/fetch command templates and the host-health model
///        that keeps a flaky fleet from poisoning a run.
///
/// The orchestrator is argv-agnostic — it launches whatever command
/// line the `command` callback builds. Distribution
/// is therefore *not* a scheduler rewrite: it is (a) a command builder
/// that wraps the worker argv in a user-supplied launcher template
/// ("ssh {host} {cmd}"), (b) a fetch step whose one child pulls the
/// remote shard file, and a traced run's telemetry, back ("scp
/// {host}:{remote} {local}") and accepts the shard only after the shard
/// reader's checks (trailer, banner, row count) pass, and
/// (c) a per-host health model that quarantines hosts whose transport
/// keeps failing and degrades the run onto the surviving fleet.
///
/// Both templates are one type, CommandTemplate, with one placeholder
/// set per use. They are whitespace-tokenized argv templates, not shell
/// strings: each token may embed `{placeholder}` substitutions, made in
/// one pass over the template's own text, and `{cmd}` expands to ONE
/// argv element holding the shell-quoted worker command — the form
/// `ssh host 'cmd...'` expects. Unknown placeholders and missing
/// required ones are configuration errors (util::ConfigError), pinned
/// in the CLI error matrix.
///
/// Why degraded fleets preserve byte-exactness: a shard's rows are a
/// pure function of (plan, index) — *which machine* evaluates a shard
/// is invisible in its bytes (the determinism contract is cross-machine
/// by construction: kBitExact kernels, -ffp-contract=off, pinned
/// scalar/AVX2 bit-identity). Quarantining a host therefore only
/// re-routes work; the merge's byte-identity check would catch a
/// machine that actually computed different bytes.
///
/// The reserved host name `local` means "run this attempt through the
/// plain fork/exec path" — no launcher wrap, no fetch — which is what
/// lets a fleet degrade all the way down to local-only execution. A
/// run without a host list is a fleet of exactly this one host.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace railcorr::orch {

/// Reserved host name: attempts placed on it use local fork/exec with
/// no launcher template and no fetch step.
inline constexpr std::string_view kLocalHost = "local";

/// Parse a `--hosts h1,h2,...` list: comma-separated, whitespace
/// trimmed. Throws util::ConfigError on an empty list, an empty name,
/// internal whitespace (host names end up in manifest audit lines,
/// whose grammar is space-delimited), or a duplicate name.
std::vector<std::string> parse_host_list(std::string_view text);

/// `word` as one /bin/sh word (single-quoted, embedded quotes escaped).
std::string shell_quote(std::string_view word);

/// `argv` joined into one /bin/sh command string, each element quoted.
std::string shell_join(const std::vector<std::string>& argv);

/// A command template: whitespace-separated argv tokens, each of which
/// may embed `{placeholder}`s from the set its use allows. A launcher
/// ("ssh {host} {cmd}") starts one remote worker; a fetch ("scp
/// {host}:{remote} {local}") copies one finished file back from a host.
class CommandTemplate {
 public:
  /// The `--launcher` template: `{host}`, and `{cmd}` (required), which
  /// build() fills with the shell_join()ed worker command — one argv
  /// element, the form `ssh host 'cmd...'` expects. build() takes
  /// {host, cmd}.
  static CommandTemplate launcher(std::string_view text);
  /// The `--fetch` template: `{host}`, and `{remote}` and `{local}`
  /// (both required). build() takes {host, remote, local}.
  static CommandTemplate fetch(std::string_view text);

  /// The argv: every placeholder in the template's own text replaced by
  /// its value, in one left-to-right pass, so a value that contains a
  /// placeholder (a run directory named `x{local}y`, a host named
  /// `{cmd}`) comes out verbatim. `values` follow the use's placeholder
  /// order.
  [[nodiscard]] std::vector<std::string> build(
      std::initializer_list<std::string_view> values) const;

 private:
  /// Throws util::ConfigError, naming `flag`, on an empty template, an
  /// unbalanced brace, a placeholder outside `names`, or a template
  /// missing one of `required`.
  static CommandTemplate parse(std::string_view text, std::string_view flag,
                               std::initializer_list<std::string_view> names,
                               std::initializer_list<std::string_view> required);

  static constexpr std::size_t kLiteral = static_cast<std::size_t>(-1);
  /// Literal text, or the placeholder at index `slot` of the use's
  /// names.
  struct Piece {
    std::string text;
    std::size_t slot = kLiteral;
  };

  std::vector<std::vector<Piece>> tokens_;
  std::size_t slots_ = 0;
};

/// Knobs of the host-health state machine.
struct FleetHealthOptions {
  /// Consecutive transport failures (launch refused, connection lost,
  /// corrupt or stalled transfer) before a host is quarantined.
  std::size_t quarantine_after = 3;
  /// Re-probe backoff after the k-th quarantine:
  /// probe_base_s * 2^(k-1), capped at probe_cap_s. Deterministic — no
  /// jitter — for the same reason the retry backoff has none.
  double probe_base_s = 0.25;
  double probe_cap_s = 10.0;
  /// Quarantines before a host is declared dead for the rest of the
  /// run (a persistent flapper is worse than a missing host: it eats
  /// attempts). A recovered host keeps its quarantine count.
  std::size_t dead_after = 3;
};

/// One host-health transition, in occurrence order — the orchestrator
/// turns these into manifest `host <name> <event>` audit lines, and
/// RunManifest::parse reads them back as these.
struct HostEvent {
  std::string host;
  /// "quarantine", "probe", "recover", or "dead".
  std::string event;
};

/// Per-host health over one orchestrated run: consecutive-failure
/// counters, quarantine with deterministic re-probe backoff, and a
/// permanent dead state. Time is injected (seconds on any monotonic
/// scale), so tests drive the machine without sleeping; the class does
/// no I/O and is deliberately scheduler-agnostic.
///
/// Placement policy: healthy hosts are used least-loaded-first (ties
/// broken by list order, so placement is deterministic given the same
/// event order); a quarantined host whose probe backoff has expired
/// takes priority for exactly one in-flight probe attempt — transport
/// failures never charge the shard's retry budget, so probing with a
/// real attempt risks only latency, and an idle-but-recovered host is
/// capacity the degraded fleet wants back.
class FleetHealth {
 public:
  FleetHealth(std::vector<std::string> hosts, FleetHealthOptions options);

  /// Host to place the next attempt on at `now_s`: a due re-probe if
  /// one exists, else the least-loaded healthy host. Increments the
  /// chosen host's in-flight count. std::nullopt when no host can
  /// accept work right now (all quarantined/dead, probes not yet due).
  std::optional<std::size_t> acquire(double now_s);

  /// The attempt placed on `host` ended. `transport_failure` means the
  /// transport itself failed (refused launch, lost connection, corrupt
  /// or stalled transfer); a worker that launched, streamed events, and
  /// merely computed wrong/slow proves the transport fine and counts
  /// as success here.
  void release(std::size_t host, bool transport_failure, double now_s);

  [[nodiscard]] bool all_dead() const;
  /// Hosts currently accepting work (not quarantined, not dead).
  [[nodiscard]] std::size_t healthy() const;
  /// Earliest pending re-probe time among quarantined hosts, for the
  /// scheduler's next-wake computation; std::nullopt when none.
  [[nodiscard]] std::optional<double> next_probe_s() const;

  [[nodiscard]] std::size_t size() const { return hosts_.size(); }
  [[nodiscard]] const std::string& name(std::size_t host) const {
    return hosts_[host].name;
  }

  /// Transitions since the last drain (quarantine/probe/recover/dead),
  /// in order.
  std::vector<HostEvent> drain_events();

 private:
  struct Host {
    std::string name;
    std::size_t consecutive_failures = 0;
    std::size_t quarantines = 0;
    std::size_t inflight = 0;
    bool quarantined = false;
    bool dead = false;
    /// The current in-flight attempt is this host's re-probe.
    bool probing = false;
    double probe_at_s = 0.0;
  };

  void quarantine(Host& host, double now_s);

  std::vector<Host> hosts_;
  FleetHealthOptions options_;
  std::vector<HostEvent> events_;
};

}  // namespace railcorr::orch
