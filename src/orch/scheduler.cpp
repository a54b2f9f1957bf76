#include "orch/scheduler.hpp"

#include <algorithm>
#include <utility>

#include "util/contracts.hpp"

namespace railcorr::orch {

/// Why an attempt failed. The last four are *transport* classes: they
/// charge the host's health instead of the shard's retry budget,
/// because the shard never got a fair chance to compute — it migrates
/// to the surviving fleet.
enum class Scheduler::FailureClass {
  kExit,
  kSignal,
  kTimeout,
  kStalled,
  kCorruptOutput,
  kLaunchRefused,
  kConnectionLost,
  kCorruptTransfer,
  kTransferStalled,
};

Scheduler::Scheduler(OrchestrateOptions options,
                     const std::vector<bool>& resumed)
    : options_(std::move(options)),
      shards_(resumed.size()),
      done_(static_cast<std::size_t>(
          std::count(resumed.begin(), resumed.end(), true))),
      // A run without hosts is a fleet of one `local` host, which no
      // transport failure can charge (it has no launcher and no fetch).
      fleet_(options_.hosts.empty()
                 ? std::vector<std::string>{std::string(kLocalHost)}
                 : options_.hosts,
             options_.health),
      attempts_(shards_, 0),
      failures_(shards_, 0),
      ready_s_(shards_, 0.0),
      slot_used_(options_.workers, false) {
  for (std::size_t shard = 0; shard < shards_; ++shard) {
    if (!resumed[shard]) pending_.push_back(shard);
  }
  stats_.resumed = done_;
}

std::optional<Scheduler::Attempt> Scheduler::launch(double now_s) {
  for (std::size_t scan = pending_.size();
       scan > 0 && live_.size() < options_.workers; --scan) {
    const std::size_t shard = pending_.front();
    pending_.pop_front();
    if (ready_s_[shard] > now_s) {
      pending_.push_back(shard);  // Still backing off.
      continue;
    }
    const auto host = fleet_.acquire(now_s);
    if (!host.has_value()) {
      // No host can take work now (all quarantined or dead, probes not
      // yet due); no other pending shard would fare better.
      pending_.push_back(shard);
      return std::nullopt;
    }
    const auto slot = std::find(slot_used_.begin(), slot_used_.end(), false);
    RAILCORR_EXPECTS(slot != slot_used_.end());
    *slot = true;
    Attempt attempt;
    attempt.shard = shard;
    attempt.attempt = attempts_[shard]++;
    attempt.slot = static_cast<std::size_t>(slot - slot_used_.begin());
    attempt.host = *host;
    attempt.fetch_step =
        options_.fetch != nullptr && fleet_.name(*host) != kLocalHost;
    attempt.started_s = now_s;
    attempt.last_event_s = now_s;
    live_.push_back(attempt);
    ++stats_.attempts;
    return attempt;
  }
  return std::nullopt;
}

std::vector<Scheduler::Attempt>::iterator Scheduler::find_live(
    std::size_t shard) {
  const auto it =
      std::find_if(live_.begin(), live_.end(),
                   [shard](const Attempt& a) { return a.shard == shard; });
  RAILCORR_EXPECTS(it != live_.end());
  return it;
}

void Scheduler::on_event(std::size_t shard, double now_s) {
  const auto it = find_live(shard);
  it->last_event_s = now_s;
  it->saw_event = true;
}

std::vector<Scheduler::Attempt> Scheduler::expire(double now_s) {
  // A fetch has its own budget: a stuck transfer must not consume the
  // worker timeout of the next attempt.
  const double fetch_budget = options_.fetch_timeout_s > 0.0
                                  ? options_.fetch_timeout_s
                                  : options_.timeout_s;
  std::vector<Attempt> expired;
  for (Attempt& a : live_) {
    if (a.expired != Deadline::kNone) continue;
    if (a.fetching) {
      if (fetch_budget > 0.0 && now_s - a.started_s > fetch_budget) {
        a.expired = Deadline::kFetch;
      }
    } else if (options_.timeout_s > 0.0 &&
               now_s - a.started_s > options_.timeout_s) {
      a.expired = Deadline::kTimeout;
    } else if (options_.stall_timeout_s > 0.0 &&
               now_s - a.last_event_s > options_.stall_timeout_s) {
      a.expired = Deadline::kStall;
    }
    if (a.expired != Deadline::kNone) expired.push_back(a);
  }
  return expired;
}

Scheduler::Verdict Scheduler::on_exit(std::size_t shard, int code,
                                      bool signaled, double now_s) {
  const auto it = find_live(shard);
  // A worker's nonzero exit fails the attempt. A fetch's status decides
  // nothing: the copy it left is judged by its bytes.
  if (code != 0 && !it->fetching) {
    return end_attempt(it, /*published=*/false, code, signaled, now_s);
  }
  Verdict verdict;
  verdict.shard = shard;
  verdict.attempt = it->attempt;
  verdict.kind = Verdict::Kind::kPublish;
  if (it->fetch_step && !it->fetching) {
    // Phase two keeps the slot and host while the fetch runs.
    verdict.kind = Verdict::Kind::kFetch;
    it->fetching = true;
    it->expired = Deadline::kNone;
    it->started_s = now_s;
  }
  return verdict;
}

Scheduler::Verdict Scheduler::on_output(std::size_t shard, bool published,
                                        double now_s) {
  return end_attempt(find_live(shard), published, /*code=*/0,
                     /*signaled=*/false, now_s);
}

Scheduler::Verdict Scheduler::end_attempt(
    std::vector<Attempt>::iterator live, bool published, int code,
    bool signaled, double now_s) {
  const Attempt attempt = *live;
  live_.erase(live);
  slot_used_[attempt.slot] = false;
  if (published) {
    fleet_.release(attempt.host, /*transport_failure=*/false, now_s);
    ++done_;
    Verdict verdict;
    verdict.kind = Verdict::Kind::kDone;
    verdict.shard = attempt.shard;
    verdict.attempt = attempt.attempt;
    return verdict;
  }
  Verdict verdict = fail(attempt.shard, attempt.attempt,
                         classify(attempt, code, signaled), code, now_s);
  fleet_.release(attempt.host, verdict.transport, now_s);
  return verdict;
}

Scheduler::Verdict Scheduler::on_rot(std::size_t shard, double now_s) {
  --done_;
  return fail(shard, attempts_[shard], FailureClass::kCorruptOutput, 0,
              now_s);
}

Scheduler::FailureClass Scheduler::classify(const Attempt& attempt, int code,
                                            bool signaled) const {
  if (attempt.fetching) {
    // A fetched file is trusted only after the checks a local worker's
    // output must pass; anything else is a failed transfer, stalled when
    // the fetch was killed at its deadline.
    return attempt.expired == Deadline::kFetch
               ? FailureClass::kTransferStalled
               : FailureClass::kCorruptTransfer;
  }
  if (attempt.expired == Deadline::kTimeout) return FailureClass::kTimeout;
  if (attempt.expired == Deadline::kStall) return FailureClass::kStalled;
  if (code == 0) return FailureClass::kCorruptOutput;
  if (signaled) return FailureClass::kSignal;
  if (code == 255 && fleet_.name(attempt.host) != kLocalHost) {
    // Exit 255 is the transport's own signature (ssh reserves it for
    // connection failures; the worker binary never uses it): before
    // any protocol event it is a refused launch, after events a
    // connection dropped mid-shard.
    return attempt.saw_event ? FailureClass::kConnectionLost
                             : FailureClass::kLaunchRefused;
  }
  return FailureClass::kExit;
}

Scheduler::Verdict Scheduler::fail(std::size_t shard, std::size_t attempt,
                                   FailureClass cls, int code,
                                   double now_s) {
  Verdict verdict;
  verdict.shard = shard;
  verdict.attempt = attempt;
  verdict.transport = cls >= FailureClass::kLaunchRefused;  // The last four.
  // Each class's label, in enum order.
  static constexpr const char* kLabels[] = {
      "exit-",           "signal-",          "timeout",
      "stalled",         "corrupt-output",   "launch-refused",
      "connection-lost", "corrupt-transfer", "transfer-stalled"};
  verdict.cause = kLabels[static_cast<std::size_t>(cls)];
  if (cls == FailureClass::kExit) verdict.cause += std::to_string(code);
  if (cls == FailureClass::kSignal) verdict.cause += std::to_string(code - 128);
  ++stats_.failures_by_class[verdict.cause];
  if (!verdict.transport) ++failures_[shard];
  verdict.failures = failures_[shard];
  if (failures_[shard] > options_.retries) {
    verdict.kind = Verdict::Kind::kAbort;
    return verdict;
  }
  // Deterministic exponential backoff after a compute failure; a
  // transport failure re-queues at once onto the surviving fleet.
  if (!verdict.transport && options_.backoff_base_s > 0.0) {
    const double factor = static_cast<double>(
        1ULL << std::min<std::size_t>(failures_[shard] - 1, 16));
    verdict.backoff_s =
        std::min(options_.backoff_cap_s, options_.backoff_base_s * factor);
  }
  ready_s_[shard] = now_s + verdict.backoff_s;
  pending_.push_back(shard);
  ++stats_.retried;
  verdict.kind = Verdict::Kind::kRetry;
  return verdict;
}

int Scheduler::next_wake_ms(double now_s) const {
  double wake = 0.050;
  for (const std::size_t shard : pending_) {
    if (ready_s_[shard] > now_s) wake = std::min(wake, ready_s_[shard] - now_s);
  }
  const auto probe = fleet_.next_probe_s();
  if (probe.has_value()) wake = std::min(wake, std::max(0.0, *probe - now_s));
  return std::max(1, static_cast<int>(wake * 1000.0 + 0.999));
}

bool Scheduler::fleet_dead() const {
  return live_.empty() && !pending_.empty() && fleet_.all_dead();
}

std::vector<HostEvent> Scheduler::drain_host_events() {
  auto events = fleet_.drain_events();
  for (const auto& event : events) {
    if (event.event == "quarantine") ++stats_.host_quarantines;
    if (event.event == "recover") ++stats_.host_recoveries;
    if (event.event == "dead") ++stats_.hosts_dead;
  }
  return events;
}

std::string Scheduler::tally() const {
  std::string s = "attempts=" + std::to_string(stats_.attempts) +
                  " retried=" + std::to_string(stats_.retried);
  if (!stats_.failures_by_class.empty()) {
    const char* sep = " [";
    for (const auto& [cls, n] : stats_.failures_by_class) {
      s += sep + cls + "=" + std::to_string(n);
      sep = " ";
    }
    s += "]";
  }
  return s;
}

}  // namespace railcorr::orch
