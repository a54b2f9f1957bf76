#include "orch/progress.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <system_error>

namespace railcorr::orch {

namespace {

constexpr std::string_view kMagic = "@railcorr 1 ";

/// The longest heartbeat period HeartbeatThread waits.
constexpr double kMaxHeartbeatPeriodS = 3600.0;

/// Consume one decimal from the front of `rest`; false when none is
/// there or it does not fit.
bool take_decimal(std::string_view& rest, std::size_t& out) {
  const auto [stop, ec] =
      std::from_chars(rest.data(), rest.data() + rest.size(), out);
  if (ec != std::errc{}) return false;
  rest.remove_prefix(static_cast<std::size_t>(stop - rest.data()));
  return true;
}

/// Consume "<name>=<decimal>" from the front of `rest` (preceded by a
/// single space when `leading_space`); false on any mismatch.
bool take_field(std::string_view& rest, std::string_view name,
                std::size_t& out, bool leading_space) {
  if (leading_space) {
    if (!rest.starts_with(' ')) return false;
    rest.remove_prefix(1);
  }
  if (!rest.starts_with(name)) return false;
  rest.remove_prefix(name.size());
  if (!rest.starts_with('=')) return false;
  rest.remove_prefix(1);
  return take_decimal(rest, out);
}

}  // namespace

std::string start_line(std::size_t shard, std::size_t shard_count,
                       std::size_t cells) {
  return std::string(kMagic) + "start shard=" + std::to_string(shard) + "/" +
         std::to_string(shard_count) + " cells=" + std::to_string(cells);
}

std::string cache_line(std::size_t hits, std::size_t misses) {
  return std::string(kMagic) + "cache hits=" + std::to_string(hits) +
         " misses=" + std::to_string(misses);
}

std::string heartbeat_line() { return std::string(kMagic) + "heartbeat"; }

std::string done_line(std::size_t rows) {
  return std::string(kMagic) + "done rows=" + std::to_string(rows);
}

std::optional<ProgressEvent> parse_progress_line(std::string_view line) {
  if (!line.starts_with(kMagic)) return std::nullopt;
  std::string_view rest = line.substr(kMagic.size());
  ProgressEvent event;

  if (rest.starts_with("start ")) {
    rest.remove_prefix(6);
    event.kind = ProgressEvent::Kind::kStart;
    if (!take_field(rest, "shard", event.shard, /*leading_space=*/false) ||
        !rest.starts_with('/')) {
      return std::nullopt;
    }
    rest.remove_prefix(1);
    if (!take_decimal(rest, event.shard_count) ||
        !take_field(rest, "cells", event.cells, /*leading_space=*/true)) {
      return std::nullopt;
    }
    return rest.empty() ? std::optional<ProgressEvent>(event) : std::nullopt;
  }
  if (rest.starts_with("cache ")) {
    rest.remove_prefix(6);
    event.kind = ProgressEvent::Kind::kCache;
    if (!take_field(rest, "hits", event.hits, /*leading_space=*/false) ||
        !take_field(rest, "misses", event.misses, /*leading_space=*/true)) {
      return std::nullopt;
    }
    return rest.empty() ? std::optional<ProgressEvent>(event) : std::nullopt;
  }
  if (rest == "heartbeat") {
    event.kind = ProgressEvent::Kind::kHeartbeat;
    return event;
  }
  if (rest.starts_with("done ")) {
    rest.remove_prefix(5);
    event.kind = ProgressEvent::Kind::kDone;
    if (!take_field(rest, "rows", event.rows, /*leading_space=*/false)) {
      return std::nullopt;
    }
    return rest.empty() ? std::optional<ProgressEvent>(event) : std::nullopt;
  }
  return std::nullopt;
}

HeartbeatThread::HeartbeatThread(double period_s,
                                 std::function<void(const std::string&)> emit)
    : thread_([this, period_s, emit = std::move(emit)] {
        std::unique_lock<std::mutex> lock(mutex_);
        // Cap the period where the cast below cannot overflow (it is
        // undefined above ~9.2e9 s, and the wait then returns at once).
        // An early heartbeat only refreshes liveness.
        const auto period = std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(
                std::min(period_s, kMaxHeartbeatPeriodS)));
        while (!stopped_) {
          if (cv_.wait_for(lock, period, [this] { return stopped_; })) break;
          lock.unlock();
          emit(heartbeat_line());
          lock.lock();
        }
      }) {}

HeartbeatThread::~HeartbeatThread() { stop(); }

void HeartbeatThread::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_ && !thread_.joinable()) return;
    stopped_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

}  // namespace railcorr::orch
