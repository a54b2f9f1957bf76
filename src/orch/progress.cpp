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

std::string banner_line(std::string_view banner) {
  return std::string(kMagic) + "banner " + std::string(banner);
}

std::string start_line(std::size_t shard, std::size_t shard_count,
                       std::size_t cells) {
  return std::string(kMagic) + "start shard=" + std::to_string(shard) + "/" +
         std::to_string(shard_count) + " cells=" + std::to_string(cells);
}

std::string cell_line(std::size_t index, std::size_t done,
                      std::size_t total) {
  return std::string(kMagic) + "cell index=" + std::to_string(index) +
         " done=" + std::to_string(done) + " total=" + std::to_string(total);
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

  if (rest.starts_with("banner ")) {
    event.kind = ProgressEvent::Kind::kBanner;
    event.banner = std::string(rest.substr(7));
    return event;
  }
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
  if (rest.starts_with("cell ")) {
    rest.remove_prefix(5);
    event.kind = ProgressEvent::Kind::kCell;
    if (!take_field(rest, "index", event.index, /*leading_space=*/false) ||
        !take_field(rest, "done", event.done, /*leading_space=*/true) ||
        !take_field(rest, "total", event.total, /*leading_space=*/true)) {
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

ProgressAggregator::ProgressAggregator(std::size_t grid_cells,
                                       std::size_t shard_count)
    : grid_cells_(grid_cells),
      shard_count_(shard_count),
      cell_seen_(grid_cells, false),
      shard_done_(shard_count, false),
      shard_cache_hits_(shard_count, 0),
      shard_cache_misses_(shard_count, 0) {}

void ProgressAggregator::on_event(std::size_t shard,
                                  const ProgressEvent& event) {
  switch (event.kind) {
    case ProgressEvent::Kind::kBanner:
      if (banner_.empty()) {
        banner_ = event.banner;
      } else if (event.banner != banner_) {
        banner_errors_.push_back(
            "shard " + std::to_string(shard) + ": worker banner '" +
            event.banner + "' differs from the run's banner '" + banner_ +
            "'");
      }
      break;
    case ProgressEvent::Kind::kCell:
      if (event.index < cell_seen_.size() && !cell_seen_[event.index]) {
        cell_seen_[event.index] = true;
        ++cells_done_;
      }
      break;
    case ProgressEvent::Kind::kCache:
      // Latest report wins: a retried attempt re-reports its own
      // whole-shard tallies, superseding (not adding to) the dead
      // attempt's.
      if (shard < shard_cache_hits_.size()) {
        shard_cache_hits_[shard] = event.hits;
        shard_cache_misses_[shard] = event.misses;
      }
      break;
    case ProgressEvent::Kind::kStart:
    case ProgressEvent::Kind::kHeartbeat:
      // Heartbeats are pure liveness: the orchestrator's stall clock
      // resets on any parsed event, and the tallies ignore them.
    case ProgressEvent::Kind::kDone:
      break;
  }
}

std::size_t ProgressAggregator::cache_hits() const {
  std::size_t total = 0;
  for (const std::size_t hits : shard_cache_hits_) total += hits;
  return total;
}

std::size_t ProgressAggregator::cache_misses() const {
  std::size_t total = 0;
  for (const std::size_t misses : shard_cache_misses_) total += misses;
  return total;
}

void ProgressAggregator::on_shard_complete(std::size_t shard) {
  if (shard < shard_done_.size() && !shard_done_[shard]) {
    shard_done_[shard] = true;
    ++shards_done_;
  }
}

std::string ProgressAggregator::summary() const {
  return "cells " + std::to_string(cells_done_) + "/" +
         std::to_string(grid_cells_) + ", shards " +
         std::to_string(shards_done_) + "/" + std::to_string(shard_count_);
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
