#include "cache/result_cache.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <system_error>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "orch/faultpoint.hpp"
#include "util/config.hpp"
#include "util/durable_io.hpp"

namespace railcorr::cache {

namespace {

namespace fs = std::filesystem;

constexpr std::string_view kMagicPrefix = "# railcorr-cache-v1 schema=";

/// Evictors (and corrupt-segment droppers) must not race each other on
/// the same file: the first to create `<path>.lock` owns the unlink.
/// The lock is removed right after, so the crash window leaving a
/// stale lock is one unlink wide; orphaned locks (no segment left) are
/// swept by list_segments.
bool try_lock_segment(const std::string& path) {
  int fd;
  do {
    fd = ::open((path + ".lock").c_str(),
                O_CREAT | O_EXCL | O_WRONLY | O_CLOEXEC, 0644);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return false;
  ::close(fd);
  return true;
}

void unlock_segment(const std::string& path) {
  ::unlink((path + ".lock").c_str());
}

/// Remove a segment under its lock. False when another process holds
/// the lock (it is handling this segment); the unlink itself tolerates
/// the file already being gone.
bool remove_segment(const std::string& path) {
  if (!try_lock_segment(path)) return false;
  ::unlink(path.c_str());
  unlock_segment(path);
  return true;
}

struct SegmentFile {
  std::string path;
  std::size_t size = 0;
  /// Mtime as the filesystem reports it; the LRU eviction order key.
  fs::file_time_type mtime{};
};

/// Every `*.seg` in `dir`, plus a sweep of orphaned `*.lock` files
/// whose segment no longer exists (a crashed evictor's leftovers —
/// without the sweep such a segment name would be locked forever).
std::vector<SegmentFile> list_segments(const std::string& dir) {
  std::vector<SegmentFile> segments;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const fs::path& path = entry.path();
    if (path.extension() == ".lock") {
      fs::path owner = path;
      owner.replace_extension();
      if (!fs::exists(owner, ec)) fs::remove(path, ec);
      continue;
    }
    if (path.extension() != ".seg") continue;
    SegmentFile segment;
    segment.path = path.string();
    segment.size = static_cast<std::size_t>(fs::file_size(path, ec));
    if (ec) continue;  // Vanished under a concurrent evictor.
    segment.mtime = fs::last_write_time(path, ec);
    if (ec) continue;
    segments.push_back(std::move(segment));
  }
  std::sort(segments.begin(), segments.end(),
            [](const SegmentFile& a, const SegmentFile& b) {
              return a.path < b.path;
            });
  return segments;
}

/// One entry of a segment body, viewing the body's bytes.
struct EntryView {
  std::uint64_t key = 0;
  std::string_view row;
};

/// The one reader of a segment body's framing (the trailer line already
/// split off): the magic + schema line, then `entry <hex16> <len>`
/// lines each followed by exactly `len` payload bytes and a newline.
/// Appends every entry to `entries` in document order; on the first
/// defect returns false with `error` naming it.
bool scan_entries(std::string_view body, std::vector<EntryView>& entries,
                  std::string& error) {
  std::string_view rest = body;
  const std::size_t magic_eol = rest.find('\n');
  if (magic_eol == std::string_view::npos) {
    error = "missing magic line";
    return false;
  }
  const std::string_view magic = rest.substr(0, magic_eol);
  rest.remove_prefix(magic_eol + 1);
  if (!magic.starts_with(kMagicPrefix)) {
    error = "bad magic line '" + std::string(magic) + "'";
    return false;
  }
  std::size_t schema = 0;
  if (!util::parse_whole(magic.substr(kMagicPrefix.size()), schema) ||
      schema != kResultSchemaVersion) {
    // A foreign schema is not corruption, but its rows mean something
    // else; dropping the segment is the only safe read.
    error = "unsupported schema in '" + std::string(magic) + "'";
    return false;
  }

  while (!rest.empty()) {
    const std::size_t eol = rest.find('\n');
    if (eol == std::string_view::npos) {
      error = "truncated entry header";
      return false;
    }
    const std::string_view line = rest.substr(0, eol);
    rest.remove_prefix(eol + 1);
    if (!line.starts_with("entry ")) {
      error = "malformed entry line '" + std::string(line) + "'";
      return false;
    }
    const std::string_view fields = line.substr(6);
    const std::size_t space = fields.find(' ');
    if (space == std::string_view::npos) {
      error = "malformed entry line '" + std::string(line) + "'";
      return false;
    }
    EntryView entry;
    std::size_t length = 0;
    // A length that does not fit is refused, never wrapped: a segment
    // is outside input, and a wrapped length would frame a payload past
    // the document's end.
    if (!util::parse_hex16(fields.substr(0, space), entry.key) ||
        !util::parse_whole(fields.substr(space + 1), length)) {
      error = "malformed entry key/length in '" + std::string(line) + "'";
      return false;
    }
    // The payload is length-prefixed raw bytes plus one separator
    // newline; anything shorter is truncation.
    if (length >= rest.size() || rest[length] != '\n') {
      error = "truncated entry payload";
      return false;
    }
    entry.row = rest.substr(0, length);
    rest.remove_prefix(length + 1);
    entries.push_back(entry);
  }
  return true;
}

template <typename It>
std::string render_entries(It first, It last) {
  std::string body(kMagicPrefix);
  body += std::to_string(kResultSchemaVersion);
  body += '\n';
  for (; first != last; ++first) {
    body += "entry ";
    body += util::hex16(first->key);
    body += ' ';
    body += std::to_string(first->row.size());
    body += '\n';
    body += first->row;
    body += '\n';
  }
  return util::with_integrity_trailer(body);
}

}  // namespace

std::uint64_t cell_key(std::string_view banner, std::size_t index,
                       std::string_view header,
                       std::uint32_t schema_version) {
  // Hash the tuple as length-unambiguous framed fields: each component
  // ends with '\n' (none of them can contain one), so no two distinct
  // tuples serialize to the same byte stream.
  std::uint64_t hash = util::fnv1a64(banner);
  hash = util::fnv1a64("\n", hash);
  hash = util::fnv1a64(std::to_string(index), hash);
  hash = util::fnv1a64("\n", hash);
  hash = util::fnv1a64(header, hash);
  hash = util::fnv1a64("\n", hash);
  hash = util::fnv1a64(std::to_string(schema_version), hash);
  return hash;
}

std::string render_segment(const std::vector<SegmentEntry>& entries) {
  return render_entries(entries.begin(), entries.end());
}

SegmentParse parse_segment(std::string_view document) {
  SegmentParse parse;
  const auto trailer = util::check_integrity_trailer(document);
  if (trailer.status != util::TrailerStatus::kVerified) {
    // A cache segment is always published with a trailer, so "missing"
    // means truncated before the trailer line — the same torn-write
    // damage a mismatch means.
    parse.error = trailer.status == util::TrailerStatus::kMissing
                      ? "missing integrity trailer (truncated segment)"
                      : "integrity trailer mismatch (corrupt segment)";
    return parse;
  }
  std::vector<EntryView> entries;
  if (!scan_entries(trailer.body, entries, parse.error)) return parse;
  parse.entries.reserve(entries.size());
  for (const auto& entry : entries) {
    parse.entries.push_back(SegmentEntry{entry.key, std::string(entry.row)});
  }
  parse.ok = true;
  return parse;
}

DirReport scan_dir(const std::string& dir, bool drop_corrupt) {
  DirReport report;
  for (const auto& segment : list_segments(dir)) {
    const auto document = util::read_file_fully(segment.path);
    if (!document.has_value()) continue;  // Evicted under us.
    const auto parse = parse_segment(*document);
    if (!parse.ok) {
      report.corrupt_files.push_back(segment.path);
      if (drop_corrupt) remove_segment(segment.path);
      continue;
    }
    ++report.segments;
    report.entries += parse.entries.size();
    report.bytes += document->size();
  }
  return report;
}

std::size_t gc_dir(const std::string& dir, std::size_t max_bytes,
                   std::string_view keep) {
  auto segments = list_segments(dir);
  std::sort(segments.begin(), segments.end(),
            [](const SegmentFile& a, const SegmentFile& b) {
              return a.mtime < b.mtime;
            });
  std::size_t total = 0;
  for (const auto& segment : segments) total += segment.size;
  std::size_t evicted = 0;
  for (const auto& segment : segments) {
    if (total <= max_bytes) break;
    if (segment.path == keep) continue;
    if (remove_segment(segment.path)) {
      total -= segment.size;
      ++evicted;
    }
  }
  return evicted;
}

bool ResultCache::open(const Options& options, std::string* error) {
  const obs::ObsSpan span("open", "cache");
  open_ = false;
  options_ = options;
  stats_ = {};
  index_.clear();
  segments_.clear();
  staged_.clear();
  published_ = 0;

  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  if (ec) {
    if (error != nullptr) {
      *error = "cannot create cache dir '" + options_.dir + "': " +
               ec.message();
    }
    return false;
  }

  std::vector<EntryView> entries;
  std::string defect;
  for (auto& file : list_segments(options_.dir)) {
    auto document = util::read_file_fully(file.path);
    if (!document.has_value()) continue;  // Evicted under us.
    // Views are taken only once the bytes sit in their final place.
    Segment& segment = segments_.emplace_back();
    segment.path = std::move(file.path);
    segment.document = std::move(*document);
    const auto trailer = util::split_integrity_trailer(segment.document);
    entries.clear();
    if (!trailer.stated.has_value() ||
        !scan_entries(trailer.body, entries, defect)) {
      // A segment is recomputable by definition, so the only wrong
      // move would be trusting any part of it.
      remove_segment(segment.path);
      ++stats_.dropped_segments;
      segments_.pop_back();
      continue;
    }
    segment.body = trailer.body;
    segment.stated = *trailer.stated;
    const std::size_t segment_id = segments_.size() - 1;
    for (const auto& entry : entries) {
      index_[entry.key] = IndexedRow{entry.row, segment_id};
    }
    ++stats_.segments;
  }
  stats_.entries = index_.size();
  open_ = true;
  return true;
}

bool ResultCache::verify_segment(std::size_t id) {
  Segment& segment = segments_[id];
  if (segment.verified) return true;
  static obs::Counter& verified_counter =
      obs::MetricsRegistry::instance().counter("cache.segments_verified");
  verified_counter.add();
  if (util::fnv1a64(segment.body) == segment.stated) {
    segment.verified = true;
    return true;
  }
  // Damaged after publish with its framing intact: the same verdict
  // open gives bad framing, one hit later.
  remove_segment(segment.path);
  ++stats_.dropped_segments;
  std::vector<EntryView> entries;
  std::string defect;
  scan_entries(segment.body, entries, defect);  // Checked at open.
  for (const auto& entry : entries) {
    const auto it = index_.find(entry.key);
    if (it != index_.end() && it->second.segment == id) index_.erase(it);
  }
  return false;
}

std::optional<std::string_view> ResultCache::lookup(std::uint64_t key) {
  if (!open_) return std::nullopt;
  auto& metrics = obs::MetricsRegistry::instance();
  static obs::Counter& hits_counter = metrics.counter("cache.hits");
  static obs::Counter& misses_counter = metrics.counter("cache.misses");
  static obs::Histogram& hit_hist = metrics.histogram("cache.hit_usec");
  static obs::Histogram& miss_hist = metrics.histogram("cache.miss_usec");
  const bool timed = metrics.enabled();
  const std::uint64_t start = timed ? obs::usec_now() : 0;
  auto it = index_.find(key);
  if (it != index_.end() && it->second.segment != npos &&
      !verify_segment(it->second.segment)) {
    it = index_.end();  // Dropped with the rest of its segment's keys.
  }
  if (it == index_.end()) {
    ++stats_.misses;
    misses_counter.add();
    if (timed) miss_hist.record(obs::usec_now() - start);
    return std::nullopt;
  }
  ++stats_.hits;
  hits_counter.add();
  if (it->second.segment != npos) segments_[it->second.segment].hit = true;
  if (timed) hit_hist.record(obs::usec_now() - start);
  return it->second.row;
}

void ResultCache::insert(std::uint64_t key, std::string_view row) {
  if (!open_) return;
  // The byte-identity contract makes a duplicate's bytes identical to
  // the indexed ones, so re-staging an already-known key only bloats
  // the store.
  const auto [it, fresh] = index_.try_emplace(key);
  if (!fresh) return;
  const SegmentEntry& staged =
      staged_.emplace_back(SegmentEntry{key, std::string(row)});
  it->second = IndexedRow{staged.row, npos};
  ++stats_.inserted;
  static obs::Counter& inserts_counter =
      obs::MetricsRegistry::instance().counter("cache.inserts");
  inserts_counter.add();
}

bool ResultCache::flush(std::string* error) {
  if (!open_) return true;
  const obs::ObsSpan span("flush", "cache", "staged",
                          staged_.size() - published_);
  static obs::Histogram& flush_hist =
      obs::MetricsRegistry::instance().histogram("cache.flush_usec");
  const obs::ScopedUsecTimer flush_timer(flush_hist);
  auto& faults = orch::FaultInjector::instance();

  std::string published_path;
  if (published_ < staged_.size()) {
    std::string document = render_entries(
        staged_.begin() + static_cast<std::ptrdiff_t>(published_),
        staged_.end());
    published_path =
        options_.dir + "/seg_" + util::hex16(util::fnv1a64(document)) + ".seg";
    if (const auto torn =
            faults.armed(orch::FaultKind::kCacheTornWrite)) {
      // A torn publish: only a prefix of the document lands under the
      // final name — the state a crashed writer without the atomic
      // staging discipline leaves. Readers must verify-and-drop it.
      document.resize(
          std::min(document.size(), std::max<std::size_t>(1, *torn)));
      std::string write_error;
      if (!util::atomic_write_file(published_path, document, &write_error)) {
        if (error != nullptr) *error = write_error;
        return false;
      }
      published_ = staged_.size();
      return true;
    }
    if (faults.armed(orch::FaultKind::kCacheCorruptSegment).has_value()) {
      // Bit rot after the trailer was computed: the file is full
      // length and structurally plausible, only the checksum can
      // reject it.
      const std::size_t digit = document.size() - 2;
      document[digit] = document[digit] == '0' ? '1' : '0';
    }
    std::string write_error;
    if (!util::atomic_write_file(published_path, document, &write_error)) {
      if (error != nullptr) *error = write_error;
      return false;
    }
    published_ = staged_.size();
  }

  // Recency: a segment that answered hits since the last flush is
  // "recently used" — bump its mtime so the eviction pass below (and
  // any concurrent process's) ranks it young.
  for (auto& segment : segments_) {
    if (!segment.hit) continue;
    ::utimensat(AT_FDCWD, segment.path.c_str(), nullptr, 0);
    segment.hit = false;
  }

  // A max_bytes of 0 means unbounded; the evict fault is a zero budget.
  // The segment just published carries this flush's fresh rows, and
  // evicting it at once would make an over-budget store a write-only
  // device.
  if (faults.armed(orch::FaultKind::kCacheEvict).has_value()) {
    stats_.evicted_segments += gc_dir(options_.dir, 0, published_path);
  } else if (options_.max_bytes != 0) {
    stats_.evicted_segments +=
        gc_dir(options_.dir, options_.max_bytes, published_path);
  }
  return true;
}

}  // namespace railcorr::cache
