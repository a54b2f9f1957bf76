#include "cache/result_cache.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/config.hpp"
#include "util/durable_io.hpp"

namespace railcorr::cache {

namespace {

namespace fs = std::filesystem;

constexpr std::string_view kMagicPrefix = "# railcorr-cache-v2 schema=";
constexpr std::string_view kEntriesField = " entries=";
/// A directory line: `<hex16 key> <hex8 ordinal>\n`.
constexpr std::size_t kKeyDigits = 16;
constexpr std::size_t kOrdinalDigits = 8;
constexpr std::size_t kLineBytes = kKeyDigits + 1 + kOrdinalDigits + 1;
/// What open reads of a segment first: the magic line and up to ~155
/// directory lines. A longer directory takes one more read.
constexpr std::size_t kHeadRead = 4096;
constexpr std::size_t npos = std::string_view::npos;

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

/// Read up to `size` bytes of `fd` at `offset` into `out`, retrying
/// EINTR and short reads. Returns the bytes read: fewer only at the end
/// of the file or on an error.
std::size_t read_at(int fd, std::size_t offset, char* out, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::pread(fd, out + done, size - done,
                              static_cast<off_t>(offset + done));
    if (n > 0) {
      done += static_cast<std::size_t>(n);
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  return done;
}

/// The magic line at the start of `text`: its size, newline included,
/// and the entry count it states. On a missing or malformed line or a
/// foreign schema returns false with `error` naming it.
bool parse_magic(std::string_view text, std::size_t& size,
                 std::size_t& entries, std::string& error) {
  const std::size_t eol = text.find('\n');
  if (eol == npos) {
    error = "missing magic line";
    return false;
  }
  const std::string_view magic = text.substr(0, eol);
  const std::size_t split = magic.find(kEntriesField);
  if (!magic.starts_with(kMagicPrefix) || split == npos ||
      !util::parse_whole(magic.substr(split + kEntriesField.size()),
                         entries)) {
    error = "bad magic line '" + std::string(magic) + "'";
    return false;
  }
  std::size_t schema = 0;
  if (!util::parse_whole(
          magic.substr(kMagicPrefix.size(), split - kMagicPrefix.size()),
          schema) ||
      schema != kResultSchemaVersion) {
    // A foreign schema is not corruption, but its rows mean something
    // else; dropping the segment is the only safe read.
    error = "unsupported schema in '" + std::string(magic) + "'";
    return false;
  }
  size = eol + 1;
  return true;
}

/// The 16 hex digits of directory line `i`'s key.
std::string_view line_key(std::string_view directory, std::size_t i) {
  return directory.substr(i * kLineBytes, kKeyDigits);
}

/// Directory line `i`'s ordinal; false when its digits are no hex.
bool line_ordinal(std::string_view directory, std::size_t i,
                  std::uint64_t& ordinal) {
  return util::parse_hex(
      directory.substr(i * kLineBytes + kKeyDigits + 1, kOrdinalDigits),
      ordinal);
}

/// The one check of a key directory (whole lines, the magic line
/// already split off): fixed-width lines of lowercase hex, sorted by
/// key, then ordinal, each ordinal below the line count and listed
/// once. Sets `keys` to the lines' keys, in line order; on the first
/// defect returns false with `error` naming it.
bool check_directory(std::string_view directory,
                     std::vector<std::uint64_t>& keys, std::string& error) {
  const std::size_t count = directory.size() / kLineBytes;
  keys.assign(count, 0);
  std::vector<bool> listed(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::string_view line = directory.substr(i * kLineBytes, kLineBytes);
    std::uint64_t ordinal = 0;
    if (line[kKeyDigits] != ' ' || line.back() != '\n' ||
        !util::parse_hex16(line_key(directory, i), keys[i]) ||
        !line_ordinal(directory, i, ordinal)) {
      error = "malformed directory line " + std::to_string(i + 1);
      return false;
    }
    // Fixed-width lowercase hex sorts as the numbers do.
    if (i > 0 && directory.compare((i - 1) * kLineBytes, kLineBytes - 1,
                                   line, 0, kLineBytes - 1) >= 0) {
      error = "directory out of order at line " + std::to_string(i + 1);
      return false;
    }
    if (ordinal >= count || listed[ordinal]) {
      error = "directory line " + std::to_string(i + 1) +
              " lists an ordinal out of range or twice";
      return false;
    }
    listed[ordinal] = true;
  }
  return true;
}

/// The largest ordinal a checked `directory` lists for `key` (its 16
/// hex digits), or npos. Lines compare as text, as check_directory
/// ordered them.
std::size_t listed_ordinal(std::string_view directory, const char* key) {
  // The first line whose key sorts after `key`.
  std::size_t lo = 0;
  std::size_t hi = directory.size() / kLineBytes;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (std::memcmp(directory.data() + mid * kLineBytes, key, kKeyDigits) <=
        0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  std::uint64_t ordinal = 0;
  if (lo == 0 || line_key(directory, lo - 1) !=
                     std::string_view(key, kKeyDigits)) {
    return npos;
  }
  line_ordinal(directory, lo - 1, ordinal);
  return static_cast<std::size_t>(ordinal);
}

/// The filter bit of `key` among 2^(64 - shift): the top bits of the
/// key times 2^64/φ. The key's own top bits will not do: the FNV-1a keys
/// of cells whose indices differ only in the last digit share them.
std::uint64_t filter_slot(std::uint64_t key, int shift) {
  return (key * 0x9E3779B97F4A7C15ULL) >> shift;
}

/// The one reader of a segment's entries (the body after its
/// directory): exactly `count` entries, each an `entry <len>` line
/// followed by exactly `len` payload bytes and a newline, and nothing
/// after them. Appends each payload to `rows` in entry order; on the
/// first defect returns false with `error` naming it.
bool scan_entries(std::string_view rest, std::size_t count,
                  std::vector<std::string_view>& rows, std::string& error) {
  rows.reserve(count);
  while (!rest.empty()) {
    if (rows.size() == count) {
      error = "bytes past the directory's " + std::to_string(count) +
              " entries";
      return false;
    }
    const std::size_t eol = rest.find('\n');
    if (eol == npos) {
      error = "truncated entry header";
      return false;
    }
    const std::string_view line = rest.substr(0, eol);
    rest.remove_prefix(eol + 1);
    std::size_t length = 0;
    // A length that does not fit is refused, never wrapped: a segment
    // is outside input, and a wrapped length would frame a payload past
    // the document's end.
    if (!line.starts_with("entry ") ||
        !util::parse_whole(line.substr(6), length)) {
      error = "malformed entry line '" + std::string(line) + "'";
      return false;
    }
    // The payload is length-prefixed raw bytes plus one separator
    // newline; anything shorter is truncation.
    if (length >= rest.size() || rest[length] != '\n') {
      error = "truncated entry payload";
      return false;
    }
    rows.push_back(rest.substr(0, length));
    rest.remove_prefix(length + 1);
  }
  if (rows.size() != count) {
    error = "the directory lists " + std::to_string(count) +
            " entries, the segment holds " + std::to_string(rows.size());
    return false;
  }
  return true;
}

/// A segment document of the entries [first, last). Ordinals have 8
/// hex digits: a batch of 2^32 entries or more would list an ordinal
/// twice, and every reader would drop the segment.
template <typename It>
std::string render_entries(It first, It last) {
  std::vector<std::pair<std::uint64_t, std::size_t>> listed;
  std::size_t payload = 0;
  for (It it = first; it != last; ++it) {
    listed.emplace_back(it->key, listed.size());
    // The row, its `entry <len>` line and its separator, at most.
    payload += it->row.size() + 32;
  }
  std::sort(listed.begin(), listed.end());
  std::string body(kMagicPrefix);
  body += std::to_string(kResultSchemaVersion);
  body += kEntriesField;
  body += std::to_string(listed.size());
  body += '\n';
  body.reserve(body.size() + listed.size() * kLineBytes + payload +
               util::kIntegrityTrailerBytes);
  for (const auto& [key, ordinal] : listed) {
    char line[kLineBytes];
    util::write_hex(key, kKeyDigits, line);
    line[kKeyDigits] = ' ';
    util::write_hex(ordinal, kOrdinalDigits, line + kKeyDigits + 1);
    line[kLineBytes - 1] = '\n';
    body.append(line, kLineBytes);
  }
  for (; first != last; ++first) {
    body += "entry ";
    body += std::to_string(first->row.size());
    body += '\n';
    body += first->row;
    body += '\n';
  }
  util::append_integrity_trailer(body);
  return body;
}

}  // namespace

std::uint64_t cell_key_prefix(std::string_view banner,
                              std::string_view header,
                              std::uint32_t schema_version) {
  // Each field ends with '\n' (none can contain one) and the index is
  // last, so no two distinct tuples hash the same byte stream.
  std::uint64_t hash = util::fnv1a64(banner);
  hash = util::fnv1a64("\n", hash);
  hash = util::fnv1a64(header, hash);
  hash = util::fnv1a64("\n", hash);
  hash = util::fnv1a64(std::to_string(schema_version), hash);
  return util::fnv1a64("\n", hash);
}

std::uint64_t cell_key(std::uint64_t prefix, std::size_t index) {
  char digits[20];
  const auto [end, ec] = std::to_chars(digits, digits + sizeof digits, index);
  return util::fnv1a64(std::string_view(digits, end - digits), prefix);
}

std::uint64_t cell_key(std::string_view banner, std::size_t index,
                       std::string_view header,
                       std::uint32_t schema_version) {
  return cell_key(cell_key_prefix(banner, header, schema_version), index);
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
  const std::string_view body = trailer.body;
  std::size_t magic = 0;
  std::size_t count = 0;
  if (!parse_magic(body, magic, count, parse.error)) return parse;
  if (count > (body.size() - magic) / kLineBytes) {
    parse.error = "directory runs past the end of the segment";
    return parse;
  }
  const std::string_view directory = body.substr(magic, count * kLineBytes);
  std::vector<std::uint64_t> keys;
  std::vector<std::string_view> rows;
  if (!check_directory(directory, keys, parse.error) ||
      !scan_entries(body.substr(magic + directory.size()), count, rows,
                    parse.error)) {
    return parse;
  }
  parse.entries.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t ordinal = 0;
    line_ordinal(directory, i, ordinal);
    parse.entries[ordinal] = SegmentEntry{keys[i], std::string(rows[ordinal])};
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

std::string_view ResultCache::Segment::directory() const {
  return std::string_view(head).substr(head.size() - entries * kLineBytes);
}

bool ResultCache::Segment::may_list(std::uint64_t key) const {
  const std::uint64_t slot = filter_slot(key, filter_shift);
  return ((filter[slot / 64] >> (slot % 64)) & 1) != 0;
}

bool ResultCache::open(const Options& options, std::string* error) {
  const obs::ObsSpan span("open", "cache");
  open_ = false;
  options_ = options;
  stats_ = {};
  segments_.clear();
  last_hit_ = npos;
  staged_.clear();
  staged_rows_.clear();
  published_ = 0;
  last_published_.clear();

  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  if (ec) {
    if (error != nullptr) {
      *error = "cannot create cache dir '" + options_.dir + "': " +
               ec.message();
    }
    return false;
  }

  auto files = list_segments(options_.dir);
  segments_.reserve(files.size());
  std::vector<std::uint64_t> keys;
  std::string defect;
  for (auto& file : files) {
    int fd;
    do {
      fd = ::open(file.path.c_str(), O_RDONLY | O_CLOEXEC);
    } while (fd < 0 && errno == EINTR);
    if (fd < 0) continue;  // Evicted under us.
    Segment segment;
    segment.path = std::move(file.path);
    // One read holds the magic line and a short directory; a longer
    // directory takes a second read, sized to it.
    char first[kHeadRead];
    const std::size_t wanted = std::min(file.size, kHeadRead);
    std::size_t got = read_at(fd, 0, first, wanted);
    std::size_t magic = 0;
    bool ok = got == wanted &&
              parse_magic(std::string_view(first, got), magic,
                          segment.entries, defect) &&
              segment.entries <= (file.size - magic) / kLineBytes;
    if (ok) {
      const std::size_t head = magic + segment.entries * kLineBytes;
      segment.head.assign(first, std::min(got, head));
      if (head > got) {
        segment.head.resize(head);
        got += read_at(fd, got, segment.head.data() + got, head - got);
        ok = got == head;
      }
      ok = ok && check_directory(segment.directory(), keys, defect);
    }
    ::close(fd);
    stats_.bytes_read += got;
    if (!ok) {
      // A segment is recomputable by definition, so the only wrong
      // move would be trusting any part of it.
      remove_segment(segment.path);
      ++stats_.dropped_segments;
      continue;
    }
    // 16 filter bits per listed key, rounded up to a power of two.
    const int bits = static_cast<int>(
        std::bit_width(std::max<std::size_t>(segment.entries * 16, 64) - 1));
    segment.filter_shift = 64 - bits;
    segment.filter.assign(std::size_t{1} << (bits - 6), 0);
    for (const std::uint64_t key : keys) {
      const std::uint64_t slot = filter_slot(key, segment.filter_shift);
      segment.filter[slot / 64] |= std::uint64_t{1} << (slot % 64);
    }
    stats_.entries += segment.entries;
    segments_.push_back(std::move(segment));
  }
  stats_.segments = segments_.size();
  static obs::Counter& bytes_counter =
      obs::MetricsRegistry::instance().counter("cache.bytes_read");
  bytes_counter.add(stats_.bytes_read);
  open_ = true;
  return true;
}

std::pair<std::size_t, std::size_t> ResultCache::find_listed(
    std::uint64_t key, std::size_t first) const {
  char digits[kKeyDigits];
  util::write_hex(key, kKeyDigits, digits);
  for (std::size_t k = 0; k < segments_.size(); ++k) {
    const std::size_t id = (first + k) % segments_.size();
    const Segment& segment = segments_[id];
    if (segment.gone || !segment.may_list(key)) continue;
    const std::size_t ordinal = listed_ordinal(segment.directory(), digits);
    if (ordinal != npos) return {id, ordinal};
  }
  return {npos, npos};
}

bool ResultCache::load(std::size_t id) {
  Segment& segment = segments_[id];
  if (!segment.document.empty()) return true;
  auto document = util::read_file_fully(segment.path);
  if (!document.has_value()) {
    segment.gone = true;  // Evicted since open: a miss, not damage.
    return false;
  }
  auto& metrics = obs::MetricsRegistry::instance();
  static obs::Counter& verified_counter =
      metrics.counter("cache.segments_verified");
  static obs::Counter& bytes_counter = metrics.counter("cache.bytes_read");
  verified_counter.add();
  bytes_counter.add(document->size());
  stats_.bytes_read += document->size();
  // Rows view the document, so the bytes move into place first.
  segment.document = std::move(*document);
  const auto trailer = util::check_integrity_trailer(segment.document);
  std::string defect;
  if (trailer.status == util::TrailerStatus::kVerified &&
      trailer.body.starts_with(segment.head) &&
      scan_entries(trailer.body.substr(segment.head.size()), segment.entries,
                   segment.rows, defect)) {
    return true;
  }
  // Damaged after publish with its directory intact: the same verdict
  // open gives a bad directory, one hit later.
  remove_segment(segment.path);
  ++stats_.dropped_segments;
  segment.gone = true;
  segment.document.clear();
  segment.rows.clear();
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
  std::optional<std::string_view> row;
  if (const auto staged = staged_rows_.find(key);
      staged != staged_rows_.end()) {
    row = staged->second;
  } else if (!segments_.empty()) {
    // Start where the hit after the last hit's segment went: a shard's
    // cells sit in one segment, and a whole-grid sweep visits the
    // segments its shards wrote in a fixed cycle.
    std::size_t first = 0;
    if (last_hit_ != npos) {
      first = segments_[last_hit_].next != npos ? segments_[last_hit_].next
                                                : last_hit_;
    }
    while (true) {
      const auto [id, ordinal] = find_listed(key, first);
      if (id == npos) break;
      if (!load(id)) {
        first = id;  // Now gone: the search goes on past it.
        continue;
      }
      segments_[id].hit = true;
      if (last_hit_ != npos) segments_[last_hit_].next = id;
      last_hit_ = id;
      row = segments_[id].rows[ordinal];
      break;
    }
  }
  if (!row.has_value()) {
    ++stats_.misses;
    misses_counter.add();
    if (timed) miss_hist.record(obs::usec_now() - start);
    return std::nullopt;
  }
  ++stats_.hits;
  hits_counter.add();
  if (timed) hit_hist.record(obs::usec_now() - start);
  return row;
}

void ResultCache::insert(std::uint64_t key, std::string_view row) {
  if (!open_ || staged_rows_.count(key) > 0) return;
  const SegmentEntry& staged =
      staged_.emplace_back(SegmentEntry{key, std::string(row)});
  staged_rows_.emplace(key, staged.row);
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

  last_published_.clear();
  if (published_ < staged_.size()) {
    const std::string document = render_entries(
        staged_.begin() + static_cast<std::ptrdiff_t>(published_),
        staged_.end());
    std::string path =
        options_.dir + "/seg_" + util::hex16(util::fnv1a64(document)) + ".seg";
    std::string write_error;
    if (!util::atomic_write_file(path, document, &write_error)) {
      if (error != nullptr) *error = write_error;
      return false;
    }
    published_ = staged_.size();
    last_published_ = std::move(path);
  }

  // Recency: a segment that answered hits since the last flush is
  // "recently used" — bump its mtime so the eviction pass below (and
  // any concurrent process's) ranks it young.
  for (auto& segment : segments_) {
    if (!segment.hit) continue;
    ::utimensat(AT_FDCWD, segment.path.c_str(), nullptr, 0);
    segment.hit = false;
  }

  // A max_bytes of 0 means unbounded. The segment just published
  // carries this flush's fresh rows, and evicting it at once would make
  // an over-budget store a write-only device.
  if (options_.max_bytes != 0) {
    stats_.evicted_segments +=
        gc_dir(options_.dir, options_.max_bytes, last_published_);
  }
  return true;
}

}  // namespace railcorr::cache
