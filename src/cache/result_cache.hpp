/// \file result_cache.hpp
/// \brief Content-addressed sweep cell-result store: fingerprint-keyed
///        reuse of already-computed grid rows, shared safely between
///        worker processes, so repeated or overlapping sweeps only
///        recompute cells whose inputs actually changed.
///
/// Every sweep cell's CSV row is a pure function of (plan fingerprint,
/// cell index, shard banner, result-schema version) — the same
/// purity the orchestrator's retry safety rests on. The
/// cache keys on exactly that tuple: `cell_key` hashes the shard
/// banner (which carries the plan fingerprint and grid size), the
/// grid cell index, the CSV header (which pins the
/// column set, e.g. `--include-sizing`), and `kResultSchemaVersion`
/// with FNV-1a 64. The value is the exact row bytes. Any input change
/// — a flipped axis value, an edited banner, a new metric
/// column, a schema bump — changes the key, so stale entries are
/// unreachable by construction rather than invalidated by bookkeeping.
///
/// **The byte-identity contract is absolute**: a cache hit must return
/// bytes identical to what a cold evaluation would produce. A hit that
/// would change output bytes is a bug in the key derivation, never an
/// acceptable staleness. Corruption is therefore handled the way the
/// orchestrator handles damaged shards: verified, then dropped — a torn
/// or bit-flipped segment fails its integrity trailer and the whole
/// segment is discarded (a recompute), never partially trusted.
///
/// A reader checks a segment in two steps. `open` checks its framing
/// (trailer line present and well-formed, magic, schema, entry
/// framing) and indexes its entries as views into its bytes without
/// hashing them; the first `lookup` that lands in the segment hashes it
/// against its trailer, and only a match lets it serve. A warm re-sweep
/// whose shard hits one segment therefore hashes that segment, not the
/// whole store. The cost: a damaged segment whose framing is intact
/// stays on disk until a hit, `cache verify` (which, like `cache stats`,
/// hashes every segment) or eviction removes it.
///
/// On-disk layout (`--cache-dir`): a flat directory of immutable
/// segment files, each holding a batch of entries published in one
/// atomic rename:
///
///     # railcorr-cache-v1 schema=<V>
///     entry <hex16 key> <payload bytes>
///     <payload>\n
///     ...
///     @railcorr-crc <hex16>          (util::durable_io trailer)
///
/// Segment file names are content-addressed too
/// (`seg_<hex16-of-document>.seg`), so two workers publishing the same
/// entries collide onto byte-identical files and distinct batches
/// (almost surely) never clobber each other.
///
/// Multi-process safety: writers stage a segment with
/// util::atomic_write_file (same-directory temp + fsync + rename), so
/// readers observe a segment fully or not at all; evictors take a
/// per-segment `<name>.lock` file (O_CREAT|O_EXCL) before unlinking,
/// so two concurrent evictors never race on the same segment, and a
/// reader whose segment vanishes mid-scan simply misses. No shared
/// mutable state exists: segments are immutable after publish, and the
/// in-memory index is per-process.
///
/// Capacity (`--cache-max-mb`) is enforced at segment granularity with
/// an LRU approximation: `flush` bumps the mtime of every segment that
/// served a hit since the last flush, then evicts
/// least-recently-touched segments until the directory fits the
/// budget. The newest segment (the one just published) is never
/// evicted by its own flush.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace railcorr::cache {

/// Bumped whenever the meaning of a cached row could change without the
/// banner or header changing (e.g. a metric's formula fix). Old entries
/// then become unreachable instead of wrongly served.
inline constexpr std::uint32_t kResultSchemaVersion = 1;

/// The content address of one sweep cell's row: FNV-1a 64 over the
/// shard banner (plan fingerprint + grid), the cell
/// index, the CSV header (column set), and the schema version.
std::uint64_t cell_key(std::string_view banner, std::size_t index,
                       std::string_view header,
                       std::uint32_t schema_version = kResultSchemaVersion);

/// One (key, row bytes) pair of a segment document.
struct SegmentEntry {
  std::uint64_t key = 0;
  std::string row;
};

/// Outcome of parsing one segment document.
struct SegmentParse {
  /// True when the trailer verified and every entry was well-formed.
  bool ok = false;
  /// Human-readable defect when !ok (corrupt trailer, bad magic,
  /// truncated entry, malformed key...).
  std::string error;
  /// Parsed entries (valid only when ok). Duplicate keys are legal;
  /// later entries win (the writer's insert order is preserved).
  std::vector<SegmentEntry> entries;
};

/// Render entries as a publishable segment document (magic line,
/// length-prefixed payloads, integrity trailer).
std::string render_segment(const std::vector<SegmentEntry>& entries);

/// Parse a segment document. Never throws; any damage — a missing or
/// mismatched integrity trailer, a wrong magic or schema line, a
/// truncated or malformed entry — yields ok=false, so a torn write or
/// bit flip anywhere in the file discards the whole segment.
SegmentParse parse_segment(std::string_view document);

/// Aggregate state of a cache directory (the `cache stats`/`verify`
/// verbs and tests).
struct DirReport {
  /// Intact segments found.
  std::size_t segments = 0;
  /// Entries across intact segments.
  std::size_t entries = 0;
  /// Bytes on disk across intact segments.
  std::size_t bytes = 0;
  /// Segments that failed verification (dropped when requested).
  std::vector<std::string> corrupt_files;
};

/// Scan `dir`'s segments, verifying each. With `drop_corrupt`, damaged
/// segments are unlinked (under the eviction lock protocol) — the
/// `cache verify` repair path. A missing directory reports zero
/// segments.
DirReport scan_dir(const std::string& dir, bool drop_corrupt);

/// The one LRU eviction pass: unlink `dir`'s segments oldest mtime
/// first (under the eviction lock protocol) until the rest hold at most
/// `max_bytes`, never the segment at path `keep`. The `cache gc` verb,
/// and every budgeted flush. Returns the number of segments evicted.
std::size_t gc_dir(const std::string& dir, std::size_t max_bytes,
                   std::string_view keep = {});

/// The per-process view of one cache directory: indexes every
/// well-framed segment at open, answers lookups at memory speed once a
/// segment's trailer has matched, stages inserts, and publishes them as
/// one new segment per flush.
class ResultCache {
 public:
  struct Options {
    /// Cache directory (created if missing).
    std::string dir;
    /// Capacity budget in bytes enforced at flush; 0 = unbounded.
    std::size_t max_bytes = 0;
  };

  /// Hit/miss and maintenance counters of this process's cache view.
  struct Stats {
    /// Segments indexed at open: their framing is intact, their
    /// trailers are checked on the first hit.
    std::size_t segments = 0;
    /// Distinct keys indexed at open.
    std::size_t entries = 0;
    /// Damaged segments dropped: bad framing at open, or a trailer
    /// mismatch on a first hit.
    std::size_t dropped_segments = 0;
    /// lookup() calls that returned a row.
    std::size_t hits = 0;
    /// lookup() calls that did not.
    std::size_t misses = 0;
    /// insert() calls staged (duplicates of indexed keys are skipped).
    std::size_t inserted = 0;
    /// Segments evicted by this process's flushes.
    std::size_t evicted_segments = 0;
  };

  /// Read every segment in `options.dir` (creating it if needed) and
  /// index its entries as views into its bytes. A segment whose trailer
  /// line is missing or malformed, or whose magic, schema or entry
  /// framing is bad, is dropped from disk here; the trailer hash waits
  /// for the segment's first hit. Returns false (with `error`) only on
  /// environment failures — an uncreatable or unreadable directory.
  bool open(const Options& options, std::string* error = nullptr);

  [[nodiscard]] bool is_open() const { return open_; }

  /// The row cached under `key`, or std::nullopt. Counts a hit or a
  /// miss. The first lookup that lands in a segment hashes it against
  /// its trailer; on a mismatch the segment is dropped from disk, its
  /// keys leave the index, and the lookup misses. Rows come only from
  /// matched segments or this process's own inserts. The view is valid
  /// until the cache is destroyed or reopened, across later inserts,
  /// lookups and flushes.
  std::optional<std::string_view> lookup(std::uint64_t key);

  /// Stage one row for the next flush. A key already indexed (or
  /// already staged) is skipped — the byte-identity contract makes any
  /// duplicate's bytes identical, so re-publishing buys nothing. A key
  /// whose segment was dropped is no longer indexed, so its recomputed
  /// row is staged and published again.
  void insert(std::uint64_t key, std::string_view row);

  /// Publish staged entries as one content-addressed segment and
  /// enforce the capacity budget (LRU segment eviction, hit-serving
  /// segments touched first). A no-op with nothing staged and no
  /// budget pressure. Returns false (with `error`) on write failure;
  /// the cache stays usable either way.
  bool flush(std::string* error = nullptr);

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  /// One segment file read at open. Never moves once read (a deque
  /// element), so index entries and returned rows can view its bytes.
  struct Segment {
    std::string path;
    std::string document;
    /// `document` without its trailer line, and the hash the trailer
    /// states for it.
    std::string_view body;
    std::uint64_t stated = 0;
    /// The trailer matched on a first hit; only then does it serve.
    bool verified = false;
    /// Served at least one hit since the last flush.
    bool hit = false;
  };
  struct IndexedRow {
    std::string_view row;
    /// Which loaded segment the row lives in (index into segments_;
    /// npos for rows staged by this process).
    std::size_t segment = npos;
  };
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Hash segment `id` against its trailer on its first hit; on a
  /// mismatch drop it from disk and its keys from the index.
  bool verify_segment(std::size_t id);

  bool open_ = false;
  Options options_;
  Stats stats_;
  std::unordered_map<std::uint64_t, IndexedRow> index_;
  std::deque<Segment> segments_;
  /// Every row this process inserted, in insert order; those from
  /// `published_` on await the next flush. Never shrinks, so index
  /// entries and returned rows can view them.
  std::deque<SegmentEntry> staged_;
  std::size_t published_ = 0;
};

}  // namespace railcorr::cache
