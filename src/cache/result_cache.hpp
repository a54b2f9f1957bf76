/// \file result_cache.hpp
/// \brief Content-addressed sweep cell-result store: fingerprint-keyed
///        reuse of already-computed grid rows, shared safely between
///        worker processes, so repeated or overlapping sweeps only
///        recompute cells whose inputs actually changed.
///
/// Every sweep cell's CSV row is a pure function of (plan fingerprint,
/// cell index, shard banner, result-schema version) — the same
/// purity the orchestrator's retry safety rests on. The
/// cache keys on exactly that tuple: a cell's key is FNV-1a 64 over
/// the shard banner (which carries the plan fingerprint and grid
/// size), the CSV header (which pins the column set, e.g.
/// `--include-sizing`) and `kResultSchemaVersion`, each ending in a
/// newline, then the decimal cell index. The first three are one
/// per-plan prefix (`cell_key_prefix`), hashed once per shard; a cell's
/// key continues it with the index. The value is the exact row bytes.
/// Any input change — a flipped axis value, an edited banner, a new
/// metric column, a schema bump — changes the key, so stale entries are
/// unreachable by construction rather than invalidated by bookkeeping.
///
/// **The byte-identity contract is absolute**: a cache hit must return
/// bytes identical to what a cold evaluation would produce. A hit that
/// would change output bytes is a bug in the key derivation, never an
/// acceptable staleness. Corruption is therefore handled the way the
/// orchestrator handles damaged shards: verified, then dropped — a torn
/// or bit-flipped segment fails its checks and the whole segment is
/// discarded (a recompute), never partially trusted.
///
/// On-disk layout (`--cache-dir`): a flat directory of immutable
/// segment files, each holding a batch of entries published in one
/// atomic rename:
///
///     # railcorr-cache-v2 schema=<V> entries=<n>
///     <hex16 key> <hex8 ordinal>     (n directory lines)
///     ...
///     entry <payload bytes>          (n entries, in writer order)
///     <payload>\n
///     ...
///     @railcorr-crc <hex16>          (util::durable_io trailer)
///
/// The directory lists every entry once: its key and its ordinal (its
/// position among the entries), in fixed-width lowercase hex, sorted by
/// key, then ordinal. A key listed more than once resolves to its
/// largest ordinal, so a later entry wins, as in writer order.
///
/// A reader checks a segment in two steps. `open` reads the magic line
/// and the directory and nothing else, and checks them: magic, schema,
/// entry count, line width, hex digits, sort order, and that each
/// ordinal is in range and listed once. Lookups binary-search the
/// directories. The first `lookup` that lands in a segment reads the
/// whole file, hashes it against its trailer, checks that it begins
/// with the directory `open` read, and scans its entries: exactly n,
/// each well framed. Only then does the segment serve. A warm re-sweep
/// whose shard hits one segment therefore reads that segment and the
/// other segments' directories, not the whole store. The cost: a
/// damaged segment whose directory is intact stays on disk until a
/// hit, `cache verify` (which, like `cache stats`, reads and checks
/// every segment whole) or eviction removes it.
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
/// reader whose segment vanishes before its first hit simply misses. No
/// shared mutable state exists: segments are immutable after publish,
/// and each process's view of them is its own.
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
#include <utility>
#include <vector>

namespace railcorr::cache {

/// Bumped whenever the meaning of a cached row could change without the
/// banner or header changing (e.g. a metric's formula fix). Old entries
/// then become unreachable instead of wrongly served.
inline constexpr std::uint32_t kResultSchemaVersion = 1;

/// The per-plan part of every cell key: FNV-1a 64 over
/// `banner\nheader\nschema\n`, the shard banner (plan fingerprint +
/// grid), the CSV header (column set) and the schema version.
std::uint64_t cell_key_prefix(
    std::string_view banner, std::string_view header,
    std::uint32_t schema_version = kResultSchemaVersion);

/// The content address of one sweep cell's row: `prefix` (from
/// cell_key_prefix) continued by the decimal cell index.
std::uint64_t cell_key(std::uint64_t prefix, std::size_t index);

/// cell_key(cell_key_prefix(banner, header, schema_version), index).
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

/// Render entries as a publishable segment document (magic line, key
/// directory, length-prefixed payloads, integrity trailer).
std::string render_segment(const std::vector<SegmentEntry>& entries);

/// Parse a segment document. Never throws; any damage — a missing or
/// mismatched integrity trailer, a wrong magic or schema line, a bad
/// directory, a truncated or malformed entry, entries the directory
/// does not list one for one — yields ok=false, so a torn write or bit
/// flip anywhere in the file discards the whole segment.
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

/// The per-process view of one cache directory: reads every segment's
/// key directory at open, loads and checks a segment on its first hit,
/// stages inserts, and publishes them as one new segment per flush.
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
    /// Segments whose directories passed at open; each is checked whole
    /// on its first hit.
    std::size_t segments = 0;
    /// Directory lines across those segments.
    std::size_t entries = 0;
    /// Damaged segments dropped: a bad directory at open, or a failed
    /// check on a first hit.
    std::size_t dropped_segments = 0;
    /// lookup() calls that returned a row.
    std::size_t hits = 0;
    /// lookup() calls that did not.
    std::size_t misses = 0;
    /// insert() calls staged (keys already staged are skipped).
    std::size_t inserted = 0;
    /// Segments evicted by this process's flushes.
    std::size_t evicted_segments = 0;
    /// Segment bytes read: heads at open, whole files on first hits.
    std::size_t bytes_read = 0;
  };

  /// Read the magic line and key directory of every segment in
  /// `options.dir` (creating it if needed), and no payload byte beyond
  /// the first 4 KiB of a file. A segment whose directory fails a check
  /// is dropped from disk here. Returns false (with `error`) only on
  /// environment failures — an uncreatable or unreadable directory.
  bool open(const Options& options, std::string* error = nullptr);

  [[nodiscard]] bool is_open() const { return open_; }

  /// The row cached under `key`, or std::nullopt. Counts a hit or a
  /// miss. The first lookup that lands in a segment loads and checks it
  /// whole; a segment that fails is dropped from disk and from this
  /// view, and the search goes on in any other segment listing the key.
  /// A segment evicted before its first hit misses the same way. Rows
  /// come only from checked segments or this process's own inserts. The
  /// view is valid until the cache is destroyed or reopened, across
  /// later inserts, lookups and flushes.
  std::optional<std::string_view> lookup(std::uint64_t key);

  /// Stage one row for the next flush; a key already staged is
  /// skipped. The directories are not searched again: the caller
  /// inserts a key only after its lookup() missed, and a miss means no
  /// live segment lists it (a key whose segment was dropped is no
  /// longer listed, so its recomputed row is published again). A key
  /// inserted without a lookup may duplicate a listed one; the
  /// byte-identity contract makes both rows the same bytes.
  void insert(std::uint64_t key, std::string_view row);

  /// Publish staged entries as one content-addressed segment, bump the
  /// mtime of every segment that served a hit since the last flush,
  /// then enforce the capacity budget (LRU segment eviction, never the
  /// segment just published). A no-op with nothing staged, no hit and
  /// no budget pressure. Returns false (with `error`) on write failure;
  /// the cache stays usable either way.
  bool flush(std::string* error = nullptr);

  /// The path of the segment the last flush published; empty when it
  /// published none (nothing staged, or a failed write).
  [[nodiscard]] const std::string& last_published() const {
    return last_published_;
  }

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// One segment file. `segments_` is filled by open and never resized
  /// after it, so rows can view a loaded segment's bytes.
  struct Segment {
    std::string path;
    /// The magic line and the directory, as open read them.
    std::string head;
    /// Directory lines (= entries).
    std::size_t entries = 0;
    /// Loaded on the first hit: the whole file, and each entry's row
    /// (by ordinal) viewing it.
    std::string document;
    std::vector<std::string_view> rows;
    /// Dropped, or gone from disk at its first hit: no longer listed.
    bool gone = false;
    /// Served at least one hit since the last flush.
    bool hit = false;
    /// The segment that served the hit after this one's last hit: where
    /// the next search starts.
    std::size_t next = npos;
    /// One bit per slice of the (mixed) key space, set for each listed
    /// key's slice, 16 bits per key: a key whose bit is clear is not
    /// listed, and its search skips this directory, as ~93 % of absent
    /// keys do.
    std::vector<std::uint64_t> filter;
    int filter_shift = 0;

    [[nodiscard]] std::string_view directory() const;
    [[nodiscard]] bool may_list(std::uint64_t key) const;
  };

  /// The segment and ordinal listing `key`, searching live directories
  /// from segment `first` on; {npos, npos} when none.
  std::pair<std::size_t, std::size_t> find_listed(std::uint64_t key,
                                                  std::size_t first) const;

  /// Load segment `id` on its first hit: read it, hash it against its
  /// trailer, check it begins with its directory and frames exactly its
  /// entries. On any defect drop it from disk; on any failure mark it
  /// gone. True when it serves.
  bool load(std::size_t id);

  bool open_ = false;
  Options options_;
  Stats stats_;
  std::vector<Segment> segments_;
  /// The segment of the last hit (npos before the first).
  std::size_t last_hit_ = npos;
  /// Every row this process inserted, in insert order; those from
  /// `published_` on await the next flush. Never shrinks, so
  /// `staged_rows_` and returned rows can view them.
  std::deque<SegmentEntry> staged_;
  std::unordered_map<std::uint64_t, std::string_view> staged_rows_;
  std::size_t published_ = 0;
  std::string last_published_;
};

}  // namespace railcorr::cache
