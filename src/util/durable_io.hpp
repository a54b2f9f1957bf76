/// \file durable_io.hpp
/// \brief Crash-safe durable file I/O and content-integrity trailers —
///        the failure-model primitives under the orchestrator's on-disk
///        artifacts.
///
/// The byte-exact determinism contract makes on-disk artifacts (shard
/// CSVs, the run manifest, the canonical plan copy, merged.csv) the
/// ground truth a resumed or distributed run trusts. That trust needs
/// two properties a plain std::ofstream does not give:
///
/// 1. **Atomic durability** — `atomic_write_file` stages content in a
///    same-directory temp file, fsyncs it, renames it over the target,
///    and fsyncs the parent directory, so a crash at any instant leaves
///    either the old bytes or the new bytes, never a torn mixture, and
///    the rename survives power loss. `rename_durable` applies the same
///    rename + parent-fsync discipline to a file staged elsewhere (the
///    orchestrator finalizing a worker's temp output). `AppendLog`
///    gives the manifest's append-only `done`/`fail` lines a synced
///    full-write per line.
///
/// 2. **Detectable corruption** — an FNV-1a 64 integrity trailer
///    (`@railcorr-crc <hex16>` as the document's final line) makes a
///    truncated or bit-flipped artifact *identifiable* instead of
///    silently poisoning a resume or merge. `check_integrity_trailer`
///    distinguishes a verified trailer, a missing one (legacy or
///    hand-written documents stay readable), and a corrupt one; readers
///    treat corrupt as "recompute this artifact", never as valid data.
///
/// The low-level helpers (`write_fully`, `read_file_fully`) retry EINTR
/// and short transfers; `write_fully` is async-signal-safe (no
/// allocation, no errno-clobbering cleanup) so the post-fork child error
/// path in orch/process.cpp can use it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace railcorr::util {

/// Write all `size` bytes to `fd`, retrying EINTR and short writes.
/// Returns false on an unrecoverable write error. Async-signal-safe:
/// no allocation, no locks — usable between fork and exec.
bool write_fully(int fd, const char* data, std::size_t size) noexcept;

/// Read a whole file through EINTR-safe read(2) loops; std::nullopt
/// when the file cannot be opened or read.
std::optional<std::string> read_file_fully(const std::string& path);

/// Atomically and durably replace `path` with `content`: write a
/// same-directory temp file, fsync it, rename it over `path`, fsync
/// the parent directory. On failure the temp file is removed, `path`
/// is untouched, and `error` (when non-null) receives a message.
bool atomic_write_file(const std::string& path, std::string_view content,
                       std::string* error = nullptr);

/// rename(2) `from` onto `to`, then fsync `to`'s parent directory so
/// the rename itself is durable. The caller is responsible for `from`'s
/// content already being synced (atomic_write_file's staging does
/// this). `error` (when non-null) receives a message on failure.
bool rename_durable(const std::string& from, const std::string& to,
                    std::string* error = nullptr);

/// \name FNV-1a 64 and hex16
/// The program's one hash and its one written form: plan fingerprints,
/// cache keys, cache segment names and integrity trailers are all
/// FNV-1a 64, written as 16 lowercase hex digits. Every value already
/// on disk was made by this code, so it must never change.
///@{

/// FNV-1a 64 of `data`, continuing from `hash` (the offset basis for a
/// fresh hash), so that chained calls hash several fields as one
/// stream. Inline: the result cache keys each cell with seven calls.
inline std::uint64_t fnv1a64(std::string_view data,
                             std::uint64_t hash = 0xCBF29CE484222325ULL) {
  for (const char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

/// `value` as exactly 16 lowercase hex digits, zero-padded.
std::string hex16(std::uint64_t value);

/// The low 4 × `width` bits of `value` as `width` (at most 16)
/// lowercase hex digits, zero-padded, written to `out`: hex16 for
/// fixed-width fields of any width, without allocating.
void write_hex(std::uint64_t value, std::size_t width, char* out);

/// The value of exactly 16 lowercase hex digits; false (and `out`
/// untouched) for any other length or character.
bool parse_hex16(std::string_view text, std::uint64_t& out);

/// parse_hex16 for a field of 1 to 16 digits.
bool parse_hex(std::string_view text, std::uint64_t& out);
///@}

/// \name Integrity trailers
/// A trailered document is `<body>` (newline-terminated) followed by
/// one final line `@railcorr-crc <hex16>`, where the 16 hex digits are
/// fnv1a64 over every body byte (including the body's trailing
/// newline). The trailer detects truncation and bit corruption of the
/// body; its own corruption is equally detected (hash mismatch or
/// malformed hex), and readers then discard the whole artifact.
///@{

/// The trailer line for `body` (no trailing newline).
std::string integrity_trailer_line(std::string_view body);

/// `body` + trailer line + '\n'. A body not ending in '\n' gets one
/// first, so the trailer is always a line of its own.
std::string with_integrity_trailer(std::string_view body);

/// with_integrity_trailer in place: appends to `body` without copying
/// it (given kIntegrityTrailerBytes of spare capacity).
void append_integrity_trailer(std::string& body);

/// Bytes a trailer line adds, its newline included.
inline constexpr std::size_t kIntegrityTrailerBytes = 31;

enum class TrailerStatus {
  /// Trailer present and the body hash matches.
  kVerified,
  /// No trailer line; `body` is the whole document (legacy artifacts
  /// and hand-written test documents stay readable).
  kMissing,
  /// Trailer line present but malformed or hash-mismatched (a final
  /// line holding the trailer tag anywhere counts as one): the
  /// artifact was truncated or corrupted and must be recomputed.
  kCorrupt,
};

struct TrailerCheck {
  TrailerStatus status = TrailerStatus::kMissing;
  /// The document without its trailer line (== the input when the
  /// trailer is missing). Valid only while the checked document lives.
  std::string_view body;
};

/// Classify `document`'s final line and return the trailer-stripped
/// body.
TrailerCheck check_integrity_trailer(std::string_view document);

/// `document` split at its final line without reading the body: the
/// first half of check_integrity_trailer, which calls it. Its one other
/// reader is the orchestrator's read_intact_shard, which asks only
/// whether a trailer line is `present` before parsing the shard (the
/// shard reader verifies the hash itself).
struct TrailerSplit {
  /// False when the final line is no trailer; `body` is then the whole
  /// document.
  bool present = false;
  /// The hash a well-formed trailer line states; std::nullopt when the
  /// line is malformed, so the document can never verify.
  std::optional<std::uint64_t> stated;
  /// As TrailerCheck::body.
  std::string_view body;
};
TrailerSplit split_integrity_trailer(std::string_view document);
///@}

/// Append-only line log with per-line durability: each append is a
/// full write followed by fdatasync, so a crashed writer leaves a
/// prefix of whole lines (the manifest's recovery guarantee).
///
/// Move-only; the destructor closes the fd.
class AppendLog {
 public:
  AppendLog() = default;
  AppendLog(AppendLog&& other) noexcept;
  AppendLog& operator=(AppendLog&& other) noexcept;
  AppendLog(const AppendLog&) = delete;
  AppendLog& operator=(const AppendLog&) = delete;
  ~AppendLog();

  /// Open (creating if needed) `path` for appending. Returns false on
  /// failure; `error` (when non-null) receives a message.
  bool open(const std::string& path, std::string* error = nullptr);

  [[nodiscard]] bool is_open() const { return fd_ >= 0; }

  /// Append `line` + '\n' and fdatasync. Returns false on write or
  /// sync failure (the line may then be partially on disk; readers
  /// must tolerate a torn final line).
  bool append_line(std::string_view line);

  void close();

 private:
  int fd_ = -1;
};

}  // namespace railcorr::util
