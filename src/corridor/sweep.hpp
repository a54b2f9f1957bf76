/// \file sweep.hpp
/// \brief Sharded scenario sweeps: a declarative cross-product grid over
///        ScenarioSpec key paths, deterministic shard partitioning, and a
///        merge step that enforces the cross-shard determinism contract.
///
/// A SweepPlan names a base scenario (registry entry), fixed overrides,
/// and one or more axes; the grid is the cross product of the axis
/// values in row-major order (first axis outermost, last axis fastest).
/// Grid cell i is fully determined by the plan — `overrides_at(i)` is a
/// pure function — so any process anywhere can evaluate any subset.
///
/// Sharding is index-interleaved: shard k of N owns the cells with
/// `index % N == k`. Interleaving (rather than contiguous blocks) keeps
/// shard wall-times balanced when cost varies monotonically along an
/// axis.
///
/// The determinism contract across shards: a grid cell's output row is
/// a pure function of (plan, index), so the same cell evaluated by two
/// different processes must be byte-identical. Shard files carry a plan
/// fingerprint and the grid size, and `read_shard` is their one reader.
/// `merge_shards` refuses to combine shards of different plans,
/// requires every cell exactly once (rows for the same cell appearing
/// in several shards must be byte-identical), and reports any
/// violation — the merge tool exits nonzero on them.
///
/// This layer is Scenario-agnostic (overrides are opaque key/value
/// strings); core/sweep_runner.hpp binds it to core::Scenario and the
/// paper evaluator.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/config.hpp"

namespace railcorr::corridor {

/// One swept key path and its grid values (verbatim spec tokens).
struct SweepAxis {
  std::string key;
  std::vector<std::string> values;
};

/// A declarative sweep: base scenario + fixed overrides + axes.
struct SweepPlan {
  /// Scenario registry entry the grid starts from.
  std::string base = "paper";
  /// Overrides applied to every cell, before the axis values.
  std::vector<util::SpecEntry> fixed;
  /// Cross-product axes; row-major, last axis fastest.
  std::vector<SweepAxis> axes;

  /// Parse a plan document:
  ///
  ///     base = paper            # optional, default "paper"
  ///     set isd_search.sample_step_m = 20
  ///     axis radio.lp_eirp_dbm = 37, 40, 43
  ///     axis timetable.trains_per_hour = 8, 16
  ///
  /// Throws util::ConfigError on syntax errors, duplicate axis keys,
  /// empty axis value lists, or a grid of more than 2^64 - 1 cells
  /// (naming the axis that takes it past).
  static SweepPlan from_spec(std::string_view text);

  /// Number of grid cells (product of axis sizes; 1 with no axes).
  [[nodiscard]] std::size_t size() const;

  /// This cell's axis values (one per axis, verbatim plan tokens) under
  /// the row-major decomposition. Requires index < size().
  [[nodiscard]] std::vector<std::string> axis_values_at(
      std::size_t index) const;

  /// Fixed overrides + this cell's axis assignment, in application
  /// order. Requires index < size().
  [[nodiscard]] std::vector<util::SpecEntry> overrides_at(
      std::size_t index) const;

  /// Canonical one-line-per-statement rendering (parse . canonical is
  /// idempotent); the fingerprint hashes this.
  [[nodiscard]] std::string canonical_spec() const;

  /// FNV-1a 64 over canonical_spec(): shards of the same plan agree,
  /// different plans (almost surely) differ.
  [[nodiscard]] std::uint64_t fingerprint() const;
};

/// Which slice of the grid a process evaluates.
struct ShardSpec {
  std::size_t index = 0;
  std::size_t count = 1;

  /// Parse "i/N" (0 <= i < N, N >= 1); throws util::ConfigError.
  static ShardSpec parse(std::string_view text);

  /// Ascending grid indices owned by this shard.
  [[nodiscard]] std::vector<std::size_t> indices(std::size_t grid_size) const;
};

/// \name Shard CSV framing
/// A shard file is:
///   line 1: `# railcorr-sweep-v1 fingerprint=<hex16> grid=<N>`
///   line 2: `index,<axis keys...>,<metric columns...>`
///   rows:   `<index>,<axis values...>,<metrics...>` (ascending index)
/// optionally followed by a util::durable_io integrity trailer line.
///@{

/// The `# railcorr-sweep-v1 ...` line (no trailing newline).
std::string shard_banner(const SweepPlan& plan);

/// The `grid=<N>` token parsed back out of a banner line.
std::optional<std::size_t> banner_grid(std::string_view banner);

/// The CSV header row: index, one column per axis key, then `metrics`.
std::string shard_header(const SweepPlan& plan,
                         const std::vector<std::string>& metric_columns);

/// A shard document's banner, header and indexed rows, as views into
/// the document, which must outlive them.
struct ShardRows {
  std::string_view banner;
  std::string_view header;
  /// (grid index, whole row line) in document order.
  std::vector<std::pair<std::size_t, std::string_view>> rows;
};

/// The one reader of a shard document. A document carrying an
/// integrity trailer is verified first; one without is read as-is (a
/// hand-built shard, a legacy file). Line 1 must be the banner, the
/// next non-empty line is the header, and every further non-empty line
/// is a row whose leading `<index>,` must parse (an index that does not
/// fit is refused instead of wrapping onto another cell). On the first
/// defect returns std::nullopt with `error` naming it: `integrity
/// trailer mismatch (truncated or corrupted)`, a missing banner or
/// header, or `line <n>: expected '<index>,...', got '<line>'`.
/// Whether the banner and rows are the ones a caller wants is the
/// caller's rule.
std::optional<ShardRows> read_shard(std::string_view document,
                                    std::string& error);
///@}

/// Outcome of merging shard files.
struct MergeResult {
  /// True when the merge satisfied the determinism contract.
  bool ok = false;
  /// True when the failure is a *determinism-contract* violation
  /// (byte-differing duplicate rows, or grid cells missing from every
  /// shard). False for malformed documents, mismatched plans, or
  /// out-of-grid rows — input problems, not contract breaches; the CLI
  /// maps the distinction to exit codes 2 vs 1.
  bool contract_violation = false;
  /// Canonical merged document (banner + header + rows by ascending
  /// index); empty when !ok.
  std::string merged;
  /// Human-readable errors (fingerprint mismatch, missing cells,
  /// byte-differing duplicate rows, malformed shards).
  std::vector<std::string> errors;
};

/// Merge shard documents, verifying the cross-shard determinism
/// contract. Overlapping cells are allowed if and only if their rows
/// are byte-identical; the merged output is independent of shard order
/// and of how cells were distributed (a single-shard 0/1 run merges to
/// the same bytes as any sharded run of the same plan).
///
/// Each document goes through read_shard, so one whose integrity
/// trailer does not match fails the merge as an *input* error
/// (`contract_violation` stays false — the file was damaged on disk,
/// determinism is not in question). The merged output never carries a
/// trailer; callers writing it to disk add one.
///
/// `shard_names` (when non-empty; must then match `shard_documents` in
/// size) labels each document in diagnostics — the CLI and the
/// orchestrator pass file paths, so an overlap violation names the
/// offending cell index *and both shard files* that disagreed, and a
/// coverage violation lists every file searched. Without names the
/// labels fall back to "shard <position>".
MergeResult merge_shards(const std::vector<std::string>& shard_documents,
                         const std::vector<std::string>& shard_names = {});

/// merge_shards over shards a caller already read with read_shard (the
/// orchestrator keeps the rows it accepted at publish): the same
/// checks, labels and output, without reading the bytes again.
MergeResult merge_rows(const std::vector<ShardRows>& shards,
                       const std::vector<std::string>& shard_names = {});

}  // namespace railcorr::corridor
