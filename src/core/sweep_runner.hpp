/// \file sweep_runner.hpp
/// \brief Binds corridor::SweepPlan to core::Scenario: materializes grid
///        cells as scenarios, evaluates a shard as a stage pipeline on
///        the parallel exec engine, and renders byte-deterministic shard
///        documents.
///
/// Each grid cell's row is a pure function of (plan, index): the
/// scenario is rebuilt from the registry base plus the cell's overrides,
/// every metric comes from the deterministic evaluator paths, and all
/// numbers are rendered with util::format_double. Two processes
/// evaluating the same cell therefore emit byte-identical rows — the
/// property corridor::merge_shards verifies.
///
/// A shard computes each distinct stage input once. The radio stage
/// (max-ISD search plus the multi-segment minimum) reads only the
/// `link.*`, `radio.*`, `isd_search.*`, `corridor.*` and
/// `max_repeaters` keys, so cells that agree on those — e.g. a grid
/// that varies traffic over a fixed radio layout — share one run.
/// Because every stage is the same pure function of the same inputs,
/// the memoized rows byte-match the naive per-cell evaluate_sweep_cell.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cache/result_cache.hpp"
#include "core/scenario.hpp"
#include "corridor/sweep.hpp"

namespace railcorr::core {

/// How a shard is evaluated: its column set, and the result store it
/// reads and fills. Nothing here observes the run while it computes:
/// the worker's protocol lines and fault points sit around the call,
/// in `railcorr sweep`.
struct SweepRunOptions {
  /// Also run the Table IV off-grid PV sizing per cell (adds the
  /// sized_pv_wp_total / ladder_exhausted columns; much slower).
  bool include_sizing = false;
  /// Content-addressed result store: cells whose (banner, index,
  /// header, schema) key is already cached skip evaluation and emit the
  /// stored bytes; evaluated cells are inserted, then published by one
  /// flush at the end of the shard (`last_published()` names that
  /// segment). Null or unopened = every cell computes. The
  /// byte-identity contract makes the two paths indistinguishable in
  /// the output.
  cache::ResultCache* cache = nullptr;
};

/// The metric column names, in row order (after index + axis columns).
std::vector<std::string> sweep_metric_columns(const SweepRunOptions& options);

/// The scenario of one grid cell: registry base + cell overrides.
/// Throws util::ConfigError on unknown base or bad overrides.
Scenario scenario_at(const corridor::SweepPlan& plan, std::size_t index);

/// Evaluate one cell into its CSV row (no trailing newline): the naive
/// per-cell reference that run_sweep_shard's rows must byte-match.
std::string evaluate_sweep_cell(const corridor::SweepPlan& plan,
                                std::size_t index,
                                const SweepRunOptions& options = {});

/// Evaluate a whole shard into a shard document (banner + header +
/// ascending-index rows, one per owned cell) through one stage
/// pipeline:
///  1. cache hits keep their stored rows; each missed cell gets its
///     scenario;
///  2. radio stage: missed cells are grouped by their canonical
///     sub-spec of the radio keys, and each distinct input runs once,
///     as the outer parallel loop;
///  3. with include_sizing, the off-grid simulations of all missed
///     cells run as one solar::size_jobs batch (each distinct weather
///     tuple synthesized once for the shard);
///  4. per-cell stage: energy, duty, LP sleep power and row render, in
///     parallel over cells, each into its own slot;
///  5. emission on the calling thread in index order: cache inserts,
///     document rows and counters, then the cache's one flush.
/// The rows byte-match evaluate_sweep_cell's at any thread count.
std::string run_sweep_shard(const corridor::SweepPlan& plan,
                            corridor::ShardSpec shard,
                            const SweepRunOptions& options = {});

}  // namespace railcorr::core
