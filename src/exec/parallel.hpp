/// \file parallel.hpp
/// \brief Deterministic data-parallel primitives: parallel_for /
///        parallel_map with static chunking over a shared thread pool.
///
/// Determinism contract (relied on by the sweep, Monte-Carlo, and
/// evaluator hot paths, and pinned by tests/exec/determinism_test.cpp):
///
///  * `parallel_for(n, body)` invokes `body(i)` exactly once for every
///    i in [0, n), from the calling thread or a pool worker. Each index
///    must write only to its own output slot; no two indices may touch
///    the same mutable state.
///  * The index range is split into min(n, default_thread_count())
///    contiguous chunks (static chunking). Chunk boundaries depend only
///    on `n` and the resolved thread count, never on timing.
///  * All writes made by `body` happen-before `parallel_for` returns, so
///    the caller can reduce the indexed results in index order. With
///    per-index outputs and an index-ordered reduction, results are
///    bit-identical for any thread count, including 1.
///  * Nested parallel regions execute sequentially inline on every
///    participant of a multi-chunk region: on pool workers (a worker
///    never re-enters the pool) and on the calling thread while it runs
///    chunk 0. This avoids deadlock, keeps the caller's chunk from
///    handing inner work to workers busy with their own chunks, and
///    keeps the same per-index evaluation everywhere. A region that
///    runs as one chunk on the caller does not count as enclosing, so
///    its nested regions still go parallel.
///
/// Thread-count resolution, once per region: the process-wide default
/// set by `set_default_thread_count`; otherwise the `RAILCORR_THREADS`
/// environment variable; otherwise `std::thread::hardware_concurrency()`.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string_view>
#include <type_traits>
#include <vector>

namespace railcorr::exec {

/// The largest thread count read from outside the program (`sweep
/// --threads`, each `orchestrate --threads` entry, RAILCORR_THREADS).
/// The first multi-chunk region starts `default_thread_count() - 1`
/// pool threads, so an unbounded count is an unbounded thread request.
inline constexpr std::size_t kMaxThreadCount = 1024;

/// `text` as a thread count: a whole decimal in [0, kMaxThreadCount],
/// 0 meaning automatic. std::nullopt for anything else, such as a
/// sign, a trailing byte or a value past the ceiling.
[[nodiscard]] std::optional<std::size_t> parse_thread_count(
    std::string_view text);

/// Threads the hardware offers (>= 1; hardware_concurrency() of 0 maps
/// to 1).
///
/// \par Thread safety
/// Safe to call from any thread at any time.
[[nodiscard]] std::size_t hardware_thread_count();

/// The resolved process-wide default thread count (>= 1).
///
/// \par Thread safety
/// Safe to call concurrently with running parallel regions.
[[nodiscard]] std::size_t default_thread_count();

/// Override the process-wide default; `n == 0` restores automatic
/// resolution (RAILCORR_THREADS env var, then hardware concurrency).
///
/// \par Thread safety
/// The store itself is atomic, but changing the default concurrently
/// with an in-flight parallel region leaves that region on whichever
/// count it resolved first — call it between regions (tests and
/// benchmarks do this to pin a count).
void set_default_thread_count(std::size_t n);

/// True while the calling thread is a participant of a multi-chunk
/// parallel region: a pool worker, or the caller running chunk 0. A
/// parallel_for entered here runs sequentially inline; code that picks
/// a cheaper sequential algorithm for that case tests this predicate.
///
/// \par Thread safety
/// Safe to call from any thread at any time (reads thread-local state).
[[nodiscard]] bool in_parallel_region();

/// Invoke `body(i)` for every i in [0, n) under the determinism contract
/// above. Exceptions thrown by `body` are rethrown (first one wins) on
/// the calling thread after every chunk has finished.
///
/// \param n     extent of the index range
/// \param body  invoked once per index, possibly from pool workers
///
/// \par Thread safety and aliasing
/// `body` must be callable concurrently from multiple threads: every
/// index may write only to state owned by that index (one output slot;
/// no shared accumulators, no `std::vector<bool>` bit-packing). `body`
/// may *read* any state that no index writes. The call blocks until
/// all chunks finish; all of `body`'s writes happen-before the return,
/// so the caller needs no further synchronization to reduce results.
/// Reentrancy: calling parallel_for from inside a `body` is allowed
/// and runs the nested region sequentially inline whenever the outer
/// region split into more than one chunk.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

/// Evaluate `f(i)` for every i in [0, n) and return the results indexed
/// by i. The result type must be default-constructible and movable.
///
/// \par Thread safety and aliasing
/// Same requirements as parallel_for; each `f(i)` writes only its own
/// pre-sized slot `out[i]`, which is what makes the result independent
/// of scheduling.
template <typename F>
[[nodiscard]] auto parallel_map(std::size_t n, F&& f)
    -> std::vector<std::invoke_result_t<F&, std::size_t>> {
  using R = std::invoke_result_t<F&, std::size_t>;
  static_assert(std::is_default_constructible_v<R>,
                "parallel_map results are pre-sized; R must be "
                "default-constructible");
  static_assert(!std::is_same_v<R, bool>,
                "std::vector<bool> packs bits, so concurrent per-index "
                "writes would race; return char/int instead");
  std::vector<R> out(n);
  parallel_for(n, [&](std::size_t i) { out[i] = f(i); });
  return out;
}

}  // namespace railcorr::exec
