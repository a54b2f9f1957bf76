/// \file trace.hpp
/// \brief Low-overhead span/instant recorder serializing to Chrome
///        trace-event JSON (loadable in Perfetto / chrome://tracing).
///
/// Design constraints, in order:
///
///  1. **Inert when disabled.** The recorder is off by default; the only
///     cost a disabled program pays is one relaxed atomic load per
///     ObsSpan / instant call site (gated by `bench_obs` against a
///     recorded floor). Tracing never touches result bytes: spans wrap
///     work that has already produced its output, and the recorder
///     writes only to its own ring buffers and its own files.
///  2. **Lock-free hot path.** Each thread records into its own
///     fixed-capacity ring buffer (registered once per enable-epoch
///     under a mutex, then written without synchronization). A full
///     ring wraps and drops the *oldest* events; the drop count is
///     reported so a truncated trace is never mistaken for a complete
///     one. Snapshots/serialization are well-defined once writers have
///     quiesced (worker exit, orchestrator shutdown) — the normal case
///     for a post-run trace dump.
///  3. **Testable time.** The monotonic clock is injectable
///     (`set_clock`) and the realtime anchor (`epochUsec`, used to
///     align traces from different processes/hosts into one timeline)
///     is settable, so serialization is golden-pinnable.
///
/// The serialized document is a deliberately *strict* line-oriented
/// subset of the Chrome trace-event format: a one-line header, one
/// event object per line, a closing line. `parse_trace` accepts exactly
/// that grammar (plus an optional durable_io integrity trailer, which
/// worker-side `.trace` files carry), which keeps the `railcorr trace
/// merge|stats` verbs fuzzable and a torn trace detectable. Perfetto
/// reads it because it is also plain valid JSON.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace railcorr::obs {

/// One recorded event. Name/category/argument-name are `const char*`
/// because the hot path must not allocate: call sites pass string
/// literals (which also keeps the span taxonomy a closed, documented
/// set — see docs/ARCHITECTURE.md).
struct TraceEvent {
  const char* name = "";
  const char* cat = "";
  /// 'X' = complete span (ts + dur), 'i' = instant.
  char phase = 'X';
  std::uint64_t ts_usec = 0;
  std::uint64_t dur_usec = 0;
  /// Small dense id in thread-registration order (1-based; 0 is
  /// reserved for metadata rows in merged documents).
  std::uint32_t tid = 0;
  /// Optional single numeric argument (nullptr = none).
  const char* arg_name = nullptr;
  std::uint64_t arg = 0;
};

/// Process-wide recorder with per-thread ring buffers.
class TraceRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 14;

  static TraceRecorder& instance();

  /// Start recording. Captures the monotonic base and the realtime
  /// epoch (unless a test pinned them), and invalidates any buffers
  /// from a previous enable-epoch.
  void enable(std::size_t ring_capacity = kDefaultCapacity);
  void disable();
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Test hooks: replace the monotonic clock (must return microseconds
  /// on the trace timeline) and pin the realtime anchor written into
  /// the serialized document. Call after enable().
  void set_clock(std::function<std::uint64_t()> mono_usec);
  void set_epoch_usec(std::uint64_t epoch_usec);

  /// Microseconds on the trace timeline (0 when a real clock is in use
  /// and the recorder has never been enabled).
  [[nodiscard]] std::uint64_t now_usec() const;
  [[nodiscard]] std::uint64_t epoch_usec() const { return epoch_usec_; }

  /// Record a complete span that started at `start_usec` (recorder
  /// timeline) and ends now. No-op when disabled.
  void complete(const char* name, const char* cat, std::uint64_t start_usec,
                const char* arg_name = nullptr, std::uint64_t arg = 0);
  /// Record a caller-timed complete span (both endpoints supplied).
  void complete_at(const char* name, const char* cat, std::uint64_t ts_usec,
                   std::uint64_t dur_usec, const char* arg_name = nullptr,
                   std::uint64_t arg = 0);
  /// Record an instant event. No-op when disabled.
  void instant(const char* name, const char* cat,
               const char* arg_name = nullptr, std::uint64_t arg = 0);

  /// All recorded events, grouped by thread in registration order,
  /// oldest first within each thread (wrapped rings yield their newest
  /// `capacity` events). Writers must have quiesced.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;
  /// Events lost to ring wrap-around across all threads.
  [[nodiscard]] std::size_t dropped() const;

  /// The strict line-oriented Chrome trace-event document (no
  /// integrity trailer; callers writing worker `.trace` files append
  /// one via util::with_integrity_trailer).
  [[nodiscard]] std::string serialize() const;

  /// Drop every recorded event and thread registration (buffers from
  /// before the reset are invalidated); keeps the enabled flag, clock,
  /// and epoch.
  void reset();

 private:
  struct ThreadBuffer {
    /// Reserved to `capacity` at registration and filled in order, so
    /// only the pages events reach are touched; once full it wraps.
    std::vector<TraceEvent> ring;
    std::size_t capacity = 0;
    /// Total events ever written; ring holds the newest
    /// min(total, capacity) of them.
    std::atomic<std::uint64_t> total{0};
    std::uint32_t tid = 0;

    /// Write `ev` into the ring (owner thread only).
    void record(const TraceEvent& ev);
  };

  TraceRecorder() = default;
  ThreadBuffer* buffer_for_this_thread();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> generation_{0};
  std::size_t capacity_ = kDefaultCapacity;
  std::function<std::uint64_t()> clock_;
  std::uint64_t mono_base_usec_ = 0;
  std::uint64_t epoch_usec_ = 0;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII span: records a complete ('X') event covering its lifetime.
/// Construction on a disabled recorder costs one relaxed load.
class ObsSpan {
 public:
  ObsSpan(const char* name, const char* cat,
          const char* arg_name = nullptr, std::uint64_t arg = 0)
      : name_(name), cat_(cat), arg_name_(arg_name), arg_(arg) {
    auto& rec = TraceRecorder::instance();
    if (rec.enabled()) {
      active_ = true;
      start_ = rec.now_usec();
    }
  }
  ~ObsSpan() {
    if (active_) {
      TraceRecorder::instance().complete(name_, cat_, start_, arg_name_,
                                         arg_);
    }
  }
  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;

 private:
  const char* name_;
  const char* cat_;
  const char* arg_name_;
  std::uint64_t arg_;
  std::uint64_t start_ = 0;
  bool active_ = false;
};

// ---------------------------------------------------------------------------
// Parsing and merging (the `trace merge|stats` verbs and the
// orchestrator's fleet-timeline assembly).

/// One event re-read from a serialized document. Args may be numeric
/// (our span/instant arguments) or a string (the `process_name`
/// metadata rows a merged document carries).
struct ParsedTraceEvent {
  std::string name;
  std::string cat;
  char phase = 'X';
  std::uint64_t ts_usec = 0;
  std::uint64_t dur_usec = 0;
  std::uint64_t pid = 0;
  std::uint64_t tid = 0;
  bool has_arg = false;
  std::string arg_name;
  bool arg_is_string = false;
  std::uint64_t arg_u64 = 0;
  std::string arg_str;
};

struct ParsedTrace {
  bool ok = false;
  std::string error;  ///< Parse failure reason when !ok.
  std::uint64_t epoch_usec = 0;
  std::vector<ParsedTraceEvent> events;
};

/// Strict parser for the exact document shape `serialize()` (and
/// `merge_traces`) emits. A durable_io integrity trailer, when present,
/// is verified and stripped (a *corrupt* trailer fails the parse; a
/// missing one is tolerated so plain merged documents re-parse).
[[nodiscard]] ParsedTrace parse_trace(std::string_view document);

/// The spans of one name in a trace: how many, their summed duration,
/// and their summed self time.
struct SpanTotal {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_usec = 0;
  /// Durations less the time each span's direct children cover.
  std::uint64_t self_usec = 0;
};

/// Per-name rollup of the complete ('X') spans of `trace`, largest
/// total first (ties by name). Nested spans each count in full in
/// `total_usec`, so totals of a span and of the spans inside it
/// overlap; `self_usec` does not. A span's direct children are the
/// spans on its lane (pid, tid) that it is the innermost span to
/// contain; a span and a child with equal bounds are told apart by
/// record order, since a span is recorded when it closes.
[[nodiscard]] std::vector<SpanTotal> span_totals(const ParsedTrace& trace);

/// One input to a merge: a parsed trace plus the lane label shown in
/// the viewer (Perfetto renders it as the process name).
struct TraceInput {
  std::string label;
  ParsedTrace trace;
};

/// Merge parsed traces into one fleet document: input i becomes pid
/// i+1 (with a `process_name` metadata row carrying `label`), and each
/// input's timestamps are shifted by its epoch offset from the
/// earliest input so all lanes share one timeline. Cross-host clock
/// skew is accepted as-is (see docs/ARCHITECTURE.md).
[[nodiscard]] std::string merge_traces(const std::vector<TraceInput>& inputs);

}  // namespace railcorr::obs
