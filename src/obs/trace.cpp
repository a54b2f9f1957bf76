#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <sstream>

#include "obs/json_cursor.hpp"
#include "util/durable_io.hpp"

namespace railcorr::obs {
namespace {

std::uint64_t steady_usec() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t realtime_usec() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// Minimal JSON string escaping. Names and categories are string
/// literals, but merge labels come from filenames and hostnames, so
/// quote/backslash must round-trip; control characters are replaced
/// (they cannot appear in any label we construct).
void append_escaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back('?');
    } else {
      out.push_back(c);
    }
  }
}

void append_event_json(std::string& out, const ParsedTraceEvent& ev,
                       std::uint64_t pid, std::uint64_t ts_shift) {
  out += "{\"name\":\"";
  append_escaped(out, ev.name);
  out += "\",\"cat\":\"";
  append_escaped(out, ev.cat);
  out += "\",\"ph\":\"";
  out.push_back(ev.phase);
  out += "\"";
  if (ev.phase == 'i') out += ",\"s\":\"t\"";
  if (ev.phase != 'M') {
    out += ",\"ts\":" + std::to_string(ev.ts_usec + ts_shift);
  }
  if (ev.phase == 'X') out += ",\"dur\":" + std::to_string(ev.dur_usec);
  out += ",\"pid\":" + std::to_string(pid);
  out += ",\"tid\":" + std::to_string(ev.tid);
  if (ev.has_arg) {
    out += ",\"args\":{\"";
    append_escaped(out, ev.arg_name);
    out += "\":";
    if (ev.arg_is_string) {
      out += "\"";
      append_escaped(out, ev.arg_str);
      out += "\"";
    } else {
      out += std::to_string(ev.arg_u64);
    }
    out += "}";
  }
  out += "}";
}

ParsedTraceEvent to_parsed(const TraceEvent& ev) {
  ParsedTraceEvent out;
  out.name = ev.name;
  out.cat = ev.cat;
  out.phase = ev.phase;
  out.ts_usec = ev.ts_usec;
  out.dur_usec = ev.dur_usec;
  out.pid = 1;
  out.tid = ev.tid;
  if (ev.arg_name != nullptr) {
    out.has_arg = true;
    out.arg_name = ev.arg_name;
    out.arg_u64 = ev.arg;
  }
  return out;
}

constexpr std::string_view kHeaderPrefix = "{\"railcorrTrace\":1,\"epochUsec\":";
constexpr std::string_view kHeaderSuffix =
    ",\"displayTimeUnit\":\"ms\",\"traceEvents\":[";

std::string document_header(std::uint64_t epoch_usec) {
  std::string out(kHeaderPrefix);
  out += std::to_string(epoch_usec);
  out += kHeaderSuffix;
  return out;
}

// ---------------------------------------------------------------- parser --

bool parse_event_object(std::string_view line, ParsedTraceEvent& ev,
                        std::string& error) {
  // An event line holds no whitespace between tokens.
  JsonCursor sc(line, /*skip_space=*/false);
  if (!sc.eat('{')) {
    error = "event does not start with '{'";
    return false;
  }
  bool seen_name = false, seen_cat = false, seen_ph = false, seen_s = false,
       seen_ts = false, seen_dur = false, seen_pid = false, seen_tid = false,
       seen_args = false;
  std::string scope;
  for (;;) {
    std::string key;
    if (!sc.parse_string(key) || !sc.eat(':')) {
      error = "malformed key";
      return false;
    }
    auto once = [&error, &key](bool& seen) {
      if (seen) {
        error = "duplicate key \"" + key + "\"";
        return false;
      }
      seen = true;
      return true;
    };
    if (key == "name") {
      if (!once(seen_name) || !sc.parse_string(ev.name)) {
        if (error.empty()) error = "malformed \"name\" value";
        return false;
      }
    } else if (key == "cat") {
      if (!once(seen_cat) || !sc.parse_string(ev.cat)) {
        if (error.empty()) error = "malformed \"cat\" value";
        return false;
      }
    } else if (key == "ph") {
      std::string ph;
      if (!once(seen_ph) || !sc.parse_string(ph)) {
        if (error.empty()) error = "malformed \"ph\" value";
        return false;
      }
      if (ph.size() != 1 ||
          (ph[0] != 'X' && ph[0] != 'i' && ph[0] != 'M')) {
        error = "unsupported phase \"" + ph + "\"";
        return false;
      }
      ev.phase = ph[0];
    } else if (key == "s") {
      if (!once(seen_s) || !sc.parse_string(scope)) {
        if (error.empty()) error = "malformed \"s\" value";
        return false;
      }
      if (scope != "t") {
        error = "unsupported instant scope \"" + scope + "\"";
        return false;
      }
    } else if (key == "ts") {
      if (!once(seen_ts) || !sc.parse_int(ev.ts_usec)) {
        if (error.empty()) error = "malformed \"ts\" value";
        return false;
      }
    } else if (key == "dur") {
      if (!once(seen_dur) || !sc.parse_int(ev.dur_usec)) {
        if (error.empty()) error = "malformed \"dur\" value";
        return false;
      }
    } else if (key == "pid") {
      if (!once(seen_pid) || !sc.parse_int(ev.pid)) {
        if (error.empty()) error = "malformed \"pid\" value";
        return false;
      }
    } else if (key == "tid") {
      if (!once(seen_tid) || !sc.parse_int(ev.tid)) {
        if (error.empty()) error = "malformed \"tid\" value";
        return false;
      }
    } else if (key == "args") {
      if (!once(seen_args)) return false;
      if (!sc.eat('{') || !sc.parse_string(ev.arg_name) || !sc.eat(':')) {
        error = "malformed \"args\" object";
        return false;
      }
      if (sc.parse_int(ev.arg_u64)) {
        ev.arg_is_string = false;
      } else if (sc.parse_string(ev.arg_str)) {
        ev.arg_is_string = true;
      } else {
        error = "malformed \"args\" value";
        return false;
      }
      if (!sc.eat('}')) {
        error = "args object must hold exactly one entry";
        return false;
      }
      ev.has_arg = true;
    } else {
      error = "unknown key \"" + key + "\"";
      return false;
    }
    if (sc.eat(',')) continue;
    break;
  }
  if (!sc.eat('}') || !sc.done()) {
    error = "trailing bytes after event object";
    return false;
  }
  if (!seen_name || !seen_cat || !seen_ph || !seen_pid || !seen_tid) {
    error = "event missing a required key (name/cat/ph/pid/tid)";
    return false;
  }
  switch (ev.phase) {
    case 'X':
      if (!seen_ts || !seen_dur || seen_s) {
        error = "complete event requires ts+dur and no scope";
        return false;
      }
      break;
    case 'i':
      if (!seen_ts || !seen_s || seen_dur) {
        error = "instant event requires ts and s=\"t\"";
        return false;
      }
      break;
    case 'M':
      if (!seen_args || ev.arg_is_string == false) {
        error = "metadata event requires a string args entry";
        return false;
      }
      break;
    default:
      error = "event is missing \"ph\"";
      return false;
  }
  return true;
}

}  // namespace

// ------------------------------------------------------------- recorder --

TraceRecorder& TraceRecorder::instance() {
  static TraceRecorder recorder;
  return recorder;
}

void TraceRecorder::enable(std::size_t ring_capacity) {
  std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = std::max<std::size_t>(ring_capacity, 1);
  buffers_.clear();
  mono_base_usec_ = clock_ ? 0 : steady_usec();
  epoch_usec_ = realtime_usec();
  generation_.fetch_add(1, std::memory_order_release);
  enabled_.store(true, std::memory_order_relaxed);
}

void TraceRecorder::disable() {
  enabled_.store(false, std::memory_order_relaxed);
}

void TraceRecorder::set_clock(std::function<std::uint64_t()> mono_usec) {
  std::lock_guard<std::mutex> lock(mutex_);
  clock_ = std::move(mono_usec);
  mono_base_usec_ = 0;
}

void TraceRecorder::set_epoch_usec(std::uint64_t epoch_usec) {
  std::lock_guard<std::mutex> lock(mutex_);
  epoch_usec_ = epoch_usec;
}

std::uint64_t TraceRecorder::now_usec() const {
  if (clock_) return clock_();
  const std::uint64_t now = steady_usec();
  return now >= mono_base_usec_ ? now - mono_base_usec_ : 0;
}

TraceRecorder::ThreadBuffer* TraceRecorder::buffer_for_this_thread() {
  struct Tls {
    ThreadBuffer* buffer = nullptr;
    std::uint64_t generation = 0;
  };
  thread_local Tls tls;
  const std::uint64_t generation =
      generation_.load(std::memory_order_acquire);
  if (tls.buffer != nullptr && tls.generation == generation) {
    return tls.buffer;
  }
  // The ring (1 MB of address space at the default capacity) is
  // reserved outside the lock, so threads registering together do not
  // wait on each other's allocation. An enable or reset in between
  // starts over.
  while (true) {
    std::size_t capacity;
    std::uint64_t epoch;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      capacity = capacity_;
      epoch = generation_.load(std::memory_order_relaxed);
    }
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->ring.reserve(capacity);
    buffer->capacity = capacity;
    std::lock_guard<std::mutex> lock(mutex_);
    if (generation_.load(std::memory_order_relaxed) != epoch) continue;
    buffer->tid = static_cast<std::uint32_t>(buffers_.size() + 1);
    tls.buffer = buffer.get();
    tls.generation = epoch;
    buffers_.push_back(std::move(buffer));
    return tls.buffer;
  }
}

void TraceRecorder::ThreadBuffer::record(const TraceEvent& ev) {
  const std::uint64_t n = total.load(std::memory_order_relaxed);
  if (n < capacity) {
    ring.push_back(ev);
  } else {
    ring[n % capacity] = ev;
  }
  total.store(n + 1, std::memory_order_release);
}

void TraceRecorder::complete(const char* name, const char* cat,
                             std::uint64_t start_usec, const char* arg_name,
                             std::uint64_t arg) {
  if (!enabled()) return;
  const std::uint64_t now = now_usec();
  complete_at(name, cat, start_usec,
              now >= start_usec ? now - start_usec : 0, arg_name, arg);
}

void TraceRecorder::complete_at(const char* name, const char* cat,
                                std::uint64_t ts_usec, std::uint64_t dur_usec,
                                const char* arg_name, std::uint64_t arg) {
  if (!enabled()) return;
  ThreadBuffer* buffer = buffer_for_this_thread();
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.phase = 'X';
  ev.ts_usec = ts_usec;
  ev.dur_usec = dur_usec;
  ev.tid = buffer->tid;
  ev.arg_name = arg_name;
  ev.arg = arg;
  buffer->record(ev);
}

void TraceRecorder::instant(const char* name, const char* cat,
                            const char* arg_name, std::uint64_t arg) {
  if (!enabled()) return;
  ThreadBuffer* buffer = buffer_for_this_thread();
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.phase = 'i';
  ev.ts_usec = now_usec();
  ev.tid = buffer->tid;
  ev.arg_name = arg_name;
  ev.arg = arg;
  buffer->record(ev);
}

std::vector<TraceEvent> TraceRecorder::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TraceEvent> out;
  for (const auto& buffer : buffers_) {
    const std::uint64_t total = buffer->total.load(std::memory_order_acquire);
    const std::uint64_t cap = buffer->capacity;
    const std::uint64_t count = std::min<std::uint64_t>(total, cap);
    for (std::uint64_t k = total - count; k < total; ++k) {
      out.push_back(buffer->ring[k % cap]);
    }
  }
  return out;
}

std::size_t TraceRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t dropped = 0;
  for (const auto& buffer : buffers_) {
    const std::uint64_t total = buffer->total.load(std::memory_order_acquire);
    const std::uint64_t cap = buffer->capacity;
    if (total > cap) dropped += static_cast<std::size_t>(total - cap);
  }
  return dropped;
}

std::string TraceRecorder::serialize() const {
  const std::vector<TraceEvent> events = snapshot();
  std::string out = document_header(epoch_usec_);
  out += "\n";
  for (std::size_t i = 0; i < events.size(); ++i) {
    append_event_json(out, to_parsed(events[i]), /*pid=*/1, /*ts_shift=*/0);
    out += (i + 1 < events.size()) ? ",\n" : "\n";
  }
  out += "]}\n";
  return out;
}

void TraceRecorder::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  buffers_.clear();
  generation_.fetch_add(1, std::memory_order_release);
}

// ------------------------------------------------------ parse and merge --

ParsedTrace parse_trace(std::string_view document) {
  ParsedTrace out;
  const auto check = util::check_integrity_trailer(document);
  if (check.status == util::TrailerStatus::kCorrupt) {
    out.error = "corrupt integrity trailer (truncated or bit-flipped trace)";
    return out;
  }
  const std::string_view body = check.body;

  // Split into lines; the final line may lack its newline only if the
  // document was written without one (serialize always terminates).
  std::vector<std::string_view> lines;
  std::size_t pos = 0;
  while (pos < body.size()) {
    const std::size_t nl = body.find('\n', pos);
    if (nl == std::string_view::npos) {
      lines.push_back(body.substr(pos));
      break;
    }
    lines.push_back(body.substr(pos, nl - pos));
    pos = nl + 1;
  }
  if (lines.size() < 2) {
    out.error = "truncated document (header or closing line missing)";
    return out;
  }

  {
    JsonCursor header(lines[0], /*skip_space=*/false);
    if (!header.eat_lit(kHeaderPrefix) || !header.parse_int(out.epoch_usec) ||
        !header.eat_lit(kHeaderSuffix) || !header.done()) {
      out.error = "line 1: malformed trace header";
      return out;
    }
  }
  if (lines.back() != "]}") {
    out.error = "document does not end with \"]}\"";
    return out;
  }

  const std::size_t last_event = lines.size() - 2;
  for (std::size_t i = 1; i <= last_event; ++i) {
    std::string_view line = lines[i];
    const bool wants_comma = i < last_event;
    if (wants_comma) {
      if (line.empty() || line.back() != ',') {
        out.error = "line " + std::to_string(i + 1) +
                    ": missing ',' between events";
        return out;
      }
      line.remove_suffix(1);
    } else if (!line.empty() && line.back() == ',') {
      out.error = "line " + std::to_string(i + 1) +
                  ": trailing ',' before \"]}\"";
      return out;
    }
    ParsedTraceEvent ev;
    std::string error;
    if (!parse_event_object(line, ev, error)) {
      out.error = "line " + std::to_string(i + 1) + ": " + error;
      return out;
    }
    out.events.push_back(std::move(ev));
  }
  out.ok = true;
  return out;
}

std::vector<SpanTotal> span_totals(const ParsedTrace& trace) {
  const auto& events = trace.events;
  // Spans in lane order, then by start, outer before inner: longer
  // first, and of equal spans the later-recorded (the one that closed
  // last) first.
  std::vector<std::size_t> spans;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].phase == 'X') spans.push_back(i);
  }
  std::sort(spans.begin(), spans.end(), [&](std::size_t a, std::size_t b) {
    const auto& x = events[a];
    const auto& y = events[b];
    if (x.pid != y.pid) return x.pid < y.pid;
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.ts_usec != y.ts_usec) return x.ts_usec < y.ts_usec;
    if (x.dur_usec != y.dur_usec) return x.dur_usec > y.dur_usec;
    return a > b;
  });
  // One walk per lane with the stack of open ancestors: a span's parent
  // is the innermost open span containing it, and each parent tracks
  // how far its children already cover it.
  struct Open {
    std::size_t event;
    std::uint64_t end;
    std::uint64_t covered_until;
  };
  std::vector<std::uint64_t> covered(events.size(), 0);
  std::vector<Open> open;
  for (std::size_t k = 0; k < spans.size(); ++k) {
    const auto& ev = events[spans[k]];
    if (k > 0 && (events[spans[k - 1]].pid != ev.pid ||
                  events[spans[k - 1]].tid != ev.tid)) {
      open.clear();
    }
    // Saturating, so a parsed document's huge values cannot wrap; a
    // child then never covers more than its parent's duration.
    const std::uint64_t end = ev.dur_usec > UINT64_MAX - ev.ts_usec
                                  ? UINT64_MAX
                                  : ev.ts_usec + ev.dur_usec;
    while (!open.empty() && open.back().end < end) open.pop_back();
    if (!open.empty()) {
      Open& parent = open.back();
      const std::uint64_t from = std::max(ev.ts_usec, parent.covered_until);
      if (end > from) {
        covered[parent.event] += end - from;
        parent.covered_until = end;
      }
    }
    open.push_back(Open{spans[k], end, ev.ts_usec});
  }

  std::map<std::string, SpanTotal> by_name;
  for (const std::size_t i : spans) {
    const auto& ev = events[i];
    SpanTotal& total = by_name[ev.name];
    total.name = ev.name;
    ++total.count;
    total.total_usec += ev.dur_usec;
    total.self_usec += ev.dur_usec - covered[i];
  }
  std::vector<SpanTotal> totals;
  totals.reserve(by_name.size());
  for (auto& [name, total] : by_name) totals.push_back(std::move(total));
  // by_name iterates in name order, so a stable sort breaks ties by name.
  std::stable_sort(totals.begin(), totals.end(),
                   [](const SpanTotal& a, const SpanTotal& b) {
                     return a.total_usec > b.total_usec;
                   });
  return totals;
}

std::string merge_traces(const std::vector<TraceInput>& inputs) {
  std::uint64_t min_epoch = UINT64_MAX;
  for (const auto& input : inputs) {
    min_epoch = std::min(min_epoch, input.trace.epoch_usec);
  }
  if (inputs.empty()) min_epoch = 0;

  std::string out = document_header(min_epoch);
  out += "\n";
  std::vector<std::string> event_lines;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const std::uint64_t pid = i + 1;
    const std::uint64_t shift = inputs[i].trace.epoch_usec - min_epoch;
    ParsedTraceEvent meta;
    meta.name = "process_name";
    meta.cat = "__metadata";
    meta.phase = 'M';
    meta.tid = 0;
    meta.has_arg = true;
    meta.arg_name = "name";
    meta.arg_is_string = true;
    meta.arg_str = inputs[i].label;
    std::string line;
    append_event_json(line, meta, pid, 0);
    event_lines.push_back(std::move(line));
    for (const auto& ev : inputs[i].trace.events) {
      // A re-merged document's own metadata rows are superseded by the
      // new per-input label; its lanes flatten into one pid.
      if (ev.phase == 'M') continue;
      line.clear();
      append_event_json(line, ev, pid, shift);
      event_lines.push_back(std::move(line));
    }
  }
  for (std::size_t i = 0; i < event_lines.size(); ++i) {
    out += event_lines[i];
    out += (i + 1 < event_lines.size()) ? ",\n" : "\n";
  }
  out += "]}\n";
  return out;
}

}  // namespace railcorr::obs
