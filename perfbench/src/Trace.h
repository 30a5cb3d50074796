//===- perfbench/src/Trace.h - In-memory spans around layer calls --------===//
//
// The benchmark's own tracing: a span records one call into a library
// layer (name, optional tag, start, end, parent span, and a work count such
// as committed instructions). Spans are kept in memory and written out as
// Chrome trace-event JSON when the run ends. With tracing off a Span costs
// one branch, so end-to-end metrics are measured with the same binary.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

struct SpanRecord {
  std::string Name;
  std::string Tag;
  int64_t Parent = -1; ///< index into the span list, -1 at top level.
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  uint64_t Count = 0; ///< work done inside the span (instructions, events).
  uint64_t ChildNs = 0; ///< time covered by direct children.

  uint64_t durNs() const { return EndNs - StartNs; }
  uint64_t selfNs() const { return durNs() - ChildNs; }
};

/// Process-wide span store (the benchmark is single-threaded).
class Tracer {
public:
  static Tracer &get();

  bool enabled() const { return Enabled; }
  void setEnabled(bool On) { Enabled = On; }

  size_t open(const char *Name, std::string Tag);
  void close(size_t Index, uint64_t Count);

  /// Spans recorded from now on belong to a new window; sums below only
  /// consider spans at or after the window start.
  void markWindow() { WindowStart = Spans.size(); }

  /// Total duration (ms) and total count of spans named \p Name in the
  /// current window, optionally restricted to \p Tag.
  double sumMs(const std::string &Name, const std::string &Tag = "") const;
  uint64_t sumCount(const std::string &Name,
                    const std::string &Tag = "") const;

  /// Self time (span time minus the time its child spans cover) per span
  /// name over all recorded spans, in ms.
  std::map<std::string, double> selfMsByName() const;

  /// Writes every span as Chrome trace-event JSON; false on I/O error.
  bool writeChromeJson(const std::string &Path) const;

private:
  bool Enabled = false;
  std::vector<SpanRecord> Spans;
  std::vector<size_t> Stack;
  size_t WindowStart = 0;
};

/// RAII span. Does nothing when tracing is off.
class Span {
public:
  explicit Span(const char *Name, std::string Tag = "") {
    Tracer &T = Tracer::get();
    if (T.enabled()) {
      Index = T.open(Name, std::move(Tag));
      Active = true;
    }
  }
  ~Span() {
    if (Active)
      Tracer::get().close(Index, Count);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  /// Work attributed to the span, e.g. instructions committed by the call.
  void setCount(uint64_t C) { Count = C; }

private:
  size_t Index = 0;
  uint64_t Count = 0;
  bool Active = false;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
