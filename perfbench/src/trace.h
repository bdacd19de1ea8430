/**
 * @file
 * In-memory spans written out as Chrome trace-event JSON (opens in Perfetto
 * and chrome://tracing). The benchmark records a span around every call it
 * times; each span keeps its name, start, end and the span that enclosed it
 * on the same thread. A serving request is one async span from Submit to
 * resolution, keyed by its request id.
 *
 * A disabled tracer records nothing: untraced runs pay one branch per span.
 */
#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/stats.h"

namespace perfbench {

/** One recorded span. */
struct TraceEvent {
  std::string name;
  std::string category;
  double start_us = 0;  // since the tracer's origin
  double end_us = 0;
  int64_t id = 0;        // span id (request id for async spans)
  int64_t parent = 0;    // enclosing span id, 0 at the top level
  int64_t thread = 0;    // small per-thread lane number
  bool async = false;    // a request span, emitted as a b/e pair
  std::vector<std::pair<std::string, double>> args;
};

class Tracer {
 public:
  explicit Tracer(bool enabled = false) : enabled_(enabled) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /** Microseconds since the tracer was created. */
  double NowUs() const { return ToUs(Clock::now()); }
  double ToUs(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  /** A fresh span id (ids start at 1; 0 means "no parent"). */
  int64_t NextId();

  /** Records an async (cross-thread) span with explicit times. */
  void RecordAsync(const std::string& name, int64_t request_id,
                   int64_t parent, double start_us, double end_us);

  void Record(TraceEvent event);

  int64_t num_events() const;

  /** The whole trace as one Chrome trace-event JSON document; `metadata`
   *  lands in its otherData object. */
  std::string ToChromeJson(
      const std::vector<std::pair<std::string, std::string>>& metadata) const;

  /** Writes ToChromeJson to `path`; false when the file cannot be written. */
  bool WriteChromeJson(
      const std::string& path,
      const std::vector<std::pair<std::string, std::string>>& metadata) const;

  /** Small stable lane number of the calling thread. */
  static int64_t ThreadLane();

 private:
  bool enabled_;
  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;  // guards next_id_ and events_
  int64_t next_id_ = 1;
  std::vector<TraceEvent> events_;
};

/**
 * RAII span on the calling thread: opened on construction, recorded on
 * destruction, nested under the innermost open span of the same thread.
 */
class Span {
 public:
  Span(Tracer& tracer, std::string name, std::string category = "bench");
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /** Attaches a numeric argument (a count or a breakdown) to the span. */
  void Arg(const std::string& key, double value);
  /** This span's id; 0 when the tracer is disabled. */
  int64_t id() const { return event_.id; }

 private:
  Tracer& tracer_;
  bool active_;
  TraceEvent event_;
};

/** Escapes `text` as the body of a JSON string literal. */
std::string JsonEscape(const std::string& text);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
