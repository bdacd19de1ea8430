#include "perfbench/src/trace.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {
namespace {

// The innermost open Span of this thread (parent of the next one opened).
thread_local int64_t current_span = 0;

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "null";  // JSON has no nan/inf
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.3f", value);
  return buffer;
}

void AppendArgs(std::string& out, const TraceEvent& event) {
  out += std::string(",\"args\":{\"") +
         (event.async ? "request_id" : "span_id") +
         "\":" + std::to_string(event.id) +
         ",\"parent\":" + std::to_string(event.parent);
  for (const auto& [key, value] : event.args) {
    out += ",\"" + JsonEscape(key) + "\":" + FormatNumber(value);
  }
  out += '}';
}

void AppendHead(std::string& out, const TraceEvent& event, char phase,
                double ts) {
  out += "{\"name\":\"" + JsonEscape(event.name) + "\",\"cat\":\"" +
         JsonEscape(event.category) + "\",\"ph\":\"";
  out += phase;
  out += "\",\"ts\":" + FormatNumber(ts) +
         ",\"pid\":1,\"tid\":" + std::to_string(event.thread);
}

}  // namespace

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

int64_t Tracer::ThreadLane() {
  static std::atomic<int64_t> next_lane{1};
  thread_local int64_t lane = next_lane.fetch_add(1);
  return lane;
}

int64_t Tracer::NextId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::RecordAsync(const std::string& name, int64_t request_id,
                         int64_t parent, double start_us, double end_us) {
  if (!enabled_) return;
  TraceEvent event;
  event.name = name;
  event.category = "request";
  event.start_us = start_us;
  event.end_us = end_us;
  event.id = request_id;
  event.parent = parent;
  event.thread = ThreadLane();
  event.async = true;
  Record(std::move(event));
}

void Tracer::Record(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(event));
}

int64_t Tracer::num_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(events_.size());
}

std::string Tracer::ToChromeJson(
    const std::vector<std::pair<std::string, std::string>>& metadata) const {
  std::vector<TraceEvent> events;
  {
    std::lock_guard<std::mutex> lock(mu_);
    events = events_;
  }
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  auto separate = [&] {
    if (!first) out += ",\n";
    first = false;
  };
  for (const TraceEvent& event : events) {
    if (event.async) {
      // Async begin/end pair: overlapping requests get their own tracks.
      separate();
      AppendHead(out, event, 'b', event.start_us);
      out += ",\"id\":" + std::to_string(event.id);
      AppendArgs(out, event);
      out += '}';
      separate();
      AppendHead(out, event, 'e', event.end_us);
      out += ",\"id\":" + std::to_string(event.id) + "}";
      continue;
    }
    separate();
    AppendHead(out, event, 'X', event.start_us);
    out += ",\"dur\":" + FormatNumber(event.end_us - event.start_us);
    AppendArgs(out, event);
    out += '}';
  }
  out += "],\n\"displayTimeUnit\":\"ms\",\"otherData\":{";
  for (size_t i = 0; i < metadata.size(); ++i) {
    if (i > 0) out += ',';
    out += "\"" + JsonEscape(metadata[i].first) + "\":\"" +
           JsonEscape(metadata[i].second) + "\"";
  }
  out += "}}\n";
  return out;
}

bool Tracer::WriteChromeJson(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& metadata) const {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return false;
  file << ToChromeJson(metadata);
  file.close();
  return static_cast<bool>(file);
}

Span::Span(Tracer& tracer, std::string name, std::string category)
    : tracer_(tracer), active_(tracer.enabled()) {
  if (!active_) return;
  event_.name = std::move(name);
  event_.category = std::move(category);
  event_.id = tracer_.NextId();
  event_.parent = current_span;
  event_.thread = Tracer::ThreadLane();
  current_span = event_.id;
  event_.start_us = tracer_.NowUs();
}

Span::~Span() {
  if (!active_) return;
  event_.end_us = tracer_.NowUs();
  current_span = event_.parent;
  tracer_.Record(std::move(event_));
}

void Span::Arg(const std::string& key, double value) {
  if (active_) event_.args.emplace_back(key, value);
}

}  // namespace perfbench
