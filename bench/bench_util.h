/**
 * @file
 * Shared helpers for the experiment-reproduction binaries: table printing
 * and facade-based schedule execution. Each bench binary regenerates one
 * table or figure of the paper, named in its file comment. Absolute
 * numbers come from the analytical simulator (src/sim/), which stands in
 * for the paper's TPU pods; the *shape* (who wins, by what factor) is the
 * reproduction target.
 *
 * Model steps are traced once into a partir::Program and partitioned (any
 * number of times) through Program::Partition — the same facade user code
 * goes through, so the benches also exercise its overheads.
 */
#ifndef PARTIR_BENCH_BENCH_UTIL_H_
#define PARTIR_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <vector>

#include "src/api/partir.h"
#include "src/models/gns.h"
#include "src/models/schedules.h"
#include "src/models/transformer.h"
#include "src/models/unet.h"

namespace partir {
namespace bench {

inline void PrintHeader(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

inline void PrintRow(const std::vector<std::string>& cells, int width = 16) {
  for (const std::string& cell : cells) {
    std::printf("%-*s", width, cell.c_str());
  }
  std::printf("\n");
}

/** Runs a schedule over the traced program via the facade; benches treat a
 *  partitioning error as fatal (a broken schedule means a broken bench). */
inline Executable Run(Program& program, const Mesh& mesh,
                      const std::vector<Tactic>& schedule,
                      const DeviceSpec& device = Tpu_v3(),
                      bool incremental = true) {
  PartitionOptions options;
  options.device = device;
  options.incremental = incremental;
  StatusOr<Executable> exe = program.Partition(schedule, mesh, options);
  if (!exe.ok()) PARTIR_FATAL() << exe.status().ToString();
  return std::move(exe).value();
}

inline std::string Fmt(double value, const char* format = "%.2f") {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), format, value);
  return std::string(buffer);
}

/**
 * Minimal JSON writer for machine-readable bench output (one object or
 * array per report line; no external dependency). Keys and string values
 * are emitted verbatim — callers pass plain identifiers.
 *
 *   JsonWriter json;
 *   json.BeginObject().Key("threads").Value(8).Key("ms").Value(12.5);
 *   json.EndObject();
 *   std::printf("%s\n", json.str().c_str());
 */
class JsonWriter {
 public:
  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return Close(']'); }

  JsonWriter& Key(const std::string& name) {
    Separate();
    out_ += '"';
    out_ += name;
    out_ += "\":";
    pending_value_ = true;
    return *this;
  }

  JsonWriter& Value(const std::string& value) {
    Separate();
    out_ += '"';
    out_ += value;
    out_ += '"';
    return *this;
  }
  JsonWriter& Value(const char* value) { return Value(std::string(value)); }
  JsonWriter& Value(double value) {
    Separate();
    out_ += Fmt(value, "%.6g");
    return *this;
  }
  JsonWriter& Value(int64_t value) {
    Separate();
    out_ += std::to_string(value);
    return *this;
  }
  JsonWriter& Value(int value) { return Value(static_cast<int64_t>(value)); }
  JsonWriter& Value(bool value) {
    Separate();
    out_ += value ? "true" : "false";
    return *this;
  }

  const std::string& str() const { return out_; }

 private:
  JsonWriter& Open(char bracket) {
    Separate();
    out_ += bracket;
    need_comma_ = false;
    return *this;
  }
  JsonWriter& Close(char bracket) {
    out_ += bracket;
    need_comma_ = true;
    return *this;
  }
  void Separate() {
    if (pending_value_) {
      pending_value_ = false;  // value follows its key, no comma
      return;
    }
    if (need_comma_) out_ += ',';
    need_comma_ = true;
  }

  std::string out_;
  bool need_comma_ = false;
  bool pending_value_ = false;
};

/**
 * Emits one machine-readable line of per-pass pipeline timings (from
 * Executable::pipeline_stats()): per-pass ms, runs, rewrite counts, op
 * counts, and — for lowered stages — the per-stage collective breakdown.
 * The per-pass replacement for whole-pipeline timers in the benches.
 */
inline void PrintPipelineStatsJson(const std::string& bench,
                                   const std::string& label,
                                   const PipelineStats& stats) {
  JsonWriter json;
  json.BeginObject()
      .Key("bench").Value(bench)
      .Key("model").Value(label)
      .Key("total_ms").Value(stats.total_seconds * 1e3)
      .Key("verify_runs").Value(stats.verify_runs)
      .Key("verify_ms").Value(stats.verify_seconds * 1e3)
      .Key("analysis_checkers").Value(stats.analysis_checkers)
      .Key("analysis_errors").Value(stats.analysis_errors)
      .Key("analysis_warnings").Value(stats.analysis_warnings)
      .Key("passes").BeginArray();
  for (const PassStats& pass : stats.passes) {
    json.BeginObject()
        .Key("name").Value(pass.name)
        .Key("ms").Value(pass.seconds * 1e3)
        .Key("runs").Value(pass.runs)
        .Key("changes").Value(pass.changes)
        .Key("ops_after").Value(pass.ops_after);
    if (pass.lowered) {
      json.Key("ag").Value(pass.collectives.all_gather)
          .Key("ar").Value(pass.collectives.all_reduce)
          .Key("rs").Value(pass.collectives.reduce_scatter)
          .Key("a2a").Value(pass.collectives.all_to_all);
    }
    json.EndObject();
  }
  json.EndArray().EndObject();
  std::printf("%s\n", json.str().c_str());
}

}  // namespace bench
}  // namespace partir

#endif  // PARTIR_BENCH_BENCH_UTIL_H_
