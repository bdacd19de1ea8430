// The PartIR end-to-end benchmark.
//
//   partir_perfbench --workload <t32_partition|train_step|serve_infer>
//                    --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// With --trace 0 the last stdout line is one JSON object with the
// end-to-end metrics; with --trace 1 the workload runs a second time with
// spans recorded, and the line carries the per-layer metrics plus the traced
// end-to-end numbers and their deltas against the untraced pass. The traced
// run also writes <out-dir>/<workload>-seed<n>.trace.json (Chrome
// trace-event JSON) and the result line next to it as .metrics.json.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>

#include "perfbench/src/workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

// The seed later performance claims are confirmed on, after being developed
// on others.
constexpr uint64_t kConfirmSeed = 4242;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/traces";
};

struct Workload {
  const char* name;
  Outcome (*run)(const RunContext&);
};

constexpr Workload kWorkloads[] = {
    {"t32_partition", RunT32Partition},
    {"train_step", RunTrainStep},
    {"serve_infer", RunServeInfer},
};

int Usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: partir_perfbench --workload "
               "<t32_partition|train_step|serve_infer> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\n",
               message);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0 &&
         std::isfinite(args.seconds);
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string Number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/** The result line: exactly correct, attempted, failed and metrics. */
std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const Metrics& values, const MetricSpec* specs,
                       size_t count) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < count; ++i) {
    auto it = values.find(specs[i].name);
    const double value = it == values.end() ? 0.0 : it->second;
    if (i > 0) out += ", ";
    out += std::string("\"") + specs[i].name + "\": {\"value\": " +
           Number(std::isfinite(value) ? value : 0.0) + ", \"unit\": \"" +
           specs[i].unit + "\"}";
  }
  return out + "}}";
}

/** Names a workload set that the catalogue does not know (a typo guard). */
bool KnownNames(const Metrics& values, const MetricSpec* specs, size_t count,
                std::string& unknown) {
  for (const auto& [name, value] : values) {
    bool known = false;
    for (size_t i = 0; i < count; ++i) known = known || name == specs[i].name;
    if (!known) {
      unknown = name;
      return false;
    }
  }
  return true;
}

void LogPass(const char* pass, const Outcome& outcome) {
  std::fprintf(stderr,
               "[perfbench] %s pass: %lld latency samples, %lld operations "
               "attempted, %lld failed\n",
               pass, static_cast<long long>(outcome.samples),
               static_cast<long long>(outcome.attempted),
               static_cast<long long>(outcome.failed));
  for (const std::string& failure : outcome.failures) {
    std::fprintf(stderr, "[perfbench] %s failure: %s\n", pass,
                 failure.c_str());
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) return Usage("bad arguments");
  const Workload* workload = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (args.workload == candidate.name) workload = &candidate;
  }
  if (workload == nullptr) return Usage("unknown workload");

  // An assertion-enabled build verifies the IR between passes and runs the
  // static analysis inside every Partition, which inflates compile times.
  bool asserts = partir::kVerifyPassesDefault;
#ifndef NDEBUG
  asserts = true;
#endif
  const std::string host =
      "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"compiler\": \"" + JsonEscape(Compiler()) +
      "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\", \"assertions\": " +
      (asserts ? "true" : "false") + "}";
  std::printf("{\"perfbench\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"confirm_seed\": %llu, \"seconds\": %s, \"trace\": %d, "
              "\"host\": %s}}\n",
              workload->name, static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(kConfirmSeed),
              Number(args.seconds).c_str(), args.trace ? 1 : 0, host.c_str());
  std::fflush(stdout);
  if (asserts) {
    std::fprintf(stderr,
                 "error: refusing to report from an assertion-enabled "
                 "build; build with -DCMAKE_BUILD_TYPE=RelWithDebInfo\n");
    return 3;
  }

  Tracer tracer(/*enabled=*/false);
  RunContext ctx;
  ctx.seed = args.seed;
  ctx.seconds = args.seconds;
  ctx.tracer = &tracer;
  const Outcome untraced = workload->run(ctx);
  LogPass("untraced", untraced);
  std::string unknown;
  if (!KnownNames(untraced.e2e, kEndToEndMetrics,
                  std::size(kEndToEndMetrics), unknown)) {
    std::fprintf(stderr, "error: unknown metric %s\n", unknown.c_str());
    return 4;
  }

  int64_t attempted = untraced.attempted;
  int64_t failed = untraced.failed;
  if (!args.trace) {
    if (attempted == 0) return Usage("nothing was attempted");
    Metrics e2e = untraced.e2e;
    e2e["ok_frac"] = 1.0 - FailFraction(failed, attempted);
    for (const MetricSpec& spec : kEndToEndMetrics) {
      if (e2e.count(spec.name) == 0) {
        std::fprintf(stderr, "error: %s not measured\n", spec.name);
        return 4;
      }
    }
    std::printf("%s\n",
                ResultJson(failed == 0, attempted, failed, e2e,
                           kEndToEndMetrics, std::size(kEndToEndMetrics))
                    .c_str());
    return 0;
  }

  tracer.set_enabled(true);
  ctx.layers = true;
  const Outcome traced = workload->run(ctx);
  LogPass("traced", traced);
  attempted += traced.attempted;
  failed += traced.failed;
  Metrics layers = traced.layers;
  for (const char* name : kTracedTimings) {
    const std::string key = std::string("trace.") + name;
    const double with = traced.e2e.count(name) ? traced.e2e.at(name) : 0.0;
    const double without =
        untraced.e2e.count(name) ? untraced.e2e.at(name) : 0.0;
    layers[key] = with;
    layers[key + ".delta"] = with - without;
  }
  layers["trace.spans"] = static_cast<double>(tracer.num_events());
  if (!KnownNames(layers, kPerLayerMetrics, std::size(kPerLayerMetrics),
                  unknown)) {
    std::fprintf(stderr, "error: unknown metric %s\n", unknown.c_str());
    return 4;
  }
  const std::string result =
      ResultJson(failed == 0, attempted, failed, layers, kPerLayerMetrics,
                 std::size(kPerLayerMetrics));

  const std::string stem = args.out_dir + "/" + workload->name + "-seed" +
                           std::to_string(args.seed);
  const bool wrote =
      tracer.WriteChromeJson(stem + ".trace.json",
                             {{"workload", workload->name},
                              {"seed", std::to_string(args.seed)},
                              {"confirm_seed", std::to_string(kConfirmSeed)},
                              {"host", host}});
  std::ofstream metrics_file(stem + ".metrics.json", std::ios::trunc);
  metrics_file << result << "\n";
  metrics_file.close();
  if (!wrote || !metrics_file) {
    std::fprintf(stderr, "error: cannot write %s.*\n", stem.c_str());
    return 5;
  }
  std::fprintf(stderr, "[perfbench] trace: %s.trace.json\n", stem.c_str());
  std::printf("%s\n", result.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
