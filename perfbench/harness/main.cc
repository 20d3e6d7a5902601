// perfbench — the repository benchmark harness (BENCHMARK.json).
//
//   perfbench --workload serve_extract|crawl_pack|learn_dealers
//             --seed N --seconds S --trace 0|1
//             --work-dir DIR --state-dir DIR --serve-bin PATH
//             [--source-id ID]
//
// Normally started by perfbench/run.py, which builds it first. Prints one
// info line (host, build, seed, guards) and, as the last line of stdout,
// the result object {"correct","attempted","failed","metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "harness/common.h"
#include "obs/json.h"

namespace {

using perfbench::Args;
using perfbench::Report;

constexpr char kUsage[] =
    "usage: perfbench --workload serve_extract|crawl_pack|learn_dealers"
    " --seed N --seconds S --trace 0|1 --work-dir DIR --state-dir DIR"
    " --serve-bin PATH"
    " [--source-id ID]\n";

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else if (key == "--state-dir") {
      args->state_dir = value;
    } else if (key == "--serve-bin") {
      args->serve_bin = value;
    } else if (key == "--source-id") {
      args->source_id = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0 &&
         !args->work_dir.empty() && !args->state_dir.empty() &&
         !args->serve_bin.empty();
}

std::string ResultLine(const Report& report) {
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Report::Metric& metric = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.12g", metric.value);
    if (i > 0) out += ", ";
    out += "\"" + metric.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           metric.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
#ifndef __OPTIMIZE__
  std::fprintf(stderr,
               "perfbench: refusing to report from a build without"
               " optimisation (build type %s)\n",
               PERFBENCH_BUILD_TYPE);
  return 3;
#endif
  // Absolute, so file:// URLs built from them parse.
  args.work_dir = std::filesystem::absolute(args.work_dir).string();
  args.state_dir = std::filesystem::absolute(args.state_dir).string();
  std::error_code ec;
  std::filesystem::remove_all(args.work_dir, ec);
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                 args.work_dir.c_str(), ec.message().c_str());
    return 1;
  }

  Report report;
  if (args.workload == "serve_extract") {
    report = perfbench::RunServeExtract(args);
  } else if (args.workload == "crawl_pack") {
    report = perfbench::RunCrawlPack(args);
  } else if (args.workload == "learn_dealers") {
    report = perfbench::RunLearnDealers(args);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n%s",
                 args.workload.c_str(), kUsage);
    return 2;
  }
  std::filesystem::remove_all(args.work_dir, ec);

  ntw::obs::JsonWriter info;
  info.BeginObject();
  info.Key("perfbench_info");
  info.BeginObject();
  info.KV("workload", args.workload);
  info.KV("seed", static_cast<int64_t>(args.seed));
  info.KV("seconds", args.seconds);
  info.KV("trace", args.trace);
  info.KV("cpu_model", perfbench::HostCpuModel());
  info.KV("nproc", static_cast<int64_t>(perfbench::HostCpuCount()));
  info.KV("build_type", PERFBENCH_BUILD_TYPE);
  info.KV("source_id", args.source_id);
  for (const auto& [key, value] : report.info) info.KV(key, value);
  info.EndObject();
  info.EndObject();
  std::printf("%s\n%s\n", info.Take().c_str(), ResultLine(report).c_str());
  std::fflush(stdout);
  return 0;
}
