// Repository scaling benchmark: mmap pack open vs directory load, swept
// across synthetic repository sizes (1k → 1M sites). For each size the
// bench streams the synthetic records straight into a WrapperPackBuilder
// (ForEachSyntheticWrapperRecord — no directory intermediate, which is
// what makes the 1M-site point feasible: two million tiny files would
// dominate the run with filesystem overhead), writes the pack, and
// measures:
//
//   * pack Open(): wall time of WrapperRepository::Load() on the pack
//     file (header validation + mmap, nothing parsed),
//   * cold first-hit latency: Snapshot::Find() on sites no request has
//     built yet (page-in + parse + compile of the site's entries),
//   * the RSS each of those adds, split into anonymous memory (the
//     repository's own heap) and file pages (the pack's pages the binary
//     searches fault in) — resident minus shared, and shared, in
//     /proc/self/statm,
//   * the directory Load(): read every wrapper file, validate its record
//     and pack the tree in memory (nothing is compiled), and its anon
//     RSS. The tree is materialized (and this baseline measured) only up
//     to 100k sites; beyond that the point records dir_baseline=false.
//
// The pack open, the first hits and their RSS are taken in a fresh
// process (`bench_repo probe PACK SITES`, re-executed by the sweep), so
// neither the heap nor the page tables of the process that built the
// pack colour them. Non-smoke runs enforce the headline claim on 10k+
// points that have the baseline: pack open must be >= 50x faster than
// the directory load.
//
// `--out PATH` writes an ntw-repo-bench (v3) JSON document
// (BENCH_repo.json in CI); `--smoke` shrinks the sweep to a CI-sized
// sanity run and skips the speedup enforcement (tiny repositories are
// dominated by fixed costs, not scaling).

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/build_info.h"
#include "common/file_util.h"
#include "common/flags.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/wrapper_pack.h"
#include "obs/json.h"
#include "obs/proc.h"
#include "serve/wrapper_repository.h"
#include "sitegen/origin.h"

namespace {

using namespace ntw;

constexpr char kUsage[] =
    "usage: bench_repo [--out BENCH_repo.json] [--sizes 1000,10000,...]\n"
    "                  [--attrs N] [--seed N] [--smoke]\n"
    "       bench_repo probe PACK SITES   (one fresh-process measurement)\n";

// The directory baseline (and its tree materialization) stops here: past
// 100k sites the directory load's cost is already established as linear,
// and writing millions of wrapper files would dominate the sweep's runtime.
constexpr int64_t kMaxDirBaselineSites = 100000;

struct SweepPoint {
  int64_t sites = 0;
  int64_t entries = 0;
  double pack_build_seconds = 0.0;
  int64_t pack_file_bytes = 0;
  double pack_open_micros = 0.0;
  int64_t pack_open_anon_rss_bytes = 0;
  int64_t pack_open_file_rss_bytes = 0;
  double first_hit_micros_p50 = 0.0;
  double first_hit_micros_max = 0.0;
  int64_t cold_hit_anon_rss_bytes = 0;
  int64_t cold_hit_file_rss_bytes = 0;
  bool dir_baseline = false;
  double dir_load_micros = 0.0;
  int64_t dir_load_anon_rss_bytes = 0;
  double open_speedup = 0.0;
};

// Streams the synthetic records straight into the pack builder — the
// in-memory equivalent of `ntw_origin` + `ntw_pack build`, producing
// byte-identical entries (ForEachSyntheticWrapperRecord yields the exact
// bytes the written tree would hold) without the directory intermediate.
Status BuildPack(const sitegen::SyntheticRepositoryOptions& options,
                 const std::string& out, size_t* entries) {
  core::WrapperPackBuilder builder;
  NTW_RETURN_IF_ERROR(sitegen::ForEachSyntheticWrapperRecord(
      options, [&](const std::string& site, const std::string& attribute,
                   const std::string& record) {
        return builder.Add(site, attribute, record);
      }));
  *entries = builder.entry_count();
  return builder.WriteFile(out);
}

int64_t RssDelta(int64_t before, int64_t after) {
  return std::max<int64_t>(0, after - before);
}

// `bench_repo probe PACK SITES`: opens the pack through the repository,
// takes 32 cold first hits spread across its site directory, and prints
// one line: open µs, open anon/file RSS, hit p50/max µs, hit anon/file
// RSS (deltas from before the repository existed).
int Probe(const std::string& pack_path, int64_t sites) {
  obs::ResidentBytes before = obs::CurrentResidentBytes();
  serve::WrapperRepository repository(
      serve::WrapperRepository::Options{std::string(), pack_path});
  Stopwatch open_timer;
  Status loaded = repository.Load();
  double open_micros = open_timer.ElapsedSeconds() * 1e6;
  if (!loaded.ok()) {
    std::fprintf(stderr, "bench_repo: pack open: %s\n",
                 loaded.ToString().c_str());
    return 1;
  }
  obs::ResidentBytes opened = obs::CurrentResidentBytes();
  auto pinned = repository.Pin();
  if (pinned->pack->path() != pack_path) {
    std::fprintf(stderr, "bench_repo: the pack file did not open\n");
    return 1;
  }
  // Spread across the directory so the hits touch distinct pack pages.
  size_t probes = std::min<int64_t>(sites, 32);
  std::vector<double> micros;
  for (size_t i = 0; i < probes; ++i) {
    size_t index = i * static_cast<size_t>(sites) / probes;
    std::string site = StrFormat("site_%06zu", index);
    Stopwatch hit_timer;
    const serve::WrapperRepository::Entry* entry =
        pinned->Find(site, "attr_00");
    micros.push_back(hit_timer.ElapsedSeconds() * 1e6);
    if (entry == nullptr) {
      std::fprintf(stderr, "bench_repo: cold hit missed %s\n", site.c_str());
      return 1;
    }
  }
  obs::ResidentBytes hit = obs::CurrentResidentBytes();
  std::sort(micros.begin(), micros.end());
  std::printf("%.3f %lld %lld %.3f %.3f %lld %lld\n", open_micros,
              static_cast<long long>(RssDelta(before.anon, opened.anon)),
              static_cast<long long>(RssDelta(before.file, opened.file)),
              micros[micros.size() / 2], micros.back(),
              static_cast<long long>(RssDelta(before.anon, hit.anon)),
              static_cast<long long>(RssDelta(before.file, hit.file)));
  return 0;
}

// Runs Probe in a fresh process (this binary, re-executed) and parses
// its line into `point`.
Status ProbeInFreshProcess(const std::string& pack_path, SweepPoint* point) {
  std::string sites = std::to_string(point->sites);
  int fds[2];
  if (pipe(fds) != 0) return Status::Internal("bench_repo: pipe failed");
  pid_t pid = fork();
  if (pid < 0) return Status::Internal("bench_repo: fork failed");
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    execl("/proc/self/exe", "bench_repo", "probe", pack_path.c_str(),
          sites.c_str(), static_cast<char*>(nullptr));
    _exit(127);
  }
  close(fds[1]);
  std::string line;
  char buffer[256];
  ssize_t n = 0;
  while ((n = read(fds[0], buffer, sizeof(buffer))) > 0) {
    line.append(buffer, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  long long open_anon = 0, open_file = 0, hit_anon = 0, hit_file = 0;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      std::sscanf(line.c_str(), "%lf %lld %lld %lf %lf %lld %lld",
                  &point->pack_open_micros, &open_anon, &open_file,
                  &point->first_hit_micros_p50, &point->first_hit_micros_max,
                  &hit_anon, &hit_file) != 7) {
    return Status::Internal("bench_repo: the probe process failed");
  }
  point->pack_open_anon_rss_bytes = open_anon;
  point->pack_open_file_rss_bytes = open_file;
  point->cold_hit_anon_rss_bytes = hit_anon;
  point->cold_hit_file_rss_bytes = hit_file;
  return Status::OK();
}

int Run(int argc, char** argv) {
  Result<Flags> flags_or = Flags::Parse(argc, argv);
  if (!flags_or.ok()) {
    std::fprintf(stderr, "%s\n%s", flags_or.status().ToString().c_str(),
                 kUsage);
    return 2;
  }
  const Flags& flags = *flags_or;
  const std::vector<std::string>& positional = flags.positional();
  if (positional.size() == 3 && positional[0] == "probe") {
    return Probe(positional[1], std::atoll(positional[2].c_str()));
  }
  std::vector<std::string> unknown =
      flags.UnknownFlags({"out", "sizes", "attrs", "seed", "smoke", "help"});
  if (!unknown.empty() || flags.Has("help")) {
    for (const std::string& name : unknown) {
      std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
    }
    std::fprintf(stderr, "%s", kUsage);
    return flags.Has("help") ? 0 : 2;
  }
  bool smoke = flags.Has("smoke");
  Result<int64_t> attrs = flags.GetInt("attrs", 2);
  Result<int64_t> seed = flags.GetInt("seed", 17);
  for (const auto* value : {&attrs, &seed}) {
    if (!value->ok()) {
      std::fprintf(stderr, "%s\n%s", value->status().ToString().c_str(),
                   kUsage);
      return 2;
    }
  }
  std::vector<int64_t> sizes;
  for (const std::string& part :
       Split(flags.Get("sizes",
                       smoke ? "100,400" : "1000,10000,100000,1000000"),
             ',')) {
    if (part.empty()) continue;
    sizes.push_back(std::max<int64_t>(1, std::atoll(part.c_str())));
  }
  if (sizes.empty()) sizes = {1000};
  std::sort(sizes.begin(), sizes.end());

  std::string work = (std::filesystem::temp_directory_path() /
                      StrFormat("ntw_bench_repo_%d", static_cast<int>(getpid())))
                         .string();
  std::filesystem::remove_all(work);

  std::vector<SweepPoint> points;
  bool enforcement_failed = false;
  for (int64_t size : sizes) {
    SweepPoint point;
    point.sites = size;
    std::string repo_dir = work + "/repo";
    std::string pack_path = work + "/wrappers.pack";
    std::filesystem::remove_all(work);
    std::filesystem::create_directories(work);

    sitegen::SyntheticRepositoryOptions options;
    options.sites = static_cast<size_t>(size);
    options.attrs = static_cast<size_t>(*attrs);
    options.seed = static_cast<uint64_t>(*seed);
    point.dir_baseline = size <= kMaxDirBaselineSites;

    size_t entries = 0;
    Stopwatch build_timer;
    Status packed = BuildPack(options, pack_path, &entries);
    point.pack_build_seconds = build_timer.ElapsedSeconds();
    if (!packed.ok()) {
      std::fprintf(stderr, "bench_repo: %s\n", packed.ToString().c_str());
      return 1;
    }
    point.entries = static_cast<int64_t>(entries);
    point.pack_file_bytes =
        static_cast<int64_t>(std::filesystem::file_size(pack_path));

    Status probed = ProbeInFreshProcess(pack_path, &point);
    if (!probed.ok()) {
      std::fprintf(stderr, "%s\n", probed.ToString().c_str());
      return 1;
    }

    // The directory load: read + validate + in-memory pack. The tree is
    // only materialized for this baseline, so the biggest points skip it.
    if (point.dir_baseline) {
      Status wrote =
          sitegen::WriteSyntheticWrapperRepository(options, repo_dir);
      if (!wrote.ok()) {
        std::fprintf(stderr, "bench_repo: %s\n", wrote.ToString().c_str());
        return 1;
      }
      int64_t anon_before = obs::CurrentResidentBytes().anon;
      serve::WrapperRepository repository(repo_dir);
      Stopwatch load_timer;
      Status loaded = repository.Load();
      point.dir_load_micros = load_timer.ElapsedSeconds() * 1e6;
      if (!loaded.ok()) {
        std::fprintf(stderr, "bench_repo: dir load: %s\n",
                     loaded.ToString().c_str());
        return 1;
      }
      point.dir_load_anon_rss_bytes =
          RssDelta(anon_before, obs::CurrentResidentBytes().anon);
      point.open_speedup = point.pack_open_micros > 0.0
                               ? point.dir_load_micros / point.pack_open_micros
                               : 0.0;
    }

    std::fprintf(stderr,
                 "bench_repo: sites=%lld open=%.0fus first_hit_p50=%.1fus "
                 "max=%.1fus cold_anon=%lld cold_file=%lld pack=%lldB",
                 static_cast<long long>(point.sites), point.pack_open_micros,
                 point.first_hit_micros_p50, point.first_hit_micros_max,
                 static_cast<long long>(point.cold_hit_anon_rss_bytes),
                 static_cast<long long>(point.cold_hit_file_rss_bytes),
                 static_cast<long long>(point.pack_file_bytes));
    if (point.dir_baseline) {
      std::fprintf(stderr, " dir_load=%.0fus (%.0fx) dir_anon=%lld\n",
                   point.dir_load_micros, point.open_speedup,
                   static_cast<long long>(point.dir_load_anon_rss_bytes));
    } else {
      std::fprintf(stderr, " (no dir baseline)\n");
    }

    if (!smoke && point.dir_baseline && size >= 10000 &&
        point.open_speedup < 50.0) {
      std::fprintf(stderr,
                   "bench_repo: FAIL sites=%lld pack open only %.1fx faster "
                   "than the directory load (need >= 50x)\n",
                   static_cast<long long>(point.sites), point.open_speedup);
      enforcement_failed = true;
    }
    points.push_back(point);
  }
  std::filesystem::remove_all(work);

  obs::JsonWriter json;
  json.BeginObject();
  json.KV("schema", "ntw-repo-bench");
  json.KV("schema_version", int64_t{3});
  json.KV("smoke", smoke);
  WriteMachineInfo(json);
  json.KV("attrs", *attrs);
  json.KV("seed", *seed);
  json.Key("runs");
  json.BeginArray();
  for (const SweepPoint& point : points) {
    json.BeginObject();
    json.KV("sites", point.sites);
    json.KV("entries", point.entries);
    json.KV("pack_build_seconds", point.pack_build_seconds);
    json.KV("pack_file_bytes", point.pack_file_bytes);
    json.KV("pack_open_micros", point.pack_open_micros);
    json.KV("pack_open_anon_rss_bytes", point.pack_open_anon_rss_bytes);
    json.KV("pack_open_file_rss_bytes", point.pack_open_file_rss_bytes);
    json.KV("first_hit_micros_p50", point.first_hit_micros_p50);
    json.KV("first_hit_micros_max", point.first_hit_micros_max);
    json.KV("cold_hit_anon_rss_bytes", point.cold_hit_anon_rss_bytes);
    json.KV("cold_hit_file_rss_bytes", point.cold_hit_file_rss_bytes);
    json.KV("dir_baseline", point.dir_baseline);
    if (point.dir_baseline) {
      json.KV("dir_load_micros", point.dir_load_micros);
      json.KV("dir_load_anon_rss_bytes", point.dir_load_anon_rss_bytes);
      json.KV("open_speedup", point.open_speedup);
    }
    json.EndObject();
  }
  json.EndArray();
  json.KV("peak_rss_bytes", obs::PeakRssBytes());
  json.EndObject();

  std::string out = flags.Get("out", "BENCH_repo.json");
  Status written = WriteFile(out, json.Take() + "\n");
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "bench_repo: wrote %s\n", out.c_str());
  return enforcement_failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
