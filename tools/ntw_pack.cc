// ntw_pack — build, inspect and verify wrapper packs (DESIGN.md §15).
//
// Usage:
//   ntw_pack build --root DIR --out PACK
//   ntw_pack inspect PACK [--site NAME]
//   ntw_pack verify PACK
//
// `build` walks a `<root>/<site>/<attribute>.wrapper` repository tree and
// serializes it into one memory-mappable NTWPACK2 file: interned
// strings, fixed-layout compiled plans and a sorted per-site directory.
// The output is a pure function of the (site, attribute, record) set —
// rebuilding from the same tree is bit-identical, which `verify`
// exploits.
//
// `inspect` prints a JSON summary of the header (and one site's entries
// with --site) without touching more pages than asked for.
//
// `verify` runs the full offline check: body checksum, directory
// sortedness and bounds, every record parsed, every plan blob decoded and
// cross-checked against its record — the integrity gate CI runs after
// every build.

#include <cstdio>
#include <filesystem>

#include "common/file_util.h"
#include "common/flags.h"
#include "common/obs_export.h"
#include "core/wrapper_pack.h"
#include "obs/json.h"

namespace {

using namespace ntw;

constexpr char kUsage[] =
    "usage: ntw_pack build --root DIR --out PACK\n"
    "       ntw_pack inspect PACK [--site NAME]\n"
    "       ntw_pack verify PACK\n";

constexpr char kSuffix[] = ".wrapper";

const char* PlanKindName(uint32_t kind) {
  switch (kind) {
    case core::kPackPlanXPath: return "xpath";
    case core::kPackPlanLr: return "lr";
    case core::kPackPlanHlrt: return "hlrt";
    case core::kPackPlanNone: return "none";
    default: return "unknown";
  }
}

int Build(const Flags& flags) {
  std::string root = flags.Get("root");
  std::string out = flags.Get("out");
  if (root.empty() || out.empty()) {
    std::fprintf(stderr, "build needs --root and --out\n%s", kUsage);
    return 2;
  }
  core::WrapperPackBuilder builder;
  Result<std::vector<std::string>> site_dirs = ListSubdirectories(root);
  if (!site_dirs.ok()) {
    std::fprintf(stderr, "%s\n", site_dirs.status().ToString().c_str());
    return 1;
  }
  size_t skipped = 0;
  for (const std::string& site_dir : *site_dirs) {
    std::string site = std::filesystem::path(site_dir).filename().string();
    Result<std::vector<std::string>> files = ListFiles(site_dir, kSuffix);
    if (!files.ok()) continue;
    for (const std::string& file : *files) {
      std::string attribute = std::filesystem::path(file).filename().string();
      attribute.resize(attribute.size() - (sizeof(kSuffix) - 1));
      Result<std::string> record = ReadFile(file);
      if (!record.ok()) {
        std::fprintf(stderr, "ntw_pack: skipping %s: %s\n", file.c_str(),
                     record.status().ToString().c_str());
        ++skipped;
        continue;
      }
      Status added = builder.Add(site, attribute, *record);
      if (!added.ok()) {
        // One bad record must not abort a million-site build.
        std::fprintf(stderr, "ntw_pack: skipping %s: %s\n", file.c_str(),
                     added.ToString().c_str());
        ++skipped;
      }
    }
  }
  if (builder.entry_count() == 0) {
    std::fprintf(stderr, "ntw_pack: no wrapper records under %s\n",
                 root.c_str());
    return 1;
  }
  Status wrote = builder.WriteFile(out);
  if (!wrote.ok()) {
    std::fprintf(stderr, "%s\n", wrote.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "ntw_pack: wrote %s (%zu sites, %zu entries, %zu skipped)\n",
               out.c_str(), builder.site_count(), builder.entry_count(),
               skipped);
  return 0;
}

int Inspect(const Flags& flags, const std::string& path) {
  auto pack = core::WrapperPack::Open(path);
  if (!pack.ok()) {
    std::fprintf(stderr, "%s\n", pack.status().ToString().c_str());
    return 1;
  }
  const core::PackHeader& header = (*pack)->header();
  obs::JsonWriter json;
  BeginSchemaDocument(json, "ntw-pack-inspect", 3);
  json.KV("path", path);
  json.KV("pack_version", static_cast<int64_t>(header.version));
  json.KV("file_size", static_cast<int64_t>(header.file_size));
  json.KV("sites", static_cast<int64_t>(header.site_count));
  json.KV("entries", static_cast<int64_t>(header.entry_count));
  json.KV("plans_bytes", static_cast<int64_t>(header.plans_len));
  json.KV("strtab_bytes", static_cast<int64_t>(header.strtab_len));
  // Per-section byte breakdown: where a compression pass would pay. The
  // directories are fixed-width records, so their sizes follow from the
  // counts; "other" is whatever remains (alignment padding).
  {
    int64_t header_bytes = static_cast<int64_t>(sizeof(core::PackHeader));
    int64_t site_dir_bytes = static_cast<int64_t>(header.site_count *
                                                  sizeof(core::PackSiteRec));
    int64_t entry_dir_bytes = static_cast<int64_t>(
        header.entry_count * sizeof(core::PackEntryRec));
    int64_t accounted = header_bytes + site_dir_bytes + entry_dir_bytes +
                        static_cast<int64_t>(header.plans_len) +
                        static_cast<int64_t>(header.strtab_len);
    int64_t other = static_cast<int64_t>(header.file_size) - accounted;
    double scale =
        header.file_size > 0 ? 100.0 / static_cast<double>(header.file_size)
                             : 0.0;
    json.Key("sections");
    json.BeginObject();
    struct Section {
      const char* name;
      int64_t bytes;
    };
    for (const Section& section :
         {Section{"header", header_bytes},
          Section{"site_directory", site_dir_bytes},
          Section{"entry_directory", entry_dir_bytes},
          Section{"plans", static_cast<int64_t>(header.plans_len)},
          Section{"string_table", static_cast<int64_t>(header.strtab_len)},
          Section{"other", other}}) {
      json.Key(section.name);
      json.BeginObject();
      json.KV("bytes", section.bytes);
      json.KV("percent", static_cast<double>(section.bytes) * scale);
      json.EndObject();
    }
    json.EndObject();
  }
  if (flags.Has("site")) {
    std::string name = flags.Get("site");
    auto site = (*pack)->FindSite(name);
    if (!site.has_value()) {
      std::fprintf(stderr, "ntw_pack: no site '%s' in %s\n", name.c_str(),
                   path.c_str());
      return 1;
    }
    json.KV("site", name);
    json.Key("site_entries");
    json.BeginArray();
    for (size_t i = 0; i < site->entry_count(); ++i) {
      auto entry = site->entry(i);
      if (!entry.has_value()) continue;
      json.BeginObject();
      json.KV("attribute", entry->attribute());
      json.KV("plan_kind", PlanKindName(entry->plan_kind()));
      json.KV("record", entry->record());
      json.EndObject();
    }
    json.EndArray();
  }
  json.EndObject();
  std::string body = json.Take();
  body.push_back('\n');
  std::fwrite(body.data(), 1, body.size(), stdout);
  return 0;
}

int Verify(const std::string& path) {
  auto pack = core::WrapperPack::Open(path);
  if (!pack.ok()) {
    std::fprintf(stderr, "%s\n", pack.status().ToString().c_str());
    return 1;
  }
  Status verified = (*pack)->Verify();
  if (!verified.ok()) {
    std::fprintf(stderr, "ntw_pack: %s: %s\n", path.c_str(),
                 verified.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "ntw_pack: %s ok (%zu sites, %llu entries)\n",
               path.c_str(), (*pack)->site_count(),
               static_cast<unsigned long long>((*pack)->header().entry_count));
  return 0;
}

int Run(int argc, char** argv) {
  Result<Flags> flags_or = Flags::Parse(argc, argv);
  if (!flags_or.ok()) {
    std::fprintf(stderr, "%s\n%s", flags_or.status().ToString().c_str(),
                 kUsage);
    return 2;
  }
  const Flags& flags = *flags_or;
  std::vector<std::string> unknown =
      flags.UnknownFlags({"root", "out", "site", "help"});
  if (!unknown.empty() || flags.Has("help")) {
    for (const std::string& name : unknown) {
      std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
    }
    std::fprintf(stderr, "%s", kUsage);
    return flags.Has("help") ? 0 : 2;
  }
  const std::vector<std::string>& positional = flags.positional();
  if (positional.empty()) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  const std::string& command = positional[0];
  if (command == "build") {
    if (positional.size() != 1) {
      std::fprintf(stderr, "build takes no positional operands\n%s", kUsage);
      return 2;
    }
    return Build(flags);
  }
  if (command == "inspect" || command == "verify") {
    if (positional.size() != 2) {
      std::fprintf(stderr, "%s takes one PACK operand\n%s", command.c_str(),
                   kUsage);
      return 2;
    }
    return command == "inspect" ? Inspect(flags, positional[1])
                                : Verify(positional[1]);
  }
  std::fprintf(stderr, "unknown command '%s'\n%s", command.c_str(), kUsage);
  return 2;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
