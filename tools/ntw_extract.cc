// ntw_extract — learn a wrapper for one website from noisy automatic
// annotations and extract with it; the command-line face of the library.
//
// Usage:
//   ntw_extract --pages DIR [--dict FILE | --regex PATTERN]
//               [--inductor xpath|lr|hlrt] [--algorithm topdown|bottomup]
//               [--p 0.95] [--r 0.3] [--save-wrapper FILE]
//   ntw_extract --pages DIR --load-wrapper FILE
//   ntw_extract --pages DIR [--wrapper-dir DIR] [--pack FILE]
//               --site S --attribute A
//
// Modes:
//   learn   (default): annotate the pages with the dictionary (one entry
//           per line) or regex, enumerate + rank noise-tolerantly with a
//           generic publication prior, print the winning wrapper and its
//           extraction as TSV (page <TAB> text).
//   apply   (--load-wrapper): re-apply a previously saved wrapper.
//   apply   (--wrapper-dir): select the (site, attribute) wrapper out of
//           a serving repository — the exact same serve::WrapperRepository
//           code path ntw_serve uses, so CLI and daemon cannot diverge.
//           With --emit ndjson the output switches from TSV to one
//           ntw-crawl-record line per page (--url-prefix P names the
//           pages as P/<filename>) — byte-identical to what ntw_crawl
//           emits for the same pages, the offline half of the crawl
//           equivalence check.
//
// The (p, r) flags are the annotator model parameters of Eq. 4; in a real
// deployment they come from a labeled sample (see datasets::LearnModels).

#include <cstdio>

#include "annotate/dictionary_annotator.h"
#include "annotate/regex_annotator.h"
#include "common/file_util.h"
#include "common/flags.h"
#include "common/obs_export.h"
#include "common/strings.h"
#include "obs/trace.h"
#include "core/compiled_wrapper.h"
#include "core/hlrt_inductor.h"
#include "core/lr_inductor.h"
#include "core/ntw.h"
#include "core/wrapper_store.h"
#include "core/xpath_inductor.h"
#include "crawl/record.h"
#include "datasets/corpus_io.h"
#include "serve/wrapper_repository.h"

namespace {

using namespace ntw;

constexpr char kUsage[] =
    "usage: ntw_extract --pages DIR (--dict FILE | --regex PATTERN |"
    " --load-wrapper FILE |\n"
    "                   [--wrapper-dir DIR] [--pack FILE] --site S"
    " --attribute A)\n"
    "                   [--inductor xpath|lr|hlrt]"
    " [--algorithm topdown|bottomup]\n"
    "                   [--p P] [--r R] [--schema-prior N]"
    " [--save-wrapper FILE] [--quiet]\n"
    "                   [--metrics-json PATH] [--trace PATH]"
    " [--no-fast-path]\n"
    "                   [--emit tsv|ndjson] [--url-prefix P]\n";

void PrintExtraction(const core::PageSet& pages,
                     const core::NodeSet& extraction) {
  obs::Span span("extract.print");
  for (const core::NodeRef& ref : extraction) {
    const html::Node* node = pages.Resolve(ref);
    if (node == nullptr) continue;
    std::printf("%d\t%s\n", ref.page, node->text().c_str());
  }
}

int Run(int argc, char** argv) {
  Result<Flags> flags_or = Flags::Parse(argc, argv);
  if (!flags_or.ok()) {
    std::fprintf(stderr, "%s\n%s", flags_or.status().ToString().c_str(),
                 kUsage);
    return 2;
  }
  const Flags& flags = *flags_or;
  std::vector<std::string> unknown = flags.UnknownFlags(
      {"pages", "dict", "regex", "load-wrapper", "wrapper-dir", "pack",
       "site", "attribute", "inductor", "algorithm", "p", "r", "schema-prior",
       "save-wrapper", "quiet", "help", "metrics-json", "trace",
       "no-fast-path", "emit", "url-prefix"});
  if (!unknown.empty() || flags.Has("help")) {
    for (const std::string& name : unknown) {
      std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
    }
    std::fprintf(stderr, "%s", kUsage);
    return flags.Has("help") ? 0 : 2;
  }
  bool quiet = flags.Has("quiet");
  ObsExporter obs_export = ObsExporter::FromFlags(flags);

  std::string pages_dir = flags.Get("pages");
  if (pages_dir.empty()) {
    std::fprintf(stderr, "--pages is required\n%s", kUsage);
    return 2;
  }
  Result<core::PageSet> pages_or =
      datasets::LoadPagesFromDirectory(pages_dir);
  if (!pages_or.ok()) {
    std::fprintf(stderr, "%s\n", pages_or.status().ToString().c_str());
    return 1;
  }
  core::PageSet pages = std::move(pages_or).value();
  if (!quiet) {
    std::fprintf(stderr, "loaded %zu pages (%zu text nodes)\n",
                 pages.size(), pages.TextNodeCount());
  }

  // ----- apply mode (serving repository) -----------------------------
  if (flags.Has("wrapper-dir") || flags.Has("pack")) {
    std::string site = flags.Get("site");
    std::string attribute = flags.Get("attribute");
    if (site.empty() || attribute.empty()) {
      std::fprintf(stderr,
                   "--wrapper-dir/--pack requires --site and --attribute\n%s",
                   kUsage);
      return 2;
    }
    std::string emit = ToLower(flags.Get("emit", "tsv"));
    if (emit != "tsv" && emit != "ndjson") {
      std::fprintf(stderr, "unknown --emit '%s'\n%s", emit.c_str(), kUsage);
      return 2;
    }
    bool ndjson = emit == "ndjson";
    // Page URLs of the NDJSON records: <url-prefix>/<filename>, with the
    // filenames in the exact sorted order LoadPagesFromDirectory reads
    // pages — the order a crawl of the same directory dispatches them.
    std::string url_prefix = flags.Get("url-prefix");
    while (!url_prefix.empty() && url_prefix.back() == '/') {
      url_prefix.pop_back();
    }
    std::vector<std::string> page_urls;
    if (ndjson) {
      Result<std::vector<std::string>> files =
          ListFiles(pages_dir, ".html");
      if (!files.ok()) {
        std::fprintf(stderr, "%s\n", files.status().ToString().c_str());
        return 1;
      }
      for (const std::string& file : *files) {
        size_t slash = file.find_last_of('/');
        std::string name =
            slash == std::string::npos ? file : file.substr(slash + 1);
        page_urls.push_back(url_prefix.empty() ? name
                                               : url_prefix + "/" + name);
      }
    }
    // Same repository code path as the daemon — --pack maps the wrapper
    // pack, --wrapper-dir (alone or as overlay) parses record files.
    serve::WrapperRepository repository(serve::WrapperRepository::Options{
        flags.Get("wrapper-dir"), flags.Get("pack")});
    Status loaded = repository.Load();
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.ToString().c_str());
      return 1;
    }
    std::shared_ptr<const serve::WrapperRepository::Snapshot> snapshot =
        repository.snapshot();
    for (const std::string& error : snapshot->errors) {
      std::fprintf(stderr, "skipped wrapper: %s\n", error.c_str());
    }
    const serve::WrapperRepository::Entry* entry =
        snapshot->Find(site, attribute);
    if (entry == nullptr) {
      std::fprintf(stderr, "no wrapper for site '%s' attribute '%s'\n",
                   site.c_str(), attribute.c_str());
      return 1;
    }
    if (!quiet) {
      std::fprintf(stderr, "wrapper: %s\n",
                   entry->wrapper->ToString().c_str());
    }
    // Compiled streaming path, same output bytes as the interpreted path
    // below: dom_free plans stream straight over the raw page bytes and
    // streamable XPath plans run fused off the tokenizer (no DOM either
    // way). Other plans, and --no-fast-path, take the interpreter.
    if (!flags.Has("no-fast-path") && entry->compiled != nullptr &&
        entry->compiled->has_streaming_form()) {
      Result<std::vector<std::string>> sources =
          datasets::LoadPageSourcesFromDirectory(pages_dir);
      if (!sources.ok()) {
        std::fprintf(stderr, "%s\n", sources.status().ToString().c_str());
        return 1;
      }
      core::StreamPageBuffer buffer;
      std::string value;
      obs::Span span("extract.apply");
      for (size_t i = 0; i < sources->size(); ++i) {
        buffer.Clear();
        entry->compiled->ExtractStreaming((*sources)[i], buffer,
                                          &buffer.values);
        if (ndjson) {
          std::string line;
          crawl::AppendRecordLine(site, page_urls[i], attribute,
                                  buffer.values, crawl::RecordTiming{}, &line);
          std::fwrite(line.data(), 1, line.size(), stdout);
        } else {
          for (std::string_view v : buffer.values) {
            value.assign(v);
            std::printf("%d\t%s\n", static_cast<int>(i), value.c_str());
          }
        }
      }
    } else {
      core::NodeSet extraction;
      {
        obs::Span span("extract.apply");
        extraction = entry->wrapper->Extract(pages);
      }
      if (ndjson) {
        // One record line per page, values grouped by page in document
        // order — the interpreted mirror of the compiled loop above.
        std::vector<std::vector<std::string>> by_page(pages.size());
        for (const core::NodeRef& ref : extraction) {
          const html::Node* node = pages.Resolve(ref);
          if (node == nullptr) continue;
          by_page[static_cast<size_t>(ref.page)].push_back(node->text());
        }
        for (size_t i = 0; i < by_page.size(); ++i) {
          std::vector<std::string_view> views(by_page[i].begin(),
                                              by_page[i].end());
          std::string line;
          crawl::AppendRecordLine(site, page_urls[i], attribute, views,
                                  crawl::RecordTiming{}, &line);
          std::fwrite(line.data(), 1, line.size(), stdout);
        }
      } else {
        PrintExtraction(pages, extraction);
      }
    }
    Status written = obs_export.Write();
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
    return 0;
  }

  // ----- apply mode (single wrapper file) ----------------------------
  if (flags.Has("load-wrapper")) {
    Result<core::WrapperPtr> wrapper =
        core::LoadWrapper(flags.Get("load-wrapper"));
    if (!wrapper.ok()) {
      std::fprintf(stderr, "%s\n", wrapper.status().ToString().c_str());
      return 1;
    }
    if (!quiet) {
      std::fprintf(stderr, "wrapper: %s\n",
                   (*wrapper)->ToString().c_str());
    }
    core::NodeSet extraction;
    {
      obs::Span span("extract.apply");
      extraction = (*wrapper)->Extract(pages);
    }
    PrintExtraction(pages, extraction);
    Status written = obs_export.Write();
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
    return 0;
  }

  // ----- learn mode ---------------------------------------------------
  core::NodeSet labels;
  if (flags.Has("dict")) {
    Result<std::string> dict_file = ReadFile(flags.Get("dict"));
    if (!dict_file.ok()) {
      std::fprintf(stderr, "%s\n", dict_file.status().ToString().c_str());
      return 1;
    }
    std::vector<std::string> entries;
    for (const std::string& line : Split(*dict_file, '\n')) {
      std::string entry(StripWhitespace(line));
      if (!entry.empty()) entries.push_back(std::move(entry));
    }
    annotate::DictionaryAnnotator annotator(std::move(entries));
    labels = annotator.Annotate(pages);
  } else if (flags.Has("regex")) {
    Result<annotate::RegexAnnotator> annotator =
        annotate::RegexAnnotator::Create("cli", flags.Get("regex"));
    if (!annotator.ok()) {
      std::fprintf(stderr, "%s\n", annotator.status().ToString().c_str());
      return 1;
    }
    labels = annotator->Annotate(pages);
  } else {
    std::fprintf(stderr,
                 "one of --dict / --regex / --load-wrapper is required\n%s",
                 kUsage);
    return 2;
  }
  if (!quiet) {
    std::fprintf(stderr, "annotator produced %zu labels\n", labels.size());
  }
  if (labels.empty()) {
    std::fprintf(stderr, "no labels — nothing to learn from\n");
    return 1;
  }

  std::string inductor_name = ToLower(flags.Get("inductor", "xpath"));
  std::unique_ptr<core::WrapperInductor> inductor;
  if (inductor_name == "xpath") {
    inductor = std::make_unique<core::XPathInductor>();
  } else if (inductor_name == "lr") {
    inductor = std::make_unique<core::LrInductor>();
  } else if (inductor_name == "hlrt") {
    inductor = std::make_unique<core::HlrtInductor>();
  } else {
    std::fprintf(stderr, "unknown --inductor '%s'\n", inductor_name.c_str());
    return 2;
  }

  core::NtwOptions options;
  std::string algorithm = ToLower(flags.Get("algorithm", "auto"));
  if (algorithm == "topdown") {
    options.algorithm = core::EnumAlgorithm::kTopDown;
  } else if (algorithm == "bottomup" ||
             (algorithm == "auto" && inductor_name == "hlrt")) {
    options.algorithm = core::EnumAlgorithm::kBottomUp;
  } else if (algorithm == "auto") {
    options.algorithm = core::EnumAlgorithm::kTopDown;
  } else {
    std::fprintf(stderr, "unknown --algorithm '%s'\n", algorithm.c_str());
    return 2;
  }

  Result<double> p = flags.GetDouble("p", 0.95);
  Result<double> r = flags.GetDouble("r", 0.3);
  Result<int64_t> schema_prior = flags.GetInt("schema-prior", 3);
  if (!p.ok() || !r.ok() || !schema_prior.ok()) {
    std::fprintf(stderr, "%s\n",
                 (!p.ok() ? p.status() : !r.ok() ? r.status()
                                                 : schema_prior.status())
                     .ToString()
                     .c_str());
    return 2;
  }
  core::AnnotationModel annotation(*p, *r);
  // Generic publication prior centred on --schema-prior text fields per
  // record with tight alignment; a stand-in for a domain-learned model.
  std::vector<core::ListFeatures> prior;
  for (double delta : {-1.0, 0.0, 0.0, 1.0}) {
    core::ListFeatures f;
    f.schema_size = static_cast<double>(*schema_prior) + delta;
    f.alignment = 2.0;
    prior.push_back(f);
  }
  Result<core::PublicationModel> publication =
      core::PublicationModel::Fit(prior);
  if (!publication.ok()) {
    std::fprintf(stderr, "%s\n", publication.status().ToString().c_str());
    return 1;
  }
  core::Ranker ranker(annotation, std::move(publication).value());

  Result<core::NtwOutcome> outcome =
      core::LearnNoiseTolerant(*inductor, pages, labels, ranker, options);
  if (!outcome.ok()) {
    std::fprintf(stderr, "learning failed: %s\n",
                 outcome.status().ToString().c_str());
    return 1;
  }
  if (!quiet) {
    std::fprintf(stderr,
                 "wrapper space: %zu candidates (%lld inductor calls)\n",
                 outcome->space_size,
                 static_cast<long long>(outcome->inductor_calls));
    std::fprintf(stderr, "winner: %s\n",
                 outcome->best.wrapper->ToString().c_str());
  }

  if (flags.Has("save-wrapper")) {
    Status save = core::SaveWrapper(*outcome->best.wrapper,
                                    flags.Get("save-wrapper"));
    if (!save.ok()) {
      std::fprintf(stderr, "%s\n", save.ToString().c_str());
      return 1;
    }
  }
  PrintExtraction(pages, outcome->best.extraction);
  Status written = obs_export.Write();
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
