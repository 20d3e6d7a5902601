#include "sitegen/origin.h"

#include <utility>

#include "common/file_util.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/hlrt_inductor.h"
#include "core/lr_inductor.h"
#include "core/wrapper_store.h"
#include "core/xpath_inductor.h"
#include "html/serializer.h"
#include "sitegen/chrome.h"
#include "sitegen/list_template.h"
#include "sitegen/vocab.h"

namespace ntw::sitegen {

namespace {

OriginSite MakeOriginSite(Rng* rng, const OriginOptions& options,
                          size_t index) {
  OriginSite out;
  out.key = StrFormat("site_%04zu", index);

  std::string brand = BusinessName(rng);
  SiteAccumulator accumulator(out.key + " (" + brand + ")");
  ChromeTemplate chrome = ChromeTemplate::Random(rng, brand + " Stores");
  ListTemplate list_template = ListTemplate::Random(rng, 3);

  std::vector<std::string> sidebar_items;
  size_t sidebar_count = 2 + rng->NextBounded(4);
  for (size_t i = 0; i < sidebar_count; ++i) {
    sidebar_items.push_back(ManufacturerBrand(rng));
  }

  for (size_t page = 0; page < options.pages_per_site; ++page) {
    PageBuilder builder;
    CityStateZip query = RandomCityStateZip(rng);
    html::Node* body =
        BeginPage(&builder, brand + " - Stores near " + query.zip);
    html::Node* content = RenderChromeTop(&builder, chrome, sidebar_items);

    size_t records =
        options.min_records +
        rng->NextBounded(options.max_records - options.min_records + 1);
    builder.Text(builder.El(content, "h2"),
                 "Found " + std::to_string(records) + " stores near " +
                     query.city + ", " + query.state);

    std::vector<ListRecord> page_records;
    for (size_t i = 0; i < records; ++i) {
      ListRecord record;
      record.fields = {BusinessName(rng), StreetAddress(rng),
                       "Phone: " + PhoneNumber(rng)};
      record.field_types = {"name", "", ""};
      record.present = {true, true, true};
      page_records.push_back(std::move(record));
    }
    list_template.Render(&builder, content, page_records);
    RenderChromeBottom(&builder, body, chrome, rng,
                       {FillerSentence(rng, 10)});
    accumulator.Add(builder.Finish());
  }

  out.site = accumulator.Take();
  out.page_html.reserve(out.site.pages.size());
  for (size_t p = 0; p < out.site.pages.size(); ++p) {
    out.page_html.push_back(html::Serialize(out.site.pages.page(p).root()));
  }
  return out;
}

}  // namespace

std::string OriginCorpus::PageFileName(size_t page) {
  return StrFormat("page_%04zu.html", page);
}

OriginCorpus MakeOriginCorpus(const OriginOptions& options) {
  OriginCorpus corpus;
  corpus.options = options;
  corpus.sites.reserve(options.sites);
  for (size_t s = 0; s < options.sites; ++s) {
    // One Rng per site: adding sites never perturbs earlier ones.
    Rng rng(options.seed * 1000003 + s);
    corpus.sites.push_back(MakeOriginSite(&rng, options, s));
  }
  return corpus;
}

Status WriteOriginTree(const OriginCorpus& corpus, const std::string& root) {
  NTW_RETURN_IF_ERROR(MakeDirs(root));
  std::string index;
  index += "<html><head><title>origin index</title></head><body><ul>\n";
  for (const OriginSite& site : corpus.sites) {
    std::string dir = root + "/" + site.key;
    NTW_RETURN_IF_ERROR(MakeDirs(dir));
    for (size_t p = 0; p < site.page_html.size(); ++p) {
      std::string name = OriginCorpus::PageFileName(p);
      NTW_RETURN_IF_ERROR(WriteFile(dir + "/" + name, site.page_html[p]));
      // Relative hrefs, emitted in (site, page) sorted order — a depth-1
      // crawl of the index discovers pages in the exact order offline
      // LoadPagesFromDirectory reads them.
      index += "<li><a href=\"" + site.key + "/" + name + "\">" + site.key +
               "/" + name + "</a></li>\n";
    }
  }
  index += "</ul></body></html>\n";
  if (corpus.options.write_root_index) {
    NTW_RETURN_IF_ERROR(WriteFile(root + "/index.html", index));
  }
  if (!corpus.options.robots_txt.empty()) {
    NTW_RETURN_IF_ERROR(
        WriteFile(root + "/robots.txt", corpus.options.robots_txt));
  }
  return Status::OK();
}

Status WriteOriginWrapperRepository(const OriginCorpus& corpus,
                                    const std::string& root) {
  core::XPathInductor xpath_inductor;
  core::LrInductor lr_inductor;
  struct Learn {
    const core::WrapperInductor* inductor;
    const char* file;
  };
  NTW_RETURN_IF_ERROR(MakeDirs(root));
  for (const OriginSite& site : corpus.sites) {
    auto truth = site.site.truth.find("name");
    if (truth == site.site.truth.end() || truth->second.empty()) {
      return Status::Internal("origin site " + site.key +
                              " has no 'name' ground truth");
    }
    std::string dir = root + "/" + site.key;
    NTW_RETURN_IF_ERROR(MakeDirs(dir));
    for (const Learn& learn :
         {Learn{&xpath_inductor, "name.wrapper"},
          Learn{&lr_inductor, "name_lr.wrapper"}}) {
      core::Induction induction =
          learn.inductor->Induce(site.site.pages, truth->second);
      if (induction.wrapper == nullptr) {
        return Status::Internal("origin site " + site.key +
                                ": induction failed for " + learn.file);
      }
      NTW_ASSIGN_OR_RETURN(std::string record,
                           core::SerializeWrapper(*induction.wrapper));
      NTW_RETURN_IF_ERROR(
          WriteFile(dir + "/" + learn.file, record + "\n"));
    }
  }
  return Status::OK();
}

Status ForEachSyntheticWrapperRecord(
    const SyntheticRepositoryOptions& options,
    const std::function<Status(const std::string& site,
                               const std::string& attribute,
                               const std::string& record)>& fn) {
  for (size_t s = 0; s < options.sites; ++s) {
    std::string key = StrFormat("site_%06zu", s);
    Rng rng(options.seed * 1000003 + s);
    for (size_t a = 0; a < options.attrs; ++a) {
      // Seed-varied delimiters: enough diversity that per-site delimiter
      // sets differ, enough repetition that the pack's interning has work
      // to do.
      auto variant = static_cast<unsigned long long>(rng.NextBounded(512));
      std::string record;
      switch ((s + a) % 3) {
        case 0: {
          core::LrWrapper wrapper(
              StrFormat("<span class=\"f%llu\">", variant), "</span>");
          NTW_ASSIGN_OR_RETURN(record, core::SerializeWrapper(wrapper));
          break;
        }
        case 1: {
          core::HlrtWrapper wrapper(
              StrFormat("<ul id=\"list%llu\">", variant), "</ul>",
              StrFormat("<li class=\"v%llu\">", variant), "</li>");
          NTW_ASSIGN_OR_RETURN(record, core::SerializeWrapper(wrapper));
          break;
        }
        default: {
          xpath::Expr expr;
          xpath::Step div;
          div.axis = xpath::Axis::kDescendant;
          div.tag = "div";
          div.attr_filters.emplace_back("class",
                                        StrFormat("c%llu", variant));
          xpath::Step li;
          li.tag = "li";
          li.child_number = static_cast<int>(1 + rng.NextBounded(4));
          xpath::Step text;
          text.test = xpath::NodeTest::kText;
          expr.steps = {div, li, text};
          core::XPathWrapper wrapper(std::move(expr));
          NTW_ASSIGN_OR_RETURN(record, core::SerializeWrapper(wrapper));
          break;
        }
      }
      NTW_RETURN_IF_ERROR(
          fn(key, StrFormat("attr_%02zu", a), record + "\n"));
    }
  }
  return Status::OK();
}

Status WriteSyntheticWrapperRepository(
    const SyntheticRepositoryOptions& options, const std::string& root) {
  NTW_RETURN_IF_ERROR(MakeDirs(root));
  std::string last_dir;
  return ForEachSyntheticWrapperRecord(
      options, [&](const std::string& site, const std::string& attribute,
                   const std::string& record) -> Status {
        std::string dir = root + "/" + site;
        if (dir != last_dir) {  // Records arrive grouped by site.
          NTW_RETURN_IF_ERROR(MakeDirs(dir));
          last_dir = dir;
        }
        return WriteFile(dir + "/" + attribute + ".wrapper", record);
      });
}

}  // namespace ntw::sitegen
