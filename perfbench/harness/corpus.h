#ifndef PERFBENCH_HARNESS_CORPUS_H_
#define PERFBENCH_HARNESS_CORPUS_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/wrapper.h"
#include "sitegen/site.h"

namespace perfbench {

/// One serialized wrapper of a repository: `<root>/<site>/<attribute>.wrapper`.
struct WrapperRecord {
  std::string site;
  std::string attribute;
  std::string record;
};

/// Induces a wrapper for `type` from the site's ground truth and returns
/// its serialized record — but only when the compiled wrapper, run on the
/// served bytes of every page (`page_html`), returns exactly that page's
/// true values: the check a deployment makes before publishing. Empty when
/// the site has no such truth or no wrapper passes. Keeping only
/// validated wrappers makes the workload's composition, not the
/// inductor's luck on a seed, decide what is served.
std::string LearnValidatedRecord(const ntw::core::WrapperInductor& inductor,
                                 const ntw::sitegen::GeneratedSite& site,
                                 const std::vector<std::string>& page_html,
                                 const std::string& type);

/// Writes a directory-backend repository tree.
ntw::Status WriteRepository(const std::vector<WrapperRecord>& records,
                            const std::string& root);

/// The text of every ground-truth node of `type`, grouped by page.
std::vector<std::vector<std::string>> TruthByPage(
    const ntw::sitegen::GeneratedSite& site, const std::string& type);

/// Decodes the string array that follows the first `"values":` key of a
/// JSON document (an /extract response or a crawl record line). False when
/// there is none or it is malformed.
bool ParseValues(std::string_view json, std::vector<std::string>* values);

/// Decodes the string value of the first `"key":"..."` member.
bool ParseStringField(std::string_view json, std::string_view key,
                      std::string* out);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_CORPUS_H_
