#include "harness/corpus.h"

#include <memory>

#include "common/file_util.h"
#include "core/compiled_wrapper.h"
#include "core/wrapper_store.h"

namespace perfbench {

using namespace ntw;

std::string LearnValidatedRecord(const core::WrapperInductor& inductor,
                                 const sitegen::GeneratedSite& site,
                                 const std::vector<std::string>& page_html,
                                 const std::string& type) {
  auto truth = site.truth.find(type);
  if (truth == site.truth.end() || truth->second.empty()) return "";
  core::Induction induction = inductor.Induce(site.pages, truth->second);
  if (induction.wrapper == nullptr) return "";
  std::shared_ptr<const core::CompiledWrapper> plan =
      core::CompiledWrapper::Compile(*induction.wrapper);
  if (plan == nullptr) return "";
  std::vector<std::vector<std::string>> expected = TruthByPage(site, type);
  core::StreamPageBuffer buffer;
  for (size_t p = 0; p < page_html.size(); ++p) {
    plan->ExtractStreaming(page_html[p], buffer, &buffer.values);
    std::vector<std::string> values(buffer.values.begin(), buffer.values.end());
    buffer.Clear();
    if (values != expected[p]) return "";
  }
  Result<std::string> record = core::SerializeWrapper(*induction.wrapper);
  return record.ok() ? *record : "";
}

Status WriteRepository(const std::vector<WrapperRecord>& records,
                       const std::string& root) {
  for (const WrapperRecord& record : records) {
    std::string dir = root + "/" + record.site;
    NTW_RETURN_IF_ERROR(MakeDirs(dir));
    NTW_RETURN_IF_ERROR(WriteFile(dir + "/" + record.attribute + ".wrapper",
                                  record.record + "\n"));
  }
  return Status::OK();
}

std::vector<std::vector<std::string>> TruthByPage(
    const sitegen::GeneratedSite& site, const std::string& type) {
  std::vector<std::vector<std::string>> out(site.pages.size());
  auto truth = site.truth.find(type);
  if (truth == site.truth.end()) return out;
  for (const core::NodeRef& ref : truth->second) {
    const html::Node* node = site.pages.Resolve(ref);
    if (node != nullptr) out[static_cast<size_t>(ref.page)].push_back(node->text());
  }
  return out;
}

namespace {

void AppendUtf8(uint32_t cp, std::string* out) {
  if (cp < 0x80) {
    out->push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

// Parses the JSON string starting at json[*pos] == '"'; advances past it.
bool ParseString(std::string_view json, size_t* pos, std::string* out) {
  size_t i = *pos + 1;
  out->clear();
  while (i < json.size() && json[i] != '"') {
    char c = json[i++];
    if (c != '\\') {
      out->push_back(c);
      continue;
    }
    if (i >= json.size()) return false;
    char e = json[i++];
    switch (e) {
      case 'n': out->push_back('\n'); break;
      case 't': out->push_back('\t'); break;
      case 'r': out->push_back('\r'); break;
      case 'b': out->push_back('\b'); break;
      case 'f': out->push_back('\f'); break;
      case 'u': {
        if (i + 4 > json.size()) return false;
        uint32_t cp = static_cast<uint32_t>(
            std::stoul(std::string(json.substr(i, 4)), nullptr, 16));
        i += 4;
        if (cp >= 0xD800 && cp < 0xDC00 && i + 6 <= json.size() &&
            json[i] == '\\' && json[i + 1] == 'u') {
          uint32_t low = static_cast<uint32_t>(
              std::stoul(std::string(json.substr(i + 2, 4)), nullptr, 16));
          cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          i += 6;
        }
        AppendUtf8(cp, out);
        break;
      }
      default: out->push_back(e); break;  // \" \\ \/
    }
  }
  if (i >= json.size()) return false;
  *pos = i + 1;
  return true;
}

}  // namespace

bool ParseValues(std::string_view json, std::vector<std::string>* values) {
  values->clear();
  size_t pos = json.find("\"values\":[");
  if (pos == std::string_view::npos) return false;
  pos += 10;
  std::string value;
  while (pos < json.size()) {
    if (json[pos] == ']') return true;
    if (json[pos] == ',') {
      ++pos;
      continue;
    }
    if (json[pos] != '"' || !ParseString(json, &pos, &value)) return false;
    values->push_back(value);
  }
  return false;
}

bool ParseStringField(std::string_view json, std::string_view key,
                      std::string* out) {
  std::string needle = "\"" + std::string(key) + "\":\"";
  size_t pos = json.find(needle);
  if (pos == std::string_view::npos) return false;
  pos += needle.size() - 1;
  return ParseString(json, &pos, out);
}

}  // namespace perfbench
