#include "crawl/url.h"

#include <algorithm>

#include "common/strings.h"

namespace ntw::crawl {

namespace {

bool IsDigits(std::string_view s) {
  if (s.empty()) return false;
  return std::all_of(s.begin(), s.end(),
                     [](char c) { return c >= '0' && c <= '9'; });
}

}  // namespace

std::string Url::Domain() const {
  if (scheme == "file") return "file";
  return host + ":" + std::to_string(port);
}

std::string Url::Serialize() const {
  std::string out = scheme + "://";
  if (scheme != "file") {
    out += host;
    if (port != 80) {
      out += ':';
      out += std::to_string(port);
    }
  }
  out += path;
  if (!query.empty()) {
    out += '?';
    out += query;
  }
  return out;
}

std::string NormalizePath(std::string_view path) {
  std::vector<std::string_view> kept;
  size_t start = 0;
  while (start <= path.size()) {
    size_t end = path.find('/', start);
    if (end == std::string_view::npos) end = path.size();
    std::string_view segment = path.substr(start, end - start);
    if (segment == "..") {
      if (!kept.empty()) kept.pop_back();
    } else if (!segment.empty() && segment != ".") {
      kept.push_back(segment);
    }
    start = end + 1;
  }
  std::string out;
  for (std::string_view segment : kept) {
    out += '/';
    out += segment;
  }
  if (out.empty()) out.push_back('/');
  // A trailing slash is significant for directory-ish targets (and for
  // robots prefix rules); keep it when the input had one.
  if (path.size() > 1 && path.back() == '/' && out.back() != '/') out += '/';
  return out;
}

Result<Url> ParseUrl(std::string_view spec) {
  size_t hash = spec.find('#');
  if (hash != std::string_view::npos) spec = spec.substr(0, hash);
  size_t scheme_end = spec.find("://");
  if (scheme_end == std::string_view::npos) {
    return Status::InvalidArgument("url '" + std::string(spec) +
                                   "': missing scheme");
  }
  Url url;
  url.scheme = ToLower(std::string(spec.substr(0, scheme_end)));
  std::string_view rest = spec.substr(scheme_end + 3);
  if (url.scheme == "file") {
    // file:///abs/path — an empty authority is required.
    size_t slash = rest.find('/');
    if (slash != 0) {
      return Status::InvalidArgument("url '" + std::string(spec) +
                                     "': file URLs need an absolute path");
    }
  } else if (url.scheme == "http") {
    size_t authority_end = rest.find_first_of("/?");
    std::string_view authority = rest.substr(0, authority_end);
    size_t colon = authority.rfind(':');
    if (colon != std::string_view::npos) {
      std::string_view port_str = authority.substr(colon + 1);
      if (!IsDigits(port_str)) {
        return Status::InvalidArgument("url '" + std::string(spec) +
                                       "': bad port");
      }
      int port = std::atoi(std::string(port_str).c_str());
      if (port < 1 || port > 65535) {
        return Status::InvalidArgument("url '" + std::string(spec) +
                                       "': port out of range");
      }
      url.port = port;
      authority = authority.substr(0, colon);
    }
    if (authority.empty()) {
      return Status::InvalidArgument("url '" + std::string(spec) +
                                     "': empty host");
    }
    url.host = ToLower(std::string(authority));
    rest = authority_end == std::string_view::npos ? std::string_view()
                                                   : rest.substr(authority_end);
  } else {
    return Status::InvalidArgument("url '" + std::string(spec) +
                                   "': unsupported scheme '" + url.scheme +
                                   "'");
  }
  size_t question = rest.find('?');
  std::string_view path = rest.substr(0, question);
  if (question != std::string_view::npos) {
    url.query = std::string(rest.substr(question + 1));
  }
  url.path = NormalizePath(path);
  return url;
}

Result<Url> ResolveUrl(const Url& base, std::string_view href) {
  size_t hash = href.find('#');
  if (hash != std::string_view::npos) href = href.substr(0, hash);
  if (href.empty()) {
    return Status::InvalidArgument("empty href");
  }
  if (href.find("://") != std::string_view::npos) return ParseUrl(href);
  if (href.size() >= 2 && href[0] == '/' && href[1] == '/') {
    return ParseUrl(base.scheme + ":" + std::string(href));
  }
  Url url = base;
  url.query.clear();
  std::string_view path = href;
  size_t question = href.find('?');
  if (question != std::string_view::npos) {
    url.query = std::string(href.substr(question + 1));
    path = href.substr(0, question);
  }
  if (!path.empty() && path[0] == '/') {
    url.path = NormalizePath(path);
    return url;
  }
  // Relative: resolve against the base path's directory.
  std::string directory = base.path.substr(0, base.path.rfind('/') + 1);
  url.path = NormalizePath(directory + std::string(path));
  return url;
}

std::string SiteFromUrl(const Url& url) {
  std::string_view path = url.path;
  size_t leaf = path.rfind('/');
  if (leaf == std::string_view::npos || leaf == 0) return "";
  std::string_view parent = path.substr(0, leaf);
  size_t start = parent.rfind('/');
  return std::string(parent.substr(start + 1));
}

void AppendLinks(std::string_view html, const Url& base,
                 std::vector<Url>* out) {
  // Scan for href= inside <a ...> tags. The corpus the crawler targets is
  // machine-generated markup; a byte scan finds exactly the anchors a DOM
  // walk would, without building a tree on the fetch path.
  size_t pos = 0;
  while ((pos = html.find("<a", pos)) != std::string_view::npos) {
    size_t tag_end = html.find('>', pos);
    if (tag_end == std::string_view::npos) return;
    std::string_view tag = html.substr(pos, tag_end - pos);
    pos = tag_end + 1;
    size_t href = tag.find("href=");
    if (href == std::string_view::npos) continue;
    std::string_view value = tag.substr(href + 5);
    if (value.empty()) continue;
    char quote = value[0];
    if (quote == '"' || quote == '\'') {
      value.remove_prefix(1);
      size_t close = value.find(quote);
      if (close == std::string_view::npos) continue;
      value = value.substr(0, close);
    } else {
      size_t close = value.find_first_of(" \t\r\n>");
      value = value.substr(0, close);
    }
    Result<Url> resolved = ResolveUrl(base, value);
    if (resolved.ok()) out->push_back(std::move(*resolved));
  }
}

bool MatchGlob(std::string_view pattern, std::string_view text) {
  // Iterative two-pointer glob with star backtracking.
  size_t p = 0;
  size_t t = 0;
  size_t star = std::string_view::npos;
  size_t star_text = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '?' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      star_text = t;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      t = ++star_text;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

}  // namespace ntw::crawl
