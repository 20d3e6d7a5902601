#include "core/wrapper_pack.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common/file_util.h"
#include "common/strings.h"
#include "core/wrapper_store.h"

namespace ntw::core {

namespace {

uint64_t Fnv1a(const void* data, size_t size, uint64_t seed = 0xcbf29ce484222325ull) {
  uint64_t hash = seed;
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

void AppendRaw(std::string* out, const void* data, size_t size) {
  out->append(static_cast<const char*>(data), size);
}

constexpr char kSuffix[] = ".wrapper";

}  // namespace

Status WrapperPackBuilder::Add(const std::string& site,
                               const std::string& attribute,
                               const std::string& record) {
  if (site.empty() || attribute.empty()) {
    return Status::InvalidArgument("pack: empty site or attribute name");
  }
  // Normalize: wrapper files end in a newline the record proper does not
  // include — stored records are the exact bytes a repository Entry holds.
  std::string trimmed = record;
  while (!trimmed.empty() &&
         (trimmed.back() == '\n' || trimmed.back() == '\r')) {
    trimmed.pop_back();
  }
  auto parsed = DeserializeWrapper(trimmed);
  if (!parsed.ok()) {
    return Status::ParseError(StrFormat("pack: bad record for %s/%s: %s",
                                        site.c_str(), attribute.c_str(),
                                        parsed.status().message().c_str()));
  }
  auto [it, inserted] = sites_[site].emplace(attribute, std::move(trimmed));
  if (!inserted) {
    return Status::InvalidArgument(StrFormat("pack: duplicate entry %s/%s",
                                             site.c_str(), attribute.c_str()));
  }
  ++entry_count_;
  return Status::OK();
}

std::string WrapperPackBuilder::Build() const {
  std::string strtab;
  std::map<std::string, PackStrRef, std::less<>> interned;
  auto intern = [&](std::string_view s) {
    auto it = interned.find(s);
    if (it != interned.end()) return it->second;
    PackStrRef ref{static_cast<uint32_t>(strtab.size()),
                   static_cast<uint32_t>(s.size())};
    strtab.append(s);
    return interned.emplace(std::string(s), ref).first->second;
  };

  std::vector<PackSiteRec> site_recs;
  std::vector<PackEntryRec> entry_recs;

  for (const auto& [site, attrs] : sites_) {
    PackSiteRec srec{};
    srec.name = intern(site);
    srec.entry_begin = static_cast<uint32_t>(entry_recs.size());
    srec.entry_count = static_cast<uint32_t>(attrs.size());
    for (const auto& [attribute, record] : attrs) {
      entry_recs.push_back(PackEntryRec{intern(attribute), intern(record)});
    }
    site_recs.push_back(srec);
  }

  PackHeader header{};
  std::memcpy(header.magic, kPackMagic, sizeof(header.magic));
  header.version = kPackVersion;
  header.endian = kPackEndian;
  header.site_count = site_recs.size();
  header.entry_count = entry_recs.size();
  header.sites_off = sizeof(PackHeader);
  header.entries_off = header.sites_off + site_recs.size() * sizeof(PackSiteRec);
  header.strtab_off = header.entries_off + entry_recs.size() * sizeof(PackEntryRec);
  header.strtab_len = strtab.size();
  header.file_size = header.strtab_off + strtab.size();

  std::string body;
  body.reserve(static_cast<size_t>(header.file_size) - sizeof(PackHeader));
  for (const PackSiteRec& srec : site_recs) {
    AppendRaw(&body, &srec, sizeof(srec));
  }
  for (const PackEntryRec& erec : entry_recs) {
    AppendRaw(&body, &erec, sizeof(erec));
  }
  body.append(strtab);

  header.body_checksum = Fnv1a(body.data(), body.size());
  header.header_checksum = 0;
  header.header_checksum = Fnv1a(&header, sizeof(header));

  std::string out;
  out.reserve(sizeof(header) + body.size());
  AppendRaw(&out, &header, sizeof(header));
  out.append(body);
  return out;
}

Status WrapperPackBuilder::WriteFile(const std::string& path) const {
  std::string bytes = Build();
  std::string tmp = path + ".tmp";
  FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal(StrFormat("pack: cannot write %s", tmp.c_str()));
  }
  size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  int close_err = std::fclose(f);
  if (written != bytes.size() || close_err != 0) {
    std::remove(tmp.c_str());
    return Status::Internal(StrFormat("pack: short write to %s", tmp.c_str()));
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal(StrFormat("pack: rename to %s failed",
                                      path.c_str()));
  }
  return Status::OK();
}

Result<std::shared_ptr<const WrapperPack>> WrapperPack::Open(
    const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::NotFound(StrFormat("pack: cannot open %s", path.c_str()));
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Status::Internal(StrFormat("pack: cannot stat %s", path.c_str()));
  }
  auto pack = std::shared_ptr<WrapperPack>(new WrapperPack());
  pack->path_ = path;
  pack->map_size_ = static_cast<size_t>(st.st_size);
  // A file too short for a header is left unmapped; ReadHeader rejects it.
  if (pack->map_size_ >= sizeof(PackHeader)) {
    void* map =
        ::mmap(nullptr, pack->map_size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map == MAP_FAILED) {
      ::close(fd);
      return Status::Internal(StrFormat("pack: mmap of %s failed",
                                        path.c_str()));
    }
    pack->map_ = static_cast<const char*>(map);
    pack->mapped_ = true;
  }
  ::close(fd);  // The mapping keeps its own reference.
  NTW_RETURN_IF_ERROR(pack->ReadHeader());
  return std::shared_ptr<const WrapperPack>(std::move(pack));
}

Result<std::shared_ptr<const WrapperPack>> WrapperPack::FromBytes(
    std::string bytes, std::string label) {
  auto pack = std::shared_ptr<WrapperPack>(new WrapperPack());
  pack->path_ = std::move(label);
  pack->owned_ = std::move(bytes);
  pack->map_ = pack->owned_.data();
  pack->map_size_ = pack->owned_.size();
  NTW_RETURN_IF_ERROR(pack->ReadHeader());
  return std::shared_ptr<const WrapperPack>(std::move(pack));
}

Status WrapperPack::ReadHeader() {
  const size_t size = map_size_;
  const char* path = path_.c_str();
  if (size < sizeof(PackHeader)) {
    return Status::ParseError(
        StrFormat("pack: %s is truncated (%zu bytes, header needs %zu)", path,
                  size, sizeof(PackHeader)));
  }
  std::memcpy(&header_, map_, sizeof(PackHeader));
  const PackHeader& h = header_;

  if (std::memcmp(h.magic, kPackMagic, sizeof(kPackMagic)) != 0) {
    // Same family, other format revision (NTWPACK1 or NTWPACK2): name
    // both formats rather than report "bad magic", so the fix is obvious.
    if (std::memcmp(h.magic, kPackMagic, sizeof(kPackMagic) - 1) == 0) {
      return Status::ParseError(StrFormat(
          "pack: %s: format %.8s, expected %.8s (rebuild it with ntw_pack "
          "build)",
          path, h.magic, kPackMagic));
    }
    return Status::ParseError(StrFormat("pack: %s: bad magic", path));
  }
  if (h.version != kPackVersion) {
    return Status::ParseError(StrFormat("pack: %s: version %u, expected %u",
                                        path, h.version, kPackVersion));
  }
  if (h.endian != kPackEndian) {
    return Status::ParseError(StrFormat(
        "pack: %s: endian mismatch (built on a foreign machine)", path));
  }
  if (h.file_size != size) {
    return Status::ParseError(
        StrFormat("pack: %s: header claims %llu bytes, file has %zu", path,
                  static_cast<unsigned long long>(h.file_size), size));
  }
  PackHeader check = h;
  check.header_checksum = 0;
  if (Fnv1a(&check, sizeof(check)) != h.header_checksum) {
    return Status::ParseError(
        StrFormat("pack: %s: header checksum mismatch", path));
  }
  // Sections inside the file bound every count an accessor loops over.
  auto fits = [size](uint64_t off, uint64_t count, uint64_t width) {
    return off <= size && count <= (size - off) / width;
  };
  if (!fits(h.sites_off, h.site_count, sizeof(PackSiteRec)) ||
      !fits(h.entries_off, h.entry_count, sizeof(PackEntryRec)) ||
      !fits(h.strtab_off, h.strtab_len, 1)) {
    return Status::ParseError(
        StrFormat("pack: %s: sections exceed the file", path));
  }
  // Deliberately no body walk here: Open stays O(mmap) so a million-site
  // pack opens without touching its directory pages. Accessors bounds-
  // check everything they read; Verify() does the full-file job.
  return Status::OK();
}

WrapperPack::~WrapperPack() {
  if (mapped_) ::munmap(const_cast<char*>(map_), map_size_);
}

std::string_view WrapperPack::Bytes(uint64_t off, uint64_t len) const {
  if (off > map_size_ || len > map_size_ - off) return {};
  return std::string_view(map_ + off, static_cast<size_t>(len));
}

std::string_view WrapperPack::Str(PackStrRef ref) const {
  if (ref.off > header_.strtab_len ||
      ref.len > header_.strtab_len - ref.off) {
    return {};
  }
  return Bytes(header_.strtab_off + ref.off, ref.len);
}

bool WrapperPack::ReadSite(uint64_t index, PackSiteRec* rec) const {
  if (index >= header_.site_count) return false;
  uint64_t off = header_.sites_off + index * sizeof(PackSiteRec);
  std::string_view bytes = Bytes(off, sizeof(PackSiteRec));
  if (bytes.size() != sizeof(PackSiteRec)) return false;
  std::memcpy(rec, bytes.data(), sizeof(PackSiteRec));
  return true;
}

bool WrapperPack::ReadEntry(uint64_t index, PackEntryRec* rec) const {
  if (index >= header_.entry_count) return false;
  uint64_t off = header_.entries_off + index * sizeof(PackEntryRec);
  std::string_view bytes = Bytes(off, sizeof(PackEntryRec));
  if (bytes.size() != sizeof(PackEntryRec)) return false;
  std::memcpy(rec, bytes.data(), sizeof(PackEntryRec));
  return true;
}

std::string_view WrapperPack::EntryView::attribute() const {
  return pack_->Str(rec_.attribute);
}

std::string_view WrapperPack::EntryView::record() const {
  return pack_->Str(rec_.record);
}

std::string_view WrapperPack::SiteView::name() const {
  return pack_->Str(rec_.name);
}

std::optional<WrapperPack::EntryView> WrapperPack::SiteView::entry(
    size_t i) const {
  if (i >= rec_.entry_count) return std::nullopt;
  PackEntryRec erec;
  if (!pack_->ReadEntry(static_cast<uint64_t>(rec_.entry_begin) + i, &erec)) {
    return std::nullopt;
  }
  return EntryView(pack_, erec);
}

std::optional<WrapperPack::SiteView> WrapperPack::ViewOf(
    PackSiteRec rec, uint64_t ordinal) const {
  // Open() bounded entry_count by the file size, so a view's entry loop
  // is bounded too; a count past the directory would otherwise spin
  // through up to 2^32 failed reads on every lookup.
  if (uint64_t{rec.entry_begin} + rec.entry_count > header_.entry_count) {
    return std::nullopt;
  }
  return SiteView(this, rec, static_cast<size_t>(ordinal));
}

std::optional<WrapperPack::SiteView> WrapperPack::site(size_t index) const {
  PackSiteRec rec;
  if (!ReadSite(index, &rec)) return std::nullopt;
  return ViewOf(rec, index);
}

std::optional<WrapperPack::SiteView> WrapperPack::FindSite(
    std::string_view name) const {
  uint64_t lo = 0;
  uint64_t hi = header_.site_count;
  while (lo < hi) {
    uint64_t mid = lo + (hi - lo) / 2;
    PackSiteRec rec;
    if (!ReadSite(mid, &rec)) return std::nullopt;
    std::string_view mid_name = Str(rec.name);
    if (mid_name < name) {
      lo = mid + 1;
    } else if (name < mid_name) {
      hi = mid;
    } else {
      return ViewOf(rec, mid);
    }
  }
  return std::nullopt;
}

std::optional<WrapperPack::EntryView> WrapperPack::FindEntry(
    std::string_view site, std::string_view attribute) const {
  auto sv = FindSite(site);
  if (!sv.has_value()) return std::nullopt;
  uint64_t lo = sv->rec_.entry_begin;
  uint64_t hi = lo + sv->rec_.entry_count;
  while (lo < hi) {
    uint64_t mid = lo + (hi - lo) / 2;
    PackEntryRec rec;
    if (!ReadEntry(mid, &rec)) return std::nullopt;
    std::string_view mid_attr = Str(rec.attribute);
    if (mid_attr < attribute) {
      lo = mid + 1;
    } else if (attribute < mid_attr) {
      hi = mid;
    } else {
      return EntryView(this, rec);
    }
  }
  return std::nullopt;
}

Status WrapperPack::Verify() const {
  const PackHeader& h = header_;
  std::string_view body = Bytes(sizeof(PackHeader),
                                map_size_ - sizeof(PackHeader));
  if (Fnv1a(body.data(), body.size()) != h.body_checksum) {
    return Status::ParseError(
        StrFormat("pack: %s: body checksum mismatch", path_.c_str()));
  }
  // Strongest structural check available: rebuild the pack from its own
  // records and require bitwise identity — Build() is deterministic, so
  // any divergence in directories, interning, or section offsets shows
  // up as a mismatch.
  WrapperPackBuilder builder;
  for (uint64_t s = 0; s < h.site_count; ++s) {
    auto view = site(static_cast<size_t>(s));
    if (!view.has_value()) {
      return Status::ParseError(StrFormat(
          "pack: %s: site %llu unreadable or out of range", path_.c_str(),
          static_cast<unsigned long long>(s)));
    }
    std::string site_name(view->name());
    for (size_t e = 0; e < view->entry_count(); ++e) {
      auto entry = view->entry(e);
      if (!entry.has_value()) {
        return Status::ParseError(
            StrFormat("pack: %s: entry %zu of site %s unreadable",
                      path_.c_str(), e, site_name.c_str()));
      }
      Status added = builder.Add(site_name, std::string(entry->attribute()),
                                 std::string(entry->record()));
      if (!added.ok()) return added;
    }
  }
  std::string rebuilt = builder.Build();
  if (rebuilt.size() != map_size_ ||
      std::memcmp(rebuilt.data(), map_, map_size_) != 0) {
    return Status::ParseError(StrFormat(
        "pack: %s: contents diverge from a canonical rebuild", path_.c_str()));
  }
  return Status::OK();
}

Status ForEachWrapperFile(
    const std::string& root,
    const std::function<void(const std::string&, const std::string&,
                             const std::string&)>& visit,
    std::vector<std::string>* errors) {
  NTW_ASSIGN_OR_RETURN(std::vector<std::string> site_dirs,
                       ListSubdirectories(root));
  for (const std::string& site_dir : site_dirs) {
    std::string site = std::filesystem::path(site_dir).filename().string();
    Result<std::vector<std::string>> files = ListFiles(site_dir, kSuffix);
    if (!files.ok()) {
      errors->push_back(site_dir + ": " + files.status().ToString());
      continue;
    }
    for (const std::string& file : *files) {
      std::string attribute = std::filesystem::path(file).filename().string();
      attribute.resize(attribute.size() - (sizeof(kSuffix) - 1));
      visit(site, attribute, file);
    }
  }
  return Status::OK();
}

Status AddWrapperTree(const std::string& root, WrapperPackBuilder* builder,
                      std::vector<std::string>* errors) {
  return ForEachWrapperFile(
      root,
      [&](const std::string& site, const std::string& attribute,
          const std::string& path) {
        Result<std::string> record = ReadFile(path);
        Status added = record.ok() ? builder->Add(site, attribute, *record)
                                   : record.status();
        if (!added.ok()) errors->push_back(path + ": " + added.ToString());
      },
      errors);
}

std::string WrapperFilePath(const std::string& root, const std::string& site,
                            const std::string& attribute) {
  return root + "/" + site + "/" + attribute + kSuffix;
}

}  // namespace ntw::core
