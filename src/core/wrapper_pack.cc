#include "core/wrapper_pack.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/strings.h"
#include "core/hlrt_inductor.h"
#include "core/lr_inductor.h"
#include "core/wrapper_store.h"
#include "core/xpath_inductor.h"
#include "xpath/ast.h"

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

void AppendU32(std::string* out, uint32_t v) { AppendRaw(out, &v, sizeof(v)); }

void AppendRef(std::string* out, PackStrRef ref) {
  AppendRaw(out, &ref, sizeof(ref));
}

void PadTo8(std::string* out) {
  while (out->size() % 8 != 0) out->push_back('\0');
}

// XPath step flags in the plan blob.
constexpr uint32_t kStepDescendant = 1u << 0;
constexpr uint32_t kStepTestShift = 8;  // bits 8..9: 0 tag, 1 any, 2 text
constexpr uint32_t kStepTestMask = 3u << kStepTestShift;

// Bounded little cursor for decoding plan blobs.
struct Cursor {
  const char* p;
  const char* end;
  bool ok = true;

  uint32_t U32() {
    if (!ok || end - p < 4) {
      ok = false;
      return 0;
    }
    uint32_t v;
    std::memcpy(&v, p, 4);
    p += 4;
    return v;
  }
  PackStrRef Ref() {
    PackStrRef ref;
    ref.off = U32();
    ref.len = U32();
    return ref;
  }
};

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

  std::string plans;
  std::vector<PackSiteRec> site_recs;
  std::vector<PackEntryRec> entry_recs;

  for (const auto& [site, attrs] : sites_) {
    PackSiteRec srec{};
    srec.name = intern(site);
    srec.entry_begin = static_cast<uint32_t>(entry_recs.size());
    srec.entry_count = static_cast<uint32_t>(attrs.size());

    for (const auto& [attribute, record] : attrs) {
      PackEntryRec erec{};
      erec.attribute = intern(attribute);
      erec.record = intern(record);

      auto parsed = DeserializeWrapper(record);
      // Add() already validated; a failure here means the caller mutated
      // state between Add and Build — encode as plan-less.
      const Wrapper* w = parsed.ok() ? parsed.value().get() : nullptr;
      erec.plan_off = plans.size();  // Relative; rebased below.
      if (const auto* lr = dynamic_cast<const LrWrapper*>(w)) {
        erec.plan_kind = kPackPlanLr;
        AppendRef(&plans, intern(lr->left()));
        AppendRef(&plans, intern(lr->right()));
      } else if (const auto* h = dynamic_cast<const HlrtWrapper*>(w)) {
        erec.plan_kind = kPackPlanHlrt;
        AppendRef(&plans, intern(h->head()));
        AppendRef(&plans, intern(h->tail()));
        AppendRef(&plans, intern(h->left()));
        AppendRef(&plans, intern(h->right()));
      } else if (const auto* x = dynamic_cast<const XPathWrapper*>(w)) {
        erec.plan_kind = kPackPlanXPath;
        const auto& steps = x->expr().steps;
        AppendU32(&plans, static_cast<uint32_t>(steps.size()));
        for (const xpath::Step& step : steps) {
          uint32_t flags = 0;
          if (step.axis == xpath::Axis::kDescendant) flags |= kStepDescendant;
          uint32_t test = 0;
          if (step.test == xpath::NodeTest::kAnyElement) test = 1;
          if (step.test == xpath::NodeTest::kText) test = 2;
          flags |= test << kStepTestShift;
          AppendU32(&plans, flags);
          AppendU32(&plans,
                    static_cast<uint32_t>(step.child_number.value_or(-1)));
          AppendRef(&plans, step.test == xpath::NodeTest::kTag
                                ? intern(step.tag)
                                : PackStrRef{});
          AppendU32(&plans, static_cast<uint32_t>(step.attr_filters.size()));
          for (const auto& [name, value] : step.attr_filters) {
            AppendRef(&plans, intern(name));
            AppendRef(&plans, intern(value));
          }
        }
      } else {
        erec.plan_kind = kPackPlanNone;
      }
      erec.plan_len = plans.size() - erec.plan_off;
      entry_recs.push_back(erec);
    }
    site_recs.push_back(srec);
  }
  PadTo8(&plans);

  PackHeader header{};
  std::memcpy(header.magic, kPackMagic, sizeof(header.magic));
  header.version = kPackVersion;
  header.endian = kPackEndian;
  header.site_count = site_recs.size();
  header.entry_count = entry_recs.size();
  header.sites_off = sizeof(PackHeader);
  header.entries_off = header.sites_off + site_recs.size() * sizeof(PackSiteRec);
  header.plans_off = header.entries_off + entry_recs.size() * sizeof(PackEntryRec);
  header.plans_len = plans.size();
  header.strtab_off = header.plans_off + plans.size();
  header.strtab_len = strtab.size();
  header.file_size = header.strtab_off + strtab.size();

  for (PackEntryRec& erec : entry_recs) erec.plan_off += header.plans_off;

  std::string body;
  body.reserve(static_cast<size_t>(header.file_size) - sizeof(PackHeader));
  for (const PackSiteRec& srec : site_recs) {
    AppendRaw(&body, &srec, sizeof(srec));
  }
  for (const PackEntryRec& erec : entry_recs) {
    AppendRaw(&body, &erec, sizeof(erec));
  }
  body.append(plans);
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
  auto size = static_cast<size_t>(st.st_size);
  if (size < sizeof(PackHeader)) {
    ::close(fd);
    return Status::ParseError(
        StrFormat("pack: %s is truncated (%zu bytes, header needs %zu)",
                  path.c_str(), size, sizeof(PackHeader)));
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // The mapping keeps its own reference.
  if (map == MAP_FAILED) {
    return Status::Internal(StrFormat("pack: mmap of %s failed",
                                      path.c_str()));
  }

  auto pack = std::shared_ptr<WrapperPack>(new WrapperPack());
  pack->path_ = path;
  pack->map_ = static_cast<const char*>(map);
  pack->map_size_ = size;
  std::memcpy(&pack->header_, map, sizeof(PackHeader));
  const PackHeader& h = pack->header_;

  if (std::memcmp(h.magic, kPackMagic, sizeof(kPackMagic)) != 0) {
    // Same family, other format revision (an NTWPACK1 file): name both
    // formats rather than report "bad magic", so the fix is obvious.
    if (std::memcmp(h.magic, kPackMagic, sizeof(kPackMagic) - 1) == 0) {
      return Status::ParseError(StrFormat(
          "pack: %s: format %.8s, expected %.8s (rebuild it with ntw_pack "
          "build)",
          path.c_str(), h.magic, kPackMagic));
    }
    return Status::ParseError(StrFormat("pack: %s: bad magic", path.c_str()));
  }
  if (h.version != kPackVersion) {
    return Status::ParseError(
        StrFormat("pack: %s: version %u, expected %u", path.c_str(),
                  h.version, kPackVersion));
  }
  if (h.endian != kPackEndian) {
    return Status::ParseError(
        StrFormat("pack: %s: endian mismatch (built on a foreign machine)",
                  path.c_str()));
  }
  if (h.file_size != size) {
    return Status::ParseError(
        StrFormat("pack: %s: header claims %llu bytes, file has %zu",
                  path.c_str(),
                  static_cast<unsigned long long>(h.file_size), size));
  }
  PackHeader check = h;
  check.header_checksum = 0;
  if (Fnv1a(&check, sizeof(check)) != h.header_checksum) {
    return Status::ParseError(
        StrFormat("pack: %s: header checksum mismatch", path.c_str()));
  }
  // Deliberately no body walk here: Open stays O(mmap) so a million-site
  // pack opens without touching its directory pages. Accessors bounds-
  // check everything they read; Verify() does the full-file job.
  return std::shared_ptr<const WrapperPack>(std::move(pack));
}

WrapperPack::~WrapperPack() {
  if (map_ != nullptr) {
    ::munmap(const_cast<char*>(map_), map_size_);
  }
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

std::shared_ptr<const CompiledWrapper> WrapperPack::EntryView::CompilePlan()
    const {
  std::string_view blob = pack_->Bytes(rec_.plan_off, rec_.plan_len);
  if (blob.size() != rec_.plan_len) return nullptr;
  Cursor cur{blob.data(), blob.data() + blob.size()};
  auto str = [&](PackStrRef ref, std::string* out) {
    std::string_view s = pack_->Str(ref);
    if (s.size() != ref.len) {
      cur.ok = false;
      return;
    }
    out->assign(s);
  };
  switch (rec_.plan_kind) {
    case kPackPlanLr: {
      std::string left, right;
      str(cur.Ref(), &left);
      str(cur.Ref(), &right);
      if (!cur.ok || cur.p != cur.end) return nullptr;
      return CompiledWrapper::MakeLr(std::move(left), std::move(right));
    }
    case kPackPlanHlrt: {
      std::string head, tail, left, right;
      str(cur.Ref(), &head);
      str(cur.Ref(), &tail);
      str(cur.Ref(), &left);
      str(cur.Ref(), &right);
      if (!cur.ok || cur.p != cur.end) return nullptr;
      return CompiledWrapper::MakeHlrt(std::move(head), std::move(tail),
                                       std::move(left), std::move(right));
    }
    case kPackPlanXPath: {
      uint32_t count = cur.U32();
      if (count > (1u << 20)) return nullptr;  // Corruption guard.
      std::vector<CompiledWrapper::XPathStepSpec> specs;
      specs.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        CompiledWrapper::XPathStepSpec spec;
        uint32_t flags = cur.U32();
        spec.descendant = (flags & kStepDescendant) != 0;
        uint32_t test = (flags & kStepTestMask) >> kStepTestShift;
        spec.test = test == 1   ? CompiledWrapper::XPathStepSpec::Test::kAnyElement
                    : test == 2 ? CompiledWrapper::XPathStepSpec::Test::kText
                                : CompiledWrapper::XPathStepSpec::Test::kTag;
        spec.child_number = static_cast<int32_t>(cur.U32());
        PackStrRef tag = cur.Ref();
        if (spec.test == CompiledWrapper::XPathStepSpec::Test::kTag) {
          str(tag, &spec.tag);
        }
        uint32_t attr_count = cur.U32();
        if (attr_count > (1u << 20)) return nullptr;
        for (uint32_t a = 0; cur.ok && a < attr_count; ++a) {
          std::string name, value;
          str(cur.Ref(), &name);
          str(cur.Ref(), &value);
          spec.attr_filters.emplace_back(std::move(name), std::move(value));
        }
        if (!cur.ok) return nullptr;
        specs.push_back(std::move(spec));
      }
      if (!cur.ok || cur.p != cur.end) return nullptr;
      return CompiledWrapper::MakeXPath(specs);
    }
    default:
      return nullptr;
  }
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

std::optional<WrapperPack::SiteView> WrapperPack::site(size_t index) const {
  PackSiteRec rec;
  if (!ReadSite(index, &rec)) return std::nullopt;
  return SiteView(this, rec);
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
      return SiteView(this, rec);
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
  if (hi < lo) return std::nullopt;  // Overflowed count: corrupt.
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
  // any divergence in directories, plan blobs, interning, or padding
  // shows up as a mismatch.
  WrapperPackBuilder builder;
  for (uint64_t s = 0; s < h.site_count; ++s) {
    PackSiteRec srec;
    if (!ReadSite(s, &srec)) {
      return Status::ParseError(
          StrFormat("pack: %s: site %llu unreadable", path_.c_str(),
                    static_cast<unsigned long long>(s)));
    }
    SiteView view(this, srec);
    std::string site_name(view.name());
    for (size_t e = 0; e < view.entry_count(); ++e) {
      auto entry = view.entry(e);
      if (!entry.has_value()) {
        return Status::ParseError(
            StrFormat("pack: %s: entry %zu of site %s unreadable",
                      path_.c_str(), e, site_name.c_str()));
      }
      Status added = builder.Add(site_name, std::string(entry->attribute()),
                                 std::string(entry->record()));
      if (!added.ok()) return added;
      if (entry->plan_kind() != kPackPlanNone &&
          entry->CompilePlan() == nullptr) {
        return Status::ParseError(StrFormat(
            "pack: %s: undecodable plan for %s/%.*s", path_.c_str(),
            site_name.c_str(), static_cast<int>(entry->attribute().size()),
            entry->attribute().data()));
      }
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

}  // namespace ntw::core
