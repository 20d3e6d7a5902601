#ifndef NTW_CORE_WRAPPER_PACK_H_
#define NTW_CORE_WRAPPER_PACK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace ntw::core {

/// The wrapper pack (DESIGN.md §15): a single file holding an entire
/// wrapper repository — interned string table and a sorted per-site
/// directory of serialized wrapper records — laid out so the serving
/// daemon opens it with one mmap and pages cold sites in on demand.
/// Produced from a `<site>/<attr>.wrapper` directory by `ntw_pack build`
/// (a file) or by WrapperRepository::Load (in memory, when no pack file
/// is given); read by WrapperRepository, which compiles each record it
/// materializes with CompiledWrapper::Compile.
///
/// File layout (NTWPACK3; little/native-endian, guarded by an endian
/// stamp):
///
///   PackHeader                      (checksummed; validated at Open)
///   site directory  [site_count]    sorted by name
///   entry directory [entry_count]   sorted by (site, attribute)
///   string table                    deduplicated bytes
///
/// Open() validates only the header (magic, version, endian, size,
/// section bounds, header checksum) — O(mmap), no body pages touched,
/// which is what makes cold RSS sublinear in site count. It rejects
/// NTWPACK1 and NTWPACK2 files with a message naming the format; rebuild
/// them with `ntw_pack build`. Every accessor bounds-checks the refs it
/// follows, and a site whose entry range leaves the entry directory is a
/// miss, so a pack whose body is corrupt can return wrong or missing
/// entries but can never read outside the mapping or loop past it.
/// `ntw_pack verify` (Verify()) does the full job: body checksum +
/// canonical rebuild.

/// Offset+length into the pack's string table.
struct PackStrRef {
  uint32_t off = 0;
  uint32_t len = 0;
};

struct PackHeader {
  char magic[8];            // "NTWPACK3"
  uint32_t version;         // kPackVersion
  uint32_t endian;          // kPackEndian as written by the producer
  uint64_t file_size;       // Total bytes; must equal the mapped size.
  uint64_t header_checksum; // FNV-1a over the header with this field = 0.
  uint64_t body_checksum;   // FNV-1a over every byte after the header.
  uint64_t site_count;
  uint64_t entry_count;
  uint64_t sites_off;
  uint64_t entries_off;
  uint64_t strtab_off;
  uint64_t strtab_len;
};
static_assert(sizeof(PackHeader) == 88, "fixed on-disk layout");

struct PackSiteRec {
  PackStrRef name;
  uint32_t entry_begin;    // Index into the entry directory.
  uint32_t entry_count;
};
static_assert(sizeof(PackSiteRec) == 16, "fixed on-disk layout");

struct PackEntryRec {
  PackStrRef attribute;
  PackStrRef record;       // Serialized wrapper (wrapper_store format).
};
static_assert(sizeof(PackEntryRec) == 16, "fixed on-disk layout");

inline constexpr char kPackMagic[8] = {'N', 'T', 'W', 'P', 'A', 'C', 'K', '3'};
inline constexpr uint32_t kPackVersion = 3;
inline constexpr uint32_t kPackEndian = 0x01020304;

/// Accumulates (site, attribute, record) triples and serializes the pack.
/// Records are validated (deserialized) at Add time.
class WrapperPackBuilder {
 public:
  Status Add(const std::string& site, const std::string& attribute,
             const std::string& record);

  /// Serializes everything added so far. Deterministic for a given input
  /// set (iteration order does not matter; directories are sorted).
  std::string Build() const;

  /// site → attribute → record, as added so far.
  const auto& records() const { return sites_; }

  /// Build() + atomic write (temp file + rename).
  Status WriteFile(const std::string& path) const;

  size_t site_count() const { return sites_.size(); }
  size_t entry_count() const { return entry_count_; }

 private:
  // site → attribute → serialized record.
  std::map<std::string, std::map<std::string, std::string>> sites_;
  size_t entry_count_ = 0;
};

/// A read-only mapped pack. Thread-safe: all state is immutable after
/// Open. Keep the shared_ptr alive for as long as any view or record
/// string_view from it is in use (record/attribute views alias the
/// mapping).
class WrapperPack {
 public:
  /// mmaps `path` and validates the header. Fails (never crashes) on
  /// short files, bad magic/version/endian (NTWPACK1 and NTWPACK2 files
  /// included), size mismatch, sections outside the file, or header
  /// checksum mismatch.
  static Result<std::shared_ptr<const WrapperPack>> Open(
      const std::string& path);

  /// The in-memory form over WrapperPackBuilder::Build() bytes: Open's
  /// header checks, no file. `label` stands in for path().
  static Result<std::shared_ptr<const WrapperPack>> FromBytes(
      std::string bytes, std::string label);

  ~WrapperPack();
  WrapperPack(const WrapperPack&) = delete;
  WrapperPack& operator=(const WrapperPack&) = delete;

  class SiteView;

  /// One (site, attribute) entry. Accessors return empty views when the
  /// underlying refs are out of bounds (corrupt body).
  class EntryView {
   public:
    std::string_view attribute() const;
    std::string_view record() const;

   private:
    friend class WrapperPack;
    EntryView(const WrapperPack* pack, PackEntryRec rec)
        : pack_(pack), rec_(rec) {}
    const WrapperPack* pack_;
    PackEntryRec rec_;
  };

  /// A site whose entry range lies inside the entry directory; site() and
  /// FindSite() build no other.
  class SiteView {
   public:
    std::string_view name() const;
    /// The site's index in the sorted site directory.
    size_t ordinal() const { return ordinal_; }
    size_t entry_count() const { return rec_.entry_count; }
    std::optional<EntryView> entry(size_t i) const;

   private:
    friend class WrapperPack;
    SiteView(const WrapperPack* pack, PackSiteRec rec, size_t ordinal)
        : pack_(pack), rec_(rec), ordinal_(ordinal) {}
    const WrapperPack* pack_;
    PackSiteRec rec_;
    size_t ordinal_;
  };

  size_t site_count() const { return static_cast<size_t>(header_.site_count); }
  std::optional<SiteView> site(size_t index) const;
  /// Binary search over the sorted site directory.
  std::optional<SiteView> FindSite(std::string_view name) const;
  std::optional<EntryView> FindEntry(std::string_view site,
                                     std::string_view attribute) const;

  /// Full validation: body checksum, every site's entry range in bounds,
  /// every record deserializable, and a canonical rebuild from the
  /// records that must equal the file byte for byte (which also pins
  /// directory order and interning). Touches every page (ntw_pack verify
  /// — never on the serving open path).
  Status Verify() const;

  const std::string& path() const { return path_; }
  uint64_t file_size() const { return header_.file_size; }
  const PackHeader& header() const { return header_; }

 private:
  WrapperPack() = default;

  /// Open's and FromBytes' one set of header checks over map_/map_size_.
  Status ReadHeader();
  std::string_view Str(PackStrRef ref) const;
  std::string_view Bytes(uint64_t off, uint64_t len) const;
  // The view of a site record, or nullopt when its entry range leaves
  // the entry directory.
  std::optional<SiteView> ViewOf(PackSiteRec rec, uint64_t ordinal) const;
  bool ReadSite(uint64_t index, PackSiteRec* rec) const;
  bool ReadEntry(uint64_t index, PackEntryRec* rec) const;

  std::string path_;
  const char* map_ = nullptr;  // Pack bytes: the mapping, or owned_.
  size_t map_size_ = 0;
  bool mapped_ = false;        // map_ is an mmap to release.
  std::string owned_;          // FromBytes' storage.
  PackHeader header_{};
};

/// The one walk over a `<root>/<site>/<attribute>.wrapper` tree: calls
/// `visit(site, attribute, path)` per file, ascending. Errors (one
/// "path: status" per unlistable site) go to `errors`; NotFound when
/// `root` is not a directory.
Status ForEachWrapperFile(
    const std::string& root,
    const std::function<void(const std::string&, const std::string&,
                             const std::string&)>& visit,
    std::vector<std::string>* errors);

/// Adds every record of the tree to `builder`; an unreadable file or a
/// rejected record is skipped and reported as "path: status".
Status AddWrapperTree(const std::string& root, WrapperPackBuilder* builder,
                      std::vector<std::string>* errors);

/// `<root>/<site>/<attribute>.wrapper`: where the walk finds a record.
std::string WrapperFilePath(const std::string& root, const std::string& site,
                            const std::string& attribute);

}  // namespace ntw::core

#endif  // NTW_CORE_WRAPPER_PACK_H_
