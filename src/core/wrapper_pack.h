#ifndef NTW_CORE_WRAPPER_PACK_H_
#define NTW_CORE_WRAPPER_PACK_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/compiled_wrapper.h"

namespace ntw::core {

/// The wrapper pack (DESIGN.md §15): a single file holding an entire
/// wrapper repository — interned string table, fixed-layout compiled
/// plans (offset-based, no pointers) and a sorted per-site directory —
/// laid out so the serving daemon opens it with one mmap and pages cold
/// sites in on demand. Produced by `ntw_pack build` from a
/// `<site>/<attr>.wrapper` directory; consumed by WrapperRepository's
/// pack backend.
///
/// File layout (NTWPACK2; little/native-endian, guarded by an endian
/// stamp):
///
///   PackHeader                      (checksummed; validated at Open)
///   site directory  [site_count]    sorted by name
///   entry directory [entry_count]   sorted by (site, attribute)
///   plans section                   fixed-layout plan blobs
///   string table                    deduplicated bytes
///
/// Open() validates only the header (magic, version, endian, size,
/// header checksum) — O(mmap), no body pages touched, which is what
/// makes cold RSS sublinear in site count. It rejects NTWPACK1 files
/// with a message naming the format; rebuild them with `ntw_pack build`.
/// Every accessor bounds-checks the refs it follows, so a pack whose
/// body is corrupt can return wrong or missing entries but can never
/// read outside the mapping. `ntw_pack verify` (Verify()) does the full
/// job: body checksum + structural walk + plan cross-checks.

/// Offset+length into the pack's string table.
struct PackStrRef {
  uint32_t off = 0;
  uint32_t len = 0;
};

/// Plan kinds stored in entry records.
enum PackPlanKind : uint32_t {
  kPackPlanXPath = 0,
  kPackPlanLr = 1,
  kPackPlanHlrt = 2,
  kPackPlanNone = 3,  // Record present, no compiled form (interpreter only).
};

struct PackHeader {
  char magic[8];            // "NTWPACK2"
  uint32_t version;         // kPackVersion
  uint32_t endian;          // kPackEndian as written by the producer
  uint64_t file_size;       // Total bytes; must equal the mapped size.
  uint64_t header_checksum; // FNV-1a over the header with this field = 0.
  uint64_t body_checksum;   // FNV-1a over every byte after the header.
  uint64_t site_count;
  uint64_t entry_count;
  uint64_t sites_off;
  uint64_t entries_off;
  uint64_t plans_off;
  uint64_t plans_len;
  uint64_t strtab_off;
  uint64_t strtab_len;
};
static_assert(sizeof(PackHeader) == 104, "fixed on-disk layout");

struct PackSiteRec {
  PackStrRef name;
  uint32_t entry_begin;    // Index into the entry directory.
  uint32_t entry_count;
};
static_assert(sizeof(PackSiteRec) == 16, "fixed on-disk layout");

struct PackEntryRec {
  PackStrRef attribute;
  PackStrRef record;       // Serialized wrapper (wrapper_store format).
  uint32_t plan_kind;      // PackPlanKind
  uint32_t reserved;       // Zero; keeps plan_off 8-aligned.
  uint64_t plan_off;       // Absolute file offset of the plan blob.
  uint64_t plan_len;
};
static_assert(sizeof(PackEntryRec) == 40, "fixed on-disk layout");

inline constexpr char kPackMagic[8] = {'N', 'T', 'W', 'P', 'A', 'C', 'K', '2'};
inline constexpr uint32_t kPackVersion = 2;
inline constexpr uint32_t kPackEndian = 0x01020304;

/// Accumulates (site, attribute, record) triples and serializes the pack.
/// Records are validated (deserialized + plan-compiled) at Add time.
class WrapperPackBuilder {
 public:
  Status Add(const std::string& site, const std::string& attribute,
             const std::string& record);

  /// Serializes everything added so far. Deterministic for a given input
  /// set (iteration order does not matter; directories are sorted).
  std::string Build() const;

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
/// Open. Keep the shared_ptr alive for as long as any view, record
/// string_view, or plan built from it is in use (plans copy their
/// delimiters, but record/attribute views alias the mapping).
class WrapperPack {
 public:
  /// mmaps `path` and validates the header. Fails (never crashes) on
  /// short files, bad magic/version/endian (an NTWPACK1 file included),
  /// size mismatch, or header checksum mismatch.
  static Result<std::shared_ptr<const WrapperPack>> Open(
      const std::string& path);

  ~WrapperPack();
  WrapperPack(const WrapperPack&) = delete;
  WrapperPack& operator=(const WrapperPack&) = delete;

  class SiteView;

  /// One (site, attribute) entry. Accessors return empty views / nullptr
  /// when the underlying refs are out of bounds (corrupt body).
  class EntryView {
   public:
    std::string_view attribute() const;
    std::string_view record() const;
    uint32_t plan_kind() const { return rec_.plan_kind; }

    /// Reconstructs the compiled plan from the fixed-layout blob —
    /// bitwise the plan CompiledWrapper::Compile builds from the same
    /// record. nullptr for kPackPlanNone or a malformed blob.
    std::shared_ptr<const CompiledWrapper> CompilePlan() const;

   private:
    friend class WrapperPack;
    EntryView(const WrapperPack* pack, PackEntryRec rec)
        : pack_(pack), rec_(rec) {}
    const WrapperPack* pack_;
    PackEntryRec rec_;
  };

  class SiteView {
   public:
    std::string_view name() const;
    size_t entry_count() const { return rec_.entry_count; }
    std::optional<EntryView> entry(size_t i) const;

   private:
    friend class WrapperPack;
    SiteView(const WrapperPack* pack, PackSiteRec rec)
        : pack_(pack), rec_(rec) {}
    const WrapperPack* pack_;
    PackSiteRec rec_;
  };

  size_t site_count() const { return static_cast<size_t>(header_.site_count); }
  std::optional<SiteView> site(size_t index) const;
  /// Binary search over the sorted site directory.
  std::optional<SiteView> FindSite(std::string_view name) const;
  std::optional<EntryView> FindEntry(std::string_view site,
                                     std::string_view attribute) const;

  /// Full validation: body checksum, directory sortedness and bounds,
  /// every record deserializable, every plan blob decodable and
  /// consistent with its record. Touches every page (ntw_pack verify —
  /// never on the serving open path).
  Status Verify() const;

  const std::string& path() const { return path_; }
  uint64_t file_size() const { return header_.file_size; }
  const PackHeader& header() const { return header_; }

 private:
  WrapperPack() = default;

  std::string_view Str(PackStrRef ref) const;
  std::string_view Bytes(uint64_t off, uint64_t len) const;
  bool ReadSite(uint64_t index, PackSiteRec* rec) const;
  bool ReadEntry(uint64_t index, PackEntryRec* rec) const;

  std::string path_;
  const char* map_ = nullptr;  // mmap base (read-only).
  size_t map_size_ = 0;
  PackHeader header_{};
};

}  // namespace ntw::core

#endif  // NTW_CORE_WRAPPER_PACK_H_
