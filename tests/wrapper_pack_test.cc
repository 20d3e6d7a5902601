// Wrapper-pack tests (DESIGN.md §15): build→open roundtrip identity
// against the directory backend, deterministic rebuilds, clean rejection
// of truncated / bit-flipped / version-mismatched packs and of NTWPACK1
// files (no crash, no out-of-bounds reads under ASan), the repository's
// directory fallback
// when a pack is corrupt, lazy pack materialization, overlay publishes on
// a pack backend, and incremental directory reloads that reuse unchanged
// entries by pointer.

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/file_util.h"
#include "common/strings.h"
#include "core/compiled_wrapper.h"
#include "core/lr_inductor.h"
#include "core/wrapper.h"
#include "core/wrapper_pack.h"
#include "core/wrapper_store.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "serve/wrapper_repository.h"
#include "sitegen/origin.h"

namespace ntw {
namespace {

constexpr char kSuffix[] = ".wrapper";

// Matches the FNV-1a the pack uses for its header checksum, so the test
// can patch header fields (version) and re-seal the checksum to prove the
// field itself is what gets rejected.
uint64_t Fnv1a(const void* data, size_t size) {
  uint64_t hash = 0xcbf29ce484222325ull;
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

class WrapperPackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    work_ = (std::filesystem::temp_directory_path() /
             ("ntw_pack_test_" +
              std::to_string(reinterpret_cast<uintptr_t>(this))))
                .string();
    std::filesystem::remove_all(work_);
    std::filesystem::create_directories(work_);
  }

  void TearDown() override { std::filesystem::remove_all(work_); }

  // A small synthetic repository covering all three plan kinds.
  std::string WriteRepo(size_t sites = 9, size_t attrs = 3,
                        uint64_t seed = 17) {
    std::string root = work_ + "/repo";
    sitegen::SyntheticRepositoryOptions options;
    options.sites = sites;
    options.attrs = attrs;
    options.seed = seed;
    Status wrote = sitegen::WriteSyntheticWrapperRepository(options, root);
    EXPECT_TRUE(wrote.ok()) << wrote.ToString();
    return root;
  }

  // The same walk ntw_pack build does.
  core::WrapperPackBuilder BuildFromDir(const std::string& root) {
    core::WrapperPackBuilder builder;
    auto site_dirs = ListSubdirectories(root);
    EXPECT_TRUE(site_dirs.ok());
    for (const std::string& site_dir : *site_dirs) {
      std::string site = std::filesystem::path(site_dir).filename().string();
      auto files = ListFiles(site_dir, kSuffix);
      EXPECT_TRUE(files.ok());
      for (const std::string& file : *files) {
        std::string attr = std::filesystem::path(file).filename().string();
        attr.resize(attr.size() - (sizeof(kSuffix) - 1));
        auto record = ReadFile(file);
        EXPECT_TRUE(record.ok());
        Status added = builder.Add(site, attr, *record);
        EXPECT_TRUE(added.ok()) << file << ": " << added.ToString();
      }
    }
    return builder;
  }

  std::string PackFromRepo(const std::string& root) {
    std::string path = work_ + "/wrappers.pack";
    core::WrapperPackBuilder builder = BuildFromDir(root);
    Status wrote = builder.WriteFile(path);
    EXPECT_TRUE(wrote.ok()) << wrote.ToString();
    return path;
  }

  std::string work_;
};

std::string Trimmed(std::string record) {
  while (!record.empty() &&
         (record.back() == '\n' || record.back() == '\r')) {
    record.pop_back();
  }
  return record;
}

TEST_F(WrapperPackTest, RoundtripMatchesDirectoryBackend) {
  std::string root = WriteRepo();
  std::string path = PackFromRepo(root);

  auto pack = core::WrapperPack::Open(path);
  ASSERT_TRUE(pack.ok()) << pack.status().ToString();
  EXPECT_EQ((*pack)->site_count(), 9u);
  EXPECT_TRUE((*pack)->Verify().ok()) << (*pack)->Verify().ToString();

  auto site_dirs = ListSubdirectories(root);
  ASSERT_TRUE(site_dirs.ok());
  for (const std::string& site_dir : *site_dirs) {
    std::string site = std::filesystem::path(site_dir).filename().string();
    auto files = ListFiles(site_dir, kSuffix);
    ASSERT_TRUE(files.ok());
    for (const std::string& file : *files) {
      std::string attr = std::filesystem::path(file).filename().string();
      attr.resize(attr.size() - (sizeof(kSuffix) - 1));
      auto on_disk = ReadFile(file);
      ASSERT_TRUE(on_disk.ok());

      auto entry = (*pack)->FindEntry(site, attr);
      ASSERT_TRUE(entry.has_value()) << site << "/" << attr;
      EXPECT_EQ(entry->record(), Trimmed(*on_disk));

      // The pack's fixed-layout plan must agree with the plan compiled
      // from the record.
      auto record = core::DeserializeWrapper(std::string(entry->record()));
      ASSERT_TRUE(record.ok());
      auto compiled = core::CompiledWrapper::Compile(**record);
      auto from_pack = entry->CompilePlan();
      if (compiled == nullptr) {
        EXPECT_EQ(from_pack, nullptr);
        continue;
      }
      ASSERT_NE(from_pack, nullptr) << site << "/" << attr;
      EXPECT_STREQ(from_pack->plan_kind(), compiled->plan_kind());
      EXPECT_EQ(from_pack->left(), compiled->left());
      EXPECT_EQ(from_pack->right(), compiled->right());
      EXPECT_EQ(from_pack->head(), compiled->head());
      EXPECT_EQ(from_pack->tail(), compiled->tail());
      if (compiled->dom_free()) {
        std::string page = "x" + compiled->head() + compiled->left() +
                           "alpha" + compiled->right() + compiled->left() +
                           "beta" + compiled->right() + compiled->tail() +
                           "y";
        core::StreamPageBuffer a, b;
        std::vector<std::string_view> va, vb;
        compiled->ExtractStreaming(page, a, &va);
        from_pack->ExtractStreaming(page, b, &vb);
        ASSERT_EQ(va.size(), vb.size());
        for (size_t i = 0; i < va.size(); ++i) EXPECT_EQ(va[i], vb[i]);
        EXPECT_GE(va.size(), 1u);  // The synthetic page must actually hit.
      }
    }
  }
}

TEST_F(WrapperPackTest, BuildIsDeterministicAndOrderInsensitive) {
  std::string root = WriteRepo(6, 2);
  core::WrapperPackBuilder forward = BuildFromDir(root);

  // Re-add everything in reverse iteration order.
  core::WrapperPackBuilder reverse;
  auto site_dirs = ListSubdirectories(root);
  ASSERT_TRUE(site_dirs.ok());
  for (auto site_it = site_dirs->rbegin(); site_it != site_dirs->rend();
       ++site_it) {
    std::string site = std::filesystem::path(*site_it).filename().string();
    auto files = ListFiles(*site_it, kSuffix);
    ASSERT_TRUE(files.ok());
    for (auto it = files->rbegin(); it != files->rend(); ++it) {
      std::string attr = std::filesystem::path(*it).filename().string();
      attr.resize(attr.size() - (sizeof(kSuffix) - 1));
      auto record = ReadFile(*it);
      ASSERT_TRUE(record.ok());
      ASSERT_TRUE(reverse.Add(site, attr, *record).ok());
    }
  }
  EXPECT_EQ(forward.Build(), reverse.Build());
  EXPECT_EQ(forward.Build(), forward.Build());
}

// bench_repo skips the directory intermediate and streams the synthetic
// records straight into the builder; the pack it measures must be the
// exact pack a written tree produces.
TEST_F(WrapperPackTest, InMemoryRecordStreamMatchesWrittenTree) {
  sitegen::SyntheticRepositoryOptions options;
  options.sites = 7;
  options.attrs = 3;
  options.seed = 41;
  std::string root = work_ + "/repo";
  ASSERT_TRUE(sitegen::WriteSyntheticWrapperRepository(options, root).ok());
  core::WrapperPackBuilder from_dir = BuildFromDir(root);

  core::WrapperPackBuilder from_memory;
  Status streamed = sitegen::ForEachSyntheticWrapperRecord(
      options, [&](const std::string& site, const std::string& attribute,
                   const std::string& record) {
        return from_memory.Add(site, attribute, record);
      });
  ASSERT_TRUE(streamed.ok()) << streamed.ToString();

  EXPECT_EQ(from_memory.entry_count(), from_dir.entry_count());
  EXPECT_EQ(from_memory.Build(), from_dir.Build());
}

TEST_F(WrapperPackTest, OpenRejectsTruncation) {
  std::string path = PackFromRepo(WriteRepo(4, 2));
  auto bytes = ReadFile(path);
  ASSERT_TRUE(bytes.ok());
  std::string truncated_path = work_ + "/truncated.pack";
  for (size_t len :
       {size_t{0}, size_t{1}, sizeof(core::PackHeader) - 1,
        sizeof(core::PackHeader), sizeof(core::PackHeader) + 16,
        bytes->size() / 2, bytes->size() - 1}) {
    ASSERT_TRUE(WriteFile(truncated_path, bytes->substr(0, len)).ok());
    auto pack = core::WrapperPack::Open(truncated_path);
    EXPECT_FALSE(pack.ok()) << "len=" << len;
  }
}

TEST_F(WrapperPackTest, OpenRejectsHeaderCorruption) {
  std::string path = PackFromRepo(WriteRepo(4, 2));
  auto bytes = ReadFile(path);
  ASSERT_TRUE(bytes.ok());
  std::string flipped_path = work_ + "/flipped.pack";
  // Every header byte is covered by magic/endian/size checks or the
  // header checksum; any single-bit flip must be rejected.
  for (size_t i = 0; i < sizeof(core::PackHeader); ++i) {
    std::string flipped = *bytes;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x10);
    ASSERT_TRUE(WriteFile(flipped_path, flipped).ok());
    auto pack = core::WrapperPack::Open(flipped_path);
    EXPECT_FALSE(pack.ok()) << "header byte " << i;
  }
}

TEST_F(WrapperPackTest, OpenRejectsVersionMismatchEvenWhenResealed) {
  std::string path = PackFromRepo(WriteRepo(4, 2));
  auto bytes = ReadFile(path);
  ASSERT_TRUE(bytes.ok());
  core::PackHeader header;
  std::memcpy(&header, bytes->data(), sizeof(header));
  header.version = core::kPackVersion + 1;
  header.header_checksum = 0;
  header.header_checksum = Fnv1a(&header, sizeof(header));
  std::string patched = *bytes;
  std::memcpy(patched.data(), &header, sizeof(header));
  std::string patched_path = work_ + "/future.pack";
  ASSERT_TRUE(WriteFile(patched_path, patched).ok());
  auto pack = core::WrapperPack::Open(patched_path);
  EXPECT_FALSE(pack.ok());
}

// The NTWPACK1 header: NTWPACK2's plus the offset and length of the
// per-site automata section NTWPACK1 carried (120 bytes).
struct PackHeaderV1 {
  char magic[8];
  uint32_t version;
  uint32_t endian;
  uint64_t file_size;
  uint64_t header_checksum;
  uint64_t body_checksum;
  uint64_t site_count;
  uint64_t entry_count;
  uint64_t sites_off;
  uint64_t entries_off;
  uint64_t plans_off;
  uint64_t plans_len;
  uint64_t automata_off;
  uint64_t automata_len;
  uint64_t strtab_off;
  uint64_t strtab_len;
};
static_assert(sizeof(PackHeaderV1) == 120, "NTWPACK1 on-disk layout");

TEST_F(WrapperPackTest, OpenRejectsFormatV1PackEvenWhenSealed) {
  // A well-formed, sealed NTWPACK1 file (no sites, empty sections): Open
  // must refuse it by name rather than read it through the NTWPACK2
  // layout.
  PackHeaderV1 header{};
  std::memcpy(header.magic, "NTWPACK1", sizeof(header.magic));
  header.version = 1;
  header.endian = core::kPackEndian;
  header.file_size = sizeof(header);
  header.sites_off = header.entries_off = header.plans_off =
      header.automata_off = header.strtab_off = sizeof(header);
  header.body_checksum = Fnv1a("", 0);
  header.header_checksum = Fnv1a(&header, sizeof(header));
  std::string v1_path = work_ + "/v1.pack";
  ASSERT_TRUE(
      WriteFile(v1_path, std::string(reinterpret_cast<const char*>(&header),
                                     sizeof(header)))
          .ok());
  auto pack = core::WrapperPack::Open(v1_path);
  ASSERT_FALSE(pack.ok());
  EXPECT_NE(pack.status().ToString().find("NTWPACK1"), std::string::npos)
      << pack.status().ToString();
}

TEST_F(WrapperPackTest, VerifyRejectsBodyCorruption) {
  std::string path = PackFromRepo(WriteRepo(4, 2));
  auto bytes = ReadFile(path);
  ASSERT_TRUE(bytes.ok());
  std::string flipped_path = work_ + "/body_flip.pack";
  size_t body = sizeof(core::PackHeader);
  for (size_t probe = 0; probe < 16; ++probe) {
    size_t offset = body + probe * (bytes->size() - body - 1) / 15;
    std::string flipped = *bytes;
    flipped[offset] = static_cast<char>(flipped[offset] ^ 0x01);
    ASSERT_TRUE(WriteFile(flipped_path, flipped).ok());
    // The header is intact, so Open (which must stay O(mmap)) succeeds;
    // the full Verify walk is what catches the damage.
    auto pack = core::WrapperPack::Open(flipped_path);
    ASSERT_TRUE(pack.ok()) << "offset " << offset;
    EXPECT_FALSE((*pack)->Verify().ok()) << "offset " << offset;
  }
}

TEST_F(WrapperPackTest, CorruptBodyNeverCrashesAccessors) {
  std::string path = PackFromRepo(WriteRepo(6, 3));
  auto bytes = ReadFile(path);
  ASSERT_TRUE(bytes.ok());
  std::mt19937_64 rng(20260809);
  std::string corrupt_path = work_ + "/corrupt.pack";
  for (int round = 0; round < 64; ++round) {
    std::string corrupt = *bytes;
    size_t flips = 1 + rng() % 8;
    for (size_t f = 0; f < flips; ++f) {
      size_t offset =
          sizeof(core::PackHeader) +
          rng() % (corrupt.size() - sizeof(core::PackHeader));
      corrupt[offset] =
          static_cast<char>(corrupt[offset] ^ (1u << (rng() % 8)));
    }
    ASSERT_TRUE(WriteFile(corrupt_path, corrupt).ok());
    auto pack = core::WrapperPack::Open(corrupt_path);
    if (!pack.ok()) continue;  // Flip landed where a bounds check trips.
    // Every accessor must stay inside the mapping no matter what the
    // body says (wrong results are fine; reads outside are not — ASan
    // is the judge here).
    for (size_t s = 0; s < (*pack)->site_count(); ++s) {
      auto site = (*pack)->site(s);
      if (!site.has_value()) continue;
      (void)site->name();
      for (size_t e = 0; e < site->entry_count(); ++e) {
        auto entry = site->entry(e);
        if (!entry.has_value()) continue;
        (void)entry->attribute();
        (void)entry->record();
        auto plan = entry->CompilePlan();
        if (plan != nullptr && plan->dom_free()) {
          core::StreamPageBuffer buffer;
          std::vector<std::string_view> values;
          plan->ExtractStreaming("<b>page</b>", buffer, &values);
        }
      }
    }
    (void)(*pack)->FindEntry("site_000001", "attr_00");
    (void)(*pack)->Verify();
  }
}

TEST_F(WrapperPackTest, RepositoryFallsBackToDirectoryOnCorruptPack) {
  std::string root = WriteRepo(4, 2);
  std::string bad_pack = work_ + "/bad.pack";
  ASSERT_TRUE(WriteFile(bad_pack, "this is not a pack file").ok());

  serve::WrapperRepository repository(
      serve::WrapperRepository::Options{root, bad_pack});
  Status loaded = repository.Load();
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  auto pinned = repository.Pin();
  EXPECT_EQ(pinned->pack, nullptr);
  EXPECT_FALSE(pinned->errors.empty());  // The fallback is logged.
  const auto* entry = pinned->Find("site_000000", "attr_00");
  ASSERT_NE(entry, nullptr);
  EXPECT_FALSE(entry->record.empty());
}

TEST_F(WrapperPackTest, PackBackendMaterializesLazilyAndCaches) {
  std::string root = WriteRepo(8, 2);
  std::string path = PackFromRepo(root);

  serve::WrapperRepository repository(
      serve::WrapperRepository::Options{std::string(), path});
  ASSERT_TRUE(repository.Load().ok());
  auto pinned = repository.Pin();
  ASSERT_NE(pinned->pack, nullptr);
  EXPECT_EQ(pinned->TotalWrapperCount(), 16u);
  EXPECT_TRUE(pinned->CachedEntries().empty());

  const auto* entry = pinned->Find("site_000003", "attr_01");
  ASSERT_NE(entry, nullptr);
  auto on_disk = ReadFile(root + "/site_000003/attr_01.wrapper");
  ASSERT_TRUE(on_disk.ok());
  EXPECT_EQ(entry->record, Trimmed(*on_disk));
  EXPECT_EQ(pinned->CachedEntries().size(), 1u);
  // Second hit returns the cached entry, same object.
  EXPECT_EQ(pinned->Find("site_000003", "attr_01"), entry);
  // Unknown pairs are true misses.
  EXPECT_EQ(pinned->Find("site_000003", "attr_99"), nullptr);
  EXPECT_EQ(pinned->Find("no_such_site", "attr_00"), nullptr);

  // MaterializeSite sees every attribute, ascending.
  auto all = pinned->MaterializeSite("site_000003");
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].first, "attr_00");
  EXPECT_EQ(all[1].first, "attr_01");
  EXPECT_EQ(all[1].second, entry);
}

TEST_F(WrapperPackTest, PublishOverlaysThePackBackend) {
  std::string path = PackFromRepo(WriteRepo(4, 2));
  serve::WrapperRepository repository(
      serve::WrapperRepository::Options{std::string(), path});
  ASSERT_TRUE(repository.Load().ok());

  core::LrWrapper repaired("<em>", "</em>");
  auto record = core::SerializeWrapper(repaired);
  ASSERT_TRUE(record.ok());
  auto wrapper = core::DeserializeWrapper(*record);
  ASSERT_TRUE(wrapper.ok());
  // Pack-only mode: the publish is in-memory (no root to persist to).
  Status published =
      repository.PublishWrapper("site_000001", "attr_00", *wrapper);
  ASSERT_TRUE(published.ok()) << published.ToString();

  auto pinned = repository.Pin();
  ASSERT_NE(pinned->pack, nullptr);  // The mapping survives the publish.
  const auto* entry = pinned->Find("site_000001", "attr_00");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->record, *record);  // Overlay shadows the pack record.
  ASSERT_NE(entry->compiled, nullptr);
  EXPECT_EQ(entry->compiled->left(), "<em>");
  // Untouched pairs still come from the pack.
  EXPECT_NE(pinned->Find("site_000002", "attr_01"), nullptr);
}

TEST_F(WrapperPackTest, IncrementalReloadReusesUnchangedEntries) {
  std::string root = WriteRepo(3, 2);
  serve::WrapperRepository repository(root);
  ASSERT_TRUE(repository.Load().ok());
  auto* reused =
      obs::Registry::Global().GetCounter("ntw.repo.reload_entries_reused");

  std::shared_ptr<const core::CompiledWrapper> kept;
  std::shared_ptr<const core::CompiledWrapper> replaced;
  {
    auto pinned = repository.Pin();
    kept = pinned->Find("site_000000", "attr_00")->compiled;
    replaced = pinned->Find("site_000001", "attr_00")->compiled;
    ASSERT_NE(kept, nullptr);
    ASSERT_NE(replaced, nullptr);
  }

  // Rewrite one record with different bytes (size changes, so the
  // (mtime, size) fingerprint flips even within mtime granularity).
  core::LrWrapper changed("<section id=\"swapped\">", "</section>");
  auto record = core::SerializeWrapper(changed);
  ASSERT_TRUE(record.ok());
  ASSERT_TRUE(
      WriteFile(root + "/site_000001/attr_00.wrapper", *record + "\n").ok());

  int64_t reused_before = reused->value();
  ASSERT_TRUE(repository.Load().ok());
  auto pinned = repository.Pin();
  // Unchanged files reuse the previous snapshot's parsed plan by pointer;
  // the touched file gets a fresh one.
  EXPECT_EQ(pinned->Find("site_000000", "attr_00")->compiled.get(),
            kept.get());
  const auto* swapped = pinned->Find("site_000001", "attr_00");
  ASSERT_NE(swapped, nullptr);
  EXPECT_NE(swapped->compiled.get(), replaced.get());
  EXPECT_EQ(swapped->compiled->left(), "<section id=\"swapped\">");
  EXPECT_EQ(reused->value() - reused_before, 5);  // 6 entries, 1 changed.
}

}  // namespace
}  // namespace ntw
