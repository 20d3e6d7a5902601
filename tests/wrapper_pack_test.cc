// Wrapper-pack tests (DESIGN.md §15): build→open roundtrip identity
// against a repository over the wrapper tree, deterministic rebuilds,
// clean rejection of truncated / bit-flipped / version-mismatched packs,
// of headers whose sections leave the file and of NTWPACK1 and NTWPACK2
// files (no crash, no out-of-bounds reads under ASan), site records whose
// entry range leaves the entry directory, the repository's fallback to
// the wrapper tree when a pack is corrupt, lazy per-site slots (also
// under racing cold hits), overlay publishes on a pack, directory
// reloads, detector pruning on reload, and the pack-only repair ledger.

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <latch>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
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

  // The walk ntw_pack build and the repository use.
  core::WrapperPackBuilder BuildFromDir(const std::string& root) {
    core::WrapperPackBuilder builder;
    std::vector<std::string> errors;
    Status walked = core::AddWrapperTree(root, &builder, &errors);
    EXPECT_TRUE(walked.ok()) << walked.ToString();
    EXPECT_TRUE(errors.empty()) << errors.front();
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

// The tree's (site, attribute) pairs, each with its wrapper file.
std::map<std::pair<std::string, std::string>, std::string> TreePairs(
    const std::string& root) {
  std::map<std::pair<std::string, std::string>, std::string> pairs;
  std::vector<std::string> errors;
  Status walked = core::ForEachWrapperFile(
      root,
      [&pairs](const std::string& site, const std::string& attribute,
               const std::string& path) { pairs[{site, attribute}] = path; },
      &errors);
  EXPECT_TRUE(walked.ok()) << walked.ToString();
  return pairs;
}

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

  // Every entry the directory backend serves, the pack backend serves
  // with the same record bytes and a plan that extracts the same values.
  serve::WrapperRepository directory(root);
  ASSERT_TRUE(directory.Load().ok());
  serve::WrapperRepository packed(
      serve::WrapperRepository::Options{std::string(), path});
  ASSERT_TRUE(packed.Load().ok());
  auto dir = directory.Pin();
  auto from_pack = packed.Pin();
  auto pairs = TreePairs(root);
  ASSERT_EQ(pairs.size(), 27u);
  EXPECT_EQ(dir->TotalWrapperCount(), pairs.size());
  EXPECT_EQ(from_pack->TotalWrapperCount(), pairs.size());
  for (const auto& [key, file] : pairs) {
    const auto& [site, attr] = key;
    const auto* dir_entry = dir->Find(site, attr);
    ASSERT_NE(dir_entry, nullptr) << site << "/" << attr;
    auto on_disk = ReadFile(file);
    ASSERT_TRUE(on_disk.ok());
    EXPECT_EQ(dir_entry->record, Trimmed(*on_disk));
    auto view = (*pack)->FindEntry(site, attr);
    ASSERT_TRUE(view.has_value()) << site << "/" << attr;
    EXPECT_EQ(view->record(), dir_entry->record);

    const auto* entry = from_pack->Find(site, attr);
    ASSERT_NE(entry, nullptr) << site << "/" << attr;
    EXPECT_EQ(entry->record, dir_entry->record);
    const auto& compiled = dir_entry->compiled;
    if (compiled == nullptr) {
      EXPECT_EQ(entry->compiled, nullptr);
      continue;
    }
    ASSERT_NE(entry->compiled, nullptr) << site << "/" << attr;
    EXPECT_STREQ(entry->compiled->plan_kind(), compiled->plan_kind());
    if (compiled->dom_free()) {
      std::string page = "x" + compiled->head() + compiled->left() +
                         "alpha" + compiled->right() + compiled->left() +
                         "beta" + compiled->right() + compiled->tail() +
                         "y";
      core::StreamPageBuffer a, b;
      std::vector<std::string_view> va, vb;
      compiled->ExtractStreaming(page, a, &va);
      entry->compiled->ExtractStreaming(page, b, &vb);
      ASSERT_EQ(va.size(), vb.size());
      for (size_t i = 0; i < va.size(); ++i) EXPECT_EQ(va[i], vb[i]);
      EXPECT_GE(va.size(), 1u);  // The synthetic page must actually hit.
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
    auto files = ListFiles(*site_it, ".wrapper");
    ASSERT_TRUE(files.ok());
    for (auto it = files->rbegin(); it != files->rend(); ++it) {
      std::string attr = std::filesystem::path(*it).stem().string();
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

// A resealed header whose sections leave the file would let a directory
// count drive loops and reads far past the mapping; Open refuses it.
TEST_F(WrapperPackTest, OpenRejectsSectionsOutsideTheFileEvenWhenResealed) {
  std::string path = PackFromRepo(WriteRepo(4, 2));
  auto bytes = ReadFile(path);
  ASSERT_TRUE(bytes.ok());
  core::PackHeader original;
  std::memcpy(&original, bytes->data(), sizeof(original));
  std::string patched_path = work_ + "/sections.pack";
  for (int field = 0; field < 4; ++field) {
    core::PackHeader header = original;
    if (field == 0) header.site_count = uint64_t{1} << 40;
    if (field == 1) header.entry_count = uint64_t{1} << 40;
    if (field == 2) header.strtab_len = bytes->size();
    if (field == 3) header.entries_off = ~uint64_t{0};
    header.header_checksum = 0;
    header.header_checksum = Fnv1a(&header, sizeof(header));
    std::string patched = *bytes;
    std::memcpy(patched.data(), &header, sizeof(header));
    ASSERT_TRUE(WriteFile(patched_path, patched).ok());
    auto pack = core::WrapperPack::Open(patched_path);
    ASSERT_FALSE(pack.ok()) << "field " << field;
    EXPECT_NE(pack.status().ToString().find("sections exceed the file"),
              std::string::npos)
        << pack.status().ToString();
  }
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

// The NTWPACK2 header: NTWPACK3's plus the offset and length of the
// fixed-layout plans section NTWPACK2 carried (104 bytes).
struct PackHeaderV2 {
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
  uint64_t strtab_off;
  uint64_t strtab_len;
};
static_assert(sizeof(PackHeaderV2) == 104, "NTWPACK2 on-disk layout");

// A well-formed, sealed older-format file with no sites and empty
// sections.
template <typename Header>
std::string SealedEmptyPack(const char* magic, uint32_t version) {
  Header header{};
  std::memcpy(header.magic, magic, sizeof(header.magic));
  header.version = version;
  header.endian = core::kPackEndian;
  header.file_size = sizeof(header);
  header.sites_off = header.entries_off = header.plans_off =
      header.strtab_off = sizeof(header);
  if constexpr (requires { header.automata_off; }) {
    header.automata_off = sizeof(header);
  }
  header.body_checksum = Fnv1a("", 0);
  header.header_checksum = Fnv1a(&header, sizeof(header));
  return std::string(reinterpret_cast<const char*>(&header), sizeof(header));
}

TEST_F(WrapperPackTest, OpenRejectsFormatV1PackEvenWhenSealed) {
  // Open must refuse NTWPACK1 and NTWPACK2 files by name rather than read
  // them through the NTWPACK3 layout.
  for (const auto& [format, bytes] :
       {std::pair{"NTWPACK1", SealedEmptyPack<PackHeaderV1>("NTWPACK1", 1)},
        std::pair{"NTWPACK2",
                  SealedEmptyPack<PackHeaderV2>("NTWPACK2", 2)}}) {
    std::string old_path = work_ + "/old.pack";
    ASSERT_TRUE(WriteFile(old_path, bytes).ok());
    auto pack = core::WrapperPack::Open(old_path);
    ASSERT_FALSE(pack.ok()) << format;
    EXPECT_NE(pack.status().ToString().find(format), std::string::npos)
        << pack.status().ToString();
  }
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
        auto record = core::DeserializeWrapper(std::string(entry->record()));
        if (!record.ok()) continue;
        auto plan = core::CompiledWrapper::Compile(**record);
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

// Structured mutations of one site record with the header untouched, so
// Open succeeds: a site whose entry range leaves the entry directory is a
// miss — no lookup may walk the bad range — and every other site,
// including those whose binary search passes the bad record, still
// resolves in full.
TEST_F(WrapperPackTest, SiteEntryRangeOutsideTheDirectoryIsAMiss) {
  std::string root = WriteRepo(9, 3);
  std::string path = PackFromRepo(root);
  auto bytes = ReadFile(path);
  ASSERT_TRUE(bytes.ok());
  core::PackHeader header;
  std::memcpy(&header, bytes->data(), sizeof(header));
  serve::WrapperRepository directory(root);
  ASSERT_TRUE(directory.Load().ok());
  auto dir = directory.Pin();

  const std::string bad = "site_000003";
  const size_t bad_index = 3;  // The site directory is sorted by name.
  const size_t rec_off =
      header.sites_off + bad_index * sizeof(core::PackSiteRec);
  core::PackSiteRec original;
  std::memcpy(&original, bytes->data() + rec_off, sizeof(original));
  core::PackSiteRec huge_count = original;
  huge_count.entry_count = 0xFFFFFFFFu;
  core::PackSiteRec begin_past_end = original;
  begin_past_end.entry_begin = static_cast<uint32_t>(header.entry_count);

  for (const auto& [what, rec] : {std::pair{"huge entry_count", huge_count},
                                  std::pair{"entry_begin past the directory",
                                            begin_past_end}}) {
    SCOPED_TRACE(what);
    std::string mutated = *bytes;
    std::memcpy(mutated.data() + rec_off, &rec, sizeof(rec));
    std::string mutated_path = work_ + "/mutated.pack";
    ASSERT_TRUE(WriteFile(mutated_path, mutated).ok());
    auto pack = core::WrapperPack::Open(mutated_path);
    ASSERT_TRUE(pack.ok()) << pack.status().ToString();
    ASSERT_FALSE((*pack)->site(bad_index).has_value());
    ASSERT_FALSE((*pack)->FindSite(bad).has_value());
    EXPECT_FALSE((*pack)->FindEntry(bad, "attr_00").has_value());
    EXPECT_FALSE((*pack)->Verify().ok());

    serve::WrapperRepository repository(
        serve::WrapperRepository::Options{std::string(), mutated_path});
    ASSERT_TRUE(repository.Load().ok());
    auto pinned = repository.Pin();
    EXPECT_EQ(pinned->Find(bad, "attr_00"), nullptr);
    EXPECT_TRUE(pinned->MaterializeSite(bad).empty());
    EXPECT_EQ(pinned->FindFused(bad), nullptr);

    for (const auto& [key, file] : TreePairs(root)) {
      if (key.first == bad) continue;
      const auto* found = pinned->Find(key.first, key.second);
      ASSERT_NE(found, nullptr) << key.first << "/" << key.second;
      const auto* entry = dir->Find(key.first, key.second);
      ASSERT_NE(entry, nullptr) << file;
      EXPECT_EQ(found->record, entry->record);
    }
    for (size_t s = 0; s < 9; ++s) {
      std::string site = StrFormat("site_%06zu", s);
      if (site == bad) continue;
      EXPECT_EQ(pinned->MaterializeSite(site).size(), 3u) << site;
      auto fused = pinned->FindFused(site);
      auto expected = dir->FindFused(site);
      ASSERT_NE(fused, nullptr) << site;
      ASSERT_NE(expected, nullptr) << site;
      ASSERT_EQ(fused->attributes().size(), expected->attributes().size());
      for (size_t i = 0; i < expected->attributes().size(); ++i) {
        EXPECT_EQ(fused->attributes()[i].name, expected->attributes()[i].name);
      }
    }
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
  // The wrapper tree, packed in memory, stands in for the bad file.
  ASSERT_NE(pinned->pack, nullptr);
  EXPECT_NE(pinned->pack->path(), bad_pack);
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
  // A cold hit builds its whole site: both of its attributes.
  EXPECT_EQ(pinned->CachedEntries().size(), 2u);
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
  EXPECT_EQ(repository.Pin()->TotalWrapperCount(), 8u);

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
  // The repair replaces a pair; it adds none.
  EXPECT_EQ(pinned->TotalWrapperCount(), 8u);
  EXPECT_EQ(obs::Registry::Global().GetGauge("ntw.repo.wrappers")->value(), 8);
}

TEST_F(WrapperPackTest, IncrementalReloadReusesUnchangedEntries) {
  std::string root = WriteRepo(3, 2);
  serve::WrapperRepository repository(root);
  ASSERT_TRUE(repository.Load().ok());
  std::string kept;
  {
    auto pinned = repository.Pin();
    ASSERT_NE(pinned->Find("site_000001", "attr_00"), nullptr);
    const auto* entry = pinned->Find("site_000000", "attr_00");
    ASSERT_NE(entry, nullptr);
    kept = entry->record;
  }

  // Rewrite one record with different bytes (size changes, so the
  // (mtime, size) fingerprint flips even within mtime granularity).
  core::LrWrapper changed("<section id=\"swapped\">", "</section>");
  auto record = core::SerializeWrapper(changed);
  ASSERT_TRUE(record.ok());
  ASSERT_TRUE(
      WriteFile(root + "/site_000001/attr_00.wrapper", *record + "\n").ok());

  ASSERT_TRUE(repository.Load().ok());
  auto pinned = repository.Pin();
  // The rewritten record is served; the unchanged one still is.
  const auto* unchanged = pinned->Find("site_000000", "attr_00");
  ASSERT_NE(unchanged, nullptr);
  EXPECT_EQ(unchanged->record, kept);
  const auto* swapped = pinned->Find("site_000001", "attr_00");
  ASSERT_NE(swapped, nullptr);
  EXPECT_EQ(swapped->record, *record);
  EXPECT_EQ(swapped->compiled->left(), "<section id=\"swapped\">");
}

// A pair that leaves the pack loses its detector at the reload, so when
// it comes back, even with the same record, it starts a fresh baseline.
TEST_F(WrapperPackTest, ReloadDropsDetectorsOfVanishedPairs) {
  std::string root = WriteRepo(3, 2);
  std::string path = PackFromRepo(root);
  serve::WrapperRepository repository(
      serve::WrapperRepository::Options{std::string(), path});
  repository.SetDriftConfig(serve::DriftConfig{});
  ASSERT_TRUE(repository.Load().ok());
  const auto* served = repository.Pin()->Find("site_000001", "attr_00");
  ASSERT_NE(served, nullptr);
  // Held, so a fresh detector can never reuse its address.
  std::shared_ptr<serve::DriftState> first = served->drift;
  ASSERT_NE(first, nullptr);

  std::string file = core::WrapperFilePath(root, "site_000001", "attr_00");
  auto record = ReadFile(file);
  ASSERT_TRUE(record.ok());
  ASSERT_TRUE(std::filesystem::remove(file));
  PackFromRepo(root);
  ASSERT_TRUE(repository.Load().ok());
  EXPECT_EQ(repository.Pin()->Find("site_000001", "attr_00"), nullptr);

  ASSERT_TRUE(WriteFile(file, *record).ok());
  PackFromRepo(root);
  ASSERT_TRUE(repository.Load().ok());
  const auto* back = repository.Pin()->Find("site_000001", "attr_00");
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->record, Trimmed(*record));
  ASSERT_NE(back->drift, nullptr);
  EXPECT_NE(back->drift, first);
}

// Without a root, the repair ledger has no file to live in: it stays in
// memory, per repository, and nothing lands in the filesystem root.
TEST_F(WrapperPackTest, PackOnlyRepairLedgerStaysInMemory) {
  const std::filesystem::path stray = "/.repairs.tsv";
  const bool existed = std::filesystem::exists(stray);
  std::string path = PackFromRepo(WriteRepo(2, 1));
  {
    serve::WrapperRepository repository(
        serve::WrapperRepository::Options{std::string(), path});
    ASSERT_TRUE(repository.Load().ok());
    serve::WrapperRepository::RepairRecord repair;
    repair.site = "site_000001";
    repair.attribute = "attr_00";
    repair.repair_score = 0.75;
    repository.RecordRepair(repair);
    auto ledger = repository.repair_ledger();
    ASSERT_EQ(ledger.size(), 1u);
    EXPECT_EQ(ledger[0].sequence, 1);
    EXPECT_EQ(ledger[0].site, "site_000001");
    EXPECT_EQ(ledger[0].published_version, 1u);
  }
  serve::WrapperRepository other(
      serve::WrapperRepository::Options{std::string(), path});
  ASSERT_TRUE(other.Load().ok());
  EXPECT_TRUE(other.repair_ledger().empty());

  const bool appeared = !existed && std::filesystem::exists(stray);
  if (appeared) std::filesystem::remove(stray);
  EXPECT_FALSE(appeared) << "the ledger was written to " << stray;
}

// Eight threads race every entry point on one cold site through one pin:
// the slot is built once, and everyone reads the same entries and the
// same fused extractor — on a pack file and on a packed wrapper tree.
TEST_F(WrapperPackTest, ConcurrentColdHitsBuildTheSiteOnce) {
  std::string root = WriteRepo(9, 3);
  std::string path = PackFromRepo(root);
  obs::Counter* materializations =
      obs::Registry::Global().GetCounter("ntw.repo.pack_materializations");
  for (const auto& options :
       {serve::WrapperRepository::Options{std::string(), path},
        serve::WrapperRepository::Options{root, std::string()}}) {
    SCOPED_TRACE(options.pack_path.empty() ? "wrapper tree" : "pack file");
    serve::WrapperRepository repository(options);
    ASSERT_TRUE(repository.Load().ok());
    auto pinned = repository.Pin();
    const std::string site = "site_000004";
    int64_t before = materializations->value();

    constexpr int kThreads = 8;
    struct Seen {
      const serve::WrapperRepository::Entry* found = nullptr;
      std::vector<const serve::WrapperRepository::Entry*> site;
      const core::FusedSiteExtractor* fused = nullptr;
    };
    std::vector<Seen> seen(kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Seen& mine = seen[t];
        auto materialize = [&] {
          for (const auto& [attribute, entry] : pinned->MaterializeSite(site)) {
            mine.site.push_back(entry);
          }
        };
        start.arrive_and_wait();
        // Each thread enters through one of the three calls first.
        if (t % 3 == 0) mine.found = pinned->Find(site, "attr_01");
        if (t % 3 == 1) materialize();
        mine.fused = pinned->FindFused(site).get();
        if (t % 3 != 0) mine.found = pinned->Find(site, "attr_01");
        if (t % 3 != 1) materialize();
      });
    }
    for (std::thread& thread : threads) thread.join();

    EXPECT_EQ(materializations->value() - before, 3);
    ASSERT_NE(seen[0].found, nullptr);
    ASSERT_EQ(seen[0].site.size(), 3u);
    EXPECT_EQ(seen[0].site[1], seen[0].found);
    ASSERT_NE(seen[0].fused, nullptr);
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(seen[t].found, seen[0].found) << "thread " << t;
      EXPECT_EQ(seen[t].site, seen[0].site) << "thread " << t;
      EXPECT_EQ(seen[t].fused, seen[0].fused) << "thread " << t;
    }
  }
}

}  // namespace
}  // namespace ntw
