// Fused multi-attribute extraction tests (DESIGN.md §15). The contract
// under test is byte-identity: FusedSiteExtractor (one StreamPage build
// shared by every dom_free plan of a site), the repository's FindFused on
// both backends — with a hot-published repair shadowing a pack entry —
// and the service's `attribute=*` endpoint must return the same bytes as
// per-attribute streaming and as the interpreted oracle.

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/file_util.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/compiled_wrapper.h"
#include "core/fused_matcher.h"
#include "core/lr_inductor.h"
#include "core/wrapper_pack.h"
#include "core/wrapper_store.h"
#include "gtest/gtest.h"
#include "serve/http.h"
#include "serve/service.h"
#include "serve/wrapper_repository.h"
#include "sitegen/origin.h"

namespace ntw {
namespace {

constexpr char kSuffix[] = ".wrapper";

// Plans covering the delimiter edge cases: LR with and without a left
// delimiter, HLRT with head+tail, HLRT whose tail never occurs.
std::vector<std::pair<std::string, std::shared_ptr<const core::CompiledWrapper>>>
EdgeCasePlans() {
  return {
      {"bold", core::CompiledWrapper::MakeLr("<b>", "</b>")},
      {"leftless", core::CompiledWrapper::MakeLr("", "</i>")},
      {"list", core::CompiledWrapper::MakeHlrt("<ul>", "</ul>", "<li>",
                                               "</li>")},
      {"notail", core::CompiledWrapper::MakeHlrt("<ol>", "<!--never-->",
                                                 "<li>", "</li>")},
  };
}

const char kEdgeCasePage[] =
    "<html><body><i>first</i><b>one</b> mid <b>two</b>"
    "<ul><li>a1</li><li>a2</li></ul>"
    "<ol><li>b1</li></ol>"
    "<b>three</b><i>last</i></body></html>";

void ExpectFusedMatchesPerAttribute(
    const core::FusedSiteExtractor& fused,
    const std::vector<std::pair<std::string,
                                std::shared_ptr<const core::CompiledWrapper>>>&
        plans,
    std::string_view page) {
  core::StreamPageBuffer fused_buffer;
  core::FusedScratch scratch;
  fused.ExtractAllStreaming(page, fused_buffer, scratch);
  ASSERT_EQ(scratch.values.size(), fused.attributes().size());

  for (const auto& [name, plan] : plans) {
    size_t index = fused.FindAttribute(name);
    ASSERT_NE(index, std::string_view::npos) << name;
    core::StreamPageBuffer buffer;
    std::vector<std::string_view> expected;
    plan->ExtractStreaming(page, buffer, &expected);
    const auto& actual = scratch.values[index];
    ASSERT_EQ(actual.size(), expected.size()) << name;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i], expected[i]) << name << "[" << i << "]";
    }
  }
}

TEST(FusedSiteExtractorTest, MatchesPerAttributeStreaming) {
  auto plans = EdgeCasePlans();
  auto fused = core::FusedSiteExtractor::Build(plans);
  ASSERT_NE(fused, nullptr);
  ASSERT_EQ(fused->attributes().size(), 4u);
  ExpectFusedMatchesPerAttribute(*fused, plans, kEdgeCasePage);
  // Degenerate inputs go through the same contract.
  ExpectFusedMatchesPerAttribute(*fused, plans, "");
  ExpectFusedMatchesPerAttribute(*fused, plans, "no delimiters at all");
  ExpectFusedMatchesPerAttribute(*fused, plans, "<b>unclosed");
}

class FusedRepositoryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    work_ = (std::filesystem::temp_directory_path() /
             ("ntw_fused_test_" +
              std::to_string(reinterpret_cast<uintptr_t>(this))))
                .string();
    std::filesystem::remove_all(work_);
    std::filesystem::create_directories(work_);
    root_ = work_ + "/repo";
    sitegen::SyntheticRepositoryOptions options;
    options.sites = 9;  // Covers every plan-kind rotation.
    options.attrs = 3;
    options.seed = 41;
    ASSERT_TRUE(
        sitegen::WriteSyntheticWrapperRepository(options, root_).ok());

    pack_ = work_ + "/wrappers.pack";
    core::WrapperPackBuilder builder;
    auto site_dirs = ListSubdirectories(root_);
    ASSERT_TRUE(site_dirs.ok());
    for (const std::string& site_dir : *site_dirs) {
      std::string site = std::filesystem::path(site_dir).filename().string();
      auto files = ListFiles(site_dir, kSuffix);
      ASSERT_TRUE(files.ok());
      for (const std::string& file : *files) {
        std::string attr = std::filesystem::path(file).filename().string();
        attr.resize(attr.size() - (sizeof(kSuffix) - 1));
        auto record = ReadFile(file);
        ASSERT_TRUE(record.ok());
        ASSERT_TRUE(builder.Add(site, attr, *record).ok());
      }
    }
    ASSERT_TRUE(builder.WriteFile(pack_).ok());
  }

  void TearDown() override { std::filesystem::remove_all(work_); }

  // A page that hits every dom_free delimiter set of the site twice.
  static std::string PageFor(const core::FusedSiteExtractor& fused) {
    std::string page = "<html><body>";
    for (const auto& attribute : fused.attributes()) {
      const auto& plan = *attribute.plan;
      page += plan.head();
      for (int v = 0; v < 2; ++v) {
        page += plan.left() + attribute.name + StrFormat("_%d", v) +
                plan.right();
      }
      page += plan.tail();
    }
    page += "</body></html>";
    return page;
  }

  std::string work_;
  std::string root_;
  std::string pack_;
};

TEST_F(FusedRepositoryTest, PackFusedMatchesDirectoryFused) {
  serve::WrapperRepository dir_repo(root_);
  ASSERT_TRUE(dir_repo.Load().ok());
  serve::WrapperRepository pack_repo(
      serve::WrapperRepository::Options{std::string(), pack_});
  ASSERT_TRUE(pack_repo.Load().ok());

  auto dir_pin = dir_repo.Pin();
  auto pack_pin = pack_repo.Pin();
  ASSERT_NE(pack_pin->pack, nullptr);

  int fused_sites = 0;
  for (int s = 0; s < 9; ++s) {
    std::string site = StrFormat("site_%06d", s);
    auto from_dir = dir_pin->FindFused(site);
    auto from_pack = pack_pin->FindFused(site);
    ASSERT_EQ(from_dir == nullptr, from_pack == nullptr) << site;
    if (from_dir == nullptr) continue;
    ++fused_sites;
    ASSERT_EQ(from_dir->attributes().size(), from_pack->attributes().size());

    std::string page = PageFor(*from_dir);
    core::StreamPageBuffer dir_buffer, pack_buffer;
    core::FusedScratch dir_scratch, pack_scratch;
    from_dir->ExtractAllStreaming(page, dir_buffer, dir_scratch);
    from_pack->ExtractAllStreaming(page, pack_buffer, pack_scratch);
    for (size_t i = 0; i < from_dir->attributes().size(); ++i) {
      EXPECT_EQ(from_dir->attributes()[i].name,
                from_pack->attributes()[i].name);
      const auto& a = dir_scratch.values[i];
      const auto& b = pack_scratch.values[i];
      ASSERT_EQ(a.size(), b.size()) << site;
      EXPECT_GE(a.size(), 2u) << site;  // The page must actually extract.
      for (size_t v = 0; v < a.size(); ++v) EXPECT_EQ(a[v], b[v]);
    }
  }
  EXPECT_GT(fused_sites, 0);
}

TEST_F(FusedRepositoryTest, ServiceMultiAttributeByteIdentity) {
  serve::WrapperRepository dir_repo(root_);
  ASSERT_TRUE(dir_repo.Load().ok());
  serve::WrapperRepository pack_repo(
      serve::WrapperRepository::Options{std::string(), pack_});
  ASSERT_TRUE(pack_repo.Load().ok());
  ThreadPool pool(2);

  serve::ExtractService::Options interpreted;
  interpreted.fast_path = false;
  serve::ExtractService dir_fused(&dir_repo, &pool);
  serve::ExtractService dir_oracle(&dir_repo, &pool, interpreted);
  serve::ExtractService pack_fused(&pack_repo, &pool);
  serve::ExtractService pack_oracle(&pack_repo, &pool, interpreted);

  for (int s = 0; s < 9; ++s) {
    std::string site = StrFormat("site_%06d", s);
    auto fused = dir_repo.Pin()->FindFused(site);
    std::string page =
        fused != nullptr
            ? PageFor(*fused)
            : "<html><body><div class=\"c1\"><li>x</li></div></body></html>";
    serve::HttpRequest request;
    request.method = "POST";
    request.target = "/extract?site=" + site + "&attribute=*";
    request.path = "/extract";  // The server's parser fills these in.
    request.query = {{"site", site}, {"attribute", "*"}};
    request.body = page;

    serve::HttpResponse baseline = dir_oracle.Handle(request);
    ASSERT_EQ(baseline.status, 200) << site << ": " << baseline.body;
    // Streaming and interpreted, directory and pack backends: same bytes.
    for (auto* service : {&dir_fused, &pack_fused, &pack_oracle}) {
      serve::HttpResponse response = service->Handle(request);
      EXPECT_EQ(response.status, baseline.status) << site;
      EXPECT_EQ(response.body, baseline.body) << site;
    }
  }

  // Unknown sites 404 in multi-attribute mode.
  serve::HttpRequest missing;
  missing.method = "POST";
  missing.path = "/extract";
  missing.query = {{"site", "no_such_site"}, {"attribute", "*"}};
  missing.body = "<html></html>";
  EXPECT_EQ(dir_fused.Handle(missing).status, 404);
}

TEST_F(FusedRepositoryTest, PublishedRepairShadowsPackAttribute) {
  // site_000000: attr_00 LR, attr_01 HLRT, attr_02 XPath (pack-only).
  const std::string site = "site_000000";
  serve::WrapperRepository repo(
      serve::WrapperRepository::Options{std::string(), pack_});
  ASSERT_TRUE(repo.Load().ok());
  std::shared_ptr<const core::FusedSiteExtractor> before =
      repo.Pin()->FindFused(site);
  ASSERT_NE(before, nullptr);
  ASSERT_EQ(before->attributes().size(), 2u);
  // The repair's delimiters lead the page body; the pack's follow, so the
  // incumbent LR plan would extract attr_00_0/attr_00_1 instead.
  std::string page = PageFor(*before);
  page.insert(std::string("<html><body>").size(), "<em>repaired</em>");

  core::LrWrapper repair("<em>", "</em>");
  auto record = core::SerializeWrapper(repair);
  ASSERT_TRUE(record.ok());
  auto wrapper = core::DeserializeWrapper(*record);
  ASSERT_TRUE(wrapper.ok());
  ASSERT_TRUE(repo.PublishWrapper(site, "attr_00", *wrapper).ok());

  auto after = repo.Pin()->FindFused(site);
  ASSERT_NE(after, nullptr);
  ASSERT_EQ(after->attributes().size(), 2u);
  EXPECT_EQ(after->attributes()[after->FindAttribute("attr_00")].plan->left(),
            "<em>");

  ThreadPool pool(2);
  serve::ExtractService::Options interpreted;
  interpreted.fast_path = false;
  serve::ExtractService fused(&repo, &pool);
  serve::ExtractService oracle(&repo, &pool, interpreted);
  serve::HttpRequest request;
  request.method = "POST";
  request.path = "/extract";
  request.query = {{"site", site}, {"attribute", "*"}};
  request.body = page;
  serve::HttpResponse expected = oracle.Handle(request);
  serve::HttpResponse actual = fused.Handle(request);
  ASSERT_EQ(expected.status, 200) << expected.body;
  EXPECT_EQ(actual.status, expected.status);
  EXPECT_EQ(actual.body, expected.body);
  // The repair's values for its attribute, the pack's for the rest.
  EXPECT_NE(actual.body.find("\"attr_00\":[\"repaired\"]"), std::string::npos)
      << actual.body;
  EXPECT_NE(actual.body.find("\"attr_01\":[\"attr_01_0\",\"attr_01_1\"]"),
            std::string::npos)
      << actual.body;
}

}  // namespace
}  // namespace ntw
