// Pins the fast-path determinism contract: a CompiledWrapper executed
// over the arena DOM returns exactly the values the interpreted
// Wrapper::Extract + node->text() pipeline returns, for every wrapper
// kind (XPATH, LR, HLRT) on every page of a generated corpus — with the
// streaming path joining the comparison for dom_free() plans (the no-DOM
// stream matchers) and streamable() XPath plans (the fused tokenize→
// plan-execute machine) — and at the service layer, ExtractService on
// its streaming path and on the interpreter produces byte-identical HTTP
// responses for /extract and /extract_batch.

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/file_util.h"
#include "common/thread_pool.h"
#include "core/compiled_wrapper.h"
#include "core/hlrt_inductor.h"
#include "core/lr_inductor.h"
#include "core/wrapper_store.h"
#include "core/xpath_inductor.h"
#include "datasets/dealers.h"
#include "gtest/gtest.h"
#include "html/arena_dom.h"
#include "html/parser.h"
#include "html/serializer.h"
#include "serve/service.h"
#include "serve/wrapper_repository.h"

namespace ntw {
namespace {

/// The interpreted reference: heap-parse one page, apply the wrapper,
/// resolve the refs to text.
std::vector<std::string> InterpretedValues(const core::Wrapper& wrapper,
                                           const std::string& source) {
  Result<html::Document> doc = html::Parse(source);
  EXPECT_TRUE(doc.ok());
  core::PageSet pages;
  pages.AddPage(std::move(*doc));
  std::vector<std::string> values;
  for (const core::NodeRef& ref : wrapper.Extract(pages)) {
    const html::Node* node = pages.Resolve(ref);
    if (node != nullptr) values.push_back(node->text());
  }
  return values;
}

std::vector<std::string> FastValues(const core::CompiledWrapper& compiled,
                                    core::FastPageBuffer& buffer,
                                    const std::string& source) {
  buffer.Clear();
  html::ArenaParse(source, &buffer.doc);
  compiled.Extract(buffer, &buffer.values);
  return std::vector<std::string>(buffer.values.begin(),
                                  buffer.values.end());
}

std::vector<std::string> StreamingValues(
    const core::CompiledWrapper& compiled, core::StreamPageBuffer& buffer,
    const std::string& source) {
  buffer.Clear();
  compiled.ExtractStreaming(source, buffer, &buffer.values);
  return std::vector<std::string>(buffer.values.begin(),
                                  buffer.values.end());
}

class FastPathEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datasets::DealersConfig config;
    config.num_sites = 3;
    dealers_ = new datasets::Dataset(datasets::MakeDealers(config));
  }

  static void TearDownTestSuite() {
    delete dealers_;
    dealers_ = nullptr;
  }

  /// Learns one wrapper per site with `inductor` and checks fast ==
  /// interpreted (and, for dom_free() plans, == streaming) on every page
  /// of every site.
  void CheckInductor(const core::WrapperInductor& inductor) {
    core::FastPageBuffer buffer;
    core::StreamPageBuffer stream_buffer;
    for (const datasets::SiteData& site : dealers_->sites) {
      auto truth = site.site.truth.find("name");
      ASSERT_NE(truth, site.site.truth.end());
      core::Induction induction =
          inductor.Induce(site.site.pages, truth->second);
      ASSERT_NE(induction.wrapper, nullptr);
      std::shared_ptr<const core::CompiledWrapper> compiled =
          core::CompiledWrapper::Compile(*induction.wrapper);
      ASSERT_NE(compiled, nullptr)
          << "no compiled form for " << induction.wrapper->ToString();
      for (size_t p = 0; p < site.site.pages.size(); ++p) {
        std::string source =
            html::Serialize(site.site.pages.page(p).root());
        std::vector<std::string> interpreted =
            InterpretedValues(*induction.wrapper, source);
        EXPECT_EQ(FastValues(*compiled, buffer, source), interpreted)
            << "site " << site.site.name << " page " << p << " wrapper "
            << induction.wrapper->ToString();
        // Every learned plan has a streaming form: LR/HLRT are
        // dom_free(), and every induced XPath program is streamable()
        // (≤63 steps); the fused executor must match byte for byte.
        ASSERT_TRUE(compiled->has_streaming_form())
            << induction.wrapper->ToString();
        EXPECT_EQ(StreamingValues(*compiled, stream_buffer, source),
                  interpreted)
            << "streaming, site " << site.site.name << " page " << p
            << " wrapper " << induction.wrapper->ToString();
      }
    }
  }

  static datasets::Dataset* dealers_;
};

datasets::Dataset* FastPathEquivalenceTest::dealers_ = nullptr;

TEST_F(FastPathEquivalenceTest, XPathWrapper) {
  CheckInductor(core::XPathInductor());
}

TEST_F(FastPathEquivalenceTest, LrWrapper) {
  CheckInductor(core::LrInductor());
}

TEST_F(FastPathEquivalenceTest, HlrtWrapper) {
  CheckInductor(core::HlrtInductor());
}

TEST_F(FastPathEquivalenceTest, WrapperRoundTripThroughStoreStaysEquivalent) {
  // The serving repository deserializes records from disk; make sure the
  // compiled form of a round-tripped wrapper matches too.
  core::XPathInductor inductor;
  const datasets::SiteData& site = dealers_->sites[0];
  core::Induction induction =
      inductor.Induce(site.site.pages, site.site.truth.at("name"));
  Result<std::string> record = core::SerializeWrapper(*induction.wrapper);
  ASSERT_TRUE(record.ok());
  Result<core::WrapperPtr> loaded = core::DeserializeWrapper(*record);
  ASSERT_TRUE(loaded.ok());
  std::shared_ptr<const core::CompiledWrapper> compiled =
      core::CompiledWrapper::Compile(**loaded);
  ASSERT_NE(compiled, nullptr);
  core::FastPageBuffer buffer;
  for (size_t p = 0; p < site.site.pages.size(); ++p) {
    std::string source = html::Serialize(site.site.pages.page(p).root());
    EXPECT_EQ(FastValues(*compiled, buffer, source),
              InterpretedValues(**loaded, source));
  }
}

// -------------------------------------------------------------------
// Service layer: byte-identical HTTP responses with and without the
// fast path.
// -------------------------------------------------------------------

class ServiceEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    repo_dir_ = std::filesystem::temp_directory_path() /
                ("ntw_fastpath_repo_" + std::to_string(::getpid()));
    datasets::DealersConfig config;
    config.num_sites = 2;
    dealers_ = datasets::MakeDealers(config);
    core::XPathInductor xpath;
    core::LrInductor lr;
    core::HlrtInductor hlrt;
    const datasets::SiteData& site = dealers_.sites[0];
    const core::NodeSet& truth = site.site.truth.at("name");
    struct Learned {
      const char* attribute;
      const core::WrapperInductor* inductor;
    };
    for (const Learned& learned :
         {Learned{"xpath", &xpath}, Learned{"lr", &lr},
          Learned{"hlrt", &hlrt}}) {
      core::Induction induction =
          learned.inductor->Induce(site.site.pages, truth);
      Result<std::string> record =
          core::SerializeWrapper(*induction.wrapper);
      ASSERT_TRUE(record.ok());
      std::string dir = (repo_dir_ / "s").string();
      ASSERT_TRUE(MakeDirs(dir).ok());
      ASSERT_TRUE(WriteFile(dir + "/" + learned.attribute + ".wrapper",
                            *record + "\n")
                      .ok());
    }
    for (size_t p = 0; p < site.site.pages.size(); ++p) {
      sources_.push_back(html::Serialize(site.site.pages.page(p).root()));
    }
    repository_ =
        std::make_unique<serve::WrapperRepository>(repo_dir_.string());
    ASSERT_TRUE(repository_->Load().ok());
    ASSERT_TRUE(repository_->snapshot()->errors.empty());
    fast_ = std::make_unique<serve::ExtractService>(
        repository_.get(), &ThreadPool::Global());
    serve::ExtractService::Options interpreted;
    interpreted.fast_path = false;
    interpreted_ = std::make_unique<serve::ExtractService>(
        repository_.get(), &ThreadPool::Global(), interpreted);
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(repo_dir_, ec);
  }

  void ExpectSameResponse(const serve::HttpRequest& request) {
    serve::HttpResponse a = fast_->Handle(request);
    serve::HttpResponse b = interpreted_->Handle(request);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.content_type, b.content_type);
    EXPECT_EQ(a.body, b.body);
  }

  std::filesystem::path repo_dir_;
  datasets::Dataset dealers_;
  std::vector<std::string> sources_;
  std::unique_ptr<serve::WrapperRepository> repository_;
  std::unique_ptr<serve::ExtractService> fast_;
  std::unique_ptr<serve::ExtractService> interpreted_;
};

TEST_F(ServiceEquivalenceTest, ExtractEndpointBytesMatch) {
  for (const char* attribute : {"xpath", "lr", "hlrt"}) {
    for (const std::string& source : sources_) {
      serve::HttpRequest request;
      request.method = "POST";
      request.path = "/extract";
      request.query.emplace_back("site", "s");
      request.query.emplace_back("attribute", attribute);
      request.body = source;
      ExpectSameResponse(request);
    }
  }
}

TEST_F(ServiceEquivalenceTest, ExtractBatchBytesMatch) {
  std::string body;
  for (size_t p = 0; p < sources_.size(); ++p) {
    obs::JsonWriter line;
    line.BeginObject();
    line.KV("id", "page-" + std::to_string(p));
    line.KV("html", sources_[p]);
    line.EndObject();
    body += line.Take() + "\n";
  }
  serve::HttpRequest request;
  request.method = "POST";
  request.path = "/extract_batch";
  request.query.emplace_back("site", "s");
  request.query.emplace_back("attribute", "xpath");
  request.body = body;
  ExpectSameResponse(request);
}

TEST_F(ServiceEquivalenceTest, MissingWrapperBytesMatch) {
  serve::HttpRequest request;
  request.method = "POST";
  request.path = "/extract";
  request.query.emplace_back("site", "nope");
  request.query.emplace_back("attribute", "name");
  request.body = sources_[0];
  ExpectSameResponse(request);
}

}  // namespace
}  // namespace ntw
