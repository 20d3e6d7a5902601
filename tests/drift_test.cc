// Unit tests for the self-healing building blocks (DESIGN.md §13): the
// DriftState detector lifecycle and every one of its signals, the
// bounded collection ring, the deterministic ReinduceWorker::Reinduce
// pipeline (dictionary re-annotation → NTW re-learning → incumbent
// comparison), WrapperRepository::PublishWrapper persistence + hot swap,
// and the /driftz endpoint. The end-to-end fault-injection soak lives in
// tests/self_heal_test.cc; the detector FP/TP corpus in
// tests/wellbehaved_test.cc.

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/file_util.h"
#include "core/lr_inductor.h"
#include "core/wrapper_store.h"
#include "core/xpath_inductor.h"
#include "gtest/gtest.h"
#include "html/parser.h"
#include "obs/metrics.h"
#include "serve/drift.h"
#include "serve/reinduce.h"
#include "serve/service.h"
#include "serve/wrapper_repository.h"
#include "sitegen/mutate.h"
#include "test_util.h"

namespace ntw::serve {
namespace {

// ---------------------------------------------------------------------
// DriftState: detector lifecycle and signals.
// ---------------------------------------------------------------------

/// Small-scale thresholds so every phase is reachable in a few pages.
DriftConfig TestConfig() {
  DriftConfig config;
  config.warmup_pages = 8;
  config.evaluate_every = 4;
  config.empty_streak_limit = 4;
  config.hysteresis = 1;
  config.cooldown_pages = 8;
  config.retain_pages = 2;
  config.min_window_values = 4;
  return config;
}

DriftState::Action Feed(DriftState& state,
                        const std::vector<std::string>& values,
                        const std::string& body = "<html></html>") {
  std::vector<std::string_view> views(values.begin(), values.end());
  return state.Observe(0, views.data(), views.size(), body);
}

std::string StateJson(const DriftState& state) {
  obs::JsonWriter json;
  state.WriteJson(json);
  return json.Take();
}

/// Feeds enough healthy pages to freeze the baseline. All warmup values
/// land in the filter half and then repeat in the probe half, so the
/// baseline known ratio is 1 and the likelihood signal arms.
void Warmup(DriftState& state, const std::vector<std::string>& values) {
  for (int i = 0; i < TestConfig().warmup_pages; ++i) Feed(state, values);
  ASSERT_EQ(state.phase(), DriftState::Phase::kSteady);
}

const std::vector<std::string> kNames = {"alpha auto", "bravo cars",
                                         "carol vans"};

TEST(DriftStateTest, WarmupFreezesBaselineAndArms) {
  DriftState state("example.com", "name", "LR\tl\tr", TestConfig());
  EXPECT_EQ(state.phase(), DriftState::Phase::kWarmup);
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(Feed(state, kNames), DriftState::Action::kNone);
    EXPECT_EQ(state.phase(), DriftState::Phase::kWarmup);
  }
  Feed(state, kNames);
  EXPECT_EQ(state.phase(), DriftState::Phase::kSteady);
  std::string json = StateJson(state);
  EXPECT_NE(json.find("\"phase\":\"steady\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"armed_empty\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"armed_likelihood\":true"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"dictionary_size\":3"), std::string::npos) << json;
}

TEST(DriftStateTest, EmptyStreakTriggersCollectionAndQueues) {
  DriftState state("example.com", "name", "LR\tl\tr", TestConfig());
  Warmup(state, kNames);
  // Four consecutive empty extractions: the evaluation at the window
  // boundary sees streak >= limit and triggers collection.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(Feed(state, {}), DriftState::Action::kNone);
  ASSERT_EQ(state.phase(), DriftState::Phase::kCollecting);
  EXPECT_EQ(state.drift_events(), 1);
  EXPECT_NE(StateJson(state).find("\"last_signal\":\"empty_streak\""),
            std::string::npos);
  // retain_pages = 2: the second retained body completes the sample.
  EXPECT_EQ(Feed(state, {}, "<html>page one</html>"),
            DriftState::Action::kNone);
  EXPECT_EQ(Feed(state, {}, "<html>page two</html>"),
            DriftState::Action::kReinduce);
  EXPECT_EQ(state.phase(), DriftState::Phase::kQueued);
  DriftState::Sample sample = state.TakeSample();
  ASSERT_EQ(sample.pages.size(), 2u);
  EXPECT_EQ(sample.pages[0], "<html>page one</html>");
  EXPECT_EQ(sample.pages[1], "<html>page two</html>");
  // The dictionary is the warmup vocabulary, insertion-ordered.
  EXPECT_EQ(sample.dictionary, kNames);
}

TEST(DriftStateTest, LikelihoodCollapseFiresOnUnknownValues) {
  DriftState state("example.com", "name", "LR\tl\tr", TestConfig());
  Warmup(state, kNames);
  // Same shape and count, but values the baseline filter has never seen —
  // the annotation-likelihood proxy collapses.
  for (int i = 0; i < 4 && state.phase() == DriftState::Phase::kSteady;
       ++i) {
    Feed(state, {"novel-" + std::to_string(i) + "-x",
                 "novel-" + std::to_string(i) + "-y",
                 "novel-" + std::to_string(i) + "-z"});
  }
  ASSERT_EQ(state.phase(), DriftState::Phase::kCollecting);
  EXPECT_NE(
      StateJson(state).find("\"last_signal\":\"likelihood_collapse\""),
      std::string::npos);
}

TEST(DriftStateTest, SchemaCollapseFiresOnValueCountDrop) {
  DriftState state("example.com", "name", "LR\tl\tr", TestConfig());
  // Baseline: five values per page.
  std::vector<std::string> five = {"v-aa", "v-bb", "v-cc", "v-dd", "v-ee"};
  Warmup(state, five);
  // Known values (no likelihood collapse) but one per page: 1 < 5 * 0.25.
  for (int i = 0; i < 8 && state.phase() == DriftState::Phase::kSteady;
       ++i) {
    Feed(state, {"v-aa"});
  }
  ASSERT_EQ(state.phase(), DriftState::Phase::kCollecting);
  EXPECT_NE(StateJson(state).find("\"last_signal\":\"schema_collapse\""),
            std::string::npos);
}

TEST(DriftStateTest, SchemaExplosionFiresOnValueCountBlowup) {
  DriftState state("example.com", "name", "LR\tl\tr", TestConfig());
  std::vector<std::string> two = {"v-aa", "v-bb"};
  Warmup(state, two);
  // Known values, nine per page: 9 > 2 * 4.
  std::vector<std::string> nine;
  for (int i = 0; i < 9; ++i) nine.push_back(i % 2 == 0 ? "v-aa" : "v-bb");
  for (int i = 0; i < 4 && state.phase() == DriftState::Phase::kSteady;
       ++i) {
    Feed(state, nine);
  }
  ASSERT_EQ(state.phase(), DriftState::Phase::kCollecting);
  EXPECT_NE(StateJson(state).find("\"last_signal\":\"schema_explosion\""),
            std::string::npos);
}

TEST(DriftStateTest, AlignmentShiftFiresOnValueLengthShift) {
  DriftState state("example.com", "name", "LR\tl\tr", TestConfig());
  std::vector<std::string> shorts = {"aaaa", "bbbb"};
  Warmup(state, shorts);
  // Half the window is known (no likelihood collapse), the count is
  // unchanged (no schema signal), but the mean value length jumps from 4
  // to 22 — more than length_shift (1.0) times the baseline mean.
  const std::string long_value(40, 'q');
  for (int i = 0; i < 4 && state.phase() == DriftState::Phase::kSteady;
       ++i) {
    Feed(state, {"aaaa", long_value});
  }
  ASSERT_EQ(state.phase(), DriftState::Phase::kCollecting);
  EXPECT_NE(StateJson(state).find("\"last_signal\":\"alignment_shift\""),
            std::string::npos);
}

TEST(DriftStateTest, BenignChurnStaysSilent) {
  DriftState state("example.com", "name", "LR\tl\tr", TestConfig());
  std::vector<std::string> names = {"north motors", "south motors",
                                    "east  motors"};
  Warmup(state, names);
  // Record-count churn within the schema band, occasional isolated empty
  // pages, all values known: forty pages with zero drift events.
  const std::vector<std::vector<std::string>> benign = {
      {names[0], names[1]},
      {names[0], names[1], names[2]},
      {names[2]},
      {},
      {names[1], names[2]},
  };
  for (int i = 0; i < 40; ++i) Feed(state, benign[i % benign.size()]);
  EXPECT_EQ(state.phase(), DriftState::Phase::kSteady);
  EXPECT_EQ(state.drift_events(), 0);
  EXPECT_GT(state.evaluations(), 0);
}

TEST(DriftStateTest, HysteresisSuppressesIsolatedWindows) {
  DriftConfig config = TestConfig();
  config.hysteresis = 2;
  DriftState state("example.com", "name", "LR\tl\tr", config);
  Warmup(state, kNames);
  auto drifted_window = [&](int round) {
    for (int i = 0; i < 4; ++i) {
      Feed(state, {"w" + std::to_string(round) + "-" + std::to_string(i),
                   "w" + std::to_string(round) + "-b",
                   "w" + std::to_string(round) + "-c"});
    }
  };
  auto healthy_window = [&] {
    for (int i = 0; i < 4; ++i) Feed(state, kNames);
  };
  // Drifted windows separated by healthy ones never accumulate.
  drifted_window(0);
  healthy_window();
  drifted_window(1);
  healthy_window();
  EXPECT_EQ(state.phase(), DriftState::Phase::kSteady);
  EXPECT_EQ(state.drift_events(), 0);
  // Two consecutive drifted windows clear the hysteresis bar.
  drifted_window(2);
  drifted_window(3);
  EXPECT_EQ(state.phase(), DriftState::Phase::kCollecting);
  EXPECT_EQ(state.drift_events(), 1);
}

TEST(DriftStateTest, CooldownIgnoresPagesThenReArms) {
  DriftState state("example.com", "name", "LR\tl\tr", TestConfig());
  Warmup(state, kNames);
  for (int i = 0; i < 4; ++i) Feed(state, {});
  ASSERT_EQ(state.phase(), DriftState::Phase::kCollecting);
  // A rejected repair re-arms via cooldown: the next cooldown_pages
  // observations (even drifted ones) are ignored.
  state.EnterCooldown();
  ASSERT_EQ(state.phase(), DriftState::Phase::kCooldown);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(Feed(state, {}), DriftState::Action::kNone);
  }
  EXPECT_EQ(state.phase(), DriftState::Phase::kSteady);
  // Detection works again after the cooldown window.
  for (int i = 0; i < 4; ++i) Feed(state, {});
  EXPECT_EQ(state.phase(), DriftState::Phase::kCollecting);
  EXPECT_EQ(state.drift_events(), 2);
}

TEST(DriftStateTest, ByteCapQueuesWithPartialRing) {
  DriftConfig config = TestConfig();
  config.retain_pages = 4;
  config.retain_bytes = 10;
  DriftState state("example.com", "name", "LR\tl\tr", config);
  Warmup(state, kNames);
  for (int i = 0; i < 4; ++i) Feed(state, {});
  ASSERT_EQ(state.phase(), DriftState::Phase::kCollecting);
  // One oversized body: retained (the ring always keeps at least one
  // page), and the byte cap then queues immediately instead of waiting
  // for retain_pages bodies that could never fit.
  EXPECT_EQ(Feed(state, {}, std::string(32, 'p')),
            DriftState::Action::kReinduce);
  EXPECT_EQ(state.phase(), DriftState::Phase::kQueued);
  EXPECT_EQ(state.TakeSample().pages.size(), 1u);
}

// ---------------------------------------------------------------------
// Re-induction pipeline.
// ---------------------------------------------------------------------

/// One listing page in the fixed fault-injection template: a varying
/// title (so no healthy delimiter can span it) and one <div class="rec">
/// record per name, the name in <b>.
std::string ListingPage(int page, const std::vector<std::string>& names) {
  std::string html =
      "<html><head><title>Listing page " + std::to_string(page) +
      "</title></head><body><h1>Dealers</h1><div class=\"list\">";
  for (size_t i = 0; i < names.size(); ++i) {
    html += "<div class=\"rec\"><b>" + names[i] + "</b><span>Suite " +
            std::to_string(100 + i) + "</span></div>";
  }
  html += "</div><p class=\"footer\">End of results</p></body></html>";
  return html;
}

core::PageSet ParsePages(const std::vector<std::string>& bodies) {
  core::PageSet pages;
  for (const std::string& body : bodies) {
    pages.AddPage(ntw::testing::MustParse(body));
  }
  return pages;
}

core::NodeSet FindAll(const core::PageSet& pages,
                      const std::vector<std::string>& texts) {
  std::vector<core::NodeRef> refs;
  for (const std::string& text : texts) {
    for (const core::NodeRef& ref : ntw::testing::FindText(pages, text)) {
      refs.push_back(ref);
    }
  }
  return core::NodeSet(std::move(refs));
}

std::vector<std::string> ExtractedTexts(const core::PageSet& pages,
                                        const core::NodeSet& extraction) {
  std::vector<std::string> texts;
  for (size_t i = 0; i < extraction.size(); ++i) {
    texts.push_back(ntw::testing::TextOf(pages, extraction[i]));
  }
  return texts;
}

const std::vector<std::string> kPool = {"Acme Motors", "Bay Auto",
                                        "Cape Cars",   "Delta Vans",
                                        "Echo Wheels", "Fox Trucks"};

std::vector<std::string> OriginalBodies() {
  return {ListingPage(0, {kPool[0], kPool[1], kPool[2]}),
          ListingPage(1, {kPool[1], kPool[3], kPool[4]}),
          ListingPage(2, {kPool[2], kPool[4], kPool[5]})};
}

std::vector<std::string> AllNames(const std::vector<std::string>& bodies) {
  // Names in page order — the order the incumbent extracted them while
  // healthy, which is the order the drift dictionary preserves.
  std::vector<std::string> names;
  for (const std::string& body : bodies) {
    for (const std::string& name : kPool) {
      if (body.find("<b>" + name + "</b>") != std::string::npos &&
          std::find(names.begin(), names.end(), name) == names.end()) {
        names.push_back(name);
      }
    }
  }
  return names;
}

/// Learns the healthy incumbent of `kind` ("LR" or "XPATH") on the
/// original bodies and returns its serialized record.
std::string LearnIncumbent(const std::string& kind) {
  std::vector<std::string> bodies = OriginalBodies();
  core::PageSet pages = ParsePages(bodies);
  core::NodeSet labels = FindAll(pages, kPool);
  core::Induction induction;
  if (kind == "LR") {
    induction = core::LrInductor().Induce(pages, labels);
  } else {
    induction = core::XPathInductor().Induce(pages, labels);
  }
  EXPECT_EQ(induction.extraction, labels) << kind;
  Result<std::string> record = core::SerializeWrapper(*induction.wrapper);
  EXPECT_TRUE(record.ok()) << record.status().ToString();
  return *record;
}

ReinduceTask MutatedTask(const std::string& kind,
                         const std::vector<sitegen::Mutation>& mutations) {
  ReinduceTask task;
  task.site = "example.com";
  task.attribute = "name";
  task.incumbent_record = LearnIncumbent(kind);
  for (const std::string& body : OriginalBodies()) {
    task.pages.push_back(sitegen::MutatePage(body, mutations));
  }
  task.dictionary = AllNames(OriginalBodies());
  return task;
}

TEST(ReinduceTest, LrRepairBeatsDelimiterChangedIncumbent) {
  ReinduceTask task =
      MutatedTask("LR", {{sitegen::MutationKind::kDelimiterTextChange}});
  // Sanity: the incumbent extracts nothing on the mutated template.
  core::PageSet mutated = ParsePages(task.pages);
  Result<core::WrapperPtr> incumbent =
      core::DeserializeWrapper(task.incumbent_record);
  ASSERT_TRUE(incumbent.ok());
  EXPECT_TRUE((*incumbent)->Extract(mutated).empty());

  Result<ReinduceWorker::Repair> repair =
      ReinduceWorker::Reinduce(task, ReinduceOptions());
  ASSERT_TRUE(repair.ok()) << repair.status().ToString();
  EXPECT_TRUE(repair->beats_incumbent);
  EXPECT_GT(repair->score, repair->incumbent_score);
  EXPECT_GE(repair->labels, 6u);
  EXPECT_NE(repair->record, task.incumbent_record);
  EXPECT_EQ(repair->record.compare(0, 3, "LR\t"), 0) << repair->record;
  // The repaired wrapper recovers every name on the mutated template.
  std::vector<std::string> texts =
      ExtractedTexts(mutated, repair->wrapper->Extract(mutated));
  core::NodeSet expected = FindAll(mutated, kPool);
  EXPECT_EQ(repair->wrapper->Extract(mutated), expected);
  EXPECT_EQ(texts.size(), 9u);
}

TEST(ReinduceTest, XpathRepairSurvivesClassRenameAndShellDiv) {
  ReinduceTask task = MutatedTask(
      "XPATH", {{sitegen::MutationKind::kClassRename},
                {sitegen::MutationKind::kWrapperDivInsertion}});
  core::PageSet mutated = ParsePages(task.pages);
  Result<core::WrapperPtr> incumbent =
      core::DeserializeWrapper(task.incumbent_record);
  ASSERT_TRUE(incumbent.ok());
  EXPECT_TRUE((*incumbent)->Extract(mutated).empty());

  Result<ReinduceWorker::Repair> repair =
      ReinduceWorker::Reinduce(task, ReinduceOptions());
  ASSERT_TRUE(repair.ok()) << repair.status().ToString();
  EXPECT_TRUE(repair->beats_incumbent);
  EXPECT_EQ(repair->record.compare(0, 6, "XPATH\t"), 0) << repair->record;
  EXPECT_EQ(repair->wrapper->Extract(mutated), FindAll(mutated, kPool));
}

TEST(ReinduceTest, RejectsUnsupportedKindAndBarrenDictionary) {
  ReinduceTask task;
  task.site = "example.com";
  task.attribute = "name";
  task.incumbent_record = "TABLE\tcol\t1";
  task.pages = OriginalBodies();
  task.dictionary = AllNames(OriginalBodies());
  Result<ReinduceWorker::Repair> repair =
      ReinduceWorker::Reinduce(task, ReinduceOptions());
  EXPECT_EQ(repair.status().code(), StatusCode::kInvalidArgument);

  task.incumbent_record = LearnIncumbent("LR");
  task.dictionary = {"zzz-not-on-any-page"};
  repair = ReinduceWorker::Reinduce(task, ReinduceOptions());
  EXPECT_EQ(repair.status().code(), StatusCode::kFailedPrecondition);

  task.dictionary.clear();
  repair = ReinduceWorker::Reinduce(task, ReinduceOptions());
  EXPECT_EQ(repair.status().code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------
// PublishWrapper: persist + hot swap + restart survival.
// ---------------------------------------------------------------------

class PublishTest : public ::testing::Test {
 protected:
  PublishTest()
      : root_(::testing::TempDir() + "ntw_drift_publish_" +
              std::to_string(::getpid())),
        repository_(root_) {
    std::filesystem::remove_all(root_);
    EXPECT_TRUE(MakeDirs(root_ + "/example.com").ok());
    EXPECT_TRUE(WriteFile(root_ + "/example.com/name.wrapper",
                          "XPATH\t//li/text()\n")
                    .ok());
  }
  ~PublishTest() override { std::filesystem::remove_all(root_); }

  std::string root_;
  WrapperRepository repository_;
};

TEST_F(PublishTest, PublishWrapperPersistsSwapsAndRebaselines) {
  repository_.SetDriftConfig(TestConfig());
  ASSERT_TRUE(repository_.Load().ok());
  auto before = repository_.snapshot();
  const WrapperRepository::Entry* entry =
      before->Find("example.com", "name");
  ASSERT_NE(entry, nullptr);
  ASSERT_NE(entry->drift, nullptr);
  std::shared_ptr<DriftState> old_state = entry->drift;

  Result<core::WrapperPtr> repaired =
      core::DeserializeWrapper("XPATH\t//b/text()");
  ASSERT_TRUE(repaired.ok());
  ASSERT_TRUE(
      repository_.PublishWrapper("example.com", "name", *repaired).ok());

  auto after = repository_.snapshot();
  EXPECT_EQ(after->version, before->version + 1);
  entry = after->Find("example.com", "name");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->record, "XPATH\t//b/text()");
  EXPECT_NE(entry->compiled, nullptr);
  // The constant response members were rebuilt for the new version.
  EXPECT_NE(entry->response_prefix.find(
                "\"repository_version\":" +
                std::to_string(after->version)),
            std::string::npos);
  // A fresh detector re-baselines the repaired wrapper.
  ASSERT_NE(entry->drift, nullptr);
  EXPECT_NE(entry->drift, old_state);
  EXPECT_EQ(entry->drift->phase(), DriftState::Phase::kWarmup);
  EXPECT_EQ(entry->drift->record(), "XPATH\t//b/text()");

  // Persisted atomically: the on-disk record is the published one, no
  // temp file remains, and a cold restart reproduces the repair.
  Result<std::string> disk = ReadFile(root_ + "/example.com/name.wrapper");
  ASSERT_TRUE(disk.ok());
  EXPECT_EQ(*disk, "XPATH\t//b/text()\n");
  EXPECT_FALSE(std::filesystem::exists(
      root_ + "/example.com/.name.wrapper.tmp"));
  EXPECT_FALSE(repository_.PollForChanges());

  WrapperRepository restarted(root_);
  ASSERT_TRUE(restarted.Load().ok());
  const WrapperRepository::Entry* restarted_entry =
      restarted.snapshot()->Find("example.com", "name");
  ASSERT_NE(restarted_entry, nullptr);
  EXPECT_EQ(restarted_entry->record, "XPATH\t//b/text()");
}

TEST_F(PublishTest, PublishWrapperRejectsNull) {
  ASSERT_TRUE(repository_.Load().ok());
  EXPECT_EQ(repository_.PublishWrapper("example.com", "name", nullptr)
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(PublishTest, ReloadKeepsDetectorForUnchangedWrapper) {
  repository_.SetDriftConfig(TestConfig());
  ASSERT_TRUE(repository_.Load().ok());
  std::shared_ptr<DriftState> state =
      repository_.snapshot()->Find("example.com", "name")->drift;
  ASSERT_NE(state, nullptr);
  // A routine reload with an unchanged record must not restart warmup.
  ASSERT_TRUE(repository_.Load().ok());
  EXPECT_EQ(repository_.snapshot()->Find("example.com", "name")->drift,
            state);
  // A changed record re-baselines.
  ASSERT_TRUE(WriteFile(root_ + "/example.com/name.wrapper",
                        "XPATH\t//u/text()\n")
                  .ok());
  ASSERT_TRUE(repository_.Load().ok());
  EXPECT_NE(repository_.snapshot()->Find("example.com", "name")->drift,
            state);
}

// ---------------------------------------------------------------------
// Worker end-to-end (no HTTP): drain → re-induce → publish.
// ---------------------------------------------------------------------

TEST_F(PublishTest, WorkerPublishesWinningRepair) {
  repository_.SetDriftConfig(TestConfig());
  // Install the healthy LR incumbent as the serving wrapper.
  std::string incumbent = LearnIncumbent("LR");
  ASSERT_TRUE(WriteFile(root_ + "/example.com/name.wrapper",
                        incumbent + "\n")
                  .ok());
  ASSERT_TRUE(repository_.Load().ok());

  int64_t published_before = obs::Registry::Global()
                                 .GetCounter("ntw.serve.reinduce_published")
                                 ->value();
  ReinduceWorker worker(&repository_);
  worker.Start();
  ReinduceTask task =
      MutatedTask("LR", {{sitegen::MutationKind::kDelimiterTextChange}});
  Result<ReinduceWorker::Repair> expected =
      ReinduceWorker::Reinduce(task, ReinduceOptions());
  ASSERT_TRUE(expected.ok());
  ASSERT_TRUE(worker.Enqueue(std::move(task)));
  worker.WaitIdle();
  worker.Stop();

  EXPECT_EQ(obs::Registry::Global()
                    .GetCounter("ntw.serve.reinduce_published")
                    ->value() -
                published_before,
            1);
  const WrapperRepository::Entry* entry =
      repository_.snapshot()->Find("example.com", "name");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->record, expected->record);
  Result<std::string> disk = ReadFile(root_ + "/example.com/name.wrapper");
  ASSERT_TRUE(disk.ok());
  EXPECT_EQ(*disk, expected->record + "\n");
}

TEST_F(PublishTest, WorkerCoolsDownRejectedRepairs) {
  repository_.SetDriftConfig(TestConfig());
  ASSERT_TRUE(repository_.Load().ok());
  ReinduceWorker worker(&repository_);
  worker.Start();
  // An unparsable task fails re-induction; its detector must re-arm.
  ReinduceTask task;
  task.site = "example.com";
  task.attribute = "name";
  task.incumbent_record = "TABLE\tunsupported";
  task.pages = {"<html></html>"};
  task.dictionary = {"anything"};
  task.state = std::make_shared<DriftState>("example.com", "name",
                                            task.incumbent_record,
                                            TestConfig());
  std::shared_ptr<DriftState> state = task.state;
  ASSERT_TRUE(worker.Enqueue(std::move(task)));
  worker.WaitIdle();
  worker.Stop();
  EXPECT_EQ(state->phase(), DriftState::Phase::kCooldown);
}

TEST(ReinduceWorkerTest, EnqueueRejectsWhenStoppedOrFull) {
  WrapperRepository repository("/nonexistent-drift-root");
  ReinduceOptions options;
  options.max_queue = 1;
  ReinduceWorker worker(&repository, options);
  ReinduceTask task;
  // Not started yet: rejected.
  EXPECT_FALSE(worker.Enqueue(task));
  worker.Stop();
  EXPECT_FALSE(worker.Enqueue(task));
}

// ---------------------------------------------------------------------
// /driftz endpoint.
// ---------------------------------------------------------------------

TEST_F(PublishTest, DriftzReportsDetectorStates) {
  repository_.SetDriftConfig(TestConfig());
  ASSERT_TRUE(repository_.Load().ok());
  ExtractService service(&repository_, nullptr);
  // /driftz lists the pairs the snapshot has served; serve this one once.
  HttpRequest extract;
  extract.method = "POST";
  extract.path = "/extract";
  extract.query = {{"site", "example.com"}, {"attribute", "name"}};
  extract.body = "<ul><li>Ada</li></ul>";
  ASSERT_EQ(service.Handle(extract).status, 200);
  HttpRequest request;
  request.method = "GET";
  request.path = "/driftz";
  HttpResponse response = service.Handle(request);
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"schema\":\"ntw-serve-drift\""),
            std::string::npos)
      << response.body;
  // No reinducer was attached, so self-healing reports disabled.
  EXPECT_NE(response.body.find("\"self_heal\":false"), std::string::npos);
  EXPECT_NE(response.body.find("\"site\":\"example.com\""),
            std::string::npos);
  EXPECT_NE(response.body.find("\"phase\":\"warmup\""), std::string::npos);

  request.method = "POST";
  EXPECT_EQ(service.Handle(request).status, 405);
}

TEST_F(PublishTest, DriftzEmptyWithoutDriftConfig) {
  // Drift disabled (the default): entries carry no detector and /driftz
  // reports an empty state list rather than failing.
  ASSERT_TRUE(repository_.Load().ok());
  ExtractService service(&repository_, nullptr);
  HttpRequest request;
  request.method = "GET";
  request.path = "/driftz";
  HttpResponse response = service.Handle(request);
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"states\":[]"), std::string::npos)
      << response.body;
}

}  // namespace
}  // namespace ntw::serve
