// The serving layer: GenerationCell hot-swap semantics (including the
// multi-threaded swap hammer), ExtractionEngine byte-identity with the
// batch ExtractWithModel path, the in-process server smoke and the
// deterministic load driver.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/apply.h"
#include "core/bootstrap.h"
#include "core/corpus_io.h"
#include "core/engine.h"
#include "core/model_artifact.h"
#include "core/normalize.h"
#include "crf/crf_tagger.h"
#include "datagen/generator.h"
#include "scratch_dir.h"
#include "serve/client.h"
#include "serve/generation.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "util/metrics.h"

namespace pae {
namespace {

constexpr char kPageHtml[] = "<p>色は赤です。</p>";

/// Tags the literal token "赤" with a per-instance attribute name, so a
/// response's triples identify exactly which engine generation served
/// it.
class GenTagger : public text::SequenceTagger {
 public:
  explicit GenTagger(std::string attribute)
      : attribute_(std::move(attribute)) {}

  Status Train(const std::vector<text::LabeledSequence>&) override {
    return Status::Ok();
  }
  std::vector<std::string> Predict(
      const text::LabeledSequence& seq) const override {
    std::vector<std::string> labels(seq.tokens.size(), text::kOutsideLabel);
    for (size_t i = 0; i < seq.tokens.size(); ++i) {
      if (seq.tokens[i] == "赤") labels[i] = "B-" + attribute_;
    }
    return labels;
  }
  ScoredPrediction PredictScored(
      const text::LabeledSequence& seq) const override {
    ScoredPrediction out;
    out.labels = Predict(seq);
    out.confidence.assign(out.labels.size(), 0.9);
    return out;
  }
  std::string Name() const override { return "gen-" + attribute_; }

 private:
  std::string attribute_;
};

/// An engine whose output attribute encodes `tag` (e.g. "色7" for the
/// 7th published generation).
std::shared_ptr<const core::ExtractionEngine> MakeStubEngine(
    const std::string& tag) {
  return std::make_shared<core::ExtractionEngine>(
      std::make_shared<GenTagger>(tag), text::Language::kJa,
      std::vector<std::string>{"です", "ではありません"},
      text::PosLexicon{},
      core::EngineOptions{});
}

/// The batch-path reference output for a one-page corpus tagged by
/// GenTagger(tag): what ExtractWithModel returns, which the engine must
/// match byte for byte.
std::vector<core::Triple> BatchReference(const std::string& product_id,
                                         const std::string& tag) {
  core::Corpus corpus;
  corpus.language = text::Language::kJa;
  corpus.tokenizer_lexicon = {"です", "ではありません"};
  core::ProductPage page;
  page.product_id = product_id;
  page.html = kPageHtml;
  corpus.pages = {page};
  core::ProcessedCorpus processed = core::ProcessCorpus(corpus);
  GenTagger tagger(tag);
  return core::ExtractWithModel(tagger, processed, core::ApplyOptions{});
}

// ---------------------------------------------------------------------
// GenerationCell

TEST(GenerationCellTest, EmptyBeforeFirstPublish) {
  serve::GenerationCell cell;
  EXPECT_EQ(cell.generation(), 0u);
  serve::GenerationCell::Lease lease = cell.Acquire();
  EXPECT_TRUE(lease.empty());
  EXPECT_EQ(lease.engine(), nullptr);
}

TEST(GenerationCellTest, PublishAdvancesGenerations) {
  serve::GenerationCell cell;
  EXPECT_EQ(cell.Publish(MakeStubEngine("a")), 1u);
  EXPECT_EQ(cell.Publish(MakeStubEngine("b")), 2u);
  EXPECT_EQ(cell.generation(), 2u);
  serve::GenerationCell::Lease lease = cell.Acquire();
  ASSERT_FALSE(lease.empty());
  EXPECT_EQ(lease.generation(), 2u);
}

TEST(GenerationCellTest, LeasePinsOldGenerationAcrossSwap) {
  serve::GenerationCell cell;
  auto old_engine = MakeStubEngine("old");
  cell.Publish(old_engine);
  serve::GenerationCell::Lease lease = cell.Acquire();
  ASSERT_EQ(lease.generation(), 1u);
  const core::ExtractionEngine* pinned = lease.engine();
  cell.Publish(MakeStubEngine("new"));
  // The in-flight lease still serves the old snapshot...
  EXPECT_EQ(lease.engine(), pinned);
  EXPECT_EQ(pinned, old_engine.get());
  // ...while new acquisitions see the new generation.
  serve::GenerationCell::Lease fresh = cell.Acquire();
  EXPECT_EQ(fresh.generation(), 2u);
  EXPECT_NE(fresh.engine(), pinned);
}

TEST(GenerationCellTest, PublisherRunsAheadUntilSlotReuse) {
  serve::GenerationCell cell;
  cell.Publish(MakeStubEngine("g1"));
  serve::GenerationCell::Lease lease = cell.Acquire();  // pins slot 1
  // Slots 2..kSlots and slot 0 are free: kSlots - 1 more publishes must
  // not block. Reusing slot 1 (generation kSlots + 1) would.
  for (size_t i = 2; i <= serve::GenerationCell::kSlots; ++i) {
    EXPECT_EQ(cell.Publish(MakeStubEngine("g" + std::to_string(i))), i);
  }
  // Release in a helper thread, then the blocked publish completes.
  std::thread releaser([&lease] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    lease.Release();
  });
  EXPECT_EQ(cell.Publish(MakeStubEngine("g9")),
            serve::GenerationCell::kSlots + 1);
  releaser.join();
}

// The tentpole race test: reader threads hammer Extract through the
// generation pointer while a publisher swaps 100 generations under
// them. Every response must be attributable to exactly one published
// generation and byte-identical to the batch path's output for that
// generation. Run under TSan in check.sh's sanitizer pass.
TEST(GenerationCellTest, HotSwapHammerYieldsOnlyPublishedGenerations) {
  constexpr int kGenerations = 100;
  constexpr int kReaders = 8;

  std::vector<std::shared_ptr<const core::ExtractionEngine>> engines;
  std::vector<std::vector<core::Triple>> expected(kGenerations + 1);
  engines.reserve(kGenerations);
  for (int g = 1; g <= kGenerations; ++g) {
    const std::string tag = "色" + std::to_string(g);
    engines.push_back(MakeStubEngine(tag));
    expected[static_cast<size_t>(g)] = BatchReference("p1", tag);
    ASSERT_FALSE(expected[static_cast<size_t>(g)].empty());
  }

  serve::GenerationCell cell;
  std::atomic<bool> done{false};
  std::atomic<int64_t> reads{0};
  std::atomic<int64_t> mismatches{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      auto scratch = core::ExtractionEngine::NewScratch();
      while (!done.load(std::memory_order_seq_cst)) {
        serve::GenerationCell::Lease lease = cell.Acquire();
        if (lease.empty()) continue;
        const uint64_t generation = lease.generation();
        if (generation < 1 ||
            generation > static_cast<uint64_t>(kGenerations)) {
          mismatches.fetch_add(1, std::memory_order_seq_cst);
          continue;
        }
        std::vector<core::Triple> triples =
            lease.engine()->Extract("p1", kPageHtml, scratch.get());
        if (triples != expected[generation]) {
          mismatches.fetch_add(1, std::memory_order_seq_cst);
        }
        reads.fetch_add(1, std::memory_order_seq_cst);
      }
    });
  }

  for (int g = 1; g <= kGenerations; ++g) {
    cell.Publish(engines[static_cast<size_t>(g - 1)]);
    std::this_thread::yield();
  }
  // Let readers observe the final generation before stopping.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  done.store(true, std::memory_order_seq_cst);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(mismatches.load(std::memory_order_seq_cst), 0);
  EXPECT_GT(reads.load(std::memory_order_seq_cst), 0);
  EXPECT_EQ(cell.generation(), static_cast<uint64_t>(kGenerations));
}

// The same hammer against real CRF engines, one legacy-parsed and one
// mmap-backed (`.paez`): publishes alternate between the two load paths
// of the SAME model while readers run inference straight over the
// shared mapping. Every response must be byte-identical to the
// reference regardless of which format served it. Run under TSan in
// check.sh's serve pass; the fixture is built once per process so
// --gtest_repeat reuses it.
TEST(GenerationCellTest, HotSwapHammerPackedArtifact) {
  struct Fixture {
    std::shared_ptr<const core::ExtractionEngine> legacy_engine;
    std::shared_ptr<const core::ExtractionEngine> packed_engine;
    std::vector<core::Triple> expected;
  };
  static const Fixture* fixture = [] {
    auto* f = new Fixture();
    Rng rng(9);
    std::vector<text::LabeledSequence> data;
    for (int i = 0; i < 80; ++i) {
      text::LabeledSequence seq;
      seq.tokens = {"重量", "は", std::to_string(rng.NextInt(1, 9)), "kg",
                    "です"};
      seq.pos = {"NN", "PRT", "NUM", "UNIT", "VB"};
      seq.labels = {"O", "O", "B-重量", "I-重量", "O"};
      data.push_back(std::move(seq));
    }
    crf::CrfOptions options;
    options.max_iterations = 20;
    auto trained = std::make_shared<crf::CrfTagger>(options);
    PAE_CHECK(trained->Train(data).ok());

    const std::string model_path = test::ScratchPath("hammer_model.crf");
    const std::string paez_path = test::ScratchPath("hammer_model.paez");
    PAE_CHECK(trained->Save(model_path).ok());
    PAE_CHECK(core::PackModelArtifact(*trained, nullptr,
                                      core::PackOptions(), paez_path)
                  .ok());

    auto legacy = std::make_shared<crf::CrfTagger>();
    PAE_CHECK(legacy->Load(model_path).ok());
    auto artifact = core::ModelArtifact::Open(paez_path);
    PAE_CHECK(artifact.ok()) << artifact.status().ToString();
    auto packed_model = core::MakePackedCrfModel(std::move(artifact).value());
    PAE_CHECK(packed_model.ok());
    auto packed = std::make_shared<crf::CrfTagger>();
    PAE_CHECK(packed->LoadPacked(std::move(packed_model).value()).ok());
    PAE_CHECK(packed->packed());

    const std::vector<std::string> lexicon = {"重量", "kg", "です"};
    text::PosLexicon pos;
    pos.word_tags = {{"重量", "NN"}, {"kg", "UNIT"}, {"です", "VB"}};
    f->legacy_engine = std::make_shared<core::ExtractionEngine>(
        legacy, text::Language::kJa, lexicon, pos, core::EngineOptions{});
    f->packed_engine = std::make_shared<core::ExtractionEngine>(
        packed, text::Language::kJa, lexicon, pos, core::EngineOptions{});
    auto scratch = core::ExtractionEngine::NewScratch();
    f->expected = f->legacy_engine->Extract(
        "p1", "<p>重量は7kgです。</p>", scratch.get());
    PAE_CHECK(!f->expected.empty())
        << "fixture page must actually extract, or the hammer is vacuous";
    return f;
  }();

  constexpr int kSwaps = 100;
  constexpr int kReaders = 4;
  serve::GenerationCell cell;
  std::atomic<bool> done{false};
  std::atomic<int64_t> reads{0};
  std::atomic<int64_t> mismatches{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      auto scratch = core::ExtractionEngine::NewScratch();
      while (!done.load(std::memory_order_seq_cst)) {
        serve::GenerationCell::Lease lease = cell.Acquire();
        if (lease.empty()) continue;
        std::vector<core::Triple> triples = lease.engine()->Extract(
            "p1", "<p>重量は7kgです。</p>", scratch.get());
        if (triples != fixture->expected) {
          mismatches.fetch_add(1, std::memory_order_seq_cst);
        }
        reads.fetch_add(1, std::memory_order_seq_cst);
      }
    });
  }

  for (int g = 1; g <= kSwaps; ++g) {
    cell.Publish(g % 2 == 0 ? fixture->packed_engine
                            : fixture->legacy_engine);
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  done.store(true, std::memory_order_seq_cst);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(mismatches.load(std::memory_order_seq_cst), 0);
  EXPECT_GT(reads.load(std::memory_order_seq_cst), 0);
}

// ---------------------------------------------------------------------
// ExtractionEngine

TEST(ExtractionEngineTest, MatchesBatchPathByteForByte) {
  auto engine = MakeStubEngine("色");
  auto scratch = core::ExtractionEngine::NewScratch();
  std::vector<core::Triple> served =
      engine->Extract("p1", kPageHtml, scratch.get());
  EXPECT_EQ(served, BatchReference("p1", "色"));
  ASSERT_EQ(served.size(), 1u);
  EXPECT_EQ(served[0].attribute, "色");
  EXPECT_EQ(served[0].value, "赤");
}

TEST(ExtractionEngineTest, ScratchReuseAllocatesNoNewScratches) {
  auto engine = MakeStubEngine("色");
  auto scratch = core::ExtractionEngine::NewScratch();
  util::Counter* created =
      util::MetricsRegistry::Global().GetCounter("engine.scratch_created");
  engine->Extract("warm", kPageHtml, scratch.get());
  const int64_t before = created->value();
  for (int i = 0; i < 100; ++i) {
    engine->Extract("p" + std::to_string(i), kPageHtml, scratch.get());
  }
  // Steady state: the pre-allocated scratch serves every request; no
  // request-path Scratch construction (the model-sized state lives in
  // the engine, allocated once before the loop).
  EXPECT_EQ(created->value(), before);
}

TEST(ExtractionEngineTest, StatsReportPipelineCounts) {
  auto engine = MakeStubEngine("色");
  core::EngineRequestStats stats;
  engine->Extract("p1", kPageHtml, nullptr, &stats);
  EXPECT_EQ(stats.sentences, 1);
  EXPECT_EQ(stats.spans, 1);
  EXPECT_EQ(stats.triples, 1);
  // A negated page: the span is dropped by negation filtering.
  engine->Extract("p2", "<p>色は赤ではありません。</p>", nullptr, &stats);
  EXPECT_EQ(stats.triples, 0);
}

TEST(ExtractionEngineTest, RealCrfEngineMatchesBatchApply) {
  // Train a real CRF on synthetic data, persist model + resources, load
  // them back into an engine and hold it byte-identical to the batch
  // apply path on a fresh crawl.
  datagen::GeneratorConfig gen;
  gen.num_products = 200;
  gen.seed = 42;
  auto crawl =
      datagen::GenerateCategory(datagen::CategoryId::kVacuumCleaner, gen);
  core::ProcessedCorpus corpus = core::ProcessCorpus(crawl.corpus);

  core::PipelineConfig config;
  config.iterations = 1;
  config.crf.max_iterations = 30;
  config.train_final_model = true;
  config.seed = 7;
  core::Pipeline pipeline(config);
  auto trained = pipeline.Run(corpus);
  ASSERT_TRUE(trained.ok());
  ASSERT_NE(trained.value().final_tagger, nullptr);
  auto* crf_tagger = dynamic_cast<crf::CrfTagger*>(
      trained.value().final_tagger.get());
  ASSERT_NE(crf_tagger, nullptr);

  const std::filesystem::path dir = test::ScratchPath("serve_crf_engine");
  std::filesystem::create_directories(dir);
  const std::string model_path = (dir / "model.crf").string();
  ASSERT_TRUE(crf_tagger->Save(model_path).ok());
  ASSERT_TRUE(core::SaveCorpus(crawl.corpus, dir.string()).ok());

  core::EngineOptions engine_options;
  engine_options.min_span_confidence = 0.5;
  auto engine = core::LoadCrfEngine(model_path, dir.string(),
                                    engine_options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  // Fresh crawl, same category: the serving path must equal the batch
  // path page for page (veto rules off — they are corpus-level
  // statistics, not a serving-time concept).
  datagen::GeneratorConfig fresh = gen;
  fresh.num_products = 40;
  fresh.seed = 4242;
  auto crawl_b =
      datagen::GenerateCategory(datagen::CategoryId::kVacuumCleaner, fresh);
  // The engine tokenizes with the deployed (training-time) resources, so
  // the batch side must process the fresh pages with the same lexicons —
  // each crawl's own lexicon only covers the words it happened to emit.
  core::Corpus fresh_pages = crawl_b.corpus;
  fresh_pages.tokenizer_lexicon = crawl.corpus.tokenizer_lexicon;
  fresh_pages.pos_lexicon = crawl.corpus.pos_lexicon;
  core::ProcessedCorpus corpus_b = core::ProcessCorpus(fresh_pages);

  core::ApplyOptions batch_options;
  batch_options.min_span_confidence = 0.5;
  batch_options.veto_rules = false;
  std::vector<core::Triple> batch =
      core::ExtractWithModel(*crf_tagger, corpus_b, batch_options);

  auto scratch = core::ExtractionEngine::NewScratch();
  std::vector<core::Triple> served;
  for (const auto& page : crawl_b.corpus.pages) {
    std::vector<core::Triple> one = engine.value()->Extract(
        page.product_id, page.html, scratch.get());
    served.insert(served.end(), one.begin(), one.end());
  }
  // The engine loaded accepted_pairs from model.crf.pairs; mirror that
  // in the batch options for an apples-to-apples comparison.
  core::ApplyOptions paired = batch_options;
  paired.accepted_pairs = engine.value()->options().accepted_pairs;
  std::vector<core::Triple> batch_paired =
      core::ExtractWithModel(*crf_tagger, corpus_b, paired);
  EXPECT_EQ(served, batch_paired);
  ASSERT_FALSE(served.empty());
  (void)batch;
}

// ---------------------------------------------------------------------
// In-process server smoke

TEST(ServerSmokeTest, TwoHundredRequestsOneSwapCleanShutdown) {
  serve::ServerOptions options;
  options.unix_path = test::ScratchPath("pae_serve_smoke.sock");
  options.workers = 4;
  serve::Server server(options);
  ASSERT_TRUE(server.Start().ok());
  server.Publish(MakeStubEngine("色1"));

  const std::vector<core::Triple> expected_gen1 =
      BatchReference("p1", "色1");
  const std::vector<core::Triple> expected_gen2 =
      BatchReference("p1", "色2");

  auto client = serve::Client::ConnectUnixSocket(options.unix_path);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  int gen1_seen = 0;
  int gen2_seen = 0;
  for (int i = 0; i < 200; ++i) {
    if (i == 100) server.Publish(MakeStubEngine("色2"));
    auto response = client.value().Extract("p1", kPageHtml);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    if (response.value().generation == 1) {
      EXPECT_EQ(response.value().triples, expected_gen1);
      ++gen1_seen;
    } else {
      ASSERT_EQ(response.value().generation, 2u);
      EXPECT_EQ(response.value().triples, expected_gen2);
      ++gen2_seen;
    }
  }
  EXPECT_GT(gen1_seen, 0);
  EXPECT_GT(gen2_seen, 0);

  auto ping = client.value().Ping();
  ASSERT_TRUE(ping.ok());
  EXPECT_EQ(ping.value().generation, 2u);
  EXPECT_EQ(ping.value().model_name, "gen-色2");

  auto stats = client.value().Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats.value().requests, 201u);
  EXPECT_EQ(stats.value().hot_swaps, 1u);
  EXPECT_EQ(stats.value().protocol_errors, 0u);

  ASSERT_TRUE(client.value().Shutdown().ok());
  server.WaitUntilStopRequested();
  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST(ServerSmokeTest, ExtractBeforePublishFailsPrecondition) {
  serve::ServerOptions options;
  options.unix_path = test::ScratchPath("pae_serve_empty.sock");
  options.workers = 1;
  serve::Server server(options);
  ASSERT_TRUE(server.Start().ok());
  auto client = serve::Client::ConnectUnixSocket(options.unix_path);
  ASSERT_TRUE(client.ok());
  auto response = client.value().Extract("p1", kPageHtml);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kFailedPrecondition);
  // The connection survives an application-level error.
  EXPECT_TRUE(client.value().Ping().ok());
  server.Stop();
}

// ---------------------------------------------------------------------
// Deterministic load driver

TEST(LoadgenTest, ScheduleIsSeedDeterministicAndThreadIndependent) {
  serve::LoadgenOptions options;
  options.seed = 123;
  options.requests = 500;
  options.extract_fraction = 0.8;
  options.threads = 1;
  std::vector<serve::RequestSlot> a = BuildSchedule(options, 37);
  options.threads = 8;  // thread count must not shape the schedule
  std::vector<serve::RequestSlot> b = BuildSchedule(options, 37);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].product, b[i].product);
    EXPECT_EQ(a[i].is_extract, b[i].is_extract);
  }
  options.seed = 124;
  std::vector<serve::RequestSlot> c = BuildSchedule(options, 37);
  bool any_different = false;
  for (size_t i = 0; i < a.size(); ++i) {
    any_different |= a[i].product != c[i].product;
  }
  EXPECT_TRUE(any_different);
}

TEST(LoadgenTest, NURandStaysInRangeAndSkews) {
  Rng rng(7);
  std::vector<int> histogram(16, 0);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t v = serve::NURand(15, 3, 16, rng);
    ASSERT_LT(v, 16u);
    ++histogram[static_cast<size_t>(v)];
  }
  // The OR of two uniform draws biases toward indices with more set
  // bits: index 15 must be drawn far more often than index 0.
  EXPECT_GT(histogram[(15 + 3) % 16], histogram[(0 + 3) % 16] * 2);
}

TEST(LoadgenTest, QuantileInterpolatesWithinBuckets) {
  const std::vector<double> bounds = {1.0, 2.0, 4.0};
  // All mass in (1, 2]: the median sits mid-bucket.
  EXPECT_DOUBLE_EQ(
      serve::QuantileFromBuckets(bounds, {0, 10, 0, 0}, 0.5), 1.5);
  // Empty histogram: 0 by definition.
  EXPECT_DOUBLE_EQ(
      serve::QuantileFromBuckets(bounds, {0, 0, 0, 0}, 0.5), 0.0);
  // Overflow mass clamps to the last bound.
  EXPECT_DOUBLE_EQ(
      serve::QuantileFromBuckets(bounds, {0, 0, 0, 10}, 0.99), 4.0);
}

TEST(LoadgenTest, QuantileSaturationFlag) {
  const std::vector<double> bounds = {1.0, 2.0, 4.0};
  // Overflow-bucket quantile: the clamp is an underestimate and must
  // raise the flag.
  bool saturated = false;
  EXPECT_DOUBLE_EQ(
      serve::QuantileFromBuckets(bounds, {0, 0, 0, 10}, 0.99, &saturated),
      4.0);
  EXPECT_TRUE(saturated);
  // Mixed mass: p50 interpolates inside a finite bucket (no flag), p99
  // lands in overflow (flag).
  saturated = false;
  EXPECT_DOUBLE_EQ(
      serve::QuantileFromBuckets(bounds, {8, 0, 0, 2}, 0.5, &saturated),
      0.625);
  EXPECT_FALSE(saturated);
  serve::QuantileFromBuckets(bounds, {8, 0, 0, 2}, 0.99, &saturated);
  EXPECT_TRUE(saturated);
  // The flag is sticky-or friendly: an in-range quantile never clears
  // a previously set value.
  serve::QuantileFromBuckets(bounds, {8, 0, 0, 2}, 0.5, &saturated);
  EXPECT_TRUE(saturated);
}

TEST(LoadgenTest, QuantileEdgeCases) {
  const std::vector<double> bounds = {1.0, 2.0, 4.0};
  bool saturated = false;
  // Target exactly on a cumulative bucket boundary: 10 samples in
  // (0, 1], 10 in (1, 2]; p50 target = 10 = the first bucket's whole
  // cumulative mass → exactly its upper bound, no spill-over.
  EXPECT_DOUBLE_EQ(
      serve::QuantileFromBuckets(bounds, {10, 10, 0, 0}, 0.5, &saturated),
      1.0);
  // Zero-count interior buckets are skipped, not interpolated across.
  EXPECT_DOUBLE_EQ(
      serve::QuantileFromBuckets(bounds, {10, 0, 10, 0}, 0.75, &saturated),
      3.0);
  // q = 0: degenerate target 0 lands at the very start of the first
  // non-empty bucket.
  EXPECT_DOUBLE_EQ(
      serve::QuantileFromBuckets(bounds, {0, 10, 0, 0}, 0.0, &saturated),
      1.0);
  // q = 1 with all mass in one finite bucket: its upper bound.
  EXPECT_DOUBLE_EQ(
      serve::QuantileFromBuckets(bounds, {0, 10, 0, 0}, 1.0, &saturated),
      2.0);
  EXPECT_FALSE(saturated);
  // Single-bucket histogram (one finite bound + overflow).
  const std::vector<double> one_bound = {0.5};
  EXPECT_DOUBLE_EQ(
      serve::QuantileFromBuckets(one_bound, {4, 0}, 0.5, &saturated), 0.25);
  EXPECT_FALSE(saturated);
  EXPECT_DOUBLE_EQ(
      serve::QuantileFromBuckets(one_bound, {0, 4}, 0.5, &saturated), 0.5);
  EXPECT_TRUE(saturated);
}

TEST(LoadgenTest, AggregatesAreIdenticalAtOneAndEightThreads) {
  serve::ServerOptions server_options;
  server_options.unix_path = test::ScratchPath("pae_serve_loadgen.sock");
  server_options.workers = 8;
  serve::Server server(server_options);
  ASSERT_TRUE(server.Start().ok());
  server.Publish(MakeStubEngine("色"));

  std::vector<serve::LoadgenProduct> products;
  for (int i = 0; i < 7; ++i) {
    products.push_back(serve::LoadgenProduct{
        "p" + std::to_string(i), kPageHtml});
  }
  auto connect = [&server_options] {
    return serve::Client::ConnectUnixSocket(server_options.unix_path);
  };

  serve::LoadgenOptions options;
  options.seed = 99;
  options.requests = 400;
  options.extract_fraction = 0.9;

  options.threads = 1;
  auto single = RunLoadgen(options, products, connect);
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  options.threads = 8;
  auto eight = RunLoadgen(options, products, connect);
  ASSERT_TRUE(eight.ok()) << eight.status().ToString();
  server.Stop();

  EXPECT_EQ(single.value().requests_sent, 400u);
  EXPECT_EQ(eight.value().requests_sent, 400u);
  EXPECT_EQ(single.value().ok_responses, eight.value().ok_responses);
  EXPECT_EQ(single.value().triples, eight.value().triples);
  EXPECT_EQ(single.value().checksum, eight.value().checksum);
  EXPECT_GT(single.value().triples, 0u);
  EXPECT_EQ(single.value().error_responses, 0u);
  EXPECT_EQ(eight.value().transport_errors, 0u);
}

TEST(LoadgenTest, SwapHookFiresExactlyOnceAtThreshold) {
  serve::ServerOptions server_options;
  server_options.unix_path = test::ScratchPath("pae_serve_swap.sock");
  server_options.workers = 4;
  serve::Server server(server_options);
  ASSERT_TRUE(server.Start().ok());
  server.Publish(MakeStubEngine("色1"));

  std::vector<serve::LoadgenProduct> products = {
      serve::LoadgenProduct{"p1", kPageHtml}};
  auto connect = [&server_options] {
    return serve::Client::ConnectUnixSocket(server_options.unix_path);
  };
  std::atomic<int> swaps{0};
  serve::LoadgenOptions options;
  options.requests = 200;
  options.threads = 2;
  options.swap_at = 100;
  auto report = RunLoadgen(options, products, connect, [&] {
    swaps.fetch_add(1, std::memory_order_seq_cst);
    server.Publish(MakeStubEngine("色2"));
  });
  server.Stop();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(swaps.load(std::memory_order_seq_cst), 1);
  EXPECT_EQ(report.value().generation_min, 1u);
  EXPECT_EQ(report.value().generation_max, 2u);
}

}  // namespace
}  // namespace pae
