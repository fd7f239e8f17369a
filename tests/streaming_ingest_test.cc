// Equality proof for on-disk ingestion (core/ingest.h): IngestCorpusDir
// must produce a ProcessedCorpus, CandidateSet and Seed byte-identical to
// the stage-by-stage pipeline (LoadCorpus → ProcessCorpus →
// DiscoverCandidates → BuildSeed) at every thread count, for both
// tokenizers, and fail on a missing directory exactly as LoadCorpus does.

#include "core/ingest.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/corpus_io.h"
#include "core/document.h"
#include "core/preprocess.h"
#include "datagen/generator.h"
#include "scratch_dir.h"

namespace pae::core {
namespace {

namespace fs = std::filesystem;

datagen::GeneratedCategory MakeCategory(int products, uint64_t seed) {
  datagen::GeneratorConfig config;
  config.num_products = products;
  config.seed = seed;
  return datagen::GenerateCategory(datagen::CategoryId::kDigitalCameras,
                                   config);
}

// Field-for-field serializations: string equality below is
// byte-equality of everything the downstream pipeline can observe.

std::string Serialize(const ProcessedCorpus& corpus) {
  std::ostringstream os;
  os << corpus.category << '\x1f' << static_cast<int>(corpus.language)
     << '\x1f';
  for (const std::string& q : corpus.query_log) os << q << '\x1f';
  for (const ProcessedPage& page : corpus.pages) {
    os << "\x1e" << page.product_id << '\x1f';
    for (const auto& sentence : page.sentences) {
      os << sentence.sentence_index << '\x1f';
      for (const auto& token : sentence.tokens) os << token << '\x1f';
      for (const auto& tag : sentence.pos) os << tag << '\x1f';
    }
    for (const auto& table : page.tables) {
      for (const auto& [name, value] : table.entries) {
        os << name << '\x1f' << value << '\x1f';
      }
    }
  }
  return os.str();
}

std::string Serialize(const CandidateSet& candidates) {
  std::ostringstream os;
  for (const CandidatePair& pair : candidates.pairs) {
    os << pair.attribute << '\x1f' << pair.value << '\x1f' << pair.count
       << '\x1f';
    for (const std::string& pid : pair.product_ids) os << pid << '\x1f';
    os << '\x1e';
  }
  return os.str();
}

std::string Serialize(const Seed& seed) {
  std::ostringstream os;
  os << seed.candidates_before_cleaning << '\x1f'
     << seed.pairs_after_cleaning << '\x1f'
     << seed.pairs_added_by_diversification << '\x1f';
  for (const SeedPair& pair : seed.pairs) {
    os << pair.attribute << '\x1f' << pair.value_display << '\x1f';
    for (const std::string& token : pair.value_tokens) os << token << '\x1f';
    os << '\x1e';
  }
  for (const Triple& t : seed.table_triples) {
    os << t.product_id << '\x1f' << t.attribute << '\x1f' << t.value
       << '\x1e';
  }
  for (const std::string& attribute : seed.attributes) {
    os << attribute << '\x1f';
  }
  std::vector<std::pair<std::string, std::string>> reps(
      seed.surface_to_rep.begin(), seed.surface_to_rep.end());
  std::sort(reps.begin(), reps.end());
  for (const auto& [surface, rep] : reps) {
    os << surface << '\x1f' << rep << '\x1f';
  }
  return os.str();
}

/// Saves `corpus` under a fresh directory of this process's scratch dir.
std::string SaveToScratch(const Corpus& corpus, const std::string& name) {
  const std::string dir = test::ScratchPath(name);
  fs::remove_all(dir);
  EXPECT_TRUE(SaveCorpus(corpus, dir).ok());
  return dir;
}

/// Ingests `dir` at 1, 4 and 8 threads and checks every arm against
/// the stage-by-stage pipeline run serially on LoadCorpus(dir).
void ExpectIngestMatchesStages(const std::string& dir) {
  auto loaded = LoadCorpus(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const ProcessedCorpus reference = ProcessCorpus(loaded.value(), 1);
  const std::string corpus_bytes = Serialize(reference);
  const std::string candidates_bytes = Serialize(DiscoverCandidates(reference));
  const std::string seed_bytes =
      Serialize(BuildSeed(reference, PreprocessConfig{}));
  ASSERT_FALSE(candidates_bytes.empty());

  for (int threads : {1, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    IngestOptions options;
    options.threads = threads;
    auto ingested = IngestCorpusDir(dir, options);
    ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
    EXPECT_EQ(Serialize(ingested.value().corpus), corpus_bytes);
    EXPECT_EQ(Serialize(ingested.value().candidates), candidates_bytes);
    EXPECT_EQ(Serialize(BuildSeedFromCandidates(ingested.value().corpus,
                                                ingested.value().candidates,
                                                PreprocessConfig{})),
              seed_bytes);
  }
}

TEST(StreamingIngestTest, MatchesBarrierPipelineAtEveryThreadCount) {
  const datagen::GeneratedCategory category = MakeCategory(120, 4242);
  ExpectIngestMatchesStages(SaveToScratch(category.corpus, "ja"));
}

TEST(StreamingIngestTest, GermanCategoryMatchesBarrierPipeline) {
  // Latin-tokenizer coverage: the Japanese category above never touches
  // the LatinTokenizer.
  datagen::GeneratorConfig config;
  config.num_products = 90;
  config.seed = 1337;
  const datagen::GeneratedCategory category = datagen::GenerateCategory(
      datagen::CategoryId::kCoffeeMachinesDe, config);
  ASSERT_EQ(category.corpus.language, text::Language::kDe);
  ExpectIngestMatchesStages(SaveToScratch(category.corpus, "de"));
}

TEST(StreamingIngestTest, DiskStreamingMatchesInMemoryIngestion) {
  // Reference is the generated corpus processed in memory, never written
  // out: the save/load round trip must change nothing observable.
  const datagen::GeneratedCategory category = MakeCategory(80, 777);
  const ProcessedCorpus in_memory = ProcessCorpus(category.corpus, 1);
  const std::string corpus_bytes = Serialize(in_memory);
  const std::string candidates_bytes = Serialize(DiscoverCandidates(in_memory));
  const std::string dir = SaveToScratch(category.corpus, "round_trip");

  for (int threads : {1, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    IngestOptions options;
    options.threads = threads;
    auto streamed = IngestCorpusDir(dir, options);
    ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
    EXPECT_EQ(Serialize(streamed.value().corpus), corpus_bytes);
    EXPECT_EQ(Serialize(streamed.value().candidates), candidates_bytes);
  }
}

TEST(StreamingIngestTest, MissingDirectoryFailsLikeLoadCorpus) {
  const std::string missing = test::ScratchPath("missing");
  auto result = IngestCorpusDir(missing, IngestOptions{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), LoadCorpus(missing).status().code());
}

}  // namespace
}  // namespace pae::core
