// `perfbench-tool layers`: the traced run. It times calls into each
// layer's public functions from outside the programs, records a span
// around each call (parent and page/request id included), and prints
// the per-layer metrics as one JSON object.
//
// The bootstrap layers are timed on a replay of the first Tagger–Cleaner
// iteration of Pipeline::Run (core/bootstrap.cc) with the pipeline's
// default settings: ingest, seed, distant supervision, CRF training on
// the iteration-1 training set, tagging, then veto rules, word2vec and
// the semantic filter. The per-page layers (HTML, segmentation, CRF
// compile/Viterbi/marginals, engine) are timed on catalog pages, and
// the transport on the running pae-serve daemons named by --socket and
// --port.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <unordered_map>
#include <unordered_set>

#include "core/apply.h"
#include "core/bootstrap.h"
#include "core/cleaning.h"
#include "core/corpus_io.h"
#include "core/engine.h"
#include "core/ingest.h"
#include "core/normalize.h"
#include "core/preprocess.h"
#include "core/tagging.h"
#include "crf/compiled_corpus.h"
#include "html/parser.h"
#include "serve/client.h"
#include "text/negation.h"
#include "text/pos_tagger.h"
#include "text/sentence.h"
#include "text/tokenizer.h"
#include "tool.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

class MetricsOut {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    out_ += (out_.empty() ? "" : ", ") + ("\"" + name + "\": {\"value\": ") +
            Format(value) + ", \"unit\": \"" + unit + "\"}";
  }
  std::string Json() const { return "{" + out_ + "}"; }

 private:
  static std::string Format(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
  }
  std::string out_;
};

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Seconds spent in spans named `name`.
double TotalS(const std::map<std::string, Tracer::SelfTime>& self,
              const std::string& name) {
  auto it = self.find(name);
  return it == self.end() ? 0.0 : Seconds(it->second.total_ns);
}

/// Median of `v` (by copy).
double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

struct BootstrapReplay {
  size_t clean_input = 0;
  size_t clean_kept = 0;
  int train_iterations = 0;
  size_t train_sentences = 0;
};

/// Replays iteration 1 of Pipeline::Run on `ingested` under `tracer`.
pae::Result<BootstrapReplay> ReplayIterationOne(
    const pae::core::IngestedCorpus& ingested, int threads, Tracer* tracer) {
  namespace core = pae::core;
  const core::PipelineConfig config;  // the defaults pae-extract runs
  const core::ProcessedCorpus& corpus = ingested.corpus;
  pae::util::ThreadPool pool(threads);
  BootstrapReplay replay;
  ScopedSpan iteration(tracer, "bootstrap.iteration", 1);

  core::Seed seed;
  {
    ScopedSpan span(tracer, "core.seed", 1);
    seed = core::BuildSeedFromCandidates(corpus, ingested.candidates,
                                         config.preprocess);
  }
  if (seed.pairs.empty()) {
    return pae::Status::FailedPrecondition("seed has no pairs");
  }

  struct SentRef {
    size_t page;
    size_t sent;
  };
  std::vector<pae::text::LabeledSequence> labeled;
  std::vector<SentRef> unlabeled;
  const pae::text::NegationDetector negation(corpus.language);
  {
    ScopedSpan span(tracer, "core.ds", 1);
    const core::DistantSupervisor supervisor(seed.pairs);
    std::vector<SentRef> all;
    for (size_t p = 0; p < corpus.pages.size(); ++p) {
      for (size_t s = 0; s < corpus.pages[p].sentences.size(); ++s) {
        all.push_back({p, s});
      }
    }
    std::vector<pae::text::LabeledSequence> outcome(all.size());
    std::vector<char> negated(all.size(), 0);
    pool.ParallelFor(0, all.size(), 16, [&](size_t i) {
      const core::ProcessedPage& page = corpus.pages[all[i].page];
      if (page.tables.empty()) return;
      outcome[i] = page.sentences[all[i].sent];
      supervisor.Label(&outcome[i]);
      negated[i] = negation.IsNegated(outcome[i].tokens) ? 1 : 0;
    });
    for (size_t i = 0; i < all.size(); ++i) {
      if (corpus.pages[all[i].page].tables.empty()) {
        unlabeled.push_back(all[i]);
        continue;
      }
      if (negated[i]) {
        outcome[i].labels.assign(outcome[i].tokens.size(),
                                 pae::text::kOutsideLabel);
      }
      labeled.push_back(std::move(outcome[i]));
    }
  }
  tracer->Count("core.ds.labeled_sentences", static_cast<double>(labeled.size()));
  tracer->Count("core.ds.unlabeled_sentences",
                static_cast<double>(unlabeled.size()));

  // Known values and the word2vec merge list, as Pipeline::Run builds them.
  std::unordered_map<std::string, std::vector<std::vector<std::string>>> known;
  std::unordered_set<std::string> known_keys;
  std::vector<core::SeedPair> merge_values;
  for (const core::SeedPair& pair : seed.pairs) {
    const std::string key =
        core::PairKey(pair.attribute, core::NormalizeValue(pair.value_display));
    if (known_keys.insert(key).second) {
      known[pair.attribute].push_back(pair.value_tokens);
      merge_values.push_back(pair);
    }
  }

  pae::crf::CompiledCorpus compiled_corpus;
  {
    std::vector<const pae::text::LabeledSequence*> sentences;
    for (const SentRef& ref : unlabeled) {
      sentences.push_back(&corpus.pages[ref.page].sentences[ref.sent]);
    }
    compiled_corpus.Build(std::move(sentences), config.crf.features);
  }

  pae::Rng rng(config.seed);
  std::vector<pae::text::LabeledSequence> train = labeled;
  if (train.size() > config.max_train_sentences) {
    rng.Shuffle(&train);
    train.resize(config.max_train_sentences);
  }
  pae::crf::CrfOptions crf_options = config.crf;
  crf_options.threads = threads;
  pae::crf::CrfTagger tagger(crf_options);
  {
    ScopedSpan span(tracer, "crf.train", 1);
    pae::Status trained = tagger.Train(train);
    if (!trained.ok()) return trained;
  }
  replay.train_iterations = tagger.training_report().iterations;
  replay.train_sentences = train.size();

  compiled_corpus.Bind(tagger.model(), tagger.Generation());
  std::vector<std::vector<pae::text::ValueSpan>> spans(unlabeled.size());
  {
    ScopedSpan span(tracer, "crf.tag", 1);
    pool.ParallelFor(0, unlabeled.size(), 8, [&](size_t u) {
      const pae::text::LabeledSequence& sentence =
          corpus.pages[unlabeled[u].page].sentences[unlabeled[u].sent];
      if (negation.IsNegated(sentence.tokens)) return;
      thread_local pae::crf::CompiledSequence compiled;
      compiled_corpus.Materialize(u, &compiled);
      spans[u] = pae::text::DecodeBioSpans(tagger.PredictScored(compiled).labels);
    });
  }

  std::unordered_map<std::string, core::TaggedCandidate> by_key;
  std::unordered_map<std::string, std::unordered_set<std::string>> products;
  for (size_t u = 0; u < unlabeled.size(); ++u) {
    const core::ProcessedPage& page = corpus.pages[unlabeled[u].page];
    const pae::text::LabeledSequence& sentence =
        page.sentences[unlabeled[u].sent];
    for (const pae::text::ValueSpan& s : spans[u]) {
      std::vector<std::string> tokens(
          sentence.tokens.begin() + static_cast<long>(s.begin),
          sentence.tokens.begin() + static_cast<long>(s.end));
      const std::string display = corpus.Detokenize(tokens);
      const std::string key =
          core::PairKey(s.attribute, core::NormalizeValue(display));
      auto [it, inserted] = by_key.emplace(key, core::TaggedCandidate{});
      if (inserted) {
        it->second.attribute = s.attribute;
        it->second.value_display = display;
        it->second.value_tokens = tokens;
      }
      if (products[key].insert(page.product_id).second) {
        it->second.item_count += 1;
      }
    }
  }
  std::vector<core::TaggedCandidate> candidates;
  for (auto& [key, c] : by_key) candidates.push_back(std::move(c));
  std::sort(candidates.begin(), candidates.end(),
            [](const core::TaggedCandidate& a, const core::TaggedCandidate& b) {
              if (a.item_count != b.item_count) return a.item_count > b.item_count;
              if (a.attribute != b.attribute) return a.attribute < b.attribute;
              return a.value_display < b.value_display;
            });
  replay.clean_input = candidates.size();

  core::CleaningStats stats;
  {
    ScopedSpan span(tracer, "core.veto", 1);
    candidates = core::ApplyVetoRules(std::move(candidates), config.veto, &stats);
  }
  if (!candidates.empty()) {
    for (const core::TaggedCandidate& c : candidates) {
      merge_values.push_back({c.attribute, c.value_tokens, c.value_display});
    }
    core::SemanticCleaner::Config semantic = config.semantic;
    semantic.word2vec.seed = config.seed * 104729;
    semantic.word2vec.threads = threads;
    core::SemanticCleaner cleaner(semantic);
    pae::Status trained;
    {
      ScopedSpan span(tracer, "embed.word2vec", 1);
      trained = cleaner.Train(corpus, merge_values);
    }
    if (trained.ok()) {
      ScopedSpan span(tracer, "core.filter", 1);
      candidates = cleaner.Filter(candidates, known, &stats);
    }
  }
  replay.clean_kept = candidates.size();
  return replay;
}

}  // namespace

int Layers(const pae::tools::Args& args) {
  namespace core = pae::core;
  const std::string corpus_dir = args.GetString("corpus", "");
  const std::string catalog_dir = args.GetString("catalog", "");
  const std::string model_path = args.GetString("model", "");
  const std::string resources_dir = args.GetString("resources", "");
  const std::string trace_out = args.GetString("trace-out", "");
  const int threads = args.GetInt("threads", 2);
  // Pages timed one by one, and TCP round trips (88 ms each while the
  // transport stalls).
  constexpr size_t kSamplePages = 300;
  constexpr int kTcpRoundTrips = 10;
  if (corpus_dir.empty() || catalog_dir.empty() || model_path.empty() ||
      resources_dir.empty() || !args.Has("socket") || !args.Has("port")) {
    std::cerr << "layers: needs --corpus --catalog --model --resources "
                 "--socket --port\n";
    return 2;
  }
  Tracer tracer;
  MetricsOut out;
  core::IngestOptions ingest_options;
  ingest_options.threads = threads;

  // ---- bootstrap layers, on the bootstrap corpus ----
  pae::Result<core::IngestedCorpus> bootstrap_corpus =
      pae::Status::Internal("not ingested");
  {
    ScopedSpan span(&tracer, "core.ingest.bootstrap");
    bootstrap_corpus = core::IngestCorpusDir(corpus_dir, ingest_options);
  }
  if (!bootstrap_corpus.ok()) {
    std::cerr << "layers: " << bootstrap_corpus.status().ToString() << "\n";
    return 1;
  }
  auto replay = ReplayIterationOne(bootstrap_corpus.value(), threads, &tracer);
  if (!replay.ok()) {
    std::cerr << "layers: " << replay.status().ToString() << "\n";
    return 1;
  }

  // ---- batch apply layers, on the whole catalog ----
  pae::Result<core::IngestedCorpus> catalog = pae::Status::Internal("not ingested");
  {
    ScopedSpan span(&tracer, "core.ingest");
    catalog = core::IngestCorpusDir(catalog_dir, ingest_options);
  }
  pae::crf::CrfTagger tagger;
  pae::Status loaded = LoadTagger(model_path, &tagger);
  if (!catalog.ok() || !loaded.ok()) {
    std::cerr << "layers: cannot load the catalog or the model\n";
    return 1;
  }
  core::ApplyOptions apply;
  apply.threads = threads;
  for (const std::string& key : ReadPairs(model_path)) {
    apply.accepted_pairs.insert(key);
  }
  size_t applied_triples = 0;
  {
    ScopedSpan span(&tracer, "core.apply");
    applied_triples =
        core::ExtractWithModel(tagger, catalog.value().corpus, apply).size();
  }
  tracer.Count("core.apply.triples", static_cast<double>(applied_triples));

  // ---- per-page layers, on the first catalog pages ----
  int64_t load_ns = NowNs();
  auto engine = core::LoadCrfEngine(model_path, resources_dir, {});
  load_ns = NowNs() - load_ns;
  auto pages = ReadPages(catalog_dir, kSamplePages);
  auto resources = core::LoadCorpusResources(resources_dir);
  if (!engine.ok() || !pages.ok() || !resources.ok()) {
    std::cerr << "layers: cannot load the engine or the pages\n";
    return 1;
  }
  const auto tokenizer = pae::text::MakeTokenizer(
      resources.value().language, resources.value().tokenizer_lexicon);
  const pae::text::PosTagger pos(resources.value().language,
                                 resources.value().pos_lexicon);
  auto scratch = core::ExtractionEngine::NewScratch();
  std::vector<double> engine_us;
  for (size_t i = 0; i < pages.value().size(); ++i) {
    const core::ProductPage& page = pages.value()[i];
    ScopedSpan page_span(&tracer, "page", static_cast<int64_t>(i));
    std::string text;
    {
      ScopedSpan span(&tracer, "html.parse", static_cast<int64_t>(i));
      text = pae::html::ExtractText(*pae::html::ParseHtml(page.html));
    }
    {
      ScopedSpan span(&tracer, "text.segment", static_cast<int64_t>(i));
      for (const std::string& sentence : pae::text::SplitSentences(text)) {
        const std::vector<std::string> tokens = tokenizer->Tokenize(sentence);
        tracer.Count("text.tokens", static_cast<double>(tokens.size()));
        (void)pos.Tag(tokens);
      }
    }
    const int64_t t0 = NowNs();
    {
      ScopedSpan span(&tracer, "core.engine", static_cast<int64_t>(i));
      engine.value()->Extract(page.product_id, page.html, scratch.get());
    }
    engine_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }

  // CRF per sentence, on the sentences of the same pages.
  std::vector<const pae::text::LabeledSequence*> sentences;
  for (size_t p = 0; p < std::min(kSamplePages, catalog.value().corpus.pages.size());
       ++p) {
    for (const auto& s : catalog.value().corpus.pages[p].sentences) {
      sentences.push_back(&s);
    }
  }
  const double n_sent = static_cast<double>(std::max<size_t>(sentences.size(), 1));
  tracer.Count("crf.sentences", n_sent);
  int64_t compile_ns = NowNs();
  {
    ScopedSpan span(&tracer, "crf.compile");
    pae::crf::CompiledCorpus compiled_corpus;
    compiled_corpus.Build(sentences, tagger.options().features);
    compiled_corpus.Bind(tagger.model(), tagger.Generation());
    pae::crf::CompiledSequence compiled;
    for (size_t i = 0; i < sentences.size(); ++i) {
      compiled_corpus.Materialize(i, &compiled);
    }
  }
  compile_ns = NowNs() - compile_ns;
  int64_t viterbi_ns = NowNs();
  {
    ScopedSpan span(&tracer, "crf.viterbi");
    for (const auto* s : sentences) (void)tagger.Predict(*s);
  }
  viterbi_ns = NowNs() - viterbi_ns;
  int64_t scored_ns = NowNs();
  {
    ScopedSpan span(&tracer, "crf.scored");
    for (const auto* s : sentences) (void)tagger.PredictScored(*s);
  }
  scored_ns = NowNs() - scored_ns;

  // Tracing overhead: the engine loop with and without spans, twice,
  // alternating, against the cost of one recorded span.
  int64_t traced_ns = 0, plain_ns = 0;
  for (int round = 0; round < 2; ++round) {
    int64_t t = NowNs();
    for (size_t i = 0; i < pages.value().size(); ++i) {
      const core::ProductPage& page = pages.value()[i];
      engine.value()->Extract(page.product_id, page.html, scratch.get());
    }
    plain_ns += NowNs() - t;
    t = NowNs();
    for (size_t i = 0; i < pages.value().size(); ++i) {
      const core::ProductPage& page = pages.value()[i];
      ScopedSpan span(&tracer, "overhead.engine", static_cast<int64_t>(i));
      engine.value()->Extract(page.product_id, page.html, scratch.get());
    }
    traced_ns += NowNs() - t;
  }
  Tracer probe;
  const int kProbeSpans = 100000;
  int64_t span_cost_ns = NowNs();
  for (int i = 0; i < kProbeSpans; ++i) ScopedSpan span(&probe, "probe", i);
  span_cost_ns = NowNs() - span_cost_ns;

  // ---- transport, against running daemons ----
  double unix_ping_us = 0, tcp_ping_us = 0, transport_us = 0;
  {
    auto client = pae::serve::Client::ConnectUnixSocket(args.GetString("socket", ""));
    if (!client.ok()) {
      std::cerr << "layers: " << client.status().ToString() << "\n";
      return 1;
    }
    std::vector<double> us;
    for (int i = 0; i < 200; ++i) {
      ScopedSpan span(&tracer, "serve.unix_ping", i);
      const int64_t t = NowNs();
      if (!client.value().Ping().ok()) return 1;
      us.push_back(static_cast<double>(NowNs() - t) / 1e3);
    }
    unix_ping_us = Median(us);
  }
  {
    auto client =
        pae::serve::Client::ConnectTcpSocket("127.0.0.1", args.GetInt("port", 0));
    if (!client.ok()) {
      std::cerr << "layers: " << client.status().ToString() << "\n";
      return 1;
    }
    std::vector<double> ping_us, extra_us;
    for (int i = 0; i < kTcpRoundTrips; ++i) {
      ScopedSpan span(&tracer, "serve.tcp_ping", i);
      const int64_t t = NowNs();
      if (!client.value().Ping().ok()) return 1;
      ping_us.push_back(static_cast<double>(NowNs() - t) / 1e3);
    }
    for (int i = 0; i < kTcpRoundTrips && i < static_cast<int>(engine_us.size()); ++i) {
      const core::ProductPage& page = pages.value()[static_cast<size_t>(i)];
      ScopedSpan span(&tracer, "serve.tcp_extract", i);
      const int64_t t = NowNs();
      if (!client.value().Extract(page.product_id, page.html).ok()) return 1;
      extra_us.push_back(static_cast<double>(NowNs() - t) / 1e3 -
                         engine_us[static_cast<size_t>(i)]);
    }
    tcp_ping_us = Median(ping_us);
    transport_us = Median(extra_us);
  }

  const auto self = tracer.SelfTimes();
  const double n_pages = static_cast<double>(pages.value().size());
  const double train_s = TotalS(self, "crf.train");
  out.Add("html.parse_us", TotalS(self, "html.parse") * 1e6 / n_pages, "us");
  out.Add("text.segment_us", TotalS(self, "text.segment") * 1e6 / n_pages, "us");
  out.Add("core.ingest_s", TotalS(self, "core.ingest"), "s");
  out.Add("core.ingest_bootstrap_s", TotalS(self, "core.ingest.bootstrap"), "s");
  out.Add("core.seed_s", TotalS(self, "core.seed"), "s");
  out.Add("core.ds_s", TotalS(self, "core.ds"), "s");
  out.Add("crf.train_s", train_s, "s");
  out.Add("crf.train_iterations", replay.value().train_iterations, "count");
  out.Add("crf.train_sentences", static_cast<double>(replay.value().train_sentences),
          "count");
  out.Add("crf.train_ms_per_iteration",
          train_s * 1e3 / std::max(replay.value().train_iterations, 1), "ms");
  out.Add("crf.tag_s", TotalS(self, "crf.tag"), "s");
  out.Add("embed.word2vec_s", TotalS(self, "embed.word2vec"), "s");
  out.Add("core.clean_s", TotalS(self, "core.veto") + TotalS(self, "core.filter"), "s");
  out.Add("core.clean_input", static_cast<double>(replay.value().clean_input), "count");
  out.Add("core.clean_kept", static_cast<double>(replay.value().clean_kept), "count");
  out.Add("core.clean_kept_ratio",
          static_cast<double>(replay.value().clean_kept) /
              static_cast<double>(std::max<size_t>(replay.value().clean_input, 1)),
          "ratio");
  out.Add("crf.compile_us", static_cast<double>(compile_ns) / 1e3 / n_sent, "us");
  out.Add("crf.viterbi_us", static_cast<double>(viterbi_ns) / 1e3 / n_sent, "us");
  out.Add("crf.marginals_us",
          static_cast<double>(scored_ns - viterbi_ns) / 1e3 / n_sent, "us");
  out.Add("core.apply_s", TotalS(self, "core.apply"), "s");
  out.Add("core.engine_us", Median(engine_us), "us");
  out.Add("serve.model_load_ms", static_cast<double>(load_ns) / 1e6, "ms");
  out.Add("serve.unix_ping_us", unix_ping_us, "us");
  out.Add("serve.tcp_ping_us", tcp_ping_us, "us");
  out.Add("serve.transport_us", transport_us, "us");
  out.Add("trace.overhead_ratio",
          static_cast<double>(traced_ns) / static_cast<double>(plain_ns), "ratio");
  out.Add("trace.span_ns",
          static_cast<double>(span_cost_ns) / kProbeSpans, "ns");
  out.Add("trace.spans", static_cast<double>(tracer.spans().size()), "count");

  if (!trace_out.empty()) {
    pae::Status written = tracer.WriteJson(trace_out);
    if (!written.ok()) {
      std::cerr << "layers: " << written.ToString() << "\n";
      return 1;
    }
  }
  std::cout << out.Json() << "\n";
  return 0;
}

}  // namespace perfbench
