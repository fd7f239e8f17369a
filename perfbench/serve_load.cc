// `perfbench-tool serve`: a closed-loop client of a running pae-serve.
//
// C connections each wait for their reply before sending the next page
// (callers that wait, so a slow server gets less load). Connection t
// walks pool pages t, t+C, t+2C, ... round and round. Every request is
// timed on the client with steady_clock and kept as an exact sample;
// quantiles come from the sorted samples, not from histogram buckets.
// The run ends when the measured window has lasted --seconds and each of
// the first --judge pool pages has been served at least once; quality is
// judged on those pages, so it covers the same pages on every run.
//
// Every response is compared with ExtractWithModel on the same page
// (a one-page corpus, veto rules off), the byte-equality contract of
// core/engine.h; the reference is computed before any request is sent.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <thread>

#include "core/apply.h"
#include "core/corpus_io.h"
#include "core/document.h"
#include "core/eval.h"
#include "serve/client.h"
#include "tool.h"

namespace perfbench {
namespace {

struct ConnectionResult {
  int64_t attempted = 0;
  int64_t failed = 0;      // transport or protocol errors
  int64_t mismatched = 0;  // responses that differ from the reference
  std::vector<double> samples_ms;  // requests sent after the warm-up
  int64_t last_end_ns = 0;
  std::string error;
};

pae::Result<pae::serve::Client> Connect(const pae::tools::Args& args) {
  if (args.Has("socket")) {
    return pae::serve::Client::ConnectUnixSocket(args.GetString("socket", ""));
  }
  return pae::serve::Client::ConnectTcpSocket("127.0.0.1",
                                              args.GetInt("port", 0));
}

size_t NearestRank(size_t n, double q) {
  return static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
}

/// Nearest-rank quantile of sorted samples.
double Quantile(const std::vector<double>& sorted, double q) {
  return sorted[std::max<size_t>(NearestRank(sorted.size(), q), 1) - 1];
}

}  // namespace

int ServeLoad(const pae::tools::Args& args) {
  const std::string catalog = args.GetString("catalog", "");
  const std::string model_path = args.GetString("model", "");
  const std::string resources_dir = args.GetString("resources", "");
  const int connections = args.GetInt("connections", 2);
  const size_t pool_size = static_cast<size_t>(args.GetInt("pool", 2048));
  const size_t judge = static_cast<size_t>(args.GetInt("judge", 256));
  const double seconds = args.GetDouble("seconds", 10);
  const double warmup_s = args.GetDouble("warmup-s", 0.5);
  if (catalog.empty() || model_path.empty() || resources_dir.empty() ||
      connections < 1 || judge < 1 || judge > pool_size ||
      (!args.Has("socket") && !args.Has("port"))) {
    std::cerr << "serve: needs --socket|--port, --catalog, --model, "
                 "--resources\n";
    return 2;
  }

  auto pages_or = ReadPages(catalog, pool_size);
  auto resources = pae::core::LoadCorpusResources(resources_dir);
  auto truth = pae::core::LoadTruth(catalog);
  pae::crf::CrfTagger tagger;
  pae::Status loaded = LoadTagger(model_path, &tagger);
  if (!pages_or.ok() || !resources.ok() || !truth.ok() || !loaded.ok()) {
    std::cerr << "serve: cannot load inputs\n";
    return 1;
  }
  const std::vector<pae::core::ProductPage>& pages = pages_or.value();

  // Reference outputs, computed before the first request.
  pae::core::ApplyOptions apply;
  apply.veto_rules = false;
  apply.threads = 1;
  for (const std::string& key : ReadPairs(model_path)) {
    apply.accepted_pairs.insert(key);
  }
  std::vector<std::vector<pae::core::Triple>> expected;
  std::vector<pae::core::Triple> judged_expected;
  for (const pae::core::ProductPage& page : pages) {
    pae::core::Corpus one;
    one.category = resources.value().category;
    one.language = resources.value().language;
    one.tokenizer_lexicon = resources.value().tokenizer_lexicon;
    one.pos_lexicon = resources.value().pos_lexicon;
    one.pages.push_back(page);
    expected.push_back(pae::core::ExtractWithModel(
        tagger, pae::core::ProcessCorpus(one), apply));
    if (expected.size() <= judge) {
      judged_expected.insert(judged_expected.end(), expected.back().begin(),
                             expected.back().end());
    }
  }
  if (pages.size() < judge) {
    std::cerr << "serve: the catalog has fewer than --judge pages\n";
    return 1;
  }

  std::vector<pae::serve::Client> clients;
  for (int c = 0; c < connections; ++c) {
    auto client = Connect(args);
    if (!client.ok()) {
      std::cerr << "serve: " << client.status().ToString() << "\n";
      return 1;
    }
    clients.push_back(std::move(client).value());
  }

  const int64_t start_ns = NowNs();
  const int64_t measure_from_ns = start_ns + static_cast<int64_t>(warmup_s * 1e9);
  const int64_t deadline_ns = measure_from_ns + static_cast<int64_t>(seconds * 1e9);
  std::vector<ConnectionResult> results(static_cast<size_t>(connections));
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      ConnectionResult& r = results[static_cast<size_t>(c)];
      pae::serve::Client& client = clients[static_cast<size_t>(c)];
      // Requests this connection needs to serve its judged pages.
      const size_t first_pass =
          (judge - static_cast<size_t>(c) + connections - 1) /
          static_cast<size_t>(connections);
      size_t k = static_cast<size_t>(c);
      for (size_t n = 0;; ++n) {
        if (n >= first_pass && NowNs() >= deadline_ns) break;
        const pae::core::ProductPage& page = pages[k];
        const int64_t t0 = NowNs();
        auto response = client.Extract(page.product_id, page.html);
        const int64_t t1 = NowNs();
        ++r.attempted;
        if (!response.ok()) {
          // A failed connection stays failed (client.h); stop it.
          ++r.failed;
          r.error = response.status().ToString();
          break;
        }
        if (response.value().triples != expected[k]) ++r.mismatched;
        if (t0 >= measure_from_ns) {
          r.samples_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
          r.last_end_ns = t1;
        }
        k = (k + static_cast<size_t>(connections)) % pages.size();
      }
    });
  }
  for (std::thread& t : threads) t.join();

  ConnectionResult total;
  for (ConnectionResult& r : results) {
    total.attempted += r.attempted;
    total.failed += r.failed;
    total.mismatched += r.mismatched;
    total.samples_ms.insert(total.samples_ms.end(), r.samples_ms.begin(),
                            r.samples_ms.end());
    total.last_end_ns = std::max(total.last_end_ns, r.last_end_ns);
    if (!r.error.empty()) std::cerr << "serve: " << r.error << "\n";
  }
  std::vector<double>& samples = total.samples_ms;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  const double window_s =
      static_cast<double>(total.last_end_ns - measure_from_ns) / 1e9;
  const pae::core::TripleMetrics quality =
      pae::core::EvaluateTriples(judged_expected, truth.value(), judge);
  const size_t judged =
      quality.correct + quality.incorrect + quality.maybe_incorrect;

  std::cout.precision(10);
  std::cout << "{\"attempted\": " << total.attempted
            << ", \"failed\": " << total.failed
            << ", \"mismatched\": " << total.mismatched
            << ", \"samples\": " << n;
  if (n > 0) {
    std::cout << ", \"p50_ms\": " << Quantile(samples, 0.50)
              << ", \"p90_ms\": " << Quantile(samples, 0.90)
              << ", \"p99_ms\": " << Quantile(samples, 0.99)
              << ", \"beyond_p99\": " << n - NearestRank(n, 0.99)
              << ", \"requests_per_s\": " << static_cast<double>(n) / window_s;
  }
  std::cout << ", \"pool\": " << pages.size()
            << ", \"judged_triples\": " << judged_expected.size()
            << ", \"correct\": " << quality.correct
            << ", \"precision_pct\": "
            << (judged ? 100.0 * static_cast<double>(quality.correct) /
                             static_cast<double>(judged)
                       : 0.0)
            << "}\n";
  return 0;
}

}  // namespace perfbench
