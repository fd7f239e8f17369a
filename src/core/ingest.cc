#include "core/ingest.h"

#include <utility>

#include "core/corpus_io.h"
#include "util/metrics.h"

namespace pae::core {

Result<IngestedCorpus> IngestCorpusDir(const std::string& dir,
                                       const IngestOptions& options) {
  util::ScopedTimer timer(
      util::MetricsRegistry::Global().GetHistogram("ingest.seconds"));
  IngestedCorpus out;
  {
    // The raw pages are dropped as soon as they are parsed.
    Result<Corpus> corpus = LoadCorpus(dir);
    if (!corpus.ok()) return corpus.status();
    out.corpus = ProcessCorpus(corpus.value(), options.threads);
  }
  out.candidates = DiscoverCandidates(out.corpus);
  return out;
}

}  // namespace pae::core
