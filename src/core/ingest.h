#ifndef PAE_CORE_INGEST_H_
#define PAE_CORE_INGEST_H_

#include <string>

#include "core/document.h"
#include "core/preprocess.h"
#include "util/status.h"

namespace pae::core {

/// A preprocessed corpus together with its seed-table candidates: what
/// the bootstrap and the apply path need from an on-disk corpus.
struct IngestedCorpus {
  ProcessedCorpus corpus;
  CandidateSet candidates;
};

struct IngestOptions {
  /// Parse workers (0 = all hardware threads; negative clamps to 1).
  int threads = 1;
};

/// Loads the corpus under `dir` (LoadCorpus), preprocesses it
/// (ProcessCorpus with `options.threads` workers) and discovers its
/// table candidates (DiscoverCandidates). The result is identical for
/// every thread count; a load failure is returned as LoadCorpus's
/// status.
Result<IngestedCorpus> IngestCorpusDir(const std::string& dir,
                                       const IngestOptions& options);

}  // namespace pae::core

#endif  // PAE_CORE_INGEST_H_
