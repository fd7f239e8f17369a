// `perfbench-tool evaluate`: judges triple files against the truth
// sample pae-datagen wrote next to each corpus, with the repository's
// evaluator (the paper's §VI-C protocol), and sums the judgements over
// all corpora given.

#include <iostream>

#include "core/corpus_io.h"
#include "core/eval.h"
#include "tool.h"
#include "util/strings.h"

namespace perfbench {

int Evaluate(const pae::tools::Args& args) {
  const std::vector<std::string> corpora =
      pae::StrSplitSkipEmpty(args.GetString("corpora", ""), ',');
  const std::vector<std::string> triple_files =
      pae::StrSplitSkipEmpty(args.GetString("triples", ""), ',');
  if (corpora.empty() || corpora.size() != triple_files.size()) {
    std::cerr << "evaluate: --corpora and --triples need equal lists\n";
    return 2;
  }
  size_t total = 0, correct = 0, incorrect = 0, maybe = 0, unjudged = 0;
  for (size_t i = 0; i < corpora.size(); ++i) {
    auto truth = pae::core::LoadTruth(corpora[i]);
    auto triples = pae::core::LoadTriples(triple_files[i]);
    if (!truth.ok() || !triples.ok()) {
      std::cerr << "evaluate: "
                << (truth.ok() ? triples.status() : truth.status()).ToString()
                << "\n";
      return 1;
    }
    const pae::core::TripleMetrics m =
        pae::core::EvaluateTriples(triples.value(), truth.value(), 1);
    total += m.total;
    correct += m.correct;
    incorrect += m.incorrect;
    maybe += m.maybe_incorrect;
    unjudged += m.unjudged;
  }
  const size_t judged = correct + incorrect + maybe;
  std::cout << "{\"triples\": " << total << ", \"correct\": " << correct
            << ", \"incorrect\": " << incorrect << ", \"maybe\": " << maybe
            << ", \"unjudged\": " << unjudged << ", \"precision_pct\": "
            << (judged ? 100.0 * static_cast<double>(correct) /
                             static_cast<double>(judged)
                       : 0.0)
            << "}\n";
  return 0;
}

}  // namespace perfbench
