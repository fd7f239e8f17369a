#ifndef PAE_CORE_CORPUS_IO_H_
#define PAE_CORE_CORPUS_IO_H_

#include <string>
#include <vector>

#include "core/types.h"
#include "util/status.h"

namespace pae::core {

/// On-disk corpus layout used by the CLI tools (`pae_datagen`,
/// `pae_extract`):
///
///   <dir>/manifest.tsv       category \t language ("ja"|"de")
///   <dir>/pages/<id>.html    one file per product page
///   <dir>/queries.txt        one query per line
///   <dir>/lexicon.txt        tokenizer dictionary, one word per line
///   <dir>/pos_lexicon.tsv    word \t tag
///   <dir>/truth.tsv          optional ground truth:
///                            pid \t attr \t value \t correct \t pair_valid
///   <dir>/aliases.tsv        optional: surface \t canonical
///
/// Tabs and newlines inside values are replaced by spaces on write.

/// Writes `corpus` under `dir` (created if needed).
Status SaveCorpus(const Corpus& corpus, const std::string& dir);

/// The corpus language resources without the pages: what a serving
/// process needs to build an ExtractionEngine around a persisted model.
struct CorpusResources {
  std::string category;
  text::Language language = text::Language::kJa;
  std::vector<std::string> tokenizer_lexicon;
  text::PosLexicon pos_lexicon;
};

/// Reads manifest.tsv + lexicon.txt + pos_lexicon.tsv from `dir` without
/// touching pages/ — O(lexicon) instead of O(corpus), so a daemon can
/// restart in milliseconds against a directory holding millions of
/// pages.
Result<CorpusResources> LoadCorpusResources(const std::string& dir);

/// Reads a corpus previously written by SaveCorpus (or assembled by
/// hand in the same layout).
Result<Corpus> LoadCorpus(const std::string& dir);

/// Writes the truth sample (truth.tsv + aliases.tsv) under `dir`.
Status SaveTruth(const TruthSample& truth, const std::string& dir);

/// Reads truth.tsv/aliases.tsv from `dir`. The valid-pair set is
/// rebuilt from the correct entries.
Result<TruthSample> LoadTruth(const std::string& dir);

/// Writes triples as TSV: product_id \t attribute \t value.
Status SaveTriples(const std::vector<Triple>& triples,
                   const std::string& path);

/// Reads a triples TSV written by SaveTriples.
Result<std::vector<Triple>> LoadTriples(const std::string& path);

}  // namespace pae::core

#endif  // PAE_CORE_CORPUS_IO_H_
