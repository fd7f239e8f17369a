#ifndef PAE_CORE_PREPROCESS_H_
#define PAE_CORE_PREPROCESS_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "core/document.h"
#include "core/tagging.h"
#include "core/types.h"

namespace pae::core {

/// One distinct <attribute-surface, value> pair harvested from
/// dictionary tables, with its support.
struct CandidatePair {
  std::string attribute;  // surface name as written by merchants
  std::string value;
  int count = 0;                          // occurrences across pages
  std::vector<std::string> product_ids;   // pages it came from
};

/// The raw candidate set (§V-A "candidate_discovery").
struct CandidateSet {
  std::vector<CandidatePair> pairs;
};

/// Harvests attribute/value candidates from every dictionary table of
/// the corpus.
CandidateSet DiscoverCandidates(const ProcessedCorpus& corpus);

/// Clusters redundant attribute surface names (製造元 vs メーカー) with
/// the value-overlap confidence score of Charron et al. [4]: two
/// attributes are similar if they share many values relative to their
/// maximum range size, discounted when the ranges have comparable size.
struct AggregationConfig {
  double threshold = 0.22;
  double comparable_range_discount = 0.3;  // λ in score = conf·(1 − λ·min/max)
};

/// surface name → cluster representative (the highest-support surface).
std::unordered_map<std::string, std::string> AggregateAttributes(
    const CandidateSet& candidates, const AggregationConfig& config);

/// Knobs of the full §V-A seed construction.
struct PreprocessConfig {
  AggregationConfig aggregation;
  /// Value cleaning: a value survives if it appears in the query log or
  /// occurs at least this often in the pages.
  int value_min_count = 3;
  /// Value diversification (§V-A): number of most-frequent PoS-tag
  /// sequences per attribute (k) and values sampled per sequence (n).
  bool enable_diversification = true;
  int diversify_top_shapes = 4;
  int diversify_values_per_shape = 5;
  /// A PoS shape is only trusted when its total candidate support
  /// reaches this count. Legitimate attributes concentrate on a few
  /// high-support shapes ("NUM|UNIT"); junk table rows (remarks,
  /// shipping notes) scatter over near-unique shapes and are excluded.
  int diversify_min_shape_support = 3;
  /// Specialized models (§VIII-D): restrict the seed (and hence the
  /// tagger) to these canonical attribute names; empty = all.
  std::vector<std::string> attribute_filter;
};

/// The constructed seed: cleaned + diversified pairs, the triples they
/// directly yield from tables, and bookkeeping for Table I.
struct Seed {
  /// Final seed pairs, tokenized for distant supervision, ordered by
  /// support (highest first).
  std::vector<SeedPair> pairs;
  /// Triples read directly off dictionary tables for pairs in the seed.
  std::vector<Triple> table_triples;
  /// Representative attribute names present in the seed.
  std::vector<std::string> attributes;
  /// surface → representative mapping used (aggregation output).
  std::unordered_map<std::string, std::string> surface_to_rep;

  // Stats for reporting.
  size_t candidates_before_cleaning = 0;
  size_t pairs_after_cleaning = 0;
  size_t pairs_added_by_diversification = 0;
};

/// Runs the whole §V-A pre-processing chain (Fig. 1 lines 2–4).
Seed BuildSeed(const ProcessedCorpus& corpus, const PreprocessConfig& config);

/// The chain after candidate discovery (aggregation → cleaning →
/// diversification → assembly), for callers that already hold the
/// candidate set (IngestCorpusDir returns one, core/ingest.h).
/// `BuildSeed` is exactly `DiscoverCandidates` + this.
Seed BuildSeedFromCandidates(const ProcessedCorpus& corpus,
                             const CandidateSet& candidates,
                             const PreprocessConfig& config);

}  // namespace pae::core

#endif  // PAE_CORE_PREPROCESS_H_
