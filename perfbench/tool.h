// Shared pieces of perfbench-tool: the subcommands, a monotonic clock,
// the model loader they share, and the in-memory span recorder of the
// traced run.
#ifndef PERFBENCH_TOOL_H_
#define PERFBENCH_TOOL_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "args.h"
#include "core/types.h"
#include "crf/crf_tagger.h"
#include "util/status.h"

namespace perfbench {

int Evaluate(const pae::tools::Args& args);
int ServeLoad(const pae::tools::Args& args);
int Layers(const pae::tools::Args& args);

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Loads a `.paez` (or legacy) CRF model into `tagger`, exactly as
/// `pae-extract --apply-model` does.
pae::Status LoadTagger(const std::string& path, pae::crf::CrfTagger* tagger);

/// Reads `<model>.pairs`, the accepted catalog values saved next to a
/// model.
std::vector<std::string> ReadPairs(const std::string& model_path);

/// Reads `<dir>/pages/*.html` in name order, at most `limit` of them
/// (0 = all); the product id is the file stem, as the corpus loader
/// names it.
pae::Result<std::vector<pae::core::ProductPage>> ReadPages(
    const std::string& dir, size_t limit);

/// Spans kept in memory and written out once, at exit. Only the thread
/// that owns the Tracer records; parallel layer calls get one span
/// around the whole call.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;       // index into spans(), -1 for a root span
    int64_t request = -1;  // shared by the spans of one request or page
  };
  struct SelfTime {
    int64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;  // total minus the time covered by children
  };

  /// Opens a span whose parent is the innermost open span.
  int Begin(const std::string& name, int64_t request = -1);
  void End(int id);
  void Count(const std::string& name, double delta) { counts_[name] += delta; }

  const std::vector<Span>& spans() const { return spans_; }
  std::map<std::string, SelfTime> SelfTimes() const;
  /// Writes spans, counts and self times as one JSON object.
  pae::Status WriteJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::map<std::string, double> counts_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int64_t request = -1)
      : tracer_(tracer), id_(tracer->Begin(name, request)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TOOL_H_
