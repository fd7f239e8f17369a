// perfbench-tool: the compiled half of the benchmark (run.py is the
// other). Subcommands:
//
//   evaluate --corpora D1,D2 --triples T1,T2
//       precision of triple files against each corpus's truth.tsv
//   serve --socket PATH | --port N  --catalog DIR --model M.paez
//         --resources DIR --connections C --pool P --seconds S
//       closed-loop client with exact per-request latencies, every
//       response checked against ExtractWithModel on the same page
//   layers --corpus DIR --catalog DIR --model M.paez --resources DIR ...
//       traced run: times calls into each layer's public functions
//
// Each prints one JSON object on stdout.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "core/model_artifact.h"
#include "tool.h"

namespace perfbench {

pae::Status LoadTagger(const std::string& path, pae::crf::CrfTagger* tagger) {
  if (!pae::core::IsPaezFile(path)) return tagger->Load(path);
  auto artifact = pae::core::ModelArtifact::Open(path);
  if (!artifact.ok()) return artifact.status();
  auto packed = pae::core::MakePackedCrfModel(std::move(artifact).value());
  if (!packed.ok()) return packed.status();
  return tagger->LoadPacked(std::move(packed).value());
}

std::vector<std::string> ReadPairs(const std::string& model_path) {
  std::vector<std::string> pairs;
  std::ifstream in(model_path + ".pairs");
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) pairs.push_back(line);
  }
  return pairs;
}

pae::Result<std::vector<pae::core::ProductPage>> ReadPages(
    const std::string& dir, size_t limit) {
  namespace fs = std::filesystem;
  std::vector<fs::path> paths;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(fs::path(dir) / "pages", ec)) {
    if (entry.path().extension() == ".html") paths.push_back(entry.path());
  }
  if (ec) return pae::Status::NotFound(dir + "/pages: " + ec.message());
  std::sort(paths.begin(), paths.end());
  if (limit > 0 && paths.size() > limit) paths.resize(limit);
  std::vector<pae::core::ProductPage> pages;
  for (const fs::path& path : paths) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream html;
    html << in.rdbuf();
    if (!in) return pae::Status::NotFound(path.string() + ": unreadable");
    pages.push_back({path.stem().string(), html.str()});
  }
  if (pages.empty()) return pae::Status::NotFound(dir + "/pages: no pages");
  return pages;
}

int Tracer::Begin(const std::string& name, int64_t request) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  spans_.back().start_ns = NowNs();
  return id;
}

void Tracer::End(int id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  // Spans close innermost first; ScopedSpan guarantees the order.
  open_.pop_back();
}

std::map<std::string, Tracer::SelfTime> Tracer::SelfTimes() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    // Children run inside their parent on the recording thread, so
    // their intervals never overlap and their sum is the covered part.
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, SelfTime> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    SelfTime& self = out[spans_[i].name];
    const int64_t total = spans_[i].end_ns - spans_[i].start_ns;
    self.count += 1;
    self.total_ns += total;
    self.self_ns += total - child_ns[i];
  }
  return out;
}

pae::Status Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  out << "{\"spans\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"id\": " << i << ", \"name\": \""
        << s.name << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << "}";
  }
  out << "],\n\"counts\": {";
  bool first = true;
  for (const auto& [name, value] : counts_) {
    out << (first ? "" : ", ") << "\"" << name << "\": " << value;
    first = false;
  }
  out << "},\n\"self\": {";
  first = true;
  for (const auto& [name, self] : SelfTimes()) {
    out << (first ? "" : ",\n") << "\"" << name << "\": {\"count\": "
        << self.count << ", \"total_ns\": " << self.total_ns
        << ", \"self_ns\": " << self.self_ns << "}";
    first = false;
  }
  out << "}}\n";
  out.close();
  if (!out) return pae::Status::Internal("cannot write " + path);
  return pae::Status::Ok();
}

}  // namespace perfbench

int main(int argc, char** argv) {
  pae::tools::Args args(argc, argv);
  const std::string command =
      args.positional().empty() ? "" : args.positional()[0];
  if (command == "evaluate") return perfbench::Evaluate(args);
  if (command == "serve") return perfbench::ServeLoad(args);
  if (command == "layers") return perfbench::Layers(args);
  std::cerr << "usage: perfbench-tool evaluate|serve|layers [flags]\n";
  return 2;
}
