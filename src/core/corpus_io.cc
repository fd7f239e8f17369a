#include "core/corpus_io.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/normalize.h"
#include "util/strings.h"

namespace pae::core {

namespace fs = std::filesystem;

namespace {

std::string SanitizeField(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c == '\t' || c == '\n' || c == '\r') c = ' ';
  }
  return out;
}

Status WriteFile(const fs::path& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  if (!out.good()) {
    return Status::Internal("failed writing " + path.string());
  }
  return Status::Ok();
}

Result<std::string> ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    return Status::NotFound("cannot open " + path.string());
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<std::string> NonEmptyLines(const std::string& content) {
  std::vector<std::string> lines;
  for (auto& line : StrSplit(content, '\n')) {
    std::string_view trimmed = StripAsciiWhitespace(line);
    if (!trimmed.empty()) lines.emplace_back(trimmed);
  }
  return lines;
}

/// Lists <dir>/pages/*.html as sorted native path strings. All paths
/// share the "<dir>/pages/" prefix and filenames cannot contain '/', so
/// byte-wise string order equals fs::path component order — sorting the
/// strings avoids materializing and comparing fs::path objects per page,
/// which dominated corpus-open time on large directories.
Result<std::vector<std::string>> ListPageFiles(const std::string& dir) {
  const fs::path pages_dir = fs::path(dir) / "pages";
  if (!fs::exists(pages_dir)) {
    return Status::NotFound(pages_dir.string() + " missing");
  }
  std::vector<std::string> page_paths;
  for (const auto& entry : fs::directory_iterator(pages_dir)) {
    const std::string& native = entry.path().native();
    // Suffix match replicating path::extension() == ".html": a filename
    // that IS ".html" has no extension and stays excluded.
    constexpr std::string_view kExt = ".html";
    if (native.size() <= kExt.size() ||
        std::string_view(native).substr(native.size() - kExt.size()) !=
            kExt) {
      continue;
    }
    const size_t slash = native.find_last_of('/');
    const std::string_view filename =
        slash == std::string::npos
            ? std::string_view(native)
            : std::string_view(native).substr(slash + 1);
    if (filename == kExt) continue;
    page_paths.push_back(native);
  }
  std::sort(page_paths.begin(), page_paths.end());
  return page_paths;
}

/// Product id of a listed page path: the filename minus its ".html"
/// suffix (what path::stem() returns for these names).
std::string ProductIdFromPagePath(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const size_t begin = slash == std::string::npos ? 0 : slash + 1;
  return path.substr(begin, path.size() - begin - 5);
}

}  // namespace

Status SaveCorpus(const Corpus& corpus, const std::string& dir) {
  std::error_code ec;
  fs::create_directories(fs::path(dir) / "pages", ec);
  if (ec) {
    return Status::Internal("cannot create " + dir + ": " + ec.message());
  }

  PAE_RETURN_IF_ERROR(WriteFile(
      fs::path(dir) / "manifest.tsv",
      SanitizeField(corpus.category) + "\t" +
          text::LanguageName(corpus.language) + "\n"));

  for (const ProductPage& page : corpus.pages) {
    PAE_RETURN_IF_ERROR(WriteFile(
        fs::path(dir) / "pages" / (page.product_id + ".html"), page.html));
  }

  std::string queries;
  for (const auto& q : corpus.query_log) queries += SanitizeField(q) + "\n";
  PAE_RETURN_IF_ERROR(WriteFile(fs::path(dir) / "queries.txt", queries));

  std::string lexicon;
  for (const auto& w : corpus.tokenizer_lexicon) {
    lexicon += SanitizeField(w) + "\n";
  }
  PAE_RETURN_IF_ERROR(WriteFile(fs::path(dir) / "lexicon.txt", lexicon));

  std::string pos;
  for (const auto& [word, tag] : corpus.pos_lexicon.word_tags) {
    pos += SanitizeField(word) + "\t" + SanitizeField(tag) + "\n";
  }
  return WriteFile(fs::path(dir) / "pos_lexicon.tsv", pos);
}

namespace {

/// Parses manifest.tsv into the category / language fields shared by
/// LoadCorpus and LoadCorpusResources.
Status LoadManifest(const std::string& dir, std::string* category,
                    text::Language* language) {
  Result<std::string> manifest = ReadFile(fs::path(dir) / "manifest.tsv");
  if (!manifest.ok()) return manifest.status();
  std::vector<std::string> lines = NonEmptyLines(manifest.value());
  if (lines.empty()) {
    return Status::InvalidArgument(dir + ": empty manifest.tsv");
  }
  std::vector<std::string> fields = StrSplit(lines[0], '\t');
  if (fields.size() < 2) {
    return Status::InvalidArgument(dir + ": malformed manifest.tsv");
  }
  *category = fields[0];
  if (fields[1] == "ja") {
    *language = text::Language::kJa;
  } else if (fields[1] == "de") {
    *language = text::Language::kDe;
  } else {
    return Status::InvalidArgument(dir + ": unknown language " + fields[1]);
  }
  return Status::Ok();
}

void LoadLexicons(const std::string& dir,
                  std::vector<std::string>* tokenizer_lexicon,
                  text::PosLexicon* pos_lexicon) {
  if (Result<std::string> lexicon = ReadFile(fs::path(dir) / "lexicon.txt");
      lexicon.ok()) {
    *tokenizer_lexicon = NonEmptyLines(lexicon.value());
  }
  if (Result<std::string> pos = ReadFile(fs::path(dir) / "pos_lexicon.tsv");
      pos.ok()) {
    for (const std::string& line : NonEmptyLines(pos.value())) {
      std::vector<std::string> parts = StrSplit(line, '\t');
      if (parts.size() >= 2) {
        pos_lexicon->word_tags[parts[0]] = parts[1];
      }
    }
  }
}

}  // namespace

Result<Corpus> LoadCorpus(const std::string& dir) {
  Corpus corpus;
  PAE_RETURN_IF_ERROR(
      LoadManifest(dir, &corpus.category, &corpus.language));

  Result<std::vector<std::string>> page_paths = ListPageFiles(dir);
  if (!page_paths.ok()) return page_paths.status();
  for (const std::string& path : page_paths.value()) {
    Result<std::string> html = ReadFile(path);
    if (!html.ok()) return html.status();
    ProductPage page;
    page.product_id = ProductIdFromPagePath(path);
    page.html = std::move(html).value();
    corpus.pages.push_back(std::move(page));
  }

  if (Result<std::string> queries = ReadFile(fs::path(dir) / "queries.txt");
      queries.ok()) {
    corpus.query_log = NonEmptyLines(queries.value());
  }
  LoadLexicons(dir, &corpus.tokenizer_lexicon, &corpus.pos_lexicon);
  return corpus;
}

Result<CorpusResources> LoadCorpusResources(const std::string& dir) {
  CorpusResources resources;
  PAE_RETURN_IF_ERROR(
      LoadManifest(dir, &resources.category, &resources.language));
  LoadLexicons(dir, &resources.tokenizer_lexicon, &resources.pos_lexicon);
  return resources;
}

Status SaveTruth(const TruthSample& truth, const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create " + dir + ": " + ec.message());
  }
  std::string rows;
  for (const TruthEntry& entry : truth.entries) {
    rows += SanitizeField(entry.triple.product_id) + "\t" +
            SanitizeField(entry.triple.attribute) + "\t" +
            SanitizeField(entry.triple.value) + "\t" +
            (entry.triple_correct ? "1" : "0") + "\t" +
            (entry.pair_valid ? "1" : "0") + "\n";
  }
  PAE_RETURN_IF_ERROR(WriteFile(fs::path(dir) / "truth.tsv", rows));

  std::string aliases;
  for (const auto& [surface, canonical] : truth.attribute_aliases) {
    aliases += SanitizeField(surface) + "\t" + SanitizeField(canonical) +
               "\n";
  }
  return WriteFile(fs::path(dir) / "aliases.tsv", aliases);
}

Result<TruthSample> LoadTruth(const std::string& dir) {
  TruthSample truth;
  Result<std::string> rows = ReadFile(fs::path(dir) / "truth.tsv");
  if (!rows.ok()) return rows.status();
  for (const std::string& line : NonEmptyLines(rows.value())) {
    std::vector<std::string> parts = StrSplit(line, '\t');
    if (parts.size() < 5) {
      return Status::InvalidArgument("malformed truth.tsv line: " + line);
    }
    TruthEntry entry;
    entry.triple = Triple{parts[0], parts[1], parts[2]};
    entry.triple_correct = parts[3] == "1";
    entry.pair_valid = parts[4] == "1";
    truth.entries.push_back(std::move(entry));
  }
  if (Result<std::string> aliases = ReadFile(fs::path(dir) / "aliases.tsv");
      aliases.ok()) {
    for (const std::string& line : NonEmptyLines(aliases.value())) {
      std::vector<std::string> parts = StrSplit(line, '\t');
      if (parts.size() >= 2) {
        truth.attribute_aliases[parts[0]] = parts[1];
      }
    }
  }
  // Rebuild the valid-pair set from correct entries.
  for (const TruthEntry& entry : truth.entries) {
    if (entry.triple_correct && entry.pair_valid) {
      truth.valid_pairs.insert(
          PairKey(truth.Canonical(entry.triple.attribute),
                  NormalizeValue(entry.triple.value)));
    }
  }
  return truth;
}

Status SaveTriples(const std::vector<Triple>& triples,
                   const std::string& path) {
  std::string rows = "product_id\tattribute\tvalue\n";
  for (const Triple& t : triples) {
    rows += SanitizeField(t.product_id) + "\t" +
            SanitizeField(t.attribute) + "\t" + SanitizeField(t.value) +
            "\n";
  }
  return WriteFile(path, rows);
}

Result<std::vector<Triple>> LoadTriples(const std::string& path) {
  Result<std::string> content = ReadFile(path);
  if (!content.ok()) return content.status();
  std::vector<Triple> triples;
  bool first = true;
  for (const std::string& line : NonEmptyLines(content.value())) {
    if (first) {
      first = false;  // header
      continue;
    }
    std::vector<std::string> parts = StrSplit(line, '\t');
    if (parts.size() < 3) {
      return Status::InvalidArgument("malformed triples line: " + line);
    }
    triples.push_back(Triple{parts[0], parts[1], parts[2]});
  }
  return triples;
}

}  // namespace pae::core
