#include "tools/lint/linter.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace omega_lint {
namespace {

namespace fs = std::filesystem;

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool HasSuffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool HasPrefix(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

// One lexed token: an identifier or a single punctuation character.
struct ScanToken {
  std::string text;
  size_t offset = 0;
  bool ident = false;
};

std::vector<ScanToken> Tokenize(const std::string& code) {
  std::vector<ScanToken> tokens;
  size_t i = 0;
  while (i < code.size()) {
    const char c = code[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (IsIdentStart(c)) {
      size_t j = i + 1;
      while (j < code.size() && IsIdentChar(code[j])) {
        ++j;
      }
      tokens.push_back({code.substr(i, j - i), i, true});
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t j = i + 1;  // good enough for a scanner: digits glob with . ' x
      while (j < code.size() &&
             (IsIdentChar(code[j]) || code[j] == '.' || code[j] == '\'')) {
        ++j;
      }
      i = j;
      continue;
    }
    tokens.push_back({std::string(1, c), i, false});
    ++i;
  }
  return tokens;
}

int LineAt(const std::vector<size_t>& line_offsets, size_t offset) {
  auto it = std::upper_bound(line_offsets.begin(), line_offsets.end(), offset);
  return static_cast<int>(it - line_offsets.begin());
}

// Records `omega-lint: allow(rule-a, rule-b)` directives found in a comment.
void ParseSuppression(const std::string& comment, int line,
                      std::map<int, std::set<std::string>>* out) {
  const std::string marker = "omega-lint:";
  size_t pos = comment.find(marker);
  if (pos == std::string::npos) {
    return;
  }
  pos = comment.find("allow(", pos);
  if (pos == std::string::npos) {
    return;
  }
  pos += 6;
  const size_t end = comment.find(')', pos);
  if (end == std::string::npos) {
    return;
  }
  std::string list = comment.substr(pos, end - pos);
  std::string rule;
  std::stringstream ss(list);
  while (std::getline(ss, rule, ',')) {
    const size_t first = rule.find_first_not_of(" \t");
    const size_t last = rule.find_last_not_of(" \t");
    if (first != std::string::npos) {
      (*out)[line].insert(rule.substr(first, last - first + 1));
    }
  }
}

const std::set<std::string>& UnorderedContainerNames() {
  static const std::set<std::string> names = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  return names;
}

// Identifiers that read ambient entropy. random_device is flagged even
// without a call so member declarations are caught too.
const std::set<std::string>& RandCallNames() {
  static const std::set<std::string> names = {"rand", "srand", "drand48",
                                              "lrand48", "random"};
  return names;
}

const std::set<std::string>& WallClockCallNames() {
  static const std::set<std::string> names = {
      "time",      "clock",    "gettimeofday", "clock_gettime",
      "localtime", "gmtime",   "mktime",       "ftime"};
  return names;
}

const std::set<std::string>& WallClockTypeNames() {
  static const std::set<std::string> names = {"system_clock",
                                              "high_resolution_clock"};
  return names;
}

const std::set<std::string>& TimeMacroNames() {
  static const std::set<std::string> names = {"__DATE__", "__TIME__",
                                              "__TIMESTAMP__"};
  return names;
}

// Raw concurrency identifiers banned in simulator code outside src/common/
// (det-parallel-reduce). Matched as bare identifiers so both std:: uses and
// the <thread>/<mutex>/<atomic> include lines (whose header names tokenize
// to the same words) are caught.
const std::set<std::string>& ParallelPrimitiveNames() {
  static const std::set<std::string> names = {
      "thread",         "jthread",
      "mutex",          "shared_mutex",
      "recursive_mutex", "timed_mutex",
      "condition_variable", "condition_variable_any",
      "atomic",         "atomic_flag",
      "atomic_ref",     "future",
      "promise",        "packaged_task",
      "async",          "counting_semaphore",
      "binary_semaphore", "barrier",
      "latch",          "call_once",
      "once_flag",      "thread_local",
      "stop_token",     "stop_source"};
  return names;
}

// True if tokens[idx] is reached through a member access (`.x` / `->x`),
// meaning it names the caller's own member, not the banned global.
bool IsMemberAccess(const std::vector<ScanToken>& tokens, size_t idx) {
  if (idx == 0) {
    return false;
  }
  const std::string& prev = tokens[idx - 1].text;
  if (prev == ".") {
    return true;
  }
  return idx >= 2 && prev == ">" && tokens[idx - 2].text == "-";
}

// True if tokens[idx] followed by '(' looks like a function *declaration*
// rather than a call: a preceding identifier is the return type
// (`double time(int)`), while call sites are preceded by punctuation or a
// statement keyword (`return time(nullptr)`).
bool IsDeclarationContext(const std::vector<ScanToken>& tokens, size_t idx) {
  if (idx == 0) {
    return false;
  }
  const ScanToken& prev = tokens[idx - 1];
  if (!prev.ident) {
    return false;
  }
  static const std::set<std::string> kStatementKeywords = {
      "return", "co_return", "co_yield", "case", "throw", "not", "and", "or"};
  return !kStatementKeywords.count(prev.text);
}

// Skips a balanced <...> starting at tokens[idx] == "<"; returns the index
// one past the closing ">", or npos if unbalanced. Parens inside template
// arguments are tolerated because only <> depth is tracked.
size_t SkipAngles(const std::vector<ScanToken>& tokens, size_t idx) {
  int depth = 0;
  for (size_t i = idx; i < tokens.size(); ++i) {
    if (tokens[i].text == "<") {
      ++depth;
    } else if (tokens[i].text == ">") {
      if (--depth == 0) {
        return i + 1;
      }
    } else if (tokens[i].text == ";") {
      return std::string::npos;  // gave up: a stray comparison, not a decl
    }
  }
  return std::string::npos;
}

}  // namespace

const std::vector<std::string>& AllRuleIds() {
  static const std::vector<std::string> ids = {
      "det-rand",
      "det-wallclock",
      "det-time-macro",
      "det-unordered-iter",
      "det-parallel-reduce",
      "layer-order",
      "layer-cycle",
      "hygiene-pragma-once",
      "hygiene-using-namespace",
      "hygiene-nonconst-global",
      "det-shard-unsafe-write",
      "det-rng-substream",
      "det-fp-unordered-acc",
      "sim-dangling-capture",
  };
  return ids;
}

std::string Finding::Key() const {
  return file + ":" + std::to_string(line) + ":" + rule;
}

bool ParseLayersFile(const std::string& path, Config* config,
                     std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open layers file: " + path;
    return false;
  }
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line = line.substr(0, hash);
    }
    std::stringstream ss(line);
    std::string keyword;
    if (!(ss >> keyword)) {
      continue;  // blank
    }
    Layer layer;
    if (keyword != "layer" || !(ss >> layer.name >> layer.rank >>
                                layer.prefix)) {
      *error = path + ":" + std::to_string(lineno) +
               ": expected `layer <name> <rank> <prefix>`";
      return false;
    }
    config->layers.push_back(layer);
  }
  return true;
}

Linter::Linter(std::string root, Config config)
    : root_(std::move(root)), config_(std::move(config)) {}

bool Linter::Run() {
  bool ok = true;
  std::vector<std::string> rel_paths;
  for (const std::string& dir : config_.scan_dirs) {
    const fs::path base = fs::path(root_) / dir;
    std::error_code ec;
    if (!fs::is_directory(base, ec)) {
      continue;  // optional scan dir (e.g. no tools/ in a fixture tree)
    }
    for (auto it = fs::recursive_directory_iterator(base, ec);
         !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
      if (!it->is_regular_file()) {
        continue;
      }
      const std::string ext = it->path().extension().string();
      if (ext != ".h" && ext != ".cc") {
        continue;
      }
      std::string rel = fs::relative(it->path(), root_).generic_string();
      bool excluded = false;
      for (const std::string& sub : config_.exclude_substrings) {
        if (rel.find(sub) != std::string::npos) {
          excluded = true;
          break;
        }
      }
      if (!excluded) {
        rel_paths.push_back(std::move(rel));
      }
    }
    if (ec) {
      errors_.push_back("error walking " + base.string() + ": " +
                        ec.message());
      ok = false;
    }
  }
  std::sort(rel_paths.begin(), rel_paths.end());
  for (const std::string& rel : rel_paths) {
    std::ifstream in(fs::path(root_) / rel, std::ios::binary);
    if (!in) {
      errors_.push_back("cannot read " + rel);
      ok = false;
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    LoadFile(rel, buf.str());
  }
  Finish();
  return ok;
}

// Strips comments (recording suppressions) and produces the two code views.
void Linter::LoadFile(const std::string& rel_path, const std::string& content) {
  FileData f;
  f.rel_path = rel_path;
  f.code = content;
  f.line_offsets.push_back(0);
  for (size_t i = 0; i < content.size(); ++i) {
    if (content[i] == '\n') {
      f.line_offsets.push_back(i + 1);
    }
  }

  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString,
  };
  State state = State::kCode;
  std::string comment;     // text of the comment being consumed
  int comment_line = 0;    // line the current comment started on
  std::string raw_delim;   // delimiter of the current raw string
  f.code_nostrings = content;
  std::string& code = f.code;
  std::string& nostr = f.code_nostrings;
  int line = 1;
  for (size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    const char next = i + 1 < content.size() ? content[i + 1] : '\0';
    if (c == '\n') {
      ++line;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          comment.clear();
          comment_line = line;
          code[i] = ' ';
          nostr[i] = ' ';
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          comment.clear();
          comment_line = line;
          code[i] = ' ';
          nostr[i] = ' ';
        } else if (c == '"' && i >= 1 && content[i - 1] == 'R') {
          // R"delim( ... )delim"
          state = State::kRawString;
          raw_delim.clear();
          size_t j = i + 1;
          while (j < content.size() && content[j] != '(') {
            raw_delim += content[j];
            ++j;
          }
          nostr[i] = ' ';
        } else if (c == '"') {
          state = State::kString;
          nostr[i] = ' ';
        } else if (c == '\'') {
          state = State::kChar;
          nostr[i] = ' ';
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          ParseSuppression(comment, comment_line, &f.suppressions);
          state = State::kCode;
        } else {
          comment += c;
          code[i] = ' ';
          nostr[i] = ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          ParseSuppression(comment, comment_line, &f.suppressions);
          code[i] = ' ';
          nostr[i] = ' ';
          code[i + 1] = ' ';
          nostr[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else {
          comment += c;
          if (c != '\n') {
            code[i] = ' ';
            nostr[i] = ' ';
          }
        }
        break;
      case State::kString:
        if (c == '\\') {
          nostr[i] = ' ';
          if (next != '\0' && next != '\n') {
            nostr[i + 1] = ' ';
            ++i;
          }
        } else if (c == '"') {
          nostr[i] = ' ';
          state = State::kCode;
        } else if (c != '\n') {
          nostr[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          nostr[i] = ' ';
          if (next != '\0' && next != '\n') {
            nostr[i + 1] = ' ';
            ++i;
          }
        } else if (c == '\'') {
          nostr[i] = ' ';
          state = State::kCode;
        } else if (c != '\n') {
          nostr[i] = ' ';
        }
        break;
      case State::kRawString: {
        const std::string close = ")" + raw_delim + "\"";
        if (c == ')' && content.compare(i, close.size(), close) == 0) {
          for (size_t j = 0; j < close.size(); ++j) {
            nostr[i + j] = ' ';
          }
          i += close.size() - 1;
          state = State::kCode;
        } else if (c != '\n') {
          nostr[i] = ' ';
        }
        break;
      }
    }
  }
  if (state == State::kLineComment || state == State::kBlockComment) {
    ParseSuppression(comment, comment_line, &f.suppressions);
  }
  files_[rel_path] = std::move(f);
}

void Linter::Finish() {
  // Two collection passes so a type alias defined in one file registers
  // variables declared with it in files that sort earlier.
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& [path, f] : files_) {
      if (InScope(path, config_.unordered_iter_scope)) {
        CollectUnorderedDecls(f);
      }
    }
  }
  for (const auto& [path, f] : files_) {
    if (InScope(path, config_.flow_scope)) {
      CollectFpDecls(f);
    }
  }
  for (const auto& [path, f] : files_) {
    LintFile(f);
  }
  CheckIncludeCycles();
  BuildModel();
  CheckShardSafety();
  CheckRngDiscipline();
  CheckFpUnorderedAcc();
  CheckDanglingCaptures();
  std::sort(findings_.begin(), findings_.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  findings_.erase(std::unique(findings_.begin(), findings_.end(),
                              [](const Finding& a, const Finding& b) {
                                return a.Key() == b.Key();
                              }),
                  findings_.end());
}

void Linter::AddFinding(const FileData& f, int line, const std::string& rule,
                        const std::string& message) {
  for (int l : {line, line - 1}) {
    auto it = f.suppressions.find(l);
    if (it != f.suppressions.end() &&
        (it->second.count(rule) || it->second.count("*"))) {
      return;
    }
  }
  findings_.push_back({f.rel_path, line, rule, message});
}

const Layer* Linter::LayerFor(const std::string& rel_path) const {
  const Layer* best = nullptr;
  for (const Layer& layer : config_.layers) {
    if (HasPrefix(rel_path, layer.prefix) &&
        (best == nullptr || layer.prefix.size() > best->prefix.size())) {
      best = &layer;
    }
  }
  return best;
}

bool Linter::InScope(const std::string& rel_path,
                     const std::vector<std::string>& prefixes) const {
  for (const std::string& prefix : prefixes) {
    if (HasPrefix(rel_path, prefix)) {
      return true;
    }
  }
  return false;
}

bool Linter::DetExempt(const std::string& rel_path) const {
  for (const std::string& exempt : config_.det_exempt_files) {
    if (rel_path == exempt) {
      return true;
    }
  }
  return false;
}

// Registers names declared with an unordered container type: direct
// declarations (`std::unordered_map<K, V> name`), alias definitions
// (`using Alias = std::unordered_set<T>;`), and alias-typed declarations
// (`Alias name;`). Name-based on purpose: a per-file type system is out of
// scope for a scanner, and suppressions cover the rare collision.
void Linter::CollectUnorderedDecls(const FileData& f) {
  const std::vector<ScanToken> tokens = Tokenize(f.code_nostrings);
  for (size_t i = 0; i < tokens.size(); ++i) {
    const ScanToken& t = tokens[i];
    if (!t.ident) {
      continue;
    }
    size_t after = std::string::npos;
    if (UnorderedContainerNames().count(t.text)) {
      if (i + 1 < tokens.size() && tokens[i + 1].text == "<") {
        after = SkipAngles(tokens, i + 1);
      }
    } else if (unordered_types_.count(t.text)) {
      after = i + 1;
    }
    if (after == std::string::npos || after >= tokens.size()) {
      continue;
    }
    // `using Alias = std::unordered_map<...>;` — walk back over the
    // `std ::` qualification to find the `= Alias using` shape.
    size_t back = i;
    while (back > 0 &&
           (tokens[back - 1].text == ":" || tokens[back - 1].text == "std")) {
      --back;
    }
    if (back >= 3 && tokens[back - 1].text == "=" && tokens[back - 2].ident &&
        tokens[back - 3].text == "using") {
      unordered_types_.insert(tokens[back - 2].text);
      continue;
    }
    // Skip qualifiers/ref/pointer between the type and the declared name.
    size_t j = after;
    while (j < tokens.size() &&
           (tokens[j].text == "&" || tokens[j].text == "*" ||
            tokens[j].text == "const")) {
      ++j;
    }
    if (j >= tokens.size() || !tokens[j].ident) {
      continue;  // e.g. `std::unordered_map<K,V>::iterator`, casts, returns
    }
    const std::string& name = tokens[j].text;
    // Require a declarator-terminating token so plain uses of an alias in an
    // expression are not registered.
    if (j + 1 < tokens.size()) {
      const std::string& term = tokens[j + 1].text;
      if (term == ";" || term == "=" || term == "{" || term == "(" ||
          term == "," || term == ")") {
        unordered_vars_.insert(name);
      }
    }
  }
}

// Registers names declared with a floating-point type (`double x`,
// `float total_`, `double* out`) so det-fp-unordered-acc can tell an
// order-sensitive FP accumulation from an integer count. Name-based like the
// unordered registry; collisions are rare and suppressible.
void Linter::CollectFpDecls(const FileData& f) {
  const std::vector<ScanToken> tokens = Tokenize(f.code_nostrings);
  for (size_t i = 0; i + 1 < tokens.size(); ++i) {
    const ScanToken& t = tokens[i];
    if (!t.ident || (t.text != "double" && t.text != "float")) {
      continue;
    }
    size_t j = i + 1;
    while (j < tokens.size() &&
           (tokens[j].text == "&" || tokens[j].text == "*" ||
            tokens[j].text == "const")) {
      ++j;
    }
    if (j >= tokens.size() || !tokens[j].ident) {
      continue;
    }
    if (j + 1 < tokens.size()) {
      const std::string& term = tokens[j + 1].text;
      if (term == ";" || term == "=" || term == "{" || term == "(" ||
          term == "," || term == ")" || term == "[") {
        fp_vars_.insert(tokens[j].text);
      }
    }
  }
}

void Linter::LintFile(const FileData& f) {
  if (InScope(f.rel_path, config_.det_scope) && !DetExempt(f.rel_path)) {
    CheckBannedIdentifiers(f);
  }
  if (InScope(f.rel_path, config_.unordered_iter_scope) &&
      !DetExempt(f.rel_path)) {
    CheckUnorderedIteration(f);
  }
  if (InScope(f.rel_path, config_.parallel_scope) &&
      !InScope(f.rel_path, config_.parallel_exempt_prefixes)) {
    CheckParallelPrimitives(f);
  }
  CheckHeaderHygiene(f);
  CheckLayerOrder(f);
}

void Linter::CheckBannedIdentifiers(const FileData& f) {
  const std::vector<ScanToken> tokens = Tokenize(f.code_nostrings);
  for (size_t i = 0; i < tokens.size(); ++i) {
    const ScanToken& t = tokens[i];
    if (!t.ident) {
      continue;
    }
    const int line = LineAt(f.line_offsets, t.offset);
    const bool called =
        i + 1 < tokens.size() && tokens[i + 1].text == "(";
    if (t.text == "random_device") {
      AddFinding(f, line, "det-rand",
                 "std::random_device reads ambient entropy; derive streams "
                 "from the experiment seed (src/common/random.h)");
    } else if (called && !IsMemberAccess(tokens, i) &&
               !IsDeclarationContext(tokens, i) &&
               RandCallNames().count(t.text)) {
      AddFinding(f, line, "det-rand",
                 t.text + "() is not seed-reproducible; use omega::Rng "
                          "(src/common/random.h)");
    } else if (called && !IsMemberAccess(tokens, i) &&
               !IsDeclarationContext(tokens, i) &&
               WallClockCallNames().count(t.text)) {
      AddFinding(f, line, "det-wallclock",
                 t.text + "() reads wall-clock time; simulation time must "
                          "come from the event queue (steady_clock is allowed "
                          "for benchmarking real elapsed time)");
    } else if (WallClockTypeNames().count(t.text)) {
      AddFinding(f, line, "det-wallclock",
                 "std::chrono::" + t.text +
                     " is wall-clock-dependent; use steady_clock for "
                     "benchmarking and simulation time for everything else");
    } else if (TimeMacroNames().count(t.text)) {
      AddFinding(f, line, "det-time-macro",
                 t.text + " bakes build time into the binary, breaking "
                          "reproducible builds and run provenance");
    }
  }
}

// Flags raw concurrency primitives (std::thread, std::mutex, std::atomic,
// ...) in simulator code outside the sanctioned src/common/ wrappers. Thread
// timing must never order results — all parallelism goes through
// ParallelFor, whose per-index outputs keep results bit-identical at any
// thread count (DESIGN.md §12). Member accesses are skipped so a field
// named `mutex` on a project type is not a finding.
void Linter::CheckParallelPrimitives(const FileData& f) {
  const std::vector<ScanToken> tokens = Tokenize(f.code_nostrings);
  for (size_t i = 0; i < tokens.size(); ++i) {
    const ScanToken& t = tokens[i];
    if (!t.ident || IsMemberAccess(tokens, i) ||
        !ParallelPrimitiveNames().count(t.text)) {
      continue;
    }
    AddFinding(f, LineAt(f.line_offsets, t.offset), "det-parallel-reduce",
               "raw concurrency primitive `" + t.text +
                   "` in simulator code: thread timing must not order "
                   "results; use ParallelFor from "
                   "src/common/ (DESIGN.md §12)");
  }
}

// Flags iteration over identifiers registered by CollectUnorderedDecls:
// range-for whose range expression is a (member-access chain of)
// registered identifier(s), and explicit .begin()/.cbegin()/.rbegin() calls.
void Linter::CheckUnorderedIteration(const FileData& f) {
  const std::vector<ScanToken> tokens = Tokenize(f.code_nostrings);
  for (size_t i = 0; i < tokens.size(); ++i) {
    const ScanToken& t = tokens[i];
    if (!t.ident) {
      continue;
    }
    // `name.begin()` / `name->cbegin()`
    if (unordered_vars_.count(t.text) && i + 2 < tokens.size()) {
      size_t call = 0;
      if (tokens[i + 1].text == ".") {
        call = i + 2;
      } else if (tokens[i + 1].text == "-" && tokens[i + 2].text == ">" &&
                 i + 3 < tokens.size()) {
        call = i + 3;
      }
      if (call != 0 && tokens[call].ident &&
          (tokens[call].text == "begin" || tokens[call].text == "cbegin" ||
           tokens[call].text == "rbegin")) {
        AddFinding(f, LineAt(f.line_offsets, t.offset), "det-unordered-iter",
                   "iterator over unordered container `" + t.text +
                       "`: iteration order is not deterministic across "
                       "standard libraries; use an ordered container or sort");
      }
    }
    // `for (decl : range)`
    if (t.text != "for" || i + 1 >= tokens.size() ||
        tokens[i + 1].text != "(") {
      continue;
    }
    // Find the top-level ':' and the closing ')' of the for-parens.
    int depth = 0;
    size_t colon = 0;
    size_t close = 0;
    for (size_t j = i + 1; j < tokens.size(); ++j) {
      const std::string& s = tokens[j].text;
      if (s == "(" || s == "[" || s == "{") {
        ++depth;
      } else if (s == ")" || s == "]" || s == "}") {
        if (--depth == 0) {
          close = j;
          break;
        }
      } else if (s == ":" && depth == 1 && colon == 0) {
        // Exclude `::` qualifications.
        const bool part_of_scope =
            (j + 1 < tokens.size() && tokens[j + 1].text == ":") ||
            (j >= 1 && tokens[j - 1].text == ":");
        if (!part_of_scope) {
          colon = j;
        }
      } else if (s == ";" && depth == 1) {
        break;  // classic for-loop, not range-for
      }
    }
    if (colon == 0 || close == 0) {
      continue;
    }
    // The range expression: flag if it is a pure identifier/member chain
    // (no calls — a call's result type is unknowable to a scanner) that
    // mentions a registered unordered name.
    bool has_call = false;
    bool hits_registry = false;
    for (size_t j = colon + 1; j < close; ++j) {
      if (tokens[j].text == "(") {
        has_call = true;
        break;
      }
      if (tokens[j].ident && unordered_vars_.count(tokens[j].text)) {
        hits_registry = true;
      }
    }
    if (!has_call && hits_registry) {
      AddFinding(f, LineAt(f.line_offsets, tokens[colon].offset),
                 "det-unordered-iter",
                 "range-for over unordered container: iteration order is not "
                 "deterministic across standard libraries and can change "
                 "metric bits; use an ordered container or sort first");
    }
  }
}

void Linter::CheckHeaderHygiene(const FileData& f) {
  if (!HasSuffix(f.rel_path, ".h")) {
    return;
  }
  const std::vector<ScanToken> tokens = Tokenize(f.code_nostrings);
  bool has_pragma_once = false;
  for (size_t i = 0; i + 2 < tokens.size(); ++i) {
    if (tokens[i].text == "#" && tokens[i + 1].text == "pragma" &&
        tokens[i + 2].text == "once") {
      has_pragma_once = true;
      break;
    }
  }
  if (!has_pragma_once) {
    AddFinding(f, 1, "hygiene-pragma-once",
               "header lacks #pragma once (double-inclusion guard)");
  }
  for (size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (tokens[i].text == "using" && tokens[i + 1].text == "namespace") {
      AddFinding(f, LineAt(f.line_offsets, tokens[i].offset),
                 "hygiene-using-namespace",
                 "`using namespace` at header scope leaks into every "
                 "includer; qualify names instead");
    }
  }
  CheckNonConstGlobals(f);
}

// Heuristic scan for mutable namespace-scope variables in a header. Tracks a
// brace-context stack so class members and function locals are ignored;
// statements at namespace scope that declare a variable without
// const/constexpr/constinit are flagged. Functions are recognized by a '('
// in the statement, type definitions by their keyword.
void Linter::CheckNonConstGlobals(const FileData& f) {
  const std::vector<ScanToken> tokens = Tokenize(f.code_nostrings);
  enum class Ctx { kNamespace, kOther, kInit };
  std::vector<Ctx> stack;  // implicit bottom: namespace (top level)
  std::vector<const ScanToken*> stmt;

  auto at_namespace_scope = [&] {
    for (Ctx c : stack) {
      if (c != Ctx::kNamespace) {
        return false;
      }
    }
    return true;
  };
  auto stmt_has = [&](const char* word) {
    for (const ScanToken* t : stmt) {
      if (t->text == word) {
        return true;
      }
    }
    return false;
  };

  for (size_t i = 0; i < tokens.size(); ++i) {
    const ScanToken& t = tokens[i];
    if (t.text == "{") {
      if (!at_namespace_scope()) {
        stack.push_back(Ctx::kOther);
        continue;
      }
      if (stmt_has("=")) {
        stack.push_back(Ctx::kInit);  // brace initializer: statement goes on
      } else if (stmt_has("namespace") || stmt_has("extern")) {
        stack.push_back(Ctx::kNamespace);
        stmt.clear();
      } else {
        stack.push_back(Ctx::kOther);  // class/struct/enum/function body
        stmt.clear();
      }
      continue;
    }
    if (t.text == "}") {
      if (!stack.empty()) {
        const Ctx popped = stack.back();
        stack.pop_back();
        if (popped != Ctx::kInit) {
          stmt.clear();
        }
      }
      continue;
    }
    if (!at_namespace_scope()) {
      continue;
    }
    if (t.text == ";") {
      bool skip = stmt.size() < 2;
      static const char* kSkipWords[] = {
          "(",      "using",         "typedef", "friend",    "operator",
          "extern", "static_assert", "template", "class",    "struct",
          "union",  "enum",          "concept",  "namespace", "requires",
          "const",  "constexpr",     "constinit", "consteval", "#"};
      for (const char* word : kSkipWords) {
        if (skip) {
          break;
        }
        skip = stmt_has(word);
      }
      if (!skip) {
        // Name for the message: last identifier before '=' (or the end).
        std::string name;
        for (const ScanToken* s : stmt) {
          if (s->text == "=") {
            break;
          }
          if (s->ident) {
            name = s->text;
          }
        }
        AddFinding(f, LineAt(f.line_offsets, stmt.front()->offset),
                   "hygiene-nonconst-global",
                   "mutable namespace-scope variable `" + name +
                       "` in a header: every TU gets its own copy (or an ODR "
                       "violation) and it is shared mutable state; make it "
                       "constexpr or move it behind a function");
      }
      stmt.clear();
      continue;
    }
    // Preprocessor directives end at the newline, not at a ';'; drop a
    // directive from the statement buffer once the line advances so it does
    // not mask the following declaration.
    if (!stmt.empty() && stmt.front()->text == "#" &&
        LineAt(f.line_offsets, t.offset) >
            LineAt(f.line_offsets, stmt.front()->offset)) {
      stmt.clear();
    }
    stmt.push_back(&t);
  }
}

void Linter::CheckLayerOrder(const FileData& f) {
  // Parse project-local includes from the comment-stripped text (string
  // literals intact), so commented-out includes are ignored.
  std::stringstream ss(f.code);
  std::string line_text;
  int line = 0;
  while (std::getline(ss, line_text)) {
    ++line;
    size_t pos = line_text.find_first_not_of(" \t");
    if (pos == std::string::npos || line_text[pos] != '#') {
      continue;
    }
    pos = line_text.find_first_not_of(" \t", pos + 1);
    if (pos == std::string::npos ||
        line_text.compare(pos, 7, "include") != 0) {
      continue;
    }
    const size_t open = line_text.find('"', pos);
    if (open == std::string::npos) {
      continue;  // <system> include
    }
    const size_t end = line_text.find('"', open + 1);
    if (end == std::string::npos) {
      continue;
    }
    const std::string target = line_text.substr(open + 1, end - open - 1);
    if (target.find('/') == std::string::npos) {
      continue;  // not a root-relative project path
    }
    includes_[f.rel_path].push_back({line, target});

    const Layer* from = LayerFor(f.rel_path);
    if (from == nullptr) {
      continue;  // tests/bench/examples/tools may include anything
    }
    const Layer* to = LayerFor(target);
    if (to == nullptr) {
      // A layered file reaching outside the layered tree (e.g. src/
      // including bench/) is an ordering violation by definition.
      if (files_.count(target) ||
          HasPrefix(target, from->prefix.substr(0, from->prefix.find('/')))) {
        AddFinding(f, line, "layer-order",
                   "layered file includes non-layered project file \"" +
                       target + "\"");
      }
      continue;
    }
    if (to->rank > from->rank) {
      AddFinding(f, line, "layer-order",
                 "upward include: " + from->name + " (rank " +
                     std::to_string(from->rank) + ") -> " + to->name +
                     " (rank " + std::to_string(to->rank) +
                     ") violates the layer DAG (" + target + ")");
    }
  }
}

// DFS over the project include graph; reports one finding per back edge with
// the full cycle path. Rank checks alone cannot catch mutual includes between
// equal-rank peers, so this closes the loop on "no cyclic edges".
void Linter::CheckIncludeCycles() {
  std::map<std::string, int> color;  // 0 white, 1 gray, 2 black
  std::vector<std::string> path;

  struct Frame {
    std::string node;
    size_t next_edge = 0;
  };
  for (const auto& [start, unused] : includes_) {
    (void)unused;
    if (color[start] != 0) {
      continue;
    }
    std::vector<Frame> frames;
    frames.push_back({start, 0});
    color[start] = 1;
    path.push_back(start);
    while (!frames.empty()) {
      Frame& frame = frames.back();
      auto it = includes_.find(frame.node);
      static const std::vector<std::pair<int, std::string>> kNoEdges;
      const auto& edges = it != includes_.end() ? it->second : kNoEdges;
      if (frame.next_edge >= edges.size()) {
        color[frame.node] = 2;
        frames.pop_back();
        path.pop_back();
        continue;
      }
      const auto& [line, target] = edges[frame.next_edge++];
      if (!files_.count(target)) {
        continue;  // include of a file outside the scanned tree
      }
      if (color[target] == 1) {
        std::string cycle;
        bool in_cycle = false;
        for (const std::string& node : path) {
          if (node == target) {
            in_cycle = true;
          }
          if (in_cycle) {
            cycle += node + " -> ";
          }
        }
        cycle += target;
        const FileData& f = files_.at(frame.node);
        AddFinding(f, line, "layer-cycle", "include cycle: " + cycle);
        continue;
      }
      if (color[target] == 0) {
        color[target] = 1;
        path.push_back(target);
        frames.push_back({target, 0});
      }
    }
  }
}

std::set<std::string> LoadBaseline(const std::string& path) {
  std::set<std::string> baseline;
  std::ifstream in(path);
  if (!in) {
    return baseline;
  }
  std::string line;
  while (std::getline(in, line)) {
    const size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line = line.substr(0, hash);
    }
    const size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) {
      continue;
    }
    const size_t last = line.find_last_not_of(" \t\r");
    baseline.insert(line.substr(first, last - first + 1));
  }
  return baseline;
}

bool WriteBaseline(const std::string& path,
                   const std::vector<Finding>& all) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << "# omega_lint baseline: findings accepted as pre-existing debt.\n"
      << "# One `<file>:<line>:<rule>` per line. Regenerate with\n"
      << "# `omega_lint --write-baseline`; shrink it whenever you can.\n";
  for (const Finding& finding : all) {
    out << finding.Key() << "\n";
  }
  return static_cast<bool>(out);
}

std::vector<Finding> FilterBaselined(const std::vector<Finding>& all,
                                     const std::set<std::string>& baseline) {
  std::vector<Finding> out;
  for (const Finding& finding : all) {
    if (!baseline.count(finding.Key())) {
      out.push_back(finding);
    }
  }
  return out;
}

}  // namespace omega_lint
