#include "tools/lint/model.h"

#include <algorithm>
#include <cctype>

namespace omega_lint {
namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Keywords that can precede '(' without being a call, or start a statement
// that must not be mistaken for a declaration.
const std::set<std::string>& Keywords() {
  static const std::set<std::string> kw = {
      "if",        "for",       "while",     "switch",    "catch",
      "return",    "co_return", "co_yield",  "co_await",  "sizeof",
      "alignof",   "alignas",   "decltype",  "noexcept",  "typeid",
      "new",       "delete",    "throw",     "case",      "default",
      "goto",      "break",     "continue",  "else",      "do",
      "static_cast",            "dynamic_cast",
      "reinterpret_cast",       "const_cast",
      "static_assert",          "constexpr", "consteval", "constinit",
      "using",     "typedef",   "template",  "typename",  "operator",
      "public",    "private",   "protected", "virtual",   "override",
      "final",     "friend",    "explicit",  "inline",    "static",
      "const",     "mutable",   "auto",      "void",      "not",
      "and",       "or",        "defined",   "requires",  "concept",
  };
  return kw;
}

bool IsTypeIsh(const Token& t) {
  if (t.text == ">" || t.text == "&" || t.text == "*") {
    return true;
  }
  // `auto`/`const`/`unsigned` etc. head declarations as often as a named
  // type does; the other keywords never do.
  if (t.text == "auto" || t.text == "const" || t.text == "unsigned" ||
      t.text == "signed" || t.text == "long" || t.text == "short" ||
      t.text == "bool" || t.text == "int" || t.text == "char" ||
      t.text == "float" || t.text == "double" || t.text == "void") {
    return true;
  }
  return t.ident && !Keywords().count(t.text) &&
         !std::isdigit(static_cast<unsigned char>(t.text[0]));
}

// Skips backward over a balanced ']'/')' group ending at `i`; returns the
// index of the matching opener, or npos on imbalance.
size_t BalanceBack(const std::vector<Token>& t, size_t i) {
  const std::string close = t[i].text;
  const std::string open = close == "]" ? "[" : "(";
  int depth = 0;
  for (size_t j = i + 1; j-- > 0;) {
    if (t[j].text == close) {
      ++depth;
    } else if (t[j].text == open) {
      if (--depth == 0) {
        return j;
      }
    }
  }
  return std::string::npos;
}

// Skips forward over a balanced group starting at `i` ('(' or '[' or '{');
// returns the index of the matching closer, or npos.
size_t BalanceFwd(const std::vector<Token>& t, size_t i) {
  const std::string open = t[i].text;
  const std::string close = open == "(" ? ")" : open == "[" ? "]" : "}";
  int depth = 0;
  for (size_t j = i; j < t.size(); ++j) {
    if (t[j].text == open) {
      ++depth;
    } else if (t[j].text == close) {
      if (--depth == 0) {
        return j;
      }
    }
  }
  return std::string::npos;
}

}  // namespace

std::vector<Token> Lex(const std::string& code) {
  std::vector<Token> tokens;
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
      size_t j = i + 1;  // numbers glob with . ' and suffix letters
      while (j < code.size() &&
             (IsIdentChar(code[j]) || code[j] == '.' || code[j] == '\'')) {
        ++j;
      }
      tokens.push_back({code.substr(i, j - i), i, false});
      i = j;
      continue;
    }
    tokens.push_back({std::string(1, c), i, false});
    ++i;
  }
  return tokens;
}

namespace {

// Drops preprocessor-directive tokens ('#' to end of logical line, honoring
// '\' continuations) so macro bodies never look like declarations or calls.
std::vector<Token> FilterPreprocessor(const std::vector<Token>& in,
                                      const std::string& code) {
  std::vector<size_t> line_offsets{0};
  for (size_t i = 0; i < code.size(); ++i) {
    if (code[i] == '\n') {
      line_offsets.push_back(i + 1);
    }
  }
  auto line_of = [&](size_t off) {
    return std::upper_bound(line_offsets.begin(), line_offsets.end(), off) -
           line_offsets.begin();
  };
  std::vector<Token> out;
  size_t i = 0;
  while (i < in.size()) {
    if (in[i].text != "#") {
      out.push_back(in[i++]);
      continue;
    }
    long line = line_of(in[i].offset);
    bool cont = false;
    size_t j = i + 1;
    for (; j < in.size(); ++j) {
      const long tl = line_of(in[j].offset);
      if (tl != line) {
        if (!cont) {
          break;
        }
        line = tl;
      }
      cont = in[j].text == "\\";
    }
    i = j;
  }
  return out;
}

// A recognized lambda introducer: `[caps](params) specs... {`.
struct LambdaIntro {
  size_t intro_begin = 0;  // index of '['
  size_t caps_end = 0;     // index of matching ']'
  size_t params_begin = 0; // index of '(' or 0 if absent
  size_t params_end = 0;   // index of ')' or 0
  size_t body_begin = 0;   // index of '{'
};

// Finds every lambda introducer up front so the main scope scan can treat
// the body '{' specially. A '[' starts a lambda iff it appears in expression
// context and is followed by a balanced capture list, an optional parameter
// list, and (within a bounded lookahead for specifiers and trailing return
// types) a '{'.
std::map<size_t, LambdaIntro> FindLambdaIntros(const std::vector<Token>& t) {
  std::map<size_t, LambdaIntro> out;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].text != "[") {
      continue;
    }
    if (i > 0) {
      const Token& p = t[i - 1];
      const bool expr_ctx =
          !p.ident ? (p.text != "]" && p.text != ")" && p.text != "[")
                   : Keywords().count(p.text) > 0;
      // After an identifier (array subscript) or ']'/')' a '[' subscripts.
      if (!expr_ctx) {
        continue;
      }
      if (p.text == "operator") {
        continue;
      }
    }
    const size_t caps_end = BalanceFwd(t, i);
    if (caps_end == std::string::npos) {
      continue;
    }
    LambdaIntro intro;
    intro.intro_begin = i;
    intro.caps_end = caps_end;
    size_t j = caps_end + 1;
    if (j < t.size() && t[j].text == "(") {
      intro.params_begin = j;
      intro.params_end = BalanceFwd(t, j);
      if (intro.params_end == std::string::npos) {
        continue;
      }
      j = intro.params_end + 1;
    }
    // Specifiers and trailing return type: bounded scan for the body '{'.
    bool found = false;
    for (int steps = 0; j < t.size() && steps < 40; ++steps) {
      const std::string& s = t[j].text;
      if (s == "{") {
        intro.body_begin = j;
        found = true;
        break;
      }
      if (s == ";" || s == ")" || s == ",") {
        break;  // a subscript or array type, not a lambda
      }
      if (s == "(" || s == "<" || s == "[") {
        const size_t close = s == "<" ? j : BalanceFwd(t, j);
        if (s == "<") {
          // crude angle skip: advance to matching '>' at this depth
          int depth = 0;
          size_t k = j;
          for (; k < t.size(); ++k) {
            if (t[k].text == "<") ++depth;
            else if (t[k].text == ">" && --depth == 0) break;
            else if (t[k].text == ";") { k = std::string::npos; break; }
          }
          if (k == std::string::npos || k >= t.size()) break;
          j = k + 1;
          continue;
        }
        if (close == std::string::npos) {
          break;
        }
        j = close + 1;
        continue;
      }
      ++j;
    }
    if (found) {
      out[intro.body_begin] = intro;
    }
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  Parser(const std::string& file, const std::vector<Token>& t,
         std::vector<FunctionDef>* functions,
         std::map<std::string, ClassInfo>* classes,
         std::map<std::string, std::vector<int>>* by_name,
         std::set<std::string>* namespaces)
      : file_(file),
        t_(t),
        functions_(functions),
        classes_(classes),
        by_name_(by_name),
        namespaces_(namespaces),
        lambdas_(FindLambdaIntros(t)) {}

  void Parse();

 private:
  struct ScopeFrame {
    enum Kind { kNamespace, kClass, kFunction, kBlock, kInit } kind;
    std::string class_name;  // for kClass
    int func = -1;           // active function id, -1 outside functions
  };
  struct ParenFrame {
    bool is_call = false;
    int owner_func = -1;
    int call_index = -1;
    bool is_for = false;
    bool is_cond = false;  // `if` / `while` / `switch` condition
    size_t open_tok = 0;   // token index of the '('
    size_t colon = 0;  // token index of a range-for ':', 0 if none
    int arg_tokens = 0;
    std::string arg_ident;
  };

  int CurFunc() const {
    for (size_t i = scopes_.size(); i-- > 0;) {
      if (scopes_[i].kind == ScopeFrame::kFunction ||
          scopes_[i].kind == ScopeFrame::kBlock) {
        return scopes_[i].func;
      }
      if (scopes_[i].kind == ScopeFrame::kInit) {
        continue;
      }
      return -1;
    }
    return -1;
  }
  const ScopeFrame* InnermostNonInit() const {
    for (size_t i = scopes_.size(); i-- > 0;) {
      if (scopes_[i].kind != ScopeFrame::kInit) {
        return &scopes_[i];
      }
    }
    return nullptr;
  }
  std::string CurClass() const {
    for (size_t i = scopes_.size(); i-- > 0;) {
      if (scopes_[i].kind == ScopeFrame::kClass) {
        return scopes_[i].class_name;
      }
      if (scopes_[i].kind == ScopeFrame::kFunction ||
          scopes_[i].kind == ScopeFrame::kBlock) {
        // methods defined out of line carry their own class name
        const int f = scopes_[i].func;
        return f >= 0 ? (*functions_)[f].class_name : "";
      }
    }
    return "";
  }

  void HandleOpenBrace(size_t i);
  void HandleCloseBrace(size_t i);
  void HandleOpenParen(size_t i);
  void HandleCloseParen(size_t i);
  void HandleSemicolon();
  void HandleComma();
  void HandleColon(size_t i);

  int MakeFunction(const std::string& name, const std::string& cls,
                   bool is_lambda, size_t name_token, size_t body_begin);
  void ParseCaptures(FunctionDef* fn, const LambdaIntro& intro);
  void ParseParams(FunctionDef* fn, size_t begin, size_t end);
  void AnalyzeDeclStmt(FunctionDef* fn);
  void AnalyzeMemberDecl(const std::string& cls);
  void AnalyzeClassHead(size_t brace);
  bool TryFunctionHead(size_t brace);
  DeclKind ClassifyRefInit(FunctionDef* fn, size_t eq_stmt_idx);
  const LocalDecl* FindLocal(const FunctionDef& fn,
                             const std::string& name) const;

  bool StmtHasAtDepth0(const std::string& word) const;
  bool StmtParensBalanced() const;

  const std::string& file_;
  const std::vector<Token>& t_;
  std::vector<FunctionDef>* functions_;
  std::map<std::string, ClassInfo>* classes_;
  std::map<std::string, std::vector<int>>* by_name_;
  std::set<std::string>* namespaces_;
  std::map<size_t, LambdaIntro> lambdas_;

  std::vector<ScopeFrame> scopes_;
  std::vector<ParenFrame> parens_;
  std::vector<size_t> stmt_;  // token indexes since the last boundary
};

bool Parser::StmtHasAtDepth0(const std::string& word) const {
  int angle = 0;
  for (size_t idx : stmt_) {
    const std::string& s = t_[idx].text;
    if (s == "<") {
      ++angle;
    } else if (s == ">") {
      angle = std::max(0, angle - 1);
    } else if (angle == 0 && s == word) {
      return true;
    }
  }
  return false;
}

bool Parser::StmtParensBalanced() const {
  int depth = 0;
  for (size_t idx : stmt_) {
    if (t_[idx].text == "(") {
      ++depth;
    } else if (t_[idx].text == ")") {
      --depth;
    }
  }
  return depth == 0;
}

const LocalDecl* Parser::FindLocal(const FunctionDef& fn,
                                   const std::string& name) const {
  auto it = fn.locals.find(name);
  return it == fn.locals.end() ? nullptr : &it->second;
}

int Parser::MakeFunction(const std::string& name, const std::string& cls,
                         bool is_lambda, size_t name_token,
                         size_t body_begin) {
  FunctionDef fn;
  fn.id = static_cast<int>(functions_->size());
  fn.file = file_;
  fn.name = name;
  fn.class_name = cls;
  fn.is_lambda = is_lambda;
  fn.enclosing = CurFunc();
  fn.name_token = name_token;
  fn.body_begin = body_begin;
  fn.body_end = body_begin;
  functions_->push_back(std::move(fn));
  if (!is_lambda) {
    (*by_name_)[name].push_back(static_cast<int>(functions_->size()) - 1);
  }
  return static_cast<int>(functions_->size()) - 1;
}

void Parser::ParseCaptures(FunctionDef* fn, const LambdaIntro& intro) {
  fn->lambda.default_ref = false;
  std::vector<std::vector<size_t>> entries(1);
  int depth = 0;
  for (size_t j = intro.intro_begin + 1; j < intro.caps_end; ++j) {
    const std::string& s = t_[j].text;
    if (s == "(" || s == "[" || s == "{" || s == "<") {
      ++depth;
    } else if (s == ")" || s == "]" || s == "}" || s == ">") {
      --depth;
    } else if (s == "," && depth == 0) {
      entries.emplace_back();
      continue;
    }
    entries.back().push_back(j);
  }
  for (const auto& e : entries) {
    if (e.empty()) {
      continue;
    }
    const std::string& first = t_[e.front()].text;
    if (first == "&" && e.size() == 1) {
      fn->lambda.default_ref = true;
    } else if (first == "=" && e.size() == 1) {
      fn->lambda.default_copy = true;
    } else if (first == "this") {
      fn->lambda.captures_this = true;
    } else if (first == "*" && e.size() >= 2 && t_[e[1]].text == "this") {
      fn->lambda.copy_captures.push_back("this");
    } else if (first == "&" && e.size() >= 2 && t_[e[1]].ident) {
      fn->lambda.ref_captures.push_back(t_[e[1]].text);
    } else if (t_[e.front()].ident) {
      fn->lambda.copy_captures.push_back(first);
      // `[x]` and `[x = expr]` copies live in the closure object; the
      // "<capture>" marker lets the flow rules treat writes to them as
      // writes to the closure, which is shared when the closure outlives
      // one shard invocation.
      fn->locals[first] = {DeclKind::kValue, "<capture>"};
    }
  }
}

void Parser::ParseParams(FunctionDef* fn, size_t begin, size_t end) {
  if (begin == 0 || end == std::string::npos || end <= begin) {
    return;
  }
  std::vector<std::vector<size_t>> pieces(1);
  int depth = 0;
  for (size_t j = begin + 1; j < end; ++j) {
    const std::string& s = t_[j].text;
    if (s == "(" || s == "[" || s == "{" || s == "<") {
      ++depth;
    } else if (s == ")" || s == "]" || s == "}" || s == ">") {
      --depth;
    } else if (s == "," && depth == 0) {
      pieces.emplace_back();
      continue;
    }
    pieces.back().push_back(j);
  }
  for (auto& piece : pieces) {
    // cut default arguments at the top-level '='
    size_t cut = piece.size();
    for (size_t k = 0; k < piece.size(); ++k) {
      if (t_[piece[k]].text == "=") {
        cut = k;
        break;
      }
    }
    piece.resize(cut);
    if (piece.size() < 2) {
      continue;  // unnamed or `void`
    }
    // name: last identifier, skipping trailing []-groups
    size_t name_idx = std::string::npos;
    for (size_t k = piece.size(); k-- > 0;) {
      if (t_[piece[k]].ident && !Keywords().count(t_[piece[k]].text)) {
        name_idx = k;
        break;
      }
      if (t_[piece[k]].text != "]" && t_[piece[k]].text != "[") {
        break;
      }
    }
    if (name_idx == std::string::npos || name_idx == 0) {
      continue;
    }
    LocalDecl decl;
    int angle = 0;
    bool top_ref = false;
    bool top_ptr = false;
    for (size_t k = 0; k < name_idx; ++k) {
      const std::string& s = t_[piece[k]].text;
      if (s == "<") {
        ++angle;
      } else if (s == ">") {
        angle = std::max(0, angle - 1);
      } else if (angle == 0 && s == "&") {
        top_ref = true;
      } else if (angle == 0 && s == "*") {
        top_ptr = true;
      } else if (angle == 0 && t_[piece[k]].ident &&
                 !Keywords().count(s)) {
        decl.type = s;  // last top-level type-ish identifier wins
      }
    }
    decl.kind = top_ref    ? DeclKind::kRefNonLocal
                : top_ptr  ? DeclKind::kPointer
                           : DeclKind::kValue;
    fn->locals[t_[piece[name_idx]].text] = decl;
  }
}

// Classifies `T& name = init;` by the root of the initializer: a reference
// bound to a by-value local stays frame-local, anything else escapes.
DeclKind Parser::ClassifyRefInit(FunctionDef* fn, size_t eq_stmt_idx) {
  for (size_t k = eq_stmt_idx + 1; k < stmt_.size(); ++k) {
    const Token& tok = t_[stmt_[k]];
    if (!tok.ident) {
      continue;
    }
    const LocalDecl* local = FindLocal(*fn, tok.text);
    if (local != nullptr && (local->kind == DeclKind::kValue ||
                             local->kind == DeclKind::kRefLocal)) {
      return DeclKind::kRefLocal;
    }
    return DeclKind::kRefNonLocal;
  }
  return DeclKind::kRefNonLocal;
}

// Registers local declarations from the current statement buffer:
//   Type name;   Type name = init;   Type name(args);   Type& name = init;
//   auto [a, b] = init;   for (Type x = ...;   Type* name = init;
void Parser::AnalyzeDeclStmt(FunctionDef* fn) {
  if (stmt_.empty()) {
    return;
  }
  const std::string& head = t_[stmt_.front()].text;
  static const std::set<std::string> kSkipHeads = {
      "return", "co_return", "throw",  "delete", "goto",  "break",
      "continue", "case",    "using",  "typedef", "static_assert",
      "if",       "while",   "switch", "do",      "else",  "template",
      "friend",   "public",  "private", "protected"};
  if (kSkipHeads.count(head)) {
    return;
  }
  // Find the top-level '=' (assignment-style, not == != <= >= etc.).
  size_t eq = std::string::npos;
  int depth = 0;
  for (size_t k = 0; k < stmt_.size(); ++k) {
    const std::string& s = t_[stmt_[k]].text;
    if (s == "(" || s == "[" || s == "{") {
      ++depth;
    } else if (s == ")" || s == "]" || s == "}") {
      --depth;
    } else if (s == "=" && (depth == 0 || (depth == 1 && head == "for"))) {
      const Token& cur = t_[stmt_[k]];
      const bool op_before =
          k > 0 && !t_[stmt_[k - 1]].ident &&
          t_[stmt_[k - 1]].offset + t_[stmt_[k - 1]].text.size() ==
              cur.offset &&
          std::string("=!<>+-*/%&|^").find(t_[stmt_[k - 1]].text) !=
              std::string::npos;
      const bool eq_after =
          k + 1 < stmt_.size() && t_[stmt_[k + 1]].text == "=" &&
          cur.offset + 1 == t_[stmt_[k + 1]].offset;
      if (!op_before && !eq_after) {
        eq = k;
        break;
      }
    }
  }
  const size_t limit = eq == std::string::npos ? stmt_.size() : eq;
  if (limit == 0) {
    return;
  }
  // Structured binding: `auto [a, b] = init` / `auto& [a, b] = init`.
  if (eq != std::string::npos && t_[stmt_[eq - 1]].text == "]") {
    bool is_ref = false;
    size_t open = std::string::npos;
    for (size_t k = eq - 1; k-- > 0;) {
      const std::string& s = t_[stmt_[k]].text;
      if (s == "[") {
        open = k;
        break;
      }
      if (!t_[stmt_[k]].ident && s != ",") {
        return;
      }
    }
    if (open == std::string::npos || open == 0) {
      return;
    }
    for (size_t k = open; k-- > 0;) {
      const std::string& s = t_[stmt_[k]].text;
      if (s == "&") {
        is_ref = true;
      } else if (s != "auto" && s != "const") {
        break;
      }
    }
    const DeclKind kind =
        is_ref ? ClassifyRefInit(fn, eq) : DeclKind::kValue;
    for (size_t k = open + 1; k + 1 < eq; ++k) {
      if (t_[stmt_[k]].ident) {
        fn->locals[t_[stmt_[k]].text] = {kind, ""};
      }
    }
    return;
  }
  // Candidate name: last identifier before '=' (or before a final (...) /
  // [...] group for `Type name(args);` declarations).
  size_t ni = limit;  // index into stmt_, one past the candidate
  while (ni > 0) {
    const std::string& s = t_[stmt_[ni - 1]].text;
    if (s == ")" || s == "]") {
      // skip one balanced group
      const std::string open = s == ")" ? "(" : "[";
      int d = 0;
      size_t k = ni;
      while (k-- > 0) {
        if (t_[stmt_[k]].text == s) {
          ++d;
        } else if (t_[stmt_[k]].text == open) {
          if (--d == 0) {
            break;
          }
        }
      }
      if (d != 0) {
        return;
      }
      ni = k;
      continue;
    }
    break;
  }
  if (ni == 0 || !t_[stmt_[ni - 1]].ident ||
      Keywords().count(t_[stmt_[ni - 1]].text)) {
    return;
  }
  const size_t cand = ni - 1;
  if (cand == 0) {
    return;  // bare `name = expr`: assignment, not a declaration
  }
  const Token& before = t_[stmt_[cand - 1]];
  DeclKind kind = DeclKind::kValue;
  size_t type_end = cand - 1;  // stmt index of last type token
  if (before.text == "&") {
    size_t b = cand - 1;
    while (b > 0 && t_[stmt_[b - 1]].text == "&") {
      --b;
    }
    if (b == 0 || !IsTypeIsh(t_[stmt_[b - 1]])) {
      return;  // `x & y = ...` or address-of: not a declaration
    }
    kind = eq != std::string::npos ? ClassifyRefInit(fn, eq)
                                   : DeclKind::kRefNonLocal;
    type_end = b - 1;
  } else if (before.text == "*") {
    size_t b = cand - 1;
    while (b > 0 && (t_[stmt_[b - 1]].text == "*" ||
                     t_[stmt_[b - 1]].text == "const")) {
      --b;
    }
    if (b == 0 || !IsTypeIsh(t_[stmt_[b - 1]])) {
      return;  // deref-assignment, not a declaration
    }
    kind = DeclKind::kPointer;
    type_end = b - 1;
  } else if (!IsTypeIsh(before)) {
    return;  // assignment or expression statement
  }
  // Extract the principal type identifier. For single-argument wrappers
  // (`unique_ptr<T>`, `shared_ptr<T>`, `optional<T>`) the element type is
  // the one receiver calls dispatch on, so prefer it.
  std::string type;
  std::string inner;
  size_t k = type_end + 1;
  while (k-- > 0) {
    const Token& tok = t_[stmt_[k]];
    if (tok.text == ">") {
      int d = 0;
      size_t m = k + 1;
      while (m-- > 0) {
        if (t_[stmt_[m]].text == ">") {
          ++d;
        } else if (t_[stmt_[m]].text == "<") {
          if (--d == 0) {
            break;
          }
        }
      }
      if (d != 0 || m == 0) {
        break;
      }
      for (size_t a = k; a-- > m + 1;) {
        const Token& at = t_[stmt_[a]];
        if (at.ident && !Keywords().count(at.text)) {
          inner = at.text;  // last identifier of the template argument
          break;
        }
      }
      k = m;  // continue before the template argument list
      continue;
    }
    if (tok.ident && !Keywords().count(tok.text)) {
      type = tok.text;
      break;
    }
    if (tok.text == "const" || tok.text == ":") {
      continue;
    }
    break;
  }
  if (!inner.empty() && (type == "unique_ptr" || type == "shared_ptr" ||
                         type == "optional")) {
    type = inner;
  }
  fn->locals[t_[stmt_[cand]].text] = {kind, type};
}

// Class-body member declarations: `Type name_;` registers the member type
// for receiver classification. Method declarations are skipped by the same
// heuristics as AnalyzeDeclStmt (their "name" lands before a paren group and
// the walk-back lands on the method name; a spurious registration of a
// method name as a member is harmless because methods are never receivers).
void Parser::AnalyzeMemberDecl(const std::string& cls) {
  if (cls.empty() || stmt_.empty()) {
    return;
  }
  FunctionDef scratch;  // reuse the local-decl analyzer
  AnalyzeDeclStmt(&scratch);
  for (const auto& [name, decl] : scratch.locals) {
    (*classes_)[cls].member_types[name] = decl.type;
  }
}

// `struct Foo : public Bar, Baz {` — name and base list.
void Parser::AnalyzeClassHead(size_t brace) {
  std::string name;
  std::vector<std::string> bases;
  size_t k = 0;
  int angle = 0;
  size_t kw = std::string::npos;
  for (; k < stmt_.size(); ++k) {
    const std::string& s = t_[stmt_[k]].text;
    if (s == "<") {
      ++angle;
    } else if (s == ">") {
      angle = std::max(0, angle - 1);
    } else if (angle == 0 && (s == "class" || s == "struct" || s == "union")) {
      kw = k;
      break;
    }
  }
  if (kw == std::string::npos) {
    scopes_.push_back({ScopeFrame::kBlock, "", -1});
    return;
  }
  size_t colon = std::string::npos;
  for (size_t j = kw + 1; j < stmt_.size(); ++j) {
    const Token& tok = t_[stmt_[j]];
    if (tok.text == ":" &&
        !(j + 1 < stmt_.size() && t_[stmt_[j + 1]].text == ":" &&
          tok.offset + 1 == t_[stmt_[j + 1]].offset) &&
        !(j > 0 && t_[stmt_[j - 1]].text == ":" &&
          t_[stmt_[j - 1]].offset + 1 == tok.offset)) {
      colon = j;
      break;
    }
    if (tok.text == "alignas" && j + 1 < stmt_.size() &&
        t_[stmt_[j + 1]].text == "(") {
      continue;
    }
    if (tok.ident && !Keywords().count(tok.text)) {
      name = tok.text;  // last identifier before ':' or '{' wins (skips
                        // attribute/alignas arguments naming constants)
    }
  }
  if (colon != std::string::npos) {
    static const std::set<std::string> kAccess = {"public", "protected",
                                                  "private", "virtual",
                                                  "std"};
    int a2 = 0;
    for (size_t j = colon + 1; j < stmt_.size(); ++j) {
      const Token& tok = t_[stmt_[j]];
      if (tok.text == "<") {
        ++a2;
      } else if (tok.text == ">") {
        a2 = std::max(0, a2 - 1);
      } else if (a2 == 0 && tok.ident && !kAccess.count(tok.text) &&
                 !Keywords().count(tok.text)) {
        bases.push_back(tok.text);
      }
    }
  }
  if (name.empty()) {
    scopes_.push_back({ScopeFrame::kBlock, "", -1});
    return;
  }
  ClassInfo& ci = (*classes_)[name];
  ci.name = name;
  for (const std::string& b : bases) {
    if (std::find(ci.bases.begin(), ci.bases.end(), b) == ci.bases.end()) {
      ci.bases.push_back(b);
    }
  }
  scopes_.push_back({ScopeFrame::kClass, name, -1});
  (void)brace;
}

// Recognizes `Ret [Cls::]name(params) [qualifiers / init-list] {` in the
// current statement; creates the FunctionDef and pushes its scope.
bool Parser::TryFunctionHead(size_t brace) {
  // Find the first candidate: identifier followed by '(' at angle depth 0.
  int angle = 0;
  size_t cand = std::string::npos;
  for (size_t k = 0; k + 1 < stmt_.size(); ++k) {
    const Token& tok = t_[stmt_[k]];
    if (tok.text == "<") {
      ++angle;
      continue;
    }
    if (tok.text == ">") {
      angle = std::max(0, angle - 1);
      continue;
    }
    if (angle != 0 || !tok.ident || Keywords().count(tok.text)) {
      continue;
    }
    if (t_[stmt_[k + 1]].text == "(") {
      cand = k;
      break;
    }
  }
  if (cand == std::string::npos) {
    return false;
  }
  // The parameter group must be balanced within the statement.
  int d = 0;
  size_t close = std::string::npos;
  for (size_t k = cand + 1; k < stmt_.size(); ++k) {
    if (t_[stmt_[k]].text == "(") {
      ++d;
    } else if (t_[stmt_[k]].text == ")") {
      if (--d == 0) {
        close = k;
        break;
      }
    }
  }
  if (close == std::string::npos) {
    return false;
  }
  // Qualifier: `Cls ::` chain immediately before the name.
  std::string cls = CurClass();
  size_t q = cand;
  while (q >= 2 && t_[stmt_[q - 1]].text == ":" &&
         t_[stmt_[q - 2]].text == ":") {
    if (q >= 3 && t_[stmt_[q - 3]].ident) {
      if (!namespaces_->count(t_[stmt_[q - 3]].text)) {
        cls = t_[stmt_[q - 3]].text;
      }
      q -= 3;
    } else {
      break;
    }
  }
  const std::string name = t_[stmt_[cand]].text;
  const int id = MakeFunction(name, cls, /*is_lambda=*/false,
                              stmt_[cand], brace);
  ParseParams(&(*functions_)[id], stmt_[cand + 1], stmt_[close]);
  scopes_.push_back({ScopeFrame::kFunction, "", id});
  return true;
}

void Parser::HandleOpenBrace(size_t i) {
  auto lam = lambdas_.find(i);
  if (lam != lambdas_.end()) {
    const LambdaIntro& intro = lam->second;
    const int id = MakeFunction("<lambda>", CurClass(), /*is_lambda=*/true,
                                intro.intro_begin, i);
    FunctionDef* fn = &(*functions_)[id];
    ParseCaptures(fn, intro);
    if (intro.params_begin != 0) {
      ParseParams(fn, intro.params_begin, intro.params_end);
    }
    // `auto name = [...]` registers a named local lambda in the encloser.
    const int outer = fn->enclosing;
    if (outer >= 0 && intro.intro_begin >= 2 &&
        t_[intro.intro_begin - 1].text == "=" &&
        t_[intro.intro_begin - 2].ident) {
      const std::string& nm = t_[intro.intro_begin - 2].text;
      (*functions_)[outer].local_lambdas[nm] = id;
      (*functions_)[outer].locals[nm] = {DeclKind::kValue, "<lambda>"};
    }
    // An inline lambda argument attaches to the innermost open call.
    for (size_t p = parens_.size(); p-- > 0;) {
      if (parens_[p].is_call) {
        (*functions_)[parens_[p].owner_func]
            .calls[parens_[p].call_index]
            .lambda_args.push_back(id);
        break;
      }
      break;  // only the directly-enclosing paren counts
    }
    scopes_.push_back({ScopeFrame::kFunction, "", id});
    stmt_.clear();
    return;
  }
  const int func = CurFunc();
  if (func != -1 && !parens_.empty() && parens_.back().is_for) {
    // A brace inside a for header is a braced list (`for (T* p : {&a, &b})`),
    // not the loop body; keep the header's tokens for the loop variable.
    scopes_.push_back({ScopeFrame::kInit, "", func});
    return;
  }
  if (func != -1) {
    const std::string last =
        stmt_.empty() ? std::string() : t_[stmt_.back()].text;
    const std::string& head =
        stmt_.empty() ? last : t_[stmt_.front()].text;
    const bool block = stmt_.empty() || last == ")" || last == "else" ||
                       last == "try" || last == "do" || head == "if" ||
                       head == "for" || head == "while" || head == "switch";
    if (block) {
      scopes_.push_back({ScopeFrame::kBlock, "", func});
      stmt_.clear();
    } else {
      scopes_.push_back({ScopeFrame::kInit, "", func});
    }
    return;
  }
  // Namespace / class scope.
  if (!StmtParensBalanced()) {
    scopes_.push_back({ScopeFrame::kInit, "", -1});
    return;
  }
  if (StmtHasAtDepth0("namespace")) {
    std::string name;
    for (size_t k = 0; k + 1 < stmt_.size(); ++k) {
      if (t_[stmt_[k]].text == "namespace" && t_[stmt_[k + 1]].ident) {
        name = t_[stmt_[k + 1]].text;
      }
    }
    if (!name.empty()) {
      namespaces_->insert(name);
    }
    scopes_.push_back({ScopeFrame::kNamespace, "", -1});
    stmt_.clear();
    return;
  }
  if (StmtHasAtDepth0("enum")) {
    scopes_.push_back({ScopeFrame::kBlock, "", -1});
    stmt_.clear();
    return;
  }
  if (StmtHasAtDepth0("class") || StmtHasAtDepth0("struct") ||
      StmtHasAtDepth0("union")) {
    AnalyzeClassHead(i);
    stmt_.clear();
    return;
  }
  if (StmtHasAtDepth0("=")) {
    scopes_.push_back({ScopeFrame::kInit, "", -1});
    return;
  }
  if (TryFunctionHead(i)) {
    stmt_.clear();
    return;
  }
  // Default member initializer `Type name_{...};` at class scope: the brace
  // is part of the declaration, which AnalyzeMemberDecl sees at the ';'.
  const ScopeFrame* inner = InnermostNonInit();
  if (inner != nullptr && inner->kind == ScopeFrame::kClass &&
      !stmt_.empty() && t_[stmt_.back()].ident) {
    scopes_.push_back({ScopeFrame::kInit, "", -1});
    return;
  }
  scopes_.push_back({ScopeFrame::kBlock, "", -1});
  stmt_.clear();
}

void Parser::HandleCloseBrace(size_t i) {
  if (scopes_.empty()) {
    return;
  }
  const ScopeFrame top = scopes_.back();
  scopes_.pop_back();
  if (top.kind == ScopeFrame::kFunction && top.func >= 0) {
    (*functions_)[top.func].body_end = i;
  }
  if (top.kind != ScopeFrame::kInit) {
    stmt_.clear();
  }
}

void Parser::HandleOpenParen(size_t i) {
  ParenFrame frame;
  frame.open_tok = i;
  const int func = CurFunc();
  if (i > 0) {
    const Token& prev = t_[i - 1];
    frame.is_for = prev.text == "for";
    frame.is_cond =
        prev.text == "if" || prev.text == "while" || prev.text == "switch";
    if (func != -1 && prev.ident && !Keywords().count(prev.text)) {
      // `Foo x(...)` is a declaration when an identifier precedes the name;
      // `recv.M(...)`, `f(...)`, `ns::f(...)` are calls.
      const bool decl_like =
          i >= 2 && t_[i - 2].ident && !Keywords().count(t_[i - 2].text) &&
          t_[i - 2].text != "this";
      if (!decl_like) {
        CallSite call;
        call.callee = prev.text;
        call.token_index = i - 1;
        // Receiver / qualifier analysis.
        if (i >= 2 && (t_[i - 2].text == "." ||
                       (i >= 3 && t_[i - 2].text == ">" &&
                        t_[i - 3].text == "-"))) {
          size_t q = t_[i - 2].text == "." ? i - 3 : i - 4;
          std::string root;
          while (q != std::string::npos) {
            // skip trailing ()/[] groups of the previous chain component
            while (q != std::string::npos && q < t_.size() &&
                   (t_[q].text == "]" || t_[q].text == ")")) {
              const size_t open = BalanceBack(t_, q);
              if (open == std::string::npos || open == 0) {
                q = std::string::npos;
                break;
              }
              q = open - 1;
            }
            if (q == std::string::npos || !(t_[q].ident)) {
              root.clear();
              break;
            }
            root = t_[q].text;
            if (q >= 1 && t_[q - 1].text == ".") {
              q = q >= 2 ? q - 2 : std::string::npos;
            } else if (q >= 2 && t_[q - 1].text == ">" &&
                       t_[q - 2].text == "-") {
              q = q >= 3 ? q - 3 : std::string::npos;
            } else {
              break;
            }
          }
          call.receiver_root = root;
          call.receiver = ReceiverKind::kShared;  // refined at Resolve time
          if (!root.empty() && func >= 0) {
            for (const FunctionDef* f = &(*functions_)[func];;) {
              auto it = f->locals.find(root);
              if (it != f->locals.end()) {
                if (it->second.kind == DeclKind::kValue ||
                    it->second.kind == DeclKind::kRefLocal) {
                  call.receiver = ReceiverKind::kFrameLocal;
                }
                call.receiver_type = it->second.type;
                break;
              }
              if (f->enclosing < 0) {
                break;
              }
              f = &(*functions_)[f->enclosing];
            }
          }
        } else if (i >= 4 && t_[i - 2].text == ":" &&
                   t_[i - 3].text == ":" && t_[i - 4].ident) {
          if (!namespaces_->count(t_[i - 4].text) &&
              t_[i - 4].text != "std") {
            call.qualifier = t_[i - 4].text;
          }
        }
        if (func >= 0) {
          frame.is_call = true;
          frame.owner_func = func;
          frame.call_index =
              static_cast<int>((*functions_)[func].calls.size());
          (*functions_)[func].calls.push_back(std::move(call));
        }
      }
    }
  }
  parens_.push_back(frame);
}

void Parser::HandleCloseParen(size_t i) {
  if (parens_.empty()) {
    return;
  }
  ParenFrame frame = parens_.back();
  parens_.pop_back();
  if (frame.is_call) {
    if (frame.arg_tokens == 1 && !frame.arg_ident.empty()) {
      (*functions_)[frame.owner_func]
          .calls[frame.call_index]
          .ident_args.push_back(frame.arg_ident);
    }
  }
  if (frame.is_cond) {
    // `if (Type* x = init)` / `while (auto v = next())` declare a name
    // scoped to the controlled block; analyze the condition tokens as a
    // declaration statement (AnalyzeDeclStmt rejects plain conditions).
    const int func = CurFunc();
    if (func >= 0) {
      std::vector<size_t> cond;
      for (size_t k : stmt_) {
        if (k > frame.open_tok) {
          cond.push_back(k);
        }
      }
      // A condition declaration always carries an initializer; without a
      // top-level '=' the condition is a plain expression (`a > b` would
      // otherwise register `b` as a local through the type heuristics).
      bool has_eq = false;
      int depth = 0;
      for (size_t k = 0; k < cond.size(); ++k) {
        const std::string& s = t_[cond[k]].text;
        if (s == "(" || s == "[" || s == "{") {
          ++depth;
        } else if (s == ")" || s == "]" || s == "}") {
          --depth;
        } else if (s == "=" && depth == 0) {
          const bool op_before =
              k > 0 && !t_[cond[k - 1]].ident &&
              t_[cond[k - 1]].offset + 1 == t_[cond[k]].offset &&
              std::string("=!<>+-*/%&|^").find(t_[cond[k - 1]].text) !=
                  std::string::npos;
          const bool eq_after =
              k + 1 < cond.size() &&
              t_[cond[k + 1]].text == "=" &&
              t_[cond[k]].offset + 1 == t_[cond[k + 1]].offset;
          if (!op_before && !eq_after) {
            has_eq = true;
            break;
          }
        }
      }
      if (has_eq && !cond.empty()) {
        std::swap(stmt_, cond);
        AnalyzeDeclStmt(&(*functions_)[func]);
        std::swap(stmt_, cond);
      }
    }
    return;
  }
  if (frame.is_for && frame.colon != 0) {
    // Range-for: `for (decl : range)` — register the loop variable(s),
    // classifying references and pointers by the root of the range
    // expression.
    const int func = CurFunc();
    if (func >= 0) {
      FunctionDef* fn = &(*functions_)[func];
      bool is_ref = false;
      std::vector<std::string> names;
      for (size_t k : stmt_) {
        if (k >= frame.colon) {
          break;
        }
        const Token& tok = t_[k];
        if (tok.text == "&" || tok.text == "*") {
          is_ref = true;
        } else if (tok.ident && !Keywords().count(tok.text)) {
          names.assign(1, tok.text);  // plain decl: last identifier wins
        }
      }
      // structured-binding names override the plain-decl guess
      bool in_binding = false;
      std::vector<std::string> binding;
      for (size_t k : stmt_) {
        if (k >= frame.colon) {
          break;
        }
        if (t_[k].text == "[") {
          in_binding = true;
          binding.clear();
        } else if (t_[k].text == "]") {
          in_binding = false;
        } else if (in_binding && t_[k].ident) {
          binding.push_back(t_[k].text);
        }
      }
      if (!binding.empty()) {
        names = binding;
      }
      DeclKind kind = DeclKind::kValue;
      if (is_ref) {
        kind = DeclKind::kRefNonLocal;
        for (size_t k = frame.colon + 1; k < i; ++k) {
          if (!t_[k].ident) {
            continue;
          }
          const LocalDecl* local = FindLocal(*fn, t_[k].text);
          if (local != nullptr && (local->kind == DeclKind::kValue ||
                                   local->kind == DeclKind::kRefLocal)) {
            kind = DeclKind::kRefLocal;
          }
          break;
        }
      }
      for (const std::string& nm : names) {
        fn->locals[nm] = {kind, ""};
      }
    }
    stmt_.clear();
  }
}

void Parser::HandleSemicolon() {
  const int func = CurFunc();
  if (func != -1) {
    AnalyzeDeclStmt(&(*functions_)[func]);
  } else {
    const ScopeFrame* inner = InnermostNonInit();
    if (inner != nullptr && inner->kind == ScopeFrame::kClass) {
      AnalyzeMemberDecl(inner->class_name);
    }
  }
  stmt_.clear();
}

void Parser::HandleComma() {
  if (!parens_.empty() && parens_.back().is_call) {
    ParenFrame& frame = parens_.back();
    if (frame.arg_tokens == 1 && !frame.arg_ident.empty()) {
      (*functions_)[frame.owner_func]
          .calls[frame.call_index]
          .ident_args.push_back(frame.arg_ident);
    }
    frame.arg_tokens = 0;
    frame.arg_ident.clear();
  }
}

void Parser::HandleColon(size_t i) {
  if (parens_.empty() || !parens_.back().is_for ||
      parens_.back().colon != 0) {
    return;
  }
  // exclude `::`
  const bool scope_op =
      (i + 1 < t_.size() && t_[i + 1].text == ":" &&
       t_[i].offset + 1 == t_[i + 1].offset) ||
      (i > 0 && t_[i - 1].text == ":" &&
       t_[i - 1].offset + 1 == t_[i].offset);
  if (!scope_op) {
    parens_.back().colon = i;
  }
}

void Parser::Parse() {
  for (size_t i = 0; i < t_.size(); ++i) {
    const std::string& s = t_[i].text;
    if (s == "{") {
      HandleOpenBrace(i);
      continue;
    }
    if (s == "}") {
      HandleCloseBrace(i);
      continue;
    }
    if (s == "(") {
      HandleOpenParen(i);
      stmt_.push_back(i);
      continue;
    }
    if (s == ")") {
      HandleCloseParen(i);
      stmt_.push_back(i);
      continue;
    }
    if (s == ";") {
      if (!parens_.empty()) {
        // Classic-for header or `if (T* x = init; cond)` / `switch (...; v)`
        // init-statement: analyze the clause as a declaration, keep
        // scanning. A condition's clause starts after its '('.
        const int func = CurFunc();
        if (func != -1) {
          if (parens_.back().is_cond) {
            const size_t open = parens_.back().open_tok;
            std::erase_if(stmt_, [open](size_t k) { return k <= open; });
          }
          AnalyzeDeclStmt(&(*functions_)[func]);
        }
        stmt_.clear();
        continue;
      }
      HandleSemicolon();
      continue;
    }
    if (s == ",") {
      HandleComma();
      stmt_.push_back(i);
      continue;
    }
    if (s == ":") {
      HandleColon(i);
      // `public:` / `private:` / `protected:` labels are statement
      // boundaries inside a class body; dropping them keeps the following
      // member declaration's head token a type, not an access specifier.
      if (stmt_.size() == 1 &&
          (t_[stmt_[0]].text == "public" ||
           t_[stmt_[0]].text == "private" ||
           t_[stmt_[0]].text == "protected")) {
        stmt_.clear();
        continue;
      }
      stmt_.push_back(i);
      continue;
    }
    // Arg tracking for the innermost call.
    if (!parens_.empty() && parens_.back().is_call) {
      ParenFrame& frame = parens_.back();
      ++frame.arg_tokens;
      frame.arg_ident = t_[i].ident ? t_[i].text : std::string();
    }
    if (stmt_.size() < 4096) {
      stmt_.push_back(i);
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// ProjectModel
// ---------------------------------------------------------------------------

void ProjectModel::AddFile(const std::string& rel_path,
                           const std::string& code_nostrings) {
  std::vector<Token> toks =
      FilterPreprocessor(Lex(code_nostrings), code_nostrings);
  namespaces_.insert("std");
  Parser parser(rel_path, toks, &functions_, &classes_, &by_name_,
                &namespaces_);
  parser.Parse();
  file_tokens_[rel_path] = std::move(toks);
}

const std::vector<Token>& ProjectModel::tokens(
    const std::string& rel_path) const {
  static const std::vector<Token> kEmpty;
  auto it = file_tokens_.find(rel_path);
  return it == file_tokens_.end() ? kEmpty : it->second;
}

const ClassInfo* ProjectModel::class_info(const std::string& name) const {
  auto it = classes_.find(name);
  return it == classes_.end() ? nullptr : &it->second;
}

const std::vector<int>* ProjectModel::by_name(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : &it->second;
}

bool ProjectModel::DerivesFrom(const std::string& derived,
                               const std::string& base) const {
  if (derived == base) {
    return false;
  }
  std::vector<std::string> frontier = {derived};
  std::set<std::string> seen = {derived};
  while (!frontier.empty()) {
    const std::string cur = frontier.back();
    frontier.pop_back();
    const ClassInfo* ci = class_info(cur);
    if (ci == nullptr) {
      continue;
    }
    for (const std::string& b : ci->bases) {
      if (b == base) {
        return true;
      }
      if (seen.insert(b).second) {
        frontier.push_back(b);
      }
    }
  }
  return false;
}

std::vector<int> ProjectModel::MethodsOf(const std::string& cls,
                                         const std::string& name) const {
  std::vector<int> out;
  const std::vector<int>* candidates = by_name(name);
  if (candidates == nullptr) {
    return out;
  }
  for (int id : *candidates) {
    const FunctionDef& fn = functions_[id];
    if (fn.class_name.empty()) {
      continue;
    }
    // Exact class, derived override (virtual dispatch over-approximation),
    // or inherited base implementation.
    if (fn.class_name == cls || DerivesFrom(fn.class_name, cls) ||
        DerivesFrom(cls, fn.class_name)) {
      out.push_back(id);
    }
  }
  return out;
}

std::vector<int> ProjectModel::Resolve(const FunctionDef& caller,
                                       const CallSite& call) const {
  // 1. Named local lambda in the caller or a lexical ancestor.
  for (const FunctionDef* f = &caller;;) {
    auto it = f->local_lambdas.find(call.callee);
    if (it != f->local_lambdas.end()) {
      return {it->second};
    }
    if (f->enclosing < 0) {
      break;
    }
    f = &functions_[f->enclosing];
  }
  // 2. Explicit qualifier.
  if (!call.qualifier.empty()) {
    std::vector<int> v = MethodsOf(call.qualifier, call.callee);
    if (!v.empty()) {
      return v;
    }
  }
  // 3. Receiver type: parse-time if the root was a typed local, otherwise
  // try the caller's class members.
  std::string recv_type = call.receiver_type;
  if (recv_type.empty() && !call.receiver_root.empty()) {
    std::string cls = caller.class_name;
    std::set<std::string> seen;
    while (!cls.empty() && seen.insert(cls).second) {
      const ClassInfo* ci = class_info(cls);
      if (ci == nullptr) {
        break;
      }
      auto it = ci->member_types.find(call.receiver_root);
      if (it != ci->member_types.end()) {
        recv_type = it->second;
        break;
      }
      cls = ci->bases.empty() ? "" : ci->bases.front();
    }
  }
  if (!recv_type.empty()) {
    std::vector<int> v = MethodsOf(recv_type, call.callee);
    if (!v.empty()) {
      return v;
    }
  }
  // 4. Unqualified receiver-less call inside a method: own class first.
  if (call.receiver == ReceiverKind::kNone && call.qualifier.empty() &&
      !caller.class_name.empty()) {
    std::vector<int> v = MethodsOf(caller.class_name, call.callee);
    if (!v.empty()) {
      return v;
    }
  }
  // 5. Bare-name over-approximation, bounded by call syntax: a
  // receiver-less unqualified call can only reach a free function (implicit
  // this-calls were handled in step 4), while a call through an untyped
  // receiver widens to every same-named method of any class.
  const std::vector<int>* v = by_name(call.callee);
  if (v == nullptr) {
    return {};
  }
  const bool receiverless =
      call.receiver == ReceiverKind::kNone && call.qualifier.empty();
  std::vector<int> out;
  for (int id : *v) {
    const bool is_method = !functions_[id].class_name.empty();
    if (receiverless != is_method) {
      out.push_back(id);
    }
  }
  return out;
}

}  // namespace omega_lint
