// omega_lint v2 flow rules: det-shard-unsafe-write, det-rng-substream,
// det-fp-unordered-acc, sim-dangling-capture. All four run over the
// whole-project syntactic model (tools/lint/model.h); see DESIGN.md §14 for
// the reachability semantics and the soundness trade-offs.
#include <algorithm>
#include <cctype>

#include "tools/lint/linter.h"

namespace omega_lint {
namespace {

int LineAt(const std::vector<size_t>& line_offsets, size_t offset) {
  auto it = std::upper_bound(line_offsets.begin(), line_offsets.end(), offset);
  return static_cast<int>(it - line_offsets.begin());
}

bool Contains(const std::vector<std::string>& v, const std::string& s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

// Shard-API entries name a free function ("ParallelFor") or a method of a
// receiver's declared class ("SweepRunner::Run").
bool IsShardApiCall(const std::vector<std::string>& apis,
                    const CallSite& call) {
  return Contains(apis, call.callee) ||
         Contains(apis, call.receiver_type + "::" + call.callee);
}

std::string Lower(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

bool AdjacentNext(const std::vector<Token>& t, size_t i) {
  return i + 1 < t.size() &&
         t[i + 1].offset == t[i].offset + t[i].text.size();
}

bool AdjacentPrev(const std::vector<Token>& t, size_t i) {
  return i > 0 && t[i - 1].offset + t[i - 1].text.size() == t[i].offset;
}

size_t BalanceBack(const std::vector<Token>& t, size_t i) {
  const std::string close = t[i].text;
  const std::string open = close == "]" ? "[" : close == ")" ? "(" : "{";
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

bool IsKeywordIdent(const std::string& s) {
  static const std::set<std::string> kw = {
      "return", "if",    "for",   "while",  "switch", "case",  "new",
      "delete", "const", "auto",  "static", "else",   "do",    "throw",
      "sizeof", "this",  "break", "continue"};
  return kw.count(s) > 0;
}

// Walks an lvalue chain (`a.b[i].c`, `this->x`, `p->slot`) backwards from
// its last token; returns the token index of the root identifier, or npos
// when the expression is too complex to root (callers treat that as shared).
// Sets *designated_init for `{.field = ...}` aggregate initializers, which
// are not writes.
size_t ChainRoot(const std::vector<Token>& t, size_t e,
                 bool* designated_init) {
  *designated_init = false;
  size_t p = e;
  while (true) {
    bool deref_root = false;
    while (p != std::string::npos && p < t.size() &&
           (t[p].text == "]" || t[p].text == ")")) {
      const size_t open = BalanceBack(t, p);
      if (open == std::string::npos || open == 0) {
        return std::string::npos;
      }
      // `(*name)[...]` / `(*name).field`: the chain roots at the pointer.
      if (t[p].text == ")" && open + 3 == p && t[open + 1].text == "*" &&
          t[open + 2].ident) {
        p = open + 2;
        deref_root = true;
        break;
      }
      p = open - 1;
    }
    if (deref_root) {
      return p;
    }
    if (p == std::string::npos || p >= t.size() || !t[p].ident) {
      return std::string::npos;
    }
    if (p >= 1 && t[p - 1].text == ".") {
      if (p >= 2 && (t[p - 2].text == "{" || t[p - 2].text == ",")) {
        *designated_init = true;
        return std::string::npos;
      }
      if (p < 2) {
        return std::string::npos;
      }
      p -= 2;
      continue;
    }
    if (p >= 2 && t[p - 1].text == ">" && t[p - 2].text == "-" &&
        AdjacentPrev(t, p - 1)) {
      if (p < 3) {
        return std::string::npos;
      }
      p -= 3;
      continue;
    }
    return p;
  }
}

// `Type name = ...` / `Type* name = ...` declarations are bindings, not
// writes: the candidate root is directly preceded by type syntax.
bool LooksLikeDecl(const std::vector<Token>& t, size_t root) {
  if (root == 0) {
    return false;
  }
  const Token& prev = t[root - 1];
  if (prev.text == ">" || prev.text == "auto" || prev.text == "const") {
    return true;
  }
  if (prev.ident && !IsKeywordIdent(prev.text) &&
      !std::isdigit(static_cast<unsigned char>(prev.text[0]))) {
    return prev.text != "this";
  }
  if ((prev.text == "*" || prev.text == "&") && root >= 2) {
    const Token& pp = t[root - 2];
    return pp.text == ">" || (pp.ident && !IsKeywordIdent(pp.text));
  }
  return false;
}

}  // namespace

void Linter::BuildModel() {
  for (const auto& [path, f] : files_) {
    if (InScope(path, config_.flow_scope)) {
      model_.AddFile(path, f.code_nostrings);
    }
  }
}

bool Linter::IsScratchType(const std::string& type) const {
  return Contains(config_.shard_scratch_types, type);
}

int Linter::FindNamedLambda(const FunctionDef& fn,
                            const std::string& name) const {
  for (const FunctionDef* f = &fn;;) {
    auto it = f->local_lambdas.find(name);
    if (it != f->local_lambdas.end()) {
      return it->second;
    }
    if (f->enclosing < 0) {
      return -1;
    }
    f = &model_.function(f->enclosing);
  }
}

namespace {

// True if `fn` is lexically inside (or equal to) the shard-root callback's
// subtree: such frames and closures are instantiated per shard invocation.
bool InShardSubtree(const ProjectModel& model, int fn, int shard_root) {
  for (int cur = fn; cur >= 0; cur = model.function(cur).enclosing) {
    if (cur == shard_root) {
      return true;
    }
  }
  return false;
}

}  // namespace

// Storage classification for a write through `root` executed by `fn` while
// running as part of shard `shard_root`'s callback. Per-shard-safe storage:
// the frame of any function whose every activation happens inside one shard
// invocation, and allowlisted scratch types. Shared: members (when the
// receiver chain was shared), globals, by-reference bindings that escape the
// frame, captures of frames that outlive the shard, and the shard callback's
// own closure object (one object invoked by every worker).
bool Linter::RootIsShared(const FunctionDef& fn, bool self_shared,
                          int shard_root, const std::string& root,
                          std::string* why) const {
  if (root.empty()) {
    *why = "unrecognized lvalue expression";
    return true;
  }
  if (root == "this") {
    *why = "member state via this";
    return self_shared;
  }
  if (IsKeywordIdent(root)) {
    // The "root" is a keyword (`return (a - b).Clamp()`): the receiver is a
    // temporary living in this frame.
    return false;
  }
  const FunctionDef* f = &fn;
  while (true) {
    auto it = f->locals.find(root);
    if (it != f->locals.end()) {
      const LocalDecl& decl = it->second;
      if (IsScratchType(decl.type)) {
        return false;  // sanctioned per-shard scratch view
      }
      if (decl.type == "<capture>") {
        // Closure member: the shard callback's own closure is one object
        // invoked by every worker; a closure built elsewhere is as shared
        // as the call chain that constructed it.
        if (f->id == shard_root) {
          *why = "state stored in the shard callback's closure (one object "
                 "shared by every worker)";
          return true;
        }
        if (!InShardSubtree(model_, f->id, shard_root)) {
          *why = "state in a closure built outside the shard callback";
          return self_shared;
        }
        return false;
      }
      const bool owner_per_shard = InShardSubtree(model_, f->id, shard_root);
      if (!owner_per_shard && f != &fn) {
        // Ancestor frames outside the shard callback are shared across
        // shards when the traversal entered this code as shared; under a
        // per-trial tree (self_shared false) they belong to the trial.
        *why = "by-reference capture of `" + root +
               "` from a frame outside the shard callback";
        return self_shared;
      }
      if (decl.kind == DeclKind::kRefNonLocal) {
        // A reference rooted outside this frame aliases the surrounding
        // object tree (member, argument): shared exactly when that tree is.
        *why = "reference `" + root + "` bound outside the frame";
        return self_shared;
      }
      // Plain locals of called functions are per-activation even when the
      // function itself sits outside the shard subtree.
      return false;
    }
    if (f->enclosing < 0) {
      break;
    }
    if (f->is_lambda && f->lambda.default_copy &&
        !f->lambda.default_ref &&
        !Contains(f->lambda.ref_captures, root)) {
      // `[=]` copy: the name is a member of this closure object.
      if (f->id == shard_root) {
        *why = "state copied into the shard callback's closure (one object "
               "shared by every worker)";
        return true;
      }
      if (!InShardSubtree(model_, f->id, shard_root)) {
        *why = "state in a closure built outside the shard callback";
        return self_shared;
      }
      return false;
    }
    f = &model_.function(f->enclosing);
  }
  // Not a local anywhere on the lexical chain: a member or a global.
  std::string cls = fn.class_name;
  std::set<std::string> seen;
  while (!cls.empty() && seen.insert(cls).second) {
    const ClassInfo* ci = model_.class_info(cls);
    if (ci == nullptr) {
      break;
    }
    if (ci->member_types.count(root)) {
      if (IsScratchType(ci->member_types.at(root))) {
        return false;
      }
      *why = "member field `" + root + "`";
      return self_shared;
    }
    cls = ci->bases.empty() ? "" : ci->bases.front();
  }
  // A member-accessor receiver (`trace().Append(...)`): the chain roots at a
  // method of this class, i.e. it is reached through `this`.
  if (!fn.class_name.empty() &&
      !model_.MethodsOf(fn.class_name, root).empty()) {
    *why = "state reached through accessor `" + root + "()`";
    return self_shared;
  }
  *why = "global or unrecognized name `" + root + "`";
  return true;
}

void Linter::ScanShardFunction(const ShardState& state,
                               std::vector<ShardState>* work) {
  const FunctionDef& fn = model_.function(state.fn);
  auto file_it = files_.find(fn.file);
  if (file_it == files_.end()) {
    return;
  }
  const FileData& fd = file_it->second;
  const std::vector<Token>& t = model_.tokens(fn.file);
  if (fn.body_end <= fn.body_begin || fn.body_end >= t.size()) {
    return;
  }

  // Nested lambdas are separate functions: skip their spans here and make
  // them reachable in their own right (defined inside shard code, so if they
  // ever run they run on a worker).
  std::vector<std::pair<size_t, size_t>> skips;
  for (const FunctionDef& child : model_.functions()) {
    if (child.enclosing == fn.id && child.is_lambda) {
      skips.push_back({child.name_token, child.body_end});
      work->push_back({child.id, state.self_shared, state.root});
    }
  }
  std::sort(skips.begin(), skips.end());

  auto flag = [&](size_t tok_idx, const std::string& what,
                  const std::string& why) {
    AddFinding(fd, LineAt(fd.line_offsets, t[tok_idx].offset),
               "det-shard-unsafe-write",
               what + " in code reachable from a shard callback: " + why +
                   "; shard code must only write per-shard state (use a "
                   "ShardSlots view for disjoint per-index output and merge "
                   "after the parallel section — DESIGN.md §14)");
  };
  auto classify_write = [&](size_t chain_end, size_t op_idx) {
    bool designated = false;
    const size_t root_idx = ChainRoot(t, chain_end, &designated);
    if (designated) {
      return;
    }
    if (root_idx == std::string::npos) {
      flag(op_idx, "write", "unrecognized lvalue expression");
      return;
    }
    if (LooksLikeDecl(t, root_idx) && root_idx == chain_end) {
      return;  // `Type name = init` binds, it does not write
    }
    std::string why;
    if (RootIsShared(fn, state.self_shared, state.root, t[root_idx].text,
                     &why)) {
      flag(op_idx, "write to `" + t[root_idx].text + "`", why);
    }
  };

  size_t skip_at = 0;
  for (size_t i = fn.body_begin + 1; i < fn.body_end; ++i) {
    while (skip_at < skips.size() && skips[skip_at].second < i) {
      ++skip_at;
    }
    if (skip_at < skips.size() && i >= skips[skip_at].first &&
        i <= skips[skip_at].second) {
      i = skips[skip_at].second;
      continue;
    }
    const std::string& s = t[i].text;
    if (s == "=") {
      const bool op_before =
          AdjacentPrev(t, i) && !t[i - 1].ident &&
          std::string("=!<>+-*/%&|^").find(t[i - 1].text) !=
              std::string::npos;
      const bool eq_after = AdjacentNext(t, i) && t[i + 1].text == "=";
      if (!op_before && !eq_after && i > fn.body_begin + 1) {
        classify_write(i - 1, i);
      }
      continue;
    }
    if (s.size() == 1 && std::string("+-*/%&|^").find(s) != std::string::npos &&
        AdjacentNext(t, i) && t[i + 1].text == "=") {
      if (i > fn.body_begin + 1) {
        classify_write(i - 1, i);
      }
      ++i;  // consume the '='
      continue;
    }
    if ((s == "+" || s == "-") && AdjacentNext(t, i) &&
        t[i + 1].text == s) {
      // ++x / x++ / --x / x--
      if (i > fn.body_begin + 1 &&
          (t[i - 1].ident || t[i - 1].text == "]" || t[i - 1].text == ")")) {
        classify_write(i - 1, i);
      } else if (i + 2 < fn.body_end && t[i + 2].ident) {
        std::string why;
        if (!IsKeywordIdent(t[i + 2].text) &&
            RootIsShared(fn, state.self_shared, state.root, t[i + 2].text,
                         &why)) {
          flag(i, "increment of `" + t[i + 2].text + "`", why);
        }
      }
      ++i;
      continue;
    }
    // Mutating container method on a receiver chain.
    if (t[i].ident && Contains(config_.mutating_methods, s) &&
        i + 1 < fn.body_end && t[i + 1].text == "(" && i >= 2 &&
        (t[i - 1].text == "." ||
         (t[i - 1].text == ">" && t[i - 2].text == "-"))) {
      const size_t recv_end = t[i - 1].text == "." ? i - 2 : i - 3;
      if (recv_end != std::string::npos && recv_end < t.size()) {
        classify_write(recv_end, i);
      }
      continue;
    }
  }

  // Calls: RNG draws are findings; resolvable callees extend reachability.
  for (const CallSite& call : fn.calls) {
    // Shard-API calls are handled by root collection (their callbacks become
    // roots).
    if (IsShardApiCall(config_.shard_api_names, call)) {
      continue;
    }
    const std::vector<int> targets = model_.Resolve(fn, call);
    // det-rng-substream: any draw inside shard-parallel code is layout-
    // dependent (chunks are claimed by whichever worker is free).
    if (Contains(config_.rng_draw_methods, call.callee)) {
      bool is_rng = call.receiver_type == config_.rng_type_name ||
                    Lower(call.receiver_root).find("rng") !=
                        std::string::npos;
      for (int id : targets) {
        if (model_.function(id).class_name == config_.rng_type_name) {
          is_rng = true;
        }
      }
      // A draw is layout-dependent only when the stream is shared across
      // shards; a per-trial Rng inside a per-trial tree draws the same
      // sequence at any worker count.
      std::string rng_why;
      if (is_rng &&
          RootIsShared(fn, state.self_shared, state.root,
                       call.receiver_root, &rng_why)) {
        AddFinding(fd, LineAt(fd.line_offsets, t[call.token_index].offset),
                   "det-rng-substream",
                   "RNG draw inside a shard callback: shard boundaries "
                   "depend on the worker count, so per-shard draws change "
                   "results with threads; pre-draw into a buffer before the "
                   "parallel section (DESIGN.md §14)");
        continue;
      }
    }
    for (int id : targets) {
      const FunctionDef& target = model_.function(id);
      if (DetExempt(target.file) ||
          InScope(target.file, config_.parallel_exempt_prefixes)) {
        continue;  // sanctioned wrappers prove their own determinism
      }
      bool target_shared = state.self_shared;
      if (!call.receiver_root.empty()) {
        std::string why;
        target_shared = RootIsShared(fn, state.self_shared, state.root,
                                     call.receiver_root, &why);
        // A local pointer's provenance is unknown: under a shared context,
        // conservatively treat the pointee as shared; under a per-trial
        // tree it can only point within the trial.
        const FunctionDef* look = &fn;
        for (; look != nullptr;) {
          auto it = look->locals.find(call.receiver_root);
          if (it != look->locals.end()) {
            if (it->second.kind == DeclKind::kPointer) {
              target_shared = target_shared || state.self_shared;
            }
            break;
          }
          look = look->enclosing >= 0 ? &model_.function(look->enclosing)
                                      : nullptr;
        }
      }
      work->push_back({id, target_shared, state.root});
    }
  }
}

void Linter::CheckShardSafety() {
  std::vector<ShardState> work;
  for (const FunctionDef& fn : model_.functions()) {
    if (!InScope(fn.file, config_.flow_scope) || DetExempt(fn.file) ||
        InScope(fn.file, config_.parallel_exempt_prefixes)) {
      continue;
    }
    for (const CallSite& call : fn.calls) {
      if (!IsShardApiCall(config_.shard_api_names, call)) {
        continue;
      }
      for (int id : call.lambda_args) {
        work.push_back({id, /*self_shared=*/true, id});
      }
      for (const std::string& arg : call.ident_args) {
        const int id = FindNamedLambda(fn, arg);
        if (id >= 0) {
          work.push_back({id, /*self_shared=*/true, id});
        }
      }
    }
  }
  std::set<ShardState> visited;
  while (!work.empty()) {
    const ShardState state = work.back();
    work.pop_back();
    if (!visited.insert(state).second) {
      continue;
    }
    ScanShardFunction(state, &work);
  }
}

// det-rng-substream, construction half: fresh std engines anywhere, and
// project Rng objects constructed without a seed-derivation marker
// (SubstreamSeed / Fork / an identifier mentioning "seed").
void Linter::CheckRngDiscipline() {
  for (const auto& [path, fd] : files_) {
    if (!InScope(path, config_.flow_scope) || DetExempt(path)) {
      continue;
    }
    const std::vector<Token>& t = model_.tokens(path);
    for (size_t i = 0; i < t.size(); ++i) {
      if (!t[i].ident || !Contains(config_.rng_engine_names, t[i].text)) {
        continue;
      }
      if (i > 0 && (t[i - 1].text == "." ||
                    (i >= 2 && t[i - 1].text == ">" &&
                     t[i - 2].text == "-"))) {
        continue;  // member named like an engine, not std::
      }
      AddFinding(fd, LineAt(fd.line_offsets, t[i].offset),
                 "det-rng-substream",
                 "fresh std::" + t[i].text +
                     " engine: all randomness must flow from the experiment "
                     "seed through omega::Rng substreams "
                     "(src/common/random.h)");
    }
  }
  auto has_marker = [&](const std::vector<Token>& t, size_t begin,
                        size_t end) {
    for (size_t k = begin; k < end && k < t.size(); ++k) {
      if (!t[k].ident) {
        continue;
      }
      for (const std::string& m : config_.rng_seed_markers) {
        if (t[k].text.find(m) != std::string::npos) {
          return true;
        }
      }
    }
    return false;
  };
  for (const FunctionDef& fn : model_.functions()) {
    if (!InScope(fn.file, config_.flow_scope) || DetExempt(fn.file)) {
      continue;
    }
    auto file_it = files_.find(fn.file);
    if (file_it == files_.end()) {
      continue;
    }
    const FileData& fd = file_it->second;
    const std::vector<Token>& t = model_.tokens(fn.file);
    for (size_t i = fn.body_begin + 1;
         i + 1 < fn.body_end && i + 1 < t.size(); ++i) {
      if (!t[i].ident || t[i].text != config_.rng_type_name ||
          !t[i + 1].ident) {
        continue;
      }
      if (i + 2 >= t.size()) {
        continue;
      }
      const std::string& term = t[i + 2].text;
      bool seeded = true;
      size_t at = i;
      if (term == "(" || term == "{") {
        const size_t close = BalanceFwd(t, i + 2);
        seeded = close != std::string::npos && has_marker(t, i + 3, close);
      } else if (term == "=") {
        size_t semi = i + 3;
        while (semi < t.size() && t[semi].text != ";") {
          ++semi;
        }
        seeded = has_marker(t, i + 3, semi);
      } else if (term == ";") {
        seeded = false;
      } else {
        continue;  // `Rng&`, `Rng*`, template args, ...
      }
      if (!seeded) {
        AddFinding(fd, LineAt(fd.line_offsets, t[at].offset),
                   "det-rng-substream",
                   "Rng `" + t[i + 1].text +
                       "` constructed without a derived substream: seed it "
                       "via SubstreamSeed()/Fork() so streams are "
                       "independent of sweep order and thread count");
      }
    }
  }
}

// det-fp-unordered-acc: floating-point compound assignment inside a loop
// iterating an unordered container, and std::accumulate over one with an
// FP accumulator. Unordered iteration order differs across standard
// libraries, and FP addition does not commute in the last bits.
void Linter::CheckFpUnorderedAcc() {
  for (const auto& [path, fd] : files_) {
    if (!InScope(path, config_.flow_scope) || DetExempt(path)) {
      continue;
    }
    const std::vector<Token>& t = model_.tokens(path);
    auto span_mentions_unordered = [&](size_t begin, size_t end) {
      for (size_t k = begin; k < end && k < t.size(); ++k) {
        if (t[k].ident && unordered_vars_.count(t[k].text)) {
          return true;
        }
      }
      return false;
    };
    auto scan_body_for_fp_acc = [&](size_t begin, size_t end) {
      for (size_t k = begin; k < end && k < t.size(); ++k) {
        const std::string& s = t[k].text;
        const bool compound =
            s.size() == 1 &&
            std::string("+-*/").find(s) != std::string::npos &&
            AdjacentNext(t, k) && t[k + 1].text == "=";
        if (!compound) {
          continue;
        }
        bool designated = false;
        const size_t root = ChainRoot(t, k - 1, &designated);
        if (root == std::string::npos) {
          continue;
        }
        if (fp_vars_.count(t[root].text)) {
          AddFinding(fd, LineAt(fd.line_offsets, t[k].offset),
                     "det-fp-unordered-acc",
                     "floating-point accumulation into `" + t[root].text +
                         "` while iterating an unordered container: FP "
                         "addition is order-sensitive and unordered "
                         "iteration order is implementation-defined; "
                         "iterate a sorted view or accumulate per key");
        }
      }
    };
    for (size_t i = 0; i + 1 < t.size(); ++i) {
      if (t[i].text == "accumulate" && t[i + 1].text == "(") {
        const size_t close = BalanceFwd(t, i + 1);
        if (close == std::string::npos ||
            !span_mentions_unordered(i + 2, close)) {
          continue;
        }
        bool fp = false;
        for (size_t k = i + 2; k < close; ++k) {
          if (t[k].ident && fp_vars_.count(t[k].text)) {
            fp = true;
          }
          if (!t[k].ident &&
              std::isdigit(static_cast<unsigned char>(t[k].text[0])) &&
              t[k].text.find('.') != std::string::npos) {
            fp = true;
          }
        }
        if (fp) {
          AddFinding(fd, LineAt(fd.line_offsets, t[i].offset),
                     "det-fp-unordered-acc",
                     "std::accumulate with a floating-point accumulator "
                     "over an unordered container: the sum depends on "
                     "implementation-defined iteration order; sort the "
                     "range first");
        }
        continue;
      }
      if (t[i].text != "for" || t[i + 1].text != "(") {
        continue;
      }
      const size_t close = BalanceFwd(t, i + 1);
      if (close == std::string::npos) {
        continue;
      }
      // Find a top-level ':' (range-for) or ';' (classic for).
      int depth = 0;
      size_t colon = 0;
      bool classic = false;
      for (size_t j = i + 1; j < close; ++j) {
        const std::string& s = t[j].text;
        if (s == "(" || s == "[" || s == "{") {
          ++depth;
        } else if (s == ")" || s == "]" || s == "}") {
          --depth;
        } else if (s == ":" && depth == 1 && colon == 0) {
          const bool scope_op =
              (j + 1 < t.size() && t[j + 1].text == ":" &&
               AdjacentNext(t, j)) ||
              (t[j - 1].text == ":" && AdjacentPrev(t, j));
          if (!scope_op) {
            colon = j;
          }
        } else if (s == ";" && depth == 1) {
          classic = true;
        }
      }
      bool over_unordered = false;
      if (colon != 0 && !classic) {
        bool has_call = false;
        for (size_t j = colon + 1; j < close; ++j) {
          if (t[j].text == "(") {
            has_call = true;
          }
        }
        over_unordered = !has_call && span_mentions_unordered(colon + 1, close);
      } else if (classic) {
        bool begin_call = false;
        for (size_t j = i + 2; j < close; ++j) {
          if (t[j].ident &&
              (t[j].text == "begin" || t[j].text == "cbegin")) {
            begin_call = true;
          }
        }
        over_unordered =
            begin_call && span_mentions_unordered(i + 2, close);
      }
      if (!over_unordered) {
        continue;
      }
      size_t body_begin = close + 1;
      size_t body_end;
      if (body_begin < t.size() && t[body_begin].text == "{") {
        body_end = BalanceFwd(t, body_begin);
        if (body_end == std::string::npos) {
          continue;
        }
      } else {
        body_end = body_begin;
        while (body_end < t.size() && t[body_end].text != ";") {
          ++body_end;
        }
      }
      scan_body_for_fp_acc(body_begin, body_end);
    }
  }
}

// sim-dangling-capture: a lambda handed to a deferred-execution API
// (Simulator::ScheduleAt / ScheduleAfter) runs after the calling frame is
// gone; capturing stack locals by reference is a use-after-return.
void Linter::CheckDanglingCaptures() {
  auto check_lambda = [&](const FileData& fd, const std::vector<Token>& t,
                          const CallSite& call, const FunctionDef& owner,
                          const FunctionDef& lam) {
    const int line = LineAt(fd.line_offsets, t[call.token_index].offset);
    if (lam.lambda.default_ref) {
      AddFinding(fd, line, "sim-dangling-capture",
                 "lambda passed to " + call.callee +
                     "() captures by reference ([&]): the callback runs "
                     "after this frame returns; capture by value (or [this] "
                     "plus copies)");
      return;
    }
    for (const std::string& name : lam.lambda.ref_captures) {
      const LocalDecl* decl = nullptr;
      for (const FunctionDef* f = &owner;;) {
        auto it = f->locals.find(name);
        if (it != f->locals.end()) {
          decl = &it->second;
          break;
        }
        if (f->enclosing < 0) {
          break;
        }
        f = &model_.function(f->enclosing);
      }
      if (decl != nullptr && decl->kind != DeclKind::kRefNonLocal) {
        AddFinding(fd, line, "sim-dangling-capture",
                   "lambda passed to " + call.callee + "() captures local `" +
                       name +
                       "` by reference: the callback outlives the frame; "
                       "capture it by value");
      }
    }
  };
  for (const FunctionDef& fn : model_.functions()) {
    if (!InScope(fn.file, config_.flow_scope)) {
      continue;
    }
    auto file_it = files_.find(fn.file);
    if (file_it == files_.end()) {
      continue;
    }
    const FileData& fd = file_it->second;
    const std::vector<Token>& t = model_.tokens(fn.file);
    for (const CallSite& call : fn.calls) {
      if (!Contains(config_.deferred_apis, call.callee)) {
        continue;
      }
      for (int id : call.lambda_args) {
        check_lambda(fd, t, call, fn, model_.function(id));
      }
      for (const std::string& arg : call.ident_args) {
        const int id = FindNamedLambda(fn, arg);
        if (id >= 0) {
          const FunctionDef& lam = model_.function(id);
          check_lambda(fd, t, call,
                       lam.enclosing >= 0 ? model_.function(lam.enclosing)
                                          : fn,
                       lam);
        }
      }
    }
  }
}

}  // namespace omega_lint
