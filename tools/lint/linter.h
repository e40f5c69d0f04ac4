// omega_lint: project-specific static analysis for determinism, layering,
// and header hygiene.
//
// The reproduction's headline claim is bit-identical determinism (the figure
// sweeps produce the same bytes for any thread count), and its architecture
// depends on a strict layer order (obs above the four scheduler
// architectures, which sit above sim/cluster/common). Neither property is
// visible to the compiler: one `rand()` call, one range-for over a
// `std::unordered_map` feeding ordered output, or one upward `#include`
// silently breaks them. This linter makes those invariants machine-checked.
//
// It is a lightweight tokenizer/scanner (no libclang): comments and string
// literals are stripped, identifiers are matched exactly, declarations of
// unordered containers are tracked by name, and `#include` edges are checked
// against a declared layer DAG. Findings are suppressible with an inline
// `// omega-lint: allow(<rule>)` comment (same line or the line above) or via
// a checked-in baseline file; any un-baselined finding fails the build.
//
// Rule catalogue (see DESIGN.md §9 and §14 for rationale):
//   det-rand              rand()/srand()/std::random_device/...
//   det-wallclock         time()/clock()/system_clock/high_resolution_clock
//   det-time-macro        __DATE__/__TIME__/__TIMESTAMP__
//   det-unordered-iter    iteration over std::unordered_{map,set,...}
//   det-parallel-reduce   raw concurrency primitives outside src/common/
//   layer-order           #include pointing to a higher-ranked layer
//   layer-cycle           cycle in the project #include graph
//   hygiene-pragma-once   header without #pragma once
//   hygiene-using-namespace  `using namespace` at header scope
//   hygiene-nonconst-global  mutable namespace-scope variable in a header
//
// v2 flow-aware rules, built on the whole-project call-graph model
// (tools/lint/model.h, DESIGN.md §14):
//   det-shard-unsafe-write   a function transitively reachable from a
//                            ParallelFor callback or a SweepRunner::Run
//                            trial function (a shard callback) writes a
//                            member field, a global, or a by-reference
//                            capture of a frame outside the shard, except
//                            through an allowlisted per-shard scratch type
//                            (ShardSlots)
//   det-rng-substream        fresh RNG engine construction/seeding outside
//                            src/common/random, or any RNG draw inside
//                            shard-parallel code (shard layout depends on
//                            thread count, so even a per-shard stream breaks
//                            bit-identicality)
//   det-fp-unordered-acc     floating-point +=/accumulate inside a loop
//                            iterating an unordered container (type-aware
//                            successor to det-unordered-iter)
//   sim-dangling-capture     a lambda handed to a Simulator deferred-
//                            execution API captures stack locals by
//                            reference; the callback outlives the frame
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "tools/lint/model.h"

namespace omega_lint {

// Every rule ID the linter can emit, for --list-rules and the test suite.
const std::vector<std::string>& AllRuleIds();

struct Finding {
  std::string file;  // path relative to the scan root, '/'-separated
  int line = 0;      // 1-based
  std::string rule;
  std::string message;

  // Stable identity used by the baseline file: "<file>:<line>:<rule>".
  std::string Key() const;
};

struct Layer {
  std::string name;
  int rank = 0;
  std::string prefix;  // root-relative directory prefix, e.g. "src/common/"
};

struct Config {
  // The declared layer DAG. An include edge from layer A to layer B is legal
  // iff rank(B) <= rank(A); equal ranks express "peer" subsystems (the four
  // scheduler architectures), and the cycle check keeps peers honest.
  std::vector<Layer> layers;

  // Directories (relative to root) walked by Run().
  std::vector<std::string> scan_dirs = {"src", "tools", "bench", "examples",
                                        "tests"};
  // Any path containing one of these substrings is skipped (lint fixtures
  // contain violations on purpose).
  std::vector<std::string> exclude_substrings = {"tests/lint_fixtures/"};

  // Scope of the determinism banned-API rules (det-rand, det-wallclock,
  // det-time-macro): everywhere, including tests — a test that reads ambient
  // entropy or wall time is flaky by construction. Timing of *real* work
  // uses steady_clock, which is not banned.
  std::vector<std::string> det_scope = {"src/", "bench/", "examples/",
                                        "tools/", "tests/"};
  // Scope of det-unordered-iter: simulator, bench, and tool code. Tests may
  // iterate unordered containers to assert set-equality.
  std::vector<std::string> unordered_iter_scope = {"src/", "bench/",
                                                   "tools/"};
  // Files exempt from all determinism rules: the one blessed entropy wrapper.
  std::vector<std::string> det_exempt_files = {"src/common/random.h",
                                               "src/common/random.cc"};

  // Scope of det-parallel-reduce: simulator code. Raw concurrency primitives
  // (std::thread, std::mutex, std::atomic, ...) in scheduler/placement logic
  // can order results by thread timing, breaking the bit-identical-at-any-
  // thread-count guarantee; all parallelism must go through the sanctioned
  // wrapper, ParallelFor, which lives under the exempt prefixes below
  // (DESIGN.md §12); SweepRunner is built on it. Tests may use
  // primitives directly; bench/tool code needs an inline allow() with a
  // justification.
  std::vector<std::string> parallel_scope = {"src/", "bench/", "tools/"};
  std::vector<std::string> parallel_exempt_prefixes = {"src/common/"};

  // --- v2 whole-project flow rules (DESIGN.md §14) ---

  // Files fed to the call-graph model and scanned by the flow rules.
  std::vector<std::string> flow_scope = {"src/", "bench/", "tools/"};

  // Calls whose lambda (or named-lambda) arguments run as shard callbacks on
  // worker threads: ParallelFor, and the trial function of SweepRunner::Run
  // (a "Class::method" entry matches by the receiver's declared type).
  std::vector<std::string> shard_api_names = {"ParallelFor",
                                              "SweepRunner::Run"};
  // Types through which per-shard writes are sanctioned: a ShardSlots view
  // asserts disjoint per-index slots (src/common/parallel_for.h).
  std::vector<std::string> shard_scratch_types = {"ShardSlots"};
  // std:: container methods that mutate the receiver; calling one on a
  // shared receiver from shard-reachable code is a write.
  std::vector<std::string> mutating_methods = {
      "push_back", "pop_back",      "emplace_back", "emplace_front",
      "push_front", "pop_front",    "emplace",      "insert",
      "erase",      "clear",        "resize",       "assign",
      "reserve",    "swap",         "push",         "pop",
      "merge",      "extract",      "fill",         "sort",
      "splice",     "remove",       "shrink_to_fit"};

  // det-rng-substream: std engines are banned outside src/common/random;
  // project Rng construction must mention a seed-derivation marker.
  std::vector<std::string> rng_engine_names = {
      "mt19937",      "mt19937_64",   "minstd_rand", "minstd_rand0",
      "ranlux24",     "ranlux48",     "ranlux24_base", "ranlux48_base",
      "knuth_b",      "default_random_engine"};
  std::string rng_type_name = "Rng";
  std::vector<std::string> rng_seed_markers = {"SubstreamSeed", "Fork",
                                               "seed", "Seed"};
  std::vector<std::string> rng_draw_methods = {"Next", "NextDouble",
                                               "NextBounded", "NextRange",
                                               "NextBool", "Fork"};

  // sim-dangling-capture: deferred-execution APIs whose callbacks outlive
  // the calling frame.
  std::vector<std::string> deferred_apis = {"ScheduleAt", "ScheduleAfter"};
};

// Parses a layers.conf file into config->layers. Format, one layer per line:
//   layer <name> <rank> <path-prefix>
// '#' starts a comment; blank lines are ignored. Returns false and sets
// *error on malformed input.
bool ParseLayersFile(const std::string& path, Config* config,
                     std::string* error);

class Linter {
 public:
  Linter(std::string root, Config config);

  // Walks config.scan_dirs under root, lints every *.h/*.cc file, and runs
  // the whole-tree passes (unordered-declaration registry, include-cycle
  // detection). Returns false if a scan dir cannot be read.
  bool Run();

  // Findings sorted by (file, line, rule); deterministic across runs.
  const std::vector<Finding>& findings() const { return findings_; }

  // IO errors encountered while scanning (unreadable file, bad root).
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  struct FileData {
    std::string rel_path;
    // Original text with comments blanked, strings preserved (for #include
    // parsing).
    std::string code;
    // As above, but with string literals blanked too (for token scanning).
    std::string code_nostrings;
    // Line -> rules allowed by an `omega-lint: allow(...)` comment on it.
    std::map<int, std::set<std::string>> suppressions;
    std::vector<size_t> line_offsets;  // offset of each line start
  };

  void LoadFile(const std::string& rel_path, const std::string& content);
  void CollectUnorderedDecls(const FileData& f);
  void CollectFpDecls(const FileData& f);
  void LintFile(const FileData& f);
  void CheckBannedIdentifiers(const FileData& f);
  void CheckParallelPrimitives(const FileData& f);
  void CheckUnorderedIteration(const FileData& f);
  void CheckHeaderHygiene(const FileData& f);
  void CheckNonConstGlobals(const FileData& f);
  void CheckLayerOrder(const FileData& f);
  void CheckIncludeCycles();
  void Finish();  // whole-tree passes + sort/suppress

  // v2 flow rules over the whole-project model (tools/lint/flow_rules.cc).
  void BuildModel();
  void CheckShardSafety();
  void CheckRngDiscipline();
  void CheckFpUnorderedAcc();
  void CheckDanglingCaptures();
  // Scans one shard-reachable function for unsafe writes and RNG draws;
  // appends newly reachable (callee, shared-self) states to the worklist.
  struct ShardState {
    int fn = -1;
    bool self_shared = true;
    int root = -1;  // the shard callback this traversal started from
    bool operator<(const ShardState& o) const {
      if (fn != o.fn) return fn < o.fn;
      if (self_shared != o.self_shared) return self_shared < o.self_shared;
      return root < o.root;
    }
  };
  void ScanShardFunction(const ShardState& state,
                         std::vector<ShardState>* work);
  // True if a write through `root` from `fn` lands in state shared across
  // shard invocations; *why describes the storage class for the message.
  bool RootIsShared(const FunctionDef& fn, bool self_shared, int shard_root,
                    const std::string& root, std::string* why) const;
  bool IsScratchType(const std::string& type) const;
  int FindNamedLambda(const FunctionDef& fn, const std::string& name) const;

  void AddFinding(const FileData& f, int line, const std::string& rule,
                  const std::string& message);
  const Layer* LayerFor(const std::string& rel_path) const;
  bool InScope(const std::string& rel_path,
               const std::vector<std::string>& prefixes) const;
  bool DetExempt(const std::string& rel_path) const;

  std::string root_;
  Config config_;
  std::map<std::string, FileData> files_;  // rel_path -> data (sorted)
  // Identifiers declared anywhere in unordered_iter_scope with an unordered
  // container type (variable and member names, plus alias-typed variables).
  std::set<std::string> unordered_vars_;
  // Type-alias names bound to unordered containers (`using X = ...`).
  std::set<std::string> unordered_types_;
  // Identifiers declared with double/float anywhere in flow_scope (locals,
  // params, members) — the accumulation targets of det-fp-unordered-acc.
  std::set<std::string> fp_vars_;
  // Whole-project syntactic model backing the flow rules.
  ProjectModel model_;
  // rel_path -> (line, included rel_path) for project-local includes.
  std::map<std::string, std::vector<std::pair<int, std::string>>> includes_;
  std::vector<Finding> findings_;
  std::vector<std::string> errors_;
};

// Baseline file: one Finding::Key() per line; '#' comments and blank lines
// ignored. A missing file is an empty baseline.
std::set<std::string> LoadBaseline(const std::string& path);
bool WriteBaseline(const std::string& path, const std::vector<Finding>& all);

// Findings whose Key() is not in the baseline.
std::vector<Finding> FilterBaselined(const std::vector<Finding>& all,
                                     const std::set<std::string>& baseline);

}  // namespace omega_lint
