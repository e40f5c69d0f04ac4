// Fixture-driven tests for omega_lint (tools/lint). Each fixture directory
// under tests/lint_fixtures/ is a miniature repository root; positive
// fixtures must produce exactly the expected rule hits and negative fixtures
// none, so the linter's precision is pinned alongside its recall.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "tools/lint/linter.h"

namespace {

using omega_lint::Config;
using omega_lint::Finding;
using omega_lint::Linter;

std::string FixtureRoot(const std::string& name) {
  return std::string(OMEGA_LINT_FIXTURES_DIR) + "/" + name;
}

std::vector<Finding> RunOn(const std::string& fixture,
                           bool with_layers = false) {
  Config config;
  if (with_layers) {
    std::string error;
    EXPECT_TRUE(omega_lint::ParseLayersFile(
        FixtureRoot(fixture) + "/layers.conf", &config, &error))
        << error;
  }
  Linter linter(FixtureRoot(fixture), config);
  EXPECT_TRUE(linter.Run());
  EXPECT_TRUE(linter.errors().empty());
  return linter.findings();
}

int CountRule(const std::vector<Finding>& findings, const std::string& rule) {
  return static_cast<int>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

bool HasFinding(const std::vector<Finding>& findings, const std::string& rule,
                const std::string& file) {
  return std::any_of(findings.begin(), findings.end(), [&](const Finding& f) {
    return f.rule == rule && f.file == file;
  });
}

int CountFile(const std::vector<Finding>& findings, const std::string& file) {
  return static_cast<int>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.file == file; }));
}

bool HasFindingAt(const std::vector<Finding>& findings, const std::string& rule,
                  const std::string& file, int line) {
  return std::any_of(findings.begin(), findings.end(), [&](const Finding& f) {
    return f.rule == rule && f.file == file && f.line == line;
  });
}

TEST(LintDeterminism, FlagsEntropyApis) {
  const auto findings = RunOn("det");
  EXPECT_EQ(CountRule(findings, "det-rand"), 4);  // rd, srand, rand, test rand
  EXPECT_TRUE(HasFinding(findings, "det-rand", "src/bad_rand.cc"));
  EXPECT_TRUE(HasFinding(findings, "det-rand", "tests/test_entropy.cc"));
}

TEST(LintDeterminism, FlagsWallClockApis) {
  const auto findings = RunOn("det");
  // time(), system_clock, high_resolution_clock, clock().
  EXPECT_EQ(CountRule(findings, "det-wallclock"), 4);
  EXPECT_TRUE(HasFinding(findings, "det-wallclock", "src/bad_clock.cc"));
}

TEST(LintDeterminism, FlagsBuildTimeMacros) {
  const auto findings = RunOn("det");
  EXPECT_EQ(CountRule(findings, "det-time-macro"), 2);  // __DATE__, __TIME__
  EXPECT_TRUE(HasFinding(findings, "det-time-macro", "src/bad_macro.cc"));
}

TEST(LintDeterminism, CleanFileMemberCallsCommentsAndStringsAreIgnored) {
  const auto findings = RunOn("det");
  EXPECT_EQ(CountFile(findings, "src/clean.cc"), 0);
}

TEST(LintDeterminism, BlessedRandomWrapperIsExempt) {
  const auto findings = RunOn("det");
  EXPECT_EQ(CountFile(findings, "src/common/random.h"), 0);
}

TEST(LintSuppression, SameLineAndPreviousLineFormsSilenceFindings) {
  const auto findings = RunOn("det");
  EXPECT_EQ(CountFile(findings, "src/suppressed.cc"), 0);
}

TEST(LintUnorderedIteration, FlagsRangeForIteratorAndAliasForms) {
  const auto findings = RunOn("unordered");
  EXPECT_EQ(CountRule(findings, "det-unordered-iter"), 3);
  // Each of the three unordered loops accumulates FP, so the v2 FP rule
  // fires alongside each iteration finding.
  EXPECT_EQ(CountRule(findings, "det-fp-unordered-acc"), 3);
  EXPECT_EQ(CountFile(findings, "src/iter_bad.cc"), 6);
}

TEST(LintUnorderedIteration, LookupsAndOrderedContainersAreClean) {
  const auto findings = RunOn("unordered");
  EXPECT_EQ(CountFile(findings, "src/iter_ok.cc"), 0);
}

TEST(LintUnorderedIteration, TestsDirectoryIsOutOfScope) {
  const auto findings = RunOn("unordered");
  EXPECT_EQ(CountFile(findings, "tests/iter_in_tests_ok.cc"), 0);
}

TEST(LintParallel, FlagsRawPrimitivesInSimulatorCode) {
  const auto findings = RunOn("parallel");
  // 3 include lines + mutex/atomic/thread_local decls + thread + cv.
  EXPECT_EQ(CountRule(findings, "det-parallel-reduce"), 8);
  EXPECT_EQ(CountFile(findings, "src/bad_parallel.cc"), 8);
}

TEST(LintParallel, MemberAccessCommentsAndStringsAreClean) {
  const auto findings = RunOn("parallel");
  EXPECT_EQ(CountFile(findings, "src/clean_parallel.cc"), 0);
}

TEST(LintParallel, SuppressionsSilenceTheRule) {
  const auto findings = RunOn("parallel");
  EXPECT_EQ(CountFile(findings, "src/suppressed_parallel.cc"), 0);
}

TEST(LintParallel, CommonWrappersAreExemptAndJustifiedToolsStayClean) {
  const auto findings = RunOn("parallel");
  EXPECT_EQ(CountFile(findings, "src/common/pool_impl.cc"), 0);
  // tools/ is in scope since v2; the fixture tool carries an allow() with a
  // one-line justification, so it produces no findings.
  EXPECT_EQ(CountFile(findings, "tools/tool_thread_ok.cc"), 0);
}

TEST(LintLayering, RejectsSeededUpwardInclude) {
  const auto findings = RunOn("layers", /*with_layers=*/true);
  EXPECT_EQ(CountRule(findings, "layer-order"), 1);
  EXPECT_TRUE(HasFinding(findings, "layer-order", "src/lo/bad_upward.h"));
  // The downward edge hi -> lo is legal.
  EXPECT_EQ(CountFile(findings, "src/hi/top.h"), 0);
}

TEST(LintLayering, DetectsIncludeCycleBetweenEqualRankPeers) {
  const auto findings = RunOn("cycle", /*with_layers=*/true);
  EXPECT_EQ(CountRule(findings, "layer-order"), 0);  // equal rank: not upward
  EXPECT_GE(CountRule(findings, "layer-cycle"), 1);
  const auto it = std::find_if(
      findings.begin(), findings.end(),
      [](const Finding& f) { return f.rule == "layer-cycle"; });
  ASSERT_NE(it, findings.end());
  EXPECT_NE(it->message.find("src/a/a.h"), std::string::npos);
  EXPECT_NE(it->message.find("src/b/b.h"), std::string::npos);
}

TEST(LintLayering, MalformedLayersFileIsRejected) {
  Config config;
  std::string error;
  const std::string path =
      testing::TempDir() + "/omega_lint_bad_layers.conf";
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("layer missing_rank\n", f);
  fclose(f);
  EXPECT_FALSE(omega_lint::ParseLayersFile(path, &config, &error));
  EXPECT_NE(error.find("expected"), std::string::npos);
  std::remove(path.c_str());
}

TEST(LintHygiene, HeaderWithoutPragmaOnceIsFlagged) {
  const auto findings = RunOn("hygiene");
  EXPECT_EQ(CountRule(findings, "hygiene-pragma-once"), 1);
  EXPECT_TRUE(
      HasFinding(findings, "hygiene-pragma-once", "src/no_pragma.h"));
}

TEST(LintHygiene, UsingNamespaceFlaggedInHeadersOnly) {
  const auto findings = RunOn("hygiene");
  EXPECT_EQ(CountRule(findings, "hygiene-using-namespace"), 1);
  EXPECT_TRUE(
      HasFinding(findings, "hygiene-using-namespace", "src/using_ns.h"));
  EXPECT_EQ(CountFile(findings, "src/using_ns_ok.cc"), 0);
}

TEST(LintHygiene, MutableNamespaceScopeVariablesFlagged) {
  const auto findings = RunOn("hygiene");
  EXPECT_EQ(CountRule(findings, "hygiene-nonconst-global"), 2);
  EXPECT_EQ(CountFile(findings, "src/globals_bad.h"), 2);
}

TEST(LintHygiene, ConstantsClassesAndFunctionLocalsAreClean) {
  const auto findings = RunOn("hygiene");
  EXPECT_EQ(CountFile(findings, "src/good.h"), 0);
}

TEST(LintShardSafety, FlagsMemberCaptureAndRawBufferWrites) {
  const auto findings = RunOn("shard");
  // shard_bad.cc: member write via reached method, by-ref capture of a
  // launching-frame local, a raw (non-ShardSlots) vector capture, and a
  // write through a range-for pointer into the launching frame.
  EXPECT_EQ(CountFile(findings, "src/shard_bad.cc"), 4);
  EXPECT_TRUE(HasFindingAt(findings, "det-shard-unsafe-write",
                           "src/shard_bad.cc", 10));  // Accum::Bump total_
  EXPECT_TRUE(HasFindingAt(findings, "det-shard-unsafe-write",
                           "src/shard_bad.cc", 19));  // shared_counter += 1
  EXPECT_TRUE(HasFindingAt(findings, "det-shard-unsafe-write",
                           "src/shard_bad.cc", 21));  // out[i] = 1.0
  // `for (Tally* t : {&shared})`: a pointer loop variable is classified by
  // the root of its range, like a reference.
  EXPECT_TRUE(HasFindingAt(findings, "det-shard-unsafe-write",
                           "src/shard_bad.cc", 33));  // t->hits += i
}

TEST(LintShardSafety, CallGraphEdgeCases) {
  const auto findings = RunOn("shard");
  // Overload widening: the receiverless Touch() call must reach the int
  // overload's global write even though the double overload is also viable.
  EXPECT_TRUE(HasFindingAt(findings, "det-shard-unsafe-write",
                           "src/edges.cc", 11));
  // Virtual dispatch: Base* -> Derived::Apply's member write.
  EXPECT_TRUE(HasFindingAt(findings, "det-shard-unsafe-write",
                           "src/edges.cc", 20));
  // SweepRunner::Run trial lambdas are shard roots like ParallelFor's.
  EXPECT_TRUE(HasFindingAt(findings, "det-shard-unsafe-write",
                           "src/edges.cc", 54));
  // Recursion (CountDown) terminates the worklist and stays clean, and a Run
  // method on any other receiver type is not a root: the only edges.cc
  // findings are the three pinned above.
  EXPECT_EQ(CountFile(findings, "src/edges.cc"), 3);
}

// shard_ok.cc also holds a SweepRunner trial that returns its row and writes
// trial-local configs through `for (Config* c : {&batch, &service})`.
TEST(LintShardSafety, ShardSlotsFrameLocalsAndPerTrialObjectsAreClean) {
  const auto findings = RunOn("shard");
  EXPECT_EQ(CountFile(findings, "src/shard_ok.cc"), 0);
}

TEST(LintShardSafety, SuppressionSilencesTheRule) {
  const auto findings = RunOn("shard");
  EXPECT_EQ(CountFile(findings, "src/shard_suppressed.cc"), 0);
}

TEST(LintRngSubstream, FlagsFreshEnginesUnseededRngAndSharedShardDraws) {
  const auto findings = RunOn("rng");
  EXPECT_EQ(CountRule(findings, "det-rng-substream"), 3);
  EXPECT_TRUE(HasFindingAt(findings, "det-rng-substream",
                           "src/rng_bad.cc", 9));   // std::mt19937 gen(42)
  EXPECT_TRUE(HasFindingAt(findings, "det-rng-substream",
                           "src/rng_bad.cc", 14));  // Rng r(12345)
  EXPECT_TRUE(HasFindingAt(findings, "det-rng-substream",
                           "src/rng_bad.cc", 22));  // shared draw in shard
}

TEST(LintRngSubstream, SubstreamSeedsAndPerShardEnginesAreClean) {
  const auto findings = RunOn("rng");
  EXPECT_EQ(CountFile(findings, "src/rng_ok.cc"), 0);
}

TEST(LintRngSubstream, SuppressionSilencesTheRule) {
  const auto findings = RunOn("rng");
  EXPECT_EQ(CountFile(findings, "src/rng_suppressed.cc"), 0);
}

TEST(LintFpUnorderedAcc, FlagsRangeForAndAccumulateForms) {
  const auto findings = RunOn("fpacc");
  EXPECT_EQ(CountRule(findings, "det-fp-unordered-acc"), 2);
  EXPECT_TRUE(HasFindingAt(findings, "det-fp-unordered-acc",
                           "src/fp_bad.cc", 13));  // total += kv.second
  EXPECT_TRUE(HasFindingAt(findings, "det-fp-unordered-acc",
                           "src/fp_bad.cc", 20));  // std::accumulate 0.0
}

TEST(LintFpUnorderedAcc, OrderedContainersAndIntegerAccumulationAreClean) {
  // fp_ok.cc: FP += over std::map and integer += over unordered_map —
  // neither is order-sensitive, so the file is entirely clean.
  const auto findings = RunOn("fpacc");
  EXPECT_EQ(CountFile(findings, "src/fp_ok.cc"), 0);
}

TEST(LintFpUnorderedAcc, SuppressionSilencesTheRule) {
  const auto findings = RunOn("fpacc");
  EXPECT_EQ(CountFile(findings, "src/fp_suppressed.cc"), 0);
}

TEST(LintDanglingCapture, FlagsNamedRefAndDefaultRefCaptures) {
  const auto findings = RunOn("dangling");
  EXPECT_EQ(CountRule(findings, "sim-dangling-capture"), 2);
  EXPECT_TRUE(HasFindingAt(findings, "sim-dangling-capture",
                           "src/dangling_bad.cc", 9));   // [&count]
  EXPECT_TRUE(HasFindingAt(findings, "sim-dangling-capture",
                           "src/dangling_bad.cc", 14));  // [&]
}

TEST(LintDanglingCapture, ByValueAndCallerOwnedReferencesAreClean) {
  const auto findings = RunOn("dangling");
  EXPECT_EQ(CountFile(findings, "src/dangling_ok.cc"), 0);
}

TEST(LintDanglingCapture, SuppressionSilencesTheRule) {
  const auto findings = RunOn("dangling");
  EXPECT_EQ(CountFile(findings, "src/dangling_suppressed.cc"), 0);
}

// Seeded-mutation check: start from a clean shard pattern, flip the sanctioned
// ShardSlots write into a raw captured-vector write, and assert the linter
// catches exactly that regression. Guards against the flow rules silently
// losing recall.
TEST(LintMutation, SeededShardWriteMutationIsCaught) {
  namespace fs = std::filesystem;
  const fs::path root = fs::path(testing::TempDir()) / "omega_lint_mutation";
  fs::remove_all(root);
  fs::create_directories(root / "src");
  const fs::path file = root / "src" / "mut.cc";

  const std::string clean =
      "#include <cstddef>\n"
      "#include <vector>\n"
      "namespace omega {\n"
      "void Fill() {\n"
      "  std::vector<double> out(8, 0.0);\n"
      "  ShardSlots<double> slots(out);\n"
      "  ParallelFor(8, [&](size_t i) {\n"
      "    slots[i] = 1.0;\n"
      "  });\n"
      "}\n"
      "}  // namespace omega\n";
  {
    std::ofstream os(file);
    os << clean;
  }
  Config config;
  Linter before(root.string(), config);
  ASSERT_TRUE(before.Run());
  EXPECT_TRUE(before.findings().empty());

  // The mutation: bypass the per-shard view and write the shared buffer.
  std::string mutated = clean;
  const auto pos = mutated.find("slots[i] = 1.0;");
  ASSERT_NE(pos, std::string::npos);
  mutated.replace(pos, 5, "  out");
  {
    std::ofstream os(file);
    os << mutated;
  }
  Linter after(root.string(), config);
  ASSERT_TRUE(after.Run());
  ASSERT_EQ(after.findings().size(), 1u);
  EXPECT_EQ(after.findings().front().rule, "det-shard-unsafe-write");
  EXPECT_EQ(after.findings().front().file, "src/mut.cc");
  fs::remove_all(root);
}

TEST(LintBaseline, RoundTripSilencesAndReexposesFindings) {
  Config config;
  Linter linter(FixtureRoot("det"), config);
  ASSERT_TRUE(linter.Run());
  ASSERT_FALSE(linter.findings().empty());

  const std::string path = testing::TempDir() + "/omega_lint_baseline.txt";
  ASSERT_TRUE(omega_lint::WriteBaseline(path, linter.findings()));
  auto baseline = omega_lint::LoadBaseline(path);
  EXPECT_EQ(baseline.size(), linter.findings().size());

  // Full baseline: nothing un-baselined remains.
  EXPECT_TRUE(
      omega_lint::FilterBaselined(linter.findings(), baseline).empty());

  // Dropping one entry re-exposes exactly that finding.
  const std::string dropped = linter.findings().front().Key();
  baseline.erase(dropped);
  const auto fresh = omega_lint::FilterBaselined(linter.findings(), baseline);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh.front().Key(), dropped);
  std::remove(path.c_str());
}

TEST(LintCatalogue, EveryRuleIdHasFixtureCoverage) {
  std::set<std::string> seen;
  for (const auto& f : RunOn("det")) seen.insert(f.rule);
  for (const auto& f : RunOn("unordered")) seen.insert(f.rule);
  for (const auto& f : RunOn("parallel")) seen.insert(f.rule);
  for (const auto& f : RunOn("layers", true)) seen.insert(f.rule);
  for (const auto& f : RunOn("cycle", true)) seen.insert(f.rule);
  for (const auto& f : RunOn("hygiene")) seen.insert(f.rule);
  for (const auto& f : RunOn("shard")) seen.insert(f.rule);
  for (const auto& f : RunOn("rng")) seen.insert(f.rule);
  for (const auto& f : RunOn("fpacc")) seen.insert(f.rule);
  for (const auto& f : RunOn("dangling")) seen.insert(f.rule);
  for (const std::string& id : omega_lint::AllRuleIds()) {
    EXPECT_TRUE(seen.count(id)) << "no fixture produces rule " << id;
  }
  EXPECT_EQ(seen.size(), omega_lint::AllRuleIds().size());
}

TEST(LintOutput, FindingsAreDeterministicAcrossRuns) {
  const auto a = RunOn("det");
  const auto b = RunOn("det");
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].Key(), b[i].Key());
    EXPECT_EQ(a[i].message, b[i].message);
  }
}

TEST(LintOutput, FlowAnalysisIsDeterministicAcrossRuns) {
  // The flow rules run a worklist over hash-keyed tables; pin that their
  // output order and content are byte-identical run to run.
  const auto a = RunOn("shard");
  const auto b = RunOn("shard");
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].Key(), b[i].Key());
    EXPECT_EQ(a[i].message, b[i].message);
  }
}

}  // namespace
