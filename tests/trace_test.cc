#include "src/workload/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "src/workload/cluster_config.h"
#include "src/workload/generator.h"

namespace omega {
namespace {

std::vector<Job> SampleJobs() {
  GeneratorOptions opts;
  opts.generate_constraints = true;
  opts.generate_mapreduce_specs = true;
  ClusterConfig cfg = TestCluster();
  cfg.mapreduce_fraction = 0.4;
  cfg.batch_constrained_fraction = 0.4;
  cfg.service_constrained_fraction = 0.6;
  WorkloadGenerator gen(cfg, opts, 31);
  return gen.GenerateArrivals(Duration::FromHours(6));
}

void ExpectJobsEqual(const std::vector<Job>& a, const std::vector<Job>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].type, b[i].type);
    EXPECT_EQ(a[i].submit_time, b[i].submit_time);
    EXPECT_EQ(a[i].num_tasks, b[i].num_tasks);
    EXPECT_EQ(a[i].task_duration, b[i].task_duration);
    EXPECT_DOUBLE_EQ(a[i].task_resources.cpus, b[i].task_resources.cpus);
    EXPECT_DOUBLE_EQ(a[i].task_resources.mem_gb, b[i].task_resources.mem_gb);
    EXPECT_EQ(a[i].constraints, b[i].constraints);
    EXPECT_EQ(a[i].mapreduce, b[i].mapreduce);
  }
}

TEST(TraceTest, RoundTripPreservesEverything) {
  const std::vector<Job> jobs = SampleJobs();
  ASSERT_FALSE(jobs.empty());
  std::stringstream ss;
  WriteTrace(jobs, ss);
  std::vector<Job> parsed;
  std::string error;
  ASSERT_TRUE(ReadTrace(ss, &parsed, &error)) << error;
  ExpectJobsEqual(jobs, parsed);
}

TEST(TraceTest, FileRoundTrip) {
  const std::vector<Job> jobs = SampleJobs();
  const std::string path = ::testing::TempDir() + "/trace_test.trace";
  ASSERT_TRUE(WriteTraceFile(jobs, path));
  std::vector<Job> parsed;
  std::string error;
  ASSERT_TRUE(ReadTraceFile(path, &parsed, &error)) << error;
  ExpectJobsEqual(jobs, parsed);
  std::remove(path.c_str());
}

TEST(TraceTest, WriterSortsBySubmitTime) {
  std::vector<Job> jobs(2);
  jobs[0].id = 1;
  jobs[0].submit_time = SimTime::FromSeconds(100);
  jobs[0].num_tasks = 1;
  jobs[1].id = 2;
  jobs[1].submit_time = SimTime::FromSeconds(5);
  jobs[1].num_tasks = 1;
  std::stringstream ss;
  WriteTrace(jobs, ss);
  std::vector<Job> parsed;
  ASSERT_TRUE(ReadTrace(ss, &parsed, nullptr));
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].id, 2u);
  EXPECT_EQ(parsed[1].id, 1u);
}

TEST(TraceTest, CommentsAndBlankLinesIgnored) {
  std::stringstream ss(
      "# a comment\n"
      "\n"
      "job 7 batch 1000 3 2000000 0.5 1.5\n"
      "# trailing comment\n");
  std::vector<Job> parsed;
  std::string error;
  ASSERT_TRUE(ReadTrace(ss, &parsed, &error)) << error;
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].id, 7u);
  EXPECT_EQ(parsed[0].type, JobType::kBatch);
  EXPECT_EQ(parsed[0].submit_time, SimTime(1000));
  EXPECT_EQ(parsed[0].num_tasks, 3u);
  EXPECT_EQ(parsed[0].task_duration, Duration(2000000));
}

TEST(TraceTest, RejectsMalformedJob) {
  std::stringstream ss("job 1 batch not_a_number\n");
  std::vector<Job> parsed;
  std::string error;
  EXPECT_FALSE(ReadTrace(ss, &parsed, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos);
}

TEST(TraceTest, RejectsUnknownJobType) {
  std::stringstream ss("job 1 gpu 0 1 1 1 1\n");
  std::vector<Job> parsed;
  std::string error;
  EXPECT_FALSE(ReadTrace(ss, &parsed, &error));
  EXPECT_NE(error.find("unknown job type"), std::string::npos);
}

TEST(TraceTest, RejectsDuplicateJobId) {
  std::stringstream ss(
      "job 1 batch 0 1 1 1 1\n"
      "job 1 batch 5 1 1 1 1\n");
  std::vector<Job> parsed;
  std::string error;
  EXPECT_FALSE(ReadTrace(ss, &parsed, &error));
  EXPECT_NE(error.find("duplicate"), std::string::npos);
}

TEST(TraceTest, RejectsConstraintForUnknownJob) {
  std::stringstream ss("constraint 99 0 1 eq\n");
  std::vector<Job> parsed;
  std::string error;
  EXPECT_FALSE(ReadTrace(ss, &parsed, &error));
  EXPECT_NE(error.find("unknown job"), std::string::npos);
}

TEST(TraceTest, RejectsUnknownRecordKind) {
  std::stringstream ss("frobnicate 1 2 3\n");
  std::vector<Job> parsed;
  std::string error;
  EXPECT_FALSE(ReadTrace(ss, &parsed, &error));
  EXPECT_NE(error.find("unknown record kind"), std::string::npos);
}

TEST(TraceTest, RejectsBadConstraintComparator) {
  std::stringstream ss(
      "job 1 batch 0 1 1 1 1\n"
      "constraint 1 0 1 maybe\n");
  std::vector<Job> parsed;
  std::string error;
  EXPECT_FALSE(ReadTrace(ss, &parsed, &error));
}

// Parses `text`, expecting rejection with an error naming `line`.
void ExpectRejected(const std::string& text, int line) {
  std::stringstream ss(text);
  std::vector<Job> parsed;
  std::string error;
  EXPECT_FALSE(ReadTrace(ss, &parsed, &error)) << text;
  EXPECT_NE(error.find("line " + std::to_string(line)), std::string::npos)
      << text << " -> " << error;
}

TEST(TraceTest, RejectsTaskCountOutsideUint32Range) {
  // "-5" used to wrap to 4,294,967,291 tasks.
  ExpectRejected("job 1 batch 0 -5 1000000 1.0 2.0\n", 1);
  ExpectRejected("job 1 batch 0 0 1000000 1.0 2.0\n", 1);
  ExpectRejected("# c\njob 1 batch 0 4294967296 1000000 1.0 2.0\n", 2);
  std::stringstream max("job 1 batch 0 4294967295 1000000 1.0 2.0\n");
  std::vector<Job> parsed;
  ASSERT_TRUE(ReadTrace(max, &parsed, nullptr));
  EXPECT_EQ(parsed[0].num_tasks, 4294967295u);
}

TEST(TraceTest, RejectsNegativeSubmitTime) {
  ExpectRejected("job 1 batch -1 5 1000000 1.0 2.0\n", 1);
}

TEST(TraceTest, RejectsNegativeDuration) {
  ExpectRejected("job 1 service 0 5 -1000000 1.0 2.0\n", 1);
}

TEST(TraceTest, RejectsNegativeOrNonFiniteResources) {
  ExpectRejected("job 1 batch 0 5 1000000 -1 2.0\n", 1);
  ExpectRejected("job 1 batch 0 5 1000000 1.0 -0.5\n", 1);
  ExpectRejected("job 1 batch 0 5 1000000 1e999 2.0\n", 1);
  ExpectRejected("job 1 batch 0 5 1000000 nan 2.0\n", 1);
  ExpectRejected("job 1 batch 0 5 1000000 1.0 inf\n", 1);
}

TEST(TraceTest, RejectsNegativeMapReduceFields) {
  const std::string job = "job 1 batch 0 5 1000000 1.0 2.0\n";
  ExpectRejected(job + "mapreduce 1 -1 2 1000 1000 4\n", 2);
  ExpectRejected(job + "mapreduce 1 3 -2 1000 1000 4\n", 2);
  ExpectRejected(job + "mapreduce 1 3 2 -1000 1000 4\n", 2);
  ExpectRejected(job + "mapreduce 1 3 2 1000 -1000 4\n", 2);
  ExpectRejected(job + "mapreduce 1 3 2 1000 1000 -4\n", 2);
}

TEST(TraceTest, RejectsTrailingTokensOnEveryRecordKind) {
  const std::string job = "job 1 batch 0 5 1000000 1.0 2.0\n";
  ExpectRejected("job 1 batch 0 5 1000000 1.0 2.0 garbage\n", 1);
  ExpectRejected(job + "constraint 1 0 1 eq extra\n", 2);
  ExpectRejected(job + "mapreduce 1 3 2 1000 1000 4 5\n", 2);
  // Trailing whitespace is not a token.
  std::stringstream ok(job + "constraint 1 0 1 eq  \n" +
                       "mapreduce 1 3 2 1000 1000 4\t\n");
  std::vector<Job> parsed;
  EXPECT_TRUE(ReadTrace(ok, &parsed, nullptr));
}

TEST(TraceTest, MissingFileReportsError) {
  std::vector<Job> parsed;
  std::string error;
  EXPECT_FALSE(ReadTraceFile("/nonexistent/path/foo.trace", &parsed, &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

TEST(TraceTest, EmptyTraceIsValid) {
  std::stringstream ss("# omegatrace v1\n");
  std::vector<Job> parsed;
  ASSERT_TRUE(ReadTrace(ss, &parsed, nullptr));
  EXPECT_TRUE(parsed.empty());
}

}  // namespace
}  // namespace omega
