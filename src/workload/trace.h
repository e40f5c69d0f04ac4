// Workload trace serialization (high-fidelity simulator, §5 / Table 2).
//
// The high-fidelity simulator "replays historic workload traces". We replace
// the proprietary Google traces with traces materialized from the synthetic
// generator (see DESIGN.md §2), but the trace format, writer, reader, and
// replay path are exactly what a real trace would use: one record per job with
// submission time, shape, resources, constraints, and MapReduce spec.
//
// The on-disk format is a line-oriented text format ("omegatrace v1"):
//   # comment lines
//   job <id> <type> <submit_us> <num_tasks> <duration_us> <cpus> <mem_gb>
//   constraint <job_id> <key> <value> <eq|ne>
//   mapreduce <job_id> <maps> <reduces> <map_dur_us> <reduce_dur_us> <workers>
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "src/workload/job.h"

namespace omega {

// Writes `jobs` (in any order; they are sorted by submit time first) to `os`.
void WriteTrace(const std::vector<Job>& jobs, std::ostream& os);

// Convenience: writes to a file path. Returns false on I/O failure.
bool WriteTraceFile(const std::vector<Job>& jobs, const std::string& path);

// Parses a trace. On malformed input, returns false and leaves `jobs`
// unspecified; `error` (if non-null) receives a description with the line
// number. Malformed includes a task count outside [1, 2^32 - 1], a negative
// time, duration, mapreduce count or worker count, a negative or non-finite
// resource, and any token after a record's last field.
bool ReadTrace(std::istream& is, std::vector<Job>* jobs, std::string* error);

// Convenience: reads from a file path.
bool ReadTraceFile(const std::string& path, std::vector<Job>* jobs,
                   std::string* error);

}  // namespace omega

