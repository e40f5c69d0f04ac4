#include "src/workload/trace.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>
#include <map>
#include <sstream>

namespace omega {
namespace {

constexpr char kHeader[] = "omegatrace v1";

std::string FormatError(int line_no, const std::string& message) {
  std::ostringstream os;
  os << "trace parse error at line " << line_no << ": " << message;
  return os.str();
}

}  // namespace

void WriteTrace(const std::vector<Job>& jobs, std::ostream& os) {
  std::vector<const Job*> sorted;
  sorted.reserve(jobs.size());
  for (const Job& j : jobs) {
    sorted.push_back(&j);
  }
  std::sort(sorted.begin(), sorted.end(), [](const Job* a, const Job* b) {
    if (a->submit_time != b->submit_time) {
      return a->submit_time < b->submit_time;
    }
    return a->id < b->id;
  });

  os << "# " << kHeader << "\n";
  os << "# jobs: " << jobs.size() << "\n";
  os << std::setprecision(17);
  for (const Job* j : sorted) {
    os << "job " << j->id << " " << (j->type == JobType::kBatch ? "batch" : "service")
       << " " << j->submit_time.micros() << " " << j->num_tasks << " "
       << j->task_duration.micros() << " " << j->task_resources.cpus << " "
       << j->task_resources.mem_gb << "\n";
    for (const PlacementConstraint& c : j->constraints) {
      os << "constraint " << j->id << " " << c.attribute_key << " "
         << c.attribute_value << " " << (c.must_equal ? "eq" : "ne") << "\n";
    }
    if (j->mapreduce.has_value()) {
      const MapReduceSpec& mr = *j->mapreduce;
      os << "mapreduce " << j->id << " " << mr.num_map_activities << " "
         << mr.num_reduce_activities << " " << mr.map_activity_duration.micros()
         << " " << mr.reduce_activity_duration.micros() << " "
         << mr.requested_workers << "\n";
    }
  }
}

bool WriteTraceFile(const std::vector<Job>& jobs, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  WriteTrace(jobs, out);
  return static_cast<bool>(out);
}

bool ReadTrace(std::istream& is, std::vector<Job>* jobs, std::string* error) {
  jobs->clear();
  std::map<JobId, size_t> index;
  std::string line;
  int line_no = 0;
  auto fail = [&](const std::string& message) {
    if (error != nullptr) {
      *error = FormatError(line_no, message);
    }
    return false;
  };
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    // A record whose fields parsed must have no token after them.
    auto complete = [&ls] {
      std::string extra;
      return !(ls >> extra);
    };
    if (kind == "job") {
      Job j;
      std::string type;
      int64_t submit_us = 0;
      int64_t num_tasks = 0;
      int64_t duration_us = 0;
      ls >> j.id >> type >> submit_us >> num_tasks >> duration_us >>
          j.task_resources.cpus >> j.task_resources.mem_gb;
      if (!ls) {
        return fail("malformed job record");
      }
      if (!complete()) {
        return fail("trailing tokens after job record");
      }
      if (type == "batch") {
        j.type = JobType::kBatch;
      } else if (type == "service") {
        j.type = JobType::kService;
      } else {
        return fail("unknown job type '" + type + "'");
      }
      if (num_tasks < 1 || num_tasks > std::numeric_limits<uint32_t>::max()) {
        return fail("task count " + std::to_string(num_tasks) +
                    " outside [1, 4294967295]");
      }
      if (submit_us < 0 || duration_us < 0) {
        return fail("negative submit time or task duration");
      }
      const Resources& r = j.task_resources;
      if (!std::isfinite(r.cpus) || !std::isfinite(r.mem_gb) || r.cpus < 0.0 ||
          r.mem_gb < 0.0) {
        return fail("negative or non-finite task resources");
      }
      j.num_tasks = static_cast<uint32_t>(num_tasks);
      j.submit_time = SimTime(submit_us);
      j.task_duration = Duration(duration_us);
      j.precedence = DefaultPrecedence(j.type);
      if (index.contains(j.id)) {
        return fail("duplicate job id");
      }
      index[j.id] = jobs->size();
      jobs->push_back(std::move(j));
    } else if (kind == "constraint") {
      JobId id = 0;
      PlacementConstraint c;
      std::string cmp;
      ls >> id >> c.attribute_key >> c.attribute_value >> cmp;
      if (!ls || (cmp != "eq" && cmp != "ne")) {
        return fail("malformed constraint record");
      }
      if (!complete()) {
        return fail("trailing tokens after constraint record");
      }
      c.must_equal = cmp == "eq";
      auto it = index.find(id);
      if (it == index.end()) {
        return fail("constraint for unknown job");
      }
      (*jobs)[it->second].constraints.push_back(c);
    } else if (kind == "mapreduce") {
      JobId id = 0;
      MapReduceSpec mr;
      int64_t map_us = 0;
      int64_t reduce_us = 0;
      ls >> id >> mr.num_map_activities >> mr.num_reduce_activities >> map_us >>
          reduce_us >> mr.requested_workers;
      if (!ls) {
        return fail("malformed mapreduce record");
      }
      if (!complete()) {
        return fail("trailing tokens after mapreduce record");
      }
      if (mr.num_map_activities < 0 || mr.num_reduce_activities < 0 ||
          map_us < 0 || reduce_us < 0 || mr.requested_workers < 0) {
        return fail("negative mapreduce count, duration or workers");
      }
      mr.map_activity_duration = Duration(map_us);
      mr.reduce_activity_duration = Duration(reduce_us);
      auto it = index.find(id);
      if (it == index.end()) {
        return fail("mapreduce spec for unknown job");
      }
      (*jobs)[it->second].mapreduce = mr;
    } else {
      return fail("unknown record kind '" + kind + "'");
    }
  }
  return true;
}

bool ReadTraceFile(const std::string& path, std::vector<Job>* jobs,
                   std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) {
      *error = "cannot open trace file: " + path;
    }
    return false;
  }
  return ReadTrace(in, jobs, error);
}

}  // namespace omega
