// perfbench: runs one workload once and writes its raw samples,
// counters, check counts and spans as JSON.  run.py builds this program,
// runs it and turns the raw record into metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --tmpdir DIR --out FILE

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"
#include "snap/util/parallel.hpp"

namespace {

bool parse_args(int argc, char** argv, perfbench::Options* o,
                std::string* out) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") o->workload = val;
    else if (key == "--seed") o->seed = std::strtoull(val, nullptr, 10);
    else if (key == "--seconds") o->seconds = std::strtod(val, nullptr);
    else if (key == "--trace") o->trace = std::strcmp(val, "0") != 0;
    else if (key == "--tmpdir") o->tmpdir = val;
    else if (key == "--out") *out = val;
    else return false;
  }
  return argc % 2 == 1 && !o->workload.empty() && !o->tmpdir.empty() &&
         !out->empty() && o->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  std::string out;
  if (!parse_args(argc, argv, &o, &out)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --tmpdir DIR --out FILE\n");
    return 2;
  }
  o.threads = snap::parallel::max_threads();
  snap::parallel::set_num_threads(o.threads);

  perfbench::Result r;
  perfbench::Tracer tracer(o.trace);
  try {
    if (o.workload == "offline-rmat")
      perfbench::run_offline_rmat(o, r, tracer);
    else if (o.workload == "service-ingest")
      perfbench::run_service_ingest(o, r, tracer);
    else {
      std::fprintf(stderr, "perfbench: unknown workload %s\n",
                   o.workload.c_str());
      return 2;
    }
    perfbench::write_result(out, r, tracer, o.threads);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
