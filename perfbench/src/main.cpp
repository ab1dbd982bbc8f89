// sinclave_perfbench — the measuring half of the SinClave benchmark
// (perfbench/run.py builds it, runs it and checks its record).
//
//   sinclave_perfbench --workload NAME --seed N --seconds N --trace 0|1
//                      --out DIR
//
// Prints one JSON record on stdout: the operation counts, the named
// correctness checks, and the metrics of the run (end-to-end metrics when
// --trace 0, per-layer metrics when --trace 1). Exits 0 when the run
// completed, 2 on a usage error or an exception outside an operation.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

using perfbench::Options;
using perfbench::Report;

struct Workload {
  const char* name;
  Report (*run)(const Options&);
};

constexpr Workload kWorkloads[] = {
    {"large_enclave_start", perfbench::run_large_enclave_start},
    {"fleet_start", perfbench::run_fleet_start},
    {"replicated_spend", perfbench::run_replicated_spend},
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "sinclave_perfbench: %s\n"
               "usage: sinclave_perfbench --workload NAME --seed N "
               "--seconds N --trace 0|1 --out DIR\n",
               problem.c_str());
  std::exit(2);
}

std::uint64_t parse_number(const char* flag, const char* text,
                           std::uint64_t max) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (*text == '\0' || *text == '-' || *end != '\0' || value > max)
    usage(std::string("bad value for ") + flag + ": " + text);
  return value;
}

void print_record(const Options& options, const Report& report) {
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, ",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0);
  std::printf("\"build_type\": \"%s\", ", PERFBENCH_BUILD_TYPE);
  std::printf("\"attempted\": %llu, \"failed\": %llu, \"exceptions\": %llu, ",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.exceptions));
  std::printf("\"checks\": {");
  for (std::size_t i = 0; i < report.checks.size(); ++i)
    std::printf("%s\"%s\": %s", i ? ", " : "", report.checks[i].name.c_str(),
                report.checks[i].ok ? "true" : "false");
  std::printf("}, \"metrics\": {");
  for (std::size_t i = 0; i < report.metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", report.metrics[i].name.c_str(),
                report.metrics[i].value, report.metrics[i].unit.c_str());
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool have[5] = {};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      options.seed = parse_number("--seed", value, ~0ull);
      have[1] = true;
    } else if (flag == "--seconds") {
      options.seconds = static_cast<int>(parse_number("--seconds", value, 600));
      have[2] = true;
    } else if (flag == "--trace") {
      options.trace = parse_number("--trace", value, 1) == 1;
      have[3] = true;
    } else if (flag == "--out") {
      options.out_dir = value;
      have[4] = true;
    } else {
      usage("unknown flag " + flag);
    }
  }
  for (bool given : have)
    if (!given) usage("every flag is required");
  if (options.seconds < 1) usage("--seconds must be at least 1");

  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads)
    if (options.workload == w.name) workload = &w;
  if (workload == nullptr) usage("unknown workload " + options.workload);

  try {
    std::vector<double> reference = {perfbench::ref_kernel_ms(),
                                     perfbench::ref_kernel_ms()};
    Report report = workload->run(options);
    reference.push_back(perfbench::ref_kernel_ms());
    reference.push_back(perfbench::ref_kernel_ms());
    report.set("host.ref_kernel_ms", perfbench::median(reference), "ms");
    report.check("no exception escaped an operation", report.exceptions == 0);
    print_record(options, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sinclave_perfbench: %s\n", e.what());
    return 2;
  }
  return 0;
}
