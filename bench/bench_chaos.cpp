// Chaos scenario driver: runs the named fault-injection scenarios from
// src/workload/chaos.h and gates on their explicit pass criteria.
//
// Unlike the throughput benches this one measures *invariants under
// abuse*, not speed: deterministic network faults (drops, resets, delay
// jitter, scripted partitions), server overload (admission shedding +
// per-request deadlines), client resilience (jittered retries, budgets,
// circuit breaker), and a live adversary — with every scenario asserting
// typed failures, exactly-once token spend, and metrics closure.
//
// Flags: --smoke shrinks per-scenario traffic for sanitizer CI runs;
// --json F writes the machine-readable record (tools/run_benches.sh
// points it at BENCH_chaos.json). Exit status is 0 iff every scenario
// passed.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "workload/chaos.h"

using namespace sinclave;

namespace {

void print_scenario(const workload::ChaosScenarioResult& r) {
  std::printf("  %-24s %s  ops=%llu ok=%llu typed=%llu attempts=%llu "
              "faults=%llu shed=%llu deadline=%llu trips=%llu  %.1f ms\n",
              r.name.c_str(), r.passed ? "PASS" : "FAIL",
              static_cast<unsigned long long>(r.ops),
              static_cast<unsigned long long>(r.ok),
              static_cast<unsigned long long>(r.typed_failures),
              static_cast<unsigned long long>(r.attempts),
              static_cast<unsigned long long>(r.faults_injected),
              static_cast<unsigned long long>(r.requests_shed),
              static_cast<unsigned long long>(r.deadline_exceeded),
              static_cast<unsigned long long>(r.breaker_trips), r.wall_ms);
  for (const std::string& f : r.failures)
    std::printf("      criterion FAILED: %s\n", f.c_str());
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* json_path = nullptr;
  std::uint64_t seed = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = static_cast<std::uint64_t>(std::strtoull(argv[++i], nullptr, 10));
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--json PATH] [--seed N]\n",
                   argv[0]);
      return 2;
    }
  }

  std::printf("bench_chaos: %zu scenarios, seed=%llu%s\n",
              workload::chaos_scenario_names().size(),
              static_cast<unsigned long long>(seed), smoke ? " [smoke]" : "");

  workload::ChaosConfig config;
  config.seed = seed;
  config.smoke = smoke;
  const std::vector<workload::ChaosScenarioResult> results =
      workload::run_chaos_suite(config);

  bool all_passed = true;
  for (const auto& r : results) {
    print_scenario(r);
    all_passed = all_passed && r.passed;
  }
  std::printf("bench_chaos: %s\n", all_passed ? "ALL PASS" : "FAILURES");

  if (json_path != nullptr) {
    if (std::FILE* f = std::fopen(json_path, "w")) {
      std::fprintf(f, "{\n  \"smoke\": %s,\n  \"seed\": %llu,\n",
                   smoke ? "true" : "false",
                   static_cast<unsigned long long>(seed));
      std::fprintf(f, "  \"scenarios\": [\n");
      for (std::size_t i = 0; i < results.size(); ++i) {
        const auto& r = results[i];
        std::fprintf(
            f,
            "    {\"name\": \"%s\", \"passed\": %s, \"ops\": %llu, "
            "\"ok\": %llu, \"typed_failures\": %llu, "
            "\"untyped_failures\": %llu, \"attempts\": %llu, "
            "\"requests_shed\": %llu, \"deadline_exceeded\": %llu, "
            "\"faults_injected\": %llu, \"breaker_trips\": %llu, "
            "\"wall_ms\": %.3f, \"failures\": [",
            r.name.c_str(), r.passed ? "true" : "false",
            static_cast<unsigned long long>(r.ops),
            static_cast<unsigned long long>(r.ok),
            static_cast<unsigned long long>(r.typed_failures),
            static_cast<unsigned long long>(r.untyped_failures),
            static_cast<unsigned long long>(r.attempts),
            static_cast<unsigned long long>(r.requests_shed),
            static_cast<unsigned long long>(r.deadline_exceeded),
            static_cast<unsigned long long>(r.faults_injected),
            static_cast<unsigned long long>(r.breaker_trips), r.wall_ms);
        for (std::size_t j = 0; j < r.failures.size(); ++j)
          std::fprintf(f, "%s\"%s\"", j == 0 ? "" : ", ",
                       json_escape(r.failures[j]).c_str());
        std::fprintf(f, "]}%s\n", i + 1 < results.size() ? "," : "");
      }
      std::fprintf(f, "  ],\n  \"all_passed\": %s\n}\n",
                   all_passed ? "true" : "false");
      std::fclose(f);
      std::printf("wrote %s\n", json_path);
    } else {
      std::printf("WARNING: could not open %s for writing\n", json_path);
    }
  }
  return all_passed ? 0 : 1;
}
