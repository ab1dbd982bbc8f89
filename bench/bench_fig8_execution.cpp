// Fig. 8 — "Measurement of program execution": a minimal program, swept
// over enclave heap sizes and execution modes, baseline vs SinClave.
//
// Modes (paper -> here):
//   simulation  -> run the program without any enclave
//   hardware    -> construct+EINIT the enclave (measurement dominates and
//                  grows linearly with heap; the paper sees up to ~5 s at
//                  2 GiB), run the program locally
//   attested    -> hardware + the full verifier flow (baseline: quote +
//                  config; SinClave: token retrieval + on-demand SigStruct
//                  + quote + config)
//
// Expected shape: baseline == SinClave for simulation/hardware; attested
// adds a near-constant extra for SinClave (paper: 132-144 ms vs 36-66 ms)
// that becomes negligible against multi-second starts at large heaps.
//
// Pass --full to extend the sweep to 2 GiB (adds a few minutes).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "core/signer.h"
#include "crypto/sha256.h"
#include "runtime/starter.h"
#include "workload/testbed.h"

using namespace sinclave;
using Clock = std::chrono::steady_clock;
using FpMillis = std::chrono::duration<double, std::milli>;

namespace {

struct Row {
  std::uint64_t heap_mb;
  double sim_ms, hw_ms, attested_ms;
};

int run_minimal_program() {
  // The paper's minimal C program: main() { return 0; }
  return 0;
}

Row measure(workload::Testbed& bed, runtime::RuntimeMode mode,
            std::uint64_t heap_mb) {
  const core::EnclaveImage image = core::EnclaveImage::synthetic(
      "fig8-" + std::to_string(heap_mb), 64 << 10, heap_mb << 20);
  const core::Signer signer(&bed.user_signer());
  const std::string session = "fig8-" + std::to_string(heap_mb) + "-" +
                              (mode == runtime::RuntimeMode::kBaseline
                                   ? "baseline"
                                   : "sinclave");

  cas::Policy policy;
  policy.session_name = session;
  policy.expected_signer =
      crypto::sha256(bed.user_signer().public_key().modulus_be());
  policy.config.program = "minimal";

  sgx::SigStruct sigstruct;
  if (mode == runtime::RuntimeMode::kBaseline) {
    const auto si = signer.sign_baseline(image);
    sigstruct = si.sigstruct;
    policy.expected_mr_enclave = si.sigstruct.enclave_hash;
  } else {
    const auto si = signer.sign_sinclave(image);
    sigstruct = si.sigstruct;
    policy.require_singleton = true;
    policy.base_hash = si.base_hash;
  }
  bed.cas().install_policy(policy);

  Row row{heap_mb, 0, 0, 0};

  // Simulation mode: no enclave at all.
  {
    const auto t0 = Clock::now();
    volatile int rc = run_minimal_program();
    (void)rc;
    row.sim_ms = FpMillis(Clock::now() - t0).count();
  }

  // Hardware mode: construct + EINIT + run locally, no verifier.
  {
    const auto t0 = Clock::now();
    const auto enclave = runtime::start_enclave(bed.cpu(), image, sigstruct);
    volatile int rc = run_minimal_program();
    (void)rc;
    row.hw_ms = FpMillis(Clock::now() - t0).count();
    if (!enclave.ok()) std::fprintf(stderr, "hw einit failed!\n");
    bed.cpu().eremove(enclave.id);
  }

  // Attested mode: the full flow.
  {
    runtime::EnclaveRuntime rt = bed.make_runtime(mode);
    runtime::RunOptions o;
    o.cas_address = bed.cas_address();
    o.cas_identity = bed.cas().identity();
    o.session_name = session;

    const auto t0 = Clock::now();
    runtime::RunResult result;
    sgx::SgxCpu::EnclaveId id = 0;
    if (mode == runtime::RuntimeMode::kBaseline) {
      const auto enclave = runtime::start_enclave(bed.cpu(), image, sigstruct);
      id = enclave.id;
      result = rt.run(enclave, o);
    } else {
      const auto start = runtime::start_singleton_enclave(
          bed.cpu(), bed.network(), bed.cas_address(), image, sigstruct,
          session);
      id = start.enclave.id;
      result = rt.run(start.enclave, o);
    }
    row.attested_ms = FpMillis(Clock::now() - t0).count();
    if (!result.ok) std::fprintf(stderr, "attested run failed: %s\n",
                                 result.error.c_str());
    bed.cpu().eremove(id);
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bool full = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) {
      full = true;
    } else {
      std::fprintf(stderr, "usage: %s [--full]\n", argv[0]);
      return 2;
    }
  }

  std::printf("== Fig 8: program execution across heap sizes ==\n");
  std::printf("(setup: generating RSA-3072 keys...)\n\n");

  workload::TestbedConfig cfg;
  cfg.seed = 80;
  cfg.rsa_bits = 3072;
  cfg.latency.connect = std::chrono::microseconds(3740);
  cfg.latency.round_trip = std::chrono::microseconds(350);
  cfg.latency.real_sleep = true;
  workload::Testbed bed(cfg);
  bed.programs().register_program(
      "minimal", [](runtime::AppContext&) { return 0; });

  std::vector<std::uint64_t> heaps_mb = {32, 128, 512, 1024};
  if (full) heaps_mb.push_back(2048);

  std::printf("%-10s %-10s %12s %12s %12s %14s\n", "system", "heap",
              "sim (ms)", "hw (ms)", "attested(ms)", "attest delta");
  for (const auto mode :
       {runtime::RuntimeMode::kBaseline, runtime::RuntimeMode::kSinclave}) {
    const char* name =
        mode == runtime::RuntimeMode::kBaseline ? "baseline" : "sinclave";
    for (const std::uint64_t heap : heaps_mb) {
      const Row row = measure(bed, mode, heap);
      std::printf("%-10s %6lluMiB %12.2f %12.2f %12.2f %14.2f\n", name,
                  static_cast<unsigned long long>(row.heap_mb), row.sim_ms,
                  row.hw_ms, row.attested_ms, row.attested_ms - row.hw_ms);
    }
  }
  std::printf(
      "\nshape checks: hw grows ~linearly with heap (measurement cost);\n"
      "sinclave's attest delta exceeds baseline's by a ~constant amount\n"
      "(paper: 132-144 ms vs 36-66 ms) and washes out at large heaps.\n");
  return 0;
}
