// The benchmark's workloads and the isolated kernel timings of traced runs.
#pragma once

#include "bench.h"
#include "core/base_hash.h"
#include "core/instance_page.h"
#include "crypto/drbg.h"
#include "crypto/rsa.h"
#include "sgx/sigstruct.h"

namespace perfbench {

/// One starter, single-node CAS behind CasService::bind, 64 MiB heap:
/// page measurement dominates.
Report run_large_enclave_start(const Options& options);
/// Three starters against server::CasServer with pre-minted pools.
Report run_fleet_start(const Options& options);
/// Two clients spending tokens through a fresh 3-node ClusterBed.
Report run_replicated_spend(const Options& options);

/// Times the public kernels the flow is built on, one at a time, with the
/// flow's RSA-3072 signer key, SigStruct, base hash and instance page.
void report_kernels(Report& report, const sinclave::crypto::RsaKeyPair& key,
                    const sinclave::sgx::SigStruct& sigstruct,
                    const sinclave::core::BaseHash& base,
                    const sinclave::core::InstancePage& page,
                    sinclave::crypto::Drbg& rng);

/// Seed of the deployment fixture: keys, simulated platform and verifier
/// randomness. It is the same in every run so that set-up does the same
/// prime search each time and setup_s measures the code, not the luck of a
/// seed; what the workload feeds the system (image, secrets, session draws,
/// channel randomness, nonces) comes from --seed.
inline constexpr std::uint64_t kFixtureSeed = 20231211;

/// Operations a run of `seconds` performs at the workload's nominal rate,
/// never fewer than `min_ops`.
std::uint64_t sized_ops(const Options& options, double ops_per_second,
                        std::uint64_t min_ops);

/// Builds the workload state `kSetups` times from scratch (keys, policies,
/// pools, warm-up), keeps the last one, and appends each build's duration
/// in seconds to `seconds`. The previous state is torn down outside the
/// timed region. Build i runs on the i-th allowed CPU (round robin), for
/// the reason run_closed_loop rotates a lone client: set-up is mostly one
/// thread, and left to the scheduler it stays on whichever vCPU it started
/// on. Afterwards every thread, including those the builds started while
/// pinned, may run on every allowed CPU again.
inline constexpr int kSetups = 9;

template <typename Build>
auto set_up(Build&& build, std::vector<double>& seconds) {
  const std::vector<int> cpus = allowed_cpus();
  decltype(build()) state;
  for (int i = 0; i < kSetups; ++i) {
    state.reset();
    if (!cpus.empty())
      move_to_cpu(cpus[static_cast<std::size_t>(i) % cpus.size()]);
    const std::int64_t start = now_ns();
    state = build();
    seconds.push_back(static_cast<double>(now_ns() - start) / 1e9);
  }
  release_all_threads(cpus);
  return state;
}

}  // namespace perfbench
