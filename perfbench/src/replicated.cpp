// replicated_spend: two clients spend one-time tokens through a fresh
// 3-node Raft-replicated CAS. One operation is ClusterBed::prepare_token
// (retrieval through the cluster-aware client, enclave construction)
// followed by spend_with_retry against the leader (quote, handshake, the
// replicated spend). Every persist reseals the whole snapshot and log, so
// the cost of a spend grows with history. A run is therefore a number of
// rounds, each kSpendsPerRound spends against a cluster built fresh from
// an empty ledger: every round measures the same ledger sizes, and the
// latency quantiles are medians over rounds, so one round that the host
// slowed moves them no more than a slow block moves the other workloads'.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cas/client.h"
#include "crypto/sha256.h"
#include "workload/cluster.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace sinclave;
using namespace std::chrono_literals;

constexpr std::size_t kClients = 2;
/// 512 spends append over 1000 log entries (each spend registers and then
/// spends a token), so every round crosses several compactions at the
/// default snapshot_threshold of 256 entries.
constexpr std::uint64_t kSpendsPerRound = 512;

struct ClusterState {
  ClusterState(const Options& options, std::uint64_t round)
      : bed(bed_config()), seed(options.seed), round(round) {
    leader = bed.bootstrap();
    for (std::size_t t = 0; t < kClients; ++t)
      clients.push_back(bed.make_client(leader));
    for (std::size_t t = 0; t < kClients; ++t)
      if (spend(t, nonce(t, 0), nullptr)) warm_ok.fetch_add(1);
  }

  static workload::ClusterBedConfig bed_config() {
    workload::ClusterBedConfig config;
    config.seed = kFixtureSeed;
    return config;
  }

  /// Channel nonces differ for every spend of a run.
  std::uint64_t nonce(std::size_t thread, std::uint64_t index) const {
    return seed * 1'000'000 + round * 10'000 + thread * 1'000 + index + 1;
  }

  bool spend(std::size_t thread, std::uint64_t nonce, SpanLog* log) {
    workload::ClusterBed::PreparedToken prepared;
    {
      SpanLog::Scope span(log, "cluster.prepare_token");
      prepared = bed.prepare_token(clients[thread]);
    }
    if (!prepared.ok()) return false;
    SpanLog::Scope span(log, "cluster.spend");
    return bed
        .spend_with_retry(prepared, nonce, clients[thread].current_address())
        .attested;
  }

  workload::ClusterBed bed;
  std::uint64_t seed;
  std::uint64_t round;
  std::size_t leader = 0;
  std::vector<cas::CasClient> clients;
  std::atomic<std::uint64_t> warm_ok{0};
};

struct RaftTotals {
  std::uint64_t elections = 0;
  std::uint64_t snapshots = 0;
  std::uint64_t leader_proposals = 0;
};

RaftTotals raft_totals(ClusterState& state) {
  RaftTotals totals;
  for (std::size_t i = 0; i < state.bed.size(); ++i) {
    const cas::RaftStats stats = state.bed.node(i).raft().stats();
    totals.elections += stats.elections_started;
    totals.snapshots += stats.snapshots_taken;
    if (i == state.leader) totals.leader_proposals = stats.proposals;
  }
  return totals;
}

}  // namespace

Report run_replicated_spend(const Options& options) {
  Report report;
  std::vector<double> setup_s;
  auto state = set_up(
      [&] { return std::make_unique<ClusterState>(options, 0); }, setup_s);
  const std::uint64_t rounds = std::max<std::uint64_t>(
      3, sized_ops(options, 140.0, 0) / kSpendsPerRound);

  LoopResult loop;
  std::vector<SpanLog> logs;
  std::uint64_t elections = 0, snapshots = 0, proposals = 0, max_lag = 0;
  std::vector<double> blob_kib, growth;
  bool audits_converged = true, no_double_spend = true, compacted = true;
  for (std::uint64_t round = 0; round < rounds; ++round) {
    if (round > 0) {
      // One cluster at a time, and its memory handed back before the next
      // is built: without the trim, the allocator's per-thread arenas keep
      // earlier rounds' pages resident in differing amounts, and
      // peak_rss_mb would measure that instead of one cluster's footprint.
      state.reset();
      malloc_trim(0);
      state = std::make_unique<ClusterState>(options, round);
    }
    const RaftTotals before = raft_totals(*state);

    // A traced run samples the leader's follower lag off the clients'
    // path, so traced and untraced operations pay the same for it.
    std::jthread lag_sampler;
    if (options.trace) {
      lag_sampler = std::jthread([&](std::stop_token stop) {
        while (!stop.stop_requested()) {
          max_lag = std::max(
              max_lag,
              state->bed.node(state->leader).raft().stats().max_follower_lag);
          std::this_thread::sleep_for(2ms);
        }
      });
    }
    std::vector<SpanLog> round_logs;
    const LoopResult round_loop = run_closed_loop(
        kClients, kSpendsPerRound, options.trace, round_logs,
        [&](std::size_t t, std::uint64_t i, SpanLog* log) {
          return state->spend(t, state->nonce(t, i + 1), log);
        });
    if (lag_sampler.joinable()) {
      lag_sampler.request_stop();
      lag_sampler.join();
    }
    const RaftTotals after = raft_totals(*state);

    const std::size_t spent = state->warm_ok.load() + round_loop.ok_count();
    const workload::ClusterBed::SpendAudit audit =
        state->bed.audit_spends(spent, 10'000ms);
    audits_converged = audits_converged && audit.converged &&
                       audit.used.size() == state->bed.size();
    no_double_spend =
        no_double_spend &&
        std::all_of(audit.used.begin(), audit.used.end(),
                    [&](std::size_t used) { return used <= spent; });
    compacted = compacted && after.snapshots > before.snapshots;

    elections += after.elections - before.elections;
    snapshots += after.snapshots - before.snapshots;
    proposals += after.leader_proposals - before.leader_proposals;
    blob_kib.push_back(
        static_cast<double>(
            state->bed.node(state->leader).store().blob().size()) /
        1024.0);
    const std::vector<double> all = round_loop.all_latencies();
    const std::size_t tenth = std::max<std::size_t>(1, all.size() / 10);
    const double first = median({all.begin(), all.begin() + tenth});
    const double last = median({all.end() - tenth, all.end()});
    growth.push_back(first > 0 ? last / first : 0);

    loop.append(round_loop);
    logs.insert(logs.end(), std::make_move_iterator(round_logs.begin()),
                std::make_move_iterator(round_logs.end()));
  }

  report_loop(report, loop);
  report.check("ledger audit converged on every node in every round",
               audits_converged);
  report.check("zero double-spends", no_double_spend);
  report.check("every round crossed a log compaction", compacted);

  if (!options.trace) {
    // Rounds are equal and run one after another, so the blocks of the
    // latency block medians are the rounds.
    report_end_to_end(report, loop, setup_s, rounds);
    return report;
  }
  const double n = static_cast<double>(loop.ops.size());
  report.set("raft.proposals_per_op", static_cast<double>(proposals) / n,
             "count");
  report.set("raft.elections_in_window", static_cast<double>(elections),
             "count");
  report.set("raft.snapshots_taken", static_cast<double>(snapshots), "count");
  report.set("raft.max_follower_lag", static_cast<double>(max_lag), "count");
  report.set("raft.sealed_blob_kib_end", median(blob_kib), "KiB");
  report.set("replication.latency_growth_ratio", median(growth), "ratio");

  report_trace(report, loop, logs, options);

  // The kernels use an RSA-3072 key, the SGX size, although the cluster
  // runs on RSA-1024 keys.
  crypto::Drbg rng = crypto::Drbg::from_seed(options.seed, "kernels");
  const crypto::RsaKeyPair key = crypto::RsaKeyPair::generate(rng, 3072);
  core::InstancePage page;
  rng.generate(page.token.data.data(), page.token.size());
  page.verifier_id =
      crypto::sha256(state->bed.identity().public_key().modulus_be());
  report_kernels(report, key, state->bed.signed_image().sigstruct,
                 state->bed.signed_image().base_hash, page, rng);
  return report;
}

}  // namespace perfbench
