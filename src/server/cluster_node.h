// One member of a replicated CAS cluster: a CasService incarnation wired
// to a RaftCore (cas/replication.h) through the ReplicationGate, plus the
// durable host-side artifacts — the sealed log blob and its monotonic
// counter — that survive enclave restarts.
//
// Responsibilities:
//   * serve the usual two client endpoints (`<address>.instance`, plain;
//     `<address>`, secure) through CasService::bind, with LEADER GATING on
//     writes via check_leader: a follower answers singleton retrieval
//     with kNotLeader carrying the leader hint, while introspection — and,
//     via get_policy on an attached cache, reads generally — is served by
//     every replica;
//   * implement the ReplicationGate: token arming and token spends are
//     proposed into the replicated log and only applied (on every node,
//     in log order) once majority-committed;
//   * own the node lifecycle for failover drills: stop() kills the
//     incarnation (endpoints down, proposals failed), restart() boots a
//     FRESH CasService + RaftCore over the SAME sealed store and counter
//     — exactly the restart an adversarial host controls, which is why a
//     rolled-back blob makes restart throw instead of serve;
//   * run the per-node idle-session sweep (SecureServer TTL) on a timer.
//
// All nodes of a cluster share one verifier identity keypair (copied into
// each), so clients pin a single identity across failover.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cas/persistence.h"
#include "cas/replication.h"
#include "cas/service.h"
#include "common/mutex.h"
#include "common/status.h"
#include "crypto/rsa.h"
#include "net/sim_network.h"
#include "net/timer_wheel.h"
#include "quote/quote.h"

namespace sinclave::server {

struct ClusterNodeConfig {
  /// Raft identity, peers, timeouts, seed. peers must include node_id.
  cas::RaftConfig raft;
  /// SecureServer session idle TTL (0 = no reaping) and how often the
  /// sweep timer fires (one stripe per firing).
  std::chrono::nanoseconds session_idle_ttl{0};
  std::chrono::nanoseconds idle_sweep_interval{std::chrono::milliseconds(20)};
};

class ClusterNode : public cas::ReplicationGate {
 public:
  /// `identity` is the cluster-wide verifier keypair (pass the same one
  /// to every node); `seed` derives this node's seal key, DRBGs, and
  /// election jitter.
  ClusterNode(net::SimNetwork* net, quote::AttestationService* attestation,
              crypto::RsaKeyPair identity, std::uint64_t seed,
              ClusterNodeConfig config);
  ~ClusterNode() override;

  ClusterNode(const ClusterNode&) = delete;
  ClusterNode& operator=(const ClusterNode&) = delete;

  /// Signer keys are remembered and re-uploaded into every incarnation.
  void add_signer_key(const crypto::RsaKeyPair& signer);

  /// Boot an incarnation: fresh CasService + RaftCore over the sealed
  /// store, endpoints bound, election timer armed, sweep timer armed.
  /// Throws when the persisted blob fails to unseal or is rolled back.
  void start();
  /// Kill the incarnation: endpoints down, in-flight proposals failed
  /// kUnavailable. Durable state (store + counter) survives. Idempotent.
  void stop();
  /// stop() + start(): the host restarting the CAS enclave.
  void restart();
  bool running() const;

  /// Propose a policy install through the log (leader only; followers
  /// answer kNotLeader like any other write).
  Status install_policy(const cas::Policy& policy);

  /// ReplicationGate: called by this node's CasService on the serving
  /// paths, with no CAS lock held. check_leader is ok only while this
  /// node leads, and kNotLeader with the leader hint otherwise.
  Status check_leader() const override;
  Status register_token(const core::AttestationToken& token,
                        const std::string& session_name,
                        const sgx::Measurement& expected_mr) override;
  Status spend_token(const core::AttestationToken& token,
                     const std::string& session_name,
                     const sgx::Measurement& mr_enclave) override;
  /// Authoritative for negative token lookups only as a caught-up leader
  /// (RaftCore::ready()); a lagging replica's local miss must not become
  /// a verification verdict.
  bool ready() const override;

  const std::string& address() const { return address_; }
  std::uint64_t node_id() const { return config_.raft.node_id; }

  /// Current-incarnation accessors (tests/bench; valid while running —
  /// retired incarnations stay alive until the node is destroyed, so a
  /// pointer observed just before a restart never dangles).
  cas::CasService& cas();
  cas::RaftCore& raft();
  const cas::RaftCore& raft() const;

  /// Host-side durable state, exposed for rollback-attack tests: capture
  /// blob() before a spend, set_blob() it back after stop(), and start()
  /// must refuse.
  cas::SealedLogStore& store() { return store_; }
  cas::MonotonicCounter& counter() { return counter_; }

 private:
  void arm_sweep_locked() REQUIRES(lifecycle_);

  net::SimNetwork* net_;
  quote::AttestationService* attestation_;
  crypto::RsaKeyPair identity_;
  const std::uint64_t seed_;
  const ClusterNodeConfig config_;
  std::string address_;

  cas::MonotonicCounter counter_;
  cas::SealedLogStore store_;
  std::vector<crypto::RsaKeyPair> signer_keys_;

  mutable Mutex lifecycle_{LockRank::kClusterLifecycle, "server.cluster_node"};
  bool running_ GUARDED_BY(lifecycle_) = false;
  std::uint64_t incarnation_ GUARDED_BY(lifecycle_) = 0;
  std::unique_ptr<cas::CasService> cas_ GUARDED_BY(lifecycle_);
  std::unique_ptr<cas::RaftCore> raft_ GUARDED_BY(lifecycle_);
  /// Dead incarnations, kept alive until ~ClusterNode: an in-flight
  /// request that raced a restart still holds valid pointers (its
  /// proposals fail kUnavailable on the stopped core).
  std::vector<std::unique_ptr<cas::CasService>> retired_cas_
      GUARDED_BY(lifecycle_);
  std::vector<std::unique_ptr<cas::RaftCore>> retired_raft_
      GUARDED_BY(lifecycle_);
  net::TimerWheel::TimerId sweep_timer_ GUARDED_BY(lifecycle_) = 0;

  /// Last member: destroyed first, joining the sweep thread before the
  /// incarnations its callbacks touch go away.
  net::TimerWheel sweep_wheel_;
};

}  // namespace sinclave::server
