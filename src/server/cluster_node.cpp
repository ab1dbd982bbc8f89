#include "server/cluster_node.h"

#include <utility>

#include "common/error.h"
#include "obs/registry.h"

namespace sinclave::server {

ClusterNode::ClusterNode(net::SimNetwork* net,
                         quote::AttestationService* attestation,
                         crypto::RsaKeyPair identity, std::uint64_t seed,
                         ClusterNodeConfig config)
    : net_(net),
      attestation_(attestation),
      identity_(std::move(identity)),
      seed_(seed),
      config_(std::move(config)),
      store_(crypto::Drbg::from_seed(seed, "cluster-seal-key").generate(32),
             &counter_, crypto::Drbg::from_seed(seed, "cluster-seal-rng")) {
  for (const cas::RaftPeer& p : config_.raft.peers) {
    if (p.id == config_.raft.node_id) address_ = p.address;
  }
  if (address_.empty()) {
    throw Error("cluster node: node_id missing from peer list");
  }
}

ClusterNode::~ClusterNode() { stop(); }

void ClusterNode::add_signer_key(const crypto::RsaKeyPair& signer) {
  MutexLock lock(lifecycle_);
  signer_keys_.push_back(signer);
  if (cas_ != nullptr) cas_->add_signer_key(signer);
}

cas::CasService& ClusterNode::cas() {
  MutexLock lock(lifecycle_);
  if (cas_ == nullptr) throw Error("cluster node: not started");
  return *cas_;
}

cas::RaftCore& ClusterNode::raft() {
  MutexLock lock(lifecycle_);
  if (raft_ == nullptr) throw Error("cluster node: not started");
  return *raft_;
}

const cas::RaftCore& ClusterNode::raft() const {
  MutexLock lock(lifecycle_);
  if (raft_ == nullptr) throw Error("cluster node: not started");
  return *raft_;
}

bool ClusterNode::running() const {
  MutexLock lock(lifecycle_);
  return running_;
}

void ClusterNode::start() {
  MutexLock lock(lifecycle_);
  if (running_) return;
  // Retire (never destroy) any previous incarnation: requests that raced
  // the shutdown may still hold its pointers.
  if (cas_ != nullptr) retired_cas_.push_back(std::move(cas_));
  if (raft_ != nullptr) retired_raft_.push_back(std::move(raft_));
  ++incarnation_;

  cas_ = std::make_unique<cas::CasService>(
      attestation_, identity_,
      crypto::Drbg::from_seed(seed_ + incarnation_, "cluster-cas"));
  for (const crypto::RsaKeyPair& k : signer_keys_) cas_->add_signer_key(k);
  if (config_.session_idle_ttl.count() > 0) {
    net::SecureServerOptions options;
    options.idle_ttl = config_.session_idle_ttl;
    cas_->set_secure_server_options(options);
  }
  cas_->set_replication_gate(this);

  cas::RaftConfig rc = config_.raft;
  // Different incarnations must draw different election jitter, or a
  // restarted node replays its old timeout sequence against peers that
  // have moved on.
  rc.seed = rc.seed ^ seed_ ^ (incarnation_ * 0x9e3779b97f4a7c15ULL);
  cas::CasService* cas_raw = cas_.get();
  raft_ = std::make_unique<cas::RaftCore>(
      net_, std::move(rc), &store_,
      [cas_raw](const cas::LogEntry& entry) -> Status {
        switch (entry.command) {
          case cas::LogCommand::kNoop:
            return Status();
          case cas::LogCommand::kInstallPolicy:
            cas_raw->install_policy(cas::Policy::deserialize(entry.payload));
            return Status();
          case cas::LogCommand::kRegisterToken: {
            const cas::TokenCommand c =
                cas::TokenCommand::deserialize(entry.payload);
            cas_raw->register_token(c.token, c.session_name, c.mr_enclave);
            return Status();
          }
          case cas::LogCommand::kSpendToken: {
            const cas::TokenCommand c =
                cas::TokenCommand::deserialize(entry.payload);
            return cas_raw->apply_replicated_spend(c.token, c.session_name,
                                                   c.mr_enclave);
          }
        }
        return Status(StatusCode::kInternal, "raft: unknown log command");
      },
      [cas_raw] { return cas_raw->export_state(); },
      [cas_raw](ByteView state) { cas_raw->import_state(state); });

  // Replication observability rides the incarnation's own registry (the
  // collector holds the matching RaftCore, which outlives it via the
  // retired list).
  cas::RaftCore* raft_raw = raft_.get();
  cas_->metrics_registry().add_collector([raft_raw](obs::MetricsSnapshot& s) {
    const cas::RaftStats r = raft_raw->stats();
    s.gauge("cluster_term", r.term);
    s.gauge("cluster_commit_index", r.commit_index);
    s.gauge("cluster_last_applied", r.last_applied);
    s.gauge("cluster_log_entries", r.log_entries);
    s.gauge("cluster_is_leader", r.is_leader ? 1 : 0);
    s.gauge("cluster_follower_lag", r.max_follower_lag);
    s.counter("cluster_elections_started", r.elections_started);
    s.counter("cluster_elections_won", r.elections_won);
    s.counter("cluster_proposals", r.proposals);
    s.counter("cluster_proposals_failed", r.proposals_failed);
    s.counter("cluster_snapshots_taken", r.snapshots_taken);
    s.counter("cluster_snapshots_installed", r.snapshots_installed);
  });

  try {
    raft_->start();  // throws on rolled-back / tampered persisted state
  } catch (...) {
    // Failed boot: nothing is bound; drop the half-built incarnation.
    raft_.reset();
    cas_.reset();
    throw;
  }

  // The same two endpoints, framing and trace roots as a single node; the
  // follower refusal rides the gate (check_leader).
  cas_->bind(*net_, address_);

  running_ = true;
  if (config_.session_idle_ttl.count() > 0) arm_sweep_locked();
}

void ClusterNode::stop() {
  cas::RaftCore* raft;
  {
    MutexLock lock(lifecycle_);
    if (!running_) return;
    running_ = false;
    sweep_wheel_.cancel(sweep_timer_);
    raft = raft_.get();
  }
  // Fail in-flight proposals first: handlers blocked in propose() wake
  // with kUnavailable, so the endpoint drains below cannot deadlock.
  raft->stop();
  try {
    net_->shutdown(address_ + ".instance");
  } catch (const Error&) {
  }
  try {
    net_->shutdown(address_);
  } catch (const Error&) {
  }
}

void ClusterNode::restart() {
  stop();
  start();
}

void ClusterNode::arm_sweep_locked() {
  try {
    sweep_timer_ =
        sweep_wheel_.schedule_after(config_.idle_sweep_interval, [this] {
          MutexLock lock(lifecycle_);
          if (!running_) return;
          cas_->sweep_idle_sessions();
          arm_sweep_locked();
        });
  } catch (const Error&) {
    // Sweep wheel shutting down (node being destroyed).
  }
}

Status ClusterNode::install_policy(const cas::Policy& policy) {
  cas::RaftCore* raft;
  {
    MutexLock lock(lifecycle_);
    if (!running_) return Status(StatusCode::kUnavailable, "cluster: stopped");
    raft = raft_.get();
  }
  return raft->propose(cas::LogCommand::kInstallPolicy, policy.serialize());
}

Status ClusterNode::register_token(const core::AttestationToken& token,
                                   const std::string& session_name,
                                   const sgx::Measurement& expected_mr) {
  cas::RaftCore* raft;
  {
    MutexLock lock(lifecycle_);
    if (raft_ == nullptr) {
      return Status(StatusCode::kUnavailable, "cluster: stopped");
    }
    raft = raft_.get();
  }
  const cas::TokenCommand cmd{token, session_name, expected_mr};
  return raft->propose(cas::LogCommand::kRegisterToken, cmd.serialize());
}

Status ClusterNode::spend_token(const core::AttestationToken& token,
                                const std::string& session_name,
                                const sgx::Measurement& mr_enclave) {
  cas::RaftCore* raft;
  {
    MutexLock lock(lifecycle_);
    if (raft_ == nullptr) {
      return Status(StatusCode::kUnavailable, "cluster: stopped");
    }
    raft = raft_.get();
  }
  const cas::TokenCommand cmd{token, session_name, mr_enclave};
  return raft->propose(cas::LogCommand::kSpendToken, cmd.serialize());
}

Status ClusterNode::check_leader() const {
  cas::RaftCore* raft;
  {
    MutexLock lock(lifecycle_);
    if (raft_ == nullptr) {
      return Status(StatusCode::kUnavailable, "cluster: stopped");
    }
    raft = raft_.get();
  }
  if (raft->is_leader()) return Status();
  // Writes need the log: bounce with the best-known leader address so the
  // client re-routes instead of backing off.
  return Status(StatusCode::kNotLeader, not_leader_detail(raft->leader_hint()));
}

bool ClusterNode::ready() const {
  cas::RaftCore* raft;
  {
    MutexLock lock(lifecycle_);
    if (raft_ == nullptr) return false;
    raft = raft_.get();
  }
  return raft->ready();
}

}  // namespace sinclave::server
