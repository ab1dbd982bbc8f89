// The enclave-start workloads. One operation is the paper's per-instance
// flow: retrieve a one-time token and on-demand SigStruct, construct and
// initialise the singleton enclave, attest over a channel bound to the
// quote, fetch the configuration, run the program, EREMOVE.
//
// large_enclave_start runs that flow through the public entry points
// (runtime::start_singleton_enclave, EnclaveRuntime::run) in untraced
// operations. Its traced operations, and every fleet_start operation,
// compose it from the same public calls those entry points make, with a
// span around each call.
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <optional>
#include <string>
#include <vector>

#include "cas/client.h"
#include "core/signer.h"
#include "crypto/sha256.h"
#include "runtime/starter.h"
#include "server/cas_server.h"
#include "workload/testbed.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace sinclave;

constexpr const char* kProgram = "perfbench-app";
constexpr const char* kSecret = "db-password";
constexpr std::size_t kCodeBytes = 64 << 10;

/// Single-node deployment with the user's RSA-3072 keys, one signed image
/// and one singleton policy per session, each with its own secret.
struct Deployment {
  Deployment(const Options& options, std::uint64_t heap_bytes,
             std::size_t sessions)
      : bed(workload::TestbedConfig{.seed = kFixtureSeed, .rsa_bits = 3072}),
        image(core::EnclaveImage::synthetic(
            "perfbench-" + std::to_string(options.seed), kCodeBytes,
            heap_bytes)),
        signed_image(core::Signer(&bed.user_signer()).sign_sinclave(image)) {
    bed.programs().register_program(kProgram, [](runtime::AppContext& ctx) {
      return ctx.config->secrets.contains(kSecret) ? 0 : 1;
    });
    crypto::Drbg secrets = crypto::Drbg::from_seed(options.seed, "secrets");
    for (std::size_t i = 0; i < sessions; ++i) {
      cas::Policy policy;
      policy.session_name = "session-" + std::to_string(i);
      policy.expected_signer =
          crypto::sha256(bed.user_signer().public_key().modulus_be());
      policy.require_singleton = true;
      policy.base_hash = signed_image.base_hash;
      policy.config.program = kProgram;
      policy.config.secrets[kSecret] = secrets.generate(32);
      bed.cas().install_policy(policy);
      policies.push_back(std::move(policy));
    }
  }

  workload::Testbed bed;
  core::EnclaveImage image;
  core::SinclaveSignedImage signed_image;
  std::vector<cas::Policy> policies;
};

/// What the composed flow needs to reach the platform and the verifier.
struct Flow {
  Deployment* deployment;
  std::string address;
  /// Guards the simulated CPU and quoting enclave, which are not
  /// synchronised: calls that change CPU state (enclave construction,
  /// EREPORT's key-id draw, EREMOVE) hold it exclusively, const calls
  /// (reading a page, quote signing) share it. Null when one client owns
  /// the platform.
  std::shared_mutex* platform = nullptr;
};

using Exclusive = std::unique_lock<std::shared_mutex>;
using Shared = std::shared_lock<std::shared_mutex>;

template <typename Lock>
Lock lock_platform(const Flow& flow, SpanLog* log) {
  if (flow.platform == nullptr) return Lock{};
  SpanLog::Scope wait(log, "bench.platform_wait");
  return Lock(*flow.platform);
}

/// Outcome of one start, for the correctness checks.
struct StartOutcome {
  bool ok = false;
  bool config_mismatch = false;
};

/// The per-instance flow composed from the calls start_singleton_enclave
/// and EnclaveRuntime::run (kSinclave mode) make, plus EREMOVE.
StartOutcome composed_start(const Flow& flow, const cas::Policy& policy,
                            crypto::Drbg& rng, SpanLog* log) {
  Deployment& d = *flow.deployment;
  sgx::SgxCpu& cpu = d.bed.cpu();
  StartOutcome out;

  cas::InstanceResult got;
  {
    SpanLog::Scope span(log, "cas_client.get_instance");
    cas::CasClientConfig config;
    config.address = flow.address;
    cas::CasClient client(&d.bed.network(), std::move(config));
    got = client.get_instance(policy.session_name,
                              d.signed_image.sigstruct);
  }
  if (!got.ok()) return out;

  core::InstancePage page;
  page.token = got.token;
  page.verifier_id = got.verifier_id;
  runtime::StartedEnclave enclave;
  {
    auto lock = lock_platform<Exclusive>(flow, log);
    SpanLog::Scope span(log, "sgx.start_enclave");
    enclave = runtime::start_enclave(cpu, d.image, got.singleton_sigstruct,
                                     page);
  }

  auto configure = [&]() -> bool {
    if (!enclave.ok()) return false;
    const crypto::RsaPublicKey& identity = d.bed.cas().identity();
    {
      auto lock = lock_platform<Shared>(flow, log);
      SpanLog::Scope span(log, "runtime.instance_page");
      const Bytes raw = cpu.read_page(enclave.id, enclave.instance_page_offset);
      lock = {};
      const std::optional<core::InstancePage> read =
          core::InstancePage::parse(raw);
      if (!read.has_value() ||
          crypto::sha256(identity.modulus_be()) != read->verifier_id)
        return false;
    }

    std::optional<cas::AttestedChannel> channel;
    {
      SpanLog::Scope span(log, "net.channel_setup");
      channel.emplace(&d.bed.network(), flow.address,
                      crypto::Drbg(rng.generate(16), "runtime-channel"));
    }
    cas::AttestPayload payload;
    payload.session_name = policy.session_name;
    payload.token = page.token;
    sgx::Report report;
    {
      auto lock = lock_platform<Exclusive>(flow, log);
      SpanLog::Scope span(log, "quote.generate");
      report = cpu.ereport(enclave.id, d.bed.qe().target_info(),
                           net::channel_binding(channel->dh_public()));
    }
    {
      auto lock = lock_platform<Shared>(flow, log);
      SpanLog::Scope span(log, "quote.generate");
      const std::optional<quote::Quote> quote =
          d.bed.qe().generate_quote(report);
      if (!quote.has_value()) return false;
      payload.quote = *quote;
    }
    {
      SpanLog::Scope span(log, "net.attest");
      if (!channel->attest(identity, payload).ok()) return false;
    }
    std::optional<Result<cas::AppConfig>> config;
    {
      SpanLog::Scope span(log, "cas_client.get_config");
      config.emplace(channel->get_config());
    }
    if (!config->ok()) return false;
    if (config->value().secrets != policy.config.secrets) {
      out.config_mismatch = true;
      return false;
    }
    SpanLog::Scope span(log, "runtime.program");
    const runtime::Program* program = d.bed.programs().find(kProgram);
    if (program == nullptr) return false;
    runtime::AppContext ctx;
    ctx.config = &config->value();
    ctx.network = &d.bed.network();
    return (*program)(ctx) == 0;
  };
  out.ok = configure();

  auto lock = lock_platform<Exclusive>(flow, log);
  SpanLog::Scope span(log, "sgx.eremove");
  cpu.eremove(enclave.id);
  return out;
}

/// The same flow through the public entry points.
StartOutcome api_start(Deployment& d, runtime::EnclaveRuntime& rt,
                       const cas::Policy& policy) {
  StartOutcome out;
  const runtime::SingletonStart start = runtime::start_singleton_enclave(
      d.bed.cpu(), d.bed.network(), d.bed.cas_address(), d.image,
      d.signed_image.sigstruct, policy.session_name);
  if (start.ok()) {
    runtime::RunOptions options;
    options.cas_address = d.bed.cas_address();
    options.cas_identity = d.bed.cas().identity();
    options.session_name = policy.session_name;
    const runtime::RunResult result = rt.run(start.enclave, options);
    out.config_mismatch =
        result.ok && result.config.secrets != policy.config.secrets;
    out.ok = result.ok && !out.config_mismatch;
  }
  if (start.enclave.id != 0) d.bed.cpu().eremove(start.enclave.id);
  return out;
}

/// Outcomes of every start since set-up began, warm-up included.
struct Tally {
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> config_mismatches{0};

  bool note(const StartOutcome& outcome) {
    if (outcome.ok) ok.fetch_add(1);
    if (outcome.config_mismatch) config_mismatches.fetch_add(1);
    return outcome.ok;
  }

  void check(Report& report, Deployment& d) const {
    report.check("every applied config's secrets match the installed policy",
                 config_mismatches.load() == 0);
    report.check("tokens_used equals the OK starts",
                 d.bed.cas().tokens_used() == ok.load());
  }
};

void report_start_kernels(Report& report, Deployment& d, std::uint64_t seed) {
  core::InstancePage page;
  crypto::Drbg rng = crypto::Drbg::from_seed(seed, "kernels");
  rng.generate(page.token.data.data(), page.token.size());
  page.verifier_id = crypto::sha256(d.bed.cas().identity().modulus_be());
  report_kernels(report, d.bed.user_signer(), d.signed_image.sigstruct,
                 d.signed_image.base_hash, page, rng);
}

// --- one starter over CasService::bind, 64 MiB heap -------------------------

constexpr std::uint64_t kLargeHeap = 64 << 20;

struct LargeState {
  explicit LargeState(const Options& options)
      : d(options, kLargeHeap, 1),
        enclave_runtime(d.bed.make_runtime(runtime::RuntimeMode::kSinclave)),
        rng(crypto::Drbg::from_seed(options.seed, "composed-runtime")) {
    tally.note(api_start(d, enclave_runtime, d.policies[0]));  // warm-up
  }

  Deployment d;
  runtime::EnclaveRuntime enclave_runtime;
  crypto::Drbg rng;
  Tally tally;
};

}  // namespace

Report run_large_enclave_start(const Options& options) {
  Report report;
  std::vector<double> setup_s;
  auto state = set_up(
      [&] { return std::make_unique<LargeState>(options); }, setup_s);
  const cas::Policy& policy = state->d.policies[0];
  const Flow flow{&state->d, state->d.bed.cas_address(), nullptr};

  std::vector<SpanLog> logs;
  const LoopResult loop = run_closed_loop(
      1, sized_ops(options, 8.0, 16), options.trace, logs,
      [&](std::size_t, std::uint64_t, SpanLog* log) {
        return state->tally.note(
            log == nullptr ? api_start(state->d, state->enclave_runtime, policy)
                           : composed_start(flow, policy, state->rng, log));
      });

  report_loop(report, loop);
  state->tally.check(report, state->d);
  if (options.trace) {
    report_trace(report, loop, logs, options);
    report_start_kernels(report, state->d, options.seed);
  } else {
    report_end_to_end(report, loop, setup_s);
  }
  return report;
}

namespace {

// --- three starters against CasServer --------------------------------------

constexpr std::size_t kFleetClients = 3;
constexpr std::size_t kFleetSessions = 32;
constexpr double kZipfTheta = 0.99;
constexpr const char* kFleetAddress = "cas.fleet";

/// Session indices, zipfian over kFleetSessions, drawn from the seed.
std::vector<std::size_t> zipf_sessions(std::uint64_t seed, std::size_t thread,
                                       std::size_t count) {
  std::vector<double> cdf;
  double total = 0;
  for (std::size_t i = 0; i < kFleetSessions; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfTheta);
    cdf.push_back(total);
  }
  crypto::Drbg rng = crypto::Drbg::from_seed(
      seed, "fleet-sessions-" + std::to_string(thread));
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < count; ++i) {
    const double u = static_cast<double>(rng.uniform(1ull << 53)) /
                     static_cast<double>(1ull << 53) * total;
    std::size_t k = 0;
    while (k + 1 < cdf.size() && cdf[k] < u) ++k;
    out.push_back(k);
  }
  return out;
}

/// Schedules a chain of probe timers on a wheel and records how late each
/// fires (fire time minus deadline).
class TimerProbe {
 public:
  static constexpr auto kPeriod = std::chrono::milliseconds(2);

  explicit TimerProbe(net::TimerWheel* wheel) : wheel_(wheel) { arm(); }
  TimerProbe(const TimerProbe&) = delete;
  TimerProbe& operator=(const TimerProbe&) = delete;
  ~TimerProbe() { stop(); }

  /// Ends the chain and returns the lateness samples in microseconds.
  std::vector<double> stop() {
    running_.store(false);
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return done_; });
    return lateness_us_;
  }

 private:
  void arm() {
    deadline_ = Clock::now() + kPeriod;
    wheel_->schedule_after(kPeriod, [this] { fire(); });
  }
  // Runs on the wheel's thread only; stop() reads the samples after done_.
  void fire() {
    const auto late = Clock::now() - deadline_;
    std::lock_guard<std::mutex> lock(mutex_);
    lateness_us_.push_back(
        std::chrono::duration<double, std::micro>(late).count());
    if (running_.load()) {
      arm();
    } else {
      done_ = true;
      done_cv_.notify_all();
    }
  }

  net::TimerWheel* wheel_;
  std::atomic<bool> running_{true};
  std::mutex mutex_;
  std::condition_variable done_cv_;
  bool done_ = false;
  Clock::time_point deadline_;
  std::vector<double> lateness_us_;
};

struct FleetState {
  explicit FleetState(const Options& options)
      : d(options, 1 << 20, kFleetSessions) {
    server::CasServerConfig config;
    config.premint_depth = 4;
    config.backend_io = std::chrono::milliseconds(1);
    server = std::make_unique<server::CasServer>(&d.bed.cas(), config);
    server->bind(d.bed.network(), kFleetAddress);
    for (const cas::Policy& policy : d.policies)
      server->premint(policy.session_name, d.signed_image.sigstruct,
                      config.premint_depth);
    for (std::size_t t = 0; t < kFleetClients; ++t)
      rngs.push_back(crypto::Drbg::from_seed(
          options.seed, "fleet-runtime-" + std::to_string(t)));
    const Flow flow = this->flow();
    for (std::size_t i = 0; i < kFleetClients; ++i)
      tally.note(composed_start(flow, d.policies[i], rngs[0], nullptr));
  }

  Flow flow() { return Flow{&d, kFleetAddress, &platform}; }

  Deployment d;
  std::unique_ptr<server::CasServer> server;
  std::shared_mutex platform;
  std::vector<crypto::Drbg> rngs;
  Tally tally;
};

}  // namespace

Report run_fleet_start(const Options& options) {
  Report report;
  std::vector<double> setup_s;
  auto state = set_up(
      [&] { return std::make_unique<FleetState>(options); }, setup_s);
  const std::uint64_t ops = sized_ops(options, 90.0, 60);
  std::vector<std::vector<std::size_t>> sessions;
  for (std::size_t t = 0; t < kFleetClients; ++t)
    sessions.push_back(
        zipf_sessions(options.seed, t, ops / kFleetClients + 1));

  server::CasServer& server = *state->server;
  const std::uint64_t hits_before = server.sigstruct_cache().hits();
  const std::uint64_t misses_before = server.sigstruct_cache().misses();
  const std::uint64_t batches_before = server.metrics().mint_batches.load();
  const std::uint64_t collisions_before =
      state->d.bed.cas().secure_channel_stats().stripe_collisions;
  std::optional<TimerProbe> probe;
  if (options.trace) probe.emplace(&server.timers());

  const Flow flow = state->flow();
  std::vector<SpanLog> logs;
  const LoopResult loop = run_closed_loop(
      kFleetClients, ops, options.trace, logs,
      [&](std::size_t t, std::uint64_t i, SpanLog* log) {
        const cas::Policy& policy = state->d.policies[sessions[t][i]];
        return state->tally.note(
            composed_start(flow, policy, state->rngs[t], log));
      });

  report_loop(report, loop);
  state->tally.check(report, state->d);
  if (options.trace) {
    const std::vector<double> lateness = probe->stop();
    const double n = static_cast<double>(loop.ops.size());
    const double hits =
        static_cast<double>(server.sigstruct_cache().hits() - hits_before);
    const double takes =
        hits + static_cast<double>(server.sigstruct_cache().misses() -
                                   misses_before);
    report.set("server.cache_hit_ratio", takes > 0 ? hits / takes : 0,
               "ratio");
    report.set("server.mint_batches_per_op",
               static_cast<double>(server.metrics().mint_batches.load() -
                                   batches_before) /
                   n,
               "count");
    report.set("server.in_flight_high_water",
               static_cast<double>(server.metrics().max_in_flight.load()),
               "count");
    report.set("net.stripe_collisions_per_op",
               static_cast<double>(
                   state->d.bed.cas().secure_channel_stats().stripe_collisions -
                   collisions_before) /
                   n,
               "count");
    report.set("timer_wheel.lateness_p50_us", quantile(lateness, 0.5), "us");
    report.set("timer_wheel.lateness_p90_us", quantile(lateness, 0.9), "us");
    report_trace(report, loop, logs, options);
    report_start_kernels(report, state->d, options.seed);
  } else {
    report_end_to_end(report, loop, setup_s);
  }
  return report;
}

std::uint64_t sized_ops(const Options& options, double ops_per_second,
                        std::uint64_t min_ops) {
  const auto ops = static_cast<std::uint64_t>(
      std::llround(ops_per_second * static_cast<double>(options.seconds)));
  return ops < min_ops ? min_ops : ops;
}

}  // namespace perfbench
