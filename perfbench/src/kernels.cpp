// Isolated timings of the public kernels the start flow is built on. Each
// figure is the median of repeated calls with the flow's own key and
// inputs, so a change to one kernel shows here before it shows in a span.
#include <optional>
#include <stdexcept>

#include "core/predictor.h"
#include "crypto/dh.h"
#include "sgx/measurement.h"
#include "workloads.h"

namespace perfbench {

using namespace sinclave;

namespace {

template <typename Fn>
double median_ms(int reps, Fn&& fn) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    const std::int64_t start = now_ns();
    fn();
    samples.push_back(ms_between(start, now_ns()));
  }
  return median(samples);
}

}  // namespace

void report_kernels(Report& report, const crypto::RsaKeyPair& key,
                    const sgx::SigStruct& sigstruct,
                    const core::BaseHash& base,
                    const core::InstancePage& page, crypto::Drbg& rng) {
  const Bytes message = sigstruct.signing_message();
  Bytes signature;
  report.set("crypto.rsa3072_sign_ms", median_ms(9, [&] {
               signature = key.sign_pkcs1_sha256(message);
             }),
             "ms");
  report.set("crypto.rsa3072_verify_ms", median_ms(31, [&] {
               if (!key.public_key().verify_pkcs1_sha256(message, signature))
                 throw std::runtime_error("kernel: signature did not verify");
             }),
             "ms");

  std::optional<crypto::DhKeyPair> ours;
  report.set("crypto.dh2048_keygen_ms", median_ms(9, [&] {
               ours.emplace(crypto::DhKeyPair::generate(rng));
             }),
             "ms");
  const Bytes theirs = crypto::DhKeyPair::generate(rng).public_value();
  report.set("crypto.dh2048_shared_ms", median_ms(9, [&] {
               (void)ours->shared_secret(theirs);
             }),
             "ms");

  // The CPU's EADD + 16 EEXTENDs of one zero heap page, per page.
  constexpr int kPages = 256;
  const Bytes zero_page(sgx::kPageSize, 0);
  report.set("crypto.sha256_page_us", median_ms(9, [&] {
               sgx::FastMeasurementLog log;
               log.ecreate(4096, kPages * sgx::kPageSize);
               for (int p = 0; p < kPages; ++p)
                 log.add_measured_page(p * sgx::kPageSize,
                                       sgx::SecInfo::reg_rw(), zero_page);
               (void)log.finalize();
             }) * 1000.0 / kPages,
             "us");

  constexpr int kPredictions = 64;
  report.set("core.predict_us", median_ms(9, [&] {
               for (int i = 0; i < kPredictions; ++i)
                 (void)core::MeasurementPredictor::predict(base, page);
             }) * 1000.0 / kPredictions,
             "us");
}

}  // namespace perfbench
