// Differential known-answer tests: every generated vector (produced by an
// independent reference implementation — CPython's hashlib/hmac and the
// cryptography package's X25519; see generated_kat.inc) must match all of
// this repository's implementations: the interruptible SHA-256, the
// optimized SHA-256 (including its SHA-NI path when the CPU has it), HMAC,
// and X25519. X25519 additionally checks the RFC 7748 vectors verbatim.
#include <gtest/gtest.h>

#include "crypto/dh.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "crypto/sha256_fast.h"

#include "generated_kat.inc"

namespace sinclave::crypto {
namespace {

class GeneratedSha : public ::testing::TestWithParam<GeneratedShaVector> {};

TEST_P(GeneratedSha, InterruptibleMatchesReference) {
  const auto& v = GetParam();
  EXPECT_EQ(sha256(from_hex(v.msg_hex)).hex(), v.digest_hex);
}

TEST_P(GeneratedSha, FastMatchesReference) {
  const auto& v = GetParam();
  EXPECT_EQ(sha256_fast(from_hex(v.msg_hex)).hex(), v.digest_hex);
}

TEST_P(GeneratedSha, ResumedMidwayMatchesReference) {
  // Split at the largest block boundary, export/resume, finish.
  const auto& v = GetParam();
  const Bytes msg = from_hex(v.msg_hex);
  const std::size_t split = (msg.size() / 2) & ~std::size_t{63};
  Sha256 first;
  first.update(ByteView{msg.data(), split});
  Sha256 second = Sha256::resume(first.export_state());
  second.update(ByteView{msg.data() + split, msg.size() - split});
  EXPECT_EQ(second.finalize().hex(), v.digest_hex);
}

INSTANTIATE_TEST_SUITE_P(Corpus, GeneratedSha,
                         ::testing::ValuesIn(kGeneratedShaVectors));

class GeneratedHmac : public ::testing::TestWithParam<GeneratedHmacVector> {};

TEST_P(GeneratedHmac, MatchesReference) {
  const auto& v = GetParam();
  EXPECT_EQ(hmac_sha256(from_hex(v.key_hex), from_hex(v.msg_hex)).hex(),
            v.mac_hex);
}

INSTANTIATE_TEST_SUITE_P(Corpus, GeneratedHmac,
                         ::testing::ValuesIn(kGeneratedHmacVectors));

X25519Bytes x25519_hex(std::string_view hex) {
  const Bytes b = from_hex(hex);
  EXPECT_EQ(b.size(), 32u);
  return X25519Bytes::from_view(b);
}

std::string x25519_of(std::string_view scalar_hex, std::string_view u_hex) {
  X25519Bytes out;
  x25519(out, x25519_hex(scalar_hex), x25519_hex(u_hex));
  return out.hex();
}

class GeneratedX25519
    : public ::testing::TestWithParam<GeneratedX25519Vector> {};

TEST_P(GeneratedX25519, MatchesReference) {
  const auto& v = GetParam();
  EXPECT_EQ(x25519_of(v.scalar_hex, v.u_hex), v.out_hex);
}

INSTANTIATE_TEST_SUITE_P(Corpus, GeneratedX25519,
                         ::testing::ValuesIn(kGeneratedX25519Vectors));

// RFC 7748 §5.2, the two single-shot test vectors.
TEST(X25519Rfc7748, SingleVectors) {
  EXPECT_EQ(
      x25519_of(
          "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4",
          "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c"),
      "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
  EXPECT_EQ(
      x25519_of(
          "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d",
          "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493"),
      "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957");
}

// RFC 7748 §5.2 iterated vector: k = u = 9, then k, u = x25519(k, u), k.
TEST(X25519Rfc7748, IteratedVector) {
  X25519Bytes k;
  k.data[0] = 9;
  X25519Bytes u = k;
  for (int i = 1; i <= 1000; ++i) {
    X25519Bytes next;
    x25519(next, k, u);
    u = k;
    k = next;
    if (i == 1) {
      EXPECT_EQ(k.hex(),
                "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae"
                "3079");
    }
  }
  EXPECT_EQ(k.hex(),
            "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c"
            "51");
}

// RFC 7748 §6.1 Alice/Bob exchange, through the DhKeyPair API the secure
// channel uses.
TEST(X25519Rfc7748, DiffieHellmanExchange) {
  const DhKeyPair alice = DhKeyPair::from_exponent(from_hex(
      "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a"));
  const DhKeyPair bob = DhKeyPair::from_exponent(from_hex(
      "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb"));
  EXPECT_EQ(to_hex(alice.public_value()),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a");
  EXPECT_EQ(to_hex(bob.public_value()),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f");
  const std::string shared =
      "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742";
  EXPECT_EQ(to_hex(alice.shared_secret(bob.public_value())), shared);
  EXPECT_EQ(to_hex(bob.shared_secret(alice.public_value())), shared);
}

}  // namespace
}  // namespace sinclave::crypto
