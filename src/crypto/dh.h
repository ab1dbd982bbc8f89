// X25519 Diffie-Hellman (RFC 7748) over Curve25519.
//
// Provides the key agreement for the attested secure channel (net/
// secure_channel.h) — the stand-in for the TLS/wireguard channels the
// paper's systems (SCONE CAS, SGX-LKL) bind to attestation reports. The
// paper depends on no particular group; X25519 is what TLS 1.3 and QUIC
// handshakes use by default.
#pragma once

#include "common/bytes.h"
#include "crypto/drbg.h"

namespace sinclave::crypto {

/// Scalars, u-coordinates and shared secrets are all 32 bytes,
/// little-endian (RFC 7748 §5).
using X25519Bytes = FixedBytes<32>;

/// RFC 7748 §5 X25519 function: clamps `scalar`, masks the top bit of
/// `u` (non-canonical u >= p is accepted and reduced, as the RFC
/// requires), and writes the u-coordinate of scalar·u to `out`. Montgomery
/// ladder with a mask-based constant-time swap; no heap allocation.
void x25519(X25519Bytes& out, const X25519Bytes& scalar,
            const X25519Bytes& u);

/// One party's ephemeral key pair.
class DhKeyPair {
 public:
  /// Ephemeral scalar width (RFC 7748: 32 random bytes, clamped on use).
  static constexpr std::size_t kExponentBytes = 32;

  /// Generate an ephemeral key from kExponentBytes DRBG bytes.
  static DhKeyPair generate(Drbg& rng);

  /// Deterministic construction from kExponentBytes caller-drawn scalar
  /// bytes. Lets callers hold their DRBG lock only for the draw and run
  /// the scalar multiplication lock-free;
  /// generate(rng) == from_exponent(rng.generate(kExponentBytes)).
  static DhKeyPair from_exponent(ByteView exponent_bytes);

  /// Public value scalar·9, the 32-byte little-endian u-coordinate.
  Bytes public_value() const;

  /// Shared secret scalar·peer. Throws Error if the peer value is not
  /// exactly 32 bytes, or if the result is all zero — a low-order peer
  /// point (RFC 7748 §6.1).
  Bytes shared_secret(ByteView peer_public) const;

 private:
  X25519Bytes scalar_;
  X25519Bytes public_;
};

}  // namespace sinclave::crypto
