// Differential oracle for the Montgomery fast paths and X25519.
//
// The Montgomery context (fixed-window exponentiation, CIOS multiply,
// fold-based reduction) is the optimized engine under every RSA operation
// in the repository; its reference is a naive square-and-multiply over
// BigInt's schoolbook multiply and long division — two independent code
// paths that must agree on every input. Operand sizes are clamped
// (modulus <= 24 bytes, exponent <= 8) so one iteration stays
// microseconds, letting the fuzzer explore limb-boundary shapes instead
// of burning time on huge numbers.
//
// Mode 5 checks the channel's X25519 (radix-2^51 limbs, crypto/dh.cpp)
// against the RFC 7748 §5 ladder written over BigInt mod 2^255 - 19 with
// the same schoolbook multiply and long division, plus Montgomery::exp
// for the final inversion — again two code paths sharing nothing.
#include "harnesses.h"

#include <utility>

#include "common/error.h"
#include "crypto/bignum.h"
#include "crypto/dh.h"
#include "fuzz_util.h"

namespace sinclave::fuzz {
namespace {

using crypto::BigInt;
using crypto::Montgomery;
using crypto::X25519Bytes;

/// Square-and-multiply over schoolbook ops only — no Montgomery anywhere.
BigInt naive_mod_exp(const BigInt& base, const BigInt& exp, const BigInt& m) {
  BigInt result = BigInt(1).mod(m);
  const BigInt b = base.mod(m);
  for (std::size_t i = exp.bit_length(); i-- > 0;) {
    result = (result * result).mod(m);
    if (exp.bit(i)) result = (result * b).mod(m);
  }
  return result;
}

const BigInt& p25519() {
  static const BigInt p = (BigInt(1) << 255) - BigInt(19);
  return p;
}

BigInt from_le(const X25519Bytes& b) {
  return BigInt::from_bytes_be(Bytes(b.data.rbegin(), b.data.rend()));
}

X25519Bytes to_le(const BigInt& v) {
  const Bytes be = v.to_bytes_be(32);
  return X25519Bytes::from_view(Bytes(be.rbegin(), be.rend()));
}

/// RFC 7748 §5 ladder, spelled out over BigInt: clamp, mask the u top
/// bit, reduce u mod p, and branch on the swap bit (a reference need not
/// be constant-time).
X25519Bytes reference_x25519(const X25519Bytes& scalar, X25519Bytes u) {
  const BigInt& p = p25519();
  X25519Bytes k = scalar;
  k.data[0] &= 248;
  k.data[31] &= 127;
  k.data[31] |= 64;
  u.data[31] &= 127;
  const BigInt kk = from_le(k);
  const BigInt x1 = from_le(u).mod(p);
  const auto add = [&p](const BigInt& a, const BigInt& b) {
    return (a + b).mod(p);
  };
  const auto sub = [&p](const BigInt& a, const BigInt& b) {
    return (a + p - b).mod(p);
  };
  const auto mul = [&p](const BigInt& a, const BigInt& b) {
    return (a * b).mod(p);
  };
  BigInt x2 = 1, z2 = 0, x3 = x1, z3 = 1;
  bool swap = false;
  for (std::size_t t = 255; t-- > 0;) {
    const bool k_t = kk.bit(t);
    if (swap != k_t) {
      std::swap(x2, x3);
      std::swap(z2, z3);
    }
    swap = k_t;
    const BigInt a = add(x2, z2), aa = mul(a, a);
    const BigInt b = sub(x2, z2), bb = mul(b, b);
    const BigInt e = sub(aa, bb);
    const BigInt c = add(x3, z3), d = sub(x3, z3);
    const BigInt da = mul(d, a), cb = mul(c, b);
    const BigInt sum = add(da, cb), diff = sub(da, cb);
    x3 = mul(sum, sum);
    z3 = mul(x1, mul(diff, diff));
    x2 = mul(aa, bb);
    z2 = mul(e, add(aa, mul(BigInt(121665), e)));
  }
  if (swap) {
    std::swap(x2, x3);
    std::swap(z2, z3);
  }
  const Montgomery mont(p);
  return to_le(mul(x2, mont.exp(z2, p - BigInt(2))));
}

/// A fuzz-chosen u-coordinate, biased toward the encodings a careless
/// decoder gets wrong: raw bytes, non-canonical p + small, top bit set.
X25519Bytes fuzz_u(FuzzInput& in) {
  const std::uint8_t shape = in.u8();
  X25519Bytes u = X25519Bytes::from_view(in.take(32));
  switch (shape % 3) {
    case 1:
      u = to_le(p25519() + BigInt(u.data[0] % 19));
      break;
    case 2:
      u.data[31] |= 0x80;
      break;
  }
  return u;
}

BigInt odd_modulus(FuzzInput& in, std::size_t max_bytes) {
  BigInt m = BigInt::from_bytes_be(in.take(1 + in.below(
      static_cast<std::uint32_t>(max_bytes))));
  if (!m.is_odd()) m = m + 1;
  if (m <= 1) m = 3;
  return m;
}

}  // namespace

int run_bignum_diff(const std::uint8_t* data, std::size_t size) {
  FuzzInput in(data, size);
  const std::uint8_t mode = in.u8();

  switch (mode % 6) {
    case 0: {
      const BigInt m = odd_modulus(in, 24);
      const BigInt base = BigInt::from_bytes_be(in.take(1 + in.below(48)));
      const BigInt exp = BigInt::from_bytes_be(in.take(1 + in.below(8)));
      const Montgomery mont(m);
      require(mont.exp(base, exp) == naive_mod_exp(base, exp, m),
              "Montgomery exp disagrees with naive square-and-multiply");
      break;
    }
    case 1: {
      const BigInt m = odd_modulus(in, 24);
      const BigInt base = BigInt::from_bytes_be(in.take(1 + in.below(48)));
      const std::uint64_t e = in.u64();
      const Montgomery mont(m);
      require(mont.exp_u64(base, e) == naive_mod_exp(base, BigInt(e), m),
              "Montgomery exp_u64 disagrees with naive reference");
      break;
    }
    case 2: {
      const BigInt m = odd_modulus(in, 24);
      const BigInt a = BigInt::from_bytes_be(in.take(1 + in.below(48)));
      const BigInt b = BigInt::from_bytes_be(in.take(1 + in.below(48)));
      const Montgomery mont(m);
      require(mont.mul_mod(a, b) == (a * b).mod(m),
              "Montgomery mul_mod disagrees with schoolbook multiply");
      break;
    }
    case 3: {
      const BigInt m = odd_modulus(in, 24);
      const BigInt v = BigInt::from_bytes_be(in.take(1 + in.below(96)));
      const Montgomery mont(m);
      require(mont.reduce(v) == v.mod(m),
              "Montgomery fold-reduction disagrees with long division");
      break;
    }
    case 4: {
      // BigInt::mod_exp dispatches to Montgomery for odd moduli and plain
      // square-and-multiply for even ones; both routes must match the
      // naive reference, and mod_inverse must actually invert.
      BigInt m = BigInt::from_bytes_be(in.take(1 + in.below(24)));
      if (m <= 1) m = 4;
      const BigInt base = BigInt::from_bytes_be(in.take(1 + in.below(48)));
      const BigInt exp = BigInt::from_bytes_be(in.take(1 + in.below(8)));
      require(BigInt::mod_exp(base, exp, m) == naive_mod_exp(base, exp, m),
              "BigInt::mod_exp disagrees with naive reference");
      try {
        const BigInt inv = BigInt::mod_inverse(base, m);
        require((base * inv).mod(m) == BigInt(1).mod(m),
                "mod_inverse result is not an inverse");
      } catch (const Error&) {
        // gcd(base, m) != 1 — a typed refusal is the documented outcome.
      }
      break;
    }
    case 5: {
      const X25519Bytes scalar = X25519Bytes::from_view(in.take(32));
      const X25519Bytes u = fuzz_u(in);
      X25519Bytes out;
      crypto::x25519(out, scalar, u);
      require(out == reference_x25519(scalar, u),
              "x25519 disagrees with the BigInt reference ladder");
      // DH symmetry: both orders of the two scalars meet at one secret.
      const X25519Bytes peer = X25519Bytes::from_view(in.take(32));
      X25519Bytes base, pub, peer_pub, shared, peer_shared;
      base.data[0] = 9;
      crypto::x25519(pub, scalar, base);
      crypto::x25519(peer_pub, peer, base);
      crypto::x25519(shared, scalar, peer_pub);
      crypto::x25519(peer_shared, peer, pub);
      require(shared == peer_shared, "x25519 key agreement is asymmetric");
      break;
    }
  }
  return 0;
}

}  // namespace sinclave::fuzz
