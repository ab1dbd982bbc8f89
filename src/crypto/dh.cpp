#include "crypto/dh.h"

#include <cstdint>

#include "common/error.h"

namespace sinclave::crypto {

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

constexpr u64 kMask51 = (u64{1} << 51) - 1;

/// Field element mod p = 2^255 - 19 in radix 2^51: value = sum v[i]·2^(51i).
/// Limbs are kept loosely reduced (each below ~2^54) between operations;
/// only fe_to_bytes produces the canonical value.
struct Fe {
  u64 v[5];
};

Fe fe_add(const Fe& a, const Fe& b) {
  return Fe{{a.v[0] + b.v[0], a.v[1] + b.v[1], a.v[2] + b.v[2],
             a.v[3] + b.v[3], a.v[4] + b.v[4]}};
}

/// a - b + 2p, so no limb underflows for a carried b (limbs < 2^52).
Fe fe_sub(const Fe& a, const Fe& b) {
  constexpr u64 k2p0 = 0xFFFFFFFFFFFDAull;  // 2·(2^51 - 19)
  constexpr u64 k2pi = 0xFFFFFFFFFFFFEull;  // 2·(2^51 - 1)
  return Fe{{a.v[0] + k2p0 - b.v[0], a.v[1] + k2pi - b.v[1],
             a.v[2] + k2pi - b.v[2], a.v[3] + k2pi - b.v[3],
             a.v[4] + k2pi - b.v[4]}};
}

/// Carry 128-bit column sums down to 51-bit limbs; 2^255 ≡ 19 folds the
/// top carry back into limb 0.
Fe fe_carry(u128 r0, u128 r1, u128 r2, u128 r3, u128 r4) {
  Fe h;
  r1 += static_cast<u64>(r0 >> 51);
  h.v[0] = static_cast<u64>(r0) & kMask51;
  r2 += static_cast<u64>(r1 >> 51);
  h.v[1] = static_cast<u64>(r1) & kMask51;
  r3 += static_cast<u64>(r2 >> 51);
  h.v[2] = static_cast<u64>(r2) & kMask51;
  r4 += static_cast<u64>(r3 >> 51);
  h.v[3] = static_cast<u64>(r3) & kMask51;
  h.v[0] += static_cast<u64>(r4 >> 51) * 19;
  h.v[4] = static_cast<u64>(r4) & kMask51;
  h.v[1] += h.v[0] >> 51;
  h.v[0] &= kMask51;
  return h;
}

Fe fe_mul(const Fe& a, const Fe& b) {
  const u64 b1_19 = 19 * b.v[1], b2_19 = 19 * b.v[2], b3_19 = 19 * b.v[3],
            b4_19 = 19 * b.v[4];
  const auto m = [](u64 x, u64 y) { return static_cast<u128>(x) * y; };
  return fe_carry(
      m(a.v[0], b.v[0]) + m(a.v[1], b4_19) + m(a.v[2], b3_19) +
          m(a.v[3], b2_19) + m(a.v[4], b1_19),
      m(a.v[0], b.v[1]) + m(a.v[1], b.v[0]) + m(a.v[2], b4_19) +
          m(a.v[3], b3_19) + m(a.v[4], b2_19),
      m(a.v[0], b.v[2]) + m(a.v[1], b.v[1]) + m(a.v[2], b.v[0]) +
          m(a.v[3], b4_19) + m(a.v[4], b3_19),
      m(a.v[0], b.v[3]) + m(a.v[1], b.v[2]) + m(a.v[2], b.v[1]) +
          m(a.v[3], b.v[0]) + m(a.v[4], b4_19),
      m(a.v[0], b.v[4]) + m(a.v[1], b.v[3]) + m(a.v[2], b.v[2]) +
          m(a.v[3], b.v[1]) + m(a.v[4], b.v[0]));
}

/// a^(2^n).
Fe fe_sq_n(Fe a, int n) {
  for (int i = 0; i < n; ++i) a = fe_mul(a, a);
  return a;
}

Fe fe_mul_small(const Fe& a, u64 k) {
  return fe_carry(static_cast<u128>(a.v[0]) * k, static_cast<u128>(a.v[1]) * k,
                  static_cast<u128>(a.v[2]) * k, static_cast<u128>(a.v[3]) * k,
                  static_cast<u128>(a.v[4]) * k);
}

/// z^(p-2) = z^(2^255 - 21): the usual addition chain (11 multiplies,
/// 254 squarings). Maps 0 to 0.
Fe fe_invert(const Fe& z) {
  const Fe z2 = fe_mul(z, z);                              // 2
  const Fe z9 = fe_mul(fe_sq_n(z2, 2), z);                 // 9
  const Fe z11 = fe_mul(z9, z2);                           // 11
  const Fe z_5_0 = fe_mul(fe_sq_n(z11, 1), z9);            // 2^5 - 1
  const Fe z_10_0 = fe_mul(fe_sq_n(z_5_0, 5), z_5_0);      // 2^10 - 1
  const Fe z_20_0 = fe_mul(fe_sq_n(z_10_0, 10), z_10_0);   // 2^20 - 1
  const Fe z_40_0 = fe_mul(fe_sq_n(z_20_0, 20), z_20_0);   // 2^40 - 1
  const Fe z_50_0 = fe_mul(fe_sq_n(z_40_0, 10), z_10_0);   // 2^50 - 1
  const Fe z_100_0 = fe_mul(fe_sq_n(z_50_0, 50), z_50_0);  // 2^100 - 1
  const Fe z_200_0 = fe_mul(fe_sq_n(z_100_0, 100), z_100_0);
  const Fe z_250_0 = fe_mul(fe_sq_n(z_200_0, 50), z_50_0);
  return fe_mul(fe_sq_n(z_250_0, 5), z11);  // 2^255 - 32 + 11
}

/// Swap a and b iff swap == 1, without a branch on it.
void fe_cswap(Fe& a, Fe& b, u64 swap) {
  const u64 mask = u64{0} - swap;
  for (int i = 0; i < 5; ++i) {
    const u64 t = mask & (a.v[i] ^ b.v[i]);
    a.v[i] ^= t;
    b.v[i] ^= t;
  }
}

u64 load_le64(const std::uint8_t* p) {
  u64 x = 0;
  for (int i = 7; i >= 0; --i) x = (x << 8) | p[i];
  return x;
}

/// Decode a u-coordinate: 255 bits little-endian, top bit ignored. Values
/// in [p, 2^255) stay non-canonical limbs and reduce through arithmetic.
Fe fe_from_bytes(const X25519Bytes& s) {
  const std::uint8_t* p = s.begin();
  return Fe{{load_le64(p) & kMask51, (load_le64(p + 6) >> 3) & kMask51,
             (load_le64(p + 12) >> 6) & kMask51,
             (load_le64(p + 19) >> 1) & kMask51,
             (load_le64(p + 24) >> 12) & kMask51}};
}

/// Fully reduce to [0, p) and encode little-endian.
void fe_to_bytes(X25519Bytes& out, const Fe& f) {
  u64 t[5] = {f.v[0], f.v[1], f.v[2], f.v[3], f.v[4]};
  const auto carry_wrap = [&t] {
    for (int i = 0; i < 4; ++i) {
      t[i + 1] += t[i] >> 51;
      t[i] &= kMask51;
    }
    t[0] += 19 * (t[4] >> 51);
    t[4] &= kMask51;
  };
  carry_wrap();
  carry_wrap();
  // Now t < 2^255 with every limb < 2^51 (limb 0 possibly a hair above).
  // Adding 19 crosses 2^255 exactly when t >= p, and the wrap folds that
  // back, so t becomes (t mod p) + 19 either way; adding 2^255 - 19 more
  // and dropping bit 255 leaves t mod p.
  t[0] += 19;
  carry_wrap();
  t[0] += (u64{1} << 51) - 19;
  for (int i = 1; i < 5; ++i) t[i] += (u64{1} << 51) - 1;
  for (int i = 0; i < 4; ++i) {
    t[i + 1] += t[i] >> 51;
    t[i] &= kMask51;
  }
  t[4] &= kMask51;

  const u64 words[4] = {t[0] | (t[1] << 51), (t[1] >> 13) | (t[2] << 38),
                        (t[2] >> 26) | (t[3] << 25),
                        (t[3] >> 39) | (t[4] << 12)};
  for (int w = 0; w < 4; ++w)
    for (int b = 0; b < 8; ++b)
      out.data[static_cast<std::size_t>(8 * w + b)] =
          static_cast<std::uint8_t>(words[w] >> (8 * b));
}

}  // namespace

void x25519(X25519Bytes& out, const X25519Bytes& scalar,
            const X25519Bytes& u) {
  X25519Bytes k = scalar;
  k.data[0] &= 248;
  k.data[31] &= 127;
  k.data[31] |= 64;

  const Fe x1 = fe_from_bytes(u);
  Fe x2{{1, 0, 0, 0, 0}};
  Fe z2{{0, 0, 0, 0, 0}};
  Fe x3 = x1;
  Fe z3{{1, 0, 0, 0, 0}};
  u64 swap = 0;
  for (int t = 254; t >= 0; --t) {
    const u64 k_t = (k.data[static_cast<std::size_t>(t >> 3)] >> (t & 7)) & 1;
    swap ^= k_t;
    fe_cswap(x2, x3, swap);
    fe_cswap(z2, z3, swap);
    swap = k_t;

    const Fe a = fe_add(x2, z2);
    const Fe aa = fe_mul(a, a);
    const Fe b = fe_sub(x2, z2);
    const Fe bb = fe_mul(b, b);
    const Fe e = fe_sub(aa, bb);
    const Fe c = fe_add(x3, z3);
    const Fe d = fe_sub(x3, z3);
    const Fe da = fe_mul(d, a);
    const Fe cb = fe_mul(c, b);
    const Fe sum = fe_add(da, cb);
    const Fe diff = fe_sub(da, cb);
    x3 = fe_mul(sum, sum);
    z3 = fe_mul(x1, fe_mul(diff, diff));
    x2 = fe_mul(aa, bb);
    z2 = fe_mul(e, fe_add(aa, fe_mul_small(e, 121665)));  // a24
  }
  fe_cswap(x2, x3, swap);
  fe_cswap(z2, z3, swap);
  fe_to_bytes(out, fe_mul(x2, fe_invert(z2)));
}

DhKeyPair DhKeyPair::generate(Drbg& rng) {
  return from_exponent(rng.generate(kExponentBytes));
}

DhKeyPair DhKeyPair::from_exponent(ByteView exponent_bytes) {
  if (exponent_bytes.size() != kExponentBytes)
    throw Error("dh: exponent must be exactly kExponentBytes");
  X25519Bytes base_point;
  base_point.data[0] = 9;  // RFC 7748 §4.1: u = 9
  DhKeyPair kp;
  kp.scalar_ = X25519Bytes::from_view(exponent_bytes);
  x25519(kp.public_, kp.scalar_, base_point);
  return kp;
}

Bytes DhKeyPair::public_value() const { return public_.to_vector(); }

Bytes DhKeyPair::shared_secret(ByteView peer_public) const {
  if (peer_public.size() != X25519Bytes::size())
    throw Error("dh: peer public value must be exactly 32 bytes");
  X25519Bytes secret;
  x25519(secret, scalar_, X25519Bytes::from_view(peer_public));
  std::uint8_t acc = 0;
  for (const std::uint8_t byte : secret.data) acc |= byte;
  if (acc == 0) throw Error("dh: low-order peer public value");
  return secret.to_vector();
}

}  // namespace sinclave::crypto
