#!/usr/bin/env python3
"""Generate tests/generated_kat.inc — differential known-answer vectors.

The reference implementations are CPython's hashlib/hmac (OpenSSL-backed)
and the `cryptography` package's X25519, independent of every SHA-256,
HMAC and X25519 implementation in this repository. Deterministic: message
bytes, scalars and u-coordinates come from a fixed LCG, not os.urandom.
"""
import hashlib
import hmac
import os

from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey, X25519PublicKey)

OUT = os.path.join(os.path.dirname(__file__), "..", "tests",
                   "generated_kat.inc")

# Message lengths chosen to cover block boundaries, padding edge cases
# (55/56/63/64), multi-block messages, and sizes large enough to exercise
# vectorized paths.
SHA_LENGTHS = [0, 1, 3, 31, 32, 55, 56, 57, 63, 64, 65, 100, 127, 128, 129,
               255, 256, 1000, 4096, 8191]
HMAC_CASES = [(0, 0), (16, 1), (32, 64), (63, 100), (64, 128), (65, 1000),
              (100, 4096)]


P25519 = 2**255 - 19
X25519_RANDOM_CASES = 12


def lcg_bytes(seed: int, n: int) -> bytes:
    state = seed & 0xFFFFFFFF
    out = bytearray()
    for _ in range(n):
        state = (1103515245 * state + 12345) & 0xFFFFFFFF
        out.append((state >> 16) & 0xFF)
    return bytes(out)


def le32(v: int) -> bytes:
    return v.to_bytes(32, "little")


def x25519_cases():
    """(scalar, u) pairs: random ones, non-canonical u >= p, u with the
    ignored top bit set, and unclamped edge scalars."""
    cases = []
    for i in range(X25519_RANDOM_CASES):
        cases.append((lcg_bytes(0x25519000 + i, 32),
                      lcg_bytes(0x25519100 + i, 32)))
    for i, off in enumerate([2, 9, 17, 18]):  # p + 18 == 2^255 - 1
        cases.append((lcg_bytes(0x25519200 + i, 32), le32(P25519 + off)))
    for i in range(4):
        u = bytearray(lcg_bytes(0x25519300 + i, 32))
        u[31] |= 0x80
        cases.append((lcg_bytes(0x25519400 + i, 32), bytes(u)))
    cases.append((lcg_bytes(0x25519500, 32), le32(9 + 2**255)))
    cases.append((bytes(32), lcg_bytes(0x25519600, 32)))
    cases.append((b"\xff" * 32, lcg_bytes(0x25519601, 32)))
    return cases


def x25519_ref(scalar: bytes, u: bytes) -> bytes:
    return X25519PrivateKey.from_private_bytes(scalar).exchange(
        X25519PublicKey.from_public_bytes(u))


def main() -> None:
    lines = []
    lines.append("// Generated by tools/gen_kat.py — do not edit by hand.")
    lines.append("// Reference: CPython hashlib/hmac and the cryptography")
    lines.append("// package's X25519 (independent of this repository's")
    lines.append("// SHA-256 / HMAC / X25519 implementations).")
    lines.append("")
    lines.append("struct GeneratedShaVector {")
    lines.append("  const char* msg_hex;")
    lines.append("  const char* digest_hex;")
    lines.append("};")
    lines.append("")
    lines.append("struct GeneratedHmacVector {")
    lines.append("  const char* key_hex;")
    lines.append("  const char* msg_hex;")
    lines.append("  const char* mac_hex;")
    lines.append("};")
    lines.append("")
    lines.append("struct GeneratedX25519Vector {")
    lines.append("  const char* scalar_hex;")
    lines.append("  const char* u_hex;")
    lines.append("  const char* out_hex;")
    lines.append("};")
    lines.append("")

    lines.append("static const GeneratedShaVector kGeneratedShaVectors[] = {")
    for i, n in enumerate(SHA_LENGTHS):
        msg = lcg_bytes(0xC0FFEE00 + i, n)
        digest = hashlib.sha256(msg).hexdigest()
        lines.append('    {"%s",' % msg.hex())
        lines.append('     "%s"},' % digest)
    lines.append("};")
    lines.append("")

    lines.append("static const GeneratedHmacVector kGeneratedHmacVectors[] = {")
    for i, (klen, mlen) in enumerate(HMAC_CASES):
        key = lcg_bytes(0xBEEF0000 + i, klen)
        msg = lcg_bytes(0xF00D0000 + i, mlen)
        mac = hmac.new(key, msg, hashlib.sha256).hexdigest()
        lines.append('    {"%s",' % key.hex())
        lines.append('     "%s",' % msg.hex())
        lines.append('     "%s"},' % mac)
    lines.append("};")
    lines.append("")

    lines.append(
        "static const GeneratedX25519Vector kGeneratedX25519Vectors[] = {")
    for scalar, u in x25519_cases():
        lines.append('    {"%s",' % scalar.hex())
        lines.append('     "%s",' % u.hex())
        lines.append('     "%s"},' % x25519_ref(scalar, u).hex())
    lines.append("};")
    lines.append("")

    with open(OUT, "w") as f:
        f.write("\n".join(lines))
    print("wrote", os.path.normpath(OUT))


if __name__ == "__main__":
    main()
