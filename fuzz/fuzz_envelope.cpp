// Envelope and protocol-message decoding.
//
// Properties:
//  1. Exception confinement: every deserializer rejects garbage with a
//     typed ParseError/Error — never std::length_error, bad_alloc, or
//     anything else (lint rule: frontends catch `const Error&` only).
//  2. Re-serialization stability: when a decode succeeds, serializing the
//     result and decoding it again yields the same bytes — the decoder
//     produced a value the encoder agrees on (one canonical form).
//  3. The frame servers (serve_instance_frame, serve_config_frame,
//     decode_attest_payload) never throw AT ALL: malformed input must
//     become a typed wire answer, not an exception.
#include "harnesses.h"

#include <string>

#include "cas/protocol.h"
#include "common/error.h"
#include "common/serial.h"
#include "fuzz_util.h"

namespace sinclave::fuzz {
namespace {

using cas::Envelope;

/// Run `decode` on `input`; only typed errors may escape. Returns whether
/// the decode succeeded.
template <typename Decode>
bool typed_only(const Bytes& input, const Decode& decode) {
  try {
    decode(ByteView(input));
    return true;
  } catch (const Error&) {
    return false;  // ParseError derives from Error: the allowed rejection
  }
  // Anything else unwinds out of the harness and crashes the fuzzer —
  // which is the point.
}

/// Decode, re-encode, decode again; the two encodings must agree.
template <typename T>
void stable(const Bytes& input) {
  typed_only(input, [](ByteView raw) {
    const T first = T::deserialize(raw);
    const Bytes once = first.serialize();
    const T second = T::deserialize(once);
    require(second.serialize() == once,
            "serialize(deserialize(b)) not a fixed point");
  });
}

}  // namespace

int run_envelope(const std::uint8_t* data, std::size_t size) {
  FuzzInput in(data, size);
  const std::uint8_t mode = in.u8();
  const Bytes input = in.rest();

  switch (mode % 13) {
    case 0: {
      // Envelope framing itself, plus the cheap header peeks, which must
      // agree with the full decode whenever the full decode succeeds.
      typed_only(input, [&input](ByteView raw) {
        const Envelope e = Envelope::deserialize(raw);
        require(Envelope::matches(raw), "decoded envelope without magic");
        const auto peeked = Envelope::peek_request_id(raw);
        require(peeked.has_value() && *peeked == e.request_id,
                "peek_request_id disagrees with full decode");
        const Bytes once = e.serialize();
        require(Envelope::deserialize(once).serialize() == once,
                "envelope re-serialization unstable");
      });
      (void)Envelope::matches(input);
      (void)Envelope::peek_request_id(input);
      break;
    }
    case 1:
      stable<cas::AppConfig>(input);
      break;
    case 2:
      stable<cas::InstanceRequest>(input);
      break;
    case 3:
    case 4:  // mode numbers stay put (reproducers name them): 4 aliases 3
      stable<cas::InstanceResponse>(input);
      break;
    case 5:
      stable<cas::AttestPayload>(input);
      break;
    case 6:
    case 7:  // 7 aliases 6, likewise
      stable<cas::ConfigResponse>(input);
      break;
    case 8:
      stable<cas::IntrospectRequest>(input);
      break;
    case 9:
      stable<cas::IntrospectResponse>(input);
      break;
    case 10: {
      // The instance-endpoint frame server: must never throw, and must
      // always produce a non-empty answer (a frontend never goes silent).
      const auto handler = [](const cas::InstanceRequest&) {
        cas::InstanceResponse resp;
        resp.status = Status(StatusCode::kOk);
        return resp;
      };
      const auto introspect = [](const cas::IntrospectRequest&) {
        cas::IntrospectResponse resp;
        resp.status = Status(StatusCode::kOk);
        resp.metrics = "{}";
        return resp;
      };
      cas::FrameInfo info;
      const Bytes answer =
          cas::serve_instance_frame(input, handler, introspect, &info);
      require(!answer.empty(), "frame server produced an empty answer");
      break;
    }
    case 11: {
      const auto handler = [] {
        cas::ConfigResponse resp;
        resp.status = Status(StatusCode::kOk);
        resp.config.program = "p";
        return resp;
      };
      cas::FrameInfo info;
      const Bytes answer = cas::serve_config_frame(input, handler, &info);
      require(!answer.empty(), "config frame server went silent");
      break;
    }
    case 12: {
      // decode_attest_payload returns nullopt on garbage — never throws —
      // and a refusal always carries a status.
      cas::FrameInfo info;
      const auto payload = cas::decode_attest_payload(input, &info);
      require(payload.has_value() == (info.status == StatusCode::kOk),
              "attest decode outcome disagrees with its frame status");
      break;
    }
  }
  return 0;
}

}  // namespace sinclave::fuzz
