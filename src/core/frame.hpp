// Versioned binary wire frames (the transport layer under every Message).
//
// The seed era shipped Messages as the raw struct encoding of
// core/messages.cpp: no magic, no version, no length — fine for an
// in-process object handoff, unusable the moment the bytes cross a socket
// ("Building on Quicksand": every message is at-least-once-delivered bytes
// on a wire). FrameCodec wraps every MsgType in a self-describing frame and
// owns the encoding-version negotiation:
//
//  * kLegacy (v0): byte-identical to the seed encoding, unframed. The first
//    wire byte is the MsgType (1..6), which can never collide with the v1
//    magic byte. Simulated ftbb runs default to this so the pinned golden
//    ScenarioReport fingerprints (which hash byte counts) stay valid.
//
//  * kV1: a framed, length-prefixed encoding —
//
//        offset  field            size
//        0       magic 0xFB       1 byte
//        1       version (1)      1 byte
//        2       MsgType          1 byte
//        3       payload length   varint
//        ...     payload          `length` bytes
//
//    with a payload that delta-encodes kWorkReport / kTableGossip code
//    lists: each code is shipped as (trim, add, steps...) against the
//    previous code in the chain, and the chain itself starts from the last
//    code of the sender's *previous* report (the shipped base), so
//    consecutive batches from one worker — which the contraction machinery
//    keeps sorted and clustered — cost a handful of bytes per code. The
//    base travels in the frame, so every report is self-delimiting and
//    decodable by any receiver (reports fan out to m random peers over
//    lossy links; receiver-side delta state would strand most of them).
//
// Sender-side delta memory lives in a ReportDeltaState owned by the
// transport, one per worker *incarnation*: the simulator's WorkerHost
// resets it on revive() and the rt runtime's Incarnation simply dies with
// it, so a revived worker never deltas against a dead predecessor's last
// report — its first post-revive report has wire sequence 0 and no base.
//
// Decoding never trusts the input: corrupt, truncated, oversized-count, or
// unknown-version frames come back as a DecodeStatus the transport can drop
// and count, never an abort or an over-allocation.
#pragma once

#include <cstdint>
#include <vector>

#include "core/messages.hpp"
#include "support/bytes.hpp"

namespace ftbb::core {

enum class FrameVersion : std::uint8_t {
  kLegacy = 0,  // seed-era flat encoding, unframed
  kV1 = 1,      // magic/version/type/length frame, delta-coded reports
};

[[nodiscard]] const char* to_string(FrameVersion version);

/// First byte of every v1 frame. Legacy frames start with their MsgType
/// (1..6), so the sniffer in decode() can tell the formats apart.
inline constexpr std::uint8_t kFrameMagic = 0xFB;

enum class DecodeStatus : std::uint8_t {
  kOk = 0,
  kTruncated = 1,        // input ended inside the header or payload
  kBadMagic = 2,         // neither a v1 magic nor a legacy MsgType byte
  kUnknownVersion = 3,   // v1 magic followed by a version we do not speak
  kUnknownType = 4,      // framed type outside the MsgType enum
  kCorruptPayload = 5,   // payload failed validation (counts, depths, deltas)
  kLengthMismatch = 6,   // declared payload length != bytes on the wire
};

[[nodiscard]] const char* to_string(DecodeStatus status);

/// Per-sender (per-incarnation) delta memory for report frames. The codec
/// advances it once per Message::report_seq value, so the m fanout copies
/// of one batch encode identically; frame_size() and encode() advance it
/// through the same path and are idempotent for a repeated batch. It holds
/// the batches themselves (shared, never copied); an empty batch does not
/// replace `cur`.
struct ReportDeltaState {
  bool active = false;        // a report batch has been encoded this incarnation
  std::uint64_t seq = 0;      // wire sequence of the current batch (0-based)
  std::uint64_t batch_id = 0; // Message::report_seq of the current batch
  CodeList prev;  // delta base: prev.back(), or the root code when empty
  CodeList cur;   // the last non-empty batch so far

  void reset() { *this = ReportDeltaState{}; }
};

struct FrameDecode {
  DecodeStatus status = DecodeStatus::kTruncated;
  FrameVersion version = FrameVersion::kLegacy;
  Message msg;

  [[nodiscard]] bool ok() const { return status == DecodeStatus::kOk; }
};

class FrameCodec {
 public:
  explicit FrameCodec(FrameVersion version = FrameVersion::kLegacy)
      : version_(version) {}

  [[nodiscard]] FrameVersion version() const { return version_; }

  /// Encodes one frame of the configured version, advancing `state` for
  /// report/gossip messages (nullptr: stateless, every report ships
  /// self-contained with sequence 0).
  void encode(const Message& msg, ReportDeltaState* state,
              support::ByteWriter& w) const;

  /// Exact frame size in bytes via a counting writer — no allocation. The L
  /// of the paper's 1.5 + 0.005*L ms latency charge under this codec.
  /// Advances `state` identically to encode().
  [[nodiscard]] std::size_t frame_size(const Message& msg,
                                       ReportDeltaState* state) const;

  /// Decodes one frame of either version (sniffed from the first byte).
  /// Never aborts, never over-allocates: any malformed input returns a
  /// non-kOk status the transport can drop and count.
  [[nodiscard]] static FrameDecode decode(const std::uint8_t* data,
                                          std::size_t size);
  [[nodiscard]] static FrameDecode decode(const std::vector<std::uint8_t>& buf);

 private:
  FrameVersion version_;
};

}  // namespace ftbb::core
