#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/code_set.hpp"
#include "core/frame.hpp"
#include "core/messages.hpp"
#include "support/rng.hpp"

namespace ftbb::core {
namespace {

Message round_trip(const Message& m) {
  support::ByteWriter w;
  m.encode(w);
  EXPECT_EQ(w.size(), m.wire_size());
  support::ByteReader r(w.data());
  Message out = Message::decode(r);
  EXPECT_TRUE(r.done());
  return out;
}

TEST(Messages, WorkRequestRoundTrip) {
  Message m;
  m.type = MsgType::kWorkRequest;
  m.from = 17;
  m.best_known = -123.5;
  m.request_id = 42;
  const Message out = round_trip(m);
  EXPECT_EQ(out.type, MsgType::kWorkRequest);
  EXPECT_EQ(out.from, 17u);
  EXPECT_EQ(out.best_known, -123.5);
  EXPECT_EQ(out.request_id, 42u);
}

TEST(Messages, InfinityIncumbentSurvives) {
  Message m;
  m.type = MsgType::kWorkDeny;
  m.best_known = bnb::kInfinity;
  EXPECT_EQ(round_trip(m).best_known, bnb::kInfinity);
}

TEST(Messages, WorkGrantCarriesProblems) {
  Message m;
  m.type = MsgType::kWorkGrant;
  m.from = 3;
  m.best_known = 9.0;
  m.request_id = 7;
  m.problems.push_back(
      bnb::Subproblem{PathCode::root().child(1, false), -15.25});
  m.problems.push_back(
      bnb::Subproblem{PathCode::root().child(1, true).child(4, true), -7.5});
  const Message out = round_trip(m);
  ASSERT_EQ(out.problems.size(), 2u);
  EXPECT_EQ(out.problems[0].code, m.problems[0].code);
  EXPECT_EQ(out.problems[0].bound, -15.25);
  EXPECT_EQ(out.problems[1].code, m.problems[1].code);
}

TEST(Messages, WorkReportCarriesCodes) {
  Message m;
  m.type = MsgType::kWorkReport;
  m.from = 1;
  m.best_known = 2.5;
  m.codes = {PathCode::root().child(2, true),
             PathCode::root().child(2, false).child(3, true)};
  const Message out = round_trip(m);
  const std::vector<PathCode> got = out.codes.to_vector();
  const std::vector<PathCode> want = m.codes.to_vector();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], want[0]);
  EXPECT_EQ(got[1], want[1]);
}

TEST(Messages, RootReportIsTheRootCode) {
  Message m;
  m.type = MsgType::kRootReport;
  m.codes = {PathCode::root()};
  const Message out = round_trip(m);
  ASSERT_EQ(out.codes.size(), 1u);
  EXPECT_TRUE(out.codes.back().is_root());
}

TEST(Messages, TableGossipRoundTrip) {
  Message m;
  m.type = MsgType::kTableGossip;
  std::vector<PathCode> codes;
  for (std::uint32_t i = 0; i < 50; ++i) {
    codes.push_back(PathCode::root().child(i, i % 2 == 0));
  }
  m.codes = CodeList(std::move(codes));
  EXPECT_EQ(round_trip(m).codes.size(), 50u);
}

TEST(Messages, WireSizeGrowsWithPayload) {
  Message small;
  small.type = MsgType::kWorkReport;
  std::vector<PathCode> codes{PathCode::root().child(1, false)};
  small.codes = CodeList(codes);
  Message large = small;
  for (std::uint32_t i = 0; i < 20; ++i) {
    codes.push_back(PathCode::root().child(1, true).child(i + 2, false));
  }
  large.codes = CodeList(std::move(codes));
  EXPECT_GT(large.wire_size(), small.wire_size());
}

TEST(Messages, RequestIsSmall) {
  // Control messages should cost little under the 0.005 ms/byte model.
  Message m;
  m.type = MsgType::kWorkRequest;
  m.from = 1000;
  m.request_id = 100000;
  EXPECT_LE(m.wire_size(), 20u);
}

TEST(Messages, SummaryMentionsTypeAndCounts) {
  Message m;
  m.type = MsgType::kWorkGrant;
  m.from = 2;
  m.problems.push_back(bnb::Subproblem{PathCode::root().child(1, false), 0.0});
  const std::string s = m.summary();
  EXPECT_NE(s.find("work-grant"), std::string::npos);
  EXPECT_NE(s.find("problems=1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Frame codec: property round-trips and decode robustness (core/frame.hpp).
// ---------------------------------------------------------------------------

PathCode random_code(support::Rng& rng, std::size_t max_depth = 12) {
  PathCode c = PathCode::root();
  const std::size_t depth = rng.pick(max_depth + 1);
  for (std::size_t i = 0; i < depth; ++i) {
    c = c.child(static_cast<std::uint32_t>(rng.pick(40)), rng.chance(0.5));
  }
  return c;
}

Message random_message(support::Rng& rng) {
  Message m;
  m.type = static_cast<MsgType>(1 + rng.pick(6));
  m.from = static_cast<NodeId>(rng.pick(1 << 20));
  m.request_id = rng.next() >> rng.pick(64);
  m.best_known = rng.chance(0.2) ? bnb::kInfinity : rng.uniform(-1e6, 1e6);
  switch (m.type) {
    case MsgType::kWorkRequest:
      break;
    case MsgType::kWorkDeny:
      m.busy = rng.chance(0.5);
      break;
    case MsgType::kWorkGrant:
      for (std::size_t i = 0, n = rng.pick(6); i < n; ++i) {
        m.problems.push_back(
            bnb::Subproblem{random_code(rng), rng.uniform(-1e3, 1e3)});
      }
      break;
    case MsgType::kWorkReport:
    case MsgType::kTableGossip:
      m.report_seq = 1 + rng.pick(100);
      [[fallthrough]];
    case MsgType::kRootReport: {
      std::vector<PathCode> codes;
      for (std::size_t i = 0, n = rng.pick(10); i < n; ++i) {
        codes.push_back(random_code(rng));
      }
      m.codes = CodeList(std::move(codes));
      break;
    }
  }
  return m;
}

/// Field-by-field equality over everything each type puts on the wire
/// (report_seq is transport bookkeeping, not content, and is excluded).
void expect_same_content(const Message& a, const Message& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.from, b.from);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.best_known),
            std::bit_cast<std::uint64_t>(b.best_known));
  EXPECT_EQ(a.request_id, b.request_id);
  if (a.type == MsgType::kWorkDeny) EXPECT_EQ(a.busy, b.busy);
  ASSERT_EQ(a.problems.size(), b.problems.size());
  for (std::size_t i = 0; i < a.problems.size(); ++i) {
    EXPECT_EQ(a.problems[i].code, b.problems[i].code);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.problems[i].bound),
              std::bit_cast<std::uint64_t>(b.problems[i].bound));
  }
  EXPECT_EQ(a.codes, b.codes);
}

std::vector<std::uint8_t> encode_frame(const FrameCodec& codec,
                                       const Message& m,
                                       ReportDeltaState* state) {
  support::ByteWriter w;
  codec.encode(m, state, w);
  return std::move(w.data());
}

TEST(Frames, RandomMessagesSurviveBothVersions) {
  support::Rng rng(20260808);
  const FrameCodec legacy(FrameVersion::kLegacy);
  const FrameCodec v1(FrameVersion::kV1);
  for (int trial = 0; trial < 400; ++trial) {
    const Message m = random_message(rng);
    {
      const auto buf = encode_frame(legacy, m, nullptr);
      const FrameDecode d = FrameCodec::decode(buf);
      ASSERT_TRUE(d.ok()) << to_string(d.status);
      EXPECT_EQ(d.version, FrameVersion::kLegacy);
      expect_same_content(m, d.msg);
    }
    {
      ReportDeltaState state;
      const auto buf = encode_frame(v1, m, &state);
      const FrameDecode d = FrameCodec::decode(buf);
      ASSERT_TRUE(d.ok()) << to_string(d.status);
      EXPECT_EQ(d.version, FrameVersion::kV1);
      expect_same_content(m, d.msg);
    }
  }
}

TEST(Frames, CountingSizeMatchesEncodedSize) {
  support::Rng rng(7);
  for (const FrameVersion version :
       {FrameVersion::kLegacy, FrameVersion::kV1}) {
    const FrameCodec codec(version);
    // Two states advanced in lockstep: frame_size() must walk the same
    // delta-state path as encode() for a chained report stream.
    ReportDeltaState counted, encoded;
    for (int trial = 0; trial < 200; ++trial) {
      const Message m = random_message(rng);
      const std::size_t counted_size = codec.frame_size(m, &counted);
      const auto buf = encode_frame(codec, m, &encoded);
      EXPECT_EQ(counted_size, buf.size()) << to_string(version);
    }
  }
}

/// A code up to 80 steps deep (past the 32 inline words), with variables
/// drawn so step words need 1, 2 (var >= 64), 3 (var >= 8192) or 5 bytes.
PathCode wide_code(support::Rng& rng) {
  static constexpr std::uint32_t kVarCaps[] = {64, 8192, 1u << 20,
                                               PathCode::kMaxVar};
  PathCode c = PathCode::root();
  const std::size_t depth = rng.pick(81);
  for (std::size_t i = 0; i < depth; ++i) {
    const std::uint32_t cap = kVarCaps[rng.pick(4)];
    c.push_step(static_cast<std::uint32_t>(rng.pick(cap)), rng.chance(0.5));
  }
  return c;
}

/// A node of one fixed search tree, which branches at depth i on a
/// variable that depends on i alone, so any set of these codes can go into
/// one CodeSet. It descends from `base` below a random prefix of it, down
/// to depth 80; step words need 1 to 5 bytes.
PathCode tree_code(support::Rng& rng, const PathCode& base) {
  static constexpr std::uint32_t kVarCaps[] = {64, 8192, 1u << 20,
                                               PathCode::kMaxVar};
  PathCode c = base.prefix(rng.pick(base.depth() + 1));
  const std::size_t depth = c.depth() + rng.pick(81 - c.depth());
  for (std::size_t i = c.depth(); i < depth; ++i) {
    c.push_step(static_cast<std::uint32_t>((i * 2654435761u) % kVarCaps[i % 4]),
                rng.chance(0.5));
  }
  return c;
}

/// A table's export after `n` more random tree codes went in: front-coded
/// by the table's DFS, with long shared prefixes.
CodeList grow_and_export(support::Rng& rng, CodeSet& table,
                         const PathCode& base, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) table.insert(tree_code(rng, base));
  return table.export_codes();
}

TEST(Messages, WireSizeMatchesEncodeForRandomMessages) {
  support::Rng rng(20261017);
  const FrameCodec legacy(FrameVersion::kLegacy);
  for (int trial = 0; trial < 600; ++trial) {
    Message m;
    m.type = static_cast<MsgType>(1 + trial % 6);  // all six, evenly
    m.from = static_cast<NodeId>(rng.next() >> rng.pick(64));
    m.request_id = rng.next() >> rng.pick(64);
    m.busy = rng.chance(0.5);
    std::vector<PathCode> codes;
    for (std::size_t i = 0, n = rng.pick(12); i < n; ++i) {
      if (m.type == MsgType::kWorkGrant) {
        m.problems.push_back(bnb::Subproblem{wide_code(rng), rng.uniform()});
      } else {
        codes.push_back(wide_code(rng));
      }
    }
    // Only report types ship codes; a stray list elsewhere is not encoded
    // and must not be counted either.
    m.codes = CodeList(std::move(codes));
    support::ByteWriter w;
    m.encode(w);
    EXPECT_EQ(m.wire_size(), w.size()) << to_string(m.type);
    EXPECT_EQ(m.wire_size(), legacy.frame_size(m, nullptr)) << to_string(m.type);
  }
  // Export-built lists: the cached byte total comes from the table.
  const PathCode base = tree_code(rng, PathCode::root());
  for (int trial = 0; trial < 60; ++trial) {
    CodeSet table;
    Message m;
    m.type = trial % 2 == 0 ? MsgType::kTableGossip : MsgType::kWorkReport;
    m.from = static_cast<NodeId>(rng.pick(1 << 20));
    m.codes = grow_and_export(rng, table, base, rng.pick(40));
    support::ByteWriter w;
    m.encode(w);
    EXPECT_EQ(m.wire_size(), w.size());
    EXPECT_EQ(m.wire_size(), legacy.frame_size(m, nullptr));
    support::ByteReader r(w.data());
    EXPECT_EQ(Message::decode(r).codes, m.codes);
  }
}

TEST(Frames, DeltaChainDecodesStandaloneAcrossBatches) {
  // One sender incarnation emitting a stream of report batches: every frame
  // must decode in isolation (receivers are random fanout peers and any
  // frame may be the first one they see of this sender).
  support::Rng rng(99);
  const FrameCodec v1(FrameVersion::kV1);
  ReportDeltaState state;
  for (std::uint64_t batch = 1; batch <= 50; ++batch) {
    Message m;
    m.type = batch % 7 == 0 ? MsgType::kTableGossip : MsgType::kWorkReport;
    m.from = 3;
    m.best_known = 10.0;
    m.report_seq = batch;
    std::vector<PathCode> codes;
    for (std::size_t i = 0, n = rng.pick(8); i < n; ++i) {
      codes.push_back(random_code(rng));
    }
    m.codes = CodeList(std::move(codes));
    // The worker fans the same batch out to several peers: every copy must
    // encode identically (the state advances once per report_seq).
    const auto first = encode_frame(v1, m, &state);
    const auto second = encode_frame(v1, m, &state);
    EXPECT_EQ(first, second);
    const FrameDecode d = FrameCodec::decode(first);
    ASSERT_TRUE(d.ok()) << to_string(d.status) << " at batch " << batch;
    EXPECT_EQ(d.msg.codes, m.codes);
    EXPECT_EQ(d.msg.report_seq, batch - 1);  // codec's own wire sequence
  }
  EXPECT_EQ(state.seq, 49u);
}

/// A v1 report frame encoded by hand from whole codes: wire sequence
/// `seq`, the chain base shipped from sequence 1 on, and every code as
/// (trim, add, words) against its predecessor's exact common prefix.
std::vector<std::uint8_t> reference_v1_report(const Message& m,
                                              std::uint64_t seq,
                                              const PathCode& base) {
  support::ByteWriter p;
  p.varint(m.from);
  p.f64(m.best_known);
  p.varint(m.request_id);
  p.varint(seq);
  if (seq > 0) base.encode(p);
  const std::vector<PathCode> codes = m.codes.to_vector();
  p.varint(codes.size());
  const PathCode* prev = &base;
  for (const PathCode& c : codes) {
    const std::size_t keep = common_prefix_len(*prev, c);
    p.varint(prev->depth() - keep);
    p.varint(c.depth() - keep);
    for (std::size_t i = keep; i < c.depth(); ++i) p.varint(c.word(i));
    prev = &c;
  }
  support::ByteWriter w;
  w.u8(kFrameMagic);
  w.u8(static_cast<std::uint8_t>(FrameVersion::kV1));
  w.u8(static_cast<std::uint8_t>(m.type));
  w.varint(p.size());
  for (const std::uint8_t b : p.data()) w.u8(b);
  return std::move(w.data());
}

TEST(Frames, ExportBatchesChainAcrossFrames) {
  // A growing table's exports and report-like batches, deep codes
  // included, chained as one sender's v1 report stream with empty batches
  // in between: the counted
  // frame size is the encoded length, every frame is the byte-exact delta
  // chain against the previous non-empty batch, and every frame round-trips.
  support::Rng rng(4242);
  const FrameCodec v1(FrameVersion::kV1);
  PathCode base;
  while (base.depth() < 70) base = tree_code(rng, PathCode::root());
  CodeSet table;
  ReportDeltaState counted;
  ReportDeltaState encoded;
  PathCode delta_base;  // last code of the latest non-empty batch so far
  for (std::uint64_t batch = 1; batch <= 12; ++batch) {
    Message m;
    m.type = batch % 2 == 0 ? MsgType::kTableGossip : MsgType::kWorkReport;
    m.from = 4;
    m.report_seq = batch;
    if (batch % 4 == 1) {
      // A report-like batch: a few sorted codes near the previous batch.
      std::vector<PathCode> fresh;
      for (std::size_t i = 0, n = 1 + rng.pick(4); i < n; ++i) {
        fresh.push_back(tree_code(rng, base));
      }
      std::sort(fresh.begin(), fresh.end());
      m.codes = CodeList(fresh);
    } else if (batch % 4 != 3) {
      m.codes = grow_and_export(rng, table, base, 1 + rng.pick(6));
    }
    for (int copy = 0; copy < 2; ++copy) {  // fanout copies of one batch
      const std::size_t size = v1.frame_size(m, &counted);
      const auto buf = encode_frame(v1, m, &encoded);
      EXPECT_EQ(size, buf.size()) << "batch " << batch;
      EXPECT_EQ(buf, reference_v1_report(m, batch - 1, delta_base))
          << "batch " << batch;
      const FrameDecode d = FrameCodec::decode(buf);
      ASSERT_TRUE(d.ok()) << to_string(d.status) << " at batch " << batch;
      EXPECT_EQ(d.msg.codes, m.codes) << "batch " << batch;
      EXPECT_EQ(d.msg.report_seq, batch - 1);
    }
    if (!m.codes.empty()) delta_base = PathCode(m.codes.back());
  }
  EXPECT_EQ(encoded.seq, 11u);
  EXPECT_EQ(encoded.cur, table.export_codes());  // batch 12 is an export
}

TEST(Frames, EveryTruncationDecodesToErrorNotCrash) {
  support::Rng rng(13);
  for (const FrameVersion version :
       {FrameVersion::kLegacy, FrameVersion::kV1}) {
    const FrameCodec codec(version);
    for (int trial = 0; trial < 40; ++trial) {
      ReportDeltaState state;
      const Message m = random_message(rng);
      const auto buf = encode_frame(codec, m, &state);
      for (std::size_t len = 0; len < buf.size(); ++len) {
        const FrameDecode d = FrameCodec::decode(buf.data(), len);
        EXPECT_FALSE(d.ok())
            << to_string(version) << " prefix " << len << "/" << buf.size();
      }
    }
  }
}

TEST(Frames, EveryBitFlipDecodesOrErrorsNeverCrashes) {
  // No checksum in the frame, so a flipped payload bit may decode to a
  // different valid message — the guarantee under test is purely that no
  // single-bit corruption can crash or over-allocate the decoder.
  support::Rng rng(29);
  for (const FrameVersion version :
       {FrameVersion::kLegacy, FrameVersion::kV1}) {
    const FrameCodec codec(version);
    for (int trial = 0; trial < 20; ++trial) {
      ReportDeltaState state;
      const Message m = random_message(rng);
      const auto buf = encode_frame(codec, m, &state);
      for (std::size_t byte = 0; byte < buf.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
          auto flipped = buf;
          flipped[byte] ^= static_cast<std::uint8_t>(1u << bit);
          (void)FrameCodec::decode(flipped);  // must return, never abort
        }
      }
    }
  }
}

TEST(Frames, WrongVersionByteIsRecoverable) {
  Message m;
  m.type = MsgType::kWorkRequest;
  m.from = 5;
  auto buf = encode_frame(FrameCodec(FrameVersion::kV1), m, nullptr);
  ASSERT_GE(buf.size(), 2u);
  ASSERT_EQ(buf[0], kFrameMagic);
  buf[1] = 2;  // a future version we do not speak
  EXPECT_EQ(FrameCodec::decode(buf).status, DecodeStatus::kUnknownVersion);
  buf[1] = 0xee;
  EXPECT_EQ(FrameCodec::decode(buf).status, DecodeStatus::kUnknownVersion);
}

TEST(Frames, UnframedGarbageIsBadMagic) {
  // First byte is neither the v1 magic nor a legacy MsgType (1..6).
  const std::vector<std::uint8_t> garbage = {0x07, 0x01, 0x02, 0x03};
  EXPECT_EQ(FrameCodec::decode(garbage).status, DecodeStatus::kBadMagic);
  const std::vector<std::uint8_t> zero = {0x00};
  EXPECT_EQ(FrameCodec::decode(zero).status, DecodeStatus::kBadMagic);
}

TEST(Frames, FramedUnknownTypeIsRejected) {
  Message m;
  m.type = MsgType::kWorkDeny;
  auto buf = encode_frame(FrameCodec(FrameVersion::kV1), m, nullptr);
  buf[2] = 9;  // outside the MsgType enum
  EXPECT_EQ(FrameCodec::decode(buf).status, DecodeStatus::kUnknownType);
}

TEST(Frames, TrailingBytesAreALengthMismatch) {
  Message m;
  m.type = MsgType::kWorkRequest;
  for (const FrameVersion version :
       {FrameVersion::kLegacy, FrameVersion::kV1}) {
    auto buf = encode_frame(FrameCodec(version), m, nullptr);
    buf.push_back(0xab);
    EXPECT_EQ(FrameCodec::decode(buf).status, DecodeStatus::kLengthMismatch)
        << to_string(version);
  }
}

TEST(Frames, HostileCountsNeverOverAllocate) {
  // Legacy kWorkGrant claiming ~2^60 problems in a 20-byte buffer: the
  // decoder must bound the claimed count against the remaining bytes
  // instead of reserving petabytes.
  support::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kWorkGrant));
  w.varint(1);                 // from
  w.f64(0.0);                  // best_known
  w.varint(0);                 // request_id
  w.varint(1ull << 60);        // hostile problem count
  w.u8(0);
  EXPECT_FALSE(FrameCodec::decode(w.data()).ok());

  // Same attack through a v1 report frame: a huge code count and a huge
  // delta `add` count inside a tiny declared payload.
  support::ByteWriter v;
  v.u8(kFrameMagic);
  v.u8(1);
  v.u8(static_cast<std::uint8_t>(MsgType::kWorkReport));
  support::ByteWriter payload;
  payload.varint(1);            // from
  payload.f64(0.0);             // best_known
  payload.varint(0);            // request_id
  payload.varint(0);            // wire seq 0: self-contained
  payload.varint(1ull << 50);   // hostile code count
  v.varint(payload.size());
  for (const std::uint8_t b : payload.data()) v.u8(b);
  EXPECT_FALSE(FrameCodec::decode(v.data()).ok());
}

TEST(Frames, EmptyAndOneByteInputsAreErrors) {
  EXPECT_EQ(FrameCodec::decode(nullptr, 0).status, DecodeStatus::kTruncated);
  const std::uint8_t magic_only = kFrameMagic;
  EXPECT_FALSE(FrameCodec::decode(&magic_only, 1).ok());
}

}  // namespace
}  // namespace ftbb::core
