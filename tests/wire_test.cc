// Wire format tests: fixed sizes, round trips, malformed-input rejection.

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <thread>

#include "src/net/tcp.h"
#include "src/transport/hop_wire.h"
#include "src/util/random.h"
#include "src/wire/messages.h"
#include "src/wire/serde.h"

namespace vuvuzela::wire {
namespace {

TEST(Constants, MatchPaperSizes) {
  // §8.1: 256-byte conversation messages (16 bytes overhead), 80-byte
  // invitations (48 bytes overhead).
  EXPECT_EQ(kMessageSize, 240u);
  EXPECT_EQ(kEnvelopeSize, 256u);
  EXPECT_EQ(kInvitationSize, 80u);
  EXPECT_EQ(kInvitationPlaintextSize + 48, kInvitationSize);
  EXPECT_EQ(kDeadDropIdSize * 8, 128u);  // §3.1: 128-bit dead drop IDs
}

TEST(ExchangeRequest, RoundTrip) {
  util::Xoshiro256Rng rng(1);
  ExchangeRequest req;
  rng.Fill(req.dead_drop);
  rng.Fill(req.envelope);

  util::Bytes data = req.Serialize();
  EXPECT_EQ(data.size(), kExchangeRequestSize);
  auto parsed = ExchangeRequest::Parse(data);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->dead_drop, req.dead_drop);
  EXPECT_EQ(parsed->envelope, req.envelope);
}

TEST(ExchangeRequest, RejectsWrongSize) {
  EXPECT_FALSE(ExchangeRequest::Parse(util::Bytes(kExchangeRequestSize - 1)).has_value());
  EXPECT_FALSE(ExchangeRequest::Parse(util::Bytes(kExchangeRequestSize + 1)).has_value());
  EXPECT_FALSE(ExchangeRequest::Parse({}).has_value());
}

TEST(DialRequest, RoundTrip) {
  util::Xoshiro256Rng rng(2);
  DialRequest req;
  req.dead_drop_index = 0xdeadbeef;
  rng.Fill(req.invitation);

  util::Bytes data = req.Serialize();
  EXPECT_EQ(data.size(), kDialRequestSize);
  auto parsed = DialRequest::Parse(data);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->dead_drop_index, req.dead_drop_index);
  EXPECT_EQ(parsed->invitation, req.invitation);
}

TEST(DialRequest, RejectsWrongSize) {
  EXPECT_FALSE(DialRequest::Parse(util::Bytes(kDialRequestSize + 4)).has_value());
}

TEST(RoundAnnouncement, RoundTrip) {
  RoundAnnouncement ann{.round = 77, .type = RoundType::kDialing, .num_dial_dead_drops = 12};
  auto parsed = RoundAnnouncement::Parse(ann.Serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->round, 77u);
  EXPECT_EQ(parsed->type, RoundType::kDialing);
  EXPECT_EQ(parsed->num_dial_dead_drops, 12u);
}

TEST(RoundAnnouncement, RejectsBadType) {
  RoundAnnouncement ann{.round = 1, .type = RoundType::kConversation, .num_dial_dead_drops = 0};
  util::Bytes data = ann.Serialize();
  data[8] = 99;  // type byte
  EXPECT_FALSE(RoundAnnouncement::Parse(data).has_value());
}

TEST(RoundAnnouncement, RejectsTrailingBytes) {
  RoundAnnouncement ann{.round = 1, .type = RoundType::kConversation, .num_dial_dead_drops = 0};
  util::Bytes data = ann.Serialize();
  data.push_back(0);
  EXPECT_FALSE(RoundAnnouncement::Parse(data).has_value());
}

TEST(Serde, IntegersRoundTrip) {
  Writer w;
  w.U8(0xab);
  w.U16(0x1234);
  w.U32(0xdeadbeef);
  w.U64(0x0123456789abcdefULL);
  util::Bytes data = w.Take();
  EXPECT_EQ(data.size(), 1u + 2 + 4 + 8);

  Reader r(data);
  EXPECT_EQ(r.U8().value(), 0xab);
  EXPECT_EQ(r.U16().value(), 0x1234);
  EXPECT_EQ(r.U32().value(), 0xdeadbeefu);
  EXPECT_EQ(r.U64().value(), 0x0123456789abcdefULL);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_TRUE(r.ok());
}

TEST(Serde, VarBytesRoundTrip) {
  Writer w;
  util::Bytes payload = {1, 2, 3, 4, 5};
  w.Var(payload);
  util::Bytes data = w.Take();

  Reader r(data);
  auto out = r.Var();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(util::Bytes(out->begin(), out->end()), payload);
}

TEST(Serde, ReadPastEndFailsSoft) {
  util::Bytes data = {1, 2};
  Reader r(data);
  EXPECT_TRUE(r.U8().has_value());
  EXPECT_FALSE(r.U32().has_value());
  EXPECT_FALSE(r.ok());
  // Subsequent reads keep failing; no UB, no throw.
  EXPECT_FALSE(r.U64().has_value());
}

TEST(Serde, VarWithLyingLengthFails) {
  Writer w;
  w.U32(1000);  // claims 1000 bytes follow
  w.U8(1);
  util::Bytes data = w.Take();
  Reader r(data);
  EXPECT_FALSE(r.Var().has_value());
  EXPECT_FALSE(r.ok());
}

// --- Chunked batch messages (transport/hop_wire.h) --------------------------
//
// The hop RPC protocol splits a batch across frames so one logical kBatch can
// exceed net::kMaxFramePayload while every frame — and the receiver's
// transient memory — stays bounded by the chunk budget.

using transport::BatchAssembler;
using transport::BatchMessage;
using transport::EncodeBatchChunks;

std::vector<util::Bytes> MakeItems(size_t count, size_t item_size, uint64_t seed) {
  util::Xoshiro256Rng rng(seed);
  std::vector<util::Bytes> items;
  items.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    items.push_back(rng.RandomBytes(item_size));
  }
  return items;
}

BatchMessage AssembleAll(const std::vector<net::Frame>& frames, BatchAssembler& assembler) {
  BatchAssembler::Status status = BatchAssembler::Status::kNeedMore;
  for (const auto& frame : frames) {
    status = assembler.Consume(frame);
    if (status != BatchAssembler::Status::kNeedMore) {
      break;
    }
  }
  EXPECT_EQ(status, BatchAssembler::Status::kDone) << assembler.error();
  return assembler.Take();
}

TEST(HopChunk, SingleFrameRoundTrip) {
  auto items = MakeItems(4, 64, 1);
  util::Bytes header = {9, 9};
  auto frames = EncodeBatchChunks(net::FrameType::kHopForwardConversation, 42, header,
                                  util::ViewsOf(items), 1 << 20);
  ASSERT_TRUE(frames.has_value());
  ASSERT_EQ(frames->size(), 1u);

  BatchAssembler assembler;
  BatchMessage message = AssembleAll(*frames, assembler);
  EXPECT_EQ(message.op, net::FrameType::kHopForwardConversation);
  EXPECT_EQ(message.round, 42u);
  EXPECT_EQ(message.header, header);
  EXPECT_EQ(message.CopyItems(), items);
}

TEST(HopChunk, EmptyBatchRoundTrip) {
  auto frames = EncodeBatchChunks(net::FrameType::kHopBackwardConversation, 7, {}, {}, 4096);
  ASSERT_TRUE(frames.has_value());
  ASSERT_EQ(frames->size(), 1u);
  BatchAssembler assembler;
  BatchMessage message = AssembleAll(*frames, assembler);
  EXPECT_TRUE(message.items.empty());
  EXPECT_TRUE(message.header.empty());
}

// A batch far larger than the frame budget streams through many chunks with
// bounded per-frame memory — the scaled-down version of a paper-scale 2.2M
// request kBatch exceeding net::kMaxFramePayload.
TEST(HopChunk, BatchLargerThanFrameBudgetStreamsBounded) {
  constexpr size_t kFrameBudget = 64 * 1024;  // stand-in for kMaxFramePayload
  auto items = MakeItems(5000, 416, 2);       // ~2 MB total, 32x the budget
  auto frames =
      EncodeBatchChunks(net::FrameType::kBatch, 9, {}, util::ViewsOf(items), kFrameBudget);
  ASSERT_TRUE(frames.has_value());
  EXPECT_GT(frames->size(), 30u);
  for (const auto& frame : *frames) {
    EXPECT_LE(frame.payload.size(), kFrameBudget);
  }

  BatchAssembler assembler;
  BatchMessage message = AssembleAll(*frames, assembler);
  EXPECT_EQ(message.CopyItems(), items);
  // The streaming decoder never held more than one chunk of wire buffer,
  // however large the logical batch.
  EXPECT_LE(assembler.peak_frame_bytes(), kFrameBudget);
}

// SendBatchMessage gathers every chunk straight from the items, so its wire
// bytes must equal the materialized EncodeBatchChunks frames', and
// ReadBatchMessage must decode them into views over one adopted buffer per
// chunk. A 64 KB chunk of ~100-byte items holds more pieces than one sendmsg
// call takes (IOV_MAX), so the split send is covered too.
TEST(HopChunk, StreamedSendMatchesEncodedChunks) {
  constexpr size_t kBudget = 64 * 1024;
  constexpr auto kOp = net::FrameType::kHopForwardConversation;
  auto items = MakeItems(3000, 100, 9);
  items[7].clear();
  util::Bytes header = {1, 2, 3};
  auto frames = EncodeBatchChunks(kOp, 5, header, util::ViewsOf(items), kBudget);
  ASSERT_TRUE(frames.has_value());
  ASSERT_GT(frames->size(), 3u);
  util::Bytes expected;
  for (const auto& frame : *frames) {
    util::Bytes encoded = net::EncodeFrame(frame);
    uint8_t prefix[4];
    util::StoreBe32(prefix, static_cast<uint32_t>(encoded.size()));
    util::Append(expected, prefix);
    util::Append(expected, encoded);
  }

  auto listener = net::TcpListener::Listen(0);
  ASSERT_TRUE(listener.has_value());
  auto sender = net::TcpConnection::Connect("127.0.0.1", listener->port());
  ASSERT_TRUE(sender.has_value());
  auto receiver = listener->Accept();
  ASSERT_TRUE(receiver.has_value());
  // Sent twice: read raw the first time, decoded the second.
  std::thread send_thread([&] {
    EXPECT_TRUE(
        transport::SendBatchMessage(*sender, kOp, 5, header, util::ViewsOf(items), kBudget));
    EXPECT_TRUE(
        transport::SendBatchMessage(*sender, kOp, 5, header, util::ViewsOf(items), kBudget));
  });
  int fd = receiver->ReleaseFd();
  util::Bytes wire(expected.size());
  size_t got = 0;
  while (got < wire.size()) {
    ssize_t n = ::recv(fd, wire.data() + got, wire.size() - got, 0);
    if (n <= 0) {
      break;
    }
    got += static_cast<size_t>(n);
  }
  EXPECT_EQ(wire, expected);

  net::TcpConnection conn(fd);
  auto first = conn.RecvFrame();
  std::optional<BatchMessage> message;
  if (first) {
    message = transport::ReadBatchMessage(conn, std::move(*first));
  }
  send_thread.join();
  ASSERT_TRUE(message.has_value());
  EXPECT_EQ(message->header, header);
  EXPECT_EQ(message->CopyItems(), items);
  EXPECT_EQ(message->chunks.size(), frames->size());
  EXPECT_EQ(message->wire_bytes, expected.size());
}

TEST(HopChunk, ItemLargerThanBudgetFailsToEncode) {
  auto items = MakeItems(1, 8192, 3);
  EXPECT_FALSE(
      EncodeBatchChunks(net::FrameType::kBatch, 1, {}, util::ViewsOf(items), 1024).has_value());
}

TEST(HopChunk, MissingFinalChunkIsIncomplete) {
  auto items = MakeItems(64, 400, 4);
  auto frames = EncodeBatchChunks(net::FrameType::kBatch, 5, {}, util::ViewsOf(items), 2048);
  ASSERT_TRUE(frames.has_value());
  ASSERT_GT(frames->size(), 2u);
  BatchAssembler assembler;
  BatchAssembler::Status status = BatchAssembler::Status::kNeedMore;
  for (size_t i = 0; i + 1 < frames->size(); ++i) {  // drop the last chunk
    status = assembler.Consume((*frames)[i]);
  }
  EXPECT_EQ(status, BatchAssembler::Status::kNeedMore);
}

TEST(HopChunk, RejectsContinuationBeforeFirstFrame) {
  BatchAssembler assembler;
  net::Frame stray{net::FrameType::kBatchChunk, 1, {0, 0, 0, 0, 0}};
  EXPECT_EQ(assembler.Consume(stray), BatchAssembler::Status::kError);
}

TEST(HopChunk, RejectsRoundMismatchAcrossChunks) {
  auto items = MakeItems(64, 400, 5);
  auto frames = EncodeBatchChunks(net::FrameType::kBatch, 5, {}, util::ViewsOf(items), 2048);
  ASSERT_TRUE(frames.has_value());
  ASSERT_GT(frames->size(), 1u);
  (*frames)[1].round = 6;
  BatchAssembler assembler;
  EXPECT_EQ(assembler.Consume((*frames)[0]), BatchAssembler::Status::kNeedMore);
  EXPECT_EQ(assembler.Consume((*frames)[1]), BatchAssembler::Status::kError);
}

TEST(HopChunk, RejectsTruncatedItem) {
  auto items = MakeItems(2, 100, 6);
  auto frames = EncodeBatchChunks(net::FrameType::kBatch, 1, {}, util::ViewsOf(items), 1 << 20);
  ASSERT_TRUE(frames.has_value());
  ASSERT_EQ(frames->size(), 1u);
  net::Frame frame = (*frames)[0];
  frame.payload.resize(frame.payload.size() - 17);
  BatchAssembler assembler;
  EXPECT_EQ(assembler.Consume(frame), BatchAssembler::Status::kError);
}

// The assembler sizes its item views from each chunk's count, capped by what
// the chunk's payload can frame: a forged count of 0xFFFFFFFF items in a
// 64-byte payload reserves at most 13 views and still fails as truncated.
TEST(HopChunk, ForgedItemCountFailsAsTruncated) {
  wire::Writer w;
  w.U8(1);   // final chunk
  w.U32(0);  // empty header
  w.U32(0xFFFFFFFFu);
  util::Bytes payload = w.Take();
  payload.resize(64, 0);  // zero-length items, then three bytes of a length
  BatchAssembler assembler;
  EXPECT_EQ(assembler.Consume(net::Frame{net::FrameType::kBatch, 1, payload}),
            BatchAssembler::Status::kError);
  EXPECT_EQ(assembler.error(), "truncated item");
}

// Chunking removes the per-frame size cap, so the assembler enforces a total
// ceiling: an endless stream of final-flag-less continuations cannot grow one
// message without bound.
TEST(HopChunk, RejectsMessageExceedingSizeCeiling) {
  auto items = MakeItems(64, 400, 8);  // ~25 KB total
  auto frames = EncodeBatchChunks(net::FrameType::kBatch, 1, {}, util::ViewsOf(items), 2048);
  ASSERT_TRUE(frames.has_value());
  BatchAssembler assembler(/*max_message_bytes=*/4096);
  BatchAssembler::Status status = BatchAssembler::Status::kNeedMore;
  for (const auto& frame : *frames) {
    status = assembler.Consume(frame);
    if (status != BatchAssembler::Status::kNeedMore) {
      break;
    }
  }
  EXPECT_EQ(status, BatchAssembler::Status::kError);
}

// Random garbage through the assembler: must never crash or accept, only
// kError (or starve with kNeedMore).
TEST(HopChunk, FuzzedChunksNeverCrash) {
  util::Xoshiro256Rng rng(77);
  for (int iteration = 0; iteration < 500; ++iteration) {
    BatchAssembler assembler;
    BatchAssembler::Status status = BatchAssembler::Status::kNeedMore;
    for (int frame_index = 0; frame_index < 4; ++frame_index) {
      net::Frame frame;
      frame.type = (frame_index == 0 || rng.UniformUint64(2) == 0)
                       ? net::FrameType::kBatch
                       : net::FrameType::kBatchChunk;
      frame.round = rng.UniformUint64(3);
      frame.payload = rng.RandomBytes(rng.UniformUint64(64));
      status = assembler.Consume(frame);
      if (status != BatchAssembler::Status::kNeedMore) {
        break;
      }
    }
    // Reaching here without UB/asan findings is the property; any terminal
    // status is acceptable.
    (void)status;
  }
}

}  // namespace
}  // namespace vuvuzela::wire
