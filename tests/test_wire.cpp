// Codec, message, and framing tests, including property-style roundtrips
// over randomly generated protocol messages (TEST_P).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>

#include "common/rng.h"
#include "wire/codec.h"
#include "wire/framing.h"
#include "wire/message.h"

namespace falkon::wire {
namespace {

TEST(Codec, PrimitiveRoundtrip) {
  Writer w;
  w.put_u8(0xab);
  w.put_u32(0xdeadbeef);
  w.put_u64(0x0123456789abcdefULL);
  w.put_double(-1.5e300);
  w.put_bool(true);
  w.put_string("falkon");
  Reader r(w.data());
  EXPECT_EQ(r.get_u8(), 0xab);
  EXPECT_EQ(r.get_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.get_u64(), 0x0123456789abcdefULL);
  EXPECT_DOUBLE_EQ(r.get_double(), -1.5e300);
  EXPECT_TRUE(r.get_bool());
  EXPECT_EQ(r.get_string(), "falkon");
  EXPECT_TRUE(r.at_end());
}

TEST(Codec, VarintBoundaries) {
  for (std::uint64_t v :
       {0ULL, 1ULL, 127ULL, 128ULL, 16383ULL, 16384ULL, ~0ULL}) {
    Writer w;
    w.put_varint(v);
    Reader r(w.data());
    EXPECT_EQ(r.get_varint(), v);
  }
}

TEST(Codec, UnderrunThrows) {
  Writer w;
  w.put_u8(1);
  Reader r(w.data());
  r.get_u8();
  EXPECT_THROW(r.get_u32(), CodecError);
}

TEST(Codec, OversizedStringLengthThrows) {
  Writer w;
  w.put_varint(1'000'000);  // length prefix without the bytes
  Reader r(w.data());
  EXPECT_THROW(r.get_string(), CodecError);
}

TaskSpec sample_spec(std::uint64_t id) {
  TaskSpec spec;
  spec.id = TaskId{id};
  spec.executable = "/bin/echo";
  spec.args = {"hello", "world"};
  spec.working_dir = "/tmp";
  spec.env = {{"PATH", "/usr/bin"}, {"FALKON", "1"}};
  spec.estimated_runtime_s = 1.25;
  spec.data_location = DataLocation::kSharedFs;
  spec.io_mode = IoMode::kReadWrite;
  spec.input_bytes = 1 << 20;
  spec.output_bytes = 512;
  spec.data_object = "m16-tile-042.fits";
  spec.capture_output = true;
  spec.expect_cached = true;
  spec.data_source = "10.9.8.7:9444";
  return spec;
}

void expect_spec_eq(const TaskSpec& a, const TaskSpec& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.executable, b.executable);
  EXPECT_EQ(a.args, b.args);
  EXPECT_EQ(a.working_dir, b.working_dir);
  EXPECT_EQ(a.env, b.env);
  EXPECT_DOUBLE_EQ(a.estimated_runtime_s, b.estimated_runtime_s);
  EXPECT_EQ(a.data_location, b.data_location);
  EXPECT_EQ(a.io_mode, b.io_mode);
  EXPECT_EQ(a.input_bytes, b.input_bytes);
  EXPECT_EQ(a.output_bytes, b.output_bytes);
  EXPECT_EQ(a.data_object, b.data_object);
  EXPECT_EQ(a.capture_output, b.capture_output);
  EXPECT_EQ(a.expect_cached, b.expect_cached);
  EXPECT_EQ(a.data_source, b.data_source);
}

TEST(Message, TaskSpecRoundtrip) {
  Writer w;
  encode_task_spec(w, sample_spec(99));
  Reader r(w.data());
  expect_spec_eq(decode_task_spec(r), sample_spec(99));
}

TEST(Message, TaskResultRoundtrip) {
  TaskResult result;
  result.task_id = TaskId{4};
  result.executor_id = ExecutorId{2};
  result.exit_code = -9;  // negative codes survive the u32 cast
  result.state = TaskState::kFailed;
  result.stdout_data = "out";
  result.stderr_data = "err";
  result.queue_time_s = 0.5;
  result.exec_time_s = 1.5;
  result.overhead_s = 0.01;

  Writer w;
  encode_task_result(w, result);
  Reader r(w.data());
  const TaskResult decoded = decode_task_result(r);
  EXPECT_EQ(decoded.task_id, result.task_id);
  EXPECT_EQ(decoded.exit_code, result.exit_code);
  EXPECT_EQ(decoded.state, result.state);
  EXPECT_EQ(decoded.stdout_data, "out");
  EXPECT_DOUBLE_EQ(decoded.exec_time_s, 1.5);
}

TEST(Message, SubmitRequestRoundtripPreservesBundle) {
  SubmitRequest request;
  request.instance_id = InstanceId{12};
  for (std::uint64_t i = 1; i <= 300; ++i) request.tasks.push_back(sample_spec(i));

  auto bytes = encode_message(request);
  auto decoded = decode_message(bytes);
  ASSERT_TRUE(decoded.ok());
  const auto* reply = std::get_if<SubmitRequest>(&decoded.value());
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->instance_id, request.instance_id);
  ASSERT_EQ(reply->tasks.size(), 300u);
  expect_spec_eq(reply->tasks[123], request.tasks[123]);
}

/// Alternative I of wire::Message: its tag is MsgType(I), its name is
/// its own, and a default-constructed one decodes back to index I.
template <std::size_t I>
void expect_tag_matches_index(std::set<std::string>& names) {
  const Message message{std::in_place_index<I>};
  const MsgType type = message_type(message);
  EXPECT_EQ(type, static_cast<MsgType>(I));
  const std::string name = msg_type_name(type);
  EXPECT_NE(name, "Unknown") << "index " << I;
  EXPECT_TRUE(names.insert(name).second) << name << " names two messages";
  auto decoded = decode_message(encode_message(message));
  ASSERT_TRUE(decoded.ok()) << name << ": " << decoded.error().str();
  EXPECT_EQ(decoded.value().index(), I) << name;
}

template <std::size_t... I>
void expect_every_tag_matches(std::index_sequence<I...>) {
  std::set<std::string> names;
  (expect_tag_matches_index<I>(names), ...);
  EXPECT_EQ(names.size(), sizeof...(I));
}

TEST(Message, TypeTagsMatchEnum) {
  // MsgType values equal variant indices; this pins every tag, so a
  // renumbering must change the enum, the variant and the codec together.
  constexpr std::size_t kMessages = std::variant_size_v<Message>;
  expect_every_tag_matches(std::make_index_sequence<kMessages>{});
  // No enumerator past the variant's last alternative.
  EXPECT_STREQ(msg_type_name(static_cast<MsgType>(kMessages)), "Unknown");
}

TEST(Message, TaskBundleRoundtripPreservesAckAndTasks) {
  TaskBundle bundle;
  bundle.executor_id = ExecutorId{42};
  bundle.acknowledged = 17;
  for (std::uint64_t i = 1; i <= 64; ++i) bundle.tasks.push_back(sample_spec(i));

  auto decoded = decode_message(encode_message(bundle));
  ASSERT_TRUE(decoded.ok());
  const auto* reply = std::get_if<TaskBundle>(&decoded.value());
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->executor_id.value, 42u);
  EXPECT_EQ(reply->acknowledged, 17u);
  ASSERT_EQ(reply->tasks.size(), 64u);
  expect_spec_eq(reply->tasks[31], bundle.tasks[31]);
}

TEST(Message, ResultBundleRoundtripPreservesResultsAndSentinel) {
  ResultBundle bundle;
  bundle.executor_id = ExecutorId{7};
  bundle.want_tasks = kAdaptiveWant;
  TaskResult result;
  result.task_id = TaskId{5};
  result.exit_code = 3;
  bundle.results.push_back(result);

  auto decoded = decode_message(encode_message(bundle));
  ASSERT_TRUE(decoded.ok());
  const auto* reply = std::get_if<ResultBundle>(&decoded.value());
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->executor_id.value, 7u);
  EXPECT_EQ(reply->want_tasks, kAdaptiveWant);
  ASSERT_EQ(reply->results.size(), 1u);
  EXPECT_EQ(reply->results[0].task_id.value, 5u);
}

TEST(Message, MalformedBufferIsProtocolError) {
  std::vector<std::uint8_t> garbage{0x05, 0x01};  // SubmitRequest, truncated
  auto decoded = decode_message(garbage);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, ErrorCode::kProtocolError);
}

TEST(Message, UnknownTypeTagIsProtocolError) {
  std::vector<std::uint8_t> garbage{0xee};
  auto decoded = decode_message(garbage);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, ErrorCode::kProtocolError);
}

/// Property test: every message kind roundtrips through encode/decode for
/// many randomized payloads.
class MessageRoundtrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MessageRoundtrip, RandomizedMessagesSurviveEncodeDecode) {
  Rng rng(GetParam());
  for (int iteration = 0; iteration < 50; ++iteration) {
    std::vector<Message> messages;
    messages.push_back(CreateInstanceRequest{ClientId{rng.next_u64()}});
    messages.push_back(CreateInstanceReply{InstanceId{rng.next_u64()}});
    {
      SubmitRequest m;
      m.instance_id = InstanceId{rng.next_u64()};
      const auto n = rng.uniform_int(0, 20);
      for (std::uint64_t i = 0; i < n; ++i) {
        m.tasks.push_back(sample_spec(rng.next_u64()));
      }
      messages.push_back(std::move(m));
    }
    {
      RegisterRequest m;
      m.node_id = NodeId{rng.next_u64()};
      m.host = "host-" + std::to_string(rng.uniform_int(0, 999));
      m.slots = static_cast<std::uint32_t>(rng.uniform_int(1, 16));
      m.allocation_id = AllocationId{rng.next_u64()};
      messages.push_back(std::move(m));
    }
    messages.push_back(Notify{ExecutorId{rng.next_u64()}, rng.next_u64()});
    {
      StatusReply m;
      m.queued_tasks = rng.next_u64() % 1000000;
      m.busy_executors = static_cast<std::uint32_t>(rng.uniform_int(0, 54000));
      messages.push_back(m);
    }
    {
      TaskBundle m;
      m.executor_id = ExecutorId{rng.next_u64()};
      m.acknowledged = static_cast<std::uint32_t>(rng.uniform_int(0, 4096));
      const auto n = rng.uniform_int(0, 20);
      for (std::uint64_t i = 0; i < n; ++i) {
        m.tasks.push_back(sample_spec(rng.next_u64()));
      }
      messages.push_back(std::move(m));
    }
    {
      ResultBundle m;
      m.executor_id = ExecutorId{rng.next_u64()};
      const auto n = rng.uniform_int(0, 20);
      for (std::uint64_t i = 0; i < n; ++i) {
        TaskResult result;
        result.task_id = TaskId{rng.next_u64()};
        result.exit_code = static_cast<int>(rng.uniform_int(0, 255));
        m.results.push_back(result);
      }
      // Exercise the adaptive sentinel alongside ordinary counts.
      m.want_tasks = rng.bernoulli(0.2)
                         ? kAdaptiveWant
                         : static_cast<std::uint32_t>(rng.uniform_int(0, 16));
      messages.push_back(std::move(m));
    }
    // Epoch-carrying replication + election messages: the epoch must
    // survive the round trip bit-exactly (fencing compares it).
    {
      ReplFetch m;
      m.from_lsn = rng.next_u64();
      m.max_bytes = static_cast<std::uint32_t>(rng.next_u64());
      m.epoch = rng.next_u64();
      messages.push_back(m);
    }
    {
      ReplAppend m;
      m.first_lsn = rng.next_u64();
      m.last_lsn = rng.next_u64();
      m.payload.assign(rng.uniform_int(0, 64), 'r');
      m.epoch = rng.next_u64();
      messages.push_back(std::move(m));
    }
    {
      ReplSnapshot m;
      m.lsn = rng.next_u64();
      m.payload.assign(rng.uniform_int(0, 64), 's');
      m.epoch = rng.next_u64();
      messages.push_back(std::move(m));
    }
    messages.push_back(ReplAck{rng.next_u64(), rng.next_u64()});
    {
      ElectionPing m;
      m.epoch = rng.next_u64();
      m.rank = static_cast<std::uint32_t>(rng.uniform_int(0, 64));
      m.applied_lsn = rng.next_u64();
      messages.push_back(m);
    }
    {
      ElectionAck m;
      m.epoch = rng.next_u64();
      m.rank = static_cast<std::uint32_t>(rng.uniform_int(0, 64));
      m.applied_lsn = rng.next_u64();
      m.promoted = rng.bernoulli(0.5);
      messages.push_back(m);
    }
    // Data-diffusion messages (docs/DATA.md).
    {
      CacheDigest m;
      m.executor_id = ExecutorId{rng.next_u64()};
      m.generation = rng.next_u64();
      m.data_port = static_cast<std::uint32_t>(rng.uniform_int(0, 65535));
      const auto n = rng.uniform_int(0, 40);
      for (std::uint64_t i = 0; i < n; ++i) {
        m.objects.push_back("obj-" + std::to_string(rng.uniform_int(0, 999)));
      }
      messages.push_back(std::move(m));
    }
    messages.push_back(
        DataFetch{"blob-" + std::to_string(rng.uniform_int(0, 999))});
    {
      std::string payload(rng.uniform_int(0, 512), '\0');
      for (auto& c : payload) c = static_cast<char>(rng.next_u64());
      messages.push_back(make_data_fetch_reply(
          "blob-" + std::to_string(rng.uniform_int(0, 999)), rng.next_u64(),
          std::move(payload)));
    }
    messages.push_back(DataEvict{
        ExecutorId{rng.next_u64()},
        "obj-" + std::to_string(rng.uniform_int(0, 999))});
    // Push-mode result streaming (docs/PROTOCOL.md).
    messages.push_back(
        SubscribeResults{InstanceId{rng.next_u64()}, rng.next_u64()});
    {
      ResultStream m;
      m.instance_id = InstanceId{rng.next_u64()};
      m.seq = rng.next_u64();
      const auto n = rng.uniform_int(0, 16);
      for (std::uint64_t i = 0; i < n; ++i) {
        TaskResult result;
        result.task_id = TaskId{rng.next_u64()};
        result.executor_id = ExecutorId{rng.next_u64()};
        result.exit_code = static_cast<int>(rng.uniform_int(0, 2));
        m.results.push_back(std::move(result));
      }
      messages.push_back(std::move(m));
    }

    for (const auto& message : messages) {
      auto bytes = encode_message(message);
      auto decoded = decode_message(bytes);
      ASSERT_TRUE(decoded.ok()) << decoded.error().str();
      EXPECT_EQ(message_type(decoded.value()), message_type(message));
      // Re-encode must be byte-identical (canonical encoding).
      EXPECT_EQ(encode_message(decoded.value()), bytes);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MessageRoundtrip,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

/// Fuzz property: decoding arbitrary bytes, truncations of valid messages,
/// and bit-flipped valid messages never crashes — it yields either a valid
/// message or kProtocolError.
class DecoderFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecoderFuzz, NeverCrashesOnHostileInput) {
  falkon::Rng rng(GetParam());
  // 1. Pure random bytes.
  for (int i = 0; i < 200; ++i) {
    std::vector<std::uint8_t> bytes(rng.uniform_int(0, 64));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_u64());
    auto decoded = decode_message(bytes);
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.error().code, ErrorCode::kProtocolError);
    }
  }
  // 2. Truncations of a valid message.
  SubmitRequest request;
  request.instance_id = InstanceId{1};
  for (std::uint64_t i = 1; i <= 5; ++i) request.tasks.push_back(sample_spec(i));
  const auto valid = encode_message(request);
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    std::vector<std::uint8_t> truncated(valid.begin(),
                                        valid.begin() + static_cast<std::ptrdiff_t>(cut));
    auto decoded = decode_message(truncated);
    (void)decoded;  // must simply not crash; short prefixes may decode
  }
  // 3. Single-byte corruptions.
  for (int i = 0; i < 300; ++i) {
    auto corrupted = valid;
    const auto at = rng.uniform_int(0, corrupted.size() - 1);
    corrupted[at] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
    auto decoded = decode_message(corrupted);
    (void)decoded;  // either ok (harmless flip) or protocol error
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecoderFuzz, ::testing::Values(11, 22, 33, 44));

/// Epoch-field fuzz: every epoch-carrying message survives truncation at
/// every byte boundary — including cuts through the (trailing) epoch
/// varint — and random corruption, yielding a clean decode or
/// kProtocolError, never a crash or a torn half-message.
class EpochFieldFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EpochFieldFuzz, TruncatedOrCorruptEpochFramesFailCleanly) {
  falkon::Rng rng(GetParam());
  // Large epochs stress the full varint width.
  const std::uint64_t epoch = rng.next_u64() | (1ull << 63);

  std::vector<Message> messages;
  {
    SubmitRequest m;
    m.instance_id = InstanceId{rng.next_u64()};
    m.tasks.push_back(sample_spec(rng.next_u64()));
    m.epoch = epoch;
    messages.push_back(std::move(m));
  }
  {
    ReplFetch m;
    m.from_lsn = rng.next_u64();
    m.epoch = epoch;
    messages.push_back(m);
  }
  {
    ReplAppend m;
    m.first_lsn = 1;
    m.last_lsn = 2;
    m.payload = "framed-records";
    m.epoch = epoch;
    messages.push_back(std::move(m));
  }
  {
    ReplSnapshot m;
    m.lsn = rng.next_u64();
    m.payload = "image";
    m.epoch = epoch;
    messages.push_back(std::move(m));
  }
  messages.push_back(ReplAck{rng.next_u64(), epoch});
  messages.push_back(ElectionPing{epoch, 3, rng.next_u64()});
  messages.push_back(ElectionAck{epoch, 3, rng.next_u64(), true});

  for (const auto& message : messages) {
    const auto valid = encode_message(message);

    // Truncation at every boundary: the trailing cuts land inside the
    // epoch varint itself.
    for (std::size_t cut = 0; cut < valid.size(); ++cut) {
      std::vector<std::uint8_t> truncated(
          valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(cut));
      auto decoded = decode_message(truncated);
      if (!decoded.ok()) {
        EXPECT_EQ(decoded.error().code, ErrorCode::kProtocolError);
      } else {
        // A shorter prefix that still decodes must not impersonate the
        // original stamped message.
        EXPECT_NE(encode_message(decoded.value()), valid);
      }
    }

    // Random byte corruption never crashes the decoder.
    for (int i = 0; i < 100; ++i) {
      auto corrupted = valid;
      const auto at = rng.uniform_int(0, corrupted.size() - 1);
      corrupted[at] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
      auto decoded = decode_message(corrupted);
      if (!decoded.ok()) {
        EXPECT_EQ(decoded.error().code, ErrorCode::kProtocolError);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EpochFieldFuzz, ::testing::Values(7, 19, 53));

/// In-memory ByteStream for framing tests.
class MemoryStream final : public ByteStream {
 public:
  Status write_all(const void* data, std::size_t size) override {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buffer_.insert(buffer_.end(), p, p + size);
    return ok_status();
  }
  Status read_exact(void* data, std::size_t size) override {
    if (buffer_.size() - read_pos_ < size) {
      return make_error(ErrorCode::kClosed, "eof");
    }
    std::memcpy(data, buffer_.data() + read_pos_, size);
    read_pos_ += size;
    return ok_status();
  }

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t read_pos_{0};
};

TEST(Framing, RoundtripMultipleFrames) {
  MemoryStream stream;
  ASSERT_TRUE(write_frame(stream, {1, 2, 3}).ok());
  ASSERT_TRUE(write_frame(stream, {}).ok());
  ASSERT_TRUE(write_frame(stream, std::vector<std::uint8_t>(1000, 7)).ok());

  auto f1 = read_frame(stream);
  ASSERT_TRUE(f1.ok());
  EXPECT_EQ(f1.value(), (std::vector<std::uint8_t>{1, 2, 3}));
  auto f2 = read_frame(stream);
  ASSERT_TRUE(f2.ok());
  EXPECT_TRUE(f2.value().empty());
  auto f3 = read_frame(stream);
  ASSERT_TRUE(f3.ok());
  EXPECT_EQ(f3.value().size(), 1000u);
  EXPECT_FALSE(read_frame(stream).ok());  // EOF
}

TEST(Framing, RejectsOversizedLength) {
  MemoryStream stream;
  const std::uint32_t huge = 0xffffffff;
  ASSERT_TRUE(stream.write_all(&huge, 4).ok());
  auto frame = read_frame(stream);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.error().code, ErrorCode::kProtocolError);
}

TEST(Framing, RejectsTruncatedPayloadAsProtocolError) {
  // A header promising 100 bytes followed by only 10: the reader must
  // report a clean protocol error (truncated frame), not a bare EOF that
  // looks like an orderly close.
  MemoryStream stream;
  const std::uint32_t length = 100;
  ASSERT_TRUE(stream.write_all(&length, 4).ok());
  const std::vector<std::uint8_t> partial(10, 0xaa);
  ASSERT_TRUE(stream.write_all(partial.data(), partial.size()).ok());
  auto frame = read_frame(stream);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.error().code, ErrorCode::kProtocolError);
  EXPECT_NE(frame.error().message.find("truncated"), std::string::npos);
}

TEST(Framing, CorrelationIdSurvivesRoundtrip) {
  MemoryStream stream;
  ASSERT_TRUE(write_frame(stream, 0xdeadbeefcafeULL, {1, 2, 3}).ok());
  ASSERT_TRUE(write_frame(stream, {4, 5}).ok());  // push-style frame: corr 0

  Frame frame;
  ASSERT_TRUE(read_frame(stream, frame).ok());
  EXPECT_EQ(frame.corr, 0xdeadbeefcafeULL);
  EXPECT_EQ(frame.payload, (std::vector<std::uint8_t>{1, 2, 3}));
  ASSERT_TRUE(read_frame(stream, frame).ok());
  EXPECT_EQ(frame.corr, 0u);
  EXPECT_EQ(frame.payload, (std::vector<std::uint8_t>{4, 5}));
}

TEST(Framing, GatheredWriteMatchesIndividualFrames) {
  // write_frames (the server's coalesced path) must put the same bytes on
  // the wire as one write_frame per PendingFrame.
  std::vector<PendingFrame> batch(3);
  batch[0] = PendingFrame{101, {0xaa}};
  batch[1] = PendingFrame{102, {}};
  batch[2] = PendingFrame{103, std::vector<std::uint8_t>(500, 0x55)};

  MemoryStream gathered;
  std::vector<std::uint8_t> scratch;
  ASSERT_TRUE(write_frames(gathered, batch.data(), batch.size(), scratch).ok());

  Frame frame;
  for (const auto& expected : batch) {
    ASSERT_TRUE(read_frame(gathered, frame).ok());
    EXPECT_EQ(frame.corr, expected.corr);
    EXPECT_EQ(frame.payload, expected.payload);
  }
  EXPECT_EQ(read_frame(gathered, frame).error().code, ErrorCode::kClosed);
}

TEST(Framing, CleanEofAtFrameBoundaryIsNotProtocolError) {
  // EOF between frames is an orderly close (kClosed), distinct from a
  // truncation inside a frame.
  MemoryStream stream;
  ASSERT_TRUE(write_frame(stream, {1, 2, 3}).ok());
  ASSERT_TRUE(read_frame(stream).ok());
  auto eof = read_frame(stream);
  ASSERT_FALSE(eof.ok());
  EXPECT_EQ(eof.error().code, ErrorCode::kClosed);
}

TEST(Message, HeartbeatRoundtrip) {
  HeartbeatRequest request;
  request.executor_id = ExecutorId{0xfeedULL};
  request.has_digest = true;
  request.digest_generation = 41;
  request.data_port = 9444;
  request.cached = {"obj-a", "obj-b"};
  auto bytes = encode_message(request);
  auto decoded = decode_message(bytes);
  ASSERT_TRUE(decoded.ok());
  const auto* reply = std::get_if<HeartbeatRequest>(&decoded.value());
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->executor_id.value, 0xfeedULL);
  EXPECT_TRUE(reply->has_digest);
  EXPECT_EQ(reply->digest_generation, 41u);
  EXPECT_EQ(reply->data_port, 9444u);
  EXPECT_EQ(reply->cached, request.cached);
  EXPECT_EQ(message_type(decoded.value()), MsgType::kHeartbeatRequest);

  auto pong = decode_message(encode_message(HeartbeatReply{}));
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(message_type(pong.value()), MsgType::kHeartbeatReply);
}

TEST(Message, DataPlaneMessagesRoundtrip) {
  CacheDigest digest;
  digest.executor_id = ExecutorId{17};
  digest.generation = 5;
  digest.data_port = 40123;
  digest.objects = {"obj-a", "obj-b", "obj-c"};
  auto decoded = decode_message(encode_message(digest));
  ASSERT_TRUE(decoded.ok());
  const auto* d = std::get_if<CacheDigest>(&decoded.value());
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->executor_id.value, 17u);
  EXPECT_EQ(d->generation, 5u);
  EXPECT_EQ(d->data_port, 40123u);
  EXPECT_EQ(d->objects, digest.objects);

  auto fetch = decode_message(encode_message(DataFetch{"obj-b"}));
  ASSERT_TRUE(fetch.ok());
  ASSERT_NE(std::get_if<DataFetch>(&fetch.value()), nullptr);
  EXPECT_EQ(std::get_if<DataFetch>(&fetch.value())->object, "obj-b");

  const DataFetchReply reply =
      make_data_fetch_reply("obj-b", 1 << 20, "payload-bytes");
  EXPECT_EQ(reply.crc, crc32("payload-bytes", 13));
  auto fetched = decode_message(encode_message(reply));
  ASSERT_TRUE(fetched.ok());
  const auto* fr = std::get_if<DataFetchReply>(&fetched.value());
  ASSERT_NE(fr, nullptr);
  EXPECT_EQ(fr->object, "obj-b");
  EXPECT_EQ(fr->object_bytes, 1u << 20);
  EXPECT_EQ(fr->payload, "payload-bytes");
  EXPECT_EQ(fr->crc, reply.crc);

  auto evict = decode_message(encode_message(DataEvict{ExecutorId{17}, "obj-a"}));
  ASSERT_TRUE(evict.ok());
  const auto* ev = std::get_if<DataEvict>(&evict.value());
  ASSERT_NE(ev, nullptr);
  EXPECT_EQ(ev->executor_id.value, 17u);
  EXPECT_EQ(ev->object, "obj-a");
}

TEST(Message, DataFetchReplyCrcMismatchIsProtocolError) {
  // A payload byte flip must fail the embedded CRC at decode, and a
  // tampered CRC field must fail against the (intact) payload.
  const std::string payload = "the-object-bytes";
  const auto valid = encode_message(make_data_fetch_reply("obj-x", 4096, payload));
  {
    auto corrupted = valid;
    // Locate the payload bytes in the frame and flip one of them.
    const auto it = std::search(corrupted.begin(), corrupted.end(),
                                payload.begin(), payload.end());
    ASSERT_NE(it, corrupted.end());
    *(it + 4) ^= 0x40;
    auto decoded = decode_message(corrupted);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.error().code, ErrorCode::kProtocolError);
  }
  {
    auto corrupted = valid;
    corrupted.back() ^= 0x01;  // trailing u32 CRC
    auto decoded = decode_message(corrupted);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.error().code, ErrorCode::kProtocolError);
  }
}

TEST(Message, DataFetchReplyLengthMismatchFailsCleanly) {
  // A length prefix promising more payload than the frame carries must be
  // a clean protocol error (underrun), never an allocation or a crash.
  DataFetchReply reply = make_data_fetch_reply("obj-x", 64, "0123456789");
  auto bytes = encode_message(reply);
  // Drop the trailing 8 bytes (payload tail + CRC): the payload string's
  // length prefix now promises bytes past the end of the buffer.
  bytes.resize(bytes.size() - 8);
  auto decoded = decode_message(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, ErrorCode::kProtocolError);
}

TEST(Message, CacheDigestCountExceedingFrameIsProtocolError) {
  // Hand-craft a digest whose object count (or entry length) claims far
  // more than the buffer holds — the decoder must reject before
  // allocating, not tear down with a bad_alloc or over-read.
  const std::uint8_t tag = encode_message(CacheDigest{})[0];
  {
    Writer w;
    w.put_u64(1);              // executor_id
    w.put_u64(2);              // generation
    w.put_u32(0);              // data_port
    w.put_varint(1u << 30);    // a billion digest entries, zero bytes behind
    std::vector<std::uint8_t> bytes{tag};
    bytes.insert(bytes.end(), w.data().begin(), w.data().end());
    auto decoded = decode_message(bytes);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.error().code, ErrorCode::kProtocolError);
  }
  {
    Writer w;
    w.put_u64(1);
    w.put_u64(2);
    w.put_u32(0);
    w.put_varint(1);            // one entry...
    w.put_varint(300'000'000);  // ...claiming to exceed the 256 MiB frame cap
    std::vector<std::uint8_t> bytes{tag};
    bytes.insert(bytes.end(), w.data().begin(), w.data().end());
    auto decoded = decode_message(bytes);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.error().code, ErrorCode::kProtocolError);
  }
}

/// Fuzz the four data-plane messages: truncation at every byte boundary
/// and random corruption must yield a clean decode or kProtocolError —
/// never a crash — mirroring EpochFieldFuzz for the data wire.
class DataPlaneWireFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DataPlaneWireFuzz, TruncatedOrCorruptDataFramesFailCleanly) {
  falkon::Rng rng(GetParam());

  std::vector<Message> messages;
  {
    CacheDigest m;
    m.executor_id = ExecutorId{rng.next_u64()};
    m.generation = rng.next_u64();
    m.data_port = static_cast<std::uint32_t>(rng.uniform_int(1, 65535));
    const auto n = rng.uniform_int(1, 24);
    for (std::uint64_t i = 0; i < n; ++i) {
      m.objects.push_back("digest-obj-" + std::to_string(rng.next_u64()));
    }
    messages.push_back(std::move(m));
  }
  messages.push_back(DataFetch{"fetch-" + std::to_string(rng.next_u64())});
  {
    std::string payload(rng.uniform_int(1, 256), '\0');
    for (auto& c : payload) c = static_cast<char>(rng.next_u64());
    messages.push_back(
        make_data_fetch_reply("reply-" + std::to_string(rng.next_u64()),
                              rng.next_u64(), std::move(payload)));
  }
  messages.push_back(DataEvict{ExecutorId{rng.next_u64()},
                               "evict-" + std::to_string(rng.next_u64())});

  for (const auto& message : messages) {
    const auto valid = encode_message(message);

    for (std::size_t cut = 0; cut < valid.size(); ++cut) {
      std::vector<std::uint8_t> truncated(
          valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(cut));
      auto decoded = decode_message(truncated);
      if (!decoded.ok()) {
        EXPECT_EQ(decoded.error().code, ErrorCode::kProtocolError);
      } else {
        // A decodable prefix must not impersonate the full message.
        EXPECT_NE(encode_message(decoded.value()), valid);
      }
    }

    for (int i = 0; i < 200; ++i) {
      auto corrupted = valid;
      const auto at = rng.uniform_int(0, corrupted.size() - 1);
      corrupted[at] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
      auto decoded = decode_message(corrupted);
      if (!decoded.ok()) {
        EXPECT_EQ(decoded.error().code, ErrorCode::kProtocolError);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DataPlaneWireFuzz,
                         ::testing::Values(13, 37, 97));

/// Fuzz property over the *framing* layer: byte streams assembled from
/// valid frames and then mutated (bit flips, truncations, length tampering)
/// must never crash the reader — every frame either decodes or fails with a
/// clean error, and the reader never spins forever.
class FramingFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FramingFuzz, MutatedFrameStreamsFailCleanly) {
  falkon::Rng rng(GetParam());
  // Assemble a pristine multi-frame stream of real protocol messages.
  std::vector<std::uint8_t> pristine;
  {
    struct Capture final : ByteStream {
      std::vector<std::uint8_t>* out;
      explicit Capture(std::vector<std::uint8_t>* out) : out(out) {}
      Status write_all(const void* data, std::size_t size) override {
        const auto* p = static_cast<const std::uint8_t*>(data);
        out->insert(out->end(), p, p + size);
        return ok_status();
      }
      Status read_exact(void*, std::size_t) override {
        return make_error(ErrorCode::kInternal, "write-only");
      }
    } capture{&pristine};
    (void)write_frame(capture, encode_message(Notify{ExecutorId{1}, 1}));
    (void)write_frame(capture, encode_message(GetWorkRequest{ExecutorId{1}, 4}));
    SubmitRequest submit;
    submit.instance_id = InstanceId{2};
    for (std::uint64_t i = 1; i <= 3; ++i) submit.tasks.push_back(sample_spec(i));
    (void)write_frame(capture, encode_message(submit));
    HeartbeatRequest heartbeat;
    heartbeat.executor_id = ExecutorId{9};
    (void)write_frame(capture, encode_message(heartbeat));
    TaskBundle bundle;
    bundle.executor_id = ExecutorId{4};
    bundle.acknowledged = 12;
    bundle.tasks.push_back(sample_spec(8));
    // Pipelined frame with a non-zero correlation id in the header.
    (void)write_frame(capture, /*corr=*/0x1234, encode_message(bundle));
  }

  for (int round = 0; round < 300; ++round) {
    auto bytes = pristine;
    // Mutate: either truncate the stream or flip a handful of bits.
    if (rng.bernoulli(0.3)) {
      bytes.resize(rng.uniform_int(0, bytes.size()));
    } else {
      const auto flips = rng.uniform_int(1, 8);
      for (std::uint64_t f = 0; f < flips && !bytes.empty(); ++f) {
        const auto at = rng.uniform_int(0, bytes.size() - 1);
        bytes[at] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
      }
    }
    MemoryStream stream;
    if (!bytes.empty()) {
      ASSERT_TRUE(stream.write_all(bytes.data(), bytes.size()).ok());
    }
    // Read frames until the stream errors; bounded by the frame count so a
    // corrupted length cannot make us loop forever.
    for (int frames = 0; frames < 16; ++frames) {
      auto frame = read_frame(stream);
      if (!frame.ok()) {
        EXPECT_TRUE(frame.error().code == ErrorCode::kProtocolError ||
                    frame.error().code == ErrorCode::kClosed)
            << frame.error().str();
        break;
      }
      auto decoded = decode_message(frame.value());
      if (!decoded.ok()) {
        EXPECT_EQ(decoded.error().code, ErrorCode::kProtocolError);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FramingFuzz, ::testing::Values(3, 17, 29, 71));

}  // namespace
}  // namespace falkon::wire
