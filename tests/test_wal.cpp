// WAL durability suite (docs/HA.md): torn-tail and corruption fuzzing
// against ha::Wal — recovery must stop at the last valid record and never
// crash, whatever garbage the tail holds — plus snapshot round-trips,
// record codec fuzz, and cold-restart recovery through ha::Journal
// (snapshot + replay reconstructs exactly the image a parallel
// StateMachine accumulated).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/task.h"
#include "ha/async_journal.h"
#include "ha/journal.h"
#include "ha/state.h"
#include "ha/wal.h"

namespace falkon::ha {
namespace {

namespace fs = std::filesystem;

/// mkdtemp-backed scratch directory, recursively removed on destruction.
class TempDir {
 public:
  TempDir() {
    char pattern[] = "/tmp/falkon_wal_XXXXXX";
    const char* made = ::mkdtemp(pattern);
    EXPECT_NE(made, nullptr);
    path_ = made ? made : "";
  }
  ~TempDir() {
    if (!path_.empty()) {
      std::error_code ec;
      fs::remove_all(path_, ec);
    }
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<std::uint8_t> payload_for(std::uint64_t lsn) {
  // Deterministic, length varies with lsn so frames straddle arbitrary
  // truncation points.
  std::vector<std::uint8_t> bytes(1 + (lsn * 7) % 97);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>((lsn * 131 + i * 31) & 0xff);
  }
  return bytes;
}

std::vector<std::uint8_t> read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void write_all(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Replay a directory and collect (lsn, payload) pairs.
struct Collected {
  ReplayStats stats;
  std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>> records;
};

Collected collect(const std::string& dir, std::uint64_t from_lsn = 1) {
  Collected out;
  auto stats = Wal::replay(
      dir, from_lsn,
      [&](std::uint64_t lsn, const std::uint8_t* data, std::size_t size) {
        out.records.emplace_back(
            lsn, std::vector<std::uint8_t>(data, data + size));
        return true;
      });
  EXPECT_TRUE(stats.ok()) << stats.error().str();
  if (stats.ok()) out.stats = stats.value();
  return out;
}

// ---- basic append / replay -------------------------------------------------

TEST(Wal, AppendReplayRoundTrip) {
  TempDir dir;
  constexpr std::uint64_t kRecords = 50;
  {
    WalOptions options;
    options.dir = dir.path();
    auto wal = Wal::open(options);
    ASSERT_TRUE(wal.ok()) << wal.error().str();
    for (std::uint64_t i = 1; i <= kRecords; ++i) {
      auto lsn = wal.value()->append(payload_for(i));
      ASSERT_TRUE(lsn.ok()) << lsn.error().str();
      EXPECT_EQ(lsn.value(), i);  // LSNs are dense from 1
    }
    EXPECT_EQ(wal.value()->last_lsn(), kRecords);
    EXPECT_TRUE(wal.value()->sync().ok());
  }

  const Collected replayed = collect(dir.path());
  EXPECT_EQ(replayed.stats.records, kRecords);
  EXPECT_EQ(replayed.stats.first_lsn, 1u);
  EXPECT_EQ(replayed.stats.last_lsn, kRecords);
  EXPECT_FALSE(replayed.stats.torn_tail);
  ASSERT_EQ(replayed.records.size(), kRecords);
  for (std::uint64_t i = 1; i <= kRecords; ++i) {
    EXPECT_EQ(replayed.records[i - 1].first, i);
    EXPECT_EQ(replayed.records[i - 1].second, payload_for(i));
  }

  // from_lsn skips the prefix.
  const Collected tail = collect(dir.path(), kRecords - 4);
  EXPECT_EQ(tail.records.size(), 5u);
  EXPECT_EQ(tail.records.front().first, kRecords - 4);
}

TEST(Wal, ReopenContinuesLsnSequence) {
  TempDir dir;
  WalOptions options;
  options.dir = dir.path();
  {
    auto wal = Wal::open(options);
    ASSERT_TRUE(wal.ok());
    for (std::uint64_t i = 1; i <= 10; ++i) {
      ASSERT_TRUE(wal.value()->append(payload_for(i)).ok());
    }
  }
  {
    auto wal = Wal::open(options);
    ASSERT_TRUE(wal.ok());
    EXPECT_EQ(wal.value()->last_lsn(), 10u);
    EXPECT_EQ(wal.value()->next_lsn(), 11u);
    auto lsn = wal.value()->append(payload_for(11));
    ASSERT_TRUE(lsn.ok());
    EXPECT_EQ(lsn.value(), 11u);
  }
  EXPECT_EQ(collect(dir.path()).stats.records, 11u);
}

TEST(Wal, RotationAndCompaction) {
  TempDir dir;
  WalOptions options;
  options.dir = dir.path();
  options.segment_bytes = 512;  // force frequent rotation
  auto wal = Wal::open(options);
  ASSERT_TRUE(wal.ok());
  for (std::uint64_t i = 1; i <= 200; ++i) {
    ASSERT_TRUE(wal.value()->append(payload_for(i)).ok());
  }
  ASSERT_GT(wal.value()->segment_count(), 3u);

  // Compacting up to the last LSN drops every closed segment; the active
  // one always survives.
  wal.value()->compact(wal.value()->last_lsn());
  EXPECT_EQ(wal.value()->segment_count(), 1u);

  // The surviving records still replay cleanly and end at the same LSN.
  const Collected replayed = collect(dir.path());
  EXPECT_FALSE(replayed.stats.torn_tail);
  EXPECT_EQ(replayed.stats.last_lsn, 200u);
  EXPECT_GT(replayed.stats.first_lsn, 1u);
  for (const auto& [lsn, payload] : replayed.records) {
    EXPECT_EQ(payload, payload_for(lsn));
  }
}

TEST(Wal, FsyncPolicies) {
  for (const FsyncPolicy policy :
       {FsyncPolicy::kNone, FsyncPolicy::kEveryRecord,
        FsyncPolicy::kGroupCommit}) {
    TempDir dir;
    WalOptions options;
    options.dir = dir.path();
    options.fsync = policy;
    options.group_commit_interval_s = 0.001;
    auto wal = Wal::open(options);
    ASSERT_TRUE(wal.ok()) << fsync_policy_name(policy);
    for (std::uint64_t i = 1; i <= 20; ++i) {
      ASSERT_TRUE(wal.value()->append(payload_for(i)).ok());
    }
    EXPECT_TRUE(wal.value()->sync().ok());
    EXPECT_STRNE(fsync_policy_name(policy), "");
  }
}

TEST(Wal, InitialLsnStartsFreshLogMidSequence) {
  TempDir dir;
  WalOptions options;
  options.dir = dir.path();
  options.initial_lsn = 100;  // standby bootstrap continues numbering
  auto wal = Wal::open(options);
  ASSERT_TRUE(wal.ok());
  auto lsn = wal.value()->append(payload_for(100));
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(lsn.value(), 100u);
  const Collected replayed = collect(dir.path());
  EXPECT_EQ(replayed.stats.first_lsn, 100u);
  EXPECT_EQ(replayed.stats.last_lsn, 100u);
}

// ---- torn-tail / corruption fuzz ------------------------------------------

/// Seed one single-segment log with kRecords records and return the
/// pristine segment bytes plus its path.
struct SeededLog {
  std::string segment_path;
  std::vector<std::uint8_t> pristine;
  std::uint64_t records{0};
};

SeededLog seed_log(const std::string& dir, std::uint64_t records) {
  WalOptions options;
  options.dir = dir;
  auto wal = Wal::open(options);
  EXPECT_TRUE(wal.ok());
  for (std::uint64_t i = 1; i <= records; ++i) {
    EXPECT_TRUE(wal.value()->append(payload_for(i)).ok());
  }
  EXPECT_TRUE(wal.value()->sync().ok());
  SeededLog out;
  out.records = records;
  for (const auto& entry : fs::directory_iterator(dir)) {
    out.segment_path = entry.path().string();
  }
  EXPECT_FALSE(out.segment_path.empty());
  out.pristine = read_all(out.segment_path);
  return out;
}

/// The recovered log must be a valid prefix of the original: open() never
/// fails, every surviving record matches what was appended, and appending
/// afterwards continues from the recovered edge.
void expect_valid_prefix_recovery(const std::string& dir,
                                  std::uint64_t max_records) {
  WalOptions options;
  options.dir = dir;
  auto wal = Wal::open(options);
  ASSERT_TRUE(wal.ok()) << wal.error().str();
  const std::uint64_t recovered = wal.value()->last_lsn();
  EXPECT_LE(recovered, max_records);

  // Appending after recovery lands at recovered + 1 and replays back.
  auto lsn = wal.value()->append(payload_for(recovered + 1));
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(lsn.value(), recovered + 1);
  wal.value().reset();

  const Collected replayed = collect(dir);
  EXPECT_FALSE(replayed.stats.torn_tail);  // open() truncated the tear away
  EXPECT_EQ(replayed.stats.last_lsn, recovered + 1);
  for (const auto& [record_lsn, payload] : replayed.records) {
    EXPECT_EQ(payload, payload_for(record_lsn)) << "lsn " << record_lsn;
  }
}

TEST(WalFuzz, TruncationAtEveryBoundaryRecoversValidPrefix) {
  TempDir seed_dir;
  const SeededLog log = seed_log(seed_dir.path(), 40);

  // Cut the segment at a spread of byte offsets, including mid-header,
  // mid-frame-header, and mid-payload cuts.
  for (std::size_t cut = 0; cut <= log.pristine.size();
       cut += (cut < 64 ? 1 : 13)) {
    TempDir dir;
    std::vector<std::uint8_t> bytes(log.pristine.begin(),
                                    log.pristine.begin() + cut);
    write_all(dir.path() + "/" + fs::path(log.segment_path).filename().string(),
              bytes);
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    expect_valid_prefix_recovery(dir.path(), log.records);
  }
}

TEST(WalFuzz, RandomByteFlipsNeverCrashRecovery) {
  TempDir seed_dir;
  const SeededLog log = seed_log(seed_dir.path(), 40);
  Rng rng{20260808};

  for (int trial = 0; trial < 200; ++trial) {
    TempDir dir;
    std::vector<std::uint8_t> bytes = log.pristine;
    // Flip 1-4 bytes anywhere: segment header, frame headers, payloads.
    const int flips = 1 + static_cast<int>(rng.next_u64() % 4);
    for (int i = 0; i < flips; ++i) {
      const std::size_t at = rng.next_u64() % bytes.size();
      bytes[at] ^= static_cast<std::uint8_t>(1 + (rng.next_u64() % 255));
    }
    write_all(dir.path() + "/" + fs::path(log.segment_path).filename().string(),
              bytes);
    SCOPED_TRACE("trial " + std::to_string(trial));
    // A flip inside the 16-byte segment header drops the whole segment;
    // anywhere else recovery keeps the longest clean prefix. Either way:
    // no crash, no invalid record surfaced (CRC catches the flip).
    expect_valid_prefix_recovery(dir.path(), log.records);
  }
}

TEST(WalFuzz, GarbageAppendedPastCleanTailIsDiscarded) {
  TempDir dir;
  const SeededLog log = seed_log(dir.path(), 10);
  std::vector<std::uint8_t> bytes = log.pristine;
  for (int i = 0; i < 37; ++i) {
    bytes.push_back(static_cast<std::uint8_t>(0xa5 ^ i));
  }
  write_all(log.segment_path, bytes);

  const Collected replayed = collect(dir.path());
  EXPECT_TRUE(replayed.stats.torn_tail);
  EXPECT_EQ(replayed.stats.records, 10u);  // stops at last valid record

  expect_valid_prefix_recovery(dir.path(), log.records);
}

TEST(WalFuzz, MissingMiddleSegmentStopsReplayAtGap) {
  TempDir dir;
  WalOptions options;
  options.dir = dir.path();
  options.segment_bytes = 512;
  {
    auto wal = Wal::open(options);
    ASSERT_TRUE(wal.ok());
    for (std::uint64_t i = 1; i <= 150; ++i) {
      ASSERT_TRUE(wal.value()->append(payload_for(i)).ok());
    }
    ASSERT_GT(wal.value()->segment_count(), 2u);
  }
  // Drop the second segment: records after the gap are unreachable.
  std::vector<std::string> segments;
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    segments.push_back(entry.path().string());
  }
  std::sort(segments.begin(), segments.end());
  fs::remove(segments[1]);

  const Collected replayed = collect(dir.path());
  EXPECT_TRUE(replayed.stats.torn_tail);
  EXPECT_GT(replayed.stats.records, 0u);
  EXPECT_LT(replayed.stats.records, 150u);
  for (const auto& [lsn, payload] : replayed.records) {
    EXPECT_EQ(payload, payload_for(lsn));
  }
  // open() heals by discarding everything past the gap.
  expect_valid_prefix_recovery(dir.path(), 150);
}

// ---- frame helpers ---------------------------------------------------------

TEST(Wal, FrameHelpersRoundTripAndRejectTornBatch) {
  std::vector<std::uint8_t> batch;
  for (std::uint64_t i = 1; i <= 5; ++i) {
    const auto payload = payload_for(i);
    Wal::frame_record(batch, payload.data(), payload.size());
  }
  std::vector<std::vector<std::uint8_t>> parsed;
  ASSERT_TRUE(Wal::parse_frames(batch.data(), batch.size(),
                                [&](const std::uint8_t* data, std::size_t n) {
                                  parsed.emplace_back(data, data + n);
                                })
                  .ok());
  ASSERT_EQ(parsed.size(), 5u);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    EXPECT_EQ(parsed[i - 1], payload_for(i));
  }

  // Unlike replay, a replication batch is strict: a torn or corrupt frame
  // is an error, not a crash edge.
  EXPECT_FALSE(Wal::parse_frames(batch.data(), batch.size() - 1,
                                 [](const std::uint8_t*, std::size_t) {})
                   .ok());
  batch[batch.size() - 1] ^= 0xff;
  EXPECT_FALSE(Wal::parse_frames(batch.data(), batch.size(),
                                 [](const std::uint8_t*, std::size_t) {})
                   .ok());
}

// ---- snapshots -------------------------------------------------------------

TEST(Snapshot, NewestWinsAndCorruptFallsBack) {
  TempDir dir;
  const std::vector<std::uint8_t> older{1, 2, 3};
  const std::vector<std::uint8_t> newer{9, 8, 7, 6};
  ASSERT_TRUE(write_snapshot(dir.path(), 10, 1, older).ok());
  ASSERT_TRUE(write_snapshot(dir.path(), 20, 2, newer).ok());

  auto loaded = load_latest_snapshot(dir.path());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->lsn, 20u);
  EXPECT_EQ(loaded->epoch, 2u);
  EXPECT_EQ(loaded->payload, newer);

  // Corrupt the newest: load falls back to the older one.
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    if (entry.path().string().find("00000020") == std::string::npos) continue;
    auto bytes = read_all(entry.path().string());
    bytes.back() ^= 0xff;
    write_all(entry.path().string(), bytes);
  }
  loaded = load_latest_snapshot(dir.path());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->lsn, 10u);
  EXPECT_EQ(loaded->epoch, 1u);
  EXPECT_EQ(loaded->payload, older);
}

TEST(Snapshot, PrunesToNewestTwo) {
  TempDir dir;
  for (std::uint64_t lsn = 1; lsn <= 6; ++lsn) {
    ASSERT_TRUE(write_snapshot(dir.path(), lsn, lsn, {std::uint8_t(lsn)}).ok());
  }
  std::size_t count = 0;
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    (void)entry;
    ++count;
  }
  EXPECT_EQ(count, 2u);
  auto loaded = load_latest_snapshot(dir.path());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->lsn, 6u);
}

// ---- record codec ----------------------------------------------------------

std::vector<LogRecord> sample_records() {
  std::vector<LogRecord> records;
  records.push_back(RecInstanceCreated{InstanceId{1}, ClientId{7}});
  RecSubmit submit;
  submit.instance = InstanceId{1};
  submit.submit_seq = 3;
  submit.tasks = {make_sleep_task(TaskId{1}, 0.25),
                  make_data_task(TaskId{2}, 0.5, DataLocation::kSharedFs,
                                 IoMode::kReadWrite, 4096, 512)};
  records.push_back(submit);
  records.push_back(RecAssign{ExecutorId{9}, {TaskId{1}, TaskId{2}}});
  records.push_back(RecRequeue{{TaskId{2}}, true});
  TaskResult result;
  result.task_id = TaskId{1};
  result.executor_id = ExecutorId{9};
  result.exit_code = 0;
  result.state = TaskState::kCompleted;
  result.stdout_data = "out";
  result.exec_time_s = 0.125;
  records.push_back(RecComplete{InstanceId{1}, result, false});
  records.push_back(RecDelivered{InstanceId{1}, {TaskId{1}}});
  records.push_back(RecInstanceDestroyed{InstanceId{1}});
  return records;
}

TEST(RecordCodec, RoundTripEveryType) {
  for (const LogRecord& record : sample_records()) {
    const auto bytes = encode_record(record);
    auto decoded = decode_record(bytes.data(), bytes.size());
    ASSERT_TRUE(decoded.ok()) << record_summary(record);
    EXPECT_EQ(record_type(decoded.value()), record_type(record));
    EXPECT_EQ(encode_record(decoded.value()), bytes)
        << record_summary(record);
    EXPECT_FALSE(record_summary(decoded.value()).empty());
  }
}

TEST(RecordCodec, TruncationAndFlipsNeverCrash) {
  Rng rng{424242};
  for (const LogRecord& record : sample_records()) {
    const auto bytes = encode_record(record);
    // Every strict prefix must decode to an error (trailing bytes are an
    // error too, so only the exact encoding round-trips).
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      auto decoded = decode_record(bytes.data(), cut);
      EXPECT_FALSE(decoded.ok()) << record_summary(record) << " cut " << cut;
    }
    for (int trial = 0; trial < 100; ++trial) {
      auto mutated = bytes;
      mutated[rng.next_u64() % mutated.size()] ^=
          static_cast<std::uint8_t>(1 + rng.next_u64() % 255);
      (void)decode_record(mutated.data(), mutated.size());  // must not crash
    }
  }
}

// ---- state machine: snapshot + replay equivalence --------------------------

std::vector<LogRecord> workload_records() {
  std::vector<LogRecord> records;
  records.push_back(RecInstanceCreated{InstanceId{1}, ClientId{5}});
  records.push_back(RecInstanceCreated{InstanceId{2}, ClientId{6}});
  for (std::uint64_t i = 1; i <= 20; ++i) {
    RecSubmit submit;
    submit.instance = InstanceId{1 + (i % 2)};
    submit.submit_seq = i;
    submit.tasks = {make_sleep_task(TaskId{i}, 0.01)};
    records.push_back(submit);
  }
  records.push_back(
      RecAssign{ExecutorId{1}, {TaskId{1}, TaskId{3}, TaskId{5}}});
  records.push_back(RecRequeue{{TaskId{3}}, true});
  for (std::uint64_t i = 1; i <= 10; ++i) {
    TaskResult result;
    result.task_id = TaskId{i};
    result.executor_id = ExecutorId{1};
    result.state = (i % 4 == 0) ? TaskState::kFailed : TaskState::kCompleted;
    result.exit_code = (i % 4 == 0) ? 1 : 0;
    records.push_back(
        RecComplete{InstanceId{1 + (i % 2)}, result, i % 7 == 0});
  }
  records.push_back(RecDelivered{InstanceId{1}, {TaskId{2}, TaskId{4}}});
  records.push_back(RecInstanceDestroyed{InstanceId{2}});
  return records;
}

TEST(StateMachine, SnapshotMidStreamThenReplayEqualsStraightReplay) {
  const std::vector<LogRecord> records = workload_records();
  StateMachine straight;
  for (const LogRecord& record : records) straight.apply(record);

  // Snapshot at every possible cut point: reset-from-image plus the suffix
  // must land on the identical canonical image.
  for (std::size_t cut = 0; cut <= records.size(); ++cut) {
    StateMachine prefix;
    for (std::size_t i = 0; i < cut; ++i) prefix.apply(records[i]);

    const auto bytes = encode_image(prefix.image());
    auto decoded = decode_image(bytes.data(), bytes.size());
    ASSERT_TRUE(decoded.ok()) << "cut " << cut;

    StateMachine resumed;
    resumed.reset(decoded.value());
    for (std::size_t i = cut; i < records.size(); ++i) {
      resumed.apply(records[i]);
    }
    EXPECT_TRUE(images_equal(resumed.image(), straight.image()))
        << "snapshot at record " << cut << " diverged";
  }
}

// ---- journal: cold restart -------------------------------------------------

/// Drive the same transitions into a journal's hooks and a shadow
/// StateMachine. Each hook is its own append batch: the barrier after it
/// keeps segment rotation per record, as a lightly loaded dispatcher's is.
void drive(core::StateJournal& journal, StateMachine& shadow,
           std::uint64_t tasks) {
  const auto also_apply = [&](const LogRecord& record) {
    journal.barrier();
    shadow.apply(record);
  };
  const InstanceId instance{1};
  journal.on_instance_created(instance, ClientId{3});
  also_apply(RecInstanceCreated{instance, ClientId{3}});
  std::vector<TaskSpec> specs;
  for (std::uint64_t i = 1; i <= tasks; ++i) {
    specs.push_back(make_sleep_task(TaskId{i}, 0.0));
  }
  journal.on_submit(instance, 1, specs);
  {
    RecSubmit submit;
    submit.instance = instance;
    submit.submit_seq = 1;
    submit.tasks = specs;
    also_apply(submit);
  }
  std::vector<TaskId> assigned;
  for (std::uint64_t i = 1; i <= tasks / 2; ++i) assigned.push_back(TaskId{i});
  journal.on_assign(ExecutorId{4}, assigned);
  also_apply(RecAssign{ExecutorId{4}, assigned});
  journal.on_requeue({TaskId{1}}, true);
  also_apply(RecRequeue{{TaskId{1}}, true});
  for (std::uint64_t i = 2; i <= tasks / 2; ++i) {
    TaskResult result;
    result.task_id = TaskId{i};
    result.executor_id = ExecutorId{4};
    journal.on_complete(instance, result, false);
    also_apply(RecComplete{instance, result, false});
  }
  journal.on_delivered(instance, {TaskId{2}});
  also_apply(RecDelivered{instance, {TaskId{2}}});
}

TEST(Journal, ColdRestartRecoversExactImage) {
  TempDir dir;
  StateMachine shadow;
  Journal::Options options;
  options.dir = dir.path();
  options.fsync = FsyncPolicy::kEveryRecord;
  {
    auto journal = Journal::open(options);
    ASSERT_TRUE(journal.ok()) << journal.error().str();
    AsyncJournal async(journal.take());
    drive(async, shadow, 16);
    EXPECT_GT(async.inner().last_lsn(), 0u);
  }
  auto reopened = Journal::open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.error().str();
  EXPECT_TRUE(
      images_equal(reopened.value()->recovered_image(), shadow.image()));
  EXPECT_FALSE(reopened.value()->recovery_stats().torn_tail);
}

TEST(Journal, SnapshotCompactsAndStillRecoversExactImage) {
  TempDir dir;
  StateMachine shadow;
  Journal::Options options;
  options.dir = dir.path();
  options.snapshot_every = 8;    // snapshot + compact constantly
  options.segment_bytes = 1024;  // rotate constantly
  std::uint64_t wal_lsn = 0;
  {
    auto journal = Journal::open(options);
    ASSERT_TRUE(journal.ok());
    AsyncJournal async(journal.take());
    drive(async, shadow, 64);
    ASSERT_TRUE(async.inner().snapshot_now().ok());
    wal_lsn = async.inner().last_lsn();
  }
  // Compaction actually removed covered segments: replay starts past 1.
  auto stats = Wal::replay(dir.path(), 1,
                           [](std::uint64_t, const std::uint8_t*,
                              std::size_t) { return true; });
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats.value().first_lsn, 1u);

  auto reopened = Journal::open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.error().str();
  EXPECT_EQ(reopened.value()->last_lsn(), wal_lsn);
  EXPECT_TRUE(
      images_equal(reopened.value()->recovered_image(), shadow.image()));
}

TEST(Journal, TornTailRecoversPrefixWithoutCrashing) {
  TempDir dir;
  Journal::Options options;
  options.dir = dir.path();
  options.fsync = FsyncPolicy::kEveryRecord;
  {
    auto journal = Journal::open(options);
    ASSERT_TRUE(journal.ok());
    AsyncJournal async(journal.take());
    StateMachine shadow;
    drive(async, shadow, 16);
  }
  // Tear the WAL tail mid-frame.
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    const std::string path = entry.path().string();
    if (path.find("wal-") == std::string::npos) continue;
    auto bytes = read_all(path);
    ASSERT_GT(bytes.size(), 5u);
    bytes.resize(bytes.size() - 5);
    write_all(path, bytes);
  }
  auto reopened = Journal::open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.error().str();
  EXPECT_GT(reopened.value()->last_lsn(), 0u);
  // The journal accepts appends again after healing the tear.
  const std::uint64_t healed = reopened.value()->last_lsn();
  std::vector<LogRecord> more{RecInstanceCreated{InstanceId{9}, ClientId{9}}};
  reopened.value()->append_records(more);
  EXPECT_EQ(reopened.value()->last_lsn(), healed + 1);
  EXPECT_TRUE(reopened.value()->sync().ok());
}

TEST(Journal, BootstrapFromImageContinuesLsnNumbering) {
  TempDir dir;
  StateMachine warm;
  warm.apply(RecInstanceCreated{InstanceId{1}, ClientId{2}});
  {
    RecSubmit submit;
    submit.instance = InstanceId{1};
    submit.submit_seq = 4;
    submit.tasks = {make_sleep_task(TaskId{1}, 0.0)};
    warm.apply(submit);
  }

  Journal::Options options;
  options.dir = dir.path();
  auto journal = Journal::open(options, warm.image(), 57);
  ASSERT_TRUE(journal.ok()) << journal.error().str();
  EXPECT_EQ(journal.value()->last_lsn(), 57u);
  EXPECT_TRUE(images_equal(journal.value()->recovered_image(), warm.image()));

  // New records continue the primary's numbering.
  std::vector<LogRecord> more{RecInstanceCreated{InstanceId{2}, ClientId{3}}};
  journal.value()->append_records(more);
  EXPECT_EQ(journal.value()->last_lsn(), 58u);

  // And a plain reopen recovers bootstrap snapshot + appended records.
  journal.value().reset();
  auto reopened = Journal::open(options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value()->last_lsn(), 58u);
}

// ---- journal: promotion epochs ---------------------------------------------

TEST(JournalEpoch, PromoteEpochFencesSharedDirectory) {
  TempDir dir;
  Journal::Options options;
  options.dir = dir.path();
  {
    auto journal = Journal::open(options);
    ASSERT_TRUE(journal.ok());
    EXPECT_EQ(journal.value()->epoch(), 0u);
    AsyncJournal async(journal.take());
    StateMachine shadow;
    drive(async, shadow, 8);
  }

  // First promoter wins: recovery appends RecEpoch{3} and fsyncs it before
  // open() returns — the append is the election commit point.
  options.promote_epoch = 3;
  {
    auto winner = Journal::open(options);
    ASSERT_TRUE(winner.ok()) << winner.error().str();
    EXPECT_EQ(winner.value()->epoch(), 3u);
  }
  EXPECT_EQ(read_log_epoch(dir.path()), 3u);

  // A racing promoter targeting the same (or an older) epoch loses the
  // fence: the directory already records an epoch >= its claim.
  auto loser = Journal::open(options);
  ASSERT_FALSE(loser.ok());
  EXPECT_EQ(loser.error().code, ErrorCode::kAlreadyExists);
  options.promote_epoch = 2;
  auto stale = Journal::open(options);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.error().code, ErrorCode::kAlreadyExists);

  // A later regime still gets through, and the epoch sticks across an
  // unfenced reopen.
  options.promote_epoch = 4;
  {
    auto next = Journal::open(options);
    ASSERT_TRUE(next.ok()) << next.error().str();
    EXPECT_EQ(next.value()->epoch(), 4u);
  }
  options.promote_epoch = 0;
  auto plain = Journal::open(options);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain.value()->epoch(), 4u);
}

TEST(JournalEpoch, EpochSurvivesSnapshotCompaction) {
  TempDir dir;
  Journal::Options options;
  options.dir = dir.path();
  options.promote_epoch = 7;
  {
    auto journal = Journal::open(options);
    ASSERT_TRUE(journal.ok()) << journal.error().str();
    AsyncJournal async(journal.take());
    StateMachine shadow;
    drive(async, shadow, 16);
    // Compaction may drop the segment holding RecEpoch{7}; the snapshot
    // header must carry the epoch forward.
    ASSERT_TRUE(async.inner().snapshot_now().ok());
  }
  EXPECT_EQ(read_log_epoch(dir.path()), 7u);
  options.promote_epoch = 0;
  auto reopened = Journal::open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.error().str();
  EXPECT_EQ(reopened.value()->epoch(), 7u);
}

TEST(JournalEpoch, BootstrapOpenHonoursPromoteEpoch) {
  TempDir dir;
  StateMachine warm;
  warm.apply(RecInstanceCreated{InstanceId{1}, ClientId{2}});

  Journal::Options options;
  options.dir = dir.path();
  options.promote_epoch = 5;
  auto journal = Journal::open(options, warm.image(), 12);
  ASSERT_TRUE(journal.ok()) << journal.error().str();
  EXPECT_EQ(journal.value()->epoch(), 5u);
  journal.value().reset();
  EXPECT_EQ(read_log_epoch(dir.path()), 5u);
}

}  // namespace
}  // namespace falkon::ha
