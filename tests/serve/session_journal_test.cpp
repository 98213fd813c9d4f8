// The ingest-session checkpoint journal: `<id>.ingest.ckpt` is one ISES
// snapshot frame followed by append-only ISJR round records.
//  * Snapshot → appends → restore (file and blob) is the live session
//    bitwise, for BiP and a learner backend, at checkpoint_every 1 and 3;
//    a restore lands on the last durable round.
//  * A tail cut anywhere inside the last record, or a complete tail that
//    fails its checksum, is dropped as torn; the next durable write after
//    such a restore is a fresh snapshot, never an append after garbage.
//  * A damaged non-tail record, a record that does not start at the next
//    round, one sized for another fleet, and lying count fields are
//    DataErrors that never allocate beyond the bytes present.
//  * Compaction: a cancelled redesign and kJournalRounds journaled rounds
//    force a snapshot; appends write ≥10× fewer bytes than snapshots.
//  * A refused observation leaves the session untouched.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "serve/session.hpp"
#include "util/atomic_file.hpp"
#include "util/cancellation.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/wire.hpp"

namespace ccd::serve {
namespace {

constexpr std::uint64_t kWorkers = 4;
constexpr std::size_t kHeader = util::wire::kFrameHeaderSize;
/// Bytes of one single-round record at kWorkers: header, then first round,
/// workers and rounds, then 24 bytes per observation.
constexpr std::size_t kRecordBytes = kHeader + 24 + kWorkers * 24;

std::vector<IngestObservation> round_of(std::uint64_t round,
                                        std::uint64_t workers = kWorkers) {
  std::vector<IngestObservation> observations(workers);
  for (std::uint64_t w = 0; w < workers; ++w) {
    IngestObservation& obs = observations[w];
    obs.effort = 1.0 + 0.25 * static_cast<double>((round + w) % 5);
    obs.feedback = 2.0 + 7.5 * obs.effort - 0.9 * obs.effort * obs.effort;
    obs.accuracy_sample = 0.4 + 0.1 * static_cast<double>((3 * round + w) % 7);
  }
  return observations;
}

OpenParams ingest_open(policy::Kind kind = policy::Kind::kBip,
                       std::uint64_t workers = kWorkers) {
  OpenParams params;
  params.mode = SessionMode::kIngest;
  params.rounds = 0;  // unbounded
  params.workers = workers;
  params.refit_every = 4;
  params.policy = kind;
  return params;
}

/// A session without durability fed rounds [0, rounds): the reference.
std::unique_ptr<Session> bare(std::uint64_t rounds,
                              policy::Kind kind = policy::Kind::kBip) {
  auto session = std::make_unique<Session>("ref", ingest_open(kind),
                                           Session::Env{});
  for (std::uint64_t t = 0; t < rounds; ++t) {
    session->ingest(round_of(t), nullptr);
  }
  return session;
}

void expect_contracts_equal(const std::vector<contract::Contract>& a,
                            const std::vector<contract::Contract>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].is_zero(), b[i].is_zero()) << "worker " << i;
    if (a[i].is_zero()) continue;
    ASSERT_EQ(a[i].intervals(), b[i].intervals()) << "worker " << i;
    for (std::size_t l = 0; l <= a[i].intervals(); ++l) {
      EXPECT_EQ(a[i].knot(l), b[i].knot(l)) << "worker " << i;
      EXPECT_EQ(a[i].payment(l), b[i].payment(l)) << "worker " << i;
    }
  }
}

/// Same round, same cumulative utility (bit pattern), same contracts.
void expect_same_session(const Session& got, const Session& want) {
  EXPECT_EQ(got.status().next_round, want.status().next_round);
  EXPECT_EQ(got.status().cumulative_requester_utility,
            want.status().cumulative_requester_utility);
  expect_contracts_equal(got.contracts(), want.contracts());
}

/// Payload size announced by the frame header at the start of `image`.
std::uint64_t snapshot_payload_size(const std::string& image) {
  const std::string size_bytes = image.substr(12, 8);
  util::wire::Reader r(size_bytes);
  return r.u64();
}

/// True when `image` is one snapshot frame with no journal after it.
bool bare_snapshot(const std::string& image) {
  return image.size() == kHeader + snapshot_payload_size(image);
}

/// An ISJR frame around a hand-built record payload: the given header
/// fields, then `rounds_present` rounds of kWorkers observations.
std::string journal_record(std::uint64_t first_round,
                           std::uint64_t workers_field,
                           std::uint64_t rounds_field,
                           std::uint64_t rounds_present) {
  util::wire::Writer w;
  w.u64(first_round);
  w.u64(workers_field);
  w.u64(rounds_field);
  for (std::uint64_t t = 0; t < rounds_present; ++t) {
    for (const IngestObservation& obs : round_of(first_round + t)) {
      w.f64(obs.effort);
      w.f64(obs.feedback);
      w.f64(obs.accuracy_sample);
    }
  }
  return util::wire::encode_frame("ISJR", 4, w.take());
}

class IngestJournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ccd_ingest_journal_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_ / "live");
    std::filesystem::create_directories(dir_ / "copy");
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  Session::Env env(std::size_t every = 1) const {
    Session::Env e;
    e.checkpoint_dir = (dir_ / "live").string();
    e.checkpoint_every = every;
    return e;
  }

  std::string live_path() const {
    return (dir_ / "live" / "s.ingest.ckpt").string();
  }

  /// Open "s" durably (snapshot at round 0) and feed rounds [0, rounds);
  /// `images[t]` is the file after round t (images[0]: the open snapshot).
  std::unique_ptr<Session> feed(std::uint64_t rounds,
                                std::vector<std::string>* images = nullptr,
                                std::size_t every = 1,
                                policy::Kind kind = policy::Kind::kBip) {
    auto session = std::make_unique<Session>("s", ingest_open(kind), env(every));
    session->checkpoint();
    if (images != nullptr) images->push_back(util::read_file(live_path()));
    for (std::uint64_t t = 0; t < rounds; ++t) {
      session->ingest(round_of(t), nullptr);
      if (images != nullptr) images->push_back(util::read_file(live_path()));
    }
    return session;
  }

  /// Restore `image` as a file copied elsewhere or as a kRestore blob.
  std::unique_ptr<Session> restore_image(const std::string& image,
                                         bool as_blob) const {
    if (as_blob) return Session::restore_blob("s", image, Session::Env{});
    const std::string path = (dir_ / "copy" / "s.ingest.ckpt").string();
    util::atomic_write_file(path, image);
    return Session::restore("s", path, Session::Env{});
  }

  std::filesystem::path dir_;
};

TEST_F(IngestJournalTest, SnapshotThenAppendsRestoresTheLiveSessionBitwise) {
  constexpr std::uint64_t kRounds = 10;
  constexpr std::uint64_t kContinueTo = 16;
  for (const policy::Kind kind :
       {policy::Kind::kBip, policy::Kind::kZoomingBandit}) {
    for (const std::size_t every : {std::size_t{1}, std::size_t{3}}) {
      SCOPED_TRACE(std::string(policy::to_string(kind)) + " every=" +
                   std::to_string(every));
      std::vector<std::string> images;
      const std::unique_ptr<Session> live = feed(kRounds, &images, every, kind);
      // Append-only: every image extends the one before it, and each
      // durable point adds exactly one record.
      for (std::uint64_t t = 1; t <= kRounds; ++t) {
        ASSERT_EQ(images[t].compare(0, images[t - 1].size(), images[t - 1]), 0)
            << "round " << t;
        const bool durable = t % every == 0;
        EXPECT_EQ(images[t].size() > images[t - 1].size(), durable)
            << "round " << t;
      }
      EXPECT_TRUE(bare_snapshot(images[0]));
      const std::string& last = images[kRounds];
      EXPECT_EQ(last.size(), images[0].size() + (kRounds / every) * kHeader +
                                 kRounds / every * 24 +
                                 (kRounds / every) * every * kWorkers * 24);

      const std::uint64_t durable_round = kRounds / every * every;
      for (const bool as_blob : {false, true}) {
        SCOPED_TRACE(as_blob ? "restore_blob" : "restore");
        const std::unique_ptr<Session> restored = restore_image(last, as_blob);
        expect_same_session(*restored, *bare(durable_round, kind));
        for (std::uint64_t t = durable_round; t < kContinueTo; ++t) {
          restored->ingest(round_of(t), nullptr);
        }
        expect_same_session(*restored, *bare(kContinueTo, kind));
      }
    }
  }
}

TEST_F(IngestJournalTest, TruncationInsideTheLastRecordDropsOnlyThatRound) {
  constexpr std::uint64_t kRounds = 6;
  std::vector<std::string> images;
  feed(kRounds, &images);
  const std::string& full = images[kRounds];
  const std::size_t record_start = images[kRounds - 1].size();
  ASSERT_EQ(full.size() - record_start, kRecordBytes);
  const std::unique_ptr<Session> previous = bare(kRounds - 1);
  for (std::size_t cut = record_start; cut < full.size(); ++cut) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    for (const bool as_blob : {false, true}) {
      const std::unique_ptr<Session> restored =
          restore_image(full.substr(0, cut), as_blob);
      expect_same_session(*restored, *previous);
    }
  }
}

TEST_F(IngestJournalTest, RestoreAfterATornTailSnapshotsBeforeAppending) {
  constexpr std::uint64_t kRounds = 5;
  std::vector<std::string> images;
  feed(kRounds, &images);
  // Crash mid-append of round kRounds: the file holds a torn record.
  const std::string torn =
      images[kRounds].substr(0, images[kRounds - 1].size() + kRecordBytes / 2);
  util::atomic_write_file(live_path(), torn);

  const std::unique_ptr<Session> restored =
      Session::restore("s", live_path(), env());
  ASSERT_EQ(restored->status().next_round, kRounds - 1);
  restored->ingest(round_of(kRounds - 1), nullptr);
  // The round the crash lost is re-fed; the file is now one fresh
  // snapshot, not a record appended after the torn bytes.
  const std::string compacted = util::read_file(live_path());
  EXPECT_TRUE(bare_snapshot(compacted));
  restored->ingest(round_of(kRounds), nullptr);
  EXPECT_EQ(util::read_file(live_path()).size(),
            compacted.size() + kRecordBytes);

  const std::unique_ptr<Session> again =
      Session::restore("s", live_path(), env());
  expect_same_session(*again, *bare(kRounds + 1));
}

TEST_F(IngestJournalTest, RestoreOfACleanOwnFileKeepsAppending) {
  std::vector<std::string> images;
  feed(3, &images);
  // Restoring a bare snapshot from the session's own path needs no
  // compaction: the next durable round appends.
  util::atomic_write_file(live_path(), images[0]);
  const std::unique_ptr<Session> restored =
      Session::restore("s", live_path(), env());
  restored->ingest(round_of(0), nullptr);
  EXPECT_EQ(util::read_file(live_path()), images[1]);
}

TEST_F(IngestJournalTest, ChecksumFailureIsTornAtTheTailAndCorruptBefore) {
  constexpr std::uint64_t kRounds = 4;
  std::vector<std::string> images;
  feed(kRounds, &images);
  const std::string& full = images[kRounds];

  // Flip a payload byte of the complete tail record: dropped as torn.
  std::string tail_flipped = full;
  tail_flipped[images[kRounds - 1].size() + kHeader + 30] ^= 0x40;
  // The same flip one record earlier is corruption, not a torn tail.
  std::string inner_flipped = full;
  inner_flipped[images[kRounds - 2].size() + kHeader + 30] ^= 0x40;
  // A damaged snapshot is always corruption.
  std::string snapshot_flipped = full;
  snapshot_flipped[kHeader + 9] ^= 0x01;

  for (const bool as_blob : {false, true}) {
    SCOPED_TRACE(as_blob ? "restore_blob" : "restore");
    expect_same_session(*restore_image(tail_flipped, as_blob),
                        *bare(kRounds - 1));
    EXPECT_THROW(restore_image(inner_flipped, as_blob), DataError);
    EXPECT_THROW(restore_image(snapshot_flipped, as_blob), DataError);
  }
}

TEST_F(IngestJournalTest, MisplacedOrMisshapenRecordsAreDataErrors) {
  constexpr std::uint64_t kRounds = 3;
  std::vector<std::string> images;
  feed(kRounds, &images);
  const std::string& full = images[kRounds];
  const std::string last_record = full.substr(images[kRounds - 1].size());

  std::vector<std::pair<std::string, std::string>> cases;
  // The last record again: it starts at a round already replayed.
  cases.emplace_back("duplicate record", full + last_record);
  cases.emplace_back("skipped round", full + journal_record(kRounds + 1,
                                                            kWorkers, 1, 1));
  cases.emplace_back("another fleet's record",
                     full + journal_record(kRounds, kWorkers + 1, 1, 1));
  cases.emplace_back("no rounds", full + journal_record(kRounds, kWorkers, 0, 0));
  cases.emplace_back("trailing bytes",
                     full + journal_record(kRounds, kWorkers, 1, 2));
  // A checksum-valid rounds count far beyond the bytes present must be
  // refused before anything is sized from it.
  cases.emplace_back("lying rounds count",
                     full + journal_record(kRounds, kWorkers, 1ull << 40, 1));
  cases.emplace_back("lying worker count",
                     full + journal_record(kRounds, 1ull << 40, 1, 1));
  std::string wrong_tag = last_record;
  wrong_tag.replace(4, 4, "XXXX");
  cases.emplace_back("foreign frame tag", images[kRounds - 1] + wrong_tag);
  // Earlier layouts are refused by version: ISES v2 predates the journal,
  // v3 the requester section.
  for (const char version : {2, 3}) {
    const std::string v = std::to_string(version);
    std::string old_record = last_record;
    old_record[8] = version;
    cases.emplace_back("record version " + v, images[kRounds - 1] + old_record);
    std::string old_snapshot = images[0];
    old_snapshot[8] = version;
    cases.emplace_back("ISES v" + v + " snapshot", old_snapshot);
  }
  // A snapshot header announcing more bytes than exist never allocates.
  std::string lying_snapshot = full;
  lying_snapshot.replace(12, 8, std::string(8, '\x7f'));
  cases.emplace_back("lying snapshot size", lying_snapshot);

  for (const auto& [name, image] : cases) {
    for (const bool as_blob : {false, true}) {
      SCOPED_TRACE(name + (as_blob ? " (blob)" : " (file)"));
      EXPECT_THROW(restore_image(image, as_blob), DataError);
    }
  }

  // A tail header announcing a payload beyond the end is a torn append,
  // whatever the size it claims.
  std::string lying_tail = full + last_record.substr(0, kHeader);
  lying_tail.replace(full.size() + 12, 8, std::string(8, '\x7f'));
  for (const bool as_blob : {false, true}) {
    expect_same_session(*restore_image(lying_tail, as_blob), *bare(kRounds));
  }
}

TEST_F(IngestJournalTest, CompactsAfterKJournalRounds) {
  // kJournalRounds is 32: the file never carries more journaled rounds,
  // and reaching it compacts at the next durable round.
  constexpr std::uint64_t kRounds = 70;
  std::vector<std::string> images;
  const std::unique_ptr<Session> live = feed(kRounds, &images);
  std::size_t compactions = 0;
  std::size_t most_records = 0;
  for (std::uint64_t t = 1; t <= kRounds; ++t) {
    const std::string& image = images[t];
    const std::size_t journal =
        image.size() - kHeader - snapshot_payload_size(image);
    ASSERT_EQ(journal % kRecordBytes, 0u) << "round " << t;
    most_records = std::max(most_records, journal / kRecordBytes);
    if (journal == 0) ++compactions;
  }
  EXPECT_EQ(most_records, 32u);
  EXPECT_EQ(compactions, 2u);  // after rounds 33 and 66
  expect_same_session(*restore_image(images[kRounds], false), *live);
}

TEST_F(IngestJournalTest, CutShortRedesignIsSnapshottedNeverJournaled) {
  // Round 4 is a refit boundary; its redesign runs under an already
  // cancelled token, so the posted contracts stay those of round 0. An
  // uncancelled replay would redesign — the round must be snapshotted.
  auto live = std::make_unique<Session>("s", ingest_open(), env());
  live->checkpoint();
  for (std::uint64_t t = 0; t < 3; ++t) live->ingest(round_of(t), nullptr);
  util::CancellationToken cancelled;
  cancelled.request_cancel();
  EXPECT_FALSE(live->ingest(round_of(3), &cancelled));
  EXPECT_TRUE(bare_snapshot(util::read_file(live_path())));
  for (std::uint64_t t = 4; t < 6; ++t) live->ingest(round_of(t), nullptr);
  // The cancelled redesign really diverged from an uncancelled run.
  EXPECT_NE(live->status().cumulative_requester_utility,
            bare(6)->status().cumulative_requester_utility);

  const std::string image = util::read_file(live_path());
  std::vector<std::unique_ptr<Session>> restored;
  for (const bool as_blob : {false, true}) {
    restored.push_back(restore_image(image, as_blob));
    expect_same_session(*restored.back(), *live);
  }
  // And they stay together through the next redesign (round 8).
  for (std::uint64_t t = 6; t < 9; ++t) {
    live->ingest(round_of(t), nullptr);
    for (const std::unique_ptr<Session>& r : restored) {
      r->ingest(round_of(t), nullptr);
    }
  }
  for (const std::unique_ptr<Session>& r : restored) {
    expect_same_session(*r, *live);
  }
}

TEST_F(IngestJournalTest, RefusedObservationLeavesTheSessionUntouched) {
  // A non-finite observation at the last index is refused before any
  // worker's window or estimate moves.
  auto live = std::make_unique<Session>("s", ingest_open(), env());
  live->checkpoint();
  for (std::uint64_t t = 0; t < 5; ++t) {
    live->ingest(round_of(t), nullptr);
    std::vector<IngestObservation> bad = round_of(t);
    bad[kWorkers - 1].feedback = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(live->ingest(bad, nullptr), DataError);
    bad[kWorkers - 1].feedback = -1.0;
    EXPECT_THROW(live->ingest(bad, nullptr), DataError);
  }
  for (std::uint64_t t = 5; t < 9; ++t) live->ingest(round_of(t), nullptr);
  expect_same_session(*live, *bare(9));
  expect_same_session(*Session::restore("s", live_path(), env()), *bare(9));
}

#ifndef CCD_NO_METRICS
TEST_F(IngestJournalTest, AppendsWriteTenfoldFewerBytesThanSnapshots) {
  // 64 workers, 320 acknowledged rounds at checkpoint_every=1: the bytes
  // written per round (journal records plus the periodic compactions)
  // against one snapshot at the campaign's midpoint, which is what every
  // round used to write.
  constexpr std::uint64_t kFleet = 64;
  constexpr std::uint64_t kRounds = 320;
  util::metrics::Counter& bytes =
      util::metrics::registry().counter("ccd.serve.checkpoint.bytes");
  OpenParams params = ingest_open(policy::Kind::kBip, kFleet);
  params.refit_every = 64;
  Session session("s", params, env());
  session.checkpoint();
  std::uint64_t journal_bytes = 0;
  std::uint64_t midpoint_snapshot = 0;
  for (std::uint64_t t = 0; t < kRounds; ++t) {
    std::uint64_t before = bytes.value();
    session.ingest(round_of(t, kFleet), nullptr);
    journal_bytes += bytes.value() - before;
    if (t + 1 == kRounds / 2) {
      before = bytes.value();
      session.checkpoint();
      midpoint_snapshot = bytes.value() - before;
    }
  }
  RecordProperty("bytes_per_round", std::to_string(journal_bytes / kRounds));
  RecordProperty("midpoint_snapshot_bytes", std::to_string(midpoint_snapshot));
  EXPECT_GT(midpoint_snapshot, 200'000u);
  EXPECT_LE(journal_bytes / kRounds * 10, midpoint_snapshot)
      << journal_bytes / kRounds << " B per round vs a " << midpoint_snapshot
      << " B snapshot";
  const util::metrics::HistogramSnapshot appends =
      util::metrics::registry()
          .histogram("ccd.serve.checkpoint.append_us")
          .snapshot();
  EXPECT_GE(appends.count, kRounds * 9 / 10);
}
#endif

}  // namespace
}  // namespace ccd::serve
