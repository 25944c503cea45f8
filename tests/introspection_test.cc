// The live-introspection layer end to end: the run journal's JSONL
// contract (valid lines, monotonic sequence numbers, replayable ω
// convergence), the status server's four endpoints over real sockets,
// /runz reflecting a live run mid-flight, the crash flight recorder's
// kill-at-boundary sweep (every non-clean StopReason leaves a valid
// post-mortem) and race-free dump names, and — the overriding contract —
// introspection never changes mining answers.
//
// The journal and server are process-wide singletons, so these tests are
// written to tolerate state left by earlier tests in this binary (run
// tables accumulate; live tracking, once enabled, is sticky).  Order
// matters only for the first test, which pins the inactive default.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <limits>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/run_context.h"
#include "core/miner.h"
#include "core/nm_engine.h"
#include "datagen/planted_generator.h"
#include "geometry/grid.h"
#include "json_check.h"
#include "obs/flight_recorder.h"
#include "obs/journal.h"
#include "server/fault_injector.h"
#include "server/mining_supervisor.h"
#include "server/status_server.h"

namespace trajpattern {
namespace {

using obs::JournalEvent;
using obs::JournalEventType;
using obs::RunJournal;
using obs::RunSnapshot;

// ------------------------------------------------------------- fixtures

TrajectoryDataset MakeMiningData() {
  PlantedPatternOptions opt;
  opt.pattern = {Point2(0.15, 0.15), Point2(0.45, 0.45), Point2(0.75, 0.75)};
  opt.num_with_pattern = 12;
  opt.num_background = 6;
  opt.num_snapshots = 12;
  opt.seed = 7;
  return GeneratePlantedPatterns(opt);
}

// A 5-cell planted chain under min_length=2: several grow iterations, so
// the journal has real boundaries to record.
TrajectoryDataset MakeDeepMiningData() {
  PlantedPatternOptions opt;
  opt.pattern = {Point2(0.15, 0.15), Point2(0.35, 0.35), Point2(0.55, 0.55),
                 Point2(0.75, 0.75), Point2(0.95, 0.95)};
  opt.num_with_pattern = 30;
  opt.num_background = 0;
  opt.num_snapshots = 10;
  opt.sigma = 0.005;
  opt.seed = 7;
  return GeneratePlantedPatterns(opt);
}

MiningSpace MakeSpace() { return MiningSpace(Grid::UnitSquare(8), 0.125); }

MinerOptions MakeOptions() {
  MinerOptions opt;
  opt.k = 10;
  opt.max_pattern_length = 4;
  return opt;
}

MinerOptions MakeDeepOptions() {
  MinerOptions opt;
  opt.k = 10;
  opt.min_length = 2;
  opt.max_pattern_length = 5;
  return opt;
}

void ExpectBitIdentical(const std::vector<ScoredPattern>& a,
                        const std::vector<ScoredPattern>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].pattern, b[i].pattern) << "rank " << i;
    EXPECT_EQ(std::memcmp(&a[i].nm, &b[i].nm, sizeof(double)), 0)
        << "rank " << i;
  }
}

std::string TempPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

// Extracts `"key": <number>` from a JSON line; nan when absent.
double NumField(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const size_t pos = line.find(needle);
  if (pos == std::string::npos) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return std::strtod(line.c_str() + pos + needle.size(), nullptr);
}

bool HasEvent(const std::string& line, const char* type) {
  return line.find(std::string("\"event\": \"") + type + "\"") !=
         std::string::npos;
}

// A TCP connection to the server on loopback, or -1.
int ConnectTo(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

// Minimal blocking HTTP client for the raw-socket leg of the server
// tests (HandlePath covers the handlers; this covers the wire).  With
// `timeout_s` > 0 the client stops waiting for the response after that
// many seconds and returns what it has.
std::string HttpGet(int port, const std::string& path, int timeout_s = 0) {
  const int fd = ConnectTo(port);
  if (fd < 0) return "";
  if (timeout_s > 0) {
    const timeval tv{timeout_s, 0};
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  std::string out;
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  if (send(fd, req.data(), req.size(), 0) ==
      static_cast<ssize_t>(req.size())) {
    char buf[4096];
    ssize_t n;
    while ((n = read(fd, buf, sizeof(buf))) > 0) out.append(buf, n);
  }
  close(fd);
  return out;
}

std::string HttpBody(const std::string& response) {
  const size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

// --------------------------------------------------------- journal basics

TEST(RunJournalTest, InactiveByDefaultCostsNothingAndTracksNothing) {
  // Must run before anything in this binary touches the journal: the
  // default is off, BeginRun hands back the "don't bother" id, and Emit
  // is a no-op.
  RunJournal& j = RunJournal::Global();
  ASSERT_FALSE(j.active());
  EXPECT_EQ(j.BeginRun(5, false), 0);
  JournalEvent ev;
  ev.type = JournalEventType::kRoundCommitted;
  j.Emit(ev);
  EXPECT_EQ(j.events_emitted(), 0u);
  EXPECT_TRUE(j.Runs().empty());
  EXPECT_TRUE(j.TailLines(16).empty());
  EXPECT_EQ(j.path(), "");
}

TEST(RunJournalTest, StreamsValidJsonlWithMonotonicSeqs) {
  const std::string path = TempPath("tp_journal_basic.jsonl");
  RunJournal& j = RunJournal::Global();
  ASSERT_TRUE(j.Open(path));
  EXPECT_TRUE(j.active());
  EXPECT_EQ(j.path(), path);

  const TrajectoryDataset data = MakeDeepMiningData();
  NmEngine engine(data, MakeSpace());
  const MiningResult result = MineTrajPatterns(engine, MakeDeepOptions());
  ASSERT_FALSE(result.stats.aborted);
  j.Close();
  EXPECT_FALSE(j.active());  // no live tracking was requested

  std::string text;
  ASSERT_TRUE(test::ReadFileToString(path, &text));
  const std::vector<std::string> lines = SplitLines(text);
  ASSERT_GE(lines.size(), 3u);  // started, >= 1 round, stopped

  double prev_seq = 0.0;
  for (const std::string& line : lines) {
    EXPECT_TRUE(test::IsValidJson(line)) << line;
    const double seq = NumField(line, "seq");
    EXPECT_GT(seq, prev_seq) << "sequence numbers must be monotonic";
    prev_seq = seq;
  }
  EXPECT_TRUE(HasEvent(lines.front(), "run_started")) << lines.front();
  EXPECT_TRUE(HasEvent(lines.back(), "run_stopped")) << lines.back();
  EXPECT_NE(lines.back().find("\"stop_reason\": \"none\""), std::string::npos)
      << lines.back();
  std::remove(path.c_str());
}

TEST(RunJournalTest, ReplayReconstructsMonotoneOmegaConvergence) {
  // The journal's reason to exist: reading the round_committed /
  // omega_tightened series back must yield the non-decreasing ω
  // time series the threshold contract guarantees.
  const std::string path = TempPath("tp_journal_omega.jsonl");
  RunJournal& j = RunJournal::Global();
  ASSERT_TRUE(j.Open(path));

  const TrajectoryDataset data = MakeDeepMiningData();
  NmEngine engine(data, MakeSpace());
  const MiningResult result = MineTrajPatterns(engine, MakeDeepOptions());
  ASSERT_FALSE(result.stats.aborted);
  j.Close();

  std::string text;
  ASSERT_TRUE(test::ReadFileToString(path, &text));
  double omega = -std::numeric_limits<double>::infinity();
  int rounds = 0;
  double prev_iteration = 0.0;
  for (const std::string& line : SplitLines(text)) {
    if (!HasEvent(line, "round_committed") &&
        !HasEvent(line, "omega_tightened")) {
      continue;
    }
    const double o = NumField(line, "omega");
    if (!std::isnan(o)) {
      EXPECT_GE(o, omega) << "omega regressed in replay: " << line;
      omega = std::max(omega, o);
    }
    if (HasEvent(line, "round_committed")) {
      ++rounds;
      const double iter = NumField(line, "iteration");
      EXPECT_GT(iter, prev_iteration) << line;
      prev_iteration = iter;
      // Cumulative counters ride along on every round.
      EXPECT_FALSE(std::isnan(NumField(line, "evaluated")));
      EXPECT_FALSE(std::isnan(NumField(line, "frontier")));
    }
  }
  EXPECT_EQ(rounds, result.stats.iterations);
  // The final journal ω is the answer's kth score (the run's threshold).
  EXPECT_GT(rounds, 1);
  std::remove(path.c_str());
}

// --------------------------------------------------------- journal replay

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

TEST(JournalReplayTest, ReplaysACleanJournalInFull) {
  const std::string path = TempPath("tp_replay_clean.jsonl");
  RunJournal& j = RunJournal::Global();
  ASSERT_TRUE(j.Open(path));
  const TrajectoryDataset data = MakeDeepMiningData();
  NmEngine engine(data, MakeSpace());
  const MiningResult result = MineTrajPatterns(engine, MakeDeepOptions());
  ASSERT_FALSE(result.stats.aborted);
  j.Close();

  std::string text;
  ASSERT_TRUE(test::ReadFileToString(path, &text));
  const std::vector<std::string> expect = SplitLines(text);

  obs::JournalReplay replay;
  const Status s = obs::ReplayJournalFile(path, &replay);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(replay.torn_tail_lines, 0u);
  ASSERT_EQ(replay.lines.size(), expect.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(replay.lines[i], expect[i]);
    EXPECT_TRUE(test::IsValidJson(replay.lines[i])) << replay.lines[i];
  }
  std::remove(path.c_str());
}

TEST(JournalReplayTest, ChoppedTrailingAppendIsSkippedNotFatal) {
  // A kill mid-append leaves the final line truncated at an arbitrary
  // byte.  Replay must survive every chop point: the complete prefix
  // comes back, the torn tail is counted, and nothing is misparsed.
  const std::string l1 =
      "{\"seq\": 1, \"event\": \"run_started\", \"run_id\": 1}";
  const std::string l2 =
      "{\"seq\": 2, \"event\": \"round_committed\", \"omega\": -12.5}";
  const std::string l3 =
      "{\"seq\": 3, \"event\": \"run_stopped\", \"stop_reason\": \"none\"}";
  const std::string path = TempPath("tp_replay_chopped.jsonl");
  const std::string intact = l1 + "\n" + l2 + "\n";

  for (size_t cut = 1; cut <= l3.size(); ++cut) {
    WriteFileBytes(path, intact + l3.substr(0, cut));
    obs::JournalReplay replay;
    const Status s = obs::ReplayJournalFile(path, &replay);
    ASSERT_TRUE(s.ok()) << "cut=" << cut << ": " << s.ToString();
    ASSERT_GE(replay.lines.size(), 2u) << "cut=" << cut;
    EXPECT_EQ(replay.lines[0], l1);
    EXPECT_EQ(replay.lines[1], l2);
    if (cut == l3.size()) {
      // The whole object made it out; only the '\n' was lost.
      EXPECT_EQ(replay.lines.size(), 3u);
      EXPECT_EQ(replay.lines[2], l3);
      EXPECT_EQ(replay.torn_tail_lines, 0u);
    } else {
      EXPECT_EQ(replay.lines.size(), 2u) << "cut=" << cut;
      EXPECT_EQ(replay.torn_tail_lines, 1u) << "cut=" << cut;
    }
  }
  std::remove(path.c_str());
}

TEST(JournalReplayTest, MidFileCorruptionIsDataLossNotSilence) {
  // Only the *tail* can be torn by a crashed append; a broken line with
  // valid lines after it means real corruption and must fail typed.
  const std::string path = TempPath("tp_replay_corrupt.jsonl");
  WriteFileBytes(path,
                 "{\"seq\": 1, \"event\": \"run_started\"}\n"
                 "{\"seq\": 2, \"event\": \"round_com\n"
                 "{\"seq\": 3, \"event\": \"run_stopped\"}\n");
  obs::JournalReplay replay;
  const Status s = obs::ReplayJournalFile(path, &replay);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
  std::remove(path.c_str());
}

TEST(JournalReplayTest, MissingFileIsNotFound) {
  obs::JournalReplay replay;
  const Status s =
      obs::ReplayJournalFile(TempPath("tp_replay_nope.jsonl"), &replay);
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

// ------------------------------------------- introspection changes nothing

TEST(IntrospectionIdentityTest, JournalAndServerNeverChangeAnswers) {
  const TrajectoryDataset data = MakeDeepMiningData();
  const MiningSpace space = MakeSpace();
  const MinerOptions base = MakeDeepOptions();

  NmEngine baseline_engine(data, space);
  const MiningResult baseline = MineTrajPatterns(baseline_engine, base);

  // Full introspection on: journal streaming, live tracking, status
  // server answering between runs.
  const std::string path = TempPath("tp_identity.jsonl");
  ASSERT_TRUE(RunJournal::Global().Open(path));
  StatusServer server;
  ASSERT_TRUE(server.Start({}).ok());

  NmEngine observed_engine(data, space);
  const MiningResult observed = MineTrajPatterns(observed_engine, base);
  EXPECT_NE(HttpGet(server.port(), "/runz").find("200 OK"),
            std::string::npos);

  server.Stop();
  RunJournal::Global().Close();

  ExpectBitIdentical(observed.patterns, baseline.patterns);
  std::remove(path.c_str());
}

// ------------------------------------------------------- status server

TEST(StatusServerTest, ServesAllEndpointsOverRealSockets) {
  StatusServer server;
  ASSERT_TRUE(server.Start({}).ok());
  ASSERT_GT(server.port(), 0);
  EXPECT_TRUE(server.running());

  // Give /runz something to show.
  const TrajectoryDataset data = MakeMiningData();
  NmEngine engine(data, MakeSpace());
  (void)MineTrajPatterns(engine, MakeOptions());

  const std::string health = HttpGet(server.port(), "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos) << health;
  EXPECT_EQ(HttpBody(health), "ok\n");

  const std::string runz = HttpGet(server.port(), "/runz");
  EXPECT_NE(runz.find("200 OK"), std::string::npos);
  EXPECT_NE(runz.find("application/json"), std::string::npos);
  EXPECT_TRUE(test::IsValidJson(HttpBody(runz))) << HttpBody(runz);
  EXPECT_NE(HttpBody(runz).find("\"runs\""), std::string::npos);
  EXPECT_NE(HttpBody(runz).find("\"journal_events\""), std::string::npos);

  const std::string metrics = HttpGet(server.port(), "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);

  const std::string tracez = HttpGet(server.port(), "/tracez");
  EXPECT_NE(tracez.find("200 OK"), std::string::npos);
  EXPECT_TRUE(test::IsValidJson(HttpBody(tracez)));
  EXPECT_NE(HttpBody(tracez).find("\"droppedEvents\""), std::string::npos);

  EXPECT_NE(HttpGet(server.port(), "/nonsense").find("404"),
            std::string::npos);
  // Query strings are stripped before routing.
  EXPECT_NE(HttpGet(server.port(), "/healthz?verbose=1").find("200 OK"),
            std::string::npos);

  const int port = server.port();
  server.Stop();
  EXPECT_FALSE(server.running());
  EXPECT_EQ(HttpGet(port, "/healthz"), "");  // really stopped
  server.Stop();                             // idempotent
}

TEST(StatusServerTest, IdleClientHoldsNeitherOtherClientsNorStop) {
  // Requests are answered one at a time, so a client that connects and
  // sends nothing must not hold the server: another client's /healthz
  // is answered, and Stop() returns, each within a few seconds.
  StatusServer server;
  ASSERT_TRUE(server.Start({}).ok());
  // EXPECT, not ASSERT: returning early would leave a client open for
  // the server's destructor to wait on.
  const int idle = ConnectTo(server.port());
  EXPECT_GE(idle, 0);
  const std::string health = HttpGet(server.port(), "/healthz", 5);
  EXPECT_EQ(HttpBody(health), "ok\n") << health;

  // A second silent client, accepted and being read when Stop() runs.
  const int idle_at_stop = ConnectTo(server.port());
  EXPECT_GE(idle_at_stop, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  std::future<void> stopped =
      std::async(std::launch::async, [&server] { server.Stop(); });
  const bool prompt = stopped.wait_for(std::chrono::seconds(3)) ==
                      std::future_status::ready;
  // Closing the clients lets a server that waits for them finish, so
  // a regression fails here instead of hanging the suite.
  close(idle_at_stop);
  close(idle);
  stopped.wait();
  EXPECT_TRUE(prompt) << "Stop() waited for an idle client";
  EXPECT_FALSE(server.running());
}

TEST(StatusServerTest, HandlersAreCoverableWithoutSockets) {
  EXPECT_NE(StatusServer::HandlePath("/healthz").find("200 OK"),
            std::string::npos);
  EXPECT_NE(StatusServer::HandlePath("/metrics").find("200 OK"),
            std::string::npos);
  EXPECT_NE(StatusServer::HandlePath("/runz").find("200 OK"),
            std::string::npos);
  EXPECT_NE(StatusServer::HandlePath("/tracez").find("200 OK"),
            std::string::npos);
  EXPECT_NE(StatusServer::HandlePath("/").find("404"), std::string::npos);
  EXPECT_TRUE(test::IsValidJson(StatusServer::RunzJson()));

  RunSnapshot snap;
  std::string json;
  obs::AppendRunSnapshotJson(snap, &json);
  EXPECT_TRUE(test::IsValidJson(json)) << json;  // -inf ω must not leak
}

TEST(StatusServerTest, RunzReflectsLiveRunMidFlight) {
  RunJournal::Global().EnableLiveTracking();
  StatusServer server;
  ASSERT_TRUE(server.Start({}).ok());

  // Park a run at its first checkpoint boundary, then inspect it from
  // outside while it is provably mid-flight.
  std::mutex mu;
  std::condition_variable cv;
  bool parked = false;
  bool release = false;
  const TrajectoryDataset data = MakeDeepMiningData();
  NmEngine engine(data, MakeSpace());
  MinerOptions opt = MakeDeepOptions();
  opt.checkpoint_sink = [&](const MinerCheckpoint&) {
    std::unique_lock<std::mutex> lock(mu);
    parked = true;
    cv.notify_all();
    cv.wait_for(lock, std::chrono::seconds(30), [&] { return release; });
    return true;
  };

  MiningResult result;
  std::thread miner([&] { result = MineTrajPatterns(engine, opt); });
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(
        cv.wait_for(lock, std::chrono::seconds(30), [&] { return parked; }));
  }

  const std::string live = HttpBody(HttpGet(server.port(), "/runz"));
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  }
  miner.join();
  server.Stop();

  ASSERT_TRUE(test::IsValidJson(live)) << live;
  EXPECT_NE(live.find("\"active\": true"), std::string::npos) << live;
  EXPECT_NE(live.find("\"k\": 10"), std::string::npos) << live;
  EXPECT_NE(live.find("\"iteration\": 1"), std::string::npos) << live;
  EXPECT_NE(live.find("\"omega\""), std::string::npos);
  EXPECT_NE(live.find("\"frontier_depth\""), std::string::npos);
  EXPECT_NE(live.find("\"checkpoint_age_ms\""), std::string::npos);
  ASSERT_FALSE(result.stats.aborted);

  // After release, the same run shows up finished with a clean stop.
  const std::string after = StatusServer::RunzJson();
  EXPECT_NE(after.find("\"stop_reason\": \"none\""), std::string::npos)
      << after;
}

// ------------------------------------------------------ flight recorder

TEST(FlightRecorderTest, JsonIsValidEvenWithNoState) {
  const std::string json = obs::FlightRecordJson("unit_test", "no state");
  EXPECT_TRUE(test::IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"trigger\": \"unit_test\""), std::string::npos);
  EXPECT_NE(json.find("\"journal\""), std::string::npos);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"trace\""), std::string::npos);
}

TEST(FlightRecorderTest, WriteToMissingDirectoryFailsCleanly) {
  EXPECT_EQ(obs::WriteFlightRecord(::testing::TempDir() + "/no_such_dir_xyz",
                                   "t", "d"),
            "");
}

// Dumps that land in one directory in the same millisecond — from
// threads here, from separate processes under a parallel test run —
// each claim their own file and keep their own trigger.
TEST(FlightRecorderTest, ConcurrentDumpsGetDistinctFiles) {
  const std::string dir = ::testing::TempDir() + "/tp_flight_concurrent";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(std::filesystem::create_directory(dir));
  constexpr int kWriters = 8;
  std::vector<std::string> paths(kWriters);
  std::atomic<int> waiting{kWriters};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      waiting.fetch_sub(1);
      while (waiting.load() > 0) {
      }
      paths[static_cast<size_t>(t)] =
          obs::WriteFlightRecord(dir, "writer_" + std::to_string(t), "race");
    });
  }
  for (std::thread& w : writers) w.join();

  std::set<std::string> distinct;
  for (int t = 0; t < kWriters; ++t) {
    const std::string& path = paths[static_cast<size_t>(t)];
    ASSERT_FALSE(path.empty()) << "writer " << t;
    distinct.insert(path);
    std::string json;
    ASSERT_TRUE(test::ReadFileToString(path, &json)) << path;
    EXPECT_TRUE(test::IsValidJson(json)) << path;
    EXPECT_NE(json.find("\"trigger\": \"writer_" + std::to_string(t) + "\""),
              std::string::npos)
        << path;
  }
  EXPECT_EQ(distinct.size(), static_cast<size_t>(kWriters));
  std::filesystem::remove_all(dir);
}

// The kill-at-boundary sweep: every way a run can die non-cleanly under
// the supervisor must leave a valid flight record naming its stop.
struct KillCase {
  const char* name;
  StopReason expected;
};

TEST(FlightRecorderTest, EveryNonCleanStopLeavesAPostMortem) {
  RunJournal::Global().EnableLiveTracking();
  const TrajectoryDataset data = MakeMiningData();
  const MiningSpace space = MakeSpace();
  const std::string dir = ::testing::TempDir();

  const std::vector<KillCase> cases = {
      {"cancelled", StopReason::kCancelled},
      {"deadline_exceeded", StopReason::kDeadlineExceeded},
      {"memory_budget_exceeded", StopReason::kMemoryBudgetExceeded},
      {"sink_veto", StopReason::kSinkVeto},
      {"alloc_failed", StopReason::kAllocFailed},
  };
  for (const KillCase& kc : cases) {
    SCOPED_TRACE(kc.name);
    NmEngine engine(data, space);
    FaultScheduleOptions fo;
    fo.fail_rate = 1.0;
    FaultSchedule faults(fo);
    SupervisorOptions sup;
    sup.checkpoint_path =
        TempPath(std::string("tp_flight_") + kc.name + ".ckpt");
    sup.miner = MakeOptions();
    sup.flight_record_dir = dir;
    sup.sleep_fn = [](double) {};
    switch (kc.expected) {
      case StopReason::kCancelled:
        sup.miner.run.token.Cancel();
        break;
      case StopReason::kDeadlineExceeded:
        sup.miner.run.SetDeadlineAfterMillis(-1.0);
        break;
      case StopReason::kMemoryBudgetExceeded:
        sup.miner.run.memory_budget_bytes = 1;
        break;
      case StopReason::kSinkVeto:
        sup.checkpoint_retries = 1;
        sup.sink_faults = &faults;
        break;
      case StopReason::kAllocFailed:
        engine.set_alloc_fault_hook(
            [&faults](size_t) { return faults.ShouldFail(); });
        break;
      default:
        FAIL() << "unhandled case";
    }
    MiningSupervisor supervisor(&engine, sup);
    const SupervisorReport report = supervisor.Run();
    EXPECT_EQ(report.result.stats.stop_reason, kc.expected);

    ASSERT_EQ(report.flight_records.size(), 1u);
    std::string json;
    ASSERT_TRUE(test::ReadFileToString(report.flight_records[0], &json));
    EXPECT_TRUE(test::IsValidJson(json)) << json;
    EXPECT_NE(json.find("\"trigger\": \"abort\""), std::string::npos);
    EXPECT_NE(json.find(StopReasonName(kc.expected)), std::string::npos)
        << "post-mortem must name its stop reason";
    std::remove(report.flight_records[0].c_str());
    std::remove(sup.checkpoint_path.c_str());
  }
}

TEST(FlightRecorderTest, CrashRestartsDumpAndJournalTheException) {
  RunJournal::Global().EnableLiveTracking();
  const TrajectoryDataset data = MakeMiningData();
  NmEngine engine(data, MakeSpace());
  SupervisorOptions sup;
  sup.checkpoint_path = TempPath("tp_flight_crash.ckpt");
  sup.miner = MakeOptions();
  sup.flight_record_dir = ::testing::TempDir();
  sup.max_restarts = 1;
  sup.write_fn = [](const MinerCheckpoint&, const std::string&) -> Status {
    throw std::runtime_error("disk controller on fire");
  };
  sup.sleep_fn = [](double) {};
  MiningSupervisor supervisor(&engine, sup);
  const SupervisorReport report = supervisor.Run();
  EXPECT_EQ(report.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(report.restarts, 1);

  // One dump per crash: the restarted attempt and the terminal one.
  ASSERT_EQ(report.flight_records.size(), 2u);
  for (const std::string& path : report.flight_records) {
    std::string json;
    ASSERT_TRUE(test::ReadFileToString(path, &json));
    EXPECT_TRUE(test::IsValidJson(json)) << json;
    EXPECT_NE(json.find("\"trigger\": \"crash\""), std::string::npos);
    EXPECT_NE(json.find("disk controller on fire"), std::string::npos);
    std::remove(path.c_str());
  }
  // The journal's tail ring saw the restart and both dumps.
  bool saw_restart = false, saw_dump = false;
  for (const std::string& line : RunJournal::Global().TailLines(64)) {
    if (HasEvent(line, "supervisor_restart")) saw_restart = true;
    if (HasEvent(line, "flight_dump")) saw_dump = true;
  }
  EXPECT_TRUE(saw_restart);
  EXPECT_TRUE(saw_dump);
  std::remove(sup.checkpoint_path.c_str());
}

}  // namespace
}  // namespace trajpattern
