// The observability layer's contracts: lock-free metrics are exact under
// contention (1-thread and 8-thread runs of the same workload produce the
// same snapshot), snapshots are pure reads, exporters emit valid JSON /
// Prometheus text, the trace recorder's Chrome export is well-formed with
// every span complete, and — above all — instrumentation never changes
// mining answers.  Builds and passes with TRAJPATTERN_OBS=OFF too: the
// classes are always compiled; only the TP_* macro call sites vanish.
// Also the bench JsonWriter's control-character escaping, which every
// BENCH_*.json artifact goes through.

#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_util.h"
#include "core/miner.h"
#include "core/nm_engine.h"
#include "datagen/zebranet_generator.h"
#include "geometry/grid.h"
#include "json_check.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "prom_lint.h"

namespace trajpattern {
namespace {

using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using obs::TraceRecorder;

// Drives `threads` workers through the same total workload against a
// local registry and returns the resulting snapshot.
MetricsSnapshot RunWorkload(int threads, int total_ops) {
  MetricsRegistry reg;
  obs::Counter* c = reg.GetCounter("test.ops");
  obs::Gauge* g = reg.GetGauge("test.level");
  obs::Histogram* h = reg.GetHistogram("test.sizes", {1.0, 10.0, 100.0});
  const int per_thread = total_ops / threads;
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      // Each thread observes its slice of the same global index sequence,
      // so the multiset of observations is thread-count invariant.
      for (int i = 0; i < per_thread; ++i) {
        c->Add(2);
        h->Observe(static_cast<double>((t * per_thread + i) % 128));
      }
    });
  }
  for (auto& th : pool) th.join();
  g->Set(42.5);
  return reg.Snapshot();
}

TEST(ObsMetricsTest, SnapshotDeterministicAcrossThreadCounts) {
  constexpr int kOps = 8 * 1000;
  const MetricsSnapshot one = RunWorkload(1, kOps);
  const MetricsSnapshot eight = RunWorkload(8, kOps);
  EXPECT_EQ(one, eight);
  EXPECT_EQ(one.counters.at("test.ops"), 2 * kOps);
  EXPECT_EQ(one.histograms.at("test.sizes").count, kOps);
  EXPECT_DOUBLE_EQ(one.gauges.at("test.level"), 42.5);
}

TEST(ObsMetricsTest, HistogramBucketizesOnInclusiveUpperBounds) {
  MetricsRegistry reg;
  obs::Histogram* h = reg.GetHistogram("h", {1.0, 10.0});
  for (double v : {0.5, 1.0, 2.0, 10.0, 11.0, 1000.0}) h->Observe(v);
  const auto data = reg.Snapshot().histograms.at("h");
  ASSERT_EQ(data.counts.size(), 3u);  // two bounded buckets + overflow
  EXPECT_EQ(data.counts[0], 2);       // 0.5, 1.0
  EXPECT_EQ(data.counts[1], 2);       // 2.0, 10.0
  EXPECT_EQ(data.counts[2], 2);       // 11.0, 1000.0
  EXPECT_EQ(data.count, 6);
  EXPECT_DOUBLE_EQ(data.sum, 0.5 + 1.0 + 2.0 + 10.0 + 11.0 + 1000.0);
}

TEST(ObsMetricsTest, SnapshotIsStableAcrossRepeatedReads) {
  MetricsRegistry reg;
  reg.GetCounter("a")->Add(7);
  reg.GetGauge("b")->Set(-3.25);
  reg.GetHistogram("c", {5.0})->Observe(2.0);
  const MetricsSnapshot first = reg.Snapshot();
  for (int i = 0; i < 5; ++i) EXPECT_EQ(reg.Snapshot(), first);
  reg.Reset();
  const MetricsSnapshot zeroed = reg.Snapshot();
  EXPECT_EQ(zeroed.counters.at("a"), 0);
  EXPECT_EQ(zeroed.histograms.at("c").count, 0);
  EXPECT_NE(zeroed, first);
}

TEST(ObsMetricsTest, HandlesStayValidAfterReset) {
  MetricsRegistry reg;
  obs::Counter* c = reg.GetCounter("persistent");
  c->Add(3);
  reg.Reset();
  c->Add(4);
  EXPECT_EQ(reg.Snapshot().counters.at("persistent"), 4);
  EXPECT_EQ(reg.GetCounter("persistent"), c);
}

TEST(ObsMetricsTest, JsonExportIsValidAndHandlesNonFinite) {
  MetricsRegistry reg;
  reg.GetCounter("n.scored")->Add(5);
  reg.GetGauge("omega")->Set(-std::numeric_limits<double>::infinity());
  reg.GetHistogram("sizes", {10.0})->Observe(3.0);
  const std::string json = obs::ToJson(reg.Snapshot());
  EXPECT_TRUE(test::IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"n.scored\": 5"), std::string::npos) << json;
  EXPECT_NE(json.find("null"), std::string::npos) << json;  // -inf gauge
  EXPECT_EQ(json.find("inf"), std::string::npos) << json;
}

TEST(ObsMetricsTest, PrometheusExportSanitizesNames) {
  MetricsRegistry reg;
  reg.GetCounter("miner.candidates_evaluated")->Add(9);
  reg.GetHistogram("nm.batch_size", {10.0})->Observe(4.0);
  const std::string text = obs::ToPrometheusText(reg.Snapshot());
  EXPECT_NE(text.find("# TYPE miner_candidates_evaluated counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("miner_candidates_evaluated 9"), std::string::npos);
  EXPECT_NE(text.find("nm_batch_size_bucket{le=\"10\"} 1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("nm_batch_size_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("nm_batch_size_count 1"), std::string::npos);
  EXPECT_EQ(text.find('.'), std::string::npos) << "unsanitized metric name";
}

// The full promtool-style lint (tests/prom_lint.h) over an export that
// exercises every shape the registry can produce: dotted and hyphenated
// names (must sanitize), per-shard numbered series, a -Inf gauge, and
// multi-bucket histograms (cumulativity + le="+Inf" + _count coherence).
TEST(ObsMetricsTest, PrometheusExportPassesLint) {
  MetricsRegistry reg;
  reg.GetCounter("miner.candidates_evaluated")->Add(9);
  reg.GetCounter("shard.0.candidates_pruned")->Add(2);
  reg.GetCounter("shard.1.candidates_pruned")->Add(5);
  reg.GetGauge("miner.omega")->Set(-std::numeric_limits<double>::infinity());
  reg.GetGauge("shard.merge-latency")->Set(1.5);
  obs::Histogram* h =
      reg.GetHistogram("nm.batch_size", {1.0, 10.0, 100.0});
  for (double v : {0.5, 4.0, 40.0, 400.0, 4000.0}) h->Observe(v);
  const std::string text = obs::ToPrometheusText(reg.Snapshot());
  const auto issues = test::PromLint(text);
  std::string joined;
  for (const auto& i : issues) joined += i + "\n";
  EXPECT_TRUE(issues.empty()) << joined << "--- exposition ---\n" << text;
}

// The lint itself must catch the failure modes it exists for; otherwise a
// green PrometheusExportPassesLint proves nothing.
TEST(PromLintTest, CatchesMalformedExposition) {
  EXPECT_FALSE(test::PromLint("bad-name 1\n").empty());
  EXPECT_FALSE(test::PromLint("orphan_sample 1\n").empty());  // no TYPE
  EXPECT_FALSE(test::PromLint("# TYPE d counter\nd 1\nd 1\n").empty());
  // Non-cumulative buckets.
  EXPECT_FALSE(test::PromLint("# TYPE h histogram\n"
                              "h_bucket{le=\"1\"} 5\n"
                              "h_bucket{le=\"2\"} 3\n"
                              "h_bucket{le=\"+Inf\"} 5\n"
                              "h_sum 4\nh_count 5\n")
                   .empty());
  // Missing le="+Inf".
  EXPECT_FALSE(test::PromLint("# TYPE h histogram\n"
                              "h_bucket{le=\"1\"} 5\n"
                              "h_sum 4\nh_count 5\n")
                   .empty());
  // +Inf bucket disagrees with _count.
  EXPECT_FALSE(test::PromLint("# TYPE h histogram\n"
                              "h_bucket{le=\"+Inf\"} 4\n"
                              "h_sum 4\nh_count 5\n")
                   .empty());
  // A well-formed document sails through.
  EXPECT_TRUE(test::PromLint("# TYPE ok counter\nok 3\n"
                             "# TYPE g gauge\ng -Inf\n"
                             "# TYPE h histogram\n"
                             "h_bucket{le=\"1\"} 2\n"
                             "h_bucket{le=\"+Inf\"} 5\n"
                             "h_sum 9.5\nh_count 5\n")
                  .empty());
}

TEST(ObsTraceTest, ChromeExportIsValidJsonWithCompleteSpans) {
  TraceRecorder& rec = TraceRecorder::Global();
  rec.Start(1024);
  rec.SetThreadName("obs-test-main");
  { obs::ScopedSpan outer("outer"); obs::ScopedSpan inner("inner"); }
  rec.RecordCounter("depth", 3.0);
  rec.RecordCounter("bad", std::numeric_limits<double>::quiet_NaN());
  std::thread([&] {
    rec.SetThreadName("obs-test-worker");
    obs::ScopedSpan worker_span("worker");
  }).join();
  rec.Stop();

  const std::string path = testing::TempDir() + "/obs_test_trace.json";
  ASSERT_TRUE(rec.WriteChromeTrace(path));
  std::string json;
  ASSERT_TRUE(test::ReadFileToString(path, &json));
  EXPECT_TRUE(test::IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);

  // Three spans were opened and three closed, so the export must carry
  // exactly three complete "X" events, each with a ts and a dur, plus the
  // one finite counter sample and thread-name metadata.
  const auto events = rec.Collect();
  int spans = 0, counters = 0;
  for (const auto& e : events) {
    if (e.phase == 'X') ++spans;
    if (e.phase == 'C') ++counters;
    EXPECT_GE(e.ts_us, 0.0);
    if (e.phase == 'X') {
      EXPECT_GE(e.dur_us, 0.0);
    }
  }
  EXPECT_EQ(spans, 3);
  EXPECT_EQ(counters, 1);  // the NaN sample was skipped
  EXPECT_EQ(test::CountOccurrences(json, "\"ph\": \"X\""), 3);
  EXPECT_EQ(test::CountOccurrences(json, "\"ph\": \"M\""), 2);  // two threads
  EXPECT_NE(json.find("obs-test-main"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ObsTraceTest, RingOverflowKeepsNewestAndCountsDropped) {
  TraceRecorder& rec = TraceRecorder::Global();
  rec.Start(8);
  for (int i = 0; i < 20; ++i) rec.RecordCounter("tick", i);
  rec.Stop();
  const auto events = rec.Collect();
  ASSERT_EQ(events.size(), 8u);
  EXPECT_EQ(rec.dropped_events(), 12u);
  // Oldest-first within the surviving window: values 12..19.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_DOUBLE_EQ(events[i].value, 12.0 + static_cast<double>(i));
  }
}

// Silent truncation is the trace format's worst failure mode: a clean-
// looking export missing its earliest spans.  The loss must be visible in
// the artifact itself (droppedEvents header) and in the metrics registry
// (trace.dropped_events counter), not only via the recorder's accessor.
TEST(ObsTraceTest, DroppedEventsSurfaceInHeaderAndRegistry) {
  TraceRecorder& rec = TraceRecorder::Global();
  rec.Start(8);
  for (int i = 0; i < 20; ++i) rec.RecordCounter("tick", i);
  rec.Stop();
  const std::string json = rec.ChromeTraceJson();
  EXPECT_TRUE(test::IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"droppedEvents\": 12"), std::string::npos) << json;
#if TRAJPATTERN_OBS_ENABLED
  // >= because the global registry accumulates across tests in this
  // binary (the ring-overflow test above also drops 12).
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  ASSERT_EQ(snap.counters.count("trace.dropped_events"), 1u);
  EXPECT_GE(snap.counters.at("trace.dropped_events"), 12);
#endif
}

TEST(ObsMacroTest, MacrosFollowCompileTimeSwitch) {
  TP_COUNTER_ADD("obs_test.macro_counter", 3);
  TP_GAUGE_SET("obs_test.macro_gauge", 1.5);
  TP_HISTOGRAM_OBSERVE("obs_test.macro_hist", 2.0, {10.0});
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
#if TRAJPATTERN_OBS_ENABLED
  EXPECT_EQ(snap.counters.at("obs_test.macro_counter"), 3);
  EXPECT_DOUBLE_EQ(snap.gauges.at("obs_test.macro_gauge"), 1.5);
  EXPECT_EQ(snap.histograms.at("obs_test.macro_hist").count, 1);
#else
  EXPECT_EQ(snap.counters.count("obs_test.macro_counter"), 0u);
  EXPECT_EQ(snap.gauges.count("obs_test.macro_gauge"), 0u);
  EXPECT_EQ(snap.histograms.count("obs_test.macro_hist"), 0u);
#endif
}

TEST(ObsIntegrationTest, TracingNeverChangesMiningAnswers) {
  ZebraNetGeneratorOptions gen;
  gen.num_zebras = 20;
  gen.num_snapshots = 25;
  gen.num_groups = 4;
  gen.seed = 7;
  const TrajectoryDataset data = GenerateZebraNet(gen);
  const Grid grid = Grid::UnitSquare(8);
  const MiningSpace space(grid, grid.cell_width());
  MinerOptions opt;
  opt.k = 5;
  opt.max_pattern_length = 3;

  NmEngine baseline_engine(data, space);
  const MiningResult baseline = MineTrajPatterns(baseline_engine, opt);

  TraceRecorder::Global().Start(1 << 14);
  NmEngine traced_engine(data, space);
  const MiningResult traced = MineTrajPatterns(traced_engine, opt);
  TraceRecorder::Global().Stop();

  opt.num_threads = 8;
  NmEngine parallel_engine(data, space);
  const MiningResult parallel = MineTrajPatterns(parallel_engine, opt);

  ASSERT_EQ(baseline.patterns.size(), traced.patterns.size());
  ASSERT_EQ(baseline.patterns.size(), parallel.patterns.size());
  for (size_t i = 0; i < baseline.patterns.size(); ++i) {
    EXPECT_EQ(baseline.patterns[i].pattern, traced.patterns[i].pattern);
    EXPECT_EQ(std::memcmp(&baseline.patterns[i].nm, &traced.patterns[i].nm,
                          sizeof(double)),
              0);
    EXPECT_EQ(baseline.patterns[i].pattern, parallel.patterns[i].pattern);
    EXPECT_EQ(std::memcmp(&baseline.patterns[i].nm, &parallel.patterns[i].nm,
                          sizeof(double)),
              0);
  }
}

TEST(JsonWriterTest, EscapesControlCharactersToValidJson) {
  // Regression: AppendQuoted used to pass raw control characters
  // through, producing artifacts no strict parser would accept.
  std::string nasty = "tab\there\nnewline\rcr";
  nasty.push_back('\x01');
  nasty.push_back('\x1f');
  nasty += "quote\"backslash\\done";

  bench::JsonWriter w;
  w.BeginObject();
  w.Key(nasty).Str(nasty);
  w.Key("plain").Str("ok");
  w.EndObject();
  const std::string& json = w.str();
  EXPECT_TRUE(test::IsValidJson(json)) << json;
  EXPECT_NE(json.find("\\u0001"), std::string::npos) << json;
  EXPECT_NE(json.find("\\u001f"), std::string::npos) << json;
  EXPECT_NE(json.find("\\n"), std::string::npos) << json;
  // The writer's own pretty-printing newlines are the only raw control
  // characters allowed in the artifact.
  for (char c : json) {
    EXPECT_TRUE(static_cast<unsigned char>(c) >= 0x20 || c == '\n')
        << "raw control character leaked into the artifact";
  }
}

}  // namespace
}  // namespace trajpattern
