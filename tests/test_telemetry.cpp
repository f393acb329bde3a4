// Telemetry layer tests: phase-timer nesting, the trace ring buffer,
// StatRegistry counter handles / gauges, the JSON writer, and a golden
// check that the `--json` exploration report parses and agrees with the
// text counters.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/explore/core.h"
#include "src/explore/report.h"
#include "src/sem/program.h"
#include "src/support/json.h"
#include "src/support/metrics.h"
#include "src/support/stats.h"
#include "src/support/telemetry.h"
#include "src/workload/paper_examples.h"

namespace copar {
namespace {

using telemetry::Phase;
using telemetry::Telemetry;

// --- minimal JSON parser (validation only: the repo has no JSON reader) ---

struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object } kind = Kind::Null;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<JsonValue> items;
  std::map<std::string, JsonValue> members;

  const JsonValue& at(const std::string& key) const {
    auto it = members.find(key);
    if (it == members.end()) {
      static const JsonValue missing;
      ADD_FAILURE() << "missing JSON key: " << key;
      return missing;
    }
    return it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  void fail(const std::string& why) {
    if (ok_) {
      ok_ = false;
      error_ = why + " at offset " + std::to_string(pos_);
    }
    pos_ = s_.size();  // stop consuming
  }
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
                                s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool eat(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  JsonValue value() {
    skip_ws();
    if (pos_ >= s_.size()) {
      fail("unexpected end");
      return {};
    }
    const char c = s_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string_value();
    if (c == 't' || c == 'f') return boolean();
    if (c == 'n') return null_value();
    return number();
  }

  JsonValue object() {
    JsonValue v;
    v.kind = JsonValue::Kind::Object;
    eat('{');
    if (eat('}')) return v;
    do {
      skip_ws();
      JsonValue key = string_value();
      if (!eat(':')) fail("expected ':'");
      v.members[key.str] = value();
    } while (eat(','));
    if (!eat('}')) fail("expected '}'");
    return v;
  }

  JsonValue array() {
    JsonValue v;
    v.kind = JsonValue::Kind::Array;
    eat('[');
    if (eat(']')) return v;
    do {
      v.items.push_back(value());
    } while (eat(','));
    if (!eat(']')) fail("expected ']'");
    return v;
  }

  JsonValue string_value() {
    JsonValue v;
    v.kind = JsonValue::Kind::String;
    if (!eat('"')) {
      fail("expected string");
      return v;
    }
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) break;
        switch (s_[pos_]) {
          case 'n': v.str += '\n'; break;
          case 't': v.str += '\t'; break;
          case 'r': v.str += '\r'; break;
          case 'u':
            pos_ += 4;  // keep validation simple: skip the code point
            v.str += '?';
            break;
          default: v.str += s_[pos_];
        }
      } else {
        v.str += s_[pos_];
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) {
      fail("unterminated string");
    } else {
      ++pos_;  // closing quote
    }
    return v;
  }

  JsonValue boolean() {
    JsonValue v;
    v.kind = JsonValue::Kind::Bool;
    if (s_.substr(pos_, 4) == "true") {
      v.b = true;
      pos_ += 4;
    } else if (s_.substr(pos_, 5) == "false") {
      pos_ += 5;
    } else {
      fail("bad literal");
    }
    return v;
  }

  JsonValue null_value() {
    JsonValue v;
    if (s_.substr(pos_, 4) == "null") {
      pos_ += 4;
    } else {
      fail("bad literal");
    }
    return v;
  }

  JsonValue number() {
    JsonValue v;
    v.kind = JsonValue::Kind::Number;
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '-' ||
            s_[pos_] == '+' || s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (start == pos_) {
      fail("expected number");
      return v;
    }
    v.num = std::stod(std::string(s_.substr(start, pos_ - start)));
    return v;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  bool ok_ = true;
  std::string error_;
};

JsonValue parse_json_or_fail(const std::string& text) {
  JsonParser p(text);
  JsonValue v = p.parse();
  EXPECT_TRUE(p.ok()) << p.error() << "\nin: " << text.substr(0, 400);
  return v;
}

// --- fake clock for deterministic phase-timer tests --------------------

std::uint64_t g_fake_now = 0;
std::uint64_t fake_clock() { return g_fake_now; }

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Telemetry& t = Telemetry::global();
    t.reset();
    t.enable_metrics(true);
    t.set_clock_for_test(&fake_clock);
    g_fake_now = 0;
  }
  void TearDown() override {
    Telemetry& t = Telemetry::global();
    t.enable_metrics(false);
    t.enable_trace(0);
    t.set_clock_for_test(nullptr);
    t.reset();
  }
};

TEST_F(TelemetryTest, NestedPhasesAccountExclusiveTime) {
  Telemetry& t = Telemetry::global();
  g_fake_now = 100;
  t.enter(Phase::Expansion);
  g_fake_now = 150;
  t.enter(Phase::Stubborn);  // suspends Expansion after 50ns of self time
  g_fake_now = 250;
  t.leave(Phase::Stubborn);  // 100ns
  g_fake_now = 400;
  t.leave(Phase::Expansion);  // +150ns of self time

  EXPECT_EQ(t.phase_ns(Phase::Stubborn), 100u);
  EXPECT_EQ(t.phase_ns(Phase::Expansion), 200u);
  EXPECT_EQ(t.phase_count(Phase::Stubborn), 1u);
  EXPECT_EQ(t.phase_count(Phase::Expansion), 1u);
  // Exclusive accounting: self times sum to the instrumented wall time.
  EXPECT_EQ(t.phase_ns(Phase::Stubborn) + t.phase_ns(Phase::Expansion), 300u);
  EXPECT_EQ(t.phase_depth(), 0u);
}

TEST_F(TelemetryTest, ReentrantSamePhaseSumsToWallTime) {
  Telemetry& t = Telemetry::global();
  g_fake_now = 0;
  t.enter(Phase::Canonicalize);
  g_fake_now = 10;
  t.enter(Phase::Canonicalize);
  g_fake_now = 20;
  t.leave(Phase::Canonicalize);
  g_fake_now = 30;
  t.leave(Phase::Canonicalize);
  EXPECT_EQ(t.phase_ns(Phase::Canonicalize), 30u);
  EXPECT_EQ(t.phase_count(Phase::Canonicalize), 2u);
}

TEST_F(TelemetryTest, MismatchedLeaveIsIgnored) {
  Telemetry& t = Telemetry::global();
  t.enter(Phase::Parse);
  t.leave(Phase::Folding);  // wrong phase: dropped, Parse stays open
  EXPECT_EQ(t.phase_depth(), 1u);
  t.leave(Phase::Parse);
  EXPECT_EQ(t.phase_depth(), 0u);
  t.leave(Phase::Parse);  // empty stack: no crash
  EXPECT_EQ(t.phase_count(Phase::Parse), 1u);
}

TEST_F(TelemetryTest, ScopedPhaseIsNoopWhenDisabled) {
  Telemetry& t = Telemetry::global();
  t.enable_metrics(false);
  {
    telemetry::ScopedPhase p(Phase::Parse);
    g_fake_now = 1000;
  }
  EXPECT_EQ(t.phase_ns(Phase::Parse), 0u);
  EXPECT_EQ(t.phase_count(Phase::Parse), 0u);
}

TEST_F(TelemetryTest, TraceRingKeepsNewestAndCountsDropped) {
  Telemetry& t = Telemetry::global();
  t.enable_trace(4);
  for (std::uint64_t i = 1; i <= 6; ++i) {
    g_fake_now = i;
    t.record_counter("configs", i);
  }
  EXPECT_EQ(t.trace_size(), 4u);
  EXPECT_EQ(t.trace_dropped(), 2u);
  const auto events = t.trace_events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest two (ts 1, 2) were overwritten; order is oldest-first.
  EXPECT_EQ(events.front().ts_ns, 3u);
  EXPECT_EQ(events.back().ts_ns, 6u);
  EXPECT_EQ(events.back().value, 6u);
}

TEST_F(TelemetryTest, ScopedPhaseEmitsCompleteTraceEvent) {
  Telemetry& t = Telemetry::global();
  t.enable_trace(16);
  g_fake_now = 1000;
  {
    telemetry::ScopedPhase p(Phase::Stubborn);
    g_fake_now = 1500;
  }
  const auto events = t.trace_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "stubborn");
  EXPECT_EQ(events[0].ph, 'X');
  EXPECT_EQ(events[0].ts_ns, 1000u);
  EXPECT_EQ(events[0].dur_ns, 500u);
}

TEST_F(TelemetryTest, TraceJsonParsesAndContainsEvents) {
  Telemetry& t = Telemetry::global();
  t.enable_trace(16);
  g_fake_now = 100;
  t.enter(Phase::Expansion);
  g_fake_now = 300;
  t.leave(Phase::Expansion);
  t.record_counter("configs", 42);
  t.record_instant("truncated");

  std::ostringstream os;
  t.write_trace_json(os);
  const JsonValue doc = parse_json_or_fail(os.str());
  const JsonValue& events = doc.at("traceEvents");
  ASSERT_EQ(events.kind, JsonValue::Kind::Array);
  // process_name metadata + thread_name metadata (one recording track) +
  // complete + counter + instant.
  ASSERT_EQ(events.items.size(), 5u);
  EXPECT_EQ(events.items[0].at("name").str, "process_name");
  EXPECT_EQ(events.items[1].at("name").str, "thread_name");
  EXPECT_EQ(events.items[1].at("args").at("name").str, "main");
  EXPECT_EQ(events.items[2].at("name").str, "expansion");
  EXPECT_EQ(events.items[2].at("ph").str, "X");
  EXPECT_DOUBLE_EQ(events.items[2].at("dur").num, 0.2);  // 200ns = 0.2us
  EXPECT_EQ(events.items[3].at("ph").str, "C");
  EXPECT_DOUBLE_EQ(events.items[3].at("args").at("value").num, 42.0);
  // Every non-metadata event carries the recording track's tid.
  EXPECT_EQ(events.items[2].at("tid").num, events.items[1].at("tid").num);
}

// --- StatRegistry: engine counters, gauges, timings --------------------

TEST(StatHandles, ExploreCountersWriteOnlyFiredCountersLikeEagerAdds) {
  StatRegistry eager;
  eager.add("stubborn_steps");
  eager.add("stubborn_steps");
  eager.add("sleep.pids_capped");
  eager.set("configs", 7);

  explore::ExploreCounters counters;
  counters.stubborn_steps += 2;
  explore::ExploreCounters worker;
  worker.sleep_pids_capped += 1;
  counters += worker;
  StatRegistry flushed;
  flushed.set("configs", 7);
  counters.write_to(flushed);

  EXPECT_EQ(flushed.to_string(), eager.to_string());
  EXPECT_EQ(flushed.to_string(), "configs=7\nsleep.pids_capped=1\nstubborn_steps=2\n");
  // A counter that stayed at zero is absent, not "=0".
  EXPECT_EQ(flushed.all().count("proviso_full_expansions"), 0u);
}

TEST(StatHandles, GaugesAndTimingsStayOutOfToString) {
  StatRegistry s;
  s.add("configs", 3);
  s.set_gauge("visited_bytes", 4096);
  s.add_time_ns("expansion", 1'000'000);
  EXPECT_EQ(s.to_string(), "configs=3\n");
  EXPECT_EQ(s.gauge("visited_bytes"), 4096u);
  EXPECT_EQ(s.gauge("absent"), 0u);
  EXPECT_EQ(s.times_ns().at("expansion"), 1'000'000u);
  s.clear();
  EXPECT_TRUE(s.gauges().empty());
  EXPECT_TRUE(s.times_ns().empty());
}

// --- JsonWriter --------------------------------------------------------

TEST(JsonWriterTest, EscapesAndNests) {
  std::ostringstream os;
  support::JsonWriter w(os);
  w.begin_object();
  w.key("s");
  w.value("a\"b\\c\nd\x01");
  w.key("list");
  w.begin_array();
  w.value(std::uint64_t{1});
  w.value(-2);
  w.value(true);
  w.null();
  w.end_array();
  w.end_object();
  EXPECT_EQ(os.str(), R"({"s": "a\"b\\c\nd\u0001","list": [1,-2,true,null]})");
  const JsonValue doc = parse_json_or_fail(os.str());
  EXPECT_EQ(doc.at("list").items.size(), 4u);
}

// --- golden: the --json exploration report -----------------------------

TEST(JsonReport, ExploreReportParsesAndMatchesTextCounters) {
  Telemetry& t = Telemetry::global();
  t.reset();
  t.enable_metrics(true);

  auto program = compile(workload::fig2_shasha_snir());
  explore::ExploreOptions opts;
  const auto r = explore::explore(*program->lowered, opts);

  std::ostringstream os;
  support::JsonWriter w(os);
  explore::write_json_report(w, "explore", "fig2_shasha_snir.cop", r, opts);
  const JsonValue doc = parse_json_or_fail(os.str());

  // Counters in the JSON must match both the result and the text report.
  EXPECT_EQ(doc.at("counters").at("configs").num, static_cast<double>(r.num_configs));
  EXPECT_EQ(doc.at("counters").at("transitions").num, static_cast<double>(r.num_transitions));
  const std::string text = r.stats.to_string();
  EXPECT_NE(text.find("configs=" + std::to_string(r.num_configs) + "\n"), std::string::npos);
  EXPECT_NE(text.find("transitions=" + std::to_string(r.num_transitions) + "\n"),
            std::string::npos);

  EXPECT_EQ(doc.at("command").str, "explore");
  EXPECT_EQ(doc.at("options").at("reduction").str, "full");
  EXPECT_EQ(doc.at("result").at("terminals").num, 3.0);  // paper: {(0,1),(1,0),(1,1)}
  EXPECT_FALSE(doc.at("result").at("deadlock").b);
  // Telemetry was enabled: phase timings and memory gauges must be there.
  EXPECT_FALSE(doc.at("phases_ms").members.empty());
  EXPECT_GT(doc.at("memory").at("peak_rss_bytes").num, 0.0);
  EXPECT_GT(doc.at("gauges").at("visited_bytes").num, 0.0);

  t.enable_metrics(false);
  t.reset();
}

TEST(JsonReport, ParallelReportPinsWorkerAggregatesAndStealCounters) {
  // The parallel engine's observability contract: per-worker timings come
  // with the stable workers.{min,max,sum} aggregate keys (the workerN.*
  // keys are nondeterministic in count only across engines, not runs), and
  // the steal counters are always present in the counters section.
  Telemetry& t = Telemetry::global();
  t.reset();
  t.enable_metrics(true);

  auto program = compile(workload::fig2_shasha_snir());
  explore::ExploreOptions opts;
  opts.threads = 4;
  const auto r = explore::explore(*program->lowered, opts);

  const auto& times = r.stats.times_ns();
  EXPECT_TRUE(times.contains("workers.min"));
  EXPECT_TRUE(times.contains("workers.max"));
  EXPECT_TRUE(times.contains("workers.sum"));
  EXPECT_LE(times.at("workers.min"), times.at("workers.max"));
  EXPECT_LE(times.at("workers.max"), times.at("workers.sum"));
  for (unsigned i = 0; i < opts.threads; ++i) {
    EXPECT_TRUE(times.contains("worker" + std::to_string(i) + ".expansion"));
  }

  std::ostringstream os;
  support::JsonWriter w(os);
  explore::write_json_report(w, "explore", "fig2_shasha_snir.cop", r, opts);
  const JsonValue doc = parse_json_or_fail(os.str());
  EXPECT_TRUE(doc.at("timings_ms").members.contains("workers.min"));
  EXPECT_TRUE(doc.at("timings_ms").members.contains("workers.max"));
  EXPECT_TRUE(doc.at("timings_ms").members.contains("workers.sum"));
  EXPECT_TRUE(doc.at("counters").members.contains("steals"));
  EXPECT_TRUE(doc.at("counters").members.contains("stolen_items"));
  EXPECT_TRUE(doc.at("counters").members.contains("steal_misses"));
  EXPECT_TRUE(doc.at("counters").members.contains("frontier_contention"));
  EXPECT_EQ(doc.at("gauges").at("threads").num, 4.0);

  t.enable_metrics(false);
  t.reset();
}

// --- multi-thread trace stress -----------------------------------------

TEST_F(TelemetryTest, MultiThreadTraceStressLosesNothingBelowCapacity) {
  Telemetry& t = Telemetry::global();
  t.set_clock_for_test(nullptr);  // real clock: timestamps must advance
  t.enable_trace(4096);           // per-track ring capacity, well above M

  constexpr int kThreads = 8;
  constexpr int kEvents = 500;
  std::atomic<bool> go{false};
  std::vector<std::uint32_t> tids(kThreads, 0);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back([&, i] {
      telemetry::ThreadRegistration track("stress" + std::to_string(i));
      tids[static_cast<std::size_t>(i)] = track.tid();
      while (!go.load(std::memory_order_acquire)) {
      }
      Telemetry& tel = Telemetry::global();
      for (int j = 0; j < kEvents; ++j) {
        tel.record_complete("ev", static_cast<std::uint64_t>(j), 1);
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& w : workers) w.join();

  // Below capacity nothing may be dropped: every event from every thread
  // survives into the flush, attributed to its own track.
  EXPECT_EQ(t.trace_dropped(), 0u);
  EXPECT_EQ(t.trace_size(), static_cast<std::size_t>(kThreads) * kEvents);

  const std::vector<telemetry::TraceEvent> events = t.trace_events();
  std::map<std::uint32_t, std::size_t> per_tid;
  std::map<std::uint32_t, std::uint64_t> last_ts;
  for (const telemetry::TraceEvent& e : events) {
    per_tid[e.tid] += 1;
    // Within one track events flush oldest-first; a single-writer ring
    // must preserve that order.
    auto it = last_ts.find(e.tid);
    if (it != last_ts.end()) {
      EXPECT_GE(e.ts_ns, it->second);
    }
    last_ts[e.tid] = e.ts_ns;
  }
  ASSERT_EQ(per_tid.size(), static_cast<std::size_t>(kThreads));
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(per_tid[tids[static_cast<std::size_t>(i)]],
              static_cast<std::size_t>(kEvents))
        << "track " << i;
  }
}

// --- sampler timeline ---------------------------------------------------

using telemetry::Gauge;

TEST_F(TelemetryTest, TimelineDecimationIsDeterministic) {
  Telemetry& t = Telemetry::global();
  t.set_timeline_capacity(8);

  // 9 accepted ticks overflow capacity 8: every other sample is dropped
  // and the stride doubles. Each tick stamps Configs with its index.
  for (std::uint64_t i = 0; i < 9; ++i) {
    g_fake_now = i * 1'000'000;  // 1ms apart
    t.set_live(Gauge::Configs, i);
    t.sample_now();
  }
  std::vector<Telemetry::Sample> tl = t.timeline();
  ASSERT_EQ(tl.size(), 5u);  // indices 0,2,4,6,8 survive
  EXPECT_EQ(t.timeline_compactions(), 1u);
  for (std::size_t i = 0; i < tl.size(); ++i) {
    EXPECT_EQ(tl[i].t_ns, i * 2 * 1'000'000);
    EXPECT_EQ(tl[i].gauges[static_cast<std::size_t>(Gauge::Configs)], i * 2);
  }

  // Stride is now 2: the next tick is rejected, the one after accepted.
  g_fake_now = 9'000'000;
  t.sample_now();
  EXPECT_EQ(t.timeline().size(), 5u);
  g_fake_now = 10'000'000;
  t.set_live(Gauge::Configs, 10);
  t.sample_now();
  tl = t.timeline();
  ASSERT_EQ(tl.size(), 6u);
  EXPECT_EQ(tl.back().t_ns, 10u * 1'000'000);
  EXPECT_EQ(tl.back().gauges[static_cast<std::size_t>(Gauge::Configs)], 10u);
}

TEST_F(TelemetryTest, TimelineJsonSchemaIsPinned) {
  Telemetry& t = Telemetry::global();
  for (std::uint64_t i = 0; i < 3; ++i) {
    g_fake_now = 500'000 + i * 2'000'000;
    t.set_live(Gauge::Configs, 10 * i);
    t.set_live(Gauge::Frontier, i);
    t.sample_now();
  }

  std::ostringstream os;
  {
    support::JsonWriter w(os);
    t.write_timeline_json(w);
  }
  const JsonValue doc = parse_json_or_fail(os.str());

  // Schema golden: field names and types are contract (report.cpp embeds
  // this object as "timeline" in every --json report).
  ASSERT_EQ(doc.kind, JsonValue::Kind::Object);
  EXPECT_EQ(doc.at("sample_interval_ms").kind, JsonValue::Kind::Number);
  EXPECT_EQ(doc.at("compactions").kind, JsonValue::Kind::Number);
  const JsonValue& samples = doc.at("samples");
  ASSERT_EQ(samples.kind, JsonValue::Kind::Array);
  ASSERT_EQ(samples.items.size(), 3u);
  const char* kFields[] = {"t_ms",           "configs",        "transitions",
                           "frontier",       "visited_entries", "visited_bytes",
                           "steals",         "frontier_bytes", "rss_bytes"};
  for (const JsonValue& s : samples.items) {
    ASSERT_EQ(s.kind, JsonValue::Kind::Object);
    EXPECT_EQ(s.members.size(), std::size(kFields));
    for (const char* f : kFields) {
      EXPECT_EQ(s.at(f).kind, JsonValue::Kind::Number) << f;
    }
  }
  // Timestamps are rebased to the first sample.
  EXPECT_DOUBLE_EQ(samples.items[0].at("t_ms").num, 0.0);
  EXPECT_DOUBLE_EQ(samples.items[1].at("t_ms").num, 2.0);
  EXPECT_DOUBLE_EQ(samples.items[2].at("configs").num, 20.0);
}

TEST(JsonReport, TimelineAppearsInReportWhenSampled) {
  Telemetry& t = Telemetry::global();
  t.reset();
  t.enable_metrics(true);
  // Interval far past the run: the only sample is the final one taken by
  // stop_sampler(), making the timeline deterministic.
  t.start_sampler(60'000.0);

  auto program = compile(workload::fig2_shasha_snir());
  explore::ExploreOptions opts;
  const auto r = explore::explore(*program->lowered, opts);
  t.stop_sampler();

  std::ostringstream os;
  support::JsonWriter w(os);
  explore::write_json_report(w, "explore", "fig2_shasha_snir.cop", r, opts);
  const JsonValue doc = parse_json_or_fail(os.str());
  const JsonValue& tl = doc.at("timeline");
  ASSERT_EQ(tl.kind, JsonValue::Kind::Object);
  ASSERT_EQ(tl.at("samples").items.size(), 1u);
  // The engine's final gauge flush feeds the sample.
  EXPECT_EQ(tl.at("samples").items[0].at("configs").num,
            static_cast<double>(r.num_configs));

  t.enable_metrics(false);
  t.reset();
}

// --- metrics export surface ---------------------------------------------

TEST(MetricsSchema, JsonFieldsAndTypesArePinned) {
  Telemetry& t = Telemetry::global();
  t.reset();
  t.enable_metrics(true);
  t.set_clock_for_test(&fake_clock);
  g_fake_now = 0;
  t.enter(Phase::Expansion);
  g_fake_now = 5'000'000;
  t.leave(Phase::Expansion);
  t.set_live(Gauge::Configs, 7);
  t.sample_now();

  StatRegistry stats;
  stats.add("configs", 7);
  stats.set_gauge("threads", 4);
  stats.add_time_ns("total", 1'000'000);
  t.publish_stats(stats);

  const auto snap = telemetry::MetricsSnapshot::capture();
  std::ostringstream os;
  snap.write_json(os);
  const JsonValue doc = parse_json_or_fail(os.str());

  // Schema golden: `copar-cli metrics-dump` and --metrics-out emit this
  // document; field names and types are contract, values are not.
  EXPECT_EQ(doc.at("tool").str, "copar-metrics");
  EXPECT_EQ(doc.at("schema").num, 1.0);
  EXPECT_EQ(doc.at("counters").kind, JsonValue::Kind::Object);
  EXPECT_EQ(doc.at("gauges").kind, JsonValue::Kind::Object);
  EXPECT_EQ(doc.at("timings_ms").kind, JsonValue::Kind::Object);
  EXPECT_EQ(doc.at("phases_ms").kind, JsonValue::Kind::Object);
  EXPECT_EQ(doc.at("phase_counts").kind, JsonValue::Kind::Object);
  EXPECT_EQ(doc.at("memory").at("peak_rss_bytes").kind, JsonValue::Kind::Number);
  EXPECT_EQ(doc.at("timeline").at("compactions").kind, JsonValue::Kind::Number);
  EXPECT_EQ(doc.at("timeline").at("samples").kind, JsonValue::Kind::Array);

  // Published stats and per-track phase totals round-trip.
  EXPECT_EQ(doc.at("counters").at("configs").num, 7.0);
  EXPECT_EQ(doc.at("gauges").at("threads").num, 4.0);
  EXPECT_DOUBLE_EQ(doc.at("timings_ms").at("total").num, 1.0);
  EXPECT_DOUBLE_EQ(doc.at("phases_ms").at("expansion").num, 5.0);
  EXPECT_EQ(doc.at("phase_counts").at("expansion").num, 1.0);
  ASSERT_EQ(doc.at("timeline").at("samples").items.size(), 1u);
  EXPECT_EQ(doc.at("timeline").at("samples").items[0].at("configs").num, 7.0);

  t.enable_metrics(false);
  t.set_clock_for_test(nullptr);
  t.reset();
}

TEST(MetricsSchema, CowGaugesExportedByEngines) {
  Telemetry& t = Telemetry::global();
  auto program = compile(workload::fig2_shasha_snir());
  // Both engines end through the one shared finisher.
  for (const unsigned threads : {1u, 4u}) {
    t.reset();
    t.enable_metrics(true);
    explore::ExploreOptions opts;
    opts.threads = threads;
    (void)explore::explore(*program->lowered, opts);

    const auto snap = telemetry::MetricsSnapshot::capture();
    std::ostringstream os;
    snap.write_json(os);
    const JsonValue doc = parse_json_or_fail(os.str());
    const JsonValue& gauges = doc.at("gauges");
    // The COW representation's telemetry: clone / in-place-write counts and
    // the peak of the live structural-bytes gauge. Values vary with the
    // machine and schedule; presence and type are the contract.
    for (const char* name : {"cow.objects_copied", "cow.objects_shared", "cow.process_clones",
                             "frontier_peak_bytes", "visited_bytes", "peak_rss_bytes"}) {
      EXPECT_EQ(gauges.at(name).kind, JsonValue::Kind::Number) << name << " t" << threads;
    }
    // Any exploration writes through the COW seam at least once.
    EXPECT_GT(gauges.at("cow.objects_shared").num + gauges.at("cow.objects_copied").num, 0.0)
        << "t" << threads;
  }
  t.enable_metrics(false);
  t.reset();
}

TEST(MetricsSchema, PrometheusRendersStableFamilies) {
  telemetry::MetricsSnapshot snap;
  snap.counters["configs"] = 12;
  snap.counters["weird-name.x"] = 1;
  snap.gauges["threads"] = 4;
  snap.times_ns["total"] = 2'000'000'000;
  snap.phases_ns["expansion"] = 1'500'000'000;
  snap.peak_rss_bytes = 1024;

  std::ostringstream os;
  snap.write_prometheus(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("# TYPE copar_configs_total counter\ncopar_configs_total 12\n"),
            std::string::npos);
  // Names outside [a-zA-Z0-9_:] are sanitized to underscores.
  EXPECT_NE(out.find("copar_weird_name_x_total 1\n"), std::string::npos);
  EXPECT_NE(out.find("# TYPE copar_threads gauge\ncopar_threads 4\n"),
            std::string::npos);
  EXPECT_NE(out.find("copar_phase_seconds{phase=\"expansion\"} 1.5\n"),
            std::string::npos);
  EXPECT_NE(out.find("copar_timing_seconds{name=\"total\"} 2\n"), std::string::npos);
  EXPECT_NE(out.find("copar_peak_rss_bytes 1024\n"), std::string::npos);
  EXPECT_NE(out.find("copar_timeline_samples 0\n"), std::string::npos);
}

}  // namespace
}  // namespace copar
