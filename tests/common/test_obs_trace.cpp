#include "common/obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"
#include "sched/policy.hpp"
#include "sched/system_sim.hpp"

namespace dh {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// Remove the wall-clock stamp so two recordings of the same deterministic
/// run compare equal.
std::string strip_wall_ms(std::string line) {
  const auto key = line.find("\"t_wall_ms\":");
  if (key == std::string::npos) return line;
  auto end = line.find_first_of(",}", key);
  line.erase(key, end - key);
  return line;
}

class ObsTraceTest : public testing::Test {
 protected:
  void TearDown() override {
    obs::set_trace_sink(nullptr);
  }
};

TEST_F(ObsTraceTest, JsonlSinkWritesTheDocumentedSchema) {
  const std::string path = temp_path("dh_obs_trace_schema.jsonl");
  obs::set_trace_sink(std::make_unique<obs::JsonlTraceSink>(path));
  ASSERT_TRUE(obs::trace_enabled());
  obs::trace_event("testcat", "plain", {{"k", 1.5}});
  obs::trace_event_at("testcat", "stamped", 21600.0,
                      {{"a", 2.0}, {"b", -0.5}});
  obs::set_trace_sink(nullptr);
  EXPECT_FALSE(obs::trace_enabled());

  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"cat\":\"testcat\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"name\":\"plain\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"t_wall_ms\":"), std::string::npos);
  EXPECT_NE(lines[0].find("\"f\":{\"k\":1.5}"), std::string::npos);
  EXPECT_EQ(lines[0].find("\"t_sim_s\""), std::string::npos)
      << "plain events must not carry a sim clock";
  EXPECT_NE(lines[1].find("\"t_sim_s\":21600"), std::string::npos);
  EXPECT_NE(lines[1].find("\"f\":{\"a\":2,\"b\":-0.5}"),
            std::string::npos);
}

TEST_F(ObsTraceTest, DisabledTracingEmitsNothing) {
  ASSERT_FALSE(obs::trace_enabled());
  // Must be a silent no-op, not an error.
  obs::trace_event("testcat", "dropped", {});
}

TEST_F(ObsTraceTest, UnwritablePathThrowsDescriptiveError) {
  try {
    obs::JsonlTraceSink sink("/nonexistent-dir-dh-obs/trace.jsonl");
    FAIL() << "expected dh::Error for an unwritable trace path";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent-dir-dh-obs"),
              std::string::npos)
        << "error message should name the offending path";
  }
}

TEST_F(ObsTraceTest, FullDeviceWriteSurfacesErrorAndCountsDrop) {
  // /dev/full accepts open() and fails every write with ENOSPC, so the
  // sink's error path runs on a real I/O failure once the stream buffer
  // spills.
  const std::string path = "/dev/full";
  if (!std::filesystem::exists(path)) GTEST_SKIP() << path << " is absent";
  auto sink = std::make_unique<obs::JsonlTraceSink>(path);
  obs::TraceEvent e;
  e.category = "testcat";
  e.name = "fill";
  bool threw = false;
  for (int i = 0; i < 1000 && !threw; ++i) {
    try {
      sink->write(e);
    } catch (const Error& err) {
      threw = true;
      EXPECT_NE(std::string(err.what()).find(path), std::string::npos)
          << "error message should name the offending path";
      EXPECT_EQ(sink->dropped(), 1u);
    }
  }
  EXPECT_TRUE(threw) << "1000 writes to " << path << " never failed";
  EXPECT_NO_THROW(sink.reset());
}

TEST_F(ObsTraceTest, SinkFlushesOnDestruction) {
  const std::string path = temp_path("dh_obs_trace_flush.jsonl");
  obs::set_trace_sink(std::make_unique<obs::JsonlTraceSink>(path));
  for (int i = 0; i < 100; ++i) {
    obs::trace_event("testcat", "flush", {{"i", static_cast<double>(i)}});
  }
  // No explicit flush: clearing the sink destroys it, and destruction
  // must leave every line on disk.
  obs::set_trace_sink(nullptr);
  EXPECT_EQ(read_lines(path).size(), 100u);
}

/// Record a fixed-seed 3-quantum system run to `path` and return the sim's
/// recovery-quanta count.
std::size_t record_three_quanta(const std::string& path) {
  obs::set_trace_sink(std::make_unique<obs::JsonlTraceSink>(path));
  sched::SystemParams params;  // seed = 42
  sched::SystemSimulator sim{params, sched::make_periodic_active_policy()};
  for (int i = 0; i < 3; ++i) sim.step();
  obs::set_trace_sink(nullptr);
  return sim.recovery_quanta();
}

TEST_F(ObsTraceTest, GoldenThreeQuantumSimTrace) {
  const std::string path = temp_path("dh_obs_trace_golden.jsonl");
  record_three_quanta(path);
  const auto lines = read_lines(path);

  // Structural golden: exactly one sim/quantum event per step, each with
  // the sim clock and the full health-field set.
  std::vector<std::string> quanta;
  for (const auto& line : lines) {
    if (line.find("\"name\":\"quantum\"") != std::string::npos) {
      quanta.push_back(line);
    }
  }
  ASSERT_EQ(quanta.size(), 3u);
  const double dt = sched::SystemParams{}.quantum.value();
  for (int i = 0; i < 3; ++i) {
    std::ostringstream stamp;
    stamp << "\"t_sim_s\":" << (i + 1) * dt;
    EXPECT_NE(quanta[i].find("\"cat\":\"sim\""), std::string::npos);
    EXPECT_NE(quanta[i].find(stamp.str()), std::string::npos)
        << "quantum " << i << " missing sim clock " << stamp.str();
    for (const char* field :
         {"worst_deg", "ir_drop_v", "max_temp_c", "running_cores",
          "recovery_cores", "em_recovery", "demand"}) {
      EXPECT_NE(quanta[i].find(std::string{"\""} + field + "\":"),
                std::string::npos)
          << "quantum " << i << " missing field " << field;
    }
  }
}

TEST_F(ObsTraceTest, FixedSeedRunsRecordIdenticalTraces) {
  const std::string path_a = temp_path("dh_obs_trace_rep_a.jsonl");
  const std::string path_b = temp_path("dh_obs_trace_rep_b.jsonl");
  const std::size_t quanta_a = record_three_quanta(path_a);
  const std::size_t quanta_b = record_three_quanta(path_b);
  EXPECT_EQ(quanta_a, quanta_b);

  const auto a = read_lines(path_a);
  const auto b = read_lines(path_b);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Identical except the wall-clock stamp: same seed, same schedule,
    // same event payloads bit-for-bit.
    EXPECT_EQ(strip_wall_ms(a[i]), strip_wall_ms(b[i])) << "line " << i;
  }
}

/// Keeps every event in memory, fields copied out of the emitter's frame.
class CapturingSink : public obs::TraceSink {
 public:
  struct Captured {
    std::string category;
    std::string name;
    std::map<std::string, double> fields;
  };
  explicit CapturingSink(std::vector<Captured>& out) : out_(out) {}
  void write(const obs::TraceEvent& event) override {
    Captured c{event.category, event.name, {}};
    for (std::size_t i = 0; i < event.field_count; ++i) {
      c.fields[event.fields[i].key] = event.fields[i].value;
    }
    out_.push_back(std::move(c));
  }

 private:
  std::vector<Captured>& out_;
};

TEST_F(ObsTraceTest, QuantumEventsCountRecoveryQuanta) {
  std::vector<CapturingSink::Captured> events;
  obs::set_trace_sink(std::make_unique<CapturingSink>(events));
  sched::SystemParams params;  // seed = 42
  sched::SystemSimulator sim{params, sched::make_periodic_active_policy()};
  // 10 days at 6 h quanta: several 48 h policy periods, so both BTI
  // recovery windows and EM duty cycles appear in the trace.
  constexpr std::size_t kQuanta = 40;
  for (std::size_t i = 0; i < kQuanta; ++i) sim.step();
  obs::set_trace_sink(nullptr);

  std::size_t recovering = 0;
  for (const auto& e : events) {
    // Stepping emits sim/quantum and nothing else: a recovery edge is read
    // off consecutive quanta, not traced as an event of its own.
    ASSERT_EQ(e.category + "/" + e.name, "sim/quantum");
    if (e.fields.at("recovery_cores") > 0.0 ||
        e.fields.at("em_recovery") != 0.0) {
      ++recovering;
    }
  }
  EXPECT_EQ(events.size(), kQuanta);
  EXPECT_EQ(recovering, sim.recovery_quanta());
  // The schedule exercised recovery without recovering every quantum.
  EXPECT_GT(sim.recovery_quanta(), 0u);
  EXPECT_LT(sim.recovery_quanta(), kQuanta);
}

}  // namespace
}  // namespace dh
