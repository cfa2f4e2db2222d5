// Checkpoint/restore property tests at the system level: save → restore
// → run(T') must be bit-identical to an uninterrupted run(T+T') at 1, 4,
// and 8 threads, DH_CKPT_DIR-driven runs must resume their own snapshot,
// and any snapshot that does not match this build/configuration must be
// refused with a descriptive dh::Error before state is touched.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/ckpt/serialize.hpp"
#include "common/ckpt/snapshot.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "sched/system_sim.hpp"

namespace dh::sched {
namespace {

namespace fs = std::filesystem;

SystemParams small_chip(std::uint64_t seed = 7) {
  SystemParams p;
  p.rows = 2;
  p.cols = 2;
  p.quantum = hours(6.0);
  p.seed = seed;
  return p;
}

/// The adaptive policy carries per-core hysteresis state, so it exercises
/// the policy save/load path (the scheduled policies are stateless).
std::unique_ptr<RecoveryPolicy> adaptive() {
  return make_adaptive_sensor_policy({.threshold = Volts{0.004},
                                      .release = Volts{0.002},
                                      .em_recovery_duty = 0.2});
}

void expect_bit_identical(const SystemSummary& a, const SystemSummary& b) {
  EXPECT_EQ(a.guardband_fraction, b.guardband_fraction);
  EXPECT_EQ(a.final_degradation, b.final_degradation);
  EXPECT_EQ(a.time_to_failure.value(), b.time_to_failure.value());
  EXPECT_EQ(a.mean_throughput, b.mean_throughput);
  EXPECT_EQ(a.availability, b.availability);
  EXPECT_EQ(a.energy_joules, b.energy_joules);
  EXPECT_EQ(a.mean_temperature_c, b.mean_temperature_c);
  EXPECT_EQ(a.recovery_quanta, b.recovery_quanta);
  EXPECT_EQ(a.pdn_stats.worst_drop_v, b.pdn_stats.worst_drop_v);
  EXPECT_EQ(a.pdn_stats.max_void_len_m, b.pdn_stats.max_void_len_m);
  EXPECT_EQ(a.pdn_stats.nucleated_segments, b.pdn_stats.nucleated_segments);
  EXPECT_EQ(a.pdn_stats.broken_segments, b.pdn_stats.broken_segments);
}

void expect_traces_identical(const SystemSimulator& a,
                             const SystemSimulator& b) {
  EXPECT_EQ(a.degradation_trace().raw_times(),
            b.degradation_trace().raw_times());
  EXPECT_EQ(a.degradation_trace().raw_values(),
            b.degradation_trace().raw_values());
  EXPECT_EQ(a.ir_drop_trace().raw_values(), b.ir_drop_trace().raw_values());
  EXPECT_EQ(a.temperature_trace().raw_values(),
            b.temperature_trace().raw_values());
}

/// Scratch directory fixture (same pattern as tests/common/test_ckpt.cpp).
class CkptSystemTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("dh_ckpt_sys_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    unsetenv("DH_CKPT_DIR");
    unsetenv("DH_CKPT_EVERY");
    set_global_thread_count(0);  // back to the default pool
    fs::remove_all(dir_);
  }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

TEST_F(CkptSystemTest, ResumeIsBitIdenticalAcrossThreadCounts) {
  for (const std::size_t threads : {1u, 4u, 8u}) {
    set_global_thread_count(threads);

    SystemSimulator reference{small_chip(), adaptive()};
    reference.run(days(60.0));

    SystemSimulator first_half{small_chip(), adaptive()};
    first_half.run(days(30.0));
    ckpt::Serializer s;
    first_half.save_state(s);

    SystemSimulator resumed{small_chip(), adaptive()};
    ckpt::Deserializer d{s.take()};
    resumed.load_state(d);
    EXPECT_TRUE(d.exhausted());
    EXPECT_EQ(resumed.now().value(), first_half.now().value());
    resumed.run(days(60.0));

    expect_bit_identical(reference.summary(), resumed.summary());
    expect_traces_identical(reference, resumed);
  }
}

TEST_F(CkptSystemTest, CheckpointFileRoundTrip) {
  SystemSimulator reference{small_chip(), adaptive()};
  reference.run(days(40.0));

  SystemSimulator first_half{small_chip(), adaptive()};
  first_half.run(days(20.0));
  first_half.save_checkpoint(path("half.dhck"));

  SystemSimulator resumed{small_chip(), adaptive()};
  resumed.load_checkpoint(path("half.dhck"));
  resumed.run(days(40.0));
  expect_bit_identical(reference.summary(), resumed.summary());
}

TEST_F(CkptSystemTest, ForeignConfigurationRefused) {
  SystemSimulator sim{small_chip(), adaptive()};
  sim.run(days(10.0));
  sim.save_checkpoint(path("c.dhck"));

  SystemParams other = small_chip();
  other.rows = 3;
  other.cols = 3;
  SystemSimulator victim{other, adaptive()};
  try {
    victim.load_checkpoint(path("c.dhck"));
    FAIL() << "expected dh::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("different simulator configuration"),
              std::string::npos);
  }
}

TEST_F(CkptSystemTest, DifferentSeedRefused) {
  SystemSimulator sim{small_chip(7), adaptive()};
  sim.run(days(10.0));
  sim.save_checkpoint(path("c.dhck"));
  SystemSimulator victim{small_chip(8), adaptive()};
  EXPECT_THROW(victim.load_checkpoint(path("c.dhck")), Error);
}

TEST_F(CkptSystemTest, TrailingBytesRefused) {
  SystemSimulator sim{small_chip(), adaptive()};
  sim.run(days(10.0));
  ckpt::Serializer s;
  sim.save_state(s);
  auto payload = s.take();
  payload.push_back(0xFF);  // one byte past the simulator state
  ckpt::write_snapshot(path("c.dhck"), "system_sim", payload);
  SystemSimulator victim{small_chip(), adaptive()};
  try {
    victim.load_checkpoint(path("c.dhck"));
    FAIL() << "expected dh::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("trailing"), std::string::npos);
  }
}

TEST_F(CkptSystemTest, EnvDrivenCheckpointingResumesKilledRun) {
  setenv("DH_CKPT_DIR", dir_.string().c_str(), 1);
  setenv("DH_CKPT_EVERY", "16", 1);

  // "Killed" run: stops at 30 of 60 days, leaving its periodic
  // checkpoint behind (120 steps, a multiple of 16 is at step 112 —
  // losing at most one interval is the contract, so the resumed run
  // recomputes the tail from the last checkpoint).
  {
    SystemSimulator interrupted{small_chip(), adaptive()};
    interrupted.run(days(30.0));
  }
  EXPECT_TRUE(ckpt::snapshot_valid(path("sim_seed7_adaptive-sensor.dhck"),
                                   "system_sim"));

  // Fresh process stand-in: a new simulator auto-resumes from the
  // checkpoint directory and finishes the lifetime.
  SystemSimulator resumed{small_chip(), adaptive()};
  resumed.run(days(60.0));

  unsetenv("DH_CKPT_DIR");
  unsetenv("DH_CKPT_EVERY");
  SystemSimulator reference{small_chip(), adaptive()};
  reference.run(days(60.0));

  expect_bit_identical(reference.summary(), resumed.summary());
  expect_traces_identical(reference, resumed);
}

TEST_F(CkptSystemTest, PoliciesWithOneSeedResumeTheirOwnCheckpoints) {
  // Fig. 12 runs every policy at the same seed with one DH_CKPT_DIR. Each
  // policy must checkpoint to and resume from its own file.
  setenv("DH_CKPT_DIR", dir_.string().c_str(), 1);
  setenv("DH_CKPT_EVERY", "16", 1);
  const auto periodic = [] { return make_periodic_active_policy(); };
  {
    SystemSimulator a{small_chip(), adaptive()};
    a.run(days(30.0));
    SystemSimulator b{small_chip(), periodic()};
    b.run(days(30.0));
  }
  // 120 quanta ran; the last checkpoint is at quantum 112 (28 days).
  const auto expect_checkpoint_at_day_28 =
      [this](const std::string& name,
             std::unique_ptr<RecoveryPolicy> policy) {
        SystemSimulator probe{small_chip(), std::move(policy)};
        probe.load_checkpoint(path(name));
        EXPECT_EQ(probe.now().value(), days(28.0).value()) << name;
      };
  expect_checkpoint_at_day_28("sim_seed7_adaptive-sensor.dhck", adaptive());
  expect_checkpoint_at_day_28("sim_seed7_periodic-active.dhck", periodic());

  SystemSimulator resumed_a{small_chip(), adaptive()};
  resumed_a.run(days(60.0));
  SystemSimulator resumed_b{small_chip(), periodic()};
  resumed_b.run(days(60.0));

  unsetenv("DH_CKPT_DIR");
  unsetenv("DH_CKPT_EVERY");
  SystemSimulator reference_a{small_chip(), adaptive()};
  reference_a.run(days(60.0));
  SystemSimulator reference_b{small_chip(), periodic()};
  reference_b.run(days(60.0));
  expect_bit_identical(reference_a.summary(), resumed_a.summary());
  expect_traces_identical(reference_a, resumed_a);
  expect_bit_identical(reference_b.summary(), resumed_b.summary());
  expect_traces_identical(reference_b, resumed_b);
}

TEST_F(CkptSystemTest, MalformedCkptEveryRejected) {
  setenv("DH_CKPT_DIR", dir_.string().c_str(), 1);
  setenv("DH_CKPT_EVERY", "zero", 1);
  SystemSimulator sim{small_chip(), adaptive()};
  EXPECT_THROW(sim.run(days(1.0)), Error);
}

TEST_F(CkptSystemTest, NegativeCheckpointIntervalIsRejected) {
  // strtoull would wrap "-5" to 2^64-5, a positive interval no run ever
  // reaches, silently turning checkpointing off.
  setenv("DH_CKPT_DIR", dir_.string().c_str(), 1);
  setenv("DH_CKPT_EVERY", "-5", 1);
  SystemSimulator sim{small_chip(), adaptive()};
  try {
    sim.run(days(60.0));
    FAIL() << "expected dh::Error for DH_CKPT_EVERY=-5";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("must be a positive integer"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(sim.now().value(), 0.0);
}

}  // namespace
}  // namespace dh::sched
